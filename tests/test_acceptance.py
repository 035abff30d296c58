"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is an exact integer, set, or polynomial equality; there are no
tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines as they complete.
"""
import functools
import math
import subprocess
import sys
import time

from oracles import stirling_cycle_counts
from permstat.identities import REGISTRY, verify
from permstat.perm import (
    compose,
    hat,
    identity,
    inverse,
    iter_alternating,
    iter_symmetric,
)
from permstat.qpoly import MultiPoly, q_binomial
from permstat.shuffles import enumerate_b_shuffles, g_map
from permstat.stats import (
    EXCLUDE_FIRST_POSITIONS,
    EXCLUDE_SMALLEST_VALUES,
    del_a,
    del_s,
    des_set_s,
    length_s,
    ltr_minima,
    maj_s,
    rmaj_s,
)
from permstat.words import (
    a_canonical,
    a_word_pretty,
    a_word_to_perm,
    epsilon_s,
    occurrences_s,
    s_canonical,
    s_word_pretty,
    s_word_to_perm,
)

BOTH_KINDS = (EXCLUDE_FIRST_POSITIONS, EXCLUDE_SMALLEST_VALUES)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")

        return wrapper

    return decorate


def mono(c=1, q=0, t=0):
    return MultiPoly.monomial(c, q=q, t=t)


def registry_passes(name, n_values, **extra):
    for n in n_values:
        report = verify(name, n, **extra)
        assert report.passed, (name, report.params)


@criterion("criterion 01 canonical round-trip and uniqueness")
def test_c01_round_trip_uniqueness():
    start = time.monotonic()
    for n in range(1, 9):
        words = set()
        for p in iter_symmetric(n):
            word = s_canonical(p)
            assert s_word_to_perm(word) == p
            words.add(word.factors)
        assert len(words) == math.factorial(n)
    for m in range(1, 10):
        words = set()
        order = 0
        for v in iter_alternating(m):
            order += 1
            word = a_canonical(v)
            assert a_word_to_perm(word) == v
            words.add(word.factors)
        assert order == (1 if m == 1 else math.factorial(m) // 2)
        assert len(words) == order
    assert time.monotonic() - start < 60


@criterion("criterion 02 worked examples byte-exact")
def test_c02_worked_examples():
    word = s_canonical((2, 5, 4, 1, 3))
    assert s_word_pretty(word) == "s1 | 1 | s3 s2 | s4 s3 s2"
    assert word.factors == (1, None, 2, 2)
    aword = a_canonical((3, 5, 4, 2, 1))
    assert a_word_pretty(aword) == "a1 | a2 a1^-1 | a3 a2 a1"
    assert aword.factors == ((1, False), (1, True), (1, False))


@criterion("criterion 03 bivariate staircase identity, symmetric")
def test_c03_staircase_s():
    registry_passes("thm61-s", range(1, 9))
    expected = mono(1) + mono(1, q=1) + mono(1, q=1, t=1) + mono(2, q=2, t=1) + mono(1, q=3, t=2)
    _, lhs, rhs, _ = next(iter(REGISTRY["thm61-s"].check(3)))
    assert MultiPoly(*lhs) == expected and MultiPoly(*rhs) == expected


@criterion("criterion 04 bivariate staircase identity, alternating")
def test_c04_staircase_a():
    start = time.monotonic()
    registry_passes("thm61-a", range(1, 9))
    expected = mono(1) + mono(2, q=1, t=1)
    _, lhs, rhs, _ = next(iter(REGISTRY["thm61-a"].check(2)))
    assert MultiPoly(*lhs) == expected and MultiPoly(*rhs) == expected
    assert time.monotonic() - start < 120


@criterion("criterion 05 double restriction equality, symmetric")
def test_c05_main_s():
    start = time.monotonic()
    registry_passes("main-s", range(1, 7))
    assert time.monotonic() - start < 60


@criterion("criterion 06 double restriction equality, alternating")
def test_c06_main_a():
    registry_passes("main-a", range(1, 6))


@criterion("criterion 07 trivariate equalities")
def test_c07_trivariate():
    registry_passes("cor92-s", range(1, 8))
    registry_passes("cor92-a", range(1, 8))


@criterion("criterion 08 fibre sizes partition the alternating group")
def test_c08_fibers():
    registry_passes("fiber-size", range(1, 8))


@criterion("criterion 09 delent and occurrence counts are Stirling numbers")
def test_c09_stirling():
    registry_passes("prop57-stirling-s", range(1, 9))
    registry_passes("prop57-stirling-a", range(1, 9))
    registry_passes("prop712-sk-occurrences", range(2, 9))
    # the cycle-count scan itself agrees with the triangular recurrence
    from permstat.identities import _tally_passes

    for n in range(1, 9):
        ((cycles,), _), = _tally_passes([("S", n, "cycles")])[0].values()
        assert [cycles.get(d + 1, 0) for d in range(n)] == stirling_cycle_counts(n)


@criterion("criterion 10 minima characterisations of delent")
def test_c10_minima():
    for n in range(1, 9):
        for w in iter_symmetric(n):
            word = s_canonical(w)
            winv = inverse(w)
            d = sum(1 for r in word.factors if r == 1)
            for kind in BOTH_KINDS:
                assert len(ltr_minima(w, 0, kind)) == d
                assert len(ltr_minima(winv, 0, kind)) == d
            for level in range(1, min(4, n - 1)):
                occ = occurrences_s(word, level + 1)
                for kind in BOTH_KINDS:
                    assert len(ltr_minima(w, level, kind)) == occ
            expected = {i + 1 for i, e in enumerate(epsilon_s(w), start=1) if e}
            assert ltr_minima(winv, 0, EXCLUDE_FIRST_POSITIONS) == expected
    for m in range(2, 9):
        for v in iter_alternating(m):
            d = del_a(v)
            vinv = inverse(v)
            assert del_a(vinv) == d
            for kind in BOTH_KINDS:
                assert len(ltr_minima(v, 1, kind)) == d
                assert len(ltr_minima(vinv, 1, kind)) == d


@criterion("criterion 11 shuffle suite")
def test_c11_shuffles():
    registry_passes("prop81", range(2, 7))
    registry_passes("lemma86", range(2, 7))
    registry_passes("lemma87", range(2, 7))
    registry_passes("lemma93", range(2, 7))
    registry_passes("garsia-gessel", range(2, 7))

    import itertools

    # block-order recognition matches inverse descents, all cut sets
    for n in range(1, 8):
        from permstat.shuffles import is_b_shuffle

        subsets = []
        for r in range(n):
            subsets.extend(itertools.combinations(range(1, n), r))
        for p in iter_symmetric(n):
            des_inv = des_set_s(inverse(p))
            for cuts in subsets:
                assert is_b_shuffle(p, set(cuts)) == (des_inv <= set(cuts))

    def low_support(n, i):
        return [p + tuple(range(i + 1, n + 1)) for p in iter_symmetric(i)]

    def high_support(n, k):
        return [
            tuple(range(1, k + 1)) + tuple(x + k for x in p)
            for p in iter_symmetric(n - k)
        ]

    for n in range(2, 7):
        for k in range(1, n):
            rs = enumerate_b_shuffles(n, {k})
            # two-block growth of inversions is the Gaussian binomial
            for p1 in low_support(n, k):
                for p2 in high_support(n, k):
                    base = compose(p1, p2)
                    acc = {}
                    for r in rs:
                        dlt = length_s(compose(base, r)) - length_s(p1) - length_s(p2)
                        acc[(dlt, 0)] = acc.get((dlt, 0), 0) + 1
                    assert MultiPoly(0, acc) == q_binomial(n, k)
            # first-letter dichotomy and the delent indicator
            for pi in low_support(n, k):
                for r in rs:
                    assert compose(pi, r)[0] in {pi[0], k + 1}
            for r in rs:
                lens = s_canonical(r).factor_lengths()
                assert all(l == 0 for l in lens[: k - 1])
                tail = lens[k - 1 :]
                assert all(tail[j] >= tail[j + 1] for j in range(len(tail) - 1))
                assert del_s(r) == (1 if r[0] == k + 1 else 0)
            # deletion map is a bijection onto the lower-degree shuffles
            sources = [r for r in rs if r[0] == k + 1]
            images = sorted(g_map(r, k) for r in sources)
            targets = (
                enumerate_b_shuffles(n - 1, {k}) if k <= n - 2 else [identity(n - 1)]
            )
            assert images == sorted(targets)
            # reverse-major bookkeeping under deletion
            if k <= n - 2:
                for pi in low_support(n, k):
                    pi_small = g_map(pi, k)
                    for r in sources:
                        full = rmaj_s(compose(pi, r), n)
                        small = rmaj_s(compose(pi_small, g_map(r, k)), n - 1)
                        assert full == (small if r[1] == k + 2 else n - 1 + small)
            # indicator additivity across the cut
            for pi in low_support(n, k):
                eps_pi = epsilon_s(pi)
                for r in rs:
                    assert epsilon_s(compose(pi, r)) == tuple(
                        a + b for a, b in zip(eps_pi, epsilon_s(r))
                    )


@criterion("criterion 12 folded statistics over even permutations")
def test_c12_folded():
    registry_passes("appendix-hat", range(2, 9))
    expected = mono(1) + mono(1, q=1) + mono(1, q=2)
    _, lhs, rhs, _ = next(iter(REGISTRY["appendix-hat"].check(3, i=1)))
    assert MultiPoly(*lhs) == expected and MultiPoly(*rhs) == expected


@criterion("criterion 13 order-reversing conjugation swaps the major indices")
def test_c13_conjugation():
    for n in range(1, 8):
        for p in iter_symmetric(n):
            h = hat(p)
            assert maj_s(h) == rmaj_s(p, n)
            assert length_s(h) == length_s(p)


@criterion("criterion 14 CLI determinism and full verification")
def test_c14_cli():
    start = time.monotonic()
    fixtures = [
        ["stat", "--group", "S", "[2,5,4,1,3]"],
        ["stat", "--group", "A", "[3,5,4,2,1]", "--format", "pretty"],
        ["canon", "--group", "S", "[2,5,4,1,3]", "--format", "pretty"],
        ["canon", "--group", "A", "[3,5,4,2,1]"],
        ["fiber", "[2,5,4,1,3]"],
        ["shuffles", "--n", "5", "--b", "2,4", "--format", "csv"],
        ["genfun", "--group", "A", "--n", "3", "--q-stat", "rmaj"],
        ["verify", "thm62-a", "--n", "3", "--jobs", "1"],
        ["list", "--format", "csv"],
    ]
    for argv in fixtures:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "permstat", *argv], capture_output=True
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, (argv, runs[0].stderr)
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, argv
    proc = subprocess.run(
        [sys.executable, "-m", "permstat", "verify", "--all", "--n-max", "5", "--jobs", "1"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 300
