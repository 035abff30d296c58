import math
import random

import pytest

from oracles import brute_fiber, brute_fibres
from permstat.cover import f_map, fiber, iter_fiber
from permstat.perm import identity, inverse, iter_alternating, iter_symmetric, sign
from permstat.stats import (
    del_a,
    del_s,
    des_a,
    des_s,
    histograms,
    length_a,
    length_s,
    maj_a,
    maj_s,
    rmaj_a,
    rmaj_s,
)
from permstat.words import SWord, a_canonical, s_canonical, s_image, s_word_to_perm


def test_f_map_examples():
    for n in range(1, 6):
        assert f_map(identity(n + 1)) == identity(n)
    assert f_map((2, 3, 1)) == (2, 1)
    assert f_map((3, 1, 2)) == (2, 1)
    # letterwise image of the worked staircase example; its length must
    # match the six letters of the source word
    assert f_map((3, 5, 4, 2, 1)) == (4, 3, 2, 1)
    assert length_s((4, 3, 2, 1)) == 6


def test_f_map_rejects_odd():
    with pytest.raises(ValueError, match="odd"):
        f_map((2, 1, 3))


def test_f_map_preserves_word_shape():
    for m in range(2, 7):
        for v in iter_alternating(m):
            aw = a_canonical(v)
            image_word = s_canonical(f_map(v))
            assert image_word.factors == s_image(aw).factors
            assert length_s(f_map(v)) == length_a(v)


def test_fiber_examples():
    for n in range(1, 5):
        assert fiber(identity(n)) == [identity(n + 1)]
    assert fiber((2, 1)) == [(2, 3, 1), (3, 1, 2)]
    assert len(fiber((2, 5, 4, 1, 3))) == 2


def test_fiber_matches_brute_force():
    for n in range(1, 6):
        for w in iter_symmetric(n):
            assert set(fiber(w)) == brute_fiber(w)


def test_fibers_in_lexicographic_order():
    for n in range(1, 8):
        brute = brute_fibres(n)
        assert len(brute) == math.factorial(n)
        for w in iter_symmetric(n):
            assert list(iter_fiber(w)) == fiber(w) == brute[w]


def test_fiber_sizes_and_partition():
    for n in range(1, 6):
        seen = set()
        total = 0
        for w in iter_symmetric(n):
            lifts = fiber(w)
            assert len(lifts) == 2 ** del_s(w)
            assert len(set(lifts)) == len(lifts)
            for v in lifts:
                assert f_map(v) == w
            seen.update(lifts)
            total += len(lifts)
        order = math.factorial(n + 1) // 2
        assert total == order and len(seen) == order


def test_fibers_at_query_degrees():
    # Degrees 8..20 with delent up to 10: words built factor by factor with
    # d runs reaching s_1, multiplied out by the literal generator product.
    rng = random.Random(8020)
    for n in range(8, 21):
        most = min(10, n - 1)
        for d in (0, rng.randint(1, most - 1), most):
            full = set(rng.sample(range(1, n), d))
            starts = tuple(
                1 if j in full else rng.choice([None, *range(2, j + 1)])
                for j in range(1, n)
            )
            w = s_word_to_perm(SWord(n, starts))
            assert del_s(w) == d
            lifts = fiber(w)
            assert len(set(lifts)) == len(lifts) == 2 ** d
            assert all(a < b for a, b in zip(lifts, lifts[1:])), w
            for v in lifts:
                assert sign(v) == 1 and f_map(v) == w, (w, v)


def test_fiber_rejects_non_permutations():
    for bad in ((), (1, 1), (2, 2), (2, 3, 3)):
        with pytest.raises(ValueError):
            fiber(bad)
        with pytest.raises(ValueError):
            iter_fiber(bad)  # on the call, before any lift is asked for


def test_iter_fiber_is_lazy_and_complete():
    w = (2, 5, 4, 1, 3)
    assert sorted(iter_fiber(w)) == fiber(w)
    # The degree-20 reversal has 2^19 lifts, over 100 MB as a list of tuples;
    # its first ten come from one block of at most 256.
    import itertools
    import tracemalloc

    w = tuple(range(20, 0, -1))
    tracemalloc.start()
    try:
        first = list(itertools.islice(iter_fiber(w), 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert all(a < b for a, b in zip(first, first[1:]))
    for v in first:
        assert sign(v) == 1 and f_map(v) == w


def test_known_pairs_hold():
    # (alternating statistic, symmetric statistic); reverse maj takes the
    # degree of the image as its ambient on both sides.
    pairs = {
        "length": (length_a, length_s),
        "des": (des_a, des_s),
        "maj": (maj_a, maj_s),
        "rmaj": (lambda v: rmaj_a(v, len(v) - 1), lambda p: rmaj_s(p, len(p))),
        "del": (del_a, del_s),
    }
    for n in range(1, 7):
        for v in iter_alternating(n + 1):
            w = f_map(v)
            for name, (a_stat, s_stat) in pairs.items():
                assert a_stat(v) == s_stat(w), (name, v)


def test_pass_projections_regroup_into_the_fibres():
    # The alternating pass's "proj" column is f, as bytes: the elements it
    # projects onto w, each read back from its inverse, are w's fibre, each
    # counted once.
    for n in range(1, 7):
        (tally,), order = histograms("A", n, [("proj", "inverse")])
        fibres = {}
        for (w, inv), count in tally.items():
            assert count == 1
            fibres.setdefault(w, set()).add(inverse(tuple(inv)))
        assert sum(map(len, fibres.values())) == order == math.factorial(n + 1) // 2
        assert fibres == {bytes(w): set(fiber(w)) for w in iter_symmetric(n)}


def test_fiber_size_sum_matches_group_order():
    for n in range(1, 9):
        total = sum(2 ** del_s(w) for w in iter_symmetric(n))
        assert total == math.factorial(n + 1) // 2
