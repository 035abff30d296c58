import itertools
import math

import pytest

from permstat.perm import compose, compose_all, identity, inverse, iter_symmetric, nu, support
from permstat.qpoly import MultiPoly, q_binomial
from permstat.shuffles import (
    FIRST_ANY,
    FIRST_NEW_BLOCK,
    FIRST_UNCHANGED,
    decompose,
    enumerate_b_shuffles,
    g_map,
    is_b_shuffle,
    shuffle_count,
    shuffle_sum,
)
from permstat.stats import del_s, des_set_s, length_s, maj_s, rmaj_s
from permstat.words import epsilon_s, s_canonical


def embed_low(p, n):
    return p + tuple(range(len(p) + 1, n + 1))


def low_support_perms(n, i):
    return [embed_low(p, n) for p in iter_symmetric(i)]


def test_is_b_shuffle_examples():
    assert is_b_shuffle((3, 1, 4, 2), {2})
    assert is_b_shuffle(identity(4), set())
    assert not is_b_shuffle((2, 1, 3, 4), {2})


def test_inverse_descent_characterisation():
    for n in range(1, 6):
        cut_points = list(range(1, n))
        for r in range(len(cut_points) + 1):
            for cuts in itertools.combinations(cut_points, r):
                cuts = set(cuts)
                for p in iter_symmetric(n):
                    assert is_b_shuffle(p, cuts) == (des_set_s(inverse(p)) <= cuts)


def test_enumerate_examples():
    assert enumerate_b_shuffles(4, {2}) == [
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (1, 3, 4, 2),
        (3, 1, 2, 4),
        (3, 1, 4, 2),
        (3, 4, 1, 2),
    ]
    for n in range(1, 6):
        assert enumerate_b_shuffles(n, set()) == [identity(n)]
    assert enumerate_b_shuffles(3, {1, 2}) == sorted(iter_symmetric(3))


def test_enumeration_is_exact_and_counted():
    for n in range(1, 7):
        for cuts in [{1}, {n - 1}, {1, n - 1}, set(range(1, n))]:
            cuts = {c for c in cuts if 1 <= c <= n - 1}
            got = enumerate_b_shuffles(n, cuts)
            assert len(got) == shuffle_count(n, cuts)
            assert got == sorted(got)
            assert all(is_b_shuffle(p, cuts) for p in got)
            expected = [p for p in iter_symmetric(n) if is_b_shuffle(p, cuts)]
            assert got == expected


def test_decompose_examples():
    assert decompose(identity(5), {1, 3}) == (identity(5), identity(5))
    assert decompose((3, 1, 4, 2), {2}) == ((3, 1, 4, 2),)
    with pytest.raises(ValueError, match="not a shuffle"):
        decompose((2, 1, 3, 4), {2})


def test_decompose_reconstructs_and_refines():
    for n, cuts in [(5, {1, 3}), (5, {2, 4}), (6, {2, 3, 5}), (4, {1, 2, 3})]:
        edges = sorted(cuts)
        bounds = edges + [n]
        for p in enumerate_b_shuffles(n, cuts):
            parts = decompose(p, cuts)
            assert compose_all(parts) == p
            assert del_s(p) == sum(del_s(t) for t in parts)
            eps = epsilon_s(p)
            for j, t in enumerate(parts):
                assert is_b_shuffle(t, {edges[j]})
                assert support(t) <= set(range(1, bounds[j + 1] + 1))
                # the indicator of p at the j-th cut is the delent of the factor
                assert eps[edges[j] - 1] == del_s(t)
            assert sum(eps) == sum(eps[e - 1] for e in edges)


def test_g_map_examples():
    assert g_map((5, 2, 3, 6, 1, 4), 2) == (4, 2, 5, 1, 3)
    for n in range(2, 6):
        for i in range(1, n):
            assert g_map(identity(n), i) == identity(n - 1)
    with pytest.raises(ValueError):
        g_map((1, 2, 3), 3)


def test_g_map_commutes_with_low_support_action():
    for n in range(2, 6):
        for i in range(1, n):
            for pi in low_support_perms(n, i):
                for sigma in iter_symmetric(n):
                    assert compose(g_map(pi, i), g_map(sigma, i)) == g_map(compose(pi, sigma), i)


def test_g_map_bijection_on_new_block_shuffles():
    for n in range(2, 7):
        for i in range(1, n):
            sources = [r for r in enumerate_b_shuffles(n, {i}) if r[0] == i + 1]
            images = [g_map(r, i) for r in sources]
            if i <= n - 2:
                targets = enumerate_b_shuffles(n - 1, {i})
            else:
                targets = [identity(n - 1)]
            assert sorted(images) == sorted(targets)
            assert len(set(images)) == len(images)


def test_first_letter_dichotomy():
    for n in range(2, 6):
        for i in range(1, n):
            for pi in low_support_perms(n, i):
                for r in enumerate_b_shuffles(n, {i}):
                    head = compose(pi, r)[0]
                    assert head in {pi[0], i + 1}


def test_rmaj_under_deletion():
    for n in range(3, 6):
        for i in range(1, n - 1):
            for pi in low_support_perms(n, i):
                pi_small = g_map(pi, i)
                for r in enumerate_b_shuffles(n, {i}):
                    if r[0] != i + 1:
                        continue
                    prod_small = compose(pi_small, g_map(r, i))
                    full = rmaj_s(compose(pi, r), n)
                    small = rmaj_s(prod_small, n - 1)
                    if r[1] == i + 2:
                        assert full == small
                    elif r[1] == 1:
                        assert full == n - 1 + small
                    else:
                        raise AssertionError("second letter outside the dichotomy")


def test_single_cut_word_shape():
    # factors below the cut are empty and lengths never increase upward
    for n in range(2, 7):
        for i in range(1, n):
            for r in enumerate_b_shuffles(n, {i}):
                lens = s_canonical(r).factor_lengths()
                assert all(l == 0 for l in lens[: i - 1])
                tail = lens[i - 1 :]
                assert all(tail[j] >= tail[j + 1] for j in range(len(tail) - 1))


def test_single_cut_delent_indicator():
    for n in range(2, 7):
        for i in range(1, n):
            for r in enumerate_b_shuffles(n, {i}):
                expected = 1 if r[0] == i + 1 else 0
                assert del_s(r) == expected
                eps = epsilon_s(r)
                assert sum(eps) == expected
                if expected:
                    assert eps[i - 1] == 1


def test_epsilon_additivity():
    for n in range(2, 6):
        for i in range(1, n):
            for pi in low_support_perms(n, i):
                eps_pi = epsilon_s(pi)
                for r in enumerate_b_shuffles(n, {i}):
                    eps_r = epsilon_s(r)
                    eps_prod = epsilon_s(compose(pi, r))
                    assert eps_prod == tuple(a + b for a, b in zip(eps_pi, eps_r))


def test_shuffle_sum_examples():
    assert shuffle_sum(identity(4), 2, "length", FIRST_ANY) == q_binomial(4, 2)
    assert shuffle_sum(identity(2), 1, "rmaj", FIRST_NEW_BLOCK) == MultiPoly.monomial(1, q=1)
    for n in range(2, 6):
        for i in range(1, n):
            for pi in low_support_perms(n, i):
                assert shuffle_sum(pi, i, "rmaj", FIRST_UNCHANGED) == q_binomial(n - 1, i - 1)
    with pytest.raises(ValueError, match="support"):
        shuffle_sum((1, 3, 2), 1, "length", FIRST_ANY)
    with pytest.raises(ValueError, match="unknown statistic"):
        shuffle_sum(identity(3), 1, "maj", FIRST_ANY)


def test_two_sided_shuffle_growth():
    # inversions grow by a Gaussian binomial when shuffling two blocks with
    # frozen internal orders
    for n in range(2, 6):
        for k in range(1, n):
            rs = enumerate_b_shuffles(n, {k})
            for p1 in low_support_perms(n, k):
                for small in iter_symmetric(n - k):
                    p2 = tuple(range(1, k + 1)) + tuple(x + k for x in small)
                    base = compose(p1, p2)
                    acc: dict = {}
                    for r in rs:
                        d = length_s(compose(base, r)) - length_s(p1) - length_s(p2)
                        acc[(d, 0)] = acc.get((d, 0), 0) + 1
                    assert MultiPoly(0, acc) == q_binomial(n, k)


def test_relabelled_maj_shuffle_growth():
    for n in range(2, 6):
        for k in range(1, n):
            rs = enumerate_b_shuffles(n, {k})
            nu_k = nu(k, n)
            nu_k_inv = inverse(nu_k)
            for p1 in low_support_perms(n, k):
                m1 = maj_s(p1)
                for small in iter_symmetric(n - k):
                    p2 = tuple(range(1, k + 1)) + tuple(x + k for x in small)
                    m2 = maj_s(compose(compose(nu_k_inv, p2), nu_k))
                    base = compose(p1, p2)
                    acc: dict = {}
                    for r in rs:
                        d = maj_s(compose(base, r)) - m1 - m2
                        acc[(d, 0)] = acc.get((d, 0), 0) + 1
                    assert MultiPoly(0, acc) == q_binomial(n, k)


def test_shuffle_count_cap_math():
    assert shuffle_count(6, {3}) == math.comb(6, 3)
    assert shuffle_count(6, {2, 4}) == math.factorial(6) // (2 * 2 * 2)


def test_shuffle_sum_unaffected_by_a_caller_changing_enumerated_lists():
    before = shuffle_sum((2, 1, 3, 4), 2, "length", FIRST_ANY)
    listed = enumerate_b_shuffles(4, {2})
    listed.clear()
    assert enumerate_b_shuffles(4, {2}) != listed
    assert shuffle_sum((2, 1, 3, 4), 2, "length", FIRST_ANY) == before == q_binomial(4, 2)
