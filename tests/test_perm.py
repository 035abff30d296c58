import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstat.perm import (
    adjacent_transposition,
    compose,
    hat,
    identity,
    inverse,
    iter_alternating,
    iter_symmetric,
    nu,
    parse_one_line,
    rho,
    sign,
    support,
)
from permstat.stats import des_set_s, length_s, maj_s, rmaj_s

perms = lambda n: st.permutations(range(1, n + 1)).map(tuple)


def test_parse_one_line():
    assert parse_one_line("[2,1]") == (2, 1)
    assert parse_one_line("2,5,4,1,3") == (2, 5, 4, 1, 3)
    with pytest.raises(ValueError, match="duplicate image 1"):
        parse_one_line("[1,1,2]")
    with pytest.raises(ValueError, match="malformed"):
        parse_one_line("2,x,1")
    with pytest.raises(ValueError, match="out of range"):
        parse_one_line("1,2,5")


def test_compose_examples():
    assert compose((2, 5, 4, 1, 3), adjacent_transposition(5, 2)) == (2, 4, 5, 1, 3)
    assert compose(identity(5), (2, 5, 4, 1, 3)) == (2, 5, 4, 1, 3)
    assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    with pytest.raises(ValueError, match="degree mismatch"):
        compose((1, 2), (1, 2, 3))


def test_inverse_examples():
    assert inverse((2, 3, 1)) == (3, 1, 2)
    assert inverse(identity(4)) == identity(4)
    assert inverse((2, 5, 4, 1, 3)) == (4, 1, 5, 3, 2)


@given(perms(6))
def test_inverse_round_trip(p):
    assert compose(p, inverse(p)) == identity(6)
    assert compose(inverse(p), p) == identity(6)


@given(perms(8), perms(8), perms(8))
@settings(max_examples=60)
def test_compose_associative_identity_neutral(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    e = identity(8)
    assert compose(a, e) == a and compose(e, a) == a


def test_sign_examples():
    assert sign(identity(3)) == 1
    assert sign(adjacent_transposition(3, 1)) == -1
    assert sign((2, 3, 1)) == 1


def test_sign_matches_inversion_parity():
    for n in range(1, 6):
        for p in iter_symmetric(n):
            assert sign(p) == (-1) ** length_s(p)


@given(perms(6), perms(6))
@settings(max_examples=60)
def test_sign_homomorphism(a, b):
    assert sign(compose(a, b)) == sign(a) * sign(b)


def test_support():
    assert support(identity(4)) == set()
    assert support((2, 1, 3, 4)) == {1, 2}
    assert support((1, 3, 2, 4)) == {2, 3}


def test_rho_nu_hat_examples():
    assert rho(4) == (4, 3, 2, 1)
    assert nu(2, 4) == (3, 4, 1, 2)
    assert hat((2, 1, 3)) == (1, 3, 2)
    with pytest.raises(ValueError):
        nu(4, 4)
    with pytest.raises(ValueError):
        nu(0, 4)


def test_hat_is_conjugation_automorphism():
    for n in range(1, 6):
        r = rho(n)
        for p in iter_symmetric(n):
            assert hat(p) == compose(compose(r, p), r)
    for a in iter_symmetric(4):
        for b in iter_symmetric(4):
            assert hat(compose(a, b)) == compose(hat(a), hat(b))


def test_hat_preserves_inversions():
    for n in range(1, 7):
        for p in iter_symmetric(n):
            assert length_s(hat(p)) == length_s(p)


def test_hat_swaps_rmaj_and_maj():
    for n in range(1, 7):
        for p in iter_symmetric(n):
            assert rmaj_s(p, n) == maj_s(hat(p))


def test_hat_reflects_inverse_descent_restriction():
    for n in range(2, 6):
        for p in iter_symmetric(n):
            d = des_set_s(inverse(p))
            d_hat = des_set_s(inverse(hat(p)))
            for i in range(1, n):
                assert (d <= {i}) == (d_hat <= {n - i})


def test_alternating_iteration():
    for n in range(1, 7):
        evens = list(iter_alternating(n))
        assert len(evens) == (1 if n == 1 else math.factorial(n) // 2)
        assert all(sign(p) == 1 for p in evens)
        assert evens == sorted(evens)
    # Degree 9 runs past the precomputed block of the last eight digits, and
    # degree 12 chains blocks under four high digits.  The reference filters
    # by the cycle-count sign, which shares no code with the selector.
    by_sign = lambda n: (p for p in itertools.permutations(range(1, n + 1)) if sign(p) == 1)
    assert list(iter_alternating(9)) == list(by_sign(9))
    prefix = 100_000
    assert list(itertools.islice(iter_alternating(12), prefix)) == list(
        itertools.islice(by_sign(12), prefix)
    )


def test_alternating_iteration_starts_small():
    tracemalloc.start()
    try:
        first = next(iter_alternating(12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == tuple(range(1, 13))
    assert peak < 256 * 1024


def test_nu_relabels_lower_block():
    for n in range(2, 7):
        for k in range(1, n):
            v = nu(k, n)
            assert [v[j - 1] for j in range(1, n - k + 1)] == list(range(k + 1, n + 1))
            assert sorted(v) == list(range(1, n + 1))
