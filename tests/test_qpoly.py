import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstat.qpoly import (
    MultiPoly,
    _dense_exact_div,
    geometric,
    q_binomial,
    q_factorial,
    q_multinomial,
)


def mono(c=1, q=0, t=0):
    return MultiPoly.monomial(c, q=q, t=t)


small_polys = st.builds(
    lambda terms: MultiPoly(0, {(eq, et): c for eq, et, c in terms}),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(-5, 5)),
        max_size=5,
    ),
)


def _mixed_poly(arity, terms):
    return MultiPoly(arity, {tuple(e[: 2 + arity]): c for e, c in terms})


mixed_polys = st.builds(
    _mixed_poly,
    st.integers(0, 3),
    st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * 5), st.integers(-3, 3)),
        max_size=5,
    ),
)


def assert_well_formed(p):
    """What the public constructor would check, for a trusted-path result."""
    assert p.terms == MultiPoly(p.arity, p.terms).terms
    assert all(len(e) == 2 + p.arity and min(e) >= 0 for e in p.terms)
    assert all(c != 0 for c in p.terms.values())


@given(mixed_polys, mixed_polys, st.integers(0, 2), st.integers(-3, 3))
@settings(max_examples=120)
def test_trusted_results_are_well_formed(a, b, extra, k):
    results = [a + b, a - b, a * b, -a, a.lift(a.arity + extra), a * 0, a * k, k * a, a + k]
    for r in results:
        assert_well_formed(r)
    assert (a + b).arity == (a * b).arity == max(a.arity, b.arity)
    assert (a * 0).is_zero() and a * 0 == MultiPoly.zero()
    assert (a - a).is_zero()


def test_add_mul_eval_examples():
    one_plus_q = mono(1) + mono(1, q=1)
    assert one_plus_q + mono(1, q=1) == mono(1) + mono(2, q=1)
    lhs = (mono(1) + mono(1, q=1, t=1)) * (mono(1) + mono(1, q=1) + mono(1, q=2, t=1))
    expected = (
        mono(1) + mono(1, q=1) + mono(1, q=1, t=1) + mono(2, q=2, t=1) + mono(1, q=3, t=2)
    )
    assert lhs == expected
    assert (mono(1) + mono(2, q=1)).evaluate(q=3) == 7


def test_q_factorial_and_binomial_examples():
    assert q_factorial(3).pretty() == "1 + 2*q + 2*q^2 + q^3"
    for n in range(0, 7):
        assert q_binomial(n, 0) == 1
    assert q_binomial(4, 2).pretty() == "1 + q + 2*q^2 + q^3 + q^4"


def test_pascal_recurrence_and_symmetry():
    for n in range(1, 9):
        for k in range(0, n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)
            if 1 <= k:
                assert q_binomial(n, k) == q_binomial(n - 1, k - 1) + mono(1, q=k) * q_binomial(n - 1, k)
            assert q_binomial(n, k).evaluate(q=1) == math.comb(n, k)


def test_q_multinomial():
    assert q_multinomial(4, (2, 2)) == q_binomial(4, 2)
    assert q_multinomial(5, (5,)) == 1
    assert q_multinomial(6, (1, 2, 3)) == q_binomial(6, 1) * q_binomial(5, 2)
    with pytest.raises(ValueError, match="sum"):
        q_multinomial(4, (2, 1))
    with pytest.raises(ValueError, match="non-negative"):
        q_multinomial(1, (2, -1))


def test_exact_division_guard():
    with pytest.raises(ArithmeticError, match="non-exact"):
        _dense_exact_div([1, 1], [2])
    with pytest.raises(ArithmeticError, match="non-exact"):
        _dense_exact_div([1, 0, 1], [1, 1])
    assert _dense_exact_div([1, 2, 1], [1, 1]) == [1, 1]


@given(small_polys, small_polys, small_polys)
@settings(max_examples=80)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.const(1) == a
    assert a * MultiPoly.zero() == MultiPoly.zero()


@given(small_polys, small_polys, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=80)
def test_eval_is_ring_morphism(a, b, qv, tv):
    assert (a + b).evaluate(q=qv, t=tv) == a.evaluate(q=qv, t=tv) + b.evaluate(q=qv, t=tv)
    assert (a * b).evaluate(q=qv, t=tv) == a.evaluate(q=qv, t=tv) * b.evaluate(q=qv, t=tv)


def test_zero_terms_pruned():
    p = mono(1, q=1) + mono(-1, q=1)
    assert p.is_zero() and p.terms == {}
    assert MultiPoly(0, {(0, 0): 0}).is_zero()


def test_arity_lifting():
    p = mono(2, q=1)
    q3 = p.lift(3)
    assert q3.arity == 3 and q3 == p
    marked = MultiPoly.monomial(1, q=1, ts=(1, 0))
    assert (p.lift(2) + marked).arity == 2
    with pytest.raises(ValueError):
        marked.lift(1)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError, match="negative"):
        MultiPoly(0, {(-1, 0): 1})
    with pytest.raises(ValueError, match="length"):
        MultiPoly(1, {(0, 0): 1})


def test_canonical_order_and_pretty():
    p = mono(1) + mono(2, q=1, t=1)
    assert p.pretty() == "1 + 2*q*t"
    staircase = mono(1) + mono(1, q=1) + mono(1, q=1, t=1) + mono(2, q=2, t=1) + mono(1, q=3, t=2)
    assert staircase.pretty() == "1 + q + q*t + 2*q^2*t + q^3*t^2"
    assert MultiPoly.zero().pretty() == "0"
    assert (mono(-1, q=2) + mono(1)).pretty() == "1 - q^2"
    assert (mono(-3, q=1) + mono(-1)).pretty() == "-1 - 3*q"
    assert MultiPoly.monomial(1, q=0, ts=(2,)).pretty() == "t1^2"


def test_json_form():
    p = mono(1) + mono(2, q=1, t=1)
    assert p.to_json() == [
        {"coeff": 1, "exps": [0, 0]},
        {"coeff": 2, "exps": [1, 1]},
    ]


def test_geometric_and_power():
    assert geometric(0).is_zero()
    assert geometric(2, arity=1) == mono(1) + mono(1, q=1)
    with pytest.raises(ValueError, match="non-negative"):
        geometric(2, arity=-1)
    assert geometric(3) == mono(1) + mono(1, q=1) + mono(1, q=2)
    assert geometric(2) ** 2 == mono(1) + mono(2, q=1) + mono(1, q=2)
    assert q_factorial(4) == geometric(1) * geometric(2) * geometric(3) * geometric(4)


def test_coefficient_extraction():
    p = mono(3) + mono(5, q=2, t=1) + mono(7, q=1, t=2)
    assert p.coefficient_of_t(1) == mono(5, q=2)
    assert p.coefficient_of_t(0) == mono(3)
    assert p.coefficient_of_t(3).is_zero()


def test_equal_arities_lift_nothing(monkeypatch):
    a = MultiPoly(1, {(1, 0, 1): 2, (0, 0, 0): 1})
    b = MultiPoly(1, {(0, 1, 0): 3})
    expected = (a + b, a * b)
    lifts = []
    original = MultiPoly.lift
    monkeypatch.setattr(MultiPoly, "lift", lambda self, arity: lifts.append(arity) or
                        original(self, arity))
    assert (a + b, a * b) == expected and a != b
    assert lifts == []
    assert a * MultiPoly.const(2) == a + a
    assert lifts and set(lifts) == {1}
