"""Exact sparse polynomials over the integers in q, t, t1, t2, ...

Every polynomial carries a fixed number of indexed variables (its arity); the
two unindexed variables q and t are always present, so an exponent key is a
tuple ``(e_q, e_t, e_t1, ..., e_t<arity>)``.  Mixed-arity arithmetic lifts the
smaller operand by zero padding.  Coefficients are Python integers, so all
arithmetic is exact and cannot wrap or overflow.

The canonical term order, used by printing and JSON serialisation, sorts by
total degree and then lexicographically by exponent tuple.

Validation happens once, at the public constructor ``MultiPoly(arity,
terms)``: it checks every exponent tuple's width and sign and drops zero
coefficients.  Ring results (lifts, sums, negations, products) and the
polynomials built here from known-good terms go through the private trusted
constructor ``MultiPoly._trusted``, which skips those checks; their terms are
valid by construction.

Gaussian binomials are computed by exact polynomial division with a
divisibility assertion; nothing here ever touches floating point.
"""
from __future__ import annotations

from operator import add
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]


class MultiPoly:
    """Immutable sparse polynomial; do not mutate `terms` after construction.

    `MultiPoly(arity, terms)` validates its input: every key must be a tuple
    of 2 + arity non-negative exponents, and zero coefficients are dropped.
    Ring operations build their results with `_trusted`, which does not.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int = 0, terms: Mapping[Exponents, int] | None = None):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        width = 2 + arity
        clean: dict[Exponents, int] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != width:
                raise ValueError(f"exponent tuple {exps} has length {len(exps)}, need {width}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff != 0:
                clean[tuple(exps)] = coeff
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, arity: int, terms: dict[Exponents, int]) -> "MultiPoly":
        """Wrap terms that are valid by construction, without copying them.

        The caller guarantees that every key is a tuple of 2 + arity
        non-negative exponents and that no coefficient is zero, and hands
        over ownership of the dict.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "arity", arity)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return (MultiPoly, (self.arity, self.terms))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(arity: int = 0) -> "MultiPoly":
        return MultiPoly(arity, {})

    @staticmethod
    def const(c: int, arity: int = 0) -> "MultiPoly":
        return MultiPoly(arity, {(0,) * (2 + arity): c})

    @staticmethod
    def monomial(coeff: int = 1, q: int = 0, t: int = 0,
                 ts: Sequence[int] = (), arity: int | None = None) -> "MultiPoly":
        """A single term coeff * q^q * t^t * t1^ts[0] * ..."""
        if arity is None:
            arity = len(ts)
        exps = (q, t) + tuple(ts) + (0,) * (arity - len(ts))
        return MultiPoly(arity, {exps: coeff})

    def lift(self, arity: int) -> "MultiPoly":
        """Zero-pad to a larger arity."""
        if arity < self.arity:
            raise ValueError(f"cannot lower arity {self.arity} to {arity}")
        if arity == self.arity:
            return self
        pad = (0,) * (arity - self.arity)
        return MultiPoly._trusted(arity, {exps + pad: c for exps, c in self.terms.items()})

    def _aligned(self, other: "MultiPoly") -> tuple[int, "MultiPoly", "MultiPoly"]:
        """The common arity and both operands at it; equal arities lift nothing."""
        if self.arity == other.arity:
            return self.arity, self, other
        arity = max(self.arity, other.arity)
        return arity, self.lift(arity), other.lift(arity)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other, self.arity)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        arity, a, b = self._aligned(other)
        out = dict(a.terms)
        for exps, c in b.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return MultiPoly._trusted(arity, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other, self.arity)
        return self + (-other)

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            if not other:
                return MultiPoly._trusted(self.arity, {})
            return MultiPoly._trusted(self.arity, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        arity, a, b = self._aligned(other)
        out: dict[Exponents, int] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(map(add, e1, e2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return MultiPoly._trusted(arity, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.const(1, self.arity)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other, self.arity)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _, a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- queries -------------------------------------------------------------

    def evaluate(self, q: int, t: int = 1, ts: Sequence[int] = ()) -> int:
        """Substitute integers for all variables; unsupplied t-variables get 1."""
        values = [q, t] + list(ts) + [1] * (self.arity - len(ts))
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v ** e
            total += term
        return total

    def coefficient_of_t(self, k: int) -> "MultiPoly":
        """The q-polynomial multiplying t^k."""
        out = {}
        for exps, c in self.terms.items():
            if exps[1] == k and all(e == 0 for e in exps[2:]):
                out[(exps[0], 0) + (0,) * self.arity] = c
        return MultiPoly(self.arity, out)

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """Canonical order: total degree, then lexicographic exponents."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- rendering -------------------------------------------------------------

    def var_names(self) -> list[str]:
        return ["q", "t"] + [f"t{i}" for i in range(1, self.arity + 1)]

    def pretty(self) -> str:
        """Canonical text form, e.g. '1 + q + q*t + 2*q^2*t + q^3*t^2'."""
        if not self.terms:
            return "0"
        names = self.var_names()
        pieces = []
        for exps, coeff in self.sorted_terms():
            vars_part = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps) if e > 0
            )
            mag = abs(coeff)
            if not vars_part:
                body = str(mag)
            elif mag == 1:
                body = vars_part
            else:
                body = f"{mag}*{vars_part}"
            pieces.append((coeff < 0, body))
        neg, body = pieces[0]
        text = ("-" if neg else "") + body
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def to_json(self) -> list[dict]:
        return [{"coeff": c, "exps": list(e)} for e, c in self.sorted_terms()]

    def __repr__(self):
        return f"MultiPoly({self.pretty()!r})"


def geometric(j: int, arity: int = 0) -> MultiPoly:
    """1 + q + ... + q^(j-1); the empty sum for j = 0."""
    if arity < 0:
        raise ValueError("arity must be non-negative")
    pad = (0,) * arity
    return MultiPoly._trusted(arity, {(e, 0) + pad: 1 for e in range(j)})


# -- Gaussian binomials ------------------------------------------------------
# Dense coefficient lists in q keep the exact division trivial.

def _dense_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _dense_exact_div(num: list[int], den: list[int]) -> list[int]:
    """Exact univariate division; raises ArithmeticError on any remainder."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return [0]
    if len(num) < len(den):
        raise ArithmeticError("non-exact polynomial division")
    quot = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        quot[k] = c // lead
        if quot[k]:
            for j, y in enumerate(den):
                num[k + j] -= quot[k] * y
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return quot


def _dense_q_factorial(n: int) -> list[int]:
    out = [1]
    for j in range(1, n + 1):
        out = _dense_mul(out, [1] * j)
    return out


def _from_dense(coeffs: list[int], arity: int = 0) -> MultiPoly:
    pad = (0,) * arity
    return MultiPoly._trusted(arity, {(e, 0) + pad: c for e, c in enumerate(coeffs) if c})


def q_factorial(n: int) -> MultiPoly:
    """Product of 1 + q + ... + q^(j-1) over j = 1..n.

    >>> q_factorial(3).pretty()
    '1 + 2*q + 2*q^2 + q^3'
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return _from_dense(_dense_q_factorial(n))


def q_multinomial(n: int, parts: Iterable[int]) -> MultiPoly:
    """Gaussian multinomial: the q-factorial of n over those of the parts."""
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative")
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    num = _dense_q_factorial(n)
    for p in parts:
        num = _dense_exact_div(num, _dense_q_factorial(p))
    return _from_dense(num)


def q_binomial(n: int, k: int) -> MultiPoly:
    """Gaussian binomial; zero when k is outside 0..n.

    >>> q_binomial(4, 2).pretty()
    '1 + q + 2*q^2 + q^3 + q^4'
    """
    if k < 0 or k > n:
        return MultiPoly.zero()
    return q_multinomial(n, (k, n - k))
