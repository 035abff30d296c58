"""The two-to-one-per-letter projection from alternating onto symmetric groups.

An even permutation of degree n+1 projects to a permutation of degree n by
mapping each canonical letter a_k to s_k; the two letters a_1 and a_1^{-1}
collapse together, so a permutation whose word uses d such letters has a
fibre of exactly 2^d preimages.  A pair of statistics (one symmetric, one
alternating) is compatible with the projection when the alternating statistic
of every element equals the symmetric statistic of its image.
"""
from __future__ import annotations

from dataclasses import dataclass

from .perm import Perm, check_even, iter_alternating
from .stats import (
    del_a,
    del_s,
    des_a,
    des_s,
    length_a,
    length_s,
    maj_a,
    maj_s,
    rmaj_a,
    rmaj_s,
)
from .words import a_lifts, a_pull, a_word_to_perm, s_canonical

# Statistics addressable by name in pair checks.  The reverse major index is
# bound to its canonical ambient: the degree on the symmetric side, one less
# than the degree on the alternating side.
S_STATS = {
    "length": length_s,
    "des": des_s,
    "maj": maj_s,
    "rmaj": lambda p: rmaj_s(p, len(p)),
    "del": del_s,
}
A_STATS = {
    "length": length_a,
    "des": des_a,
    "maj": maj_a,
    "rmaj": lambda v: rmaj_a(v, len(v) - 1),
    "del": del_a,
}


def f_map(v: Perm) -> Perm:
    """Project an even permutation one degree down, letter by letter.

    >>> f_map((2, 3, 1))
    (2, 1)
    """
    if len(v) < 2:
        raise ValueError("projection needs degree at least 2")
    return a_pull(check_even(v))[3]


def iter_fiber(w: Perm):
    """Yield the preimages of w, branching each letter s_1 both ways."""
    for lift in a_lifts(s_canonical(w)):
        yield a_word_to_perm(lift)


def fiber(w: Perm) -> list[Perm]:
    """All preimages of w, in lexicographic one-line order.

    >>> fiber((2, 1))
    [(2, 3, 1), (3, 1, 2)]
    """
    return sorted(iter_fiber(w))


@dataclass(frozen=True)
class FPairSpec:
    """A named candidate pair of statistics, referenced by registry name."""

    name: str
    s_stat: str
    a_stat: str


# The pairs known to commute with the projection.
KNOWN_F_PAIRS = tuple(
    FPairSpec(name, name, name) for name in ("length", "des", "maj", "rmaj", "del")
)


@dataclass(frozen=True)
class FPairReport:
    spec: FPairSpec
    n: int
    passed: bool
    checked: int
    counterexample: Perm | None


def verify_f_pair(spec: FPairSpec, n: int) -> FPairReport:
    """Check a_stat(v) == s_stat(f(v)) over the whole alternating group.

    Returns a report rather than a bare boolean; a failing report carries the
    first counterexample element.
    """
    if spec.s_stat not in S_STATS:
        raise ValueError(f"unknown symmetric statistic {spec.s_stat!r}")
    if spec.a_stat not in A_STATS:
        raise ValueError(f"unknown alternating statistic {spec.a_stat!r}")
    s_stat = S_STATS[spec.s_stat]
    a_stat = A_STATS[spec.a_stat]
    checked = 0
    for v in iter_alternating(n + 1):
        checked += 1
        if a_stat(v) != s_stat(f_map(v)):
            return FPairReport(spec, n, False, checked, v)
    return FPairReport(spec, n, True, checked, None)
