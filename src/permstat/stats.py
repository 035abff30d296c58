"""Scalar and set-valued statistics on symmetric and alternating groups.

Symmetric-group statistics work on the one-line word directly: length is the
inversion count, descents are positions i with p(i) > p(i+1), the major index
sums descent positions and the reverse major index sums their complements
n - i (which makes it depend on the ambient degree n, always passed
explicitly).

Alternating-group statistics are read off the canonical word of the even
permutation: length counts its letters, the delent number counts the letters
a_1 and a_1^{-1}, and the descent set is the descent set of the letterwise
projection one degree down.  The defining comparison of alternating descents
(right-multiplying by the generator does not raise the length) is kept in
the test suite as an oracle.

The delent statistics also have a purely positional description via
left-to-right minima; ``ltr_minima`` implements the whole family of
"value smaller than all but at most `level` earlier values" position sets
under both exclusion conventions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .perm import Perm, check_even, iter_alternating, iter_symmetric
from .qpoly import MultiPoly
from .words import a_pull, indicators, s_pull

EXCLUDE_FIRST_POSITIONS = "exclude-first-positions"
EXCLUDE_SMALLEST_VALUES = "exclude-smallest-values"
_KINDS = (EXCLUDE_FIRST_POSITIONS, EXCLUDE_SMALLEST_VALUES)


# -- symmetric-group statistics ---------------------------------------------

def length_s(p: Perm) -> int:
    """Inversion count.

    >>> length_s((2, 5, 4, 1, 3))
    6
    """
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def des_set_s(p: Sequence[int]) -> set[int]:
    """Positions i with p(i) > p(i+1)."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def des_s(p: Perm) -> int:
    return len(des_set_s(p))


def maj_s(p: Sequence[int]) -> int:
    return sum(des_set_s(p))


def rmaj_s(p: Perm, n: int) -> int:
    """Sum of n - i over descents i; n is the ambient degree, given explicitly."""
    des = des_set_s(p)
    return n * len(des) - sum(des)


# Descents, and hence both major indices, make sense for any integer
# sequence; the insertion identities are quantified over such sequences.

seq_des_set = des_set_s
seq_maj = maj_s


def seq_rmaj(seq: Sequence[int]) -> int:
    return rmaj_s(seq, len(seq))


# -- left-to-right minima ----------------------------------------------------

def ltr_minima(p: Perm, level: int = 0, kind: str = EXCLUDE_FIRST_POSITIONS) -> set[int]:
    """Positions whose value beats all but at most `level` earlier values.

    Without an exclusion rule the first level+1 positions and the positions
    holding the values 1..level+1 qualify trivially; `kind` discards one or
    the other family, so the identity permutation has no minima at any level.

    >>> sorted(ltr_minima((3, 2, 7, 8, 4, 6, 1, 5)))
    [2, 7]
    >>> sorted(ltr_minima((3, 2, 7, 8, 4, 6, 1, 5), kind=EXCLUDE_SMALLEST_VALUES))
    [1, 2]
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if level < 0:
        raise ValueError("level must be non-negative")
    out = set()
    for i in range(1, len(p) + 1):
        if kind == EXCLUDE_FIRST_POSITIONS and i <= level + 1:
            continue
        if kind == EXCLUDE_SMALLEST_VALUES and p[i - 1] <= level + 1:
            continue
        smaller = sum(1 for j in range(1, i) if p[j - 1] < p[i - 1])
        if smaller <= level:
            out.add(i)
    return out


def del_s(p: Perm) -> int:
    """Number of s_1 letters in the canonical word.

    >>> del_s((3, 5, 4, 2, 1))
    2
    """
    return s_pull(p)[1]


def del_set_s(p: Perm) -> set[int]:
    """Positions of left-to-right minima, first position excluded."""
    return ltr_minima(p, level=0, kind=EXCLUDE_FIRST_POSITIONS)


# -- alternating-group statistics --------------------------------------------

def length_a(v: Perm) -> int:
    """Letter count of the canonical word of an even permutation.

    >>> length_a((3, 5, 4, 2, 1))
    6
    """
    return a_pull(check_even(v))[0]


def des_set_a(v: Perm) -> set[int]:
    """Descent set of the projection one degree down."""
    if len(v) == 1 and v != (1,):
        raise ValueError(f"{list(v)} is not a permutation of degree 1")
    return des_set_s(a_pull(check_even(v))[3])


def des_a(v: Perm) -> int:
    return len(des_set_a(v))


def maj_a(v: Perm) -> int:
    return sum(des_set_a(v))


def rmaj_a(v: Perm, n: int) -> int:
    """Sum of n - i over alternating descents; the group has degree n + 1."""
    return sum(n - i for i in des_set_a(v))


def del_a(v: Perm) -> int:
    """Number of a_1 and a_1^{-1} letters in the canonical word."""
    return a_pull(check_even(v))[1]


def del_set_a(v: Perm) -> set[int]:
    """Positions beaten by at most one earlier value, first two positions excluded."""
    return ltr_minima(check_even(v), level=1, kind=EXCLUDE_FIRST_POSITIONS)


# -- doubled statistics over a two-to-one fold --------------------------------

def h_map(p: Perm, i: int) -> Perm:
    """Swap the values i, i+1 in p when i+1 appears to the left of i; else p.

    The condition is a descent of the inverse at i, so the map is two-to-one
    onto permutations whose inverse ascends at i, the fibres being {q, s_i q}.
    """
    if not 1 <= i <= len(p) - 1:
        raise ValueError(f"position {i} outside 1..{len(p) - 1}")
    if p.index(i) > p.index(i + 1):
        return tuple(i + 1 if x == i else i if x == i + 1 else x for x in p)
    return p


def hat_ell(p: Perm, i: int) -> int:
    return length_s(h_map(p, i))


def hat_maj(p: Perm, i: int) -> int:
    return maj_s(h_map(p, i))


# -- bundled profile -----------------------------------------------------------

@dataclass(frozen=True)
class StatProfile:
    """Every statistic of one permutation, under the S or A reading."""

    group: str
    n: int
    length: int
    des_set: tuple[int, ...]
    des: int
    maj: int
    rmaj: int
    delent: int
    del_set: tuple[int, ...]
    epsilon: tuple[int, ...]


def stat_profile(p: Perm, group: str) -> StatProfile:
    """Compute the full profile; factorises the permutation exactly once."""
    if group == "S":
        n = len(p)
        length, delent, bottoms = s_pull(p)
        des = des_set_s(p)
        del_set = del_set_s(p)
    elif group == "A":
        n = len(p) - 1
        length, delent, bottoms, proj, _ = a_pull(check_even(p))
        des = des_set_s(proj)
        del_set = ltr_minima(p, level=1, kind=EXCLUDE_FIRST_POSITIONS)
    else:
        raise ValueError(f"unknown group {group!r}; expected 'S' or 'A'")
    return StatProfile(
        group=group,
        n=n,
        length=length,
        des_set=tuple(sorted(des)),
        des=len(des),
        maj=sum(des),
        rmaj=sum(n - i for i in des),
        delent=delent,
        del_set=tuple(sorted(del_set)),
        epsilon=indicators(bottoms),
    )


def profile_to_json(profile: StatProfile) -> dict:
    """Flat JSON object; set fields as sorted arrays, delent under key 'del'."""
    return {
        "group": profile.group,
        "n": profile.n,
        "length": profile.length,
        "des": profile.des,
        "des_set": list(profile.des_set),
        "maj": profile.maj,
        "rmaj": profile.rmaj,
        "del": profile.delent,
        "del_set": list(profile.del_set),
        "epsilon": list(profile.epsilon),
    }


# -- whole-group scans -----------------------------------------------------------

def histograms(group: str, n: int,
               row: Callable[[Perm, tuple], tuple]) -> tuple[tuple[dict, ...], int]:
    """Tally a row of keys per element over a whole group, in one pass.

    Group "S" is the symmetric group of degree n and "A" the alternating
    group of degree n + 1, which projects onto it.  Each element is pulled
    once, by ``s_pull`` or ``a_pull``, and ``row(element, record)`` returns
    one key per histogram.  Both records start with the length, the delent
    number and the factor starts or projected ends; an A record's fourth
    field is the projection.  Returns the histograms and the group order.
    """
    if group == "S":
        elements, pull = iter_symmetric(n), s_pull
    elif group == "A":
        elements, pull = iter_alternating(n + 1), a_pull
    else:
        raise ValueError(f"unknown group {group!r}; expected 'S' or 'A'")
    joint: dict[tuple, int] = {}
    for p in elements:
        keys = row(p, pull(p))
        joint[keys] = joint.get(keys, 0) + 1
    # Rows repeat, so splitting the joint tally afterwards is the cheap way.
    tallies = tuple({} for _ in next(iter(joint)))
    for keys, c in joint.items():
        for tally, key in zip(tallies, keys):
            tally[key] = tally.get(key, 0) + c
    return tallies, sum(joint.values())


def genfun(group: str, n: int, q_stat: str = "length", t_stat: str = "del",
           multivar: bool = False) -> MultiPoly:
    """Generating polynomial of (q_stat, t_stat) over S_n, or A_{n+1} for group "A".

    q_stat is "length", "maj" or "rmaj" (ambient degree n); t_stat is "del"
    or "none".  With multivar, t_j marks each factor whose run reaches the
    first generator, in place of t for the total delent.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if multivar and t_stat == "none":
        raise ValueError("--multivar refines the delent marking; it needs --t-stat del")
    if q_stat not in ("length", "maj", "rmaj") or t_stat not in ("del", "none"):
        raise ValueError(f"unknown statistic pair ({q_stat!r}, {t_stat!r})")
    # The descents of an S element are its own; those of an A element are
    # its projection's, the fourth field of its record.
    word = (lambda p, rec: p) if group == "S" else (lambda v, rec: rec[3])
    if q_stat == "length":
        q = lambda p, rec: rec[0]
    elif q_stat == "maj":
        q = lambda p, rec: maj_s(word(p, rec))
    else:
        q = lambda p, rec: rmaj_s(word(p, rec), n)
    if multivar:
        row = lambda p, rec: ((q(p, rec), 0) + indicators(rec[2]),)
    elif t_stat == "del":
        row = lambda p, rec: ((q(p, rec), rec[1]),)
    else:
        row = lambda p, rec: ((q(p, rec), 0),)
    (acc,), _ = histograms(group, n, row)
    return MultiPoly(n - 1 if multivar else 0, acc)
