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

``histograms`` tallies rows of keys over a whole group in one pass.  Which
rows share a pass, and the rows themselves, are the registry's business: see
``identities._tally_passes`` and ``identities.plan``.
"""
from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, combinations, compress, count, islice, starmap
from math import factorial
from operator import gt
from typing import TYPE_CHECKING, Callable, Sequence

from .perm import Perm, check_even, iter_alternating, iter_symmetric
from .words import _a_step, _s_step, a_pull, indicators, s_pull

if TYPE_CHECKING:  # genfun, its only user, imports it when it runs
    from .qpoly import MultiPoly

EXCLUDE_FIRST_POSITIONS = "exclude-first-positions"
EXCLUDE_SMALLEST_VALUES = "exclude-smallest-values"
_KINDS = (EXCLUDE_FIRST_POSITIONS, EXCLUDE_SMALLEST_VALUES)


# -- symmetric-group statistics ---------------------------------------------

def length_s(p: Perm) -> int:
    """Inversion count.

    >>> length_s((2, 5, 4, 1, 3))
    6
    """
    return sum(starmap(gt, combinations(p, 2)))


def des_set_s(p: Sequence[int]) -> set[int]:
    """Positions i with p(i) > p(i+1); they make sense for any integer sequence."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


# des_s, maj_s and rmaj_s read the descents off one C-level pass,
# ``map(gt, p, p[1:])``; the sums weigh them with ``compress``.

def des_s(p: Perm) -> int:
    return sum(map(gt, p, p[1:]))


def maj_s(p: Sequence[int]) -> int:
    return sum(compress(count(1), map(gt, p, p[1:])))


def rmaj_s(p: Perm, n: int) -> int:
    """Sum of n - i over descents i; n is the ambient degree, given explicitly."""
    return sum(compress(count(n - 1, -1), map(gt, p, p[1:])))


def _maj_rmaj(p: Sequence[int], n: int) -> tuple[int, int]:
    """``(maj_s(p), rmaj_s(p, n))`` from one descent set; see ``rmaj_s``."""
    # Both sums from the set are faster than a list of the compressed positions.
    des = des_set_s(p)
    m = sum(des)
    return m, n * len(des) - m


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
    # One pass keeps the level+1 smallest earlier values in order: a value
    # beats all but at most `level` of them while fewer than level+1 came
    # before it, or while it is at most the largest one kept (so a repeated
    # value counts as the definition counts it).
    by_position = kind == EXCLUDE_FIRST_POSITIONS
    out = set()
    kept: list[int] = []
    for i, x in enumerate(p, 1):
        if len(kept) <= level or x <= kept[-1]:
            if (i if by_position else x) > level + 1:
                out.add(i)
            insort(kept, x)
            del kept[level + 1:]
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
    a, b = p.index(i), p.index(i + 1)
    if a < b:
        return p
    q = list(p)
    q[a], q[b] = i + 1, i
    return tuple(q)


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

_HELD_RECORDS = 5_040  # the most records a pass's table holds: the order of S_7

# The joint tally is split into the histograms whenever it holds this many
# keys, and at the end.  Rows that repeat, as most do, are split about once;
# a batch whose rows are wide and nearly all distinct (the S_8 batch of
# ``verify --all``) stays under 1 MB instead of 25 MB for one tally over the
# group.  Elements are counted into it 256 at a time.
_HELD_KEYS = 4096


def histograms(group: str, n: int, *rows: Callable[[Perm, tuple | None], tuple],
               pull: bool = True) -> tuple[tuple[tuple[dict, ...], ...], int]:
    """Tally several rows of keys per element over a whole group, in one pass.

    Group "S" is the symmetric group of degree n and "A" the alternating
    group of degree n + 1, which projects onto it.  Each element is pulled
    once, by ``s_pull`` or ``a_pull``, and each ``row(element, record)``
    returns a tuple of keys, one per histogram, of the same width for every
    element.  Both records start with the length, the delent number and the
    factor starts or projected ends; an A record's fourth field is the
    projection.  With pull false no element is pulled and every row gets
    None for the record.  Returns, per row, one histogram per key, and the
    group order.

    The pass keeps a chain of tables, one for each degree d from 3 up to
    the largest below the group's whose words (d! in S, d!/2 in A) fit in
    ``_HELD_RECORDS`` records: at most 3..7 in both groups, about 5,900
    records in S and 3,000 in A.  A table maps a word to its record and
    fills a miss by pulling the word's top value and joining the record of
    the word left from the table below, the smallest by a plain pull.  An
    element one value above the top table takes that same step, with its
    top's slot read off its own word (``_s_step``, ``_a_step``); an element
    further above pulls its top values in a loop and joins them to the top
    table's record.  The tables live for this pass only.
    """
    if group == "S":
        elements, kernel, step, degree, halve = iter_symmetric(n), s_pull, _s_step, n, 1
    elif group == "A":
        elements, kernel, step, degree, halve = iter_alternating(n + 1), a_pull, _a_step, n + 1, 2
    else:
        raise ValueError(f"unknown group {group!r}; expected 'S' or 'A'")
    held, d = None, 3  # held: the top (degree, table, link below) of the chain
    while d < degree and factorial(d) // halve <= _HELD_RECORDS:
        held, d = (d, {}, held), d + 1
    if held is not None and d == degree:
        kernel = step
    first = next(elements)  # a group is never empty
    widths = [len(row(first, kernel(first, _held=held) if pull else None)) for row in rows]
    elements = chain([first], elements)
    # One flat row of keys per element, tallied whole and split afterwards.
    joint = reduce(lambda f, g: lambda p, rec: f(p, rec) + g(p, rec), rows)
    if pull:
        take = lambda: [joint(p, kernel(p, _held=held)) for p in islice(elements, 256)]
    else:
        take = lambda: [joint(p, None) for p in islice(elements, 256)]
    hists = [{} for _ in range(sum(widths))]
    held_rows = _HELD_KEYS // max(1, len(hists))
    tally, order = Counter(), 0

    def split():
        for row_keys, c in tally.items():
            for hist, key in zip(hists, row_keys):
                hist[key] = hist.get(key, 0) + c
        tally.clear()

    for chunk in iter(take, []):
        order += len(chunk)
        tally.update(chunk)
        if len(tally) >= held_rows:
            split()
    split()
    ends = list(accumulate(widths, initial=0))
    return tuple(tuple(hists[i:j]) for i, j in zip(ends, ends[1:])), order


def genfun(group: str, n: int, q_stat: str = "length", t_stat: str = "del",
           multivar: bool = False) -> MultiPoly:
    """Generating polynomial of (q_stat, t_stat) over S_n, or A_{n+1} for group "A".

    q_stat is "length", "maj" or "rmaj" (ambient degree n); t_stat is "del"
    or "none".  With multivar, t_j marks each factor whose run reaches the
    first generator, in place of t for the total delent.
    """
    from .qpoly import MultiPoly

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
    ((acc,),), _ = histograms(group, n, row)
    return MultiPoly(n - 1 if multivar else 0, acc)
