"""Block shuffles: recognition, enumeration, decomposition, deletion maps.

A cut set B = {i_1 < ... < i_k} inside 1..n-1 splits 1..n into consecutive
blocks.  A B-shuffle is a permutation in which every block's values appear
left to right in increasing order; equivalently (checked in the tests, not
assumed here) the inverse has all its descents inside B.

Enumeration works block by block, choosing the position set of each block and
filling it in increasing order, so the cost is the multinomial count rather
than n factorial.  Decomposition splits the canonical word at the cut points,
peeling one single-cut shuffle per block boundary.
"""
from __future__ import annotations

import functools
import itertools

from .perm import Perm, support
from .qpoly import MultiPoly
from .stats import length_s, rmaj_s
from .words import SWord, s_canonical, s_word_to_perm

FIRST_ANY = "any"
FIRST_NEW_BLOCK = "equals-i-plus-1"
FIRST_UNCHANGED = "equals-pi-1"


def _blocks(n: int, cuts: frozenset[int]) -> list[tuple[int, int]]:
    edges = sorted(cuts)
    if any(not 1 <= i <= n - 1 for i in edges):
        raise ValueError(f"cut set {sorted(cuts)} not inside 1..{n - 1}")
    lows = [1] + [i + 1 for i in edges]
    highs = edges + [n]
    return list(zip(lows, highs))


def is_b_shuffle(p: Perm, cuts: set[int]) -> bool:
    """Does every block read left to right in increasing order?

    >>> is_b_shuffle((3, 1, 4, 2), {2})
    True
    >>> is_b_shuffle((2, 1, 3, 4), {2})
    False
    """
    n = len(p)
    pos = [0] * (n + 1)
    for i, x in enumerate(p, start=1):
        pos[x] = i
    for lo, hi in _blocks(n, frozenset(cuts)):
        for a in range(lo, hi):
            if pos[a] > pos[a + 1]:
                return False
    return True


def shuffle_count(n: int, cuts: set[int]) -> int:
    """Multinomial count of B-shuffles, without enumerating them."""
    import math

    total = math.factorial(n)
    for lo, hi in _blocks(n, frozenset(cuts)):
        total //= math.factorial(hi - lo + 1)
    return total


def enumerate_b_shuffles(n: int, cuts: set[int]) -> list[Perm]:
    """All B-shuffles in lexicographic one-line order.

    >>> enumerate_b_shuffles(4, {2})[:3]
    [(1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2)]
    """
    blocks = _blocks(n, frozenset(cuts))
    out: list[Perm] = []

    def place(block_idx: int, free: tuple[int, ...], filled: dict[int, int]):
        if block_idx == len(blocks):
            out.append(tuple(filled[i] for i in range(1, n + 1)))
            return
        lo, hi = blocks[block_idx]
        size = hi - lo + 1
        for positions in itertools.combinations(free, size):
            for pos, val in zip(positions, range(lo, hi + 1)):
                filled[pos] = val
            rest = tuple(x for x in free if x not in positions)
            place(block_idx + 1, rest, filled)

    place(0, tuple(range(1, n + 1)), {})
    out.sort()
    return out


@functools.lru_cache(maxsize=16)
def _single_cut_shuffles(n: int, i: int) -> tuple[Perm, ...]:
    """The {i}-shuffles of degree n, enumerated once per (n, i) while cached."""
    return tuple(enumerate_b_shuffles(n, {i}))


def decompose(p: Perm, cuts: set[int]) -> tuple[Perm, ...]:
    """Split a B-shuffle into one single-cut shuffle per cut point.

    The j-th factor moves only 1..i_{j+1} and shuffles 1..i_j with the block
    above it; the factors multiply back to p in order.  Splitting the
    canonical word at the cut indices realises this directly: a B-shuffle has
    no factors below the first cut, and the run of factors between
    consecutive cuts is exactly one single-cut shuffle.
    """
    n = len(p)
    edges = sorted(cuts)
    if not is_b_shuffle(p, cuts):
        raise ValueError(f"{list(p)} is not a shuffle for cuts {edges}")
    word = s_canonical(p)
    for j in range(1, edges[0] if edges else n):
        if word.factors[j - 1] is not None:
            raise AssertionError("shuffle with a factor below the first cut")
    parts = []
    bounds = edges + [n]
    for b, lo in enumerate(edges):
        hi = bounds[b + 1]
        masked = tuple(
            word.factors[j - 1] if lo <= j < hi else None for j in range(1, n)
        )
        parts.append(s_word_to_perm(SWord(n, masked)))
    return tuple(parts)


def g_map(sigma: Perm, i: int) -> Perm:
    """Delete the value i+1 and close the gap, dropping one degree.

    >>> g_map((5, 2, 3, 6, 1, 4), 2)
    (4, 2, 5, 1, 3)
    """
    n = len(sigma)
    if not 1 <= i <= n - 1:
        raise ValueError(f"i must be in 1..{n - 1}")
    return tuple(x - 1 if x > i + 1 else x for x in sigma if x != i + 1)


def shuffle_sum(pi: Perm, i: int, stat: str = "length", first: str = FIRST_ANY) -> MultiPoly:
    """Sum q^(stat growth) over single-cut shuffles r, optionally filtered.

    The base permutation must move only 1..i.  The growth of `length` is
    measured against pi itself; the growth of `rmaj` is measured against the
    reverse major index of pi read in degree i.  `first` restricts to the
    shuffles where the product starts with i+1, or where it keeps pi's first
    letter; every shuffle falls in exactly one of those classes.
    """
    n = len(pi)
    if not support(pi) <= set(range(1, i + 1)):
        raise ValueError(f"support of {list(pi)} not inside 1..{i}")
    if stat == "length":
        base = length_s(pi)
        measure = length_s
    elif stat == "rmaj":
        base = rmaj_s(pi, i)
        measure = lambda p: rmaj_s(p, n)
    else:
        raise ValueError(f"unknown statistic {stat!r}")
    if first not in (FIRST_ANY, FIRST_NEW_BLOCK, FIRST_UNCHANGED):
        raise ValueError(f"unknown first-letter filter {first!r}")
    acc: dict[tuple[int, int], int] = {}
    for r in _single_cut_shuffles(n, i):
        head = pi[r[0] - 1]
        if first == FIRST_NEW_BLOCK and head != i + 1:
            continue
        if first == FIRST_UNCHANGED and head != pi[0]:
            continue
        prod = tuple(pi[x - 1] for x in r)
        key = (measure(prod) - base, 0)
        acc[key] = acc.get(key, 0) + 1
    return MultiPoly(0, acc)
