"""Core permutation values and group operations.

A permutation of degree n is stored in one-line notation as a tuple of the
images ``(p(1), ..., p(n))``.  All positions and values are 1-based in every
public interface; only tuple indexing inside this package is 0-based.

The composition convention is fixed once here and inherited everywhere:
``compose(a, b)`` is the function ``k -> a(b(k))``.  Under this convention,
multiplying on the right by the adjacent transposition ``s_i`` swaps the
entries in positions i and i+1 of the one-line word:

>>> compose((2, 5, 4, 1, 3), adjacent_transposition(5, 2))
(2, 4, 5, 1, 3)
"""
from __future__ import annotations

import itertools
from functools import reduce
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]


def check_perm(images: Sequence[int]) -> Perm:
    """Validate a one-line word and return it as a tuple.

    Raises ValueError naming the first offending entry.
    """
    n = len(images)
    if n == 0:
        raise ValueError("a permutation must have degree at least 1")
    seen = [False] * n
    for x in images:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"non-integer image {x!r}")
        if not 1 <= x <= n:
            raise ValueError(f"image {x} out of range 1..{n}")
        if seen[x - 1]:
            raise ValueError(f"duplicate image {x}")
        seen[x - 1] = True
    return tuple(images)


def parse_one_line(text: str) -> Perm:
    """Parse a comma-separated one-line word, optionally bracketed.

    >>> parse_one_line("[2,5,4,1,3]")
    (2, 5, 4, 1, 3)
    >>> parse_one_line("2, 1")
    (2, 1)
    """
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")]
    images = []
    for p in parts:
        if not p:
            raise ValueError(f"empty entry in permutation {text!r}")
        try:
            images.append(int(p))
        except ValueError:
            raise ValueError(f"malformed entry {p!r} in permutation {text!r}") from None
    return check_perm(images)


def format_one_line(p: Perm) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def adjacent_transposition(n: int, i: int) -> Perm:
    """The generator s_i = (i, i+1) of degree n, for 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"s_{i} undefined in degree {n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def transposition(n: int, i: int, j: int) -> Perm:
    """The transposition (i, j) of degree n."""
    w = list(range(1, n + 1))
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return tuple(w)


def compose(a: Perm, b: Perm) -> Perm:
    """The composition k -> a(b(k)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
    return tuple(a[x - 1] for x in b)


def compose_all(perms: Iterable[Perm]) -> Perm:
    """Left-to-right product; the rightmost factor acts first on points."""
    return reduce(compose, perms)


def inverse(p: Perm) -> Perm:
    """The inverse bijection.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(p)
    for pos, x in enumerate(p, start=1):
        inv[x - 1] = pos
    return tuple(inv)


def sign(p: Perm) -> int:
    """+1 for even permutations, -1 for odd; computed from the cycle count."""
    return 1 if (len(p) - cycle_count(p)) % 2 == 0 else -1


def check_even(p: Perm) -> Perm:
    """Return p if it is even; raise ValueError if it is odd."""
    if sign(p) != 1:
        raise ValueError(f"{list(p)} is odd; only even permutations have a word")
    return p


def cycle_count(p: Perm) -> int:
    """Number of cycles, fixed points included."""
    n = len(p)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        pos = start
        while not seen[pos]:
            seen[pos] = True
            pos = p[pos] - 1
    return cycles


def support(p: Perm) -> set[int]:
    """Positions moved by p.

    >>> sorted(support((2, 1, 3, 4)))
    [1, 2]
    """
    return {i for i, x in enumerate(p, start=1) if x != i}


def rho(n: int) -> Perm:
    """The order-reversing involution (1,n)(2,n-1)...

    >>> rho(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def nu(k: int, n: int) -> Perm:
    """The left-to-right product of the transpositions (1,k+1)(2,k+2)...(n-k,n).

    On 1..n-k it acts as j -> j+k, relabelling a block to the top values.

    >>> nu(2, 4)
    (3, 4, 1, 2)
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"nu requires 1 <= k <= n-1, got k={k}, n={n}")
    return compose_all(transposition(n, j, j + k) for j in range(1, n - k + 1))


def hat(p: Perm) -> Perm:
    """Conjugation by the order-reversing involution: rho . p . rho.

    >>> hat((2, 1, 3))
    (1, 3, 2)
    """
    n = len(p)
    return tuple(n + 1 - p[n - k] for k in range(1, n + 1))


def iter_symmetric(n: int) -> Iterator[Perm]:
    """All permutations of degree n, in lexicographic one-line order."""
    return itertools.permutations(range(1, n + 1))


def iter_alternating(n: int) -> Iterator[Perm]:
    """All even permutations of degree n, in lexicographic one-line order.

    Lexicographic neighbours 2k and 2k+1 differ by a swap of the last two
    entries, so exactly one of each pair is even: one sign call per pair.
    """
    perms = itertools.permutations(range(1, n + 1))
    if n < 2:
        yield from perms
        return
    for p in perms:
        q = next(perms)
        yield p if sign(p) == 1 else q
