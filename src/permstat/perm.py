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


_LOW_DIGITS = 8  # iter_alternating's precomputed block holds 8! = 40,320 bytes
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def iter_alternating(n: int) -> Iterator[Perm]:
    """All even permutations of degree n, in lexicographic one-line order.

    The digits of the lexicographic index i of p in the factorial number
    system are p's Lehmer code: digit k counts the smaller entries to the
    right of position k.  Their sum is the inversion count, so p is even
    exactly when the digit sum of i is even, and a byte selector of those
    parities picks the even permutations out of ``itertools.permutations``
    with no per-element sign call.  The last min(n, 8) digits run through a
    whole block of parities for each setting of the higher digits, which
    only flips the block when its own digit sum is odd; the selector chains
    one precomputed block per high setting, so it never holds n! bytes.
    """
    low = min(n, _LOW_DIGITS)
    # A new leading digit d of radix r repeats the block r times, flipped
    # where d is odd.
    blocks = (b"\x01", b"\x00")
    for radix in range(2, low + 1):
        even = b"".join(map(blocks.__getitem__, _parities(radix, radix - 1)))
        blocks = (even, even.translate(_FLIP))
    selector = itertools.chain.from_iterable(map(blocks.__getitem__, _parities(n, low)))
    return itertools.compress(itertools.permutations(range(1, n + 1)), selector)


def _parities(n: int, low: int) -> Iterator[int]:
    """For each setting of the first n - low letters of the words of degree n, in
    lexicographic order, the parity of its Lehmer digits: a word is even exactly when
    this equals the parity of its last `low` letters' own digits.  ``iter_alternating``
    and the passes' blocks (``words._blocks``, ``words._element_packs``) pick the even
    words by it, which decides membership only."""
    return (sum(d) & 1 for d in itertools.product(*map(range, range(n, low, -1))))

