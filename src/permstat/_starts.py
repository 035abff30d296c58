"""The closed forms' starts, by one prefix recurrence.

The closed forms of the insertion entries and of ``fiber-size`` start from
statistics of their base words that come from a prefix recurrence, never
from the words that the scan sides read: ``_prefix_starts`` gives maj and
rmaj of every word of [n]^n in product order, and maj, rmaj and the
left-to-right minima count of every permutation of S_n in lexicographic
order, from a block of the last letters (``_block``) under each prefix of
the first, as byte planes a chunk at a time.  This module imports nothing
of the package but ``words._CHUNK``, so no scan side kernel is in its reach.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from .words import _CHUNK

_BLOCK_WORDS = 4096  # the most words of a block: 720 of S_6, 1,296 of [6]^4
_AT_MOST = [b"\x01" * (c + 1) + bytes(255 - c) for c in range(23)]  # x -> [x <= c]
# v - 1 -> x -> the values of mask x below v, and v: bit v - 1 stands for the value v.
_TOPPED = [bytes(range(1 << b, 2 << b)) * (256 >> b) for b in range(8)]
# t -> x -> the count of the values of mask x up to t
_UP_TO = [bytes(bin(x).count("1") for x in range(1 << t)) * (256 >> t) for t in range(9)]


def _block(n: int, product: bool) -> tuple[int, bytes, bytes, int, int]:
    """The words of the last k letters, k <= n the most with at most ``_BLOCK_WORDS``
    words, in order, a lane per word: k, the first letters and, in S, the masks of
    left-to-right minimum values as bytes, maj and des as integers.

    The words of m letters are each first letter v, of [n] or of [m], before the
    words of m - 1 letters, relabelled in S to skip v, which keeps their descents and
    order: with d = [u_1 < v] for the rest u, des gains d, maj des(u) + d, and the
    mask keeps u's values below v and takes v.  The empty word's first letter is
    255, above every v."""
    k, firsts, masks, majs, dess = 0, b"\xff", b"\0", 0, 0
    while k < n and len(firsts) * (n if product else k + 1) <= _BLOCK_WORDS:
        k, size = k + 1, len(firsts)
        vs = range(1, (n if product else k) + 1)
        copies = int.from_bytes(b"\x01".ljust(size, b"\0") * len(vs), "little")
        d = int.from_bytes(b"".join(firsts.translate(_AT_MOST[v - 1]) for v in vs), "little")
        majs, dess = (majs + dess) * copies + d, dess * copies + d
        firsts = b"".join(bytes((v,)) * size for v in vs)
        masks = b"" if product else b"".join(masks.translate(_TOPPED[v - 1]) for v in vs)
    return k, firsts, masks, majs, dess


def _prefix_starts(n: int, product: bool = False) -> Iterator[list[bytes]]:
    """maj and rmaj (ambient degree n) of every word of [n]^n in ``itertools.product``
    order, with `product`, else those and ``len(ltr_minima(w, 0,
    EXCLUDE_FIRST_POSITIONS))`` of every w of S_n in lexicographic order, as planes
    of a byte per word, ``_CHUNK`` words a plane.

    A word is a prefix p of n - k letters and the block (``_block``), relabelled in S
    to the values R left.  p's own descents and minima are read off its letters, and
    the block's lanes give the rest: the descent after p is [u_1 <= c], c the block's
    letters below p's last (p_last - 1 in [n]^n), and in S the block's minima that
    count are those up to t, the values of R below min p.  Each is one translate and
    one integer addition, and rmaj = n des - maj per lane.  The generator holds one
    block and one chunk.  Over 23 letters, ValueError: a maj could pass 255."""
    if n * (n - 1) // 2 > 255:
        raise ValueError(f"words of at most 23 letters expected, not {n}")
    k, firsts, masks, majs, dess = _block(n, product)
    size = len(firsts)
    ones = int.from_bytes(b"\x01" * size, "little")
    rest = [b""] * (2 if product else 3)
    letters = range(1, n + 1)
    for p in (itertools.product(letters, repeat=n - k) if product
              else itertools.permutations(letters, n - k)):
        own = [i for i in range(1, len(p)) if p[i - 1] > p[i]]  # p's descents
        c = sum(x < p[-1] for x in letters if product or x not in p) if p else 0
        junction = int.from_bytes(firsts.translate(_AT_MOST[c]), "little")
        des = dess + junction + len(own) * ones
        maj = majs + (n - k) * (dess + junction) + sum(own) * ones
        lanes = [maj, n * des - maj]
        if not product:  # With no prefix the block's first letter is the first position's.
            lows = list(itertools.accumulate(p, min))
            lanes.append(int.from_bytes(masks.translate(_UP_TO[lows[-1] - 1 if p else k]),
                                        "little") + (len(set(lows)) - 1) * ones)
        rest = [r + lane.to_bytes(size, "little") for r, lane in zip(rest, lanes)]
        while len(rest[0]) >= _CHUNK:
            yield [r[:_CHUNK] for r in rest]
            rest = [r[_CHUNK:] for r in rest]
    if rest[0]:
        yield rest
