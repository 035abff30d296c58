"""Canonical staircase presentations in symmetric and alternating groups.

Every permutation of degree n factors uniquely as w_1 ... w_{n-1} where the
j-th factor is a descending run of adjacent transpositions
``s_j s_{j-1} ... s_r`` (possibly empty).  The factor is found by pulling the
value j+1 to its home position from the right, largest value first.

The alternating group of degree m is generated by ``a_k = s_1 s_{k+1}`` for
1 <= k <= m-2; a_1 has order 3 and every other generator is an involution.
Even permutations factor uniquely as v_1 ... v_{m-2} where the j-th factor is
either empty, a descending run ``a_j a_{j-1} ... a_e`` ending at index e >= 1,
or such a run ending in the inverted letter ``a_1^{-1}``.  The factor again
comes from pulling the value j+2 rightwards, with a parity fix-up (one extra
swap of the first two entries) whenever the pull uses an odd number of swaps.

The pull is written once per group, in the kernels ``s_pull`` and ``a_pull``.
One pass returns the whole record of an element as a plain tuple: its
length, its delent number, the factor starts (S) or the factor ends e_j of
the projected word (A), and for A also the projection one degree down as a
one-line word, in which each value j+1 sits at position e_j among the values
up to j+1, and the factors that end in a_1^{-1}.  The kernels do not
validate their input.  ``s_canonical`` and ``a_canonical`` (which checks
evenness) wrap them for single elements; whole-group passes take the pull
one step at a time instead (below).  ``a_lifts`` runs the A pull backwards:
from the projected ends it rebuilds every even permutation with those ends,
which is the fibre of the projection, so the pull's parity rule lives in
this module alone.  It yields them in lexicographic order as it builds
them, a block at a time.

Two-path rule: every registry scan enumerates group elements and factors
each one; none enumerates factor tuples, Lehmer codes or inversion tables,
which are the closed forms' own structure.  ``iter_alternating`` reads the
parity of each element's Lehmer code off its lexicographic index.  A
whole-group pass enumerates its group as packs cut from one block of the
words of its last min(degree, 6) letters, relabelled by ``bytes.translate``
for each prefix of its first letters in turn (``_element_packs``); in A,
the prefix's Lehmer-digit parity picks the block of even or of odd words,
by ``iter_alternating``'s rule.  Both parities decide only membership:
every scan still enumerates each element as a one-line word, and a scan
that reads the record pulls that element itself.  A pass reads the record
fields that its keys need (length, delent, the indicator mask, the
occurrence counts of the generators and, in A, the projection), of each
element or of its inverse, a pack of elements at a time, a byte per letter
in one integer, by one step of the pull per value: the slot of the top
value d is read off each word itself, the word left (after the A parity
swap) comes off the word by shifting its lanes from that slot, and each
field adds that slot's constant (``_PLANS``, the pull's step written out
per slot) to the word left's plane of that field, one degree down, by one
integer addition (``_columns``).  The steps stop at a table of the pass's
top degree, which the pass builds once by the same step from the words of
each degree in turn, up from the one word of degree 1 in S or 2 in A,
whose fields are all zero (``_table``).  So every field is a pure function
of the word it is read for, and the table caches them, one ``bytes``
record per word with each field at a fixed offset, keyed by the word's
bytes; a pack joins its words' records and cuts each field out as a plane,
a byte per word (a lane of 2 or 4 for a wide indicator mask).  No pass
calls a kernel, so the kernels are a reference apart from every record a
pass reads.  No record is built from another by choosing a slot for the
top value, which would walk the staircase product that the closed forms
are.
A scan reads from a record only what the paper defines through the
word: delent, indicator vectors, occurrence counts, and the alternating
length and descents.  Symmetric statistics that are defined on the one-line
word stay there: length is an inversion count and descents compare
neighbouring entries.  The per-point scans of words with a new top letter
inserted lay each pack of inserted words out from its base pack's bytes
(``_inserted``), and read each inserted word's descents off its own
neighbour comparisons, never off the base word's descents and the slot.

Words are stored structurally, one entry per factor, never as flat letter
lists; occurrence counts and length are O(1) per factor.  Flat letter views
serve printing, parsing and the literal generator product, which
``eval_s_letters`` and ``eval_a_letters`` (and ``s_word_to_perm`` and
``a_word_to_perm`` through them) compute one letter at a time.  It is the
one reference the kernels are checked against, so it never runs a pull.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, chain, islice, permutations, repeat, starmap
from math import factorial
from struct import Struct, error as StructError, unpack
from typing import Iterable, Iterator, Sequence

from .perm import Perm, _parities, check_even

# Factor encodings.
#   S: factors[j-1] = r        for the run s_j s_{j-1} ... s_r  (1 <= r <= j)
#   A: factors[j-1] = (e, inv) for the run a_j a_{j-1} ... a_e, where inv is
#      True only when e == 1 and the final letter is a_1^{-1}
# None encodes the empty factor in both cases.
SFactor = int
AFactor = tuple[int, bool]


@dataclass(frozen=True)
class SWord:
    """Canonical word in the symmetric group of degree n."""

    n: int
    factors: tuple[SFactor | None, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.factors) != self.n - 1:
            raise ValueError(f"need {self.n - 1} factors for degree {self.n}")
        for j, r in enumerate(self.factors, start=1):
            if r is not None and not 1 <= r <= j:
                raise ValueError(f"factor {j} start {r} outside 1..{j}")

    @property
    def length(self) -> int:
        return sum(j - r + 1 for j, r in enumerate(self.factors, start=1) if r is not None)

    def factor_lengths(self) -> tuple[int, ...]:
        return tuple(0 if r is None else j - r + 1 for j, r in enumerate(self.factors, start=1))

    def letters(self) -> list[int]:
        """Flat generator indices, leftmost letter first."""
        out = []
        for j, r in enumerate(self.factors, start=1):
            if r is not None:
                out.extend(range(j, r - 1, -1))
        return out


@dataclass(frozen=True)
class AWord:
    """Canonical word in the alternating group of degree m."""

    m: int
    factors: tuple[AFactor | None, ...]

    def __post_init__(self):
        if self.m < 1 or len(self.factors) != max(0, self.m - 2):
            raise ValueError(f"need {max(0, self.m - 2)} factors for degree {self.m}")
        for j, f in enumerate(self.factors, start=1):
            if f is None:
                continue
            e, inv = f
            if not 1 <= e <= j:
                raise ValueError(f"factor {j} end {e} outside 1..{j}")
            if inv and e != 1:
                raise ValueError(f"factor {j}: only a final a_1 may be inverted")

    @property
    def length(self) -> int:
        return sum(j - f[0] + 1 for j, f in enumerate(self.factors, start=1) if f is not None)

    def factor_lengths(self) -> tuple[int, ...]:
        return tuple(0 if f is None else j - f[0] + 1 for j, f in enumerate(self.factors, start=1))

    def letters(self) -> list[tuple[int, bool]]:
        """Flat (index, inverted) letter pairs, leftmost letter first."""
        out = []
        for j, f in enumerate(self.factors, start=1):
            if f is None:
                continue
            e, inv = f
            out.extend((k, False) for k in range(j, e, -1))
            out.append((e, inv))
        return out


def s_pull(w: Perm) -> tuple[int, int, tuple[SFactor | None, ...]]:
    """(length, delent, factor starts) of w, from one pull pass.

    The starts are the factors of ``s_canonical(w)``.  w is not validated.

    >>> s_pull((2, 5, 4, 1, 3))
    (6, 1, (1, None, 2, 2))
    """
    work = list(w)
    pulled: list[SFactor | None] = []  # the starts of the factors pulled, top first
    length = delent = 0
    for top in range(len(w), 1, -1):
        # Pulling top to the end of the work list and dropping it there
        # leaves the values 1..top-1 in the order the next pull sees.
        r = work.index(top)
        del work[r]
        if r == top - 1:
            r = None
        else:
            length += top - 1 - r
            if r == 0:
                delent += 1
            r += 1
        pulled.append(r)
    pulled.reverse()
    return length, delent, tuple(pulled)


def s_canonical(w: Perm) -> SWord:
    """Factor w into its unique staircase word.

    >>> s_word_pretty(s_canonical((2, 5, 4, 1, 3)))
    's1 | 1 | s3 s2 | s4 s3 s2'
    """
    return SWord(len(w), s_pull(w)[2])


def s_word_to_perm(word: SWord) -> Perm:
    """Multiply the letters back out, leftmost first."""
    return eval_s_letters(word.n, word.letters())


def a_pull(v: Perm) -> tuple[int, int, tuple[SFactor | None, ...], Perm, int]:
    """(length, delent, projected ends, projection, inverted) of an even v.

    One pull pass.  The ends are the factors of the projected word
    ``s_image(a_canonical(v))``, the projection is that word as a one-line
    permutation of degree m-1, and bit j of `inverted` is set when factor j
    ends in a_1^{-1}.  v is not validated: an odd v gives a meaningless
    record.

    >>> a_pull((3, 5, 4, 2, 1))
    (6, 3, (1, 1, 1), (4, 3, 2, 1), 4)
    """
    m = len(v)
    work = list(v)
    pulled: list[SFactor | None] = []  # the ends of the factors pulled, top first
    length = delent = inverted = 0
    for top in range(m, 2, -1):
        r = work.index(top)
        del work[r]
        if r == top - 1:
            r = None
        else:
            if (top - 1 - r) & 1:
                work[0], work[1] = work[1], work[0]
            # Pull position r + 1 fixes factor top - 2: position 1 is the
            # inverted tail, position r + 1 >= 2 the plain run down to a_r.
            if r < 2:
                if not r:
                    inverted |= 1 << top - 2
                    r = 1
                delent += 1
            length += top - 1 - r
        pulled.append(r)
    pulled.reverse()
    # The projection restricted to the values 1..j+1 holds j+1 at position
    # e_j, or last for an empty factor, so each value goes in in turn.
    proj = [1][:m - 1]  # no factors below degree 3
    for j, e in enumerate(pulled, start=len(proj)):
        proj.insert(j if e is None else e - 1, j + 1)
    return length, delent, tuple(pulled), tuple(proj), inverted


# -- whole-group passes ---------------------------------------------------------

class _Memo(dict):
    """key -> fill(key), computed on first use."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


_CHUNK = 256  # words per chunk of a pass
# A pack is a chunk of words of one length, a byte per letter in one integer:
# (length, stride, size in bytes, the integer).  Word i fills the lanes (bytes)
# from i * stride, its first letter lowest, and zero lanes pad it to its stride.


def _packs(words: Iterable[Sequence[int]]) -> Iterator[tuple[int, int, int, int]]:
    """A pack per chunk of ``_CHUNK`` words of the stream (``_pack``)."""
    words = iter(words)
    for first in words:  # packed as they come, so a stream may reuse a freed tuple
        chunk = chain((first,), islice(words, _CHUNK - 1))
        yield _pack(list(chunk) if isinstance(first, bytes) else chunk, len(first))


_SUFFIX = 6  # the letters that a block of ``_element_packs`` runs through: 720 words at most


def _blocks(key: tuple[str, int]) -> list[bytes]:
    """(group, degree) -> the words of `degree` letters whose first degree - k letters are
    the markers k + 1, ..., degree and whose last k = min(degree, ``_SUFFIX``) are the
    ranks 1..k, in lexicographic order, joined: for "S" one block of them all, for "A"
    one of the even words and one of the odd.

    The ranks go in from the last lane back, over a marker 128 + lane: each value v of
    the new leading rank relabels the block so far, the ranks from v up by one, and in A
    moves its words to the other parity where v - 1 is odd (``perm._parities``).
    """
    group, degree = key
    k = min(degree, _SUFFIX)
    start = bytes(range(k + 1, degree + 1)) + bytes(range(128 + degree - k, 128 + degree))
    blocks = [start] if group == "S" else [start, b""]
    for j in range(k):  # the last j lanes hold ranks; lane degree - 1 - j is next
        source = bytes((128 + degree - 1 - j, *range(1, j + 1)))
        parts = [[] for _ in blocks]
        for v, flip in zip(range(1, j + 2), _parities(j + 1, j)):
            table = bytes.maketrans(source, bytes((v, *range(1, v), *range(v + 1, j + 2))))
            for parity, block in enumerate(blocks):
                parts[parity ^ flip if group == "A" else 0].append(block.translate(table))
        blocks = list(map(b"".join, parts))
    return blocks


_BLOCKS = _Memo(_blocks)  # (group, degree) -> its blocks, kept for the process


def _element_packs(group: str, degree: int) -> Iterator[tuple[int, int, int, int]]:
    """Every element of the symmetric ("S") or alternating ("A") group of `degree`, in
    lexicographic order, a pack (``_pack``) of ``_CHUNK`` words at a time.

    Each setting of the first degree - k letters, in lexicographic order,
    relabels one block (``_BLOCKS``) by ``bytes.translate``: its markers to
    that prefix, and its ranks to the values left, in order.  In A the
    prefix's Lehmer-digit parity picks the even block or the odd one, as
    ``iter_alternating``'s selector does: it decides membership only.
    """
    blocks = _BLOCKS[group, degree]
    k = min(degree, _SUFFIX)
    ident = bytes(range(1, degree + 1))
    parities = repeat(0) if group == "S" else _parities(degree, k)
    size, rest = _CHUNK * degree, b""
    for prefix, parity in zip(map(bytes, permutations(ident, degree - k)), parities):
        rest += blocks[parity].translate(bytes.maketrans(
            ident, ident.translate(None, prefix) + prefix))
        cut = len(rest) - len(rest) % size
        for start in range(0, cut, size):
            yield degree, degree, size, int.from_bytes(rest[start:start + size], "little")
        rest = rest[cut:]
    if rest:
        yield degree, degree, len(rest), int.from_bytes(rest, "little")


def _pack(chunk: Iterable[Sequence[int]], length: int) -> tuple[int, int, int, int]:
    """At most ``_CHUNK`` words of `length` letters in 0..127 (else ValueError), packed
    at stride `length`; a list of bytes of that length is joined as it is."""
    joined = (isinstance(chunk, list) and isinstance(chunk[0], bytes)
              and set(map(len, chunk)) == {length})
    try:
        packed = b"".join(chunk if joined else starmap(Struct(f"{length}B").pack, chunk))
    except StructError as e:
        raise ValueError(f"words of {length} letters in 0..127 expected: {e}") from None
    size, a = len(packed), int.from_bytes(packed, "little")
    if a & _lanes(length, length, size)[0] << 7:
        raise ValueError(f"words of {length} letters in 0..127 expected")
    return length, length, size, a


def _words(pack: tuple[int, int, int, int]) -> tuple[bytes, ...]:
    """The words of a pack, as bytes."""
    length, stride, size, a = pack
    return unpack(f"{length}s{stride - length}x" * (size // stride), a.to_bytes(size, "little"))


def _records(planes: list[bytes | bytearray], count: int) -> tuple[bytes, ...]:
    """One ``bytes`` record per word of `count`: each plane's bytes of the word, the
    planes side by side in order.  A plane must hold a whole number of bytes, at
    least one, per word, else ValueError."""
    widths = [len(plane) // count for plane in planes]
    if any(not w or len(plane) != w * count for w, plane in zip(widths, planes)):
        raise ValueError(f"planes of whole values for {count} words expected")
    width = sum(widths)
    out = bytearray(count * width)
    for at, w, plane in zip(accumulate(widths, initial=0), widths, planes):
        for k in range(w):
            out[at + k::width] = plane[k::w]
    return unpack(f"{width}s" * count, out)


def _inserted(pack: tuple[int, int, int, int], i: int) -> tuple[int, int, int, int]:
    """A pack of words of d letters at stride d, each with the letter d + 1 put in at
    slot i, packed at stride d + 1: every lane moved by one slice of the pack's bytes."""
    d, _, size, a = pack
    raw, out = a.to_bytes(size, "little"), bytearray(size // d * (d + 1))
    out[i::d + 1] = bytes((d + 1,)) * (size // d)
    for k in range(d):
        out[k + (k >= i)::d + 1] = raw[k::d]
    return d + 1, d + 1, len(out), int.from_bytes(out, "little")


# (stride, degree d) -> over a full chunk: 0x01 in every lane, in each word's lane 0
# and in its lane d - 1; 0xFF in its lanes 0..d - 2; d in every lane.
_MASKS = _Memo(lambda key: tuple(
    int.from_bytes(word.ljust(key[0], b"\0") * _CHUNK, "little") for word in (
        b"\x01" * key[0], b"\x01", bytes(key[1] - 1) + b"\x01", b"\xff" * (key[1] - 1),
        bytes(key[1:]) * key[0])))


def _lanes(stride: int, d: int, size: int) -> tuple[int, ...]:
    """``_MASKS`` of (stride, d), cut to a chunk of `size` bytes."""
    masks = _MASKS[stride, d]
    return masks if size == _CHUNK * stride else tuple(m & (1 << 8 * size) - 1 for m in masks)


# (a slot plan list's values, as a tuple, and a byte index) -> the translation of
# a count d - 1 - slot to that byte of the slot's value.  Keyed by the values, so
# a patched plan list finds its own.
_TRANSLATIONS = _Memo(lambda key: bytes([v >> 8 * key[1] for v in reversed(key[0])]).ljust(
    256, b"\0"))


def _plus(plane: bytes | memoryview, slots: list[int], counts: bytes) -> bytes | memoryview:
    """A plane of lanes, one per word, plus a slot plan list's constant, off each word's
    count d - 1 - slot (``_columns``).  The plan's values (one power of two for "ind")
    land in the byte of the lane that holds the largest, and no lane carries."""
    lanes, at = memoryview(plane), (max(slots) | 1).bit_length() - 1 >> 3
    constants = bytearray(lanes.nbytes)
    constants[at::lanes.itemsize] = counts.translate(_TRANSLATIONS[tuple(slots), at])
    total = (int.from_bytes(plane, "little") + int.from_bytes(constants, "little")).to_bytes(
        lanes.nbytes, "little")
    return total if lanes.itemsize == 1 else memoryview(total).cast(lanes.format)


def _layout(fields: list[str], proj: int, ind: int) -> list[tuple[int, int]]:
    """Each field's (offset, width) in a record (``_table``): "proj" on `proj` letters,
    "ind" on `ind` little-endian bytes and every other field on one, in field order."""
    widths = [proj if f == "proj" else ind if f == "ind" else 1 for f in fields]
    return list(zip(accumulate(widths, initial=0), widths))


def _slot_plan(key: tuple[str, int]) -> dict[str, list]:
    """What one step of the pull of the top value d out of a word of degree d adds to the
    word left's record fields (``_table``), per slot of d: "length", "delent", "ind",
    the indicator mask, with bit j - 1 set when factor j's run reaches the first
    generator, and each "occ<k>", how many runs pass through the k-th generator, with k
    up to the step's factor j."""
    group, d = key
    j = d - 1 if group == "S" else d - 2  # the factor that the step pulls
    # Its run ends at e from each slot r < d - 1 (S: r + 1; A: r, or 1 for the
    # inverted tail at r = 0), and is empty from the last.
    ends = [r + 1 if group == "S" else max(r, 1) for r in range(d - 1)] + [None]
    plan = {"length": [0 if e is None else j + 1 - e for e in ends],
            "delent": [int(e == 1) for e in ends], "ind": [int(e == 1) << j - 1 for e in ends]}
    plan.update((f"occ{k}", [int(e is not None and e <= k) for e in ends])
                for k in range(1, j + 1))
    return plan


_PLANS = _Memo(_slot_plan)  # (group, degree) -> its slot plan, kept for the process
_HELD_RECORDS = 5_040  # the most records a pass's table holds: the order of S_7


def _table(group: str, degree: int, fields: list[str]) -> tuple[int, dict]:
    """A pass's top degree and table: each word of that degree, as bytes -> its record.

    The pass is over words of `degree`.  Its top degree is the largest below
    `degree` whose words (d! in S, d!/2 in A) fit in ``_HELD_RECORDS``, and
    never below 3; a `degree` of 3 or less is its own.  A record is one
    ``bytes`` value with each field at a fixed offset (``_layout``): a byte
    for "length", "delent" and each "occ<k>", the smallest of 1, 2 or 4
    little-endian bytes that holds "ind" at `degree` (bits 0 to degree - 2),
    and the projection's d - 1 letters for "proj".  The one word of degree
    low, 1 in S and 2 in A, has every field zero, its projection the
    letters 1..low - 1; the words of each degree above, a pack at a time as
    the passes read them (``_element_packs``), step down to the table below
    (``_columns``).
    """
    size = factorial if group == "S" else lambda d: factorial(d) // 2
    top = min(degree, 3)
    while top + 1 < degree and size(top + 1) <= _HELD_RECORDS:
        top += 1
    ind = 1 if degree <= 9 else 2 if degree <= 17 else 4
    low = min(top, 1 if group == "S" else 2)  # A of degree 1 is its own low
    table = {bytes(range(1, low + 1)): b"".join(
        bytes(range(1, low)) if f == "proj" else bytes(n)
        for f, (_, n) in zip(fields, _layout(fields, low - 1, ind)))}
    for d in range(low + 1, top + 1):
        held, table = (d - 1, table), {}
        for pack in _element_packs(group, d):
            # A wide "ind" plane is a cast memoryview: bytes() gives its bytes.
            planes = [b"".join(_words(col)) if f == "proj" else bytes(col)
                      for f, col in zip(fields, _columns(group, pack, held, fields))]
            table.update(zip(_words(pack), _records(planes, pack[2] // d)))
    return top, table


def _columns(group: str, pack: tuple[int, int, int, int], held: tuple[int, dict],
             fields: list[str]) -> list:
    """The named record fields of a pack's words, all of degree d, one column per field.

    `held` is a top degree and its table (``_table``), made for these
    fields.  The words of the top degree join their records, and each field
    is cut out of the join as a plane: a byte per word, or for a wide "ind"
    its lanes, read through a ``memoryview`` cast to "H" or "I", in the
    host's byte order, which this takes to be little-endian; "proj" comes
    out as a pack.  A word above takes one step of its pull, a whole pack
    at once, and each field adds the slot plan's constants (``_PLANS``, read
    as the step runs) to the word left's plane by one integer addition (no
    lane carries); "proj" puts d - 1 in at max(slot - 1, 0).  Over 23
    letters, ValueError: a length could overflow its byte.
    """
    d, stride, size, a = pack
    if d > 23:
        raise ValueError(f"words of at most 23 letters expected, not {d}")
    if d == held[0]:
        count, records = size // stride, b"".join(map(held[1].__getitem__, _words(pack)))
        width = len(records) // count  # "ind" has the bytes that the other fields leave
        ind = width - len(fields) + 1 - (d - 2) * ("proj" in fields)
        cols = []
        for f, (at, n) in zip(fields, _layout(fields, d - 1, ind)):
            plane = bytearray(count * (stride if f == "proj" else n))
            for k in range(n):
                plane[k::len(plane) // count] = records[at + k::width]
            cols.append((d - 1, stride, size, int.from_bytes(plane, "little")) if f == "proj"
                        else plane if n == 1 else memoryview(plane).cast("H" if n == 2 else "I"))
        return cols
    ones, starts, ends, keep, ds = _lanes(stride, d, size)
    h = ones << 7
    slot = ((h - (a ^ ds)) & h) >> 7  # 0x01 at the slot of d: (h - x) & h is set where x is 0
    rest = ends - slot  # 0xFF from the slot to lane d - 2, which take the letter one lane on
    left = (a & (keep ^ rest)) | ((a >> 8) & rest)
    sums = (rest & ones) * int.from_bytes(b"\x01" * stride, "little")  # in each last lane
    if group == "A":  # sums count d - 1 - slot; where that is odd, the pull swaps lanes 0, 1
        swap = (left ^ (left >> 8)) & ((sums >> 8 * stride - 8) & starts) * 0xFF
        left ^= swap | (swap << 8)
    counts = sums.to_bytes(size + stride - 1, "little")[stride - 1::stride]
    at = ((slot >> 8) & keep) | (slot & starts) if "proj" in fields else 0  # max(slot - 1, 0)
    plan = _PLANS[group, d]
    return [(d - 1, stride, size, (col[3] & (at - starts)) | ((col[3] << 8) & (ends - (at << 8)))
             | at * (d - 1)) if f == "proj"
            # a count of a generator above the step's factor passes it by
            else _plus(col, plan[f], counts) if f in plan else col
            for f, col in zip(fields, _columns(group, (d - 1, stride, size, left), held, fields))]


def a_canonical(v: Perm) -> AWord:
    """Factor an even permutation into its unique staircase word.

    >>> a_word_pretty(a_canonical((3, 5, 4, 2, 1)))
    'a1 | a2 a1^-1 | a3 a2 a1'
    """
    _, _, ends, _, inverted = a_pull(check_even(v))
    return AWord(len(v), tuple(
        None if e is None else (e, bool(inverted >> j & 1))
        for j, e in enumerate(ends, start=1)
    ))


def a_word_to_perm(word: AWord) -> Perm:
    """Multiply the letters back out, leftmost first."""
    return eval_a_letters(word.m, word.letters())


def occurrences_s(word: SWord, k: int) -> int:
    """How many times the generator s_k appears across the factors."""
    if not 1 <= k <= word.n - 1:
        raise ValueError(f"generator index {k} outside 1..{word.n - 1}")
    return occurrences(word.factors, k)


def occurrences_a(word: AWord, k: int) -> int:
    """How many times a_k appears; for k = 1 both a_1 and a_1^{-1} count."""
    if not 1 <= k <= word.m - 2:
        raise ValueError(f"generator index {k} outside 1..{word.m - 2}")
    return sum(1 for j, f in enumerate(word.factors, start=1) if f is not None and f[0] <= k <= j)


def epsilon_s(w: Perm) -> tuple[int, ...]:
    """Indicator per factor of a full run reaching s_1.

    >>> epsilon_s((2, 5, 4, 1, 3))
    (1, 0, 0, 0)
    """
    return indicators(s_pull(w)[2])


def epsilon_a(v: Perm) -> tuple[int, ...]:
    """Indicator per factor of a run ending in a_1 or a_1^{-1}."""
    return indicators(a_pull(check_even(v))[2])


# The two helpers below read the starts of an S record or the projected ends
# of an A record: factor j is the run s_j ... s_r, or empty for None.

def indicators(bottoms: tuple[SFactor | None, ...]) -> tuple[int, ...]:
    """1 for each factor whose run reaches the first generator, else 0."""
    return tuple([1 if r == 1 else 0 for r in bottoms])


def occurrences(bottoms: tuple[SFactor | None, ...], k: int) -> int:
    """How many of the runs pass through the k-th generator."""
    return sum(1 for r in bottoms[k - 1:] if r is not None and r <= k)


def t_vector(w: Perm) -> tuple[int, ...]:
    """For each value j = 2..n, how many smaller values sit to its right.

    Entry j-2 equals the length of canonical factor j-1, so the vector reads
    off the factor lengths without running the factorisation.

    >>> t_vector((2, 5, 4, 1, 3))
    (1, 0, 2, 3)
    """
    n = len(w)
    pos = [0] * (n + 1)
    for p, x in enumerate(w, start=1):
        pos[x] = p
    return tuple(sum(1 for i in range(1, j) if pos[i] > pos[j]) for j in range(2, n + 1))


def s_image(word: AWord) -> SWord:
    """Letterwise projection onto the symmetric group one degree down.

    Each letter a_k maps to s_k, collapsing a_1 and a_1^{-1} together, so a
    factor keeps its run shape and just forgets the inversion mark.
    """
    return SWord(word.m - 1, tuple(None if f is None else f[0] for f in word.factors))


# The lifts of a fibre differ only at the positions where choices (ends equal
# to 1) put their tops, so a_lifts builds them all at once, one position at a
# time.  Its work list holds a value where every lift holds the same one and
# None where they differ; a column lists each such position's values, one
# row per lift.  work[0] and work[1] are always columns, so a step's parity
# swap and a choice act on the columns.  The rows come out in lexicographic
# order:
# - Every later step keeps work[0] and work[1] ahead of the other entries,
#   and those in order.  So the finished lifts compare as their work lists
#   do, with work[0] and work[1] taken in the order they end in: the "lead"
#   is 0 when work[0] ends first, 1 when work[1] does.
# - A step that swaps work[0] and work[1] flips the lead.
# - A choice puts top, larger than all before it, at slot 0 or slot 1.  So
#   the slot that puts top at the leading index comes second, and within one
#   slot the lead before the step is the parity of the step's swap.
# The latest choice is thus the most significant.  The rows of the slot-1
# child come first for lead 0, so the order for lead 1 swaps the halves of
# every column.  The first choices build one table of at most
# 2^_BLOCK_CHOICES rows, in both row orders.  Every setting of the later
# choices puts the same top in each row at each later step, so one block of
# lifts zips one of those orders with a constant entry per later step, and
# no block copies the table.  Small blocks keep the columns in cache: a
# fibre of 4,096 lifts builds faster, and with a lower memory peak, in 16
# blocks than in one.
_BLOCK_CHOICES = 8


def _put_back(cols: list[tuple[int, ...]], top: int, r: int) -> None:
    """Undo one step of the A pull on the columns: redo its parity swap, put top at slot r < 2."""
    if (top - 1 - r) & 1:
        cols[0], cols[1] = cols[1], cols[0]
    cols.insert(r, (top,) * len(cols[0]))


def _in_order(cols: list[tuple[int, ...]], lead: int, want: int) -> list[tuple[int, ...]]:
    """A copy of columns whose rows are in the order for `lead`, reordered for lead `want`."""
    if lead == want:
        return cols[:]
    h = len(cols[0]) // 2
    return [c[h:] + c[:h] for c in cols]


def _entries(work: list[int | None], cols: list[tuple[int, ...]]) -> list[Iterable[int]]:
    """Each position of the lifts that a work list and its columns describe, as an iterable."""
    varying = iter(cols)
    return [next(varying) if x is None else repeat(x) for x in work]


def a_lifts(ends: tuple[SFactor | None, ...]) -> Iterator[Perm]:
    """Every even permutation whose A pull gives these projected ends, in lexicographic order.

    The pull runs backwards from the values 1, 2, putting each top back at
    the slot it was pulled from: the end for an empty factor, else slot e.
    A factor ending at 1 came from slot 0 (the inverted tail) or slot 1, so
    the lifts double there: there are 2 to the number of ends equal to 1.
    The lifts are yielded as they are built, in blocks of at most
    2^_BLOCK_CHOICES.

    >>> list(a_lifts((1,)))
    [(2, 3, 1), (3, 1, 2)]
    """
    work, cols, lead = [None, None], [(1,), (2,)], 0
    tail: list[tuple[int, SFactor | None]] = []
    for top, e in enumerate(ends, start=3):
        if e != 1:
            r = top - 1 if e is None else e
            if (top - 1 - r) & 1:
                cols[0], cols[1] = cols[1], cols[0]
                lead ^= 1
            work.insert(r, top)
        elif len(cols[0]) >> _BLOCK_CHOICES:
            tail = list(enumerate(ends[top - 3:], start=top))
            break
        else:
            # The slot-1 and slot-0 children, each from the order its slot needs.
            one, zero = _in_order(cols, lead, top & 1), _in_order(cols, lead, ~top & 1)
            _put_back(one, top, 1)
            _put_back(zero, top, 0)
            cols, lead = [a + b for a, b in zip(one, zero)], 0
            work.insert(0, None)
    if not tail:
        yield from zip(*_entries(work, _in_order(cols, lead, 0)))
        return
    later = ends.count(1) - _BLOCK_CHOICES
    orders = [_in_order(cols, lead, 0), _in_order(cols, lead, 1)]
    for block in range(1 << later):
        # Bit k of the block, from the top, orders the k-th latest choice;
        # walk back from the end to set each slot and the lead at the table.
        slots, need, bit = [], 0, later
        for top, e in reversed(tail):
            r = top - 1 if e is None else e
            if e == 1:
                bit -= 1
                r = (1 - need) ^ (block >> bit & 1)
                need = (top - 1 - r) & 1
            else:
                need ^= (top - 1 - r) & 1
            slots.append(r)
        # entries[0] and entries[1] stay columns, so a step's parity swap swaps them.
        entries = _entries(work, orders[need])
        for (top, _), r in zip(tail, reversed(slots)):
            if (top - 1 - r) & 1:
                entries[0], entries[1] = entries[1], entries[0]
            entries.insert(r, repeat(top))
        yield from zip(*entries)


# -- flat letter views ------------------------------------------------------

# An index is at least 1: s0, a00 and every other spelling of zero is a bad letter.
_S_TOKEN = re.compile(r"s(0*[1-9]\d*)$")
_A_TOKEN = re.compile(r"a(0*[1-9]\d*)(\^-1)?$")


def s_word_pretty(word: SWord) -> str:
    """Factors joined by ' | ', empty factors shown as '1'."""
    if not word.factors:
        return "1"
    parts = []
    for j, r in enumerate(word.factors, start=1):
        parts.append("1" if r is None else " ".join(f"s{i}" for i in range(j, r - 1, -1)))
    return " | ".join(parts)


def a_word_pretty(word: AWord) -> str:
    if not word.factors:
        return "1"
    parts = []
    for j, f in enumerate(word.factors, start=1):
        if f is None:
            parts.append("1")
            continue
        e, inv = f
        letters = [f"a{k}" for k in range(j, e - 1, -1)]
        if inv:
            letters[-1] = "a1^-1"
        parts.append(" ".join(letters))
    return " | ".join(parts)


def parse_s_letters(text: str) -> list[int]:
    """Parse a flat word like 's1 s2 s1 s3'; '|' and '1' tokens are ignored."""
    letters = []
    for tok in text.replace("|", " ").split():
        if tok == "1":
            continue
        m = _S_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad letter {tok!r}; expected s<k>")
        letters.append(int(m.group(1)))
    return letters


def parse_a_letters(text: str) -> list[tuple[int, bool]]:
    """Parse a flat word like 'a1 a2 a1^-1'; only a1 may carry ^-1."""
    letters = []
    for tok in text.replace("|", " ").split():
        if tok == "1":
            continue
        m = _A_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad letter {tok!r}; expected a<k> or a1^-1")
        k, inv = int(m.group(1)), m.group(2) is not None
        if inv and k != 1:
            raise ValueError(f"bad letter {tok!r}; only a1 has a distinct inverse")
        letters.append((k, inv))
    return letters


def eval_s_letters(n: int, letters: list[int]) -> Perm:
    """Right-multiply the identity of degree n by the given s-letters."""
    work = list(range(1, n + 1))
    for k in letters:
        if not 1 <= k <= n - 1:
            raise ValueError(f"letter s{k} needs degree at least {k + 1}" if k > 0
                             else f"letter s{k} has an index below 1")
        work[k - 1], work[k] = work[k], work[k - 1]
    return tuple(work)


def eval_a_letters(m: int, letters: list[tuple[int, bool]]) -> Perm:
    """Right-multiply the identity of degree m by the given a-letters."""
    work = list(range(1, m + 1))
    for k, inv in letters:
        if not 1 <= k <= m - 2:
            raise ValueError(f"letter a{k} needs degree at least {k + 2}" if k > 0
                             else f"letter a{k} has an index below 1")
        if inv:
            work[1], work[2] = work[2], work[1]
            work[0], work[1] = work[1], work[0]
        else:
            work[0], work[1] = work[1], work[0]
            work[k], work[k + 1] = work[k + 1], work[k]
    return tuple(work)


def word_to_json(word: SWord | AWord) -> list[dict]:
    """Nonempty factors as JSON objects; alternating words carry 'last'."""
    out = []
    if isinstance(word, SWord):
        for j, r in enumerate(word.factors, start=1):
            if r is not None:
                out.append({"j": j, "r": r})
    else:
        for j, f in enumerate(word.factors, start=1):
            if f is None:
                continue
            e, inv = f
            last = None if e > 1 else ("a1inv" if inv else "a1")
            out.append({"j": j, "r": e, "last": last})
    return out
