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

``histograms`` tallies a list of keys over a whole group in one pass, each
histogram by its own ``Counter``: a one-column key's bare values, a longer
key's zip.  The columns are the record fields, the inversion count, the
descent statistics, the cycle count and the minima mask, of each element
and of its inverse, and the length and maj of each fold ``h_map(v, j)``.
The record fields come off the pull's step as byte planes
(``words._columns``).  Inversions and descents read an S element's word,
an A element's projection and a folded word alike, a pack of words at
once, a byte per letter in one integer: one subtraction per distance for
the inversions (``_pack_lengths``), and one multiplication of the descent
lanes for maj, rmaj and des (``_pack_descent_sums``); the descent mask
alone goes through a table of comparison patterns (``_pack_descents``).
The cycle counts read the pack too, by a lane step of their own that
deletes the top value from its cycle (``_pack_cycles``).  ``_folds`` folds
a chunk's words by ``bytes.translate``.  Which keys share a pass, and the
keys themselves, are the registry's business: see ``identities._SCANS``,
``_tally_passes`` and ``plan``.
"""
from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, compress, count, repeat, starmap
from operator import gt
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .perm import Perm, check_even
from .words import (_CHUNK, _columns, _element_packs, _lanes, _Memo, _pack, _table, _words,
                    a_pull, indicators, s_pull)

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


def _mask(positions: Iterable[int]) -> int:
    return sum(1 << i for i in positions)  # bit i for each of the distinct positions i


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

# The columns of a pass read off a word itself: in S its one-line word, in A
# its projection.
_WORD_STATS = ("inversions", "maj", "rmaj", "des", "desmask")


# Column forms of the statistics above, for the keys of a pass: each maps a
# chunk of words to one value per word at C level.

def _descent_table(value: Callable[[list[int]], object]) -> _Memo:
    """A word's comparison key, the bytes of ``map(gt, w, w[1:])`` as ``_pack_descents``
    reads them, -> value(its descent positions); each entry filled when first read."""
    return _Memo(lambda bits: value(list(compress(count(1), bits))))


def _descent_lanes(pack: tuple[int, int, int, int]) -> int:
    """0x01 in each lane i of a pack where ``(a >> 8 | h) - a`` (h: 0x80 in every lane),
    0x80 + next - this, has its top bit clear: exactly at a descent."""
    length, stride, size, a = pack
    h = _lanes(stride, length, size)[0] << 7
    return ((((a >> 8) | h) - a) & h ^ h) >> 7


def _pack_descents(pack: tuple[int, int, int, int], table: _Memo) -> Iterator:
    """The table value of each word of a pack, keyed by its first L - 1 descent lanes."""
    return map(table.__getitem__, _words((pack[0] - 1, *pack[1:3], _descent_lanes(pack))))


def _pack_descent_sums(pack: tuple[int, int, int, int], *stats: str) -> list[bytes]:
    """A plane per statistic of `stats`, maj, rmaj (ambient degree L) or des, of each
    word of L letters of a pack, from one read of its descent lanes b: each by one
    multiplication, b times W, one integer whose byte k weighs a descent at position
    L - 1 - k.  Lane L - 2 of a word then sums W_k b_(L - 2 - k) over its own lanes
    0..L - 2, so the comparison across its end never enters, and no lane of the product
    passes the sum of W, L(L - 1)/2, so nothing carries; a word of one letter reads 0.
    Over 23 letters, ValueError."""
    length, stride, size, _ = pack
    if length > 23:
        raise ValueError(f"words of at most 23 letters expected, not {length}")
    lanes = _descent_lanes(pack)
    weights = {"maj": range(length - 1, 0, -1), "rmaj": range(1, length),
               "des": [1] * (length - 1)}
    return [(lanes * int.from_bytes(bytes(weights[s]), "little")).to_bytes(
        size + length, "little")[max(length - 2, 0):size:stride] for s in stats]


# (length, stride) -> per distance d, 0x80 in each lane of a chunk with a letter d places
# on in its word.
_PAIRS = _Memo(lambda key: [int.from_bytes((b"\x80" * (key[0] - d)).ljust(key[1], b"\0")
                                           * _CHUNK, "little") for d in range(1, key[0])])


def _pack_lengths(pack: tuple[int, int, int, int]) -> bytes:
    """``length_s`` of each word of a pack: lane i of ``(a | h) - (h >> 7) - (a >> 8d)``
    (h: 0x80 in every lane) is 0x7F + this - the letter d places on, its top bit set
    exactly at an inversion.  Summed over d, lane i counts the inversions from i; times
    a run of L ones, lane L - 1 sums a word's L lanes, at most L(L - 1)/2, so nothing
    carries.  Over 23 letters, ValueError."""
    length, stride, size, a = pack
    if length > 23:
        raise ValueError(f"words of at most 23 letters expected, not {length}")
    h = _lanes(stride, length, size)[0] << 7
    b, lanes = (a | h) - (h >> 7), 0
    for d, pairs in enumerate(_PAIRS[length, stride], 1):
        lanes += (b - (a >> 8 * d)) & pairs
    ones = int.from_bytes(b"\x01" * length, "little")
    return ((lanes >> 7) * ones).to_bytes(size + length - 1, "little")[length - 1::stride]


def _pack_cycles(pack: tuple[int, int, int, int]) -> bytes:
    """``cycle_count`` of each word of a pack, one value deleted from its cycle at a time,
    from the top d down: the lane test finds d's slot, whose letter takes the word's last
    letter (d's image), spread over the word by one multiplication; lane d - 1 is
    dropped, and a slot of d - 1, where d is fixed, adds one to the word's lane 0."""
    length, stride, size, a = pack
    spread, cycles = int.from_bytes(b"\x01" * stride, "little"), 0
    for d in range(length, 0, -1):
        ones, starts, ends, keep, ds = _lanes(stride, d, size)
        at = ((((ones << 7) - (a ^ ds)) & ones << 7) >> 7) * 0xFF  # 0xFF at the slot of d
        a = (a & ~at | ((a >> 8 * d - 8) & starts * 0xFF) * spread & at) & keep
        cycles += (at & ends) >> 8 * d - 8
    return cycles.to_bytes(size, "little")[::stride]


def _folds(js: Sequence[int]) -> Callable:
    """``h_map`` at each j of `js`: (a chunk's words as bytes, the pack of their inverses)
    -> per j, every word folded, in order: its letters j and j + 1 swapped by
    ``bytes.translate`` where its inverse descends at j, and kept elsewhere."""
    same = bytes(range(256))
    swaps = [bytes.maketrans(bytes((j, j + 1)), bytes((j + 1, j))) for j in js]
    tables = _descent_table(lambda des: [swap if j in des else same for j, swap in zip(js, swaps)])
    return lambda words, inverses: (list(map(bytes.translate, words, at))
                                    for at in zip(*_pack_descents(inverses, tables)))


def _indicator_keys(hist: Counter, arity: int) -> dict:
    """(q, indicator mask) keys as (q, 0, one indicator per factor), each mask expanded once."""
    vectors = {m: tuple([m >> j & 1 for j in range(arity)]) for _, m in hist}
    return {(q, 0, *vectors[m]): c for (q, m), c in hist.items()}


def _with_zeros(key: tuple[str, ...], hist: Counter) -> Counter:
    """A tally of a key's columns but "zero", bare when one is left, as the key's."""
    if len(key) == 1 or "zero" not in key:
        return hist
    one = sum(f != "zero" for f in key) < 2

    def spread(values):
        return tuple(0 if f == "zero" else next(values) for f in key)
    return Counter({spread(iter((v,) if one else v)): c for v, c in hist.items()})


def histograms(group: str, n: int, keys: list[tuple[str, ...]]
               ) -> tuple[tuple[Counter, ...], int]:
    """Tally a list of keys per element over a whole group, in one pass.

    Group "S" is the symmetric group of degree n and "A" the alternating
    group of degree n + 1, which projects onto it.  The pass computes named
    columns, one value per element, and a key is a tuple of column names.
    One histogram tallies a key: the bare values of its column when it names
    one, else the zip of its columns.  Returns one histogram (its
    ``Counter``) per key, in order, and the group order.

    The columns are "zero", all zeros; the record fields "length",
    "delent", "ind" (the indicator mask), "occ<k>" (the occurrence count of
    the k-th generator) and, in A, "proj" (the projection), as the pull's
    step reads them (``words._columns``); the descent statistics "maj", "rmaj"
    (ambient degree n), "des" and "desmask" (bit i set for a descent at i);
    and "inversions", the inversion count (``length_s``).  These last five
    are read off the element's one-line word in S and off its projection in
    A, never off the record.  "cycles" (``cycle_count``) is read off the
    one-line word's pack by ``_pack_cycles``, and "minmask" (bit i set for
    each position of ``ltr_minima``, level 0 in S and 1 in A) is computed
    per element off its one-line word, as bytes off the pack, by the
    ``ltr_minima`` this module holds when the pass runs.  "inverse" is each
    element's inverse, as bytes, as "proj" is, and "inverse-<column>" each
    column above but "zero" of it.
    "hat-length<j>" and "hat-maj<j>" are ``length_s`` and ``maj_s`` of
    ``h_map(element, j)``, both measured on one pack of the chunk's words
    folded at j (``_folds``).

    The pass runs ``_CHUNK`` elements at a time and computes, at C level
    where it can, each column that some key reads once per chunk, and no
    other: a pass whose keys read no record field pulls nothing.  It reads
    the elements as packs, in lexicographic order, relabelled a block at a
    time with no tuple per element (``words._element_packs``), and packs
    their inverses once, which ``bytes.translate`` reads off the elements
    (``words._pack``).  The pull's step (``words._columns``),
    ``_pack_lengths``, ``_pack_descent_sums``, ``_pack_descents`` (for
    "desmask" alone) and ``_pack_cycles`` read each side's pack, and in A
    the step's packed projections; "hat-maj<j>" is ``_pack_descent_sums``
    of the folded pack.  Each element takes one step of the pull per value
    above the pass's top degree and reads the rest from a table of every
    word of that degree, which the pass builds once (``words._table``);
    the fields come out as ``bytes`` planes, cut from the joined records of
    a pack's words, and each step adds its constants to a plane by one
    integer addition.
    A key with a "zero" column tallies its other columns, bare when one is
    left, and gets its zeros back per distinct key.
    """
    if group == "S":
        degree, level = n, 0
    elif group == "A":
        degree, level = n + 1, 1
    else:
        raise ValueError(f"unknown group {group!r}; expected 'S' or 'A'")
    fields = list(dict.fromkeys(chain.from_iterable(keys)))
    js = sorted({int(f.removeprefix("hat-length").removeprefix("hat-maj"))
                 for f in fields if f.startswith("hat-")})
    own = {f: f.removeprefix("inverse-") for f in fields if not f.startswith("hat-")}
    pulled = [f for f in dict.fromkeys("proj" if group == "A" and s in _WORD_STATS else s
                                       for s in own.values())
              if f not in ("zero", "inverse", "cycles", "minmask", *_WORD_STATS)]
    # Each column read off a word: its side's prefix, and its statistic.
    worded = [(f, f.removesuffix(s), s) for f, s in own.items() if s in _WORD_STATS]
    # Each column read off a one-line word's pack or per element: its side's prefix, and which.
    counted = [(f, f.removesuffix(s), s) for f, s in own.items() if s in ("cycles", "minmask")]
    theirs = js or any(f.startswith("inverse") for f in fields)
    zips = [[f for f in key if f != "zero"] or ["zero"] for key in keys]
    counters = [Counter() for _ in keys]
    held = _table(group, degree, pulled) if pulled else None
    ident = bytes(range(1, degree + 1))
    folds, masks = _folds(js), _descent_table(_mask)
    order = 0
    for pack in _element_packs(group, degree):
        size = pack[2] // degree
        cols, packs = {"zero": [0] * size}, {"": pack}
        words = _words(pack) if theirs or "minmask" in own.values() else ()
        if theirs:
            cols["inverse"] = inverses = list(map(ident.translate, map(
                bytes.maketrans, words, repeat(ident))))
            packs["inverse-"] = _pack(inverses, degree)
        for side, pack in packs.items() if pulled else ():
            cols.update(zip([side + f for f in pulled], _columns(group, pack, held, pulled)))
        for f, side, s in worded:
            pack = cols[side + "proj"] if group == "A" else packs[side]
            cols[f] = (_pack_lengths(pack) if s == "inversions" else list(_pack_descents(
                pack, masks)) if s == "desmask" else _pack_descent_sums(pack, s)[0])
        for f, side, s in counted:
            cols[f] = _pack_cycles(packs[side]) if s == "cycles" else [
                _mask(ltr_minima(w, level, EXCLUDE_FIRST_POSITIONS))
                for w in (cols["inverse"] if side else words)]
        for j, folded in zip(js, folds(words, packs["inverse-"]) if js else ()):
            pack = _pack(folded, degree)
            cols[f"hat-length{j}"] = _pack_lengths(pack)
            cols[f"hat-maj{j}"] = _pack_descent_sums(pack, "maj")[0]
        cols.update((f, _words(cols[f])) for f in own if own[f] == "proj")
        order += size
        for counter, key in zip(counters, zips):
            counter.update(cols[key[0]] if len(key) == 1 else zip(*map(cols.__getitem__, key)))
    return tuple(map(_with_zeros, keys, counters)), order


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
    t = "ind" if multivar else "delent" if t_stat == "del" else "zero"
    (acc,), _ = histograms(group, n, [(q_stat, t)])
    return MultiPoly(n - 1, _indicator_keys(acc, n - 1)) if multivar else MultiPoly(0, acc)
