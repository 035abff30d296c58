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
evenness) wrap them for single elements; whole-group scans call them
directly on the elements that ``iter_symmetric`` and ``iter_alternating``
yield.

Two-path rule: every registry scan enumerates group elements and factors
each one; none enumerates factor tuples, Lehmer codes or inversion tables,
which are the closed forms' own structure.  A scan reads from a record only
what the paper defines through the word: delent, indicator vectors,
occurrence counts, and the alternating length and descents.  Symmetric
statistics that are defined on the one-line word stay there: length is an
inversion count and descents compare neighbouring entries.

Words are stored structurally, one entry per factor, never as flat letter
lists; occurrence counts and length are O(1) per factor.  Flat letter views
exist for printing and parsing only.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator

from .perm import Perm, check_even

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
    starts: list[SFactor | None] = [None] * (len(w) - 1)
    length = delent = 0
    for top in range(len(w), 1, -1):
        # Pulling top to the end of the work list and dropping it there
        # leaves the values 1..top-1 in the order the next pull sees.
        r = work.index(top)
        del work[r]
        if r < top - 1:
            starts[top - 2] = r + 1
            length += top - 1 - r
            if r == 0:
                delent += 1
    return length, delent, tuple(starts)


def s_canonical(w: Perm) -> SWord:
    """Factor w into its unique staircase word.

    >>> s_word_pretty(s_canonical((2, 5, 4, 1, 3)))
    's1 | 1 | s3 s2 | s4 s3 s2'
    """
    return SWord(len(w), s_pull(w)[2])


def s_word_to_perm(word: SWord) -> Perm:
    """Multiply the factors back out, leftmost factor first."""
    work = list(range(1, word.n + 1))
    for j, r in enumerate(word.factors, start=1):
        if r is None:
            continue
        for i in range(j, r - 1, -1):
            work[i - 1], work[i] = work[i], work[i - 1]
    return tuple(work)


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
    ends: list[SFactor | None] = [None] * max(0, m - 2)
    # The projection restricted to the values 1..j+1 holds j+1 at position
    # e_j, so each value takes the e_j-th slot still free, largest first.
    proj = [1] * max(0, m - 1)
    free = list(range(m - 1))
    length = delent = inverted = 0
    for top in range(m, 2, -1):
        r = work.index(top)
        del work[r]
        if r == top - 1:
            proj[free.pop()] = top - 1
            continue
        if (top - 1 - r) % 2:
            work[0], work[1] = work[1], work[0]
        # Pull position r + 1 fixes factor j: position 1 is the inverted
        # tail, position r + 1 >= 2 the plain run down to a_r.
        j = top - 2
        if r == 0:
            inverted |= 1 << j
            r = 1
        ends[j - 1] = r
        proj[free.pop(r - 1)] = top - 1
        length += j + 1 - r
        if r == 1:
            delent += 1
    return length, delent, tuple(ends), tuple(proj), inverted


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
    """Multiply the factors back out, leftmost factor first."""
    work = list(range(1, word.m + 1))
    for j, f in enumerate(word.factors, start=1):
        if f is None:
            continue
        e, inv = f
        for k in range(j, e, -1):
            work[0], work[1] = work[1], work[0]
            work[k], work[k + 1] = work[k + 1], work[k]
        if inv:
            work[1], work[2] = work[2], work[1]
            work[0], work[1] = work[1], work[0]
        else:
            work[0], work[1] = work[1], work[0]
            work[e], work[e + 1] = work[e + 1], work[e]
    return tuple(work)


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
    return tuple(1 if r == 1 else 0 for r in bottoms)


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


def a_lifts(word: SWord) -> Iterator[AWord]:
    """All alternating words projecting onto the given word, one degree up.

    Factors not reaching s_1 lift uniquely; each factor ending in s_1 lifts
    two ways, so the number of lifts is 2 to the number of such factors.
    """
    choices: list[list[AFactor | None]] = []
    for r in word.factors:
        if r is None:
            choices.append([None])
        elif r == 1:
            choices.append([(1, False), (1, True)])
        else:
            choices.append([(r, False)])
    for combo in itertools.product(*choices):
        yield AWord(word.n + 1, tuple(combo))


# -- flat letter views ------------------------------------------------------

_S_TOKEN = re.compile(r"s(\d+)$")
_A_TOKEN = re.compile(r"a(\d+)(\^-1)?$")


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
            raise ValueError(f"letter s{k} needs degree at least {k + 1}")
        work[k - 1], work[k] = work[k], work[k - 1]
    return tuple(work)


def eval_a_letters(m: int, letters: list[tuple[int, bool]]) -> Perm:
    """Right-multiply the identity of degree m by the given a-letters."""
    work = list(range(1, m + 1))
    for k, inv in letters:
        if not 1 <= k <= m - 2:
            raise ValueError(f"letter a{k} needs degree at least {k + 2}")
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
