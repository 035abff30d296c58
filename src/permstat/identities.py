"""The checks behind the identity catalog, and the exhaustive verifier.

Every entry of ``permstat.catalog`` states an exact polynomial (or count)
identity over a symmetric or alternating group, and its check here verifies
it by brute enumeration: the left side is always a statistic scan, the
right side a closed form or an independent second scan, and the two sides
never share a code path.  Verification is exact integer arithmetic; there
are no tolerances.

An entry may quantify over internal parameters (cut sets, generator indices,
base permutations); each parameter point is checked separately.  A passing
report carries the two aggregate polynomials (equal sums over all points); a
failing report carries the first failing point and its two differing sides.

Each side of a checkpoint is a plain histogram, an arity plus an
``{exponents: count}`` dict.  The reporter compares each checkpoint's sides,
adds them to one running sum and builds a ``MultiPoly`` only for its report.
Lemmas 6.3-6.5 and remark 6.6 insert n+1 into every slot of a base word;
their checks tally the base words by key, one bytes record of the closed
form's start and the row measured on the inserted words, check each distinct
key once, and still report the first failing base word (``_by_key``).

The whole-group entries are data: the columns they tally over a group and a
finish that turns the tallies into checkpoints.  ``fiber-size`` is one: it
tallies the alternating pass's projection column alone, so the count of a
permutation w is the size of its fibre, and its closed form 2^del(w) reads
w's minima count off ``_starts._prefix_starts``.  ``plan`` checks a list of
(name, n) tasks and joins the whole-group ones that read a common group and
degree into one piece of work; ``run`` verifies a piece, with one pass per
group and degree, and its reporter builds every report.  ``verify`` runs a
one-task plan.
"""
from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from operator import mul
from typing import Iterator

from ._starts import _prefix_starts
from .catalog import REGISTRY, CapExceeded, IdentityEntry, resolve  # noqa: F401
from .perm import Perm, compose, inverse, iter_symmetric, nu
from .qpoly import MultiPoly, geometric, q_binomial, q_factorial
from .stats import (
    EXCLUDE_FIRST_POSITIONS,
    _indicator_keys,
    _maj_rmaj,
    _mask,
    _pack_descent_sums,
    histograms,
    length_s,
    ltr_minima,
    maj_s,
    rmaj_s,
)
from .words import (_columns, _element_packs, _inserted, _packs, _records, _table, epsilon_s,
                    eval_a_letters, eval_s_letters, s_pull)
from . import shuffles as shuf

# A side is (arity, {exponents: count}): keys of width 2 + arity, no zero
# counts.  A checkpoint is one verified equation: (point parameters or None,
# left side, right side, number of objects enumerated for this point).
Side = tuple[int, dict]
Checkpoint = tuple[dict | None, Side, Side, int]


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: dict
    lhs: MultiPoly
    rhs: MultiPoly
    passed: bool
    elements_scanned: int
    elapsed: float

    def to_json(self, include_elapsed: bool = False) -> dict:
        out = {
            "identity": self.identity,
            "params": self.params,
            "pass": self.passed,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "elements_scanned": self.elements_scanned,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


# -- side helpers -------------------------------------------------------------

def _run(start: int, length: int, t: int = 0) -> dict:
    """q^start t^t (1 + q + ... + q^(length-1)): one key per power of q."""
    return {(e, t): 1 for e in range(start, start + length)}


def _const(c: int) -> Side:
    """The constant c as a side; zero is the empty histogram."""
    return 0, ({(0, 0): c} if c else {})


def _embed_high(p: Perm, k: int, n: int) -> Perm:
    """Place a permutation of degree n-k on the values k+1..n."""
    return tuple(range(1, k + 1)) + tuple(x + k for x in p)


# Each factor reaching the first generator has this many lifts: s_1 lifts
# only to itself, a_1 and a_1^{-1} both project onto s_1.
_LIFTS = {"S": 1, "A": 2}


def _product(factors, arity: int = 0, scale: int = 1) -> MultiPoly:
    """scale times the product of the factors, multiplied in turn."""
    return reduce(mul, factors, MultiPoly.const(scale, arity))


def _staircase(n: int, lifts: int) -> MultiPoly:
    """Product over j < n of (1 + q + ... + q^(j-1) + lifts q^j t)."""
    return _product(geometric(j) + MultiPoly.monomial(lifts, q=j, t=1) for j in range(1, n))


def _unit_marker(j: int, n: int) -> tuple[int, ...]:
    """Exponent vector selecting the single indexed variable t_j."""
    return tuple(1 if i == j else 0 for i in range(1, n))


# -- restricted sums ----------------------------------------------------------

def _fibres(tallies) -> dict[int, list[dict]]:
    """Regroup (mask, stat) tallies into {mask: [histogram per tally]}."""
    fibres: dict[int, list[dict]] = {}
    for i, tally in enumerate(tallies):
        for (m, e), c in tally.items():
            fibres.setdefault(m, [{} for _ in tallies])[i][(e, 0)] = c
    return fibres


def _subset_sums(fibres: dict[int, list[dict]], bits: list[int]) -> list[list[dict]]:
    """Subset sums of the fibres, in one sum-over-subsets (Yates) pass.

    Entry s holds, per tally, the sum of the fibres whose mask lies inside
    subset s of `bits`; bit j of s stands for the mask bit bits[j].
    """
    tallies = len(next(iter(fibres.values())))
    sums = [[{} for _ in range(tallies)] for _ in range(1 << len(bits))]
    for m, hists in fibres.items():
        s = 0
        for j, b in enumerate(bits):
            if m >> b & 1:
                s |= 1 << j
                m ^= 1 << b
        if not m:
            sums[s] = [dict(h) for h in hists]
    for j in range(len(bits)):
        bit = 1 << j
        for s in range(1 << len(bits)):
            if s & bit:
                for into, part in zip(sums[s], sums[s ^ bit]):
                    for k, c in part.items():
                        into[k] = into.get(k, 0) + c
    return sums


def _stray(fibres: dict[int, list[dict]], bits: list[int], count: int) -> list[Checkpoint]:
    """A fibre whose mask has a bit outside `bits` lies in no subset sum: the smallest
    such mask fails, its first tally's fibre against an empty side.  [] if none does."""
    outside = ~_mask(bits)
    stray = min((m for m in fibres if m & outside), default=None)
    return [] if stray is None else [({"mask": stray}, (0, fibres[stray][0]), _const(0), count)]


# -- whole-group entries, as data ----------------------------------------------
#
# A whole-group entry is the columns it reads and a finish, which gets n, the
# first column's group order and every histogram in column order.  A column
# is (group, degree, key): one key of ``stats.histograms``, a tuple of column
# names, tallied over that group.  Scan sides may share a pass; no closed
# form reads a tally.

_INVERSE_MASKS = ("inverse-desmask", "inverse-minmask")  # the main theorem's fibres
# The descent-class keys of the Foata-Schuetzenberger entries, and the
# length/rmaj-delent keys of theorems 6.1 and 6.2 per group.
_DESCENT_CLASS = tuple(("inverse-desmask", q) for q in ("inversions", "maj", "rmaj"))
_LEN_RMAJ_DEL = {"S": (("inversions", "delent"), ("rmaj", "delent")),
                 "A": (("length", "delent"), ("rmaj", "delent"))}


def _tally_passes(columns) -> tuple[dict, dict]:
    """Tally the distinct columns, one ``histograms`` pass per (group, degree).

    A pass tallies the distinct keys of its columns.  Returns {column:
    (histogram, group order)} and {(group, degree): seconds}.
    """
    passes: dict = {}
    for group, n, key in dict.fromkeys(columns):
        passes.setdefault((group, n), []).append(key)
    tallies, seconds = {}, {}
    for (group, n), keys in passes.items():
        start = time.perf_counter()
        hists, count = histograms(group, n, keys)
        tallies.update(((group, n, key), (h, count)) for key, h in zip(keys, hists))
        seconds[group, n] = time.perf_counter() - start
    return tallies, seconds


def _sides(closed, *names):
    """A finish that equates each histogram, named in turn, to closed(n)."""
    def finish(n, count, *hists):
        rhs = 0, closed(n).terms
        for name, hist in zip(names, hists):
            yield {"side": name}, (0, hist), rhs, count
            count = 0
    return finish


def _fs_fixed_descent(n, count, ell, maj, rmaj):
    fibres = _fibres((ell, maj))
    return _stray(fibres, list(range(1, n)), count) or [
        ({"descent-class": m}, (0, fibres[m][0]), (0, fibres[m][1]), count if i == 0 else 0)
        for i, m in enumerate(sorted(fibres))]


def _fs_rmaj(n, count, ell, maj, rmaj):
    fibres, bits = _fibres((maj, rmaj, ell)), list(range(1, n))
    if stray := _stray(fibres, bits, count):
        yield from stray
        return
    sums = _subset_sums(fibres, bits)
    for d1_bits, (maj, rmaj, ell) in enumerate(sums):
        yield {"D1": d1_bits, "side": "maj"}, (0, maj), (0, ell), count if d1_bits == 0 else 0
        yield {"D1": d1_bits, "side": "rmaj"}, (0, rmaj), (0, ell), 0


def _thm62(n, count, ell, rmaj):
    def slice_at(tally, k):
        return 0, {(e, 0): c for (e, d), c in tally.items() if d == k}

    for k in range(n):
        yield {"delent": k}, slice_at(ell, k), slice_at(rmaj, k), count if k == 0 else 0
    stray = min((d for _, d in itertools.chain(ell, rmaj) if d >= n), default=None)
    if stray is not None:  # a slice above every one compared: it fails, named
        held = slice_at(ell, stray)
        yield {"delent": stray}, held if held[1] else slice_at(rmaj, stray), _const(0), 0


def _stirling(point, key, base, scale, m, count, hist, cycles):
    """hist against scale prod_{0<c<m} (base t + c), and its coefficient of t^d
    against scale base^d c(m, d+1), read off a cycle-count tally over S_m."""
    rhs = _product((MultiPoly.monomial(base, t=1) + MultiPoly.const(c) for c in range(1, m)),
                   scale=scale)
    yield {**point, "form": "generating"}, (0, hist), (0, rhs.terms), count
    for d in range(m):
        expect = _const(scale * base ** d * cycles.get(d + 1, 0))
        scan = math.factorial(m) if d == 0 else 0
        yield {**point, key: d}, _const(hist.get((0, d), 0)), expect, scan


def _within(n: int, given: int | None, default, what: str) -> tuple[int, ...]:
    """(given,), or the default indices; each must lie in 1..n-1."""
    indices = tuple(default) if given is None else (given,)
    for j in indices:
        if not 1 <= j <= n - 1:
            raise ValueError(f"{what} {j} outside 1..{n - 1}")
    return indices


def _prop712_columns(n, k=None):
    # One occurrence count for every k, and the cycle classes of each S_{n-k+1}.
    ks = _within(n, k, range(1, min(4, n - 1) + 1), "generator index")
    return [("S", n, ("zero", f"occ{kk}")) for kk in ks] + [
        ("S", n - kk + 1, ("cycles",)) for kk in ks]


def _prop712(n, count, *hists, k=None):
    # One occurrence scan for every k; each k's report counts the whole group.
    ks = (k,) if k is not None else range(1, len(hists) // 2 + 1)
    for kk, hist, cycles in zip(ks, hists, hists[len(ks):]):
        yield from _stirling({"k": kk}, "occurrences", kk, math.factorial(kk), n - kk + 1,
                             count, hist, cycles)


def _prop67(n, count, rmaj):
    yield None, (0, rmaj), (0, _staircase(n, 1).terms), count


def _prop510(group, n, count, acc):
    arity = n - 1
    rhs = _product((geometric(j, arity) + MultiPoly.monomial(
        _LIFTS[group], q=j, ts=_unit_marker(j, n), arity=arity) for j in range(1, n)), arity)
    yield None, (arity, _indicator_keys(acc, arity)), (arity, rhs.terms), count


def _prop511(n, count, *accs):
    # The A scan's count is the order of A_{n+1}.
    arity, orders = n - 1, (count, math.factorial(n + 1) // 2)
    for (group, lifts), acc, order in zip(_LIFTS.items(), accs, orders):
        rhs = _product((MultiPoly.monomial(lifts, ts=_unit_marker(j, n), arity=arity)
                        + MultiPoly.const(j, arity) for j in range(1, n)), arity)
        yield {"group": group}, (arity, _indicator_keys(acc, arity)), (arity, rhs.terms), order


def _main(group, n, count, *tallies):
    d2_count = n - 1 if group == "S" else n
    # D1 restricts the descent bits 1..n-1 and D2 the minima bits, shifted by n, from n + 2 up.
    bits = list(range(1, n)) + list(range(n + 2, n + 2 + d2_count))
    fibres = _fibres([{(d | m << n, e): c for (d, m, e), c in t.items()} for t in tallies])
    if stray := _stray(fibres, bits, count):
        yield from stray
        return
    sums = _subset_sums(fibres, bits)
    for d1_bits in range(1 << (n - 1)):
        for d2_bits in range(1 << d2_count):
            lhs, rhs = sums[d1_bits | d2_bits << (n - 1)]
            first = d1_bits == d2_bits == 0
            yield {"D1": d1_bits, "D2": d2_bits}, (0, lhs), (0, rhs), count if first else 0


def _cor92(n, count, lhs, rhs):
    yield None, (1, lhs), (1, rhs), count


def _appendix_hat(n, count, *hists, i=None):
    closed = 0, _product(geometric(m) for m in range(3, n + 1)).terms
    sides = [(0, {(e, 0): c for e, c in hist.items()}) for hist in hists]
    for j, ell, maj in zip((i,) if i is not None else range(1, n), sides[::2], sides[1::2]):
        yield {"i": j, "side": "length"}, ell, closed, count
        yield {"i": j, "side": "maj"}, maj, closed, 0


def _fiber_size(n, count, sizes):
    # Each w of iter_symmetric is keyed by its tallied fibre size and its
    # minima count off the recurrence, strictly, and each distinct key is
    # checked once (``_by_key``); a w counts its fibre's elements, and a w
    # that no element projects onto reads 0 off the tally's Counter.  The
    # total counts every projection tallied, so one outside S_n fails there.
    def keys():
        minima = itertools.chain.from_iterable(minima for *_, minima in _prefix_starts(n))
        return zip(map(sizes.__getitem__, map(bytes, iter_symmetric(n))), minima, strict=True)

    yield from _by_key("w", partial(iter_symmetric, n), keys, lambda key: [
        ({}, {(0, 0): key[0]}, {(0, 0): 2 ** key[1]})], lambda key: key[0])
    order = math.factorial(n + 1) // 2
    yield {"check": "partition-total"}, _const(sum(sizes.values())), _const(order), 0
    yield {"check": "partition-distinct"}, _const(count), _const(order), 0


def _on(group, *keys):
    """The columns of `keys` over `group`, at the entry's own n."""
    return lambda n: [(group, n, key) for key in keys]


# name -> (columns(n, **params), finish(n, order, *histograms, **params)).  The
# finishes look their closed forms up when they run, so a patched one is seen.
# Symmetric lengths are inversion counts (the pass's "inversions" column),
# alternating ones come from the record ("length"), and descents are read off
# the one-line word in S and the projection in A.  Corollary 9.2 scans over
# q = p^{-1}, which runs over the whole group as p does: p's statistics are
# the pass's "inverse-" columns, as are the main theorem's masks.  The cycle
# counts are a third path, apart from both the delent scan and the closed
# forms.  fiber-size's scan is the "proj" column over A_{n+1} tallied alone:
# the elements that project onto w are its fibre.
_SCANS = {
    "macmahon": (_on("S", ("inversions", "zero"), ("maj", "zero")),
                 _sides(lambda n: q_factorial(n), "length", "maj")),
    "fs-fixed-descent": (_on("S", *_DESCENT_CLASS), _fs_fixed_descent),
    "fs-rmaj": (_on("S", *_DESCENT_CLASS), _fs_rmaj),
    "thm61-s": (_on("S", *_LEN_RMAJ_DEL["S"]),
                _sides(lambda n: _staircase(n, 1), "length", "rmaj")),
    "thm61-a": (_on("A", *_LEN_RMAJ_DEL["A"]),
                _sides(lambda n: _staircase(n, 2), "length", "rmaj")),
    "thm62-s": (_on("S", *_LEN_RMAJ_DEL["S"]), _thm62),
    "thm62-a": (_on("A", *_LEN_RMAJ_DEL["A"]), _thm62),
    "prop57-stirling-s": (_on("S", ("zero", "delent"), ("cycles",)),
                          partial(_stirling, {}, "delent", 1, 1)),
    "prop57-stirling-a": (lambda n: [("A", n, ("zero", "delent")), ("S", n, ("cycles",))],
                          partial(_stirling, {}, "delent", 2, 1)),
    "prop510-multivar-s": (_on("S", ("inversions", "ind")), partial(_prop510, "S")),
    "prop510-multivar-a": (_on("A", ("length", "ind")), partial(_prop510, "A")),
    "prop511-multivar": (lambda n: [("S", n, ("zero", "ind")), ("A", n, ("zero", "ind"))],
                         _prop511),
    "prop712-sk-occurrences": (_prop712_columns, _prop712),
    "prop67": (_on("S", ("rmaj", "delent")), _prop67),
    "main-s": (_on("S", (*_INVERSE_MASKS, "rmaj"), (*_INVERSE_MASKS, "inversions")),
               partial(_main, "S")),
    "main-a": (_on("A", (*_INVERSE_MASKS, "rmaj"), (*_INVERSE_MASKS, "length")),
               partial(_main, "A")),
    "cor92-s": (_on("S", ("inverse-rmaj", "des", "delent"),
                    ("inverse-inversions", "des", "delent")), _cor92),
    "cor92-a": (_on("A", ("inverse-rmaj", "des", "delent"),
                    ("inverse-length", "des", "delent")), _cor92),
    "fiber-size": (_on("A", ("proj",)), _fiber_size),
    # The folds run over the alternating group of degree n, that is A_{(n-1)+1}.
    "appendix-hat": (lambda n, i=None: [
        ("A", n - 1, (f"hat-{s}{j}",)) for j in _within(n, i, range(1, n), "position")
        for s in ("length", "maj")], _appendix_hat),
}


def _check_scan(name: str, n: int, columns: list[tuple] | None = None,
                tallies: dict | None = None, **extra) -> Iterator[Checkpoint]:
    """A whole-group entry's checkpoints: `columns` read from `tallies`, or made and
    tallied.  An entry with no columns gets 0 as its order."""
    if columns is None:
        columns = _SCANS[name][0](n, **extra)
        tallies = _tally_passes(columns)[0]
    order = tallies[columns[0]][1] if columns else 0
    return _SCANS[name][1](n, order, *(tallies[col][0] for col in columns), **extra)


# A piece's work saturates here, so that weighing a forced huge n stays cheap.
# No piece that heavy can finish, so how such pieces are ordered does not matter.
_MOST_WORK = 1 << 62


def _work(factors) -> int:
    """The product of `factors`, or ``_MOST_WORK`` once it gets there."""
    work = 1
    for f in factors:
        work *= f
        if work >= _MOST_WORK:
            return _MOST_WORK
    return work


def _batch_work(columns: set) -> int:
    """About how many elements a batch enumerates: each column its group's order."""
    work = 0
    for group, n, _ in columns:
        # S_n has 2 * 3 * ... * n elements and A_{n+1} has 3 * 4 * ... * (n + 1).
        work += _work(range(2, n + 1) if group == "S" else range(3, n + 2))
    return min(_MOST_WORK, work)


def plan(tasks: list[tuple[str, int]], force: bool = False,
         **extra) -> list[tuple[int, list[tuple]]]:
    """Check every (name, n) task, then split them into (work, piece) pairs for ``run``.

    A piece is a list of (name, n, parameters, columns) tasks; whole-group
    tasks that read a common (group, degree) pass share one.  Its work is
    about how many elements it enumerates.  Pieces may be joined into one.
    """
    checked = [(name, *resolve(name, n, force, extra)) for name, n in tasks]
    pieces, batches = [], []  # batches: (columns, tasks) of whole-group tasks
    for name, n, params in checked:
        columns = _SCANS[name][0](n, **params) if name in _SCANS else None
        task = name, n, params, columns
        if columns is None:
            # lemma63 inserts into n^n words, prop56 builds about n^2 elements
            # and the other per-point entries see about (n + 1)!.
            factors = {"lemma63": itertools.chain(itertools.repeat(n, n), [n + 1]),
                       "prop56": (n, n)}.get(name, range(2, n + 2))
            pieces.append((_work(factors), [task]))
            continue
        keys = {col[:2] for col in columns}
        joined = [b for b in batches if keys & {col[:2] for col in b[0]}]
        batches = [b for b in batches if b not in joined]
        batches.append((set(columns).union(*(b[0] for b in joined)),
                        [t for b in joined for t in b[1]] + [task]))
    return pieces + [(_batch_work(columns), joined) for columns, joined in batches]


def run(piece: list[tuple]) -> list[IdentityReport]:
    """Verify the tasks of a ``plan`` piece, tallying each pass they read once.

    ``plan`` has checked each task's cap.  Every report comes from here, one
    per task, and equals that of the task run alone, except that the
    elapsed time of a whole-group task is its own finish plus an equal
    share of each pass it reads.
    """
    tallies, seconds = _tally_passes(col for *_, cols in piece if cols for col in cols)
    reads = [dict.fromkeys(col[:2] for col in cols or ()) for *_, cols in piece]
    readers = Counter(key for keys in reads for key in keys)
    shares = [sum(seconds[k] / readers[k] for k in keys) for keys in reads]
    return [_report(name, n, params, cols, tallies, share)
            for (name, n, params, cols), share in zip(piece, shares)]


def _report(name: str, n: int, params: dict, columns: list[tuple] | None, tallies: dict,
            shared: float) -> IdentityReport:
    """Compare and sum a task's checkpoints into its report, or report the first failure.

    A whole-group task's check reads its `columns` from `tallies`; `shared`
    is its share of the seconds of the passes it reads, counted in its
    elapsed time.
    """
    scan = {} if columns is None else {"columns": columns, "tallies": tallies}
    start = time.perf_counter()
    count = 0
    # A passing checkpoint has equal sides, so one sum is both totals.
    total: dict = {}
    arity = 0
    for subparams, lhs, rhs, cnt in REGISTRY[name].check(n, **scan, **params):
        count += cnt
        if lhs != rhs:
            elapsed = time.perf_counter() - start + shared
            failed = {"n": n, **params}
            if subparams:
                failed["failed_at"] = _json_safe(subparams)
            # A failing side is reported as yielded: a key that is a
            # difference, such as garsia-gessel's maj - m1 - m2, may be
            # negative there.
            lhs, rhs = (MultiPoly._trusted(a, {e: c for e, c in t.items() if c})
                        for a, t in (lhs, rhs))
            return IdentityReport(name, failed, lhs, rhs, False, count, elapsed)
        arity = lhs[0]
        for e, c in rhs[1].items():
            total[e] = total.get(e, 0) + c
    elapsed = time.perf_counter() - start + shared
    summed = MultiPoly(arity, total)
    return IdentityReport(name, {"n": n, **params}, summed, summed, True, count, elapsed)


# -- per-point entries -------------------------------------------------------

def _check_prop56(n: int) -> Iterator[Checkpoint]:
    # Factor-by-factor products, one loop over both groups.  Each staircase
    # element is materialised as a permutation and measured through inversions
    # and left-to-right minima, never by reading its own word back.
    def minima(elem, level):
        return len(ltr_minima(elem, level, EXCLUDE_FIRST_POSITIONS))

    def runs(j):  # s_j s_(j-1) ... s_r, from the empty run (r = j + 1) down to r = 1
        return [range(j, r - 1, -1) for r in range(j + 1, 0, -1)]

    def tails(j):  # the same runs in A, and a_j ... a_2 a_1^(-1)
        return [[(k, False) for k in run] for run in runs(j)] + [
            [(k, False) for k in range(j, 1, -1)] + [(1, True)]]

    walks = [("S", n, runs, eval_s_letters, lambda p: (length_s(p), minima(p, 0))),
             ("A", n + 1, tails, eval_a_letters,
              lambda p: (length_s(p) - minima(p, 0), minima(p, 1)))]
    for group, degree, letters, evaluate, measure in walks:
        factors = [[evaluate(degree, word) for word in letters(j)] for j in range(1, n)]
        # Kept as measured: an exponent driven negative fails the check, not raises.
        lhs = _product(MultiPoly._trusted(0, Counter(map(measure, elems))) for elems in factors)
        rhs = _staircase(n, _LIFTS[group])
        yield {"group": group}, (0, lhs.terms), (0, rhs.terms), sum(map(len, factors))


# Descents of a sequence depend only on its weak-order pattern, so words over
# 1..n with an inserted strictly-larger letter exhaust all cases.  The base
# words are packed once, a chunk at a time, and ``_inserted`` lays out a chunk
# of inserted words with the new top letter at slot i from the base pack's
# bytes, for each slot in turn.  Each inserted word's values are read off its
# own neighbour comparisons by ``stats._pack_descent_sums``, one read of the
# descent lanes and one multiplication per statistic, with rmaj at the
# inserted words' own degree, as the passes' "maj" and "rmaj" columns are.
# They are never derived from the base word's descents and the slot, which is
# the lemma's proof.  A base word u's key is one bytes record (``_keys``) that
# joins two paths that never feed each other: the start of its closed forms,
# q^maj(u) [n+1]_q, q^(maj(u)+1) [n]_q, q^rmaj(u) [n+1]_q and q^rmaj(u) [n]_q,
# and its inserted words' row of values, which alone the scan sides read.  The
# starts come from ``_starts._prefix_starts``, one prefix recurrence over the
# product order of [n]^n for lemma63 and over the lexicographic order of S_n
# for lemma64, lemma65 and remark66 (``_coset``); it compares no letters of the
# packs that the rows are laid out from.  A fault in the comparisons of
# ``_pack_descent_sums`` therefore reaches the scan sides alone, one in the
# recurrence the closed forms alone, and a word that the recurrence drops or
# puts out of order fails where the two enumerations part.  ``_by_key`` checks
# each distinct key once: lemma63 has 32 for 46,656 words at n = 6.

def _by_key(base: str, bases, keys, sides, per) -> Iterator[Checkpoint]:
    """A per-point entry's checkpoints, from one tally of its base elements' keys.

    ``keys()`` holds one key per element of ``bases()``, in order (``_keys``),
    and an element of key k counts ``per(k)`` elements.  Each distinct key's
    (equation, lhs, rhs) triples, ``sides(key)``, are checked once.  If all
    pass, each yields once, scaled by the key's count; else the base is
    replayed beside its keys, strictly (a count apart raises ValueError),
    and only its first failing point is yielded, unscaled.
    """
    tally = Counter(keys())
    checked = {key: sides(key) for key in tally}
    if all(lhs == rhs for eqs in checked.values() for _, lhs, rhs in eqs):
        for key, times in tally.items():
            for j, (eq, lhs, rhs) in enumerate(checked[key]):
                lhs, rhs = ((0, {e: c * times for e, c in side.items()}) for side in (lhs, rhs))
                yield eq, lhs, rhs, 0 if j else times * per(key)
        return
    scanned = 0
    for element, key in zip(bases(), keys(), strict=True):
        scanned += per(key)
        for eq, lhs, rhs in checked[key]:
            if lhs != rhs:
                yield {base: element, **eq}, (0, lhs), (0, rhs), scanned
                return


def _keys(starts, packs, slots, read) -> Iterator[bytes]:
    """Each base word's key, one pack of base words at a time: its start, then
    `read`'s values of its words with the top letter put in at each of `slots`.

    `starts` holds a tuple of planes per pack, and `read` maps a pack of
    inserted words to a list of planes; ``words._records`` lays each pack's
    planes side by side.  Start tuples more or fewer than the packs, or a
    plane of another length, raise ValueError.
    """
    return itertools.chain.from_iterable(_records(
        [*start, *(plane for i in slots for plane in read(_inserted(pack, i)))],
        pack[2] // pack[1]) for start, pack in zip(starts, packs, strict=True))


def _check_lemma63(n: int) -> Iterator[Checkpoint]:
    y, zeros = n + 1, bytes(n + 1)

    def sides(key):
        m, r, majs, rmajs = key[0], key[1], key[2::2], key[3::2]
        return [({"eq": "maj-all"}, Counter(zip(majs, zeros)), _run(m, y)),
                ({"eq": "maj-proper"}, Counter(zip(majs[:-1], zeros)), _run(m + 1, n)),
                ({"eq": "rmaj-all"}, Counter(zip(rmajs, zeros)), _run(r, y)),
                ({"eq": "rmaj-tail"}, Counter(zip(rmajs[1:], zeros)), _run(r, n))]

    bases = partial(itertools.product, range(1, n + 1), repeat=n)
    return _by_key("word", bases, lambda: _keys(
        _prefix_starts(n, product=True), _packs(bases()), range(y),
        lambda pack: _pack_descent_sums(pack, "maj", "rmaj")), sides, lambda key: 1)


def _coset(n: int, start, slots, read, sides) -> Iterator[Checkpoint]:
    """``_by_key`` over the right coset products w tau of each w in S_n, for tau
    over the degree-n staircase set inside degree n + 1: w with n + 1 put in at
    each of `slots`.

    Each w's key is its start, the planes that ``start(maj, rmaj, minima)``
    picks from ``_starts._prefix_starts``, then `read`'s planes of its products, laid
    out from the packs of S_n that ``_element_packs`` cuts, and a failing w is
    named off ``iter_symmetric``: the three enumerations check each other.  Each
    w counts one element per slot.
    """
    return _by_key("w", partial(iter_symmetric, n), lambda: _keys(
        itertools.starmap(start, _prefix_starts(n)), _element_packs("S", n), slots, read),
        sides, lambda key: len(slots))


def _check_lemma64(n: int) -> Iterator[Checkpoint]:
    zeros = bytes(n + 1)

    def sides(key):
        m, r, majs, rmajs = key[0], key[1], key[2::2], key[3::2]
        return [({"stat": "maj"}, Counter(zip(majs, zeros)), _run(m, n + 1)),
                ({"stat": "rmaj"}, Counter(zip(rmajs, zeros)), _run(r, n + 1))]

    return _coset(n, lambda maj, rmaj, minima: (maj, rmaj), range(n + 1),
                  lambda pack: _pack_descent_sums(pack, "maj", "rmaj"), sides)


def _check_lemma65(n: int) -> Iterator[Checkpoint]:
    # The closed form is q^rmaj(w) t^del(w) ([n]_q + q^n t), with w's delent
    # read off its left-to-right minima, never off its pull.
    def sides(key):
        r, d = key[0], key[1]
        return [({}, Counter(zip(key[2::2], key[3::2])), {**_run(r, n, d), (r + n, d + 1): 1})]

    # Each product's delent comes through the pull table and the column step,
    # a pure function of its own word, beside the comparison bytes of the
    # same pack.
    def read(pack):
        return [*_pack_descent_sums(pack, "rmaj"), *_columns("S", pack, held, ["delent"])]

    held = _table("S", n + 1, ["delent"])
    return _coset(n, lambda maj, rmaj, minima: (rmaj, minima), range(n, -1, -1), read, sides)


def _check_remark66(n: int) -> Iterator[Checkpoint]:
    # The products with n+1 at slots n, ..., 1: all but the one that puts it first.
    zeros = bytes(n)

    def sides(key):
        return [({}, Counter(zip(key[1:], zeros)), _run(key[0], n))]

    return _coset(n, lambda maj, rmaj, minima: (rmaj,), range(n, 0, -1),
                  lambda pack: _pack_descent_sums(pack, "rmaj"), sides)


def _iter_low_support(n: int, i: int):
    """S_i inside degree n, fixing the values above i."""
    top = tuple(range(i + 1, n + 1))
    return (small + top for small in iter_symmetric(i))


def _check_prop81(n: int) -> Iterator[Checkpoint]:
    for i in range(1, n):
        binom = 0, q_binomial(n, i).terms
        cnt = shuf.shuffle_count(n, {i})
        for pi in _iter_low_support(n, i):
            for stat in ("rmaj", "length"):
                lhs = shuf._shuffle_hist(pi, i, stat, shuf.FIRST_ANY)
                yield {"i": i, "pi": pi, "stat": stat}, (0, lhs), binom, cnt


def _check_first_letter(stat: str, n: int) -> Iterator[Checkpoint]:
    for i in range(1, n):
        top = 0, (MultiPoly.monomial(1, q=i) * q_binomial(n - 1, i)).terms
        kept = 0, q_binomial(n - 1, i - 1).terms
        cnt = shuf.shuffle_count(n, {i})
        for pi in _iter_low_support(n, i):
            lhs = shuf._shuffle_hist(pi, i, stat, shuf.FIRST_NEW_BLOCK)
            yield {"i": i, "pi": pi, "first": "new-block"}, (0, lhs), top, cnt
            lhs = shuf._shuffle_hist(pi, i, stat, shuf.FIRST_UNCHANGED)
            yield {"i": i, "pi": pi, "first": "unchanged"}, (0, lhs), kept, 0


def _check_lemma93(n: int) -> Iterator[Checkpoint]:
    # pi's length and rmaj come off its pull record and descent set, apart from the scan.
    arity = n - 1
    for i in range(1, n):
        bracket = q_binomial(n - 1, i - 1).lift(arity) + (
            MultiPoly.monomial(1, q=i, ts=_unit_marker(i, n), arity=arity)
            * q_binomial(n - 1, i).lift(arity)
        )
        rs = shuf.enumerate_b_shuffles(n, {i})
        for pi in _iter_low_support(n, i):
            eps_pi = epsilon_s(pi)
            prods = [tuple(pi[x - 1] for x in r) for r in rs]
            epss = [epsilon_s(prod) for prod in prods]
            lhs = Counter((length_s(prod), 0) + eps for prod, eps in zip(prods, epss))
            rhs = MultiPoly.monomial(1, q=s_pull(pi)[0], ts=eps_pi, arity=arity) * bracket
            yield {"i": i, "pi": pi, "stat": "length"}, (arity, lhs), (arity, rhs.terms), len(rs)
            lhs = Counter((rmaj_s(prod, n), 0) + eps for prod, eps in zip(prods, epss))
            rhs = MultiPoly.monomial(1, q=_maj_rmaj(pi, i)[1], ts=eps_pi, arity=arity) * bracket
            yield {"i": i, "pi": pi, "stat": "rmaj"}, (arity, lhs), (arity, rhs.terms), 0


def _check_garsia_gessel(n: int) -> Iterator[Checkpoint]:
    for k in range(1, n):
        binom = 0, q_binomial(n, k).terms
        nu_k = nu(k, n)
        nu_k_inv = inverse(nu_k)
        rs = shuf.enumerate_b_shuffles(n, {k})
        for p1 in _iter_low_support(n, k):
            m1 = maj_s(p1)
            for small in iter_symmetric(n - k):
                p2 = _embed_high(small, k, n)
                m2 = maj_s(compose(compose(nu_k_inv, p2), nu_k))
                base = compose(p1, p2)
                lhs = Counter((maj_s(tuple(base[x - 1] for x in r)) - m1 - m2, 0) for r in rs)
                yield {"k": k, "pi1": p1, "pi2": p2}, (0, lhs), binom, len(rs)


def list_identities() -> list[IdentityEntry]:
    return [REGISTRY[name] for name in sorted(REGISTRY)]


def verify(name: str, n: int | None = None, force: bool = False, **extra) -> IdentityReport:
    """Run one registry entry and aggregate its checkpoints into a report.

    With no explicit n the entry runs at its default cap.  Larger n's are
    refused unless force is set; they stay exact but may be very slow.  This
    is a one-task ``plan``, verified by ``run``.
    """
    (_, piece), = plan([(name, n)], force, **extra)
    return run(piece)[0]


def _json_safe(d: dict) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in d.items()}
