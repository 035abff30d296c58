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
``{exponents: count}`` dict.  ``verify`` compares and sums these pairs
directly and builds a ``MultiPoly`` only for its report.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator

from .catalog import REGISTRY, CapExceeded, IdentityEntry  # noqa: F401
from .cover import iter_fiber
from .perm import (
    Perm,
    compose,
    cycle_count,
    identity,
    inverse,
    iter_alternating,
    iter_symmetric,
    nu,
)
from .qpoly import MultiPoly, geometric, q_binomial, q_factorial
from .stats import (
    EXCLUDE_FIRST_POSITIONS,
    _maj_rmaj,
    _tally_rows,
    del_s,
    des_set_s,
    h_map,
    histograms,
    length_s,
    ltr_minima,
    maj_s,
    rmaj_s,
)
from .words import a_pull, epsilon_s, eval_a_letters, indicators, occurrences
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

def _tally(keys) -> dict:
    """Histogram of a scan: {key: number of times it occurs}."""
    acc: dict = {}
    for key in keys:
        acc[key] = acc.get(key, 0) + 1
    return acc


def _run(start: int, length: int, t: int = 0) -> dict:
    """q^start t^t (1 + q + ... + q^(length-1)): one key per power of q."""
    return {(e, t): 1 for e in range(start, start + length)}


class _Runs(dict):
    """(start, length) -> the side of ``_run(start, length)``, built on first use."""

    def __missing__(self, key):
        side = self[key] = 0, _run(*key)
        return side


def _const(c: int) -> Side:
    """The constant c as a side; zero is the empty histogram."""
    return 0, ({(0, 0): c} if c else {})


def _embed_low(p: Perm, n: int) -> Perm:
    """View a permutation of smaller degree inside degree n, fixing the top."""
    return p + tuple(range(len(p) + 1, n + 1))


def _embed_high(p: Perm, k: int, n: int) -> Perm:
    """Place a permutation of degree n-k on the values k+1..n."""
    return tuple(range(1, k + 1)) + tuple(x + k for x in p)


def _mask(positions) -> int:
    m = 0
    for i in positions:
        m |= 1 << i
    return m


# Each factor reaching the first generator has this many lifts: s_1 lifts
# only to itself, a_1 and a_1^{-1} both project onto s_1.
_LIFTS = {"S": 1, "A": 2}


def _staircase(n: int, lifts: int) -> MultiPoly:
    """Product over j < n of (1 + q + ... + q^(j-1) + lifts q^j t)."""
    out = MultiPoly.const(1)
    for j in range(1, n):
        out = out * (geometric(j) + MultiPoly.monomial(lifts, q=j, t=1))
    return out


def _unit_marker(j: int, n: int) -> tuple[int, ...]:
    """Exponent vector selecting the single indexed variable t_j."""
    return tuple(1 if i == j else 0 for i in range(1, n))


# -- entry implementations ----------------------------------------------------

def _check_macmahon(n: int) -> Iterator[Checkpoint]:
    (inv_acc, maj_acc), count = _tally_rows(
        ((length_s(p), 0), (maj_s(p), 0)) for p in iter_symmetric(n)
    )
    rhs = 0, q_factorial(n).terms
    yield {"side": "length"}, (0, inv_acc), rhs, count
    yield {"side": "maj"}, (0, maj_acc), rhs, 0


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


def _check_fs_fixed_descent(n: int) -> Iterator[Checkpoint]:
    def row(p):
        m = _mask(des_set_s(inverse(p)))
        return (m, length_s(p)), (m, maj_s(p))

    tallies, count = _tally_rows(map(row, iter_symmetric(n)))
    fibres = _fibres(tallies)
    for i, m in enumerate(sorted(fibres)):
        ell, maj = fibres[m]
        yield {"descent-class": m}, (0, ell), (0, maj), count if i == 0 else 0


def _check_fs_rmaj(n: int) -> Iterator[Checkpoint]:
    def row(p):
        m = _mask(des_set_s(inverse(p)))
        maj, rmaj = _maj_rmaj(p, n)
        return (m, maj), (m, rmaj), (m, length_s(p))

    tallies, count = _tally_rows(map(row, iter_symmetric(n)))
    sums = _subset_sums(_fibres(tallies), list(range(1, n)))
    for d1_bits, (maj, rmaj, ell) in enumerate(sums):
        yield {"D1": d1_bits, "side": "maj"}, (0, maj), (0, ell), count if d1_bits == 0 else 0
        yield {"D1": d1_bits, "side": "rmaj"}, (0, rmaj), (0, ell), 0


def _length_rmaj_del(group: str, n: int):
    """(length, delent) and (reverse maj, delent) histograms, and the group order.

    Symmetric lengths are inversion counts and symmetric descents are read off
    the one-line word; alternating ones come from the word and its projection.
    """
    if group == "S":
        row = lambda p, rec: ((length_s(p), rec[1]), (rmaj_s(p, n), rec[1]))
    else:
        row = lambda v, rec: ((rec[0], rec[1]), (rmaj_s(rec[3], n), rec[1]))
    return histograms(group, n, row)


def _check_thm61(group: str, n: int) -> Iterator[Checkpoint]:
    (ell_acc, rmaj_acc), count = _length_rmaj_del(group, n)
    rhs = 0, _staircase(n, _LIFTS[group]).terms
    yield {"side": "length"}, (0, ell_acc), rhs, count
    yield {"side": "rmaj"}, (0, rmaj_acc), rhs, 0


def _check_thm62(group: str, n: int) -> Iterator[Checkpoint]:
    (ell_acc, rmaj_acc), count = _length_rmaj_del(group, n)
    for k in range(n):
        lhs = 0, {(e, 0): c for (e, d), c in ell_acc.items() if d == k}
        rhs = 0, {(e, 0): c for (e, d), c in rmaj_acc.items() if d == k}
        yield {"delent": k}, lhs, rhs, count if k == 0 else 0


def _check_prop56(n: int) -> Iterator[Checkpoint]:
    # Factor-by-factor products.  Each staircase element is materialised as a
    # permutation and measured through inversions and left-to-right minima,
    # never by reading its own word back.
    count = 0
    lhs_s = MultiPoly.const(1)
    for j in range(1, n):
        factor_sum = MultiPoly.zero()
        for r in range(j + 1, 0, -1):
            work = list(identity(n))
            for k in range(j, r - 1, -1):
                work[k - 1], work[k] = work[k], work[k - 1]
            elem = tuple(work)
            count += 1
            ell = length_s(elem)
            dl = len(ltr_minima(elem, 0, EXCLUDE_FIRST_POSITIONS))
            factor_sum = factor_sum + MultiPoly.monomial(1, q=ell, t=dl)
        lhs_s = lhs_s * factor_sum
    yield {"group": "S"}, (0, lhs_s.terms), (0, _staircase(n, 1).terms), count

    count = 0
    lhs_a = MultiPoly.const(1)
    for j in range(1, n):
        tails: list[list[tuple[int, bool]]] = [[]]
        for e in range(j, 0, -1):
            tails.append([(k, False) for k in range(j, e - 1, -1)])
        tails.append([(k, False) for k in range(j, 1, -1)] + [(1, True)])
        factor_sum = MultiPoly.zero()
        for letters in tails:
            elem = eval_a_letters(n + 1, letters)
            count += 1
            ell_a = length_s(elem) - len(ltr_minima(elem, 0, EXCLUDE_FIRST_POSITIONS))
            dl_a = len(ltr_minima(elem, 1, EXCLUDE_FIRST_POSITIONS))
            factor_sum = factor_sum + MultiPoly.monomial(1, q=ell_a, t=dl_a)
        lhs_a = lhs_a * factor_sum
    yield {"group": "A"}, (0, lhs_a.terms), (0, _staircase(n, 2).terms), count


def _cycle_class_counts(n: int) -> list[int]:
    """counts[d] = permutations of degree n with exactly d+1 cycles."""
    counts = [0] * n
    for p in iter_symmetric(n):
        counts[cycle_count(p) - 1] += 1
    return counts


def _check_prop57(group: str, n: int) -> Iterator[Checkpoint]:
    (hist,), count = histograms(group, n, lambda p, rec: ((0, rec[1]),))
    lifts = _LIFTS[group]
    rhs = MultiPoly.const(1)
    for c in range(1, n):
        rhs = rhs * (MultiPoly.monomial(lifts, t=1) + MultiPoly.const(c))
    yield {"form": "generating"}, (0, hist), (0, rhs.terms), count
    cycles = _cycle_class_counts(n)
    scan = math.factorial(n)
    for d in range(n):
        yield (
            {"delent": d},
            _const(hist.get((0, d), 0)),
            _const(lifts ** d * cycles[d]),
            scan if d == 0 else 0,
        )


def _check_prop510(group: str, n: int) -> Iterator[Checkpoint]:
    arity = n - 1
    if group == "S":
        row = lambda p, rec: ((length_s(p), 0) + indicators(rec[2]),)
    else:
        row = lambda v, rec: ((rec[0], 0) + indicators(rec[2]),)
    (acc,), count = histograms(group, n, row)
    rhs = MultiPoly.const(1, arity)
    for j in range(1, n):
        rhs = rhs * (
            geometric(j, arity)
            + MultiPoly.monomial(_LIFTS[group], q=j, ts=_unit_marker(j, n), arity=arity)
        )
    yield None, (arity, acc), (arity, rhs.terms), count


def _check_prop511(n: int) -> Iterator[Checkpoint]:
    arity = n - 1
    for group, lifts in _LIFTS.items():
        (acc,), count = histograms(group, n, lambda p, rec: ((0, 0) + indicators(rec[2]),))
        rhs = MultiPoly.const(1, arity)
        for j in range(1, n):
            rhs = rhs * (
                MultiPoly.monomial(lifts, ts=_unit_marker(j, n), arity=arity)
                + MultiPoly.const(j, arity)
            )
        yield {"group": group}, (arity, acc), (arity, rhs.terms), count


def _check_prop712(n: int, k: int | None = None) -> Iterator[Checkpoint]:
    ks = [k] if k is not None else list(range(1, min(4, n - 1) + 1))
    for kk in ks:
        if not 1 <= kk <= n - 1:
            raise ValueError(f"generator index {kk} outside 1..{n - 1}")
    # One scan for every k; each k's report counts the whole group, as if
    # it had scanned alone.
    hists, count = histograms(
        "S", n, lambda p, rec: tuple((0, occurrences(rec[2], kk)) for kk in ks)
    )
    for kk, hist in zip(ks, hists):
        rhs = MultiPoly.const(math.factorial(kk))
        for c in range(1, n - kk + 1):
            rhs = rhs * (MultiPoly.monomial(kk, t=1) + MultiPoly.const(c))
        yield {"k": kk, "form": "generating"}, (0, hist), (0, rhs.terms), count
        # counts[d] = c(n-k+1, d+1) by an independent cycle scan
        cycles = _cycle_class_counts(n - kk + 1)
        scan = math.factorial(n - kk + 1)
        for d in range(n - kk + 1):
            expect = math.factorial(kk) * kk ** d * cycles[d]
            yield (
                {"k": kk, "occurrences": d},
                _const(hist.get((0, d), 0)),
                _const(expect),
                scan if d == 0 else 0,
            )


# Descents of a sequence depend only on its weak-order pattern, so words over
# 1..n with an inserted strictly-larger letter exhaust all cases.  Each inserted
# word, and the base word u, reads maj and rmaj off its own descent set.  The
# closed forms q^maj(u) [n+1]_q, q^(maj(u)+1) [n]_q, q^rmaj(u) [n+1]_q and
# q^rmaj(u) [n]_q start at u's own statistics, and each run is built once per
# (start, length) within one call; lemma64 works the same way.
def _check_lemma63(n: int) -> Iterator[Checkpoint]:
    y = n + 1
    runs = _Runs()
    for u in itertools.product(range(1, n + 1), repeat=n):
        sums = [_maj_rmaj(u[:i] + (y,) + u[i:], y) for i in range(n + 1)]
        majs = [(maj, 0) for maj, _ in sums]
        rmajs = [(rmaj, 0) for _, rmaj in sums]
        m, r = _maj_rmaj(u, n)
        yield {"word": u, "eq": "maj-all"}, (0, _tally(majs)), runs[m, n + 1], 1
        yield {"word": u, "eq": "maj-proper"}, (0, _tally(majs[:-1])), runs[m + 1, n], 0
        yield {"word": u, "eq": "rmaj-all"}, (0, _tally(rmajs)), runs[r, n + 1], 0
        yield {"word": u, "eq": "rmaj-tail"}, (0, _tally(rmajs[1:])), runs[r, n], 0


def _iter_right_coset_products(w: Perm, n: int):
    """w tau for tau over the degree-n staircase set inside degree n+1."""
    cur = w + (n + 1,)
    yield cur
    for r in range(n, 0, -1):
        lst = list(cur)
        lst[r - 1], lst[r] = lst[r], lst[r - 1]
        cur = tuple(lst)
        yield cur


def _check_lemma64(n: int) -> Iterator[Checkpoint]:
    runs = _Runs()
    for w in iter_symmetric(n):
        sums = [_maj_rmaj(p, n + 1) for p in _iter_right_coset_products(w, n)]
        m, r = _maj_rmaj(w, n)
        lhs_maj = _tally((maj, 0) for maj, _ in sums)
        yield {"w": w, "stat": "maj"}, (0, lhs_maj), runs[m, n + 1], len(sums)
        lhs_rmaj = _tally((rmaj, 0) for _, rmaj in sums)
        yield {"w": w, "stat": "rmaj"}, (0, lhs_rmaj), runs[r, n + 1], 0


def _check_lemma65(n: int) -> Iterator[Checkpoint]:
    # The closed form is q^rmaj(w) t^del(w) ([n]_q + q^n t).
    for w in iter_symmetric(n):
        products = list(_iter_right_coset_products(w, n))
        lhs = _tally((rmaj_s(p, n + 1), del_s(p)) for p in products)
        r, d = rmaj_s(w, n), del_s(w)
        rhs = _run(r, n, d)
        rhs[(r + n, d + 1)] = 1
        yield {"w": w}, (0, lhs), (0, rhs), len(products)


def _check_remark66(n: int) -> Iterator[Checkpoint]:
    for w in iter_symmetric(n):
        products = list(_iter_right_coset_products(w, n))[:-1]
        lhs = _tally((rmaj_s(p, n + 1), 0) for p in products)
        yield {"w": w}, (0, lhs), (0, _run(rmaj_s(w, n), n)), len(products)


def _check_prop67(n: int) -> Iterator[Checkpoint]:
    (acc,), count = histograms("S", n, lambda p, rec: ((rmaj_s(p, n), rec[1]),))
    yield None, (0, acc), (0, _staircase(n, 1).terms), count


def _iter_low_support(n: int, i: int):
    for small in iter_symmetric(i):
        yield _embed_low(small, n)


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
            lhs = _tally((length_s(prod), 0) + eps for prod, eps in zip(prods, epss))
            rhs = MultiPoly.monomial(1, q=length_s(pi), ts=eps_pi, arity=arity) * bracket
            yield {"i": i, "pi": pi, "stat": "length"}, (arity, lhs), (arity, rhs.terms), len(rs)
            lhs = _tally((rmaj_s(prod, n), 0) + eps for prod, eps in zip(prods, epss))
            rhs = MultiPoly.monomial(1, q=rmaj_s(pi, i), ts=eps_pi, arity=arity) * bracket
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
                lhs = _tally((maj_s(tuple(base[x - 1] for x in r)) - m1 - m2, 0) for r in rs)
                yield {"k": k, "pi1": p1, "pi2": p2}, (0, lhs), binom, len(rs)


def _check_main(group: str, n: int) -> Iterator[Checkpoint]:
    # One mask per element: the inverse's descents in the low n bits, its
    # minima (level 0 in S, level 1 in A) shifted above them.
    if group == "S":
        def row(p):
            pinv = inverse(p)
            m = (_mask(des_set_s(pinv))
                 | _mask(ltr_minima(pinv, 0, EXCLUDE_FIRST_POSITIONS)) << n)
            return (m, rmaj_s(p, n)), (m, length_s(p))
        tallies, count = _tally_rows(map(row, iter_symmetric(n)))
        d2_count = n - 1
    else:
        def row(v, rec):
            vinv = inverse(v)
            m = (_mask(des_set_s(a_pull(vinv)[3]))
                 | _mask(ltr_minima(vinv, 1, EXCLUDE_FIRST_POSITIONS)) << n)
            return (m, rmaj_s(rec[3], n)), (m, rec[0])
        tallies, count = histograms(group, n, row)
        d2_count = n
    # D1 restricts mask bits 1..n-1 and D2 the minima bits from n + 2 up.
    bits = list(range(1, n)) + list(range(n + 2, n + 2 + d2_count))
    sums = _subset_sums(_fibres(tallies), bits)
    for d1_bits in range(1 << (n - 1)):
        for d2_bits in range(1 << d2_count):
            lhs, rhs = sums[d1_bits | d2_bits << (n - 1)]
            first = d1_bits == d2_bits == 0
            yield {"D1": d1_bits, "D2": d2_bits}, (0, lhs), (0, rhs), count if first else 0


# Corollary 9.2 scans over q = p^{-1}, which runs over the whole group as p
# does: the inverse's statistics come from q's own record.

def _check_cor92_s(n: int) -> Iterator[Checkpoint]:
    def row(q, rec):
        p = inverse(q)
        d, dl = len(des_set_s(q)), rec[1]
        return (rmaj_s(p, n), d, dl), (length_s(p), d, dl)

    (lhs_acc, rhs_acc), count = histograms("S", n, row)
    yield None, (1, lhs_acc), (1, rhs_acc), count


def _check_cor92_a(n: int) -> Iterator[Checkpoint]:
    def row(w, rec):
        ell, _, _, proj, _ = a_pull(inverse(w))
        d, dl = len(des_set_s(rec[3])), rec[1]
        return (rmaj_s(proj, n), d, dl), (ell, d, dl)

    (lhs_acc, rhs_acc), count = histograms("A", n, row)
    yield None, (1, lhs_acc), (1, rhs_acc), count


def _check_fiber_size(n: int) -> Iterator[Checkpoint]:
    seen: set[Perm] = set()
    total = 0
    for w in iter_symmetric(n):
        size = 0
        for v in iter_fiber(w):
            size += 1
            seen.add(v)
        total += size
        delent = len(ltr_minima(w, 0, EXCLUDE_FIRST_POSITIONS))
        yield {"w": w}, _const(size), _const(2 ** delent), size
    order = math.factorial(n + 1) // 2
    yield {"check": "partition-total"}, _const(total), _const(order), 0
    yield {"check": "partition-distinct"}, _const(len(seen)), _const(order), 0


def _check_appendix_hat(n: int, i: int | None = None) -> Iterator[Checkpoint]:
    closed = MultiPoly.const(1)
    for m in range(3, n + 1):
        closed = closed * geometric(m)
    js = [i] if i is not None else list(range(1, n))
    for j in js:
        if not 1 <= j <= n - 1:
            raise ValueError(f"position {j} outside 1..{n - 1}")
    # One pass over the group, folding each element once per position.
    accs = {j: ({}, {}) for j in js}
    count = 0
    for v in iter_alternating(n):
        count += 1
        for j, (ell_acc, maj_acc) in accs.items():
            w = h_map(v, j)
            for acc, key in ((ell_acc, (length_s(w), 0)), (maj_acc, (maj_s(w), 0))):
                acc[key] = acc.get(key, 0) + 1
    for j, (ell_acc, maj_acc) in accs.items():
        yield {"i": j, "side": "length"}, (0, ell_acc), (0, closed.terms), count
        yield {"i": j, "side": "maj"}, (0, maj_acc), (0, closed.terms), 0


def list_identities() -> list[IdentityEntry]:
    return [REGISTRY[name] for name in sorted(REGISTRY)]


def verify(name: str, n: int | None = None, force: bool = False, **extra) -> IdentityReport:
    """Run one registry entry and aggregate its checkpoints into a report.

    With no explicit n the entry runs at its default cap.  Larger n's are
    refused unless force is set; they stay exact but may be very slow.
    """
    if name not in REGISTRY:
        raise ValueError(f"unknown identity {name!r}; see list_identities()")
    entry = REGISTRY[name]
    extra = {k: v for k, v in extra.items() if v is not None}
    for key in extra:
        if key not in entry.params:
            raise ValueError(f"{name} does not take parameter {key!r}")
    if n is None:
        n = entry.default_cap
    if n < entry.min_n:
        raise ValueError(f"{name} needs n >= {entry.min_n}")
    if n > entry.default_cap and not force:
        raise CapExceeded(
            f"{name} is capped at n = {entry.default_cap} (requested {n}); use force to override"
        )
    start = time.perf_counter()
    scanned = 0
    # A passing checkpoint has equal sides, so one running sum is both totals.
    total: dict = {}
    arity = 0
    for subparams, lhs, rhs, cnt in entry.check(n, **extra):
        scanned += cnt
        if lhs != rhs:
            elapsed = time.perf_counter() - start
            params = {"n": n, **extra}
            if subparams:
                params["failed_at"] = _json_safe(subparams)
            # A failing side is reported as yielded: a key that is a
            # difference, such as garsia-gessel's maj - m1 - m2, may be
            # negative there.
            lhs, rhs = (MultiPoly._trusted(a, {e: c for e, c in t.items() if c})
                        for a, t in (lhs, rhs))
            return IdentityReport(name, params, lhs, rhs, False, scanned, elapsed)
        arity = max(arity, lhs[0])
        for e, c in lhs[1].items():
            total[e] = total.get(e, 0) + c
    elapsed = time.perf_counter() - start
    summed = _padded_sum(total, arity)
    return IdentityReport(name, {"n": n, **extra}, summed, summed, True, scanned, elapsed)


def _padded_sum(acc: dict, arity: int) -> MultiPoly:
    """Zero-pad summed terms of mixed arity to `arity`; cancelled terms drop out."""
    width = 2 + arity
    out: dict = {}
    for e, c in acc.items():
        key = e + (0,) * (width - len(e))
        out[key] = out.get(key, 0) + c
    return MultiPoly(arity, out)


def _json_safe(d: dict) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in d.items()}
