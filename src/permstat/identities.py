"""Registry of equi-distribution identities with an exhaustive verifier.

Every entry states an exact polynomial (or count) identity over a symmetric
or alternating group and verifies it by brute enumeration: the left side is
always a statistic scan, the right side a closed form or an independent
second scan, and the two sides never share a code path.  Verification is
exact integer arithmetic; there are no tolerances.

An entry may quantify over internal parameters (cut sets, generator indices,
base permutations); each parameter point is checked separately.  A passing
report carries the two aggregate polynomials (equal sums over all points); a
failing report carries the first failing point and its two differing sides.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

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
    del_s,
    des_set_s,
    h_map,
    histograms,
    length_s,
    ltr_minima,
    maj_s,
    rmaj_s,
    seq_maj,
    seq_rmaj,
)
from .words import a_pull, epsilon_s, eval_a_letters, indicators, occurrences
from . import shuffles as shuf

# A checkpoint is one verified equation: (point parameters or None,
# left side, right side, number of objects enumerated for this point).
Checkpoint = tuple[dict | None, MultiPoly, MultiPoly, int]


class CapExceeded(ValueError):
    """Requested parameter is beyond the entry's enumeration cap."""


@dataclass(frozen=True)
class IdentityEntry:
    name: str
    description: str
    params: dict[str, str]
    min_n: int
    default_cap: int
    check: Callable[..., Iterator[Checkpoint]]


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


# -- scan helpers -------------------------------------------------------------

def _poly(acc: dict, arity: int = 0) -> MultiPoly:
    """Wrap a scan histogram: keys of width 2 + arity, positive counts."""
    return MultiPoly._trusted(arity, acc)


def _bump(acc: dict, key: tuple) -> None:
    acc[key] = acc.get(key, 0) + 1


def _hist(values) -> dict:
    acc: dict = {}
    for v in values:
        key = (v, 0)
        acc[key] = acc.get(key, 0) + 1
    return acc


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
    inv_acc: dict = {}
    maj_acc: dict = {}
    count = 0
    for p in iter_symmetric(n):
        count += 1
        _bump(inv_acc, (length_s(p), 0))
        _bump(maj_acc, (maj_s(p), 0))
    rhs = q_factorial(n)
    yield {"side": "length"}, _poly(inv_acc), rhs, count
    yield {"side": "maj"}, _poly(maj_acc), rhs, 0


def _fibres(tallies) -> dict[int, list[dict]]:
    """Regroup (mask, stat) tallies into {mask: [histogram per tally]}."""
    fibres: dict[int, list[dict]] = {}
    for i, tally in enumerate(tallies):
        for (m, e), c in tally.items():
            fibres.setdefault(m, [{} for _ in tallies])[i][(e, 0)] = c
    return fibres


def _restricted(fibres: dict[int, list[dict]], allowed: int) -> list[MultiPoly]:
    """Per tally, the sum of the fibres whose mask lies inside `allowed`."""
    inside = [hists for m, hists in fibres.items() if not m & ~allowed]
    sums = []
    for t in range(len(next(iter(fibres.values())))):
        acc: dict = {}
        for hists in inside:
            for k, c in hists[t].items():
                acc[k] = acc.get(k, 0) + c
        sums.append(_poly(acc))
    return sums


def _check_fs_fixed_descent(n: int) -> Iterator[Checkpoint]:
    def row(p, rec):
        m = _mask(des_set_s(inverse(p)))
        return (m, length_s(p)), (m, maj_s(p))

    tallies, count = histograms("S", n, row)
    fibres = _fibres(tallies)
    for i, m in enumerate(sorted(fibres)):
        ell, maj = fibres[m]
        yield {"descent-class": m}, _poly(ell), _poly(maj), count if i == 0 else 0


def _check_fs_rmaj(n: int) -> Iterator[Checkpoint]:
    def row(p, rec):
        m = _mask(des_set_s(inverse(p)))
        return (m, maj_s(p)), (m, rmaj_s(p, n)), (m, length_s(p))

    tallies, count = histograms("S", n, row)
    fibres = _fibres(tallies)
    for d1_bits in range(1 << max(0, n - 1)):
        maj, rmaj, ell = _restricted(fibres, d1_bits << 1)
        yield {"D1": d1_bits, "side": "maj"}, maj, ell, count if d1_bits == 0 else 0
        yield {"D1": d1_bits, "side": "rmaj"}, rmaj, ell, 0


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
    rhs = _staircase(n, _LIFTS[group])
    yield {"side": "length"}, _poly(ell_acc), rhs, count
    yield {"side": "rmaj"}, _poly(rmaj_acc), rhs, 0


def _check_thm62(group: str, n: int) -> Iterator[Checkpoint]:
    (ell_acc, rmaj_acc), count = _length_rmaj_del(group, n)
    for k in range(n):
        lhs = _poly({(e, 0): c for (e, d), c in ell_acc.items() if d == k})
        rhs = _poly({(e, 0): c for (e, d), c in rmaj_acc.items() if d == k})
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
    yield {"group": "S"}, lhs_s, _staircase(n, 1), count

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
    yield {"group": "A"}, lhs_a, _staircase(n, 2), count


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
    yield {"form": "generating"}, _poly(hist), rhs, count
    cycles = _cycle_class_counts(n)
    scan = math.factorial(n)
    for d in range(n):
        yield (
            {"delent": d},
            MultiPoly.const(hist.get((0, d), 0)),
            MultiPoly.const(lifts ** d * cycles[d]),
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
    yield None, _poly(acc, arity), rhs, count


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
        yield {"group": group}, _poly(acc, arity), rhs, count


def _check_prop712(n: int, k: int | None = None) -> Iterator[Checkpoint]:
    ks = [k] if k is not None else list(range(1, min(4, n - 1) + 1))
    for kk in ks:
        if not 1 <= kk <= n - 1:
            raise ValueError(f"generator index {kk} outside 1..{n - 1}")
        (hist,), count = histograms("S", n, lambda p, rec: ((0, occurrences(rec[2], kk)),))
        rhs = MultiPoly.const(math.factorial(kk))
        for c in range(1, n - kk + 1):
            rhs = rhs * (MultiPoly.monomial(kk, t=1) + MultiPoly.const(c))
        yield {"k": kk, "form": "generating"}, _poly(hist), rhs, count
        # counts[d] = c(n-k+1, d+1) by an independent cycle scan
        cycles = _cycle_class_counts(n - kk + 1)
        scan = math.factorial(n - kk + 1)
        for d in range(n - kk + 1):
            expect = math.factorial(kk) * kk ** d * cycles[d]
            yield (
                {"k": kk, "occurrences": d},
                MultiPoly.const(hist.get((0, d), 0)),
                MultiPoly.const(expect),
                scan if d == 0 else 0,
            )


def _check_lemma63(n: int) -> Iterator[Checkpoint]:
    # Descents of a sequence depend only on its weak-order pattern, so words
    # over 1..n with an inserted strictly-larger letter exhaust all cases.
    y = n + 1
    spread_all = geometric(n + 1)
    spread_proper = spread_all - 1
    spread_tail = geometric(n)
    for u in itertools.product(range(1, n + 1), repeat=n):
        inserts = [u[:i] + (y,) + u[i:] for i in range(n + 1)]
        majs = [seq_maj(v) for v in inserts]
        rmajs = [seq_rmaj(v) for v in inserts]
        base_maj = MultiPoly.monomial(1, q=seq_maj(u))
        base_rmaj = MultiPoly.monomial(1, q=seq_rmaj(u))
        yield {"word": u, "eq": "maj-all"}, _poly(_hist(majs)), base_maj * spread_all, 1
        yield {"word": u, "eq": "maj-proper"}, _poly(_hist(majs[:-1])), base_maj * spread_proper, 0
        yield {"word": u, "eq": "rmaj-all"}, _poly(_hist(rmajs)), base_rmaj * spread_all, 0
        yield {"word": u, "eq": "rmaj-tail"}, _poly(_hist(rmajs[1:])), base_rmaj * spread_tail, 0


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
    spread = geometric(n + 1)
    for w in iter_symmetric(n):
        products = list(_iter_right_coset_products(w, n))
        lhs_maj = _poly(_hist(maj_s(p) for p in products))
        rhs_maj = MultiPoly.monomial(1, q=maj_s(w)) * spread
        yield {"w": w, "stat": "maj"}, lhs_maj, rhs_maj, len(products)
        lhs_rmaj = _poly(_hist(rmaj_s(p, n + 1) for p in products))
        rhs_rmaj = MultiPoly.monomial(1, q=rmaj_s(w, n)) * spread
        yield {"w": w, "stat": "rmaj"}, lhs_rmaj, rhs_rmaj, 0


def _check_lemma65(n: int) -> Iterator[Checkpoint]:
    spread = geometric(n) + MultiPoly.monomial(1, q=n, t=1)
    for w in iter_symmetric(n):
        acc: dict = {}
        cnt = 0
        for p in _iter_right_coset_products(w, n):
            cnt += 1
            _bump(acc, (rmaj_s(p, n + 1), del_s(p)))
        rhs = MultiPoly.monomial(1, q=rmaj_s(w, n), t=del_s(w)) * spread
        yield {"w": w}, _poly(acc), rhs, cnt


def _check_remark66(n: int) -> Iterator[Checkpoint]:
    spread = geometric(n)
    for w in iter_symmetric(n):
        products = list(_iter_right_coset_products(w, n))[:-1]
        lhs = _poly(_hist(rmaj_s(p, n + 1) for p in products))
        rhs = MultiPoly.monomial(1, q=rmaj_s(w, n)) * spread
        yield {"w": w}, lhs, rhs, len(products)


def _check_prop67(n: int) -> Iterator[Checkpoint]:
    (acc,), count = histograms("S", n, lambda p, rec: ((rmaj_s(p, n), rec[1]),))
    yield None, _poly(acc), _staircase(n, 1), count


def _iter_low_support(n: int, i: int):
    for small in iter_symmetric(i):
        yield _embed_low(small, n)


def _check_prop81(n: int) -> Iterator[Checkpoint]:
    for i in range(1, n):
        binom = q_binomial(n, i)
        cnt = shuf.shuffle_count(n, {i})
        for pi in _iter_low_support(n, i):
            yield (
                {"i": i, "pi": pi, "stat": "rmaj"},
                shuf.shuffle_sum(pi, i, "rmaj", shuf.FIRST_ANY),
                binom,
                cnt,
            )
            yield (
                {"i": i, "pi": pi, "stat": "length"},
                shuf.shuffle_sum(pi, i, "length", shuf.FIRST_ANY),
                binom,
                cnt,
            )


def _check_first_letter(stat: str, n: int) -> Iterator[Checkpoint]:
    for i in range(1, n):
        top = MultiPoly.monomial(1, q=i) * q_binomial(n - 1, i)
        kept = q_binomial(n - 1, i - 1)
        cnt = shuf.shuffle_count(n, {i})
        for pi in _iter_low_support(n, i):
            yield (
                {"i": i, "pi": pi, "first": "new-block"},
                shuf.shuffle_sum(pi, i, stat, shuf.FIRST_NEW_BLOCK),
                top,
                cnt,
            )
            yield (
                {"i": i, "pi": pi, "first": "unchanged"},
                shuf.shuffle_sum(pi, i, stat, shuf.FIRST_UNCHANGED),
                kept,
                0,
            )


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
            acc_ell: dict = {}
            acc_rmaj: dict = {}
            for r in rs:
                prod = tuple(pi[x - 1] for x in r)
                eps = epsilon_s(prod)
                _bump(acc_ell, (length_s(prod), 0) + eps)
                _bump(acc_rmaj, (rmaj_s(prod, n), 0) + eps)
            rhs_ell = MultiPoly.monomial(1, q=length_s(pi), ts=eps_pi, arity=arity) * bracket
            yield {"i": i, "pi": pi, "stat": "length"}, _poly(acc_ell, arity), rhs_ell, len(rs)
            rhs_rmaj = MultiPoly.monomial(1, q=rmaj_s(pi, i), ts=eps_pi, arity=arity) * bracket
            yield {"i": i, "pi": pi, "stat": "rmaj"}, _poly(acc_rmaj, arity), rhs_rmaj, 0


def _check_garsia_gessel(n: int) -> Iterator[Checkpoint]:
    for k in range(1, n):
        binom = q_binomial(n, k)
        nu_k = nu(k, n)
        nu_k_inv = inverse(nu_k)
        rs = shuf.enumerate_b_shuffles(n, {k})
        for p1 in _iter_low_support(n, k):
            m1 = maj_s(p1)
            for small in iter_symmetric(n - k):
                p2 = _embed_high(small, k, n)
                m2 = maj_s(compose(compose(nu_k_inv, p2), nu_k))
                base = compose(p1, p2)
                acc: dict = {}
                for r in rs:
                    _bump(acc, (maj_s(tuple(base[x - 1] for x in r)) - m1 - m2, 0))
                yield {"k": k, "pi1": p1, "pi2": p2}, _poly(acc), binom, len(rs)


def _check_main(group: str, n: int) -> Iterator[Checkpoint]:
    # One mask per element: the inverse's descents in the low n bits, its
    # minima (level 0 in S, level 1 in A) shifted above them.
    if group == "S":
        def row(p, rec):
            pinv = inverse(p)
            m = (_mask(des_set_s(pinv))
                 | _mask(ltr_minima(pinv, 0, EXCLUDE_FIRST_POSITIONS)) << n)
            return (m, rmaj_s(p, n)), (m, length_s(p))
        d2_range = 1 << max(0, n - 1)
    else:
        def row(v, rec):
            vinv = inverse(v)
            m = (_mask(des_set_s(a_pull(vinv)[3]))
                 | _mask(ltr_minima(vinv, 1, EXCLUDE_FIRST_POSITIONS)) << n)
            return (m, rmaj_s(rec[3], n)), (m, rec[0])
        d2_range = 1 << n
    tallies, count = histograms(group, n, row)
    fibres = _fibres(tallies)
    for d1_bits in range(1 << max(0, n - 1)):
        for d2_bits in range(d2_range):
            lhs, rhs = _restricted(fibres, d1_bits << 1 | d2_bits << (n + 2))
            first = d1_bits == d2_bits == 0
            yield {"D1": d1_bits, "D2": d2_bits}, lhs, rhs, count if first else 0


# Corollary 9.2 scans over q = p^{-1}, which runs over the whole group as p
# does: the inverse's statistics come from q's own record.

def _check_cor92_s(n: int) -> Iterator[Checkpoint]:
    def row(q, rec):
        p = inverse(q)
        d, dl = len(des_set_s(q)), rec[1]
        return (rmaj_s(p, n), d, dl), (length_s(p), d, dl)

    (lhs_acc, rhs_acc), count = histograms("S", n, row)
    yield None, _poly(lhs_acc, 1), _poly(rhs_acc, 1), count


def _check_cor92_a(n: int) -> Iterator[Checkpoint]:
    def row(w, rec):
        ell, _, _, proj, _ = a_pull(inverse(w))
        d, dl = len(des_set_s(rec[3])), rec[1]
        return (rmaj_s(proj, n), d, dl), (ell, d, dl)

    (lhs_acc, rhs_acc), count = histograms("A", n, row)
    yield None, _poly(lhs_acc, 1), _poly(rhs_acc, 1), count


def _check_fiber_size(n: int) -> Iterator[Checkpoint]:
    from .cover import iter_fiber

    seen: set[Perm] = set()
    total = 0
    for w in iter_symmetric(n):
        size = 0
        for v in iter_fiber(w):
            size += 1
            seen.add(v)
        total += size
        yield {"w": w}, MultiPoly.const(size), MultiPoly.const(2 ** del_s(w)), size
    order = math.factorial(n + 1) // 2
    yield {"check": "partition-total"}, MultiPoly.const(total), MultiPoly.const(order), 0
    yield {"check": "partition-distinct"}, MultiPoly.const(len(seen)), MultiPoly.const(order), 0


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
            _bump(ell_acc, (length_s(w), 0))
            _bump(maj_acc, (maj_s(w), 0))
    for j, (ell_acc, maj_acc) in accs.items():
        yield {"i": j, "side": "length"}, _poly(ell_acc), closed, count
        yield {"i": j, "side": "maj"}, _poly(maj_acc), closed, 0


# -- registry -----------------------------------------------------------------

REGISTRY: dict[str, IdentityEntry] = {}


def _register(name, description, check, min_n=1, cap=7, params=None):
    REGISTRY[name] = IdentityEntry(name, description, params or {"n": "int"}, min_n, cap, check)


_register(
    "macmahon",
    "length and major index are equi-distributed over the symmetric group, "
    "with the Gaussian factorial as closed form",
    _check_macmahon, cap=8,
)
_register(
    "fs-fixed-descent",
    "length and major index are equi-distributed on every class with a fixed "
    "inverse descent set",
    _check_fs_fixed_descent, cap=7,
)
_register(
    "fs-rmaj",
    "maj, reverse maj and length agree on every inverse-descent-restricted set",
    _check_fs_rmaj, cap=7,
)
_register(
    "thm61-s",
    "joint (length, delent) and (reverse maj, delent) distributions over the "
    "symmetric group equal the staircase product",
    partial(_check_thm61, "S"), cap=8,
)
_register(
    "thm61-a",
    "joint (length, delent) and (reverse maj, delent) distributions over the "
    "alternating group equal the doubled staircase product",
    partial(_check_thm61, "A"), cap=8,
)
_register(
    "thm62-s",
    "length and reverse maj agree on every fixed-delent slice of the symmetric group",
    partial(_check_thm62, "S"), cap=8,
)
_register(
    "thm62-a",
    "length and reverse maj agree on every fixed-delent slice of the alternating group",
    partial(_check_thm62, "A"), cap=8,
)
_register(
    "prop56",
    "staircase products assembled factor by factor from measured elements "
    "match the closed forms, for both groups",
    _check_prop56, cap=9,
)
_register(
    "prop57-stirling-s",
    "delent distribution over the symmetric group matches rising-factorial "
    "coefficients, i.e. cycle-counting Stirling numbers",
    partial(_check_prop57, "S"), cap=8,
)
_register(
    "prop57-stirling-a",
    "delent distribution over the alternating group is the doubled Stirling count",
    partial(_check_prop57, "A"), cap=8,
)
_register(
    "prop510-multivar-s",
    "per-factor indicator refinement of the symmetric staircase product",
    partial(_check_prop510, "S"), cap=7,
)
_register(
    "prop510-multivar-a",
    "per-factor indicator refinement of the alternating staircase product",
    partial(_check_prop510, "A"), cap=7,
)
_register(
    "prop511-multivar",
    "indicator-vector counts factor into linear terms at q = 1, both groups",
    _check_prop511, cap=8,
)
_register(
    "prop712-sk-occurrences",
    "occurrence counts of a fixed generator distribute as scaled Stirling numbers",
    _check_prop712, cap=8, params={"n": "int", "k": "int, optional"},
)
_register(
    "lemma63",
    "inserting a maximal letter into a word spreads maj and reverse maj geometrically",
    _check_lemma63, cap=6,
)
_register(
    "lemma64",
    "right staircase cosets spread maj and reverse maj geometrically",
    _check_lemma64, cap=7,
)
_register(
    "lemma65",
    "right staircase cosets spread (reverse maj, delent) with one marked top term",
    _check_lemma65, cap=7,
)
_register(
    "remark66",
    "dropping the full staircase tail truncates the coset spread by one term",
    _check_remark66, cap=7,
)
_register(
    "prop67",
    "joint (reverse maj, delent) distribution equals the staircase product",
    _check_prop67, cap=8,
)
_register(
    "prop81",
    "single-cut shuffles grow length and reverse maj by a Gaussian binomial",
    _check_prop81, min_n=2, cap=6,
)
_register(
    "lemma86",
    "reverse-maj shuffle sums split by first letter into the two Gaussian parts",
    partial(_check_first_letter, "rmaj"), min_n=2, cap=6,
)
_register(
    "lemma87",
    "length shuffle sums split by first letter into the two Gaussian parts",
    partial(_check_first_letter, "length"), min_n=2, cap=6,
)
_register(
    "lemma93",
    "indicator-refined shuffle sums equal the bracket with one marked variable",
    _check_lemma93, min_n=2, cap=6,
)
_register(
    "garsia-gessel",
    "shuffles of two fixed-support permutations grow maj by a Gaussian binomial, "
    "after relabelling the upper block",
    _check_garsia_gessel, min_n=2, cap=6,
)
_register(
    "main-s",
    "reverse maj and length agree under every double restriction of inverse "
    "descents and inverse minima",
    partial(_check_main, "S"), cap=6,
)
_register(
    "main-a",
    "the alternating analogue of the double-restriction equality",
    partial(_check_main, "A"), cap=5,
)
_register(
    "cor92-s",
    "trivariate (reverse maj / inverse descents / inverse delent) equals the "
    "length version",
    _check_cor92_s, cap=7,
)
_register(
    "cor92-a",
    "the alternating trivariate equality",
    _check_cor92_a, cap=7,
)
_register(
    "fiber-size",
    "projection fibres have size two to the delent and partition the "
    "alternating group",
    _check_fiber_size, cap=7,
)
_register(
    "appendix-hat",
    "folded length and maj are equi-distributed over even permutations with a "
    "truncated factorial closed form",
    _check_appendix_hat, min_n=2, cap=8, params={"n": "int", "i": "int, optional"},
)


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
    # Running sums of each side as plain dicts, built into polynomials once.
    lhs_acc: dict = {}
    rhs_acc: dict = {}
    lhs_arity = rhs_arity = 0
    for subparams, lhs, rhs, cnt in entry.check(n, **extra):
        scanned += cnt
        if lhs != rhs:
            elapsed = time.perf_counter() - start
            params = {"n": n, **extra}
            if subparams:
                params["failed_at"] = _json_safe(subparams)
            return IdentityReport(name, params, lhs, rhs, False, scanned, elapsed)
        lhs_arity = max(lhs_arity, lhs.arity)
        rhs_arity = max(rhs_arity, rhs.arity)
        for e, c in lhs.terms.items():
            lhs_acc[e] = lhs_acc.get(e, 0) + c
        for e, c in rhs.terms.items():
            rhs_acc[e] = rhs_acc.get(e, 0) + c
    elapsed = time.perf_counter() - start
    return IdentityReport(
        name, {"n": n, **extra}, _padded_sum(lhs_acc, lhs_arity),
        _padded_sum(rhs_acc, rhs_arity), True, scanned, elapsed,
    )


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
