"""Independent oracle computations used by the tests.

Everything here recomputes quantities along a different route from the
production code: definitional comparisons, brute-force scans, and letterwise
substitution.  Oracles never call the production function they are checking.
"""
from __future__ import annotations

from itertools import product

from permstat.perm import Perm, compose, iter_symmetric, sign
from permstat.stats import (EXCLUDE_FIRST_POSITIONS, EXCLUDE_SMALLEST_VALUES, _maj_rmaj, del_s,
                            length_s, rmaj_s)
from permstat.words import eval_a_letters, s_canonical


def a_generator(m: int, i: int) -> Perm:
    """The alternating generator of degree m with index i, built from swaps."""
    return eval_a_letters(m, [(i, False)])


def ltr_minima_by_counting(p: Perm, level: int = 0,
                           kind: str = EXCLUDE_FIRST_POSITIONS) -> set[int]:
    """Left-to-right minima by definition: count each position's smaller earlier values."""
    out = set()
    for i in range(1, len(p) + 1):
        if kind == EXCLUDE_FIRST_POSITIONS and i <= level + 1:
            continue
        if kind == EXCLUDE_SMALLEST_VALUES and p[i - 1] <= level + 1:
            continue
        smaller = sum(1 for j in range(1, i) if p[j - 1] < p[i - 1])
        if smaller <= level:
            out.add(i)
    return out


def length_a_by_minima(v: Perm) -> int:
    """Alternating length as inversions minus left-to-right minima after the first."""
    return length_s(v) - len(ltr_minima_by_counting(v, 0, EXCLUDE_FIRST_POSITIONS))


def des_set_a_by_comparison(v: Perm) -> set[int]:
    """Alternating descents by the defining length comparison.

    i is a descent when right-multiplying by the i-th generator does not
    increase the alternating length, which is read off the one-line word.
    """
    m = len(v)
    out = set()
    base = length_a_by_minima(v)
    for i in range(1, m - 1):
        if base >= length_a_by_minima(compose(v, a_generator(m, i))):
            out.add(i)
    return out


def des_set_s_by_comparison(p: Perm) -> set[int]:
    """Symmetric descents by the length-drop comparison."""
    n = len(p)
    out = set()
    base = length_s(p)
    for i in range(1, n):
        q = list(p)
        q[i - 1], q[i] = q[i], q[i - 1]
        if length_s(tuple(q)) < base:
            out.add(i)
    return out


def substitution_a_letters(v: Perm) -> list[tuple[int, bool]]:
    """Rewrite the canonical swap letters of an even permutation in pairs.

    Consecutive swap letters s_i s_j rewrite to the alternating letters
    (index i-1, inverted) (index j-1), where index 0 disappears and only
    index 1 distinguishes its inverse.  Evaluating the result must give v
    back; this checks the generator conventions cohere.
    """
    if sign(v) != 1:
        raise ValueError("substitution needs an even permutation")
    letters = s_canonical(v).letters()
    assert len(letters) % 2 == 0
    out: list[tuple[int, bool]] = []
    for pos in range(0, len(letters), 2):
        i, j = letters[pos] - 1, letters[pos + 1] - 1
        if i >= 1:
            out.append((i, i == 1))
        if j >= 1:
            out.append((j, False))
    return out


def brute_fiber(w: Perm) -> set[Perm]:
    """All even permutations one degree up that project onto w."""
    from permstat.cover import f_map
    from permstat.perm import iter_alternating

    return {v for v in iter_alternating(len(w) + 1) if f_map(v) == w}


def brute_fibres(n: int) -> dict[Perm, list[Perm]]:
    """Every fibre over degree n, each sorted, from one f_map pass over A_{n+1}."""
    from permstat.cover import f_map
    from permstat.perm import iter_alternating

    fibres: dict[Perm, list[Perm]] = {}
    for v in iter_alternating(n + 1):
        fibres.setdefault(f_map(v), []).append(v)
    return {w: sorted(lifts) for w, lifts in fibres.items()}


def inversions_by_double_loop(p: Perm) -> int:
    """Inversion count by comparing every pair of positions in a double loop."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def h_map_by_relabelling(p: Perm, i: int) -> Perm:
    """Relabel i <-> i+1 throughout p when i+1 appears to the left of i; else p."""
    if p.index(i) > p.index(i + 1):
        return tuple(i + 1 if x == i else i if x == i + 1 else x for x in p)
    return p


def stirling_cycle_counts(n: int) -> list[int]:
    """counts[d] = permutations of degree n with d+1 cycles, by recurrence."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (row[d - 1] if d >= 1 else 0) + ((m - 1) * row[d] if d < len(row) else 0)
            for d in range(m)
        ]
    return row


def _histogram(keys) -> dict:
    out: dict = {}
    for key in keys:
        out[key] = out.get(key, 0) + 1
    return out


def _geometric_run(start: int, length: int) -> tuple[int, dict]:
    return 0, {(e, 0): 1 for e in range(start, start + length)}


def lemma63_by_slicing(n: int) -> list:
    """lemma63's checkpoints, each inserted word built by slicing and measured
    by its own ``_maj_rmaj`` call."""
    y = n + 1
    out = []
    for u in product(range(1, n + 1), repeat=n):
        sums = [_maj_rmaj(u[:i] + (y,) + u[i:], y) for i in range(n + 1)]
        majs = [(maj, 0) for maj, _ in sums]
        rmajs = [(rmaj, 0) for _, rmaj in sums]
        m, r = _maj_rmaj(u, n)
        out += [({"word": u, "eq": "maj-all"}, (0, _histogram(majs)), _geometric_run(m, y), 1),
                ({"word": u, "eq": "maj-proper"}, (0, _histogram(majs[:-1])),
                 _geometric_run(m + 1, n), 0),
                ({"word": u, "eq": "rmaj-all"}, (0, _histogram(rmajs)), _geometric_run(r, y), 0),
                ({"word": u, "eq": "rmaj-tail"}, (0, _histogram(rmajs[1:])),
                 _geometric_run(r, n), 0)]
    return out


def lemma64_by_slicing(n: int) -> list:
    """lemma64's checkpoints, each coset product w tau built by putting n+1 at
    one slot of w and measured by its own ``_maj_rmaj`` call."""
    y = n + 1
    out = []
    for w in iter_symmetric(n):
        sums = [_maj_rmaj(w[:i] + (y,) + w[i:], y) for i in range(n + 1)]
        m, r = _maj_rmaj(w, n)
        out += [({"w": w, "stat": "maj"}, (0, _histogram((maj, 0) for maj, _ in sums)),
                 _geometric_run(m, y), y),
                ({"w": w, "stat": "rmaj"}, (0, _histogram((rmaj, 0) for _, rmaj in sums)),
                 _geometric_run(r, y), 0)]
    return out


def lemma65_by_slicing(n: int) -> list:
    """lemma65's checkpoints, each coset product w tau built by putting n+1 at
    one slot of w, from the last slot down, and measured by its own ``rmaj_s``
    and ``del_s`` calls."""
    out = []
    for w in iter_symmetric(n):
        products = [w[:i] + (n + 1,) + w[i:] for i in range(n, -1, -1)]
        r, d = rmaj_s(w, n), del_s(w)
        rhs = {(e, d): 1 for e in range(r, r + n)}
        rhs[(r + n, d + 1)] = 1
        out.append(({"w": w}, (0, _histogram((rmaj_s(p, n + 1), del_s(p)) for p in products)),
                    (0, rhs), n + 1))
    return out


def fiber_size_by_lifts(n: int) -> list:
    """fiber-size's checkpoint for each w of degree n, in lexicographic order: its
    fibre found by one f_map pass over A_{n+1}, against 2^del(w) counted by definition."""
    fibres = brute_fibres(n)
    return [({"w": w}, (0, {(0, 0): len(fibres[w])}),
             (0, {(0, 0): 2 ** len(ltr_minima_by_counting(w))}), len(fibres[w]))
            for w in iter_symmetric(n)]


def remark66_by_slicing(n: int) -> list:
    """remark66's checkpoints: lemma65's products but the one with n+1 first,
    measured by their own ``rmaj_s`` calls."""
    out = []
    for w in iter_symmetric(n):
        products = [w[:i] + (n + 1,) + w[i:] for i in range(n, 0, -1)]
        out.append(({"w": w}, (0, _histogram((rmaj_s(p, n + 1), 0) for p in products)),
                    _geometric_run(rmaj_s(w, n), n), n))
    return out
