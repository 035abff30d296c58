"""Independent oracle computations used by the tests.

Everything here recomputes quantities along a different route from the
production code: definitional comparisons, brute-force scans, and letterwise
substitution.  Oracles never call the production function they are checking.
"""
from __future__ import annotations

from permstat.perm import Perm, compose, sign
from permstat.stats import EXCLUDE_FIRST_POSITIONS, length_s, ltr_minima
from permstat.words import eval_a_letters, s_canonical


def a_generator(m: int, i: int) -> Perm:
    """The alternating generator of degree m with index i, built from swaps."""
    return eval_a_letters(m, [(i, False)])


def length_a_by_minima(v: Perm) -> int:
    """Alternating length as inversions minus left-to-right minima after the first."""
    return length_s(v) - len(ltr_minima(v, 0, EXCLUDE_FIRST_POSITIONS))


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


def stirling_cycle_counts(n: int) -> list[int]:
    """counts[d] = permutations of degree n with d+1 cycles, by recurrence."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (row[d - 1] if d >= 1 else 0) + ((m - 1) * row[d] if d < len(row) else 0)
            for d in range(m)
        ]
    return row
