"""The two-to-one-per-letter projection from alternating onto symmetric groups.

An even permutation of degree n+1 projects to a permutation of degree n by
mapping each canonical letter a_k to s_k; the two letters a_1 and a_1^{-1}
collapse together, so a permutation whose word uses d such letters has a
fibre of exactly 2^d preimages.  The length, descent set, maj, reverse maj
(ambient degree n) and delent of an even permutation each equal the same
statistic of its image.
"""
from __future__ import annotations

from .perm import Perm, check_even
from .words import a_lifts, a_pull, a_word_to_perm, s_canonical


def f_map(v: Perm) -> Perm:
    """Project an even permutation one degree down, letter by letter.

    >>> f_map((2, 3, 1))
    (2, 1)
    """
    if len(v) < 2:
        raise ValueError("projection needs degree at least 2")
    return a_pull(check_even(v))[3]


def iter_fiber(w: Perm):
    """Yield the preimages of w, branching each letter s_1 both ways."""
    for lift in a_lifts(s_canonical(w)):
        yield a_word_to_perm(lift)


def fiber(w: Perm) -> list[Perm]:
    """All preimages of w, in lexicographic one-line order.

    >>> fiber((2, 1))
    [(2, 3, 1), (3, 1, 2)]
    """
    return sorted(iter_fiber(w))

