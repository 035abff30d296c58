"""The two-to-one-per-letter projection from alternating onto symmetric groups.

An even permutation of degree n+1 projects to a permutation of degree n by
mapping each canonical letter a_k to s_k; the two letters a_1 and a_1^{-1}
collapse together, so a permutation whose word uses d such letters has a
fibre of exactly 2^d preimages.  ``f_map`` runs the A pull of ``words``; the
fibre runs it backwards from the factor starts of w, the projected ends of
every preimage, and yields the preimages in lexicographic one-line order as
it builds them.  Length, descent set, maj, reverse maj (ambient degree n)
and delent of an even permutation equal those of its image.
"""
from __future__ import annotations

from typing import Iterator

from .perm import Perm, check_even, check_perm
from .words import a_lifts, a_pull, s_pull


def f_map(v: Perm) -> Perm:
    """Project an even permutation one degree down, letter by letter.

    >>> f_map((2, 3, 1))
    (2, 1)
    """
    if len(v) < 2:
        raise ValueError("projection needs degree at least 2")
    return a_pull(check_even(v))[3]


def iter_fiber(w: Perm) -> Iterator[Perm]:
    """The preimages of w, lazily and in lexicographic one-line order.

    w is checked on the call, before the first preimage is asked for.
    """
    return a_lifts(s_pull(check_perm(w))[2])


def fiber(w: Perm) -> list[Perm]:
    """All preimages of w, in lexicographic one-line order.

    >>> fiber((2, 1))
    [(2, 3, 1), (3, 1, 2)]
    """
    return list(iter_fiber(w))
