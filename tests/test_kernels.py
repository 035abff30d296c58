"""The pull kernels against statistics computed without them.

Every expected value here comes from the one-line word (inversion counts,
left-to-right minima, descents by length comparison) or from multiplying a
word back out, and every group is enumerated by filtering all permutations,
so a fault in ``s_pull``, ``a_pull`` or ``iter_alternating`` cannot cancel.
"""
from __future__ import annotations

import itertools

import pytest

from oracles import des_set_a_by_comparison
from permstat.perm import iter_alternating, sign
from permstat.stats import (
    EXCLUDE_FIRST_POSITIONS,
    del_a,
    del_s,
    del_set_s,
    genfun,
    length_a,
    length_s,
    ltr_minima,
    maj_a,
    maj_s,
    rmaj_a,
    rmaj_s,
)
from permstat.words import (
    AWord,
    SWord,
    a_pull,
    a_word_to_perm,
    epsilon_a,
    epsilon_s,
    s_pull,
    s_word_to_perm,
)


def _perms(n):
    return itertools.permutations(range(1, n + 1))


def _evens(m):
    return [v for v in _perms(m) if sign(v) == 1]


def test_s_pull_matches_one_line_statistics():
    for n in range(1, 8):
        for p in _perms(n):
            length, delent, starts = s_pull(p)
            assert length == length_s(p)
            assert delent == len(ltr_minima(p, 0, EXCLUDE_FIRST_POSITIONS))
            assert s_word_to_perm(SWord(n, starts)) == p


def test_a_pull_matches_one_line_statistics():
    for m in range(1, 9):
        for v in _evens(m):
            length, delent, ends, proj, inverted = a_pull(v)
            assert length == length_s(v) - len(del_set_s(v))
            assert delent == len(ltr_minima(v, 1, EXCLUDE_FIRST_POSITIONS))
            factors = tuple(
                None if e is None else (e, bool(inverted >> j & 1))
                for j, e in enumerate(ends, start=1)
            )
            assert a_word_to_perm(AWord(m, factors)) == v
            if m > 1:
                assert proj == s_word_to_perm(SWord(m - 1, ends))


def test_a_pull_projection_descents_match_comparison():
    for m in range(2, 7):
        for v in _evens(m):
            proj = a_pull(v)[3]
            descents = {i for i in range(1, len(proj)) if proj[i - 1] > proj[i]}
            assert descents == des_set_a_by_comparison(v)


def test_iter_alternating_is_the_lexicographic_even_filter():
    for n in range(0, 9):
        assert list(iter_alternating(n)) == [p for p in _perms(n) if sign(p) == 1]


def _recount(group, n, q_stat, t_stat, multivar):
    """genfun's terms, recounted from the public per-element statistics."""
    if group == "S":
        elements = list(_perms(n))
        q = {"length": length_s, "maj": maj_s, "rmaj": lambda p: rmaj_s(p, n)}[q_stat]
        delent, epsilon = del_s, epsilon_s
    else:
        elements = _evens(n + 1)
        q = {"length": length_a, "maj": maj_a, "rmaj": lambda v: rmaj_a(v, n)}[q_stat]
        delent, epsilon = del_a, epsilon_a
    terms: dict = {}
    for p in elements:
        if multivar:
            key = (q(p), 0) + epsilon(p)
        else:
            key = (q(p), delent(p) if t_stat == "del" else 0)
        terms[key] = terms.get(key, 0) + 1
    return terms


@pytest.mark.parametrize("group", ["S", "A"])
@pytest.mark.parametrize("q_stat", ["length", "maj", "rmaj"])
@pytest.mark.parametrize("t_stat,multivar", [("del", False), ("none", False), ("del", True)])
def test_genfun_matches_public_statistics(group, q_stat, t_stat, multivar):
    for n in range(1, 6):
        poly = genfun(group, n, q_stat, t_stat, multivar)
        assert poly.arity == (n - 1 if multivar else 0)
        assert poly.terms == _recount(group, n, q_stat, t_stat, multivar)


def test_genfun_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least 1"):
        genfun("S", 0)
    with pytest.raises(ValueError, match="needs --t-stat del"):
        genfun("S", 3, t_stat="none", multivar=True)
    with pytest.raises(ValueError, match="unknown statistic"):
        genfun("A", 3, q_stat="des")
    with pytest.raises(ValueError, match="unknown group"):
        genfun("B", 3)
