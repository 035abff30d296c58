import math

import pytest

from oracles import brute_fiber
from permstat.cover import f_map, fiber, iter_fiber
from permstat.perm import identity, iter_alternating, iter_symmetric
from permstat.stats import (
    del_a,
    del_s,
    des_a,
    des_s,
    length_a,
    length_s,
    maj_a,
    maj_s,
    rmaj_a,
    rmaj_s,
)
from permstat.words import a_canonical, s_canonical, s_image


def test_f_map_examples():
    for n in range(1, 6):
        assert f_map(identity(n + 1)) == identity(n)
    assert f_map((2, 3, 1)) == (2, 1)
    assert f_map((3, 1, 2)) == (2, 1)
    # letterwise image of the worked staircase example; its length must
    # match the six letters of the source word
    assert f_map((3, 5, 4, 2, 1)) == (4, 3, 2, 1)
    assert length_s((4, 3, 2, 1)) == 6


def test_f_map_rejects_odd():
    with pytest.raises(ValueError, match="odd"):
        f_map((2, 1, 3))


def test_f_map_preserves_word_shape():
    for m in range(2, 7):
        for v in iter_alternating(m):
            aw = a_canonical(v)
            image_word = s_canonical(f_map(v))
            assert image_word.factors == s_image(aw).factors
            assert length_s(f_map(v)) == length_a(v)


def test_fiber_examples():
    for n in range(1, 5):
        assert fiber(identity(n)) == [identity(n + 1)]
    assert fiber((2, 1)) == [(2, 3, 1), (3, 1, 2)]
    assert len(fiber((2, 5, 4, 1, 3))) == 2


def test_fiber_matches_brute_force():
    for n in range(1, 5):
        for w in iter_symmetric(n):
            assert set(fiber(w)) == brute_fiber(w)


def test_fiber_sizes_and_partition():
    for n in range(1, 6):
        seen = set()
        total = 0
        for w in iter_symmetric(n):
            lifts = fiber(w)
            assert len(lifts) == 2 ** del_s(w)
            assert len(set(lifts)) == len(lifts)
            for v in lifts:
                assert f_map(v) == w
            seen.update(lifts)
            total += len(lifts)
        order = math.factorial(n + 1) // 2
        assert total == order and len(seen) == order


def test_iter_fiber_is_lazy_and_complete():
    w = (2, 5, 4, 1, 3)
    assert sorted(iter_fiber(w)) == fiber(w)


def test_known_pairs_hold():
    # (alternating statistic, symmetric statistic); reverse maj takes the
    # degree of the image as its ambient on both sides.
    pairs = {
        "length": (length_a, length_s),
        "des": (des_a, des_s),
        "maj": (maj_a, maj_s),
        "rmaj": (lambda v: rmaj_a(v, len(v) - 1), lambda p: rmaj_s(p, len(p))),
        "del": (del_a, del_s),
    }
    for n in range(1, 7):
        for v in iter_alternating(n + 1):
            w = f_map(v)
            for name, (a_stat, s_stat) in pairs.items():
                assert a_stat(v) == s_stat(w), (name, v)


def test_fiber_size_sum_matches_group_order():
    for n in range(1, 9):
        total = sum(2 ** del_s(w) for w in iter_symmetric(n))
        assert total == math.factorial(n + 1) // 2
