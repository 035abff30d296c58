import math

import pytest

from oracles import substitution_a_letters
from permstat.perm import identity, inverse, iter_alternating, iter_symmetric
from permstat.words import (
    AWord,
    SWord,
    a_pull,
    a_canonical,
    a_word_pretty,
    a_word_to_perm,
    epsilon_a,
    epsilon_s,
    eval_a_letters,
    eval_s_letters,
    indicators,
    occurrences_a,
    occurrences_s,
    parse_a_letters,
    parse_s_letters,
    s_canonical,
    s_pull,
    s_word_pretty,
    s_word_to_perm,
    t_vector,
    word_to_json,
)


def test_worked_example_symmetric():
    word = s_canonical((2, 5, 4, 1, 3))
    assert word.factors == (1, None, 2, 2)
    assert s_word_pretty(word) == "s1 | 1 | s3 s2 | s4 s3 s2"
    assert s_word_to_perm(word) == (2, 5, 4, 1, 3)
    assert word.length == 6
    assert word.factor_lengths() == (1, 0, 2, 3)


def test_worked_example_alternating():
    word = a_canonical((3, 5, 4, 2, 1))
    assert word.factors == ((1, False), (1, True), (1, False))
    assert a_word_pretty(word) == "a1 | a2 a1^-1 | a3 a2 a1"
    assert a_word_to_perm(word) == (3, 5, 4, 2, 1)
    assert word.length == 6


def test_identity_words_are_empty():
    for n in range(1, 6):
        assert all(r is None for r in s_canonical(identity(n)).factors)
    for m in range(1, 6):
        assert all(f is None for f in a_canonical(identity(m)).factors)


def test_small_examples():
    assert s_canonical((2, 1, 3)).factors == (1, None)
    # the first alternating generator, written as a permutation
    assert a_canonical((2, 3, 1)).factors == ((1, False),)
    assert s_word_to_perm(SWord(5, (None,) * 4)) == identity(5)


def test_round_trip_and_uniqueness_symmetric():
    for n in range(1, 7):
        words = set()
        for p in iter_symmetric(n):
            word = s_canonical(p)
            assert s_word_to_perm(word) == p
            words.add(word.factors)
        assert len(words) == math.factorial(n)


def test_round_trip_and_uniqueness_alternating():
    for m in range(1, 8):
        words = set()
        order = 0
        for v in iter_alternating(m):
            order += 1
            word = a_canonical(v)
            assert a_word_to_perm(word) == v
            words.add(word.factors)
        assert len(words) == order
        # every staircase choice is hit: the counts multiply out to the order
        expected = 1
        for j in range(1, max(0, m - 2) + 1):
            expected *= j + 2
        assert order == expected


def test_a_canonical_rejects_odd():
    with pytest.raises(ValueError, match="odd"):
        a_canonical((2, 1, 3))


def test_occurrence_examples():
    w = eval_s_letters(4, parse_s_letters("s1 s2 s1 s3"))
    assert occurrences_s(s_canonical(w), 1) == 2
    v = eval_a_letters(5, parse_a_letters("a1^-1 a2 a1 a3 a2 a1^-1"))
    assert occurrences_a(a_canonical(v), 1) == 3
    empty = s_canonical(identity(5))
    assert all(occurrences_s(empty, k) == 0 for k in range(1, 5))
    with pytest.raises(ValueError, match="outside"):
        occurrences_s(empty, 5)
    with pytest.raises(ValueError, match="outside"):
        occurrences_a(a_canonical(identity(5)), 4)


def test_occurrences_invariant_under_inverse():
    for n in range(2, 7):
        for w in iter_symmetric(n):
            word, word_inv = s_canonical(w), s_canonical(inverse(w))
            for i in range(1, n):
                assert occurrences_s(word, i) == occurrences_s(word_inv, i)
    for m in range(3, 7):
        for v in iter_alternating(m):
            word, word_inv = a_canonical(v), a_canonical(inverse(v))
            for i in range(1, m - 1):
                assert occurrences_a(word, i) == occurrences_a(word_inv, i)


def test_epsilon_examples():
    assert epsilon_s((2, 5, 4, 1, 3)) == (1, 0, 0, 0)
    assert epsilon_s(identity(5)) == (0, 0, 0, 0)
    assert epsilon_a((3, 5, 4, 2, 1)) == (1, 1, 1)
    for n in range(2, 6):
        for p in iter_symmetric(n):
            assert sum(epsilon_s(p)) == occurrences_s(s_canonical(p), 1)


def test_indicators_are_ints():
    # A bool entry would merge with its int twin in a tally and print "true".
    records = [s_pull(w)[2] for w in iter_symmetric(5)]
    records += [a_pull(v)[2] for v in iter_alternating(6)]
    for bottoms in records:
        vec = indicators(bottoms)
        assert vec == tuple(int(r == 1) for r in bottoms)
        assert all(type(x) is int for x in vec)


def test_t_vector_examples():
    assert t_vector(identity(5)) == (0, 0, 0, 0)
    assert t_vector((2, 5, 4, 1, 3)) == (1, 0, 2, 3)
    assert t_vector((2, 1)) == (1,)


def test_t_vector_reads_factor_lengths():
    for n in range(1, 7):
        for w in iter_symmetric(n):
            word = s_canonical(w)
            assert t_vector(w) == word.factor_lengths()
            # a full count at slot j marks the factor that reaches s_1
            eps = epsilon_s(w)
            for j in range(1, n):
                assert (t_vector(w)[j - 1] == j) == (eps[j - 1] == 1)


def test_factor_length_drop_under_projection_pairing():
    # the j-th alternating factor is one letter shorter than the (j+1)-st
    # symmetric factor exactly when that factor reaches s_1
    for m in range(3, 7):
        for v in iter_alternating(m):
            s_lens = s_canonical(v).factor_lengths()
            eps = epsilon_s(v)
            a_lens = a_canonical(v).factor_lengths()
            for i in range(1, m - 1):
                assert a_lens[i - 1] == s_lens[i] - eps[i]


def test_substitution_oracle_rebuilds_even_permutations():
    for m in range(1, 7):
        for v in iter_alternating(m):
            assert eval_a_letters(m, substitution_a_letters(v)) == v


def test_letter_parsing_round_trip():
    word = s_canonical((2, 5, 4, 1, 3))
    assert eval_s_letters(5, parse_s_letters(s_word_pretty(word))) == (2, 5, 4, 1, 3)
    aword = a_canonical((3, 5, 4, 2, 1))
    assert eval_a_letters(5, parse_a_letters(a_word_pretty(aword))) == (3, 5, 4, 2, 1)
    with pytest.raises(ValueError, match="bad letter"):
        parse_s_letters("s1 t2")
    with pytest.raises(ValueError, match="inverse"):
        parse_a_letters("a2^-1")


def test_letters_with_index_zero_raise():
    for word in ("s0", "s00"):
        with pytest.raises(ValueError, match="bad letter"):
            parse_s_letters(word)
    for word in ("a0", "a00", "a0^-1"):
        with pytest.raises(ValueError, match="bad letter"):
            parse_a_letters(word)
    assert parse_s_letters("s01") == [1] and parse_a_letters("a01") == [(1, False)]
    with pytest.raises(ValueError, match=r"^letter s0 has an index below 1$"):
        eval_s_letters(3, [0])
    with pytest.raises(ValueError, match=r"^letter a0 has an index below 1$"):
        eval_a_letters(4, [(0, False)])
    with pytest.raises(ValueError, match=r"^letter s3 needs degree at least 4$"):
        eval_s_letters(3, [3])


def test_word_json_shapes():
    assert word_to_json(s_canonical((2, 5, 4, 1, 3))) == [
        {"j": 1, "r": 1},
        {"j": 3, "r": 2},
        {"j": 4, "r": 2},
    ]
    assert word_to_json(a_canonical((3, 5, 4, 2, 1))) == [
        {"j": 1, "r": 1, "last": "a1"},
        {"j": 2, "r": 1, "last": "a1inv"},
        {"j": 3, "r": 1, "last": "a1"},
    ]


def test_structural_validation():
    with pytest.raises(ValueError):
        SWord(4, (1, None))
    with pytest.raises(ValueError):
        SWord(4, (2, None, None))
    with pytest.raises(ValueError):
        AWord(5, ((1, False), (3, False), None))
    with pytest.raises(ValueError):
        AWord(5, ((1, False), (2, True), None))


def test_pretty_degenerate():
    assert s_word_pretty(s_canonical((1,))) == "1"
    assert a_word_pretty(a_canonical((1, 2))) == "1"
    assert s_word_pretty(s_canonical((1, 2, 3))) == "1 | 1"
