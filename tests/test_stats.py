import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    des_set_a_by_comparison,
    des_set_s_by_comparison,
    h_map_by_relabelling,
    inversions_by_double_loop,
    ltr_minima_by_counting,
)
from permstat.cover import f_map
from permstat.perm import (
    adjacent_transposition,
    compose,
    cycle_count,
    identity,
    inverse,
    iter_alternating,
    iter_symmetric,
)
from permstat.stats import (
    EXCLUDE_FIRST_POSITIONS,
    _CHUNK,
    _descent_table,
    _folds,
    _maj_rmaj,
    _pack_cycles,
    _pack_descent_sums,
    _pack_descents,
    _pack_lengths,
    _block_letters,
    _lex_starts,
    _word_majs,
    EXCLUDE_SMALLEST_VALUES,
    StatProfile,
    del_a,
    del_s,
    del_set_a,
    del_set_s,
    des_s,
    des_set_a,
    des_set_s,
    h_map,
    hat_ell,
    hat_maj,
    length_a,
    length_s,
    ltr_minima,
    maj_s,
    profile_to_json,
    rmaj_a,
    rmaj_s,
    stat_profile,
)
from permstat.words import (
    _element_packs,
    _inserted,
    _pack,
    _packs,
    _words,
    epsilon_s,
    eval_a_letters,
    eval_s_letters,
    occurrences_s,
    parse_a_letters,
    parse_s_letters,
    s_canonical,
)

BOTH_KINDS = (EXCLUDE_FIRST_POSITIONS, EXCLUDE_SMALLEST_VALUES)


def test_length_examples():
    assert length_s(identity(4)) == 0
    assert length_s((2, 5, 4, 1, 3)) == 6
    for n in range(1, 7):
        assert length_s(tuple(range(n, 0, -1))) == n * (n - 1) // 2


@given(st.integers(0, 10).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_length_matches_double_loop(p):
    assert length_s(tuple(p)) == inversions_by_double_loop(tuple(p))


def test_descent_examples():
    assert des_set_s((3, 2, 1)) == {1, 2}
    assert maj_s((3, 2, 1)) == 3
    assert rmaj_s((3, 2, 1), 3) == 3
    assert des_set_s(identity(4)) == set()
    assert maj_s(identity(4)) == 0 and rmaj_s(identity(4), 4) == 0
    assert maj_s((1, 3, 2)) == 2
    assert rmaj_s((1, 3, 2), 3) == 1


@given(st.lists(st.integers(1, 5), max_size=9).flatmap(
    lambda w: st.tuples(st.just(tuple(w)), st.integers(len(w), len(w) + 3))))
def test_maj_rmaj_matches_the_two_sums(case):
    # Words with repeated letters, like the weak-order words of lemma63.
    w, n = case
    assert _maj_rmaj(w, n) == (maj_s(w), rmaj_s(w, n))


@pytest.mark.parametrize("n", range(1, 7))
def test_word_majs_are_maj_rmaj_of_every_word(n):
    # The prefix recurrence compares no letters, yet each word of [n]^n gets
    # its own ``_maj_rmaj`` pair, in ``itertools.product`` order, in planes of
    # ``_CHUNK`` words: 3,125 words at n = 5 end in a plane of 53.
    words = list(itertools.product(range(1, n + 1), repeat=n))
    planes = list(_word_majs(n))
    assert [len(p) for p in planes] == [2 * len(words[at:at + _CHUNK])
                                       for at in range(0, len(words), _CHUNK)]
    assert b"".join(planes) == b"".join(bytes(_maj_rmaj(u, n)) for u in words)


def test_word_majs_hold_across_every_block_boundary():
    # At n = 7 a word is a prefix and a block of the last k letters, built
    # apart: the words on each side of every block boundary, and the first
    # and the last, get their own pairs.
    n = 7
    k = _block_letters(n)
    starts = b"".join(_word_majs(n))
    assert 0 < k < n and len(starts) == 2 * n ** n
    edges = [0, n ** n - 1] + [i for b in range(n ** k, n ** n, n ** k) for i in (b - 1, b)]
    for i in edges:
        u = tuple(i // n ** j % n + 1 for j in reversed(range(n)))
        assert starts[2 * i:2 * i + 2] == bytes(_maj_rmaj(u, n)), u
    with pytest.raises(ValueError):
        next(_word_majs(24))  # maj reaches 276, above a byte


@pytest.mark.parametrize("n", range(1, 9))
def test_lex_starts_are_maj_rmaj_and_minima_of_every_permutation(n):
    # Each w of S_n, in lexicographic order, gets its own ``_maj_rmaj`` pair
    # and minima count, three planes of ``_CHUNK`` words but the last; at n = 7
    # and 8 a word is a prefix and the block of the last six letters.
    perms = list(iter_symmetric(n))
    planes = list(_lex_starts(n))
    assert [tuple(map(len, p)) for p in planes] == [
        (len(perms[at:at + _CHUNK]),) * 3 for at in range(0, len(perms), _CHUNK)]
    assert list(zip(*map(b"".join, zip(*planes)))) == [
        (*_maj_rmaj(w, n), len(ltr_minima(w, 0, EXCLUDE_FIRST_POSITIONS))) for w in perms]


def test_lex_starts_refuse_24_letters_before_any_plane(monkeypatch):
    # maj reaches 276 at 24 letters, above a byte: the refusal comes before the
    # block is built.
    from permstat import stats

    def built(k):
        raise AssertionError("a plane was built")

    monkeypatch.setattr(stats, "_lex_block", built)
    with pytest.raises(ValueError):
        next(_lex_starts(24))


# Every kernel that reads a scan side's words or packs: the closed forms'
# recurrences must call none of them.
SCAN_SIDE_KERNELS = ("_pack_descent_sums", "_pack_descents", "_descent_lanes", "_pack_lengths",
                     "_pack_cycles", "_inserted", "_pack", "_words", "_element_packs",
                     "_columns", "_table")


@pytest.mark.parametrize("starts, n", [(_lex_starts, 8), (_word_majs, 6)],
                         ids=["_lex_starts-8", "_word_majs-6"])
def test_lex_starts_read_no_scan_side_kernel(monkeypatch, starts, n):
    # The starts are the closed forms' side: with every kernel that a scan
    # side reads patched to raise, each recurrence still gives every plane.
    from permstat import stats, words

    expected = list(starts(n))

    def scanned(*args):
        raise AssertionError("the recurrence read a scan side kernel")

    for module in (stats, words):
        for name in SCAN_SIDE_KERNELS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, scanned)
    assert list(starts(n)) == expected


def test_descents_match_length_comparison():
    for n in range(2, 6):
        for p in iter_symmetric(n):
            assert des_set_s(p) == des_set_s_by_comparison(p)


def _packed_descents(words):
    table = _descent_table(set)
    return [des for pack in _packs(words) for des in _pack_descents(pack, table)]


def _descent_sums(packs):
    """Per statistic, ``_pack_descent_sums`` of every word of the packs, in order."""
    packs = list(packs)
    return {stat: list(itertools.chain.from_iterable(_pack_descent_sums(pack, stat)
                                                     for pack in packs))
            for stat in ("maj", "rmaj", "des")}


def _expected_sums(words):
    """maj, rmaj (ambient degree the word's length) and des of each word, by definition."""
    pairs = [_maj_rmaj(w, len(w)) for w in words]
    return {"maj": [m for m, _ in pairs], "rmaj": [r for _, r in pairs],
            "des": list(map(des_s, words))}


def _padded(words, length):
    """The words packed at stride length + 1, a zero lane after each, as projections are."""
    raw = b"".join(bytes(w) + b"\0" for w in words)
    return length, length + 1, len(raw), int.from_bytes(raw, "little")


def test_packed_descent_sums_match_maj_rmaj_and_des():
    # Every word of S_n (n <= 8) and of [n]^n (n <= 6), where a repeated
    # letter is no descent; streams that end in a full pack, a short one or
    # a single word; words of 1, 2 and 23 letters; the letters 0 and 127;
    # and the same words packed at a wider stride, as a projection is.
    cases = [list(iter_symmetric(n)) for n in range(1, 9)]
    cases += [list(itertools.product(range(1, n + 1), repeat=n)) for n in range(1, 7)]
    cases += [cases[7][:k] for k in (1, 255, 256, 257, 513)]
    rng = random.Random(2023)
    top = tuple(range(23, 0, -1))
    cases += [[(1,)] * 300, [(2, 1), (1, 2), (1, 1)] * 100,
              [(127, 0, 127, 126), (0, 127, 127, 0)] * 200,
              [top, top[::-1], top[1:] + top[:1]] + [tuple(rng.sample(range(1, 24), 23))
                                                      for _ in range(300)]]
    for words in cases:
        expected = _expected_sums(words)
        assert _descent_sums(_packs(words)) == expected, len(words[0])
        length = len(words[0])
        strided = (_padded(words[at:at + _CHUNK], length) for at in range(0, len(words), _CHUNK))
        assert _descent_sums(strided) == expected, length


def test_packed_descent_sums_of_inserted_words():
    # The insertion entries' packs: every word of [n]^n (n <= 5) with n + 1
    # put in at each slot, laid out from the base pack.
    for n in range(1, 6):
        bases = list(itertools.product(range(1, n + 1), repeat=n))
        for i in range(n + 1):
            words = [u[:i] + (n + 1,) + u[i:] for u in bases]
            packs = (_inserted(pack, i) for pack in _packs(bases))
            assert _descent_sums(packs) == _expected_sums(words), (n, i)


def test_packed_descent_sums_refuse_24_letters():
    # A maj of 24 letters reaches 276 and would carry into the next lane.
    for stat in ("maj", "rmaj", "des"):
        with pytest.raises(ValueError):
            _pack_descent_sums(_pack([tuple(range(24, 0, -1))], 24), stat)


def _packed_lengths(words):
    return list(itertools.chain.from_iterable(map(_pack_lengths, _packs(words))))


def test_packed_descents_match_des_set_s():
    # Every pattern of S_n, and of [n]^n, where a repeated letter is no
    # descent; streams that end in a full chunk, a short one or mid-chunk;
    # words of one and two letters; the letters 0 and 127.
    cases = [list(iter_symmetric(n)) for n in range(1, 9)]
    cases += [list(itertools.product(range(1, n + 1), repeat=n)) for n in range(1, 6)]
    cases += [cases[-1][:k] for k in (0, 1, 255, 256, 257, 513)]
    cases += [[(1,)] * 300, [(2, 1), (1, 2), (1, 1)] * 100,
              [(127, 0, 127, 126), (0, 127, 127, 0)] * 200]
    for words in cases:
        assert _packed_descents(iter(words)) == list(map(des_set_s, words))


# Streams that a packed kernel cannot compare: a letter of 128 in a later
# chunk, letters outside a byte, mixed lengths, in words given as tuples and
# as bytes.
UNPACKABLE = [
    [(1, 2, 3)] * 300 + [(1, 128, 2)],
    [(1, 2, 256)],
    [(0, -1)],
    [(1, 2, 3)] * 255 + [(1, 2), (1, 2, 3)],
    [(1, 2, 3), (1, 2), (1, 2, 3, 4)],  # as many letters as three words of 3
    [b"\x01\x02\x03", b"\x01\x02", b"\x01\x02\x03\x04"],
    [b"\x01\x02\x03"] * 300 + [b"\x01\x80\x02"],
]


@pytest.mark.parametrize("words", UNPACKABLE)
def test_packed_descents_reject_what_they_cannot_compare(words):
    with pytest.raises(ValueError):
        _packed_descents(words)


def test_packed_lengths_match_length_s():
    # As the packed descents are checked: every word of S_n and of [n]^n,
    # where a repeated letter is no inversion, on streams that end in a full
    # chunk, a short one or mid-chunk; and words given as bytes.
    cases = [list(iter_symmetric(n)) for n in range(1, 9)]
    cases += [list(itertools.product(range(1, n + 1), repeat=n)) for n in range(1, 6)]
    cases += [cases[-1][:k] for k in (0, 1, 255, 256, 257, 513)]
    cases += [[(127, 0, 127, 126), (0, 127, 127, 0)] * 200, list(map(bytes, cases[7]))]
    for words in cases:
        assert _packed_lengths(iter(words)) == list(map(length_s, words))


@pytest.mark.parametrize("words", UNPACKABLE)
def test_packed_lengths_reject_what_they_cannot_compare(words):
    with pytest.raises(ValueError):
        _packed_lengths(words)


def test_packed_lengths_of_long_words_count_or_refuse():
    # A lane sums the counts of L lanes in a row, at most L(L - 1)/2: 231 for
    # 22 letters and 253 for 23 fit in a byte, 276 for 24 would carry.
    for size in (22, 23):
        top = tuple(range(size, 0, -1))
        words = [top, tuple(range(1, size + 1)), top[1:] + top[:1]] * 100
        assert _packed_lengths(words) == list(map(length_s, words))
    with pytest.raises(ValueError):
        _packed_lengths([tuple(range(24, 0, -1))])


def _packed_cycles(words):
    return list(itertools.chain.from_iterable(map(_pack_cycles, _packs(words))))


def test_packed_cycles_match_cycle_count():
    # Every word of S_n (n <= 8); streams that end in a full pack, a short
    # one or one of a single word; 257 words of degree 20, the identity (20
    # cycles) and a 20-cycle first; and every inverse pack of A_n (n <= 9),
    # packed from the inverses as a pass packs them.
    cases = [list(iter_symmetric(n)) for n in range(1, 9)]
    cases += [cases[6][-k:] for k in (1, 255, 256, 257)]
    rng = random.Random(2020)
    cases += [[tuple(range(1, 21)), tuple(range(2, 21)) + (1,)]
              + [tuple(rng.sample(range(1, 21), 20)) for _ in range(255)]]
    for words in cases:
        assert _packed_cycles(words) == list(map(cycle_count, words))
    for n in range(1, 10):
        for pack in _element_packs("A", n):
            inverses = [inverse(tuple(w)) for w in _words(pack)]
            assert list(_pack_cycles(_pack(list(map(bytes, inverses)), n))) == list(
                map(cycle_count, inverses)), n


def test_folds_match_h_map():
    # The hat columns' folds, a chunk at a time: per j, every word of the
    # chunk is folded, in order, and each fold is h_map's, which moves the
    # words whose inverse descends at j and keeps the rest.
    for n in range(1, 9):
        js = range(1, n)
        folds, elements = _folds(js), list(iter_alternating(n))
        for start in range(0, len(elements), _CHUNK):
            chunk = elements[start:start + _CHUNK]
            inverses = _pack(list(map(bytes, map(inverse, chunk))), n)
            columns = folds(list(map(bytes, chunk)), inverses)
            for j, folded in itertools.zip_longest(js, columns):
                assert folded == [bytes(h_map(v, j)) for v in chunk]


def test_ltr_minima_examples():
    w = (3, 2, 7, 8, 4, 6, 1, 5)
    assert ltr_minima(w, 0, EXCLUDE_FIRST_POSITIONS) == {2, 7}
    assert ltr_minima(w, 0, EXCLUDE_SMALLEST_VALUES) == {1, 2}
    for level in range(3):
        for kind in BOTH_KINDS:
            assert ltr_minima(identity(6), level, kind) == set()
    with pytest.raises(ValueError):
        ltr_minima(w, 0, "bogus")


def test_ltr_minima_match_counting_every_small_permutation():
    for n in range(8):
        for p in iter_symmetric(n):
            for level in range(4):
                for kind in BOTH_KINDS:
                    assert ltr_minima(p, level, kind) == ltr_minima_by_counting(p, level, kind)
    # Nothing checks that the input is a permutation: repeated values count
    # as the definition counts them.
    assert ltr_minima((2, 1, 1), 0) == ltr_minima_by_counting((2, 1, 1), 0) == {2, 3}
    for n in range(7):
        for word in itertools.product(range(1, 5), repeat=n):
            for level in range(4):
                for kind in BOTH_KINDS:
                    assert ltr_minima(word, level, kind) == ltr_minima_by_counting(word, level, kind)


@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))),
       st.integers(0, 13), st.sampled_from(BOTH_KINDS))
def test_ltr_minima_match_counting(p, level, kind):
    p = tuple(p)
    assert ltr_minima(p, level, kind) == ltr_minima_by_counting(p, level, kind)


def test_del_examples():
    w = eval_s_letters(4, parse_s_letters("s1 s2 s1 s3"))
    assert del_s(w) == 2
    assert del_s(identity(5)) == 0
    assert del_s((3, 5, 4, 2, 1)) == 2
    assert del_set_s((3, 5, 4, 2, 1)) == {4, 5}
    assert length_s((3, 5, 4, 2, 1)) - length_a((3, 5, 4, 2, 1)) == 2


def test_del_a_examples():
    v = eval_a_letters(5, parse_a_letters("a1^-1 a2 a1 a3 a2 a1^-1"))
    assert del_a(v) == 3
    assert del_a(identity(5)) == 0
    assert del_a((3, 5, 4, 2, 1)) == 3


def test_length_a_examples():
    assert length_a((3, 5, 4, 2, 1)) == 6
    assert length_a(identity(5)) == 0
    # one alternating letter costs two swaps
    a1 = eval_a_letters(3, [(1, False)])
    assert length_a(a1) == 1 and length_s(a1) == 2


def test_des_set_a_examples():
    assert des_set_a(identity(5)) == set()
    v = (3, 5, 4, 2, 1)
    assert des_set_a(v) == des_set_s(f_map(v)) == {1, 2, 3}
    assert rmaj_a(v, 4) == (4 - 1) + (4 - 2) + (4 - 3)


def test_des_set_a_matches_comparison_definition():
    for m in range(2, 7):
        for v in iter_alternating(m):
            assert des_set_a(v) == des_set_a_by_comparison(v)


def test_length_difference_identity():
    for m in range(1, 8):
        for v in iter_alternating(m):
            assert length_a(v) == length_s(v) - del_s(v)


def test_del_counts_minima_of_inverse_and_self():
    for n in range(1, 7):
        for w in iter_symmetric(n):
            d = del_s(w)
            assert d == del_s(inverse(w))
            for kind in BOTH_KINDS:
                assert len(ltr_minima(w, 0, kind)) == d
                assert len(ltr_minima(inverse(w), 0, kind)) == d
            assert len(del_set_s(w)) == d


def test_del_a_counts_near_minima():
    for m in range(2, 8):
        for v in iter_alternating(m):
            d = del_a(v)
            assert d == del_a(inverse(v))
            for kind in BOTH_KINDS:
                assert len(ltr_minima(v, 1, kind)) == d
                assert len(ltr_minima(inverse(v), 1, kind)) == d
            assert len(del_set_a(v)) == d


def test_level_counts_match_generator_occurrences():
    for n in range(2, 7):
        for w in iter_symmetric(n):
            word = s_canonical(w)
            for level in range(0, min(4, n - 1)):
                occ = occurrences_s(word, level + 1)
                for kind in BOTH_KINDS:
                    assert len(ltr_minima(w, level, kind)) == occ


def test_minima_positions_mark_full_factors():
    for n in range(2, 7):
        for w in iter_symmetric(n):
            expected = {i + 1 for i, e in enumerate(epsilon_s(w), start=1) if e}
            assert ltr_minima(inverse(w), 0, EXCLUDE_FIRST_POSITIONS) == expected


def test_h_map_examples():
    assert h_map(identity(4), 2) == identity(4)
    assert hat_ell(identity(4), 2) == 0
    assert h_map((2, 3, 1), 1) == (1, 3, 2)
    assert hat_ell((2, 3, 1), 1) == 1
    assert h_map((3, 1, 2), 1) == (3, 1, 2)
    assert hat_ell((3, 1, 2), 1) == 2
    assert hat_maj((2, 3, 1), 1) == maj_s((1, 3, 2))
    with pytest.raises(ValueError):
        h_map((2, 1), 2)


@given(st.integers(2, 10).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)), st.integers(1, n - 1))
))
def test_h_map_matches_relabelling(case):
    p, i = tuple(case[0]), case[1]
    assert h_map(p, i) == h_map_by_relabelling(p, i)


def test_h_map_is_two_to_one_onto_ascents():
    for n in range(2, 6):
        for i in range(1, n):
            image = {h_map(p, i) for p in iter_symmetric(n)}
            expected = {p for p in iter_symmetric(n) if i not in des_set_s(inverse(p))}
            assert image == expected
            s_i = adjacent_transposition(n, i)
            for q in expected:
                fibre = {p for p in iter_symmetric(n) if h_map(p, i) == q}
                assert fibre == {q, compose(s_i, q)}


def test_stat_profile_consistency():
    for p, group, n in [((2, 5, 4, 1, 3), "S", 5), ((3, 5, 4, 2, 1), "A", 4)]:
        prof = stat_profile(p, group)
        assert isinstance(prof, StatProfile)
        assert prof.n == n
        assert prof.des == len(prof.des_set)
        assert prof.maj == sum(prof.des_set)
        assert prof.rmaj == sum(prof.n - i for i in prof.des_set)
        assert prof.delent == len(prof.del_set) == sum(prof.epsilon)
    assert stat_profile((2, 5, 4, 1, 3), "S").length == 6
    assert stat_profile((2, 5, 4, 1, 3), "S").delent == 1
    with pytest.raises(ValueError):
        stat_profile((2, 1, 3), "A")
    with pytest.raises(ValueError):
        stat_profile((2, 1, 3), "B")


def test_profile_json_shape():
    payload = profile_to_json(stat_profile(identity(3), "S"))
    assert payload == {
        "group": "S",
        "n": 3,
        "length": 0,
        "des": 0,
        "des_set": [],
        "maj": 0,
        "rmaj": 0,
        "del": 0,
        "del_set": [],
        "epsilon": [0, 0],
    }
