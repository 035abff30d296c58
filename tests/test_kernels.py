"""The pull kernels against statistics computed without them.

Every expected value here comes from the one-line word (inversion counts,
left-to-right minima, descents by length comparison) or from multiplying a
word back out, and every group is enumerated by filtering all permutations,
so a fault in ``s_pull``, ``a_pull`` or ``iter_alternating`` cannot cancel.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter, deque

import pytest

from oracles import des_set_a_by_comparison
from permstat import stats, words
from permstat.perm import cycle_count, inverse, iter_alternating, iter_symmetric, sign
from permstat.stats import (
    EXCLUDE_FIRST_POSITIONS,
    del_a,
    del_s,
    del_set_s,
    des_a,
    des_s,
    des_set_a,
    des_set_s,
    genfun,
    hat_ell,
    hat_maj,
    histograms,
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
    indicators,
    occurrences,
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


# Generators 1..7: every index of S_8 and A_8, and above a smaller group's,
# where no run passes and every step leaves the count as it is.
_OCCURRENCES = tuple(f"occ{k}" for k in range(1, 8))


def _record_fields(record, fields):
    """The named pass fields of a kernel record, read off the record itself; the
    projection as bytes, as a pass and a table hold it."""
    mask = sum(bit << j for j, bit in enumerate(indicators(record[2])))
    values = {"length": record[0], "delent": record[1],
              "proj": bytes(record[3]) if len(record) > 3 else None,
              "ind": mask, **{f: occurrences(record[2], int(f[3:]))
                              for f in fields if f.startswith("occ")}}
    return tuple(values[f] for f in fields)


@pytest.mark.parametrize("bound", [None, 12])
def test_pass_records_equal_kernel_records(monkeypatch, bound):
    # A pass builds one table, of every word of its top degree: the largest
    # below the group's whose words fit, and at least 3, or the group's own
    # degree from 3 down.  It builds it up by the pull's step from the one
    # word of degree 1 in S or 2 in A, and calls no kernel at any degree, so
    # every record here is checked against a path apart from the pass's.
    # Unbounded, every group here is at most one
    # value above its top table; bounded at 12 records, the tables are of
    # degree 3 in S and 4 in A, so S_5..S_8 and A_6..A_8 take several steps
    # before they look up.  A pass reads the fields its rows name, so every
    # field is asked for here: the indicator mask, with bit j - 1 for factor
    # j, and the occurrence count of each generator.  It has no field for
    # the factor starts or ends themselves, nor for the inverted tails of an
    # A record, which no row reads.  Each key is led by the element's
    # inverse, from which the element is recovered.
    if bound is not None:
        monkeypatch.setattr(words, "_HELD_RECORDS", bound)
    tables, table = [], words._table
    monkeypatch.setattr(stats, "_table", lambda *args: tables.append(table(*args)) or tables[-1])
    for group, kernel, name, most, words_of, fields in (
            ("S", s_pull, "s_pull", 3 if bound else 7, _perms,
             ("length", "delent", "ind", *_OCCURRENCES)),
            ("A", a_pull, "a_pull", 4 if bound else 7, _evens,
             ("length", "delent", "ind", *_OCCURRENCES, "proj"))):
        pulled = []
        monkeypatch.setattr(words, name, lambda w, kernel=kernel: pulled.append(w) or kernel(w))
        for n in range(1, 9):  # S_n, and A_n as the group "A" of degree n - 1
            pulled.clear()
            tables.clear()
            (records,), count = histograms(group, n if group == "S" else n - 1,
                                              [("inverse", *fields)])
            assert sum(records.values()) == count == len(records)
            for pinv, *rec in records:
                p = inverse(tuple(pinv))
                assert tuple(rec) == _record_fields(kernel(p), fields), (group, p)
            # One table, which holds every word of its degree once, each with
            # its own fields; no word reaches the kernels.
            # A record is one bytes value: below degree 10 each field is one
            # byte at its offset, in the order named, and "proj" its letters.
            (top, held), = tables
            assert top == (n if n <= 3 else min(n - 1, most)), (group, n)
            assert sorted(held) == sorted(map(bytes, words_of(top))), (group, n)
            assert all(rec == b"".join(v if f == "proj" else bytes((v,)) for f, v in zip(
                fields, _record_fields(kernel(w), fields))) for w, rec in held.items()
                       ), (group, n)
            assert pulled == [], (group, n)


@pytest.mark.parametrize("bound", [None, 12])
def test_pass_reads_inverse_records_through_its_table(monkeypatch, bound):
    # A row may name fields of each element's inverse.  The pass reads them
    # through the same table and steps as the element's own, and they equal
    # the kernel's record of the inverse.  The element is the inverse of its
    # inverse, and the elements so recovered are the whole group.
    if bound is not None:
        monkeypatch.setattr(words, "_HELD_RECORDS", bound)
    fields = ("inverse", "delent", "inverse-length", "inverse-delent", "inverse-proj",
              "inverse-ind", "inverse-occ1", "inverse-occ2")
    for m in range(1, 8):
        (records,), count = histograms("A", m - 1, [fields])
        assert sum(records.values()) == count == len(records) == len(_evens(m))
        elements = {vinv: inverse(tuple(vinv)) for vinv, *_ in records}
        assert sorted(elements.values()) == sorted(_evens(m))
        for vinv, delent, *theirs in records:
            v = elements[vinv]
            assert tuple(vinv) == inverse(v) and delent == a_pull(v)[1], v
            assert tuple(theirs) == _record_fields(a_pull(vinv), (
                "length", "delent", "proj", "ind", "occ1", "occ2")), v


def _stepped(group, ws, held, fields):
    """The pass columns of the words ws, a pack of at most ``_CHUNK`` at a time; the
    projections as bytes."""
    out = [[] for _ in fields]
    for pack in words._packs(ws):
        for f, col, got in zip(fields, out, words._columns(group, pack, held, fields)):
            col.extend(words._words(got) if f == "proj" else got)
    return out


@pytest.mark.parametrize("group, n_max", [("S", 8), ("A", 9)])
def test_packed_step_fields_equal_kernel_records(monkeypatch, group, n_max):
    # The step pulls the top value out of a whole pack of words at once, and
    # a word stays at its pack's stride through every step down to the table.
    # Unbounded, every group here is at most two values above its top table;
    # bounded at 12 and 24 records, the tables are of degree 3 or 4, so the
    # words of degree 8 and 9 take four or five steps at a stride above their
    # degree.  Every field of every word equals the kernel's record, on the
    # whole group and on streams of 1, 255, 256 and 257 words (a pack of 256
    # and one of 1) from its first, middle and last words, which hold the top
    # value at slot d - 1 (first) and 0 (last), and at slots where the step's
    # parity swap in A runs and where it does not.
    kernel, words_of = (s_pull, _perms) if group == "S" else (a_pull, _evens)
    unbounded = words._HELD_RECORDS
    fields = ["length", "delent", "ind", *_OCCURRENCES] + (["proj"] if group == "A" else [])
    for n in range(1, n_max + 1):
        ws = list(words_of(n))
        expected = [list(col) for col in zip(*(_record_fields(kernel(w), fields) for w in ws))]
        streams = [(ws, expected)]
        for k in (1, 255, 256, 257):
            for start in {0, len(ws) // 2, max(0, len(ws) - k)}:
                streams.append((ws[start:start + k], [col[start:start + k] for col in expected]))
        slots = {w.index(n) for stream, _ in streams[1:] for w in stream}
        assert n < 3 or {0, n - 1} <= slots and {(n - 1 - r) & 1 for r in slots} == {0, 1}
        degree = n if group == "S" else n - 1
        for bound in (None, 12, 24):
            monkeypatch.setattr(words, "_HELD_RECORDS", bound or unbounded)
            held = words._table(group, n, fields)
            assert held[0] == (n if n <= 3 else min(n - 1, 7 if bound is None else
                                                    3 + (group == "A" or bound == 24))), n
            for stream, want in streams:
                assert _stepped(group, stream, held, fields) == want, (group, n, bound)
            if bound is None:  # the pass reads the same fields the same way
                (records,), _ = histograms(group, degree, [("inverse", *fields)])
                assert Counter({(inverse(tuple(winv)), *rec): c for (winv, *rec), c in
                                records.items()}) == Counter(zip(ws, *expected)), (group, n)


@pytest.mark.parametrize("group", ["S", "A"])
def test_wide_fields_step_through_the_default_table(group):
    # A record's indicator mask takes the bytes that hold bits 0 to degree - 2:
    # one up to degree 9, two from 10 to 17 and four from 18, read as one lane
    # per word.  An S length reaches 190 at degree 20, in the reversal.
    # Streams of 257 words (a pack of 256 and one of 1) of degrees 12 and 20,
    # and at each width's ends, the identity and the reversal first, step
    # through the default table of degree 7, and every field equals the
    # kernel's record.  At 24 letters a length could overflow its byte, so
    # the step refuses.
    kernel = s_pull if group == "S" else a_pull
    rng = random.Random(1220)
    for n, ind in ((9, 1), (10, 2), (12, 2), (17, 2), (18, 4), (20, 4)):
        fields = ["length", "delent", "ind", *(f"occ{k}" for k in range(1, n))]
        fields += ["proj"] if group == "A" else []
        stream = [list(range(1, n + 1)), list(range(n, 0, -1))]
        stream += [rng.sample(range(1, n + 1), n) for _ in range(255)]
        for w in stream:  # in A, an odd word swaps its first two letters
            if group == "A" and sign(w) < 0:
                w[0], w[1] = w[1], w[0]
        stream = list(map(tuple, stream))
        held = words._table(group, n, fields)
        assert held[0] == 7
        assert {len(rec) for rec in held[1].values()} == {
            len(fields) - 1 + ind + (5 if group == "A" else 0)}, (group, n)
        cols = words._columns(group, next(words._packs(stream)), held, fields)
        assert memoryview(cols[fields.index("ind")]).itemsize == ind, (group, n)
        got = _stepped(group, stream, held, fields)
        assert got == [list(col) for col in zip(*(_record_fields(kernel(w), fields)
                                                  for w in stream))], (group, n)
        # The second word is longest: 66 and 190 in S, 55 and 171 in A.
        assert max(got[0]) == got[0][1] == (n - (group == "A")) * (n - 1 - (group == "A")) // 2
    with pytest.raises(ValueError):
        _stepped(group, [tuple(range(24, 0, -1))], words._table(group, 24, fields), fields)


def test_table_builds_step_a_chunk_at_a_time(monkeypatch):
    # The table of each degree is built from the one below, a pack of at most
    # ``_CHUNK`` words at a time: no build steps more words at once.
    columns, stepped = words._columns, []

    def counted(group, pack, held, fields):
        if pack[0] > held[0]:
            stepped.append(pack[2] // pack[1])
        return columns(group, pack, held, fields)

    monkeypatch.setattr(words, "_columns", counted)
    for group, degree in (("S", 8), ("A", 9)):
        stepped.clear()
        top, table = words._table(group, degree, ["length", "delent"])
        assert top == 7 and len(table) == (5_040 if group == "S" else 2_520)
        assert max(stepped) == words._CHUNK, group
        # Every word of degree 2 (S) or 3 (A) to 7 took one step as its degree's
        # table was built, up from the one word of degree 1 or 2.
        assert sum(stepped) == sum(math.factorial(d) // (1 if group == "S" else 2)
                                   for d in range(2 if group == "S" else 3, 8)), group


def _pack_words(pack):
    return list(map(tuple, words._words(pack)))


def test_inserted_packs_equal_tuple_insertion():
    # ``_inserted`` lays out each word of a pack with d + 1 put in at slot i,
    # at stride d + 1, from the pack's bytes alone.  At every slot it equals
    # tuple insertion, on streams of 1, 255, 256 and 257 words (a pack of 256
    # and one of 1) of [n]^n for n <= 5, where letters repeat, and of S_n for
    # n <= 7, each stream running through its words again where it has fewer.
    cases = [list(itertools.product(range(1, n + 1), repeat=n)) for n in range(1, 6)]
    cases += [list(_perms(n)) for n in range(1, 8)]
    for ws in cases:
        d = len(ws[0])
        for k in (1, 255, 256, 257):
            stream = list(itertools.islice(itertools.cycle(ws), k))
            for i in range(d + 1):
                packs = [words._inserted(pack, i) for pack in words._packs(stream)]
                assert [pack[:3] for pack in packs] == [
                    (d + 1, d + 1, (d + 1) * len(chunk)) for chunk in (stream[:256], stream[256:])
                    if chunk], (d, k, i)
                assert [w for pack in packs for w in _pack_words(pack)] == [
                    w[:i] + (d + 1,) + w[i:] for w in stream], (d, k, i)


@pytest.mark.parametrize("group", ["S", "A"])
def test_element_packs_are_the_lexicographic_enumeration(group):
    # A pass reads its group as packs cut from one block of the words of the
    # last min(degree, 6) letters, relabelled for each prefix of the first
    # letters; in A each prefix's parity picks the even block or the odd one.
    # Degrees 7 to 9 take prefixes of one to three letters, and equal the
    # public enumeration.  Degree 10 takes prefixes of four: its first and
    # last three packs are checked against all the permutations, in
    # lexicographic order from either end, filtered by sign.  Every pack
    # holds _CHUNK words but the last, which holds at least one.
    elements = iter_symmetric if group == "S" else iter_alternating
    heads, ends = [], deque(maxlen=3)
    for degree in range(1, 11):
        expected, sizes = elements(degree), []
        for pack in words._element_packs(group, degree):
            assert pack[:2] == (degree, degree) and pack[2] % degree == 0
            sizes.append(pack[2] // degree)
            if degree < 10:
                assert _pack_words(pack) == list(itertools.islice(expected, sizes[-1])), degree
            elif len(sizes) <= 3:
                heads += _pack_words(pack)
            ends.append(pack)
        assert sizes[:-1] == [words._CHUNK] * (len(sizes) - 1) and sizes[-1] > 0, degree
        assert sum(sizes) == (math.factorial(degree) // (1 if group == "S" else 2) or 1)
        assert degree == 10 or next(expected, None) is None, degree
    tails = [w for pack in ends for w in _pack_words(pack)]

    def members(perms):
        return [p for p in perms if group == "S" or sign(p) == 1]
    assert heads == members(itertools.islice(_perms(10), 2 * len(heads)))[:len(heads)]
    assert tails == members(itertools.islice(itertools.permutations(range(10, 0, -1)),
                                             2 * len(tails)))[:len(tails)][::-1]


def test_element_packs_hold_one_pack_whatever_the_order():
    # Walking every pack of A_10, after a warm walk and a full collection,
    # holds one block per parity, a pack and the relabelled words not yet cut:
    # 15,643 B on Python 3.11, so about 1.25 times that, and the same ceiling
    # for A_8, which has 1/90 of the elements.
    import gc
    import tracemalloc

    for degree in (10, 8):
        for _ in words._element_packs("A", degree):
            pass
        gc.collect()
        tracemalloc.start()
        try:
            walked = sum(pack[2] for pack in words._element_packs("A", degree)) // degree
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert walked == math.factorial(degree) // 2
        assert peak < 20_000, degree


_DESCENT_COLUMNS = ("maj", "rmaj", "des", "desmask")


@pytest.mark.parametrize("bound", [None, 12])
@pytest.mark.parametrize("group", ["S", "A"])
def test_descent_columns_equal_public_statistics(monkeypatch, group, bound):
    # The pass reads the descents of each element, and of its inverse, off
    # its one-line word in S and off its projection in A, one comparison key
    # per word.  Each column equals the public statistic of the element, or
    # of its inverse for an "inverse-" column; "desmask" sets bit i for a
    # descent at i.  Bounded at 12 records, the A projections come through a
    # table of degree 4 and several steps.  The element is the inverse of its
    # inverse, and the elements so recovered are the whole group.
    if bound is not None:
        monkeypatch.setattr(words, "_HELD_RECORDS", bound)
    if group == "S":
        n_max, stats_of = 7, (maj_s, rmaj_s, des_s, des_set_s)
    else:
        n_max, stats_of = 6, (maj_a, rmaj_a, des_a, des_set_a)
    maj, rmaj, des, des_set = stats_of
    columns = (*_DESCENT_COLUMNS, *("inverse-" + c for c in _DESCENT_COLUMNS))
    for n in range(1, n_max + 1):
        (records,), count = histograms(group, n, [("inverse", *columns)])
        assert sum(records.values()) == count == len(records)
        elements = {pinv: inverse(tuple(pinv)) for pinv, *_ in records}
        assert sorted(elements.values()) == sorted(_perms(n) if group == "S" else _evens(n + 1))
        for pinv, *values in records:
            p = elements[pinv]
            assert tuple(pinv) == inverse(p)
            assert values == [f(w) for w in (p, pinv) for f in (
                maj, lambda w: rmaj(w, n), des, lambda w: sum(1 << i for i in des_set(w)))], p


@pytest.mark.parametrize("bound", [None, 12])
@pytest.mark.parametrize("group", ["S", "A"])
def test_element_and_fold_columns_equal_public_functions(monkeypatch, group, bound):
    # "cycles" and "minmask" are computed off each element's one-line word,
    # and their "inverse-" forms off its inverse's: cycle_count, and bit i
    # for each position of ltr_minima at level 0 in S and 1 in A, first
    # positions excluded.  "hat-length<j>" and "hat-maj<j>" are hat_ell and
    # hat_maj of the element at j, for every j of its degree.  "delent" comes
    # through the table, of degree 4 in A when bounded at 12 records.
    if bound is not None:
        monkeypatch.setattr(words, "_HELD_RECORDS", bound)
    level, n_max = (0, 7) if group == "S" else (1, 5)

    def minmask(w):
        return sum(1 << i for i in ltr_minima(w, level, EXCLUDE_FIRST_POSITIONS))
    for n in range(1, n_max + 1):
        js = range(1, n if group == "S" else n + 1)
        columns = ("cycles", "minmask", "inverse-cycles", "inverse-minmask", "delent",
                   *(f"hat-{s}{j}" for j in js for s in ("length", "maj")))
        (records,), count = histograms(group, n, [("inverse", *columns)])
        assert sum(records.values()) == count == len(records)
        elements = {pinv: inverse(tuple(pinv)) for pinv, *_ in records}
        assert sorted(elements.values()) == sorted(_perms(n) if group == "S" else _evens(n + 1))
        delent = del_s if group == "S" else del_a
        for pinv, *values in records:
            p = elements[pinv]
            assert values == [f(w) for w in (p, tuple(pinv)) for f in (cycle_count, minmask)] + [
                delent(p), *(h(p, j) for j in js for h in (hat_ell, hat_maj))], p


def test_passes_that_read_no_field_pull_nothing(monkeypatch):
    from permstat import identities

    # A pass that reads a record field builds its pull table first.
    def no_pull(*args, **kwargs):
        raise AssertionError("a pass that reads no record field pulled")

    monkeypatch.setattr(words, "_table", no_pull)
    monkeypatch.setattr(stats, "_table", no_pull)
    tallies, _ = identities._tally_passes(
        [("S", 6, key) for key in (("cycles",), ("inversions", "zero"), ("maj", "zero"),
                                   *identities._DESCENT_CLASS,
                                   (*identities._INVERSE_MASKS, "rmaj"),
                                   (*identities._INVERSE_MASKS, "inversions"))]
        + [("A", 5, (f"hat-{s}{j}",)) for j in (1, 2, 3, 4, 5) for s in ("length", "maj")])
    assert all(count == (720 if col[0] == "S" else 360) for col, (_, count) in tallies.items())
    with pytest.raises(AssertionError, match="pulled"):
        identities._tally_passes([("S", 6, ("zero", "delent"))])


def test_cycle_column_reads_no_record(monkeypatch):
    # The cycle counts are a third path: each word's own letters, stepped
    # down a value at a time, with no record, table, pull step or slot plan.
    def broken(*args, **kwargs):
        raise AssertionError("the cycle column read the pull")

    for module in (words, stats):
        monkeypatch.setattr(module, "_columns", broken)
        monkeypatch.setattr(module, "_table", broken)
    monkeypatch.setattr(words, "_PLANS", None)
    (cycles, theirs), count = histograms("S", 6, [("cycles",), ("inverse-cycles",)])
    assert count == 720 and cycles == theirs == Counter(map(cycle_count, _perms(6)))


def test_records_lay_planes_side_by_side():
    # Each word's record is its bytes of each plane in turn, a plane of two
    # bytes a word, such as a wide "ind", giving both.
    planes = [b"ab", bytearray(b"\x01\x02\x03\x04"), b"wxyz"]
    assert words._records(planes, 2) == (b"a\x01\x02wx", b"b\x03\x04yz")
    for planes in ([b"abc"], [b"ab", b""], [b"abcd", b"a"]):
        with pytest.raises(ValueError, match="whole values for 2 words"):
            words._records(planes, 2)


def test_plus_keeps_each_slot_lists_own_translation():
    # ``_plus`` keeps the translation of each slot list that it has read, keyed
    # by the list's values: after a call with the plan's list, a different
    # list for the same field gives that list's plane, and the plan's list
    # gives its own again.  A test that patches a plan list sees its patch.
    plan = words._PLANS["S", 5]["delent"]
    other = [v + 1 for v in plan]
    counts = bytes([4, 3, 2, 1, 0, 0, 4])  # d - 1 - slot, for d = 5
    plane = bytes(range(10, 17))
    for slots in (plan, other, plan):
        assert words._plus(plane, slots, counts) == bytes(
            x + slots[4 - c] for x, c in zip(plane, counts)), slots
    ind = words._PLANS["S", 10]["ind"]  # 1 << 8 at slot 0, in each lane's second byte
    wide = memoryview(bytearray(6)).cast("H")
    assert list(words._plus(wide, ind, bytes([9, 0, 5]))) == [256, 0, 0]


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


# SHA-256 of ``json.dumps(genfun(...).to_json(), sort_keys=True)``, recorded
# before genfun and the registry shared one (q, t) row maker.  S_8 and A_8
# take one step above the top table of degree 7.
GENFUN_DIGESTS = {
    ("S", 8, "length", "del", False):
        "79706972cbfb023a62320989c6808b260f33604faa2ad7fb0ba1b34e84759651",
    ("S", 8, "length", "none", False):
        "645fa838ba66c598ed00cec3eb9cb8e4227ead64f556e80fb4070ba9e818c571",
    ("S", 8, "length", "del", True):
        "c28713e1b5f39ccdda9c4013fd8c6563043c8d039a03a08ae4c3d9a7a3c5ee5f",
    ("S", 8, "maj", "del", False):
        "f6183b04ba5e6a06f7a637bbabf7baaf4787c4ec09172f4c9ee4033d7a53f4dd",
    ("S", 8, "maj", "none", False):
        "645fa838ba66c598ed00cec3eb9cb8e4227ead64f556e80fb4070ba9e818c571",
    ("S", 8, "maj", "del", True):
        "48bc1176a5197cce0c120880bb9e8bc61d4ef3c228819df4efcced00022515b2",
    ("S", 8, "rmaj", "del", False):
        "79706972cbfb023a62320989c6808b260f33604faa2ad7fb0ba1b34e84759651",
    ("S", 8, "rmaj", "none", False):
        "645fa838ba66c598ed00cec3eb9cb8e4227ead64f556e80fb4070ba9e818c571",
    ("S", 8, "rmaj", "del", True):
        "c28713e1b5f39ccdda9c4013fd8c6563043c8d039a03a08ae4c3d9a7a3c5ee5f",
    ("A", 7, "length", "del", False):
        "d9faa93fa33816b88246266b8ff8b5a744728f61bf3815bcfe4b06d7e158222a",
    ("A", 7, "length", "none", False):
        "2f720eb7b1b1b87f24dd4459297d7b66621004d16b67a5d5131e8c137f586d35",
    ("A", 7, "length", "del", True):
        "e6f95f5fde9a0a4c0ef79afa84ecc80a15e642b4e1da647371a7d6dce8fa72ba",
    ("A", 7, "maj", "del", False):
        "9ec37cccb4ee3afd7261f6ae1a7521dd8b2307ef1122b4d46b0b32cbf9f293cf",
    ("A", 7, "maj", "none", False):
        "61c21ac87f9fa109d57204810a4c76d63df7abd117f438fe7aca6142e12ece6e",
    ("A", 7, "maj", "del", True):
        "e775fbfa9995164c636775f2e01ca60fa2138d56ad88ae1cc05359eec1d5582b",
    ("A", 7, "rmaj", "del", False):
        "d9faa93fa33816b88246266b8ff8b5a744728f61bf3815bcfe4b06d7e158222a",
    ("A", 7, "rmaj", "none", False):
        "2f720eb7b1b1b87f24dd4459297d7b66621004d16b67a5d5131e8c137f586d35",
    ("A", 7, "rmaj", "del", True):
        "e6f95f5fde9a0a4c0ef79afa84ecc80a15e642b4e1da647371a7d6dce8fa72ba",
}


def test_genfun_above_the_top_table_is_pinned():
    digests = {args: hashlib.sha256(json.dumps(genfun(*args).to_json(), sort_keys=True)
                                    .encode()).hexdigest() for args in GENFUN_DIGESTS}
    assert digests == GENFUN_DIGESTS


@pytest.mark.parametrize("group, n", [("S", 5), ("A", 4)])
def test_keys_with_zero_columns_tally_as_their_zips(group, n):
    # A zip key with "zero" columns tallies its other columns, bare when one
    # is left, and gets its zeros back: each histogram equals the tally of
    # the key's own zip, or of its bare column when it names one, recounted
    # here from one key of every column, led by the element's inverse.
    keys = [("inversions", "zero"), ("zero", "delent"), ("zero", "maj", "zero"),
            ("delent", "zero", "rmaj"), ("zero", "zero"), ("maj",), ("zero",),
            ("length", "delent")]
    fields = list(dict.fromkeys(f for key in keys for f in key))
    hists, _ = histograms(group, n, [*keys, ("inverse", *fields)])
    zipped, records = hists[:-1], hists[-1]
    elements = [dict(zip(fields, values)) for _, *values in records.elements()]
    tallies = tuple(Counter(e[key[0]] if len(key) == 1 else tuple(map(e.get, key))
                            for e in elements) for key in keys)
    assert zipped == tallies and all(type(hist) is Counter for hist in zipped)
    if group == "S":
        assert zipped[0] == Counter((length_s(p), 0) for p in _perms(n))


def test_genfun_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least 1"):
        genfun("S", 0)
    with pytest.raises(ValueError, match="needs --t-stat del"):
        genfun("S", 3, t_stat="none", multivar=True)
    with pytest.raises(ValueError, match="unknown statistic"):
        genfun("A", 3, q_stat="des")
    with pytest.raises(ValueError, match="unknown group"):
        genfun("B", 3)
