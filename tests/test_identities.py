import hashlib
import itertools
import json
import operator
import pickle
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (fiber_size_by_lifts, lemma63_by_slicing, lemma64_by_slicing,
                     lemma65_by_slicing, remark66_by_slicing)
from permstat import identities
from permstat.identities import (
    CapExceeded,
    IdentityEntry,
    REGISTRY,
    list_identities,
    plan,
    run,
    verify,
)
from permstat.perm import inverse, iter_alternating, iter_symmetric
from permstat.qpoly import MultiPoly
from permstat.stats import (
    EXCLUDE_FIRST_POSITIONS,
    des_set_a,
    des_set_s,
    length_a,
    length_s,
    ltr_minima,
    maj_a,
    maj_s,
    rmaj_a,
    rmaj_s,
)

SPEC_NAMES = {
    "macmahon",
    "fs-fixed-descent",
    "fs-rmaj",
    "thm61-s",
    "thm61-a",
    "thm62-s",
    "thm62-a",
    "prop56",
    "prop57-stirling-s",
    "prop57-stirling-a",
    "prop510-multivar-s",
    "prop510-multivar-a",
    "prop511-multivar",
    "prop712-sk-occurrences",
    "lemma63",
    "lemma64",
    "lemma65",
    "remark66",
    "prop67",
    "prop81",
    "lemma86",
    "lemma87",
    "lemma93",
    "garsia-gessel",
    "main-s",
    "main-a",
    "cor92-s",
    "cor92-a",
    "fiber-size",
    "appendix-hat",
}


def mono(c=1, q=0, t=0):
    return MultiPoly.monomial(c, q=q, t=t)


def test_catalog_is_complete():
    names = {e.name for e in list_identities()}
    assert names == SPEC_NAMES
    for e in list_identities():
        assert e.description
        assert "n" in e.params
        assert e.min_n <= e.default_cap


def test_staircase_instance_symmetric():
    # hand-enumerated bivariate distribution over the six degree-3 elements
    expected = mono(1) + mono(1, q=1) + mono(1, q=1, t=1) + mono(2, q=2, t=1) + mono(1, q=3, t=2)
    subparams, lhs, rhs, _ = next(iter(REGISTRY["thm61-s"].check(3)))
    assert subparams == {"side": "length"}
    assert MultiPoly(*lhs) == expected and MultiPoly(*rhs) == expected
    report = verify("thm61-s", 3)
    assert report.passed
    assert report.lhs == expected + expected  # both sides aggregated


def test_staircase_instance_alternating():
    # the three even degree-3 elements: identity and the two 3-cycles
    expected = mono(1) + mono(2, q=1, t=1)
    _, lhs, rhs, _ = next(iter(REGISTRY["thm61-a"].check(2)))
    assert MultiPoly(*lhs) == expected and MultiPoly(*rhs) == expected
    assert verify("thm61-a", 2).passed


def test_folded_instance():
    expected = mono(1) + mono(1, q=1) + mono(1, q=2)
    _, lhs, rhs, _ = next(iter(REGISTRY["appendix-hat"].check(3, i=1)))
    assert MultiPoly(*lhs) == expected and MultiPoly(*rhs) == expected


def test_whole_registry_small():
    for entry in list_identities():
        n = max(entry.min_n, min(entry.default_cap, 3))
        report = verify(entry.name, n)
        assert report.passed, (entry.name, report.params)
        assert report.lhs == report.rhs
        assert report.elements_scanned > 0
        assert report.identity == entry.name
        assert report.params["n"] == n


def test_checkpoint_sides_are_well_formed():
    # Sides are plain (arity, terms) pairs; check what the constructor would.
    # A report keeps one running total, which needs one arity for both sides
    # of every checkpoint of an entry (prop712 at n = 1 yields none).
    for entry in list_identities():
        for n in range(entry.min_n, min(entry.min_n + 2, 4) + 1):
            arities = set()
            for _sub, lhs, rhs, _cnt in entry.check(n):
                assert lhs[0] == rhs[0], entry.name
                arities.add(lhs[0])
                for arity, terms in (lhs, rhs):
                    assert terms == MultiPoly(arity, terms).terms, entry.name
                    assert all(
                        len(e) == 2 + arity and min(e) >= 0 for e in terms
                    ), entry.name
                    assert all(c != 0 for c in terms.values()), entry.name
            assert len(arities) <= 1, (entry.name, n, arities)


def test_totals_reject_mixed_arity():
    # The passing total is built by the validating constructor, so an entry
    # whose checkpoints change arity raises, even where the narrower terms
    # cancel out.
    def mixed_check(n):
        yield None, (0, {(0, 0): 1}), (0, {(0, 0): 1}), 1
        yield None, (1, {(1, 0, 1): 1}), (1, {(1, 0, 1): 1}), 1
        yield None, (0, {(0, 0): -1}), (0, {(0, 0): -1}), 0

    REGISTRY["test-mixed"] = IdentityEntry("test-mixed", "", {"n": "int"}, 1, 3, mixed_check)
    try:
        with pytest.raises(ValueError, match="exponent tuple"):
            verify("test-mixed", 1)
    finally:
        del REGISTRY["test-mixed"]


def test_optional_parameters():
    assert verify("prop712-sk-occurrences", 5, k=2).passed
    assert verify("appendix-hat", 5, i=3).passed
    with pytest.raises(ValueError, match="outside"):
        verify("appendix-hat", 5, i=9)
    with pytest.raises(ValueError, match="does not take"):
        verify("macmahon", 4, k=1)


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown identity"):
        verify("nope")


def test_cap_and_force():
    with pytest.raises(CapExceeded):
        verify("prop56", 10)
    assert verify("prop56", 10, force=True).passed
    with pytest.raises(ValueError, match="n >= 2"):
        verify("prop81", 1)


def test_default_runs_at_cap():
    report = verify("main-a")
    assert report.params["n"] == REGISTRY["main-a"].default_cap
    assert report.passed


def test_failing_entry_reports_first_point():
    def bad_check(n):
        yield {"point": 1}, (0, {(0, 0): 1}), (0, {(0, 0): 1}), 5
        yield {"point": 2, "pi": (2, 1)}, (0, {(0, 0): 1}), (0, {(0, 0): 2}), 7
        raise AssertionError("must stop at the first failure")

    REGISTRY["test-bogus"] = IdentityEntry("test-bogus", "", {"n": "int"}, 1, 3, bad_check)
    try:
        report = verify("test-bogus", 2)
        assert not report.passed
        assert isinstance(report.lhs, MultiPoly) and isinstance(report.rhs, MultiPoly)
        assert report.lhs == MultiPoly.const(1)
        assert report.rhs == MultiPoly.const(2)
        assert report.elements_scanned == 12
        assert report.params["failed_at"] == {"point": 2, "pi": [2, 1]}
        payload = report.to_json()
        assert payload["pass"] is False
        assert "elapsed" not in payload
        assert "elapsed" in report.to_json(include_elapsed=True)
    finally:
        del REGISTRY["test-bogus"]


def test_failing_side_with_negative_exponent_is_reported():
    # A key that is a difference can go negative on a failing scan side.
    def bad_check(n):
        yield {"point": 1}, (0, {(-1, 0): 1}), (0, {(0, 0): 1}), 3

    REGISTRY["test-negative"] = IdentityEntry("test-negative", "", {"n": "int"}, 1, 3, bad_check)
    try:
        report = verify("test-negative", 2)
        assert not report.passed
        assert report.params["failed_at"] == {"point": 1}
        assert report.lhs.terms == {(-1, 0): 1}
        assert report.rhs == MultiPoly.const(1)
        assert report.elements_scanned == 3
        # A pooled run sends the report back through pickle.
        again = pickle.loads(pickle.dumps(report))
        assert again.lhs.terms == report.lhs.terms and again.to_json() == report.to_json()
    finally:
        del REGISTRY["test-negative"]


def test_report_json_shape():
    payload = verify("macmahon", 3).to_json()
    assert set(payload) == {"identity", "params", "pass", "lhs", "rhs", "elements_scanned"}
    assert payload["identity"] == "macmahon"
    assert payload["pass"] is True
    assert payload["params"] == {"n": 3}
    assert all(set(t) == {"coeff", "exps"} for t in payload["lhs"])


def _restricted(group, n, keep):
    """Histograms of rmaj, length and maj over the elements whose inverse passes keep.

    keep(des, mins) receives the inverse's descent set and its minima (level
    0 in S, level 1 in A) as sets of positions.
    """
    if group == "S":
        elements = iter_symmetric(n)
        sets = lambda q: (des_set_s(q), ltr_minima(q, 0, EXCLUDE_FIRST_POSITIONS))
        stats = {"rmaj": lambda p: rmaj_s(p, n), "length": length_s, "maj": maj_s}
    else:
        elements = iter_alternating(n + 1)
        sets = lambda q: (des_set_a(q), ltr_minima(q, 1, EXCLUDE_FIRST_POSITIONS))
        stats = {"rmaj": lambda v: rmaj_a(v, n), "length": length_a, "maj": maj_a}
    hists = {name: {} for name in stats}
    for p in elements:
        if keep(*sets(inverse(p))):
            for name, stat in stats.items():
                k = (stat(p), 0)
                hists[name][k] = hists[name].get(k, 0) + 1
    return {name: MultiPoly(0, h) for name, h in hists.items()}


def _positions(bits, shift):
    """The positions set in bits << shift."""
    return {i + shift for i in range(bits.bit_length()) if bits >> i & 1}


@pytest.mark.parametrize("name, n", [
    ("main-s", 4), ("main-a", 3), ("fs-rmaj", 4), ("fs-fixed-descent", 4),
])
def test_restriction_masks_restrict(name, n):
    # Both sides of each checkpoint pass the same mask filter, so a wrong
    # mask keeps them equal; recount every side from position sets instead.
    classes = set()
    for sub, lhs, rhs, _ in REGISTRY[name].check(n):
        lhs, rhs = MultiPoly(*lhs), MultiPoly(*rhs)
        if name == "fs-fixed-descent":
            d = _positions(sub["descent-class"], 0)
            classes.add(frozenset(d))
            want = _restricted("S", n, lambda des, mins: des == d)
            assert (lhs, rhs) == (want["length"], want["maj"]), sub
        elif name == "fs-rmaj":
            d1 = _positions(sub["D1"], 1)
            want = _restricted("S", n, lambda des, mins: des <= d1)
            assert (lhs, rhs) == (want[sub["side"]], want["length"]), sub
        else:
            d1, d2 = _positions(sub["D1"], 1), _positions(sub["D2"], 2)
            want = _restricted(name[-1].upper(), n,
                               lambda des, mins: des <= d1 and mins <= d2)
            assert (lhs, rhs) == (want["rmaj"], want["length"]), sub
    if name == "fs-fixed-descent":
        assert len(classes) == 1 << (n - 1)


def test_double_restriction_monotone_and_equal():
    # growing either restriction set never shrinks any coefficient
    import itertools

    n = 4
    d1_all = list(range(1, n))
    d2_all = list(range(2, n + 1))
    sums = {}
    for r1 in range(len(d1_all) + 1):
        for d1 in itertools.combinations(d1_all, r1):
            for r2 in range(len(d2_all) + 1):
                for d2 in itertools.combinations(d2_all, r2):
                    want = _restricted("S", n, lambda des, mins: (
                        des <= set(d1) and mins <= set(d2)))
                    assert want["rmaj"] == want["length"]
                    sums[(frozenset(d1), frozenset(d2))] = want["rmaj"]
    for (d1, d2), poly in sums.items():
        for (e1, e2), bigger in sums.items():
            if d1 <= e1 and d2 <= e2:
                for key, c in poly.terms.items():
                    assert bigger.terms.get(key, 0) >= c


def test_delent_slices_reassemble():
    # summing the per-delent slices against t powers rebuilds the bivariate sum
    from permstat.stats import genfun

    n = 5
    bivariate = genfun("S", n, "length", "del")
    rebuilt = MultiPoly.zero()
    for k in range(n):
        rebuilt = rebuilt + bivariate.coefficient_of_t(k) * MultiPoly.monomial(1, t=k)
    assert rebuilt == bivariate


_ORACLES = {"lemma63": lemma63_by_slicing, "lemma64": lemma64_by_slicing,
            "lemma65": lemma65_by_slicing, "remark66": remark66_by_slicing}


@pytest.mark.parametrize("name", ["lemma63", "lemma64", "lemma65", "remark66"])
def test_closed_form_run_off_by_one_fails(monkeypatch, name):
    # The coset closed forms are geometric runs; start each one a power too
    # high and the first point must fail, with the oracle's scan side.
    sub, lhs, rhs, count = _ORACLES[name](3)[0]
    run = identities._run
    monkeypatch.setattr(identities, "_run", lambda start, *rest: run(start + 1, *rest))
    report = verify(name, 3)
    assert not report.passed
    assert report.params["failed_at"] == identities._json_safe(sub)
    assert isinstance(report.lhs, MultiPoly) and isinstance(report.rhs, MultiPoly)
    assert report.lhs == MultiPoly(*lhs) and report.rhs != MultiPoly(*rhs)
    assert report.elements_scanned == count


def _bumped_at(start, terms):
    """The terms with 1 more at their lowest power of q when that power is `start`."""
    low = min(terms)
    return {**terms, low: terms[low] + 1} if low[0] == start else terms


@pytest.mark.parametrize("name", ["lemma63", "lemma64", "lemma65", "remark66"])
def test_a_failing_start_reports_the_oracles_first_point(monkeypatch, name):
    # Every closed form is a geometric run from its start, and lemma65's
    # extra term lies above it.  Bump the runs from one start: the report
    # must be the oracle's first point under the same bump, with its sides
    # and the elements scanned up to it.
    n, start = 4, 3
    points = [(sub, lhs, (0, _bumped_at(start, rhs[1])), cnt)
              for sub, lhs, rhs, cnt in _ORACLES[name](n)]
    expected = _summed_report(name, n, points)
    assert not expected["pass"] and expected["elements_scanned"] > points[0][3]
    run = identities._run
    monkeypatch.setattr(identities, "_run",
                        lambda first, *rest: _bumped_at(start, run(first, *rest)))
    assert verify(name, n).to_json() == expected


def test_lemma65_fails_when_every_delent_shifts(monkeypatch):
    # lemma65's scan side reads each coset product's delent through the pull
    # table and one step of the pull, and its closed form reads w's off the
    # left-to-right minima, so a step that counts one delent too many at
    # every slot fails it, and only on the scan side: each failing point's
    # closed form is the unpatched one.
    from permstat import words

    clean = {n: {json.dumps(identities._json_safe(point), sort_keys=True): rhs
                 for point, _, rhs, _ in lemma65_by_slicing(n)} for n in (3, 4, 5)}
    for n in (3, 4, 5):
        plan = words._PLANS["S", n + 1]
        with monkeypatch.context() as patched:  # the step onto the products alone
            patched.setitem(words._PLANS, ("S", n + 1),
                            {**plan, "delent": [v + 1 for v in plan["delent"]]})
            report = verify("lemma65", n)
        assert not report.passed and "failed_at" in report.params, n
        point = json.dumps(report.params["failed_at"], sort_keys=True)
        assert report.rhs == MultiPoly(*clean[n][point]), n
        assert report.lhs != report.rhs


def test_lemma65_at_its_cap_stays_under_its_memory_ceiling():
    # At n = 7, its default cap, lemma65 holds one S_7 delent table for the
    # whole check beside a pack of coset products per slot.  A full
    # collection empties the free lists first, so every object the run makes
    # is traced: it peaks at 793,192 B on Python 3.11 when each slot packed
    # its own stream of tuples, at 787,480 B since the products are laid out
    # from their base pack, and at 759,475 B since each w's key is one bytes
    # record; the ceiling is about 1.25 times the largest.
    # A table built per slot stream would hold n + 1 of them at once.
    import gc
    import tracemalloc

    assert verify("lemma65", 7).passed  # builds the process's slot plans
    gc.collect()
    tracemalloc.start()
    try:
        report = verify("lemma65", 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.elements_scanned == 40_320
    assert peak < 990_000


@pytest.mark.parametrize("name, n, scanned, ceiling", [
    ("lemma63", 6, 46_656, 286_000),
    ("lemma64", 7, 40_320, 320_000),
    ("remark66", 7, 35_280, 241_000),
])
def test_insertion_entries_at_their_caps_stay_under_their_memory_ceilings(name, n, scanned,
                                                                         ceiling):
    # Each holds one key tally and a pack of inserted words per slot, laid out
    # from one pack of base words.  Measured as lemma65 is, on Python 3.11:
    # 220,976, 256,016 and 193,012 B when each inserted word was packed from
    # its own tuple, and 228,600, 250,192 and 157,725 B since; each ceiling
    # is about 1.25 times the larger.  With one bytes record per base word,
    # and lemma63's starts from its prefix recurrence, they read 244,896,
    # 278,089 and 141,542 B: a pack's records are unpacked at once.
    import gc
    import tracemalloc

    assert verify(name, n).passed
    gc.collect()
    tracemalloc.start()
    try:
        report = verify(name, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.elements_scanned == scanned
    assert peak < ceiling


@pytest.mark.parametrize("name, n, scanned, ceiling", [
    ("prop712-sk-occurrences", 8, 207_480, 1_110_000),
    ("prop511-multivar", 8, 221_760, 930_000),
    ("appendix-hat", 8, 141_120, 400_000),
    ("prop57-stirling-s", 8, 80_640, 920_000),
    ("main-s", 6, 720, 1_700_000),
    ("thm61-a", 8, 181_440, 1_000_000),
    ("prop57-stirling-a", 8, 221_760, 480_000),
    ("thm61-s", 8, 40_320, 900_000),
    ("fiber-size", 7, 20_160, 860_000),
])
def test_record_field_passes_at_their_caps_stay_under_their_memory_ceilings(name, n, scanned,
                                                                           ceiling):
    # prop712 at n = 8 reads four occurrence fields over S_8 and the cycle
    # counts of S_5 to S_8, and prop511 the indicator masks over S_8 and
    # A_9.  Each pass holds one table of degree 7 beside a chunk's columns;
    # building that table from the one of degree 6 is what peaks, as in
    # prop57-stirling-s, which reads delent and the cycle counts over S_8.
    # The hat columns over A_8 pull nothing, and the main theorem's subset
    # sums over S_6 hold 2^10 fibre sums.  thm61-a reads length, delent and
    # the projection over A_9, through a table of degree 7; prop57-stirling-a
    # delent over A_9 and the cycle counts of S_8; thm61-s length and delent
    # over S_8.  Measured after a full collection, as for lemma65, on Python
    # 3.11, since the records are bytes: 0.66, 0.45, 0.18, 0.45, 1.36, 0.47,
    # 0.25 and 0.45 MB.  Each ceiling is about 1.25 times the peak before
    # the minima, cycle and fold columns (0.88, 0.74, 0.95, 0.74 and 1.36
    # MB), the hat pass's about 1.25 times its peak after them (0.31 MB),
    # thm61-a's about 1.25 times its peak before the passes cut their packs
    # from relabelled blocks (0.80 MB), and the last two about 1.25 times
    # their peaks while records were tuples (0.39 and 0.72 MB).  fiber-size
    # tallies the projection over A_8 alone: 0.99 MB, against 4.68 MB when it
    # walked the lifts of each w and held them all in a set, and 0.68 MB since
    # the projections are tallied as bytes; its ceiling is about 1.25 times
    # 0.68 MB.
    import gc
    import tracemalloc

    (_, piece), = plan([(name, n)])
    run(piece)  # builds the process's slot plans
    gc.collect()
    tracemalloc.start()
    try:
        (report,) = run(piece)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.elements_scanned == scanned
    assert peak < ceiling


def _words(n):
    return itertools.product(range(1, n + 1), repeat=n)


@pytest.mark.parametrize("name, oracle, n_max", [
    ("lemma63", lemma63_by_slicing, 5),
    ("lemma64", lemma64_by_slicing, 6),
    ("lemma65", lemma65_by_slicing, 6),
    ("remark66", remark66_by_slicing, 6),
])
def test_inserted_word_scans_match_slicing(name, oracle, n_max):
    for n in range(1, n_max + 1):
        assert verify(name, n).to_json() == _summed_report(name, n, oracle(n)), (name, n)


@pytest.mark.parametrize("name, bases", [("lemma63", _words), ("lemma64", iter_symmetric)])
def test_inserted_word_streams_align_with_base_words(monkeypatch, name, bases):
    # Slot i's stream holds each base word with the top letter at slot i, in
    # the base words' order, laid out a pack at a time from the base pack.
    from permstat import words as packed

    inserted, streams = identities._inserted, {}

    def recorded(pack, i):
        out = inserted(pack, i)
        streams.setdefault(i, []).extend(map(tuple, packed._words(out)))
        return out

    monkeypatch.setattr(identities, "_inserted", recorded)
    assert all(lhs == rhs for _, lhs, rhs, _ in REGISTRY[name].check(3))
    base = list(bases(3))
    assert sorted(streams) == [0, 1, 2, 3]
    for i, words in streams.items():
        assert len(words) == len(base)
        for w, u in zip(words, base):
            assert w[i] == 4 and w[:i] + w[i + 1:] == u, (i, w, u)


def _first_packed_words_swapped(element_packs):
    """``_element_packs`` with the first two words of its first pack swapped."""
    def swapped(group, degree):
        packs = element_packs(group, degree)
        d, stride, size, a = next(packs)
        raw = a.to_bytes(size, "little")
        yield d, stride, size, int.from_bytes(raw[d:2 * d] + raw[:d] + raw[2 * d:], "little")
        yield from packs
    return swapped


def _first_minima_swapped(lex_starts):
    """``_lex_starts`` with its first word swapped, in every plane, with the first
    word of another minima count."""
    def swapped(n):
        planes = lex_starts(n)
        first = next(planes)
        j = next(j for j, m in enumerate(first[2]) if m != first[2][0])
        yield tuple(bytes((p[j], *p[1:j], p[0], *p[j + 1:])) for p in first)
        yield from planes
    return swapped


@pytest.mark.parametrize("name, source, swap, kept", [
    ("lemma64", "_element_packs", _first_packed_words_swapped, 2),
    ("lemma65", "_element_packs", _first_packed_words_swapped, 2),
    ("remark66", "_element_packs", _first_packed_words_swapped, 2),
    ("fiber-size", "_lex_starts", _first_minima_swapped, 1),
], ids=["lemma64", "lemma65", "remark66", "fiber-size"])
def test_scan_and_closed_form_enumerations_check_each_other(monkeypatch, name, source, swap,
                                                           kept):
    # The trio's scan side reads S_n off ``_element_packs``, its closed form
    # off ``_lex_starts``, and a failing w is named off ``iter_symmetric``.
    # With the first two words of S_3's first pack swapped, the first two
    # base words trade rows, so the entry fails at the first w, and that
    # point's closed form is the unpatched oracle's.  fiber-size names each w
    # off ``iter_symmetric`` beside its tallied fibre and its minima count off
    # ``_lex_starts``: with the first word's starts swapped with those of the
    # first word of another minima count, it fails at the first w, and that
    # point's tallied size is the unpatched one.
    n = 3
    oracle = fiber_size_by_lifts if name == "fiber-size" else _ORACLES[name]
    clean = {json.dumps(identities._json_safe(point[0]), sort_keys=True): point[kept]
             for point in oracle(n)}
    assert verify(name, n).passed
    monkeypatch.setattr(identities, source, swap(getattr(identities, source)))
    report = verify(name, n)
    assert not report.passed and report.params["failed_at"]["w"] == [1, 2, 3]
    point = json.dumps(report.params["failed_at"], sort_keys=True)
    assert (report.lhs, report.rhs)[kept - 1] == MultiPoly(*clean[point])
    assert report.lhs != report.rhs


@pytest.mark.parametrize("name, source", [
    ("lemma63", "_packs"),
    ("lemma64", "_element_packs"),
    ("lemma65", "_element_packs"),
    ("remark66", "_element_packs"),
])
def test_an_inserted_stream_one_base_word_short_raises(monkeypatch, name, source):
    # The rows are zipped with the base words strictly, so base packs that
    # drop the last word raise, where a plain zip would pass with one base
    # word fewer in elements_scanned.
    packs = getattr(identities, source)

    def short(*args):
        *head, (d, stride, size, a) = packs(*args)
        yield from head
        if size > d:
            yield d, stride, size - d, a & (1 << 8 * (size - d)) - 1

    monkeypatch.setattr(identities, source, short)
    with pytest.raises(ValueError):
        verify(name, 3)


@pytest.mark.parametrize("tail", [
    lambda last, width: [last[:-width]],  # a word short
    lambda last, width: [last + last[-width:]],  # a word long
    lambda last, width: [last, last[-width:]],  # a plane more than the packs
])
@pytest.mark.parametrize("name", ["lemma63", "lemma64", "lemma65", "remark66", "fiber-size"])
def test_start_planes_apart_from_their_base_words_raise(monkeypatch, name, tail):
    # The starts come from a recurrence, apart from the base words: lemma63's
    # two bytes a word from ``_word_majs``, zipped strictly with its base
    # packs; the trio's three planes of a byte a word from ``_lex_starts``,
    # zipped strictly with the packs of S_n; and fiber-size's minima plane,
    # zipped strictly with ``iter_symmetric``.  Start planes that differ from
    # the base words in length raise.
    source = "_word_majs" if name == "lemma63" else "_lex_starts"
    starts = getattr(identities, source)

    def changed(n):
        *head, last = starts(n)
        yield from head
        if source == "_word_majs":
            yield from tail(last, 2)
        else:
            yield from zip(*(tail(plane, 1) for plane in last))

    monkeypatch.setattr(identities, source, changed)
    with pytest.raises(ValueError):
        verify(name, 3)


def _pattern_plus_one(kernel, pattern):
    """``_pack_descent_sums`` with every plane one higher at each word whose
    comparison bytes, ``map(gt, w, w[1:])``, are `pattern`."""
    from permstat.words import _words

    def wrong(pack, stat):
        hits = (bytes(map(operator.gt, w, w[1:])) == pattern for w in _words(pack))
        return bytes(map(operator.add, kernel(pack, stat), hits))
    return wrong


@pytest.mark.parametrize("name, bases, first, slots", [
    ("lemma63", _words, lambda u: {"word": u, "eq": "maj-all"}, range(4)),
    ("lemma64", iter_symmetric, lambda w: {"w": w, "stat": "maj"}, range(4)),
    ("lemma65", iter_symmetric, lambda w: {"w": w}, range(4)),
    ("remark66", iter_symmetric, lambda w: {"w": w}, range(1, 4)),
])
def test_a_wrong_descent_pattern_fails_only_the_scan_side(monkeypatch, name, bases, first,
                                                          slots):
    # The inserted words of one comparison pattern read maj and rmaj + 1.
    # The entry must fail at the first base word with an inserted word of
    # that pattern, and that point's closed form must be the oracle's: the
    # patched kernel reached the scan side alone.  Every pattern of degree 4
    # occurs among the inserted words but one: remark66 never puts 4 first,
    # so it never meets 4 3 2 1 and must still pass.
    n = 3
    clean = {json.dumps(identities._json_safe(sub), sort_keys=True): rhs
             for sub, _, rhs, _ in _ORACLES[name](n)}
    assert verify(name, n).passed
    kernel = identities._pack_descent_sums
    for pattern in map(bytes, itertools.product((0, 1), repeat=n)):
        hit = next((u for u in bases(n) for i in slots if pattern == bytes(
            int(a > b) for a, b in itertools.pairwise(u[:i] + (n + 1,) + u[i:]))), None)
        with monkeypatch.context() as patched:
            patched.setattr(identities, "_pack_descent_sums", _pattern_plus_one(kernel, pattern))
            report = verify(name, n)
        if hit is None:
            assert name == "remark66" and pattern == b"\x01\x01\x01" and report.passed
            continue
        point = identities._json_safe(first(hit))
        assert not report.passed, pattern
        assert report.params["failed_at"] == point, pattern
        assert report.rhs == MultiPoly(*clean[json.dumps(point, sort_keys=True)]), pattern
        assert report.lhs != report.rhs


@pytest.mark.parametrize("name", ["lemma63", "lemma64", "lemma65", "remark66"])
def test_a_descent_stat_fault_fails_only_the_scan_side(monkeypatch, name):
    # The inserted words' values come from ``_pack_descent_sums``, as the
    # passes' descent columns do, and no closed-form start calls it.  With
    # every value one higher, each entry fails at its first point, and that
    # point's closed form is the oracle's.
    sub, _, rhs, _ = _ORACLES[name](3)[0]
    fault = FAULTS["_pack_descent_sums"]
    _patch_everywhere(monkeypatch, "_pack_descent_sums", lambda f: lambda *args: fault(f(*args)))
    report = verify(name, 3)
    assert not report.passed and report.params["failed_at"] == identities._json_safe(sub)
    assert report.rhs == MultiPoly(*rhs) and report.lhs != report.rhs


def _fake_entry(monkeypatch, name, points):
    """Register an entry whose check yields `points`, made fresh on each call."""
    monkeypatch.setitem(REGISTRY, name, IdentityEntry(name, "", {"n": "int"}, 1, 3,
                                                       lambda n: points()))


def _summed_report(name, n, points):
    """The expected ``to_json()`` of `points`: every passing side added term by
    term, or the first failing point."""
    total, count = {}, 0
    for sub, lhs, rhs, cnt in points:
        count += cnt
        if lhs != rhs:
            return {"identity": name, "params": {"n": n, "failed_at": identities._json_safe(sub)},
                    "pass": False, "lhs": MultiPoly(*lhs).to_json(),
                    "rhs": MultiPoly(*rhs).to_json(), "elements_scanned": count}
        for e, c in lhs[1].items():
            total[e] = total.get(e, 0) + c
    summed = MultiPoly(0, total).to_json()
    return {"identity": name, "params": {"n": n}, "pass": True, "lhs": summed, "rhs": summed,
            "elements_scanned": count}


def _fresh(k):
    """A new side object for each k; some k share their terms."""
    return 0, {(k % 50, k % 3): 1 + k % 4, (k % 7 + 1, 0): 2}


def test_reporter_adds_a_repeated_side_once_per_count(monkeypatch):
    # Two side objects, each yielded again and again: every point adds its
    # terms once and its count to the elements scanned.
    shared, other = (0, {(0, 0): 1, (1, 0): 2, (3, 0): 1}), (0, {(2, 1): 5})

    def points():
        for k in range(6000):
            side = shared if k % 3 else other
            yield {"k": k}, (0, dict(side[1])), side, 1 + k % 2

    _fake_entry(monkeypatch, "test-repeated", points)
    assert verify("test-repeated", 2).to_json() == _summed_report("test-repeated", 2, points())


def test_reporter_folds_distinct_sides_as_it_goes(monkeypatch):
    # A fresh side object per point, beside one shared object yielded again
    # and again: the sum is the same as adding every point's terms in turn.
    shared = 0, {(0, 0): 1, (1, 0): 2, (3, 0): 1}

    def points():
        for k in range(6000):
            side = shared if k % 3 else _fresh(k)
            yield {"k": k}, (0, dict(side[1])), side, 1 + k % 2

    _fake_entry(monkeypatch, "test-fresh", points)
    assert verify("test-fresh", 2).to_json() == _summed_report("test-fresh", 2, points())


def test_reporter_fails_after_thousands_of_passing_points(monkeypatch):
    shared = 0, {(1, 1): 3}

    def points():
        for k in range(5000):
            side = _fresh(k) if k % 2 else shared
            yield {"k": k}, (0, dict(side[1])), side, 1
        yield {"k": 5000}, (0, {(0, 0): 1}), (0, {(0, 0): 2}), 7
        raise AssertionError("must stop at the first failure")

    _fake_entry(monkeypatch, "test-late", points)
    expected = _summed_report("test-late", 2, points())
    assert expected["params"]["failed_at"] == {"k": 5000}
    assert verify("test-late", 2).to_json() == expected


def _naive_subset_sums(fibres, bits):
    tallies = len(next(iter(fibres.values())))
    out = []
    for s in range(1 << len(bits)):
        allowed = sum(1 << b for j, b in enumerate(bits) if s >> j & 1)
        sums = [{} for _ in range(tallies)]
        for m, hists in fibres.items():
            if not m & ~allowed:
                for acc, hist in zip(sums, hists):
                    for k, c in hist.items():
                        acc[k] = acc.get(k, 0) + c
        out.append(sums)
    return out


_hists = st.dictionaries(st.tuples(st.integers(0, 4), st.just(0)), st.integers(1, 3), max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda t: st.dictionaries(
        st.integers(0, 63), st.lists(_hists, min_size=t, max_size=t), min_size=1, max_size=8)),
    st.lists(st.integers(0, 6), unique=True, max_size=4),
)
def test_subset_sums_match_naive_resum(fibres, bits):
    before = {m: [dict(h) for h in hists] for m, hists in fibres.items()}
    assert identities._subset_sums(fibres, bits) == _naive_subset_sums(fibres, bits)
    assert fibres == before  # the fibre map is read, not changed


def _whole_group_tasks(n_max):
    return [(name, n) for name in sorted(identities._SCANS)
            for n in range(REGISTRY[name].min_n, min(REGISTRY[name].default_cap, n_max) + 1)]


def _run_plan(tasks, force=False):
    """Every piece of the plan of `tasks` run as one, reports keyed by (name, n)."""
    reports = run([task for _, piece in plan(tasks, force) for task in piece])
    keyed = {(r.identity, r.params["n"]): r for r in reports}
    assert len(keyed) == len(reports) == len(tasks)
    return keyed


def test_batched_reports_equal_single_runs():
    # One batch shares its passes among every whole-group entry at n <= 6;
    # each report must still be the one the entry gives alone.
    tasks = _whole_group_tasks(6)
    assert len({name for name, _ in tasks}) == 20
    batched = _run_plan(tasks)
    assert sorted(batched) == sorted(tasks)
    for (name, n), report in batched.items():
        assert report.passed, (name, n)
        assert report.to_json() == verify(name, n).to_json(), (name, n)
        assert report.elapsed > 0


def test_a_failing_closed_form_fails_only_its_entry_in_a_batch(monkeypatch):
    q_factorial = identities.q_factorial
    monkeypatch.setattr(identities, "q_factorial", lambda n: q_factorial(n) + MultiPoly.const(1))
    tasks = [(name, n) for name, n in _whole_group_tasks(4) if n == 4]
    reports = {name: r for (name, _), r in _run_plan(tasks).items()}
    assert len(reports) == len(tasks)
    alone = verify("macmahon", 4)
    assert not alone.passed and alone.params["failed_at"] == {"side": "length"}
    assert reports["macmahon"].to_json() == alone.to_json()
    assert all(r.passed for name, r in reports.items() if name != "macmahon")


def test_plan_and_run_carry_force(monkeypatch):
    # prop56 is capped at 9.  Every task is checked before any columns are made,
    # and the pieces of a forced plan run past the cap.
    tasks = [("fiber-size", 3), ("macmahon", 3), ("prop56", 10)]

    def no_columns(*args, **kwargs):
        raise AssertionError("columns were made before every task was checked")

    with monkeypatch.context() as patched:
        for name, (_, finish) in list(identities._SCANS.items()):
            patched.setitem(identities._SCANS, name, (no_columns, finish))
        with pytest.raises(CapExceeded, match="prop56 is capped at n = 9"):
            plan(tasks)
    reports = _run_plan(tasks, force=True)
    assert sorted(reports) == sorted(tasks)
    assert all(r.passed for r in reports.values())


def _verify_all_tasks(n_max):
    """The (name, n) tasks of ``verify --all``, at the default caps or up to n_max."""
    return [(name, n) for name, e in sorted(REGISTRY.items())
            for n in ([e.default_cap] if n_max is None
                      else range(e.min_n, min(n_max, e.default_cap) + 1) or [e.min_n])]


@pytest.mark.parametrize("n_max, count, digest", [
    (None, 13, "4398257ea85559798106af654d20ef695821b7591680b49becfbce6844a20730"),
    (5, 47, "a8e68056b4f49a5a865d843dd385ff9adb0cb25d50969dc838062501454ad1ed"),
])
def test_plan_pieces_and_weights_are_pinned(n_max, count, digest):
    # Recorded when every weight was an exact element count; saturating the
    # weights for huge n must leave these unchanged.  Re-recorded when
    # fiber-size joined the alternating batches.
    pieces = sorted((work, sorted((name, n) for name, n, *_ in piece))
                    for work, piece in plan(_verify_all_tasks(n_max)))
    assert len(pieces) == count
    assert hashlib.sha256(repr(pieces).encode()).hexdigest() == digest


def test_plan_weighs_a_forced_huge_n_at_once():
    # The exact weights, (2,000,000)! and (10^7)^(10^7), took over 30 s each.
    start = time.perf_counter()
    pieces = plan([("macmahon", 2_000_000), ("lemma63", 10 ** 7)], force=True)
    assert time.perf_counter() - start < 1
    assert sorted(work for work, _ in pieces) == [identities._MOST_WORK] * 2


def test_timings_share_each_pass_among_its_readers(monkeypatch):
    # A whole-group report's elapsed is its own finish plus an equal share of
    # each pass it reads, so the reports still sum to the work done.
    tally_passes = identities._tally_passes

    def slow_s4(columns):
        tallies, seconds = tally_passes(columns)
        assert set(seconds) == {("S", 4)}
        return tallies, {("S", 4): 6.0}

    monkeypatch.setattr(identities, "_tally_passes", slow_s4)
    (_, piece), = plan([("thm61-s", 4), ("thm62-s", 4), ("prop67", 4)])
    reports = run(piece)
    assert len(reports) == 3 and all(r.passed for r in reports)
    assert all(2.0 <= r.elapsed < 2.5 for r in reports)
    assert sum(r.elapsed for r in reports) >= 6.0


def test_a_wrong_table_record_fails_the_delent_scans(monkeypatch):
    # A pass over A_5 reads the fields of each element's word of degree 4
    # from its one table, which it builds from the kernel's records of degree
    # 3; one wrong delent there reaches both delent scans.  A record is one
    # bytes value, and each field named before "delent" takes one byte.
    from permstat import stats

    table, wrong = stats._table, bytes((2, 3, 1, 4))
    tops = []

    def wrong_table(group, degree, fields):
        top, held = table(group, degree, fields)
        tops.append(top)
        i = fields.index("delent")
        assert set(fields[:i]) <= {"length"}, fields
        held[wrong] = held[wrong][:i] + bytes((held[wrong][i] + 1,)) + held[wrong][i + 1:]
        return top, held

    for name in ("thm61-a", "prop57-stirling-a"):
        assert verify(name, 4).passed
    monkeypatch.setattr(stats, "_table", wrong_table)
    for name in ("thm61-a", "prop57-stirling-a"):
        assert not verify(name, 4).passed, name
    assert tops == [4, 4]


@pytest.mark.parametrize("name, side", [("macmahon", "maj"), ("thm61-s", "rmaj"),
                                        ("thm61-a", "rmaj")])
def test_a_wrong_pass_descent_pattern_fails_only_the_scan_side(monkeypatch, name, side):
    # The pass reads maj and rmaj by one multiplication per column
    # (``_pack_descent_sums``), of the one-line word in S and of the
    # projection in A.  Where the words of one comparison pattern read their
    # statistic + 1, the entry must fail on that statistic's side, and the
    # closed form of the failing point must be the clean run's: the patched
    # kernel reached the scan side alone.
    from permstat import stats

    n, pattern = 4, b"\x00\x01\x00"  # a descent at 2 alone
    clean = {json.dumps(point, sort_keys=True): rhs
             for point, _, rhs, _ in REGISTRY[name].check(n)}
    monkeypatch.setattr(stats, "_pack_descent_sums",
                        _pattern_plus_one(stats._pack_descent_sums, pattern))
    report = verify(name, n)
    assert not report.passed and report.params["failed_at"] == {"side": side}
    arity, terms = clean[json.dumps(report.params["failed_at"], sort_keys=True)]
    assert report.rhs == MultiPoly(arity, terms) and report.lhs != report.rhs


def test_a_wrong_slot_constant_fails_only_the_scan_side(monkeypatch):
    # A pass over A_5 takes one step above its top table of degree 4: each
    # element's slot of 5 picks the delent that the step adds.  Slot 2 adds
    # none; a plan that adds one there reaches both delent scans, and only
    # their scan side: each failing point's closed form is the unpatched one.
    from permstat import words

    plan = words._PLANS["A", 5]
    assert plan["delent"][2] == 0
    wrong = plan["delent"][:]
    wrong[2] = 1
    for name in ("thm61-a", "prop57-stirling-a"):
        assert verify(name, 4).passed
    expected = {name: {json.dumps(point, sort_keys=True): rhs
                       for point, _, rhs, _ in REGISTRY[name].check(4)}
                for name in ("thm61-a", "prop57-stirling-a")}
    monkeypatch.setitem(plan, "delent", wrong)
    for name in ("thm61-a", "prop57-stirling-a"):
        report = verify(name, 4)
        assert not report.passed and "failed_at" in report.params, name
        arity, terms = expected[name][json.dumps(report.params["failed_at"], sort_keys=True)]
        assert report.rhs == MultiPoly(arity, terms), name


def _fails_on_the_scan_side(monkeypatch, plan, field, slot, value, names):
    """Each (name, n) passes, then fails once `field`'s constant at `slot` of
    `plan` is `value`; each failing rhs is the closed form of the unpatched point."""
    for name, n in names:
        assert verify(name, n).passed, name
    expected = {(name, n): {json.dumps(point, sort_keys=True): rhs
                            for point, _, rhs, _ in REGISTRY[name].check(n)}
                for name, n in names}
    wrong = plan[field][:]
    assert wrong[slot] != value
    wrong[slot] = value
    monkeypatch.setitem(plan, field, wrong)
    for name, n in names:
        report = verify(name, n)
        assert not report.passed, name
        point = json.dumps(report.params.get("failed_at"), sort_keys=True)
        arity, terms = expected[name, n][point]
        assert report.rhs == MultiPoly(arity, terms), name
        # prop510 is one equation, with no point to name.
        assert "failed_at" in report.params or name.startswith("prop510"), name


def test_a_wrong_indicator_constant_fails_only_the_scan_side(monkeypatch):
    # S_5 and A_5 each take one step above their top tables, of degree 4.
    # The step marks the factor it pulls (4 in S_5, 3 in A_5) in the
    # indicator mask when that factor's run reaches the first generator,
    # which slot 2 never does; a plan that marks it there reaches every
    # indicator scan over the group, and only its scan side.
    from permstat import words

    s_plan, a_plan = words._PLANS["S", 5], words._PLANS["A", 5]
    assert s_plan["ind"] == [8, 0, 0, 0, 0] and a_plan["ind"] == [4, 4, 0, 0, 0]
    _fails_on_the_scan_side(monkeypatch, s_plan, "ind", 2, 8,
                            [("prop510-multivar-s", 5), ("prop511-multivar", 5)])
    _fails_on_the_scan_side(monkeypatch, a_plan, "ind", 2, 4,
                            [("prop510-multivar-a", 4), ("prop511-multivar", 4)])


def test_a_wrong_occurrence_constant_fails_only_the_scan_side(monkeypatch):
    # The step of S_5 pulls factor 4, the run s_4 ... s_{r+1} from slot r:
    # it passes s_2 from slots 0 and 1 only.  A plan that counts s_2 at slot
    # 2 fails the k = 2 occurrence scan, and only its scan side.
    from permstat import words

    plan = words._PLANS["S", 5]
    assert plan["occ2"] == [1, 1, 0, 0, 0]
    _fails_on_the_scan_side(monkeypatch, plan, "occ2", 2, 1, [("prop712-sk-occurrences", 5)])
    report = verify("prop712-sk-occurrences", 5)
    assert report.params["failed_at"] == {"k": 2, "form": "generating"}


# SHA-256 of each report's ``to_json()``, recorded before the passes read
# their record fields a chunk at a time.  n = 7 and 8 reach A_8 and A_9, one
# and two values above the top table of degree 7.
A8_A9_DIGESTS = {
    ("prop511-multivar", 7): "1d6471953751ccdbd9fdb865e031de6e8fb6882343c950a428e7f27bc5522565",
    ("prop511-multivar", 8): "468be7678b59b9ba50e5bc69b1e0fdbd24a7a0871e27712794b94cf39dec014c",
    ("prop57-stirling-a", 7): "7b06d4ac5a76f07e9864fa95b605434f174ebffbddb954bde83cfebce388a0ec",
    ("prop57-stirling-a", 8): "b990d33e9ba681b757ff42dbba1e0678859c3a5524af1ed35fe848d996b507e2",
    ("thm61-a", 7): "68ab787ec564e7091280e3bffe122c69f0bf49e37c24873f88e620b16bdabafa",
    ("thm61-a", 8): "89e99aae4bc56c1a948d8893c1b566d831216cd637736fff68f0ac47116b6632",
    ("thm62-a", 7): "79c6e5d01175613931886d88ed5ad7b0fa7cd7fccec36afcb9f998a948228b3a",
    ("thm62-a", 8): "027ea4f8c18a37399d060a0297372969ba49def62cf28f929ee283c95a592f37",
}


def test_a8_and_a9_reports_are_pinned():
    reports = [r for _, piece in plan(sorted(A8_A9_DIGESTS)) for r in run(piece)]
    digests = {(r.identity, r.params["n"]):
               hashlib.sha256(json.dumps(r.to_json(), sort_keys=True).encode()).hexdigest()
               for r in reports}
    assert digests == A8_A9_DIGESTS


# SHA-256 of each report's ``to_json()``, recorded while these rows still
# read their descents per element.  Each runs one above its entry's default
# cap, forced: over S_8 and A_9 for cor92 and the fs entries, which step
# above the top table of degree 7, and over S_7 and A_7 for main.
FORCED_DIGESTS = {
    ("cor92-a", 8): "850cda3b3363f87966128787eb389f59a4c8b952d388a2f3fbba53bf810afb98",
    ("cor92-s", 8): "38b2c731912461ad4beea2c0f1246a880d6379755d0f0018f551e527b5d1f5c5",
    ("fs-fixed-descent", 8): "fce713dbc7ee424f055960f11b950d13900b0c1d99ac0b37eb6c6fa98a3df37b",
    ("fs-rmaj", 8): "39c46e1095fb8d08e23691931e54a31dc98657c667f28168137d17d4eefa7a6c",
    ("main-a", 6): "27f827e618b465877aa1126ebd6dc22731416feb68abae0b1fc9a2805f8b26ae",
    ("main-s", 7): "ada3a056fe4f5c55cc33e446672caa0ee39b7eb348731a8fce8a8a3a4a53d3da",
}


def test_descent_rows_above_their_caps_are_pinned():
    reports = [r for _, piece in plan(sorted(FORCED_DIGESTS), force=True) for r in run(piece)]
    digests = {(r.identity, r.params["n"]):
               hashlib.sha256(json.dumps(r.to_json(), sort_keys=True).encode()).hexdigest()
               for r in reports}
    assert digests == FORCED_DIGESTS


# SHA-256 of each report's ``to_json()``, recorded while inversion counts and
# the folds of appendix-hat were measured one word at a time: the folds over
# A_8, and the inversion counts over S_8.
INVERSION_DIGESTS = {
    ("appendix-hat", 8): "f011970f869831e349eda2801b761e4bccfc962c866352f7af9ba76a9a35ed88",
    ("macmahon", 8): "1512665980632cd8d4141b7a3c146e66e6fc26ef1132f4bd2712ecf86e6a7bff",
    ("thm61-s", 8): "2ec79bd4ee98083d848bc3b612261915fce5bc0db41a7d8e4b9b6f210cc8f18f",
    ("thm62-s", 8): "9cf2a62e6436939612fca2a95becb968010743b8609af93ef78e1847c7edae30",
}


def test_inversion_and_fold_reports_are_pinned():
    reports = [r for _, piece in plan(sorted(INVERSION_DIGESTS)) for r in run(piece)]
    digests = {(r.identity, r.params["n"]):
               hashlib.sha256(json.dumps(r.to_json(), sort_keys=True).encode()).hexdigest()
               for r in reports}
    assert digests == INVERSION_DIGESTS


# A uniform fault for each function that entries read through the namespace of
# a permstat module: +1 on an int or on each byte, a stray position
# in a set, a flipped bit in a vector.  ``_pack_lengths`` counts the
# inversions of the pass's "inversions" columns and measures the folds of
# appendix-hat; ``_pack_cycles`` and ``ltr_minima`` feed the pass's "cycles"
# and "minmask" columns; ``_word_majs`` yields lemma63's starts, a plane
# of bytes at a time, and ``_lex_starts`` those of lemma64, lemma65,
# remark66 and fiber-size, three planes at a time; ``_pack_descent_sums``
# gives the passes' maj, rmaj and des columns, appendix-hat's folded maj and
# the insertion entries' inserted-word values, a plane at a time.
# ``cycle_count`` reaches no entry at n = 4.
FAULTS = {
    "length_s": lambda v: v + 1,
    "rmaj_s": lambda v: v + 1,
    "maj_s": lambda v: v + 1,
    "cycle_count": lambda v: v + 1,
    "ltr_minima": lambda v: v | {99},
    "epsilon_s": lambda v: (1 - v[0],) + v[1:],
    "_maj_rmaj": lambda v: (v[0] + 1, v[1] + 1),
    "_pack_lengths": lambda v: bytes(x + 1 for x in v),
    "_pack_cycles": lambda v: bytes(x + 1 for x in v),
    "_word_majs": lambda v: (bytes(x + 1 for x in plane) for plane in v),
    "_lex_starts": lambda v: (tuple(bytes(x + 1 for x in plane) for plane in planes)
                              for planes in v),
    "_pack_descent_sums": lambda v: bytes(x + 1 for x in v),
}


def _patch_everywhere(monkeypatch, name, wrap):
    """Replace the function `name` by ``wrap(it)`` in every permstat module that binds it."""
    modules = [m for key, m in sorted(sys.modules.items())
               if key.startswith("permstat.") and name in vars(m)]
    fake = wrap(vars(modules[0])[name])
    for module in modules:
        monkeypatch.setattr(module, name, fake)


# (function, entry): every entry that calls the function at n = 4, found by
# counting calls.  Each fault must fail each entry that reads the function, at
# a named point unless the entry is one equation (cor92-s and prop510, whose
# failing reports name none).  lemma93 fails under the length_s and rmaj_s
# faults only because its closed form reads pi by other paths, and so do
# prop81, lemma86 and lemma87 because the shuffle growth reads pi's base by
# ``s_pull`` and ``_maj_rmaj``; main-s and main-a fail under the ltr_minima
# fault only because main names a fibre whose mask lies outside its bits.
# cor92-s reads "des" on both sides, where a uniform fault cancels, and
# fails under the _pack_descent_sums fault by "inverse-rmaj", on one side.
FAULT_ROWS = [
    ("_maj_rmaj", "lemma86"),
    ("_maj_rmaj", "lemma93"),
    ("_maj_rmaj", "prop81"),
    ("_pack_cycles", "prop57-stirling-a"),
    ("_pack_cycles", "prop57-stirling-s"),
    ("_pack_cycles", "prop712-sk-occurrences"),
    ("_pack_descent_sums", "appendix-hat"),
    ("_pack_descent_sums", "cor92-a"),
    ("_pack_descent_sums", "cor92-s"),
    ("_pack_descent_sums", "fs-fixed-descent"),
    ("_pack_descent_sums", "fs-rmaj"),
    ("_pack_descent_sums", "lemma63"),
    ("_pack_descent_sums", "lemma64"),
    ("_pack_descent_sums", "lemma65"),
    ("_pack_descent_sums", "macmahon"),
    ("_pack_descent_sums", "main-a"),
    ("_pack_descent_sums", "main-s"),
    ("_pack_descent_sums", "prop67"),
    ("_pack_descent_sums", "remark66"),
    ("_pack_descent_sums", "thm61-a"),
    ("_pack_descent_sums", "thm61-s"),
    ("_pack_descent_sums", "thm62-a"),
    ("_pack_descent_sums", "thm62-s"),
    ("_pack_lengths", "appendix-hat"),
    ("_pack_lengths", "cor92-s"),
    ("_pack_lengths", "fs-fixed-descent"),
    ("_pack_lengths", "fs-rmaj"),
    ("_pack_lengths", "macmahon"),
    ("_pack_lengths", "main-s"),
    ("_pack_lengths", "prop510-multivar-s"),
    ("_pack_lengths", "thm61-s"),
    ("_pack_lengths", "thm62-s"),
    ("_lex_starts", "fiber-size"),
    ("_lex_starts", "lemma64"),
    ("_lex_starts", "lemma65"),
    ("_lex_starts", "remark66"),
    ("_word_majs", "lemma63"),
    ("epsilon_s", "lemma93"),
    ("length_s", "lemma87"),
    ("length_s", "lemma93"),
    ("length_s", "prop56"),
    ("length_s", "prop81"),
    ("ltr_minima", "main-a"),
    ("ltr_minima", "main-s"),
    ("ltr_minima", "prop56"),
    ("maj_s", "garsia-gessel"),
    ("rmaj_s", "lemma86"),
    ("rmaj_s", "lemma93"),
    ("rmaj_s", "prop81"),
]


def test_fault_rows_are_every_caller_at_n4(monkeypatch):
    calls, entry = set(), None
    for name in FAULTS:
        def counted(f, name=name):
            def call(*args, **kwargs):
                calls.add((name, entry))
                return f(*args, **kwargs)
            return call
        _patch_everywhere(monkeypatch, name, counted)
    for entry in sorted(REGISTRY):
        assert verify(entry, 4).passed, entry
    assert sorted(calls) == sorted(FAULT_ROWS)


@pytest.mark.parametrize("function, entry", FAULT_ROWS)
def test_a_fault_in_a_function_fails_each_entry_that_reads_it(monkeypatch, function, entry):
    assert verify(entry, 4).passed
    points = [point for point, *_ in REGISTRY[entry].check(4)]
    fault = FAULTS[function]
    _patch_everywhere(monkeypatch, function,
                      lambda f: lambda *args, **kwargs: fault(f(*args, **kwargs)))
    report = verify(entry, 4)
    assert not report.passed and ("failed_at" in report.params) == (points != [None])


@pytest.mark.parametrize("name", ["lemma63", "lemma64", "lemma65", "remark66", "fiber-size"])
def test_a_start_fault_fails_on_the_closed_form_side_alone(monkeypatch, name):
    # Under the fault of the recurrence that gives an entry's starts, every
    # start one higher, the entry at n = 4 fails at its first base word, and
    # that point's scan side is the oracle's: the fault reached the closed
    # form alone.
    n = 4
    oracle = fiber_size_by_lifts if name == "fiber-size" else _ORACLES[name]
    first, lhs, rhs, scanned = oracle(n)[0]
    source = "_word_majs" if name == "lemma63" else "_lex_starts"
    fault = FAULTS[source]
    _patch_everywhere(monkeypatch, source, lambda f: lambda n: fault(f(n)))
    report = verify(name, n)
    assert not report.passed and report.elements_scanned == scanned
    assert report.params["failed_at"] == identities._json_safe(first)
    assert report.lhs == MultiPoly(*lhs) and report.rhs != MultiPoly(*rhs)


@pytest.mark.parametrize("name", ["main-s", "main-a"])
def test_main_names_a_fibre_outside_its_bits(monkeypatch, name):
    # The minima positions lie above the inverse's descent mask, from bit n
    # up.  A stray position 99 leaves every fibre outside the subset sums,
    # and a stray one at the identity alone leaves its fibre: either fails,
    # at the fibre's mask, where the sums would have dropped it.
    n = 4
    _patch_everywhere(monkeypatch, "ltr_minima",
                      lambda minima: lambda p, *args: minima(p, *args) | {99})
    report = verify(name, n)
    assert not report.passed and report.params["failed_at"]["mask"] >> (99 + n) & 1
    monkeypatch.undo()
    _patch_everywhere(monkeypatch, "ltr_minima", lambda minima: lambda p, *args: minima(
        p, *args) | ({99} if tuple(p) == tuple(sorted(p)) else set()))
    report = verify(name, n)
    assert not report.passed and report.params["failed_at"] == {"mask": 1 << (99 + n)}
    assert report.rhs == MultiPoly.zero() and report.lhs != report.rhs


def test_fs_rmaj_names_a_descent_mask_outside_its_bits(monkeypatch):
    # With every descent mask one higher (the pass's table of ``_mask``
    # values), each sets bit 0, which lies in no subset of the positions
    # 1..n-1, so the subset sums would drop every fibre and both sides would
    # read empty; fs-fixed-descent's sides, keyed by one mask, would agree.
    # Each fails instead at the smallest such mask, the identity's, against
    # an empty side, as main does.
    from permstat import stats

    build = stats._descent_table
    monkeypatch.setattr(stats, "_descent_table", lambda value: build(
        (lambda des: value(des) + 1) if value is stats._mask else value))
    for name in ("fs-rmaj", "fs-fixed-descent", "main-s", "main-a"):
        report = verify(name, 4)
        assert not report.passed and report.params["failed_at"] == {"mask": 1}, name
        assert report.lhs == MultiPoly.const(1) and report.rhs == MultiPoly.zero(), name


def _prop56_sides(n):
    """prop56's unpatched checkpoints at n: {group: (lhs, rhs)}."""
    return {point["group"]: (MultiPoly(*lhs), MultiPoly(*rhs))
            for point, lhs, rhs, _ in REGISTRY["prop56"].check(n)}


@pytest.mark.parametrize("function, hit, group", [
    ("eval_a_letters", [(2, False), (1, True)], "A"),
    ("eval_s_letters", [2, 1], "S"),
])
def test_a_staircase_element_read_as_the_identity_fails_prop56_on_its_scan(
        monkeypatch, function, hit, group):
    # One staircase element, s_2 s_1 in S or a_2 a_1^{-1} in A, evaluated as
    # the identity: prop56 fails at that group, and the failing point's closed
    # form is the unpatched one, the staircase product.
    n = 4
    clean = _prop56_sides(n)
    assert clean[group][1] == identities._staircase(n, identities._LIFTS[group])
    evaluate = getattr(identities, function)
    monkeypatch.setattr(identities, function, lambda degree, letters: tuple(
        range(1, degree + 1)) if list(letters) == hit else evaluate(degree, letters))
    report = verify("prop56", n)
    assert not report.passed and report.params["failed_at"] == {"group": group}
    assert report.rhs == clean[group][1] and report.lhs != report.rhs


def test_a_negative_staircase_exponent_fails_prop56(monkeypatch):
    # A stray minimum on every alternating element drives the identity's
    # q exponent, its length less its minima, to -1: prop56 fails at "A",
    # with the clean closed form, rather than raising.
    n = 4
    clean = _prop56_sides(n)
    minima = identities.ltr_minima
    monkeypatch.setattr(identities, "ltr_minima", lambda p, *args: minima(p, *args) | (
        {99} if len(p) == n + 1 else set()))
    report = verify("prop56", n)
    assert not report.passed and report.params["failed_at"] == {"group": "A"}
    assert report.rhs == clean["A"][1] and report.lhs != report.rhs


def test_a_staircase_product_one_term_off_fails_prop56_on_its_closed_form(monkeypatch):
    # The closed form one term off: prop56 fails at its first group, and the
    # failing point's scan side is the unpatched one.
    n = 4
    clean = _prop56_sides(n)
    staircase = identities._staircase
    monkeypatch.setattr(identities, "_staircase",
                        lambda n, lifts: staircase(n, lifts) + MultiPoly.monomial(1, q=1))
    report = verify("prop56", n)
    assert not report.passed and report.params["failed_at"] == {"group": "S"}
    assert report.lhs == clean["S"][0] and report.lhs != report.rhs


def test_thm62_names_a_delent_slice_above_every_compared_one(monkeypatch):
    # thm62 compares the slices k < n.  With every one-byte plane of the pull
    # step one higher, each delent of S_4 rises by one on both sides, and the
    # elements of delent 3 land in slice 4, which no compared slice holds:
    # the entry fails there, against an empty side.  thm62-a's length comes
    # off the record too, so its slices differ below n.
    from permstat import words

    plus = words._plus

    def one_higher(*args):
        plane = plus(*args)
        return bytes(x + 1 for x in plane) if isinstance(plane, bytes) else plane

    monkeypatch.setattr(words, "_plus", one_higher)
    report = verify("thm62-s", 4)
    assert not report.passed and report.params["failed_at"] == {"delent": 4}
    assert report.rhs == MultiPoly.zero() and report.lhs != report.rhs
    assert not verify("thm62-a", 4).passed


def test_fiber_size_fails_on_a_projection_outside_the_symmetric_group(monkeypatch):
    # The total counts every projection that the pass tallied, so a key that
    # is no permutation of degree n fails there, after every fibre passed.
    histograms = identities.histograms

    def stray(group, n, *rows):
        hists, count = histograms(group, n, *rows)
        for row, row_hists in zip(rows, hists):
            for key, hist in zip(row, row_hists):
                if key == ("proj",):
                    hist[(1,) * n] += 1
        return hists, count

    monkeypatch.setattr(identities, "histograms", stray)
    report = verify("fiber-size", 4)
    assert not report.passed and report.params["failed_at"] == {"check": "partition-total"}
    assert report.lhs == MultiPoly.const(61) and report.rhs == MultiPoly.const(60)


def test_fiber_size_reads_no_lift(monkeypatch):
    # Its scan side is the alternating pass's projection column, so the lift
    # walk behind ``cover.fiber`` can be gone.
    from permstat import cover, words

    def no_lifts(ends):
        raise AssertionError("fiber-size walked the lifts")

    monkeypatch.setattr(words, "a_lifts", no_lifts)
    monkeypatch.setattr(cover, "a_lifts", no_lifts)
    report = verify("fiber-size", 5)
    assert report.passed and report.elements_scanned == 360
