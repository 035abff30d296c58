import pytest

from permstat.identities import (
    CapExceeded,
    IdentityEntry,
    REGISTRY,
    list_identities,
    verify,
)
from permstat.perm import inverse, iter_symmetric
from permstat.qpoly import MultiPoly
from permstat.stats import (
    EXCLUDE_FIRST_POSITIONS,
    des_set_s,
    length_s,
    ltr_minima,
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
    assert lhs == expected and rhs == expected
    report = verify("thm61-s", 3)
    assert report.passed
    assert report.lhs == expected + expected  # both sides aggregated


def test_staircase_instance_alternating():
    # the three even degree-3 elements: identity and the two 3-cycles
    expected = mono(1) + mono(2, q=1, t=1)
    _, lhs, rhs, _ = next(iter(REGISTRY["thm61-a"].check(2)))
    assert lhs == expected and rhs == expected
    assert verify("thm61-a", 2).passed


def test_folded_instance():
    expected = mono(1) + mono(1, q=1) + mono(1, q=2)
    _, lhs, rhs, _ = next(iter(REGISTRY["appendix-hat"].check(3, i=1)))
    assert lhs == expected and rhs == expected


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
    # Scan sides are wrapped without validation; check what validation would.
    for entry in list_identities():
        for n in range(entry.min_n, min(entry.min_n + 2, 4) + 1):
            for _sub, lhs, rhs, _cnt in entry.check(n):
                for side in (lhs, rhs):
                    assert side.terms == MultiPoly(side.arity, side.terms).terms, entry.name
                    assert all(
                        len(e) == 2 + side.arity and min(e) >= 0 for e in side.terms
                    ), entry.name
                    assert all(c != 0 for c in side.terms.values()), entry.name


def test_totals_pad_mixed_arity():
    def mixed_check(n):
        marked = MultiPoly.monomial(1, q=1, ts=(1,))
        yield None, MultiPoly.const(1), MultiPoly.const(1), 1
        yield None, marked, marked, 1
        yield None, -MultiPoly.const(1), -MultiPoly.const(1), 0

    REGISTRY["test-mixed"] = IdentityEntry("test-mixed", "", {"n": "int"}, 1, 3, mixed_check)
    try:
        report = verify("test-mixed", 1)
        assert report.passed and report.elements_scanned == 2
        assert report.lhs.arity == report.rhs.arity == 1
        assert report.lhs.terms == {(1, 0, 1): 1}
        assert report.rhs == MultiPoly.monomial(1, q=1, ts=(1,))
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
        yield {"point": 1}, MultiPoly.const(1), MultiPoly.const(1), 5
        yield {"point": 2, "pi": (2, 1)}, MultiPoly.const(1), MultiPoly.const(2), 7
        raise AssertionError("must stop at the first failure")

    REGISTRY["test-bogus"] = IdentityEntry("test-bogus", "", {"n": "int"}, 1, 3, bad_check)
    try:
        report = verify("test-bogus", 2)
        assert not report.passed
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


def test_report_json_shape():
    payload = verify("macmahon", 3).to_json()
    assert set(payload) == {"identity", "params", "pass", "lhs", "rhs", "elements_scanned"}
    assert payload["identity"] == "macmahon"
    assert payload["pass"] is True
    assert payload["params"] == {"n": 3}
    assert all(set(t) == {"coeff", "exps"} for t in payload["lhs"])


def _restricted(n, d1, d2):
    out_rmaj: dict = {}
    out_ell: dict = {}
    for p in iter_symmetric(n):
        pinv = inverse(p)
        if not des_set_s(pinv) <= d1:
            continue
        if not ltr_minima(pinv, 0, EXCLUDE_FIRST_POSITIONS) <= d2:
            continue
        k = (rmaj_s(p, n), 0)
        out_rmaj[k] = out_rmaj.get(k, 0) + 1
        k = (length_s(p), 0)
        out_ell[k] = out_ell.get(k, 0) + 1
    return MultiPoly(0, out_rmaj), MultiPoly(0, out_ell)


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
                    lhs, rhs = _restricted(n, set(d1), set(d2))
                    assert lhs == rhs
                    sums[(frozenset(d1), frozenset(d2))] = lhs
    for (d1, d2), poly in sums.items():
        for (e1, e2), bigger in sums.items():
            if d1 <= e1 and d2 <= e2:
                for key, c in poly.terms.items():
                    assert bigger.terms.get(key, 0) >= c


def test_delent_slices_reassemble():
    # summing the per-delent slices against t powers rebuilds the bivariate sum
    from permstat.identities import _scan_s_length_rmaj_del

    n = 5
    ell_acc, _, _ = _scan_s_length_rmaj_del(n)
    bivariate = MultiPoly(0, ell_acc)
    rebuilt = MultiPoly.zero()
    for k in range(n):
        rebuilt = rebuilt + bivariate.coefficient_of_t(k) * MultiPoly.monomial(1, t=k)
    assert rebuilt == bivariate
