import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstat.cli import _pool_size, main
from permstat.identities import REGISTRY, IdentityEntry
from permstat.qpoly import MultiPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stat_json(capsys):
    code, out, _ = run_cli(capsys, "stat", "--group", "S", "[2,5,4,1,3]")
    assert code == 0
    assert out == (
        '{"group":"S","n":5,"length":6,"des":2,"des_set":[2,3],"maj":5,'
        '"rmaj":5,"del":1,"del_set":[4],"epsilon":[1,0,0,0]}\n'
    )


def test_stat_alternating_and_formats(capsys):
    code, out, _ = run_cli(capsys, "stat", "--group", "A", "[3,5,4,2,1]")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 6 and payload["del"] == 3 and payload["n"] == 4
    code, out, _ = run_cli(capsys, "stat", "--group", "S", "[3,2,1]", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("group,n,length")
    assert row.startswith("S,3,3")
    code, out, _ = run_cli(capsys, "stat", "--group", "S", "[3,2,1]", "--format", "pretty")
    assert code == 0 and "length: 3" in out


def test_stat_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "stat", "--group", "S", "[1,1,2]")
    assert code == 2 and "duplicate image 1" in err
    code, _, err = run_cli(capsys, "stat", "--group", "A", "[2,1,3]")
    assert code == 2 and "odd" in err


def test_canon_worked_examples(capsys):
    code, out, _ = run_cli(capsys, "canon", "--group", "S", "[2,5,4,1,3]", "--format", "pretty")
    assert code == 0 and out == "s1 | 1 | s3 s2 | s4 s3 s2\n"
    code, out, _ = run_cli(capsys, "canon", "--group", "A", "[3,5,4,2,1]", "--format", "pretty")
    assert code == 0 and out == "a1 | a2 a1^-1 | a3 a2 a1\n"
    code, out, _ = run_cli(capsys, "canon", "--group", "A", "[3,5,4,2,1]")
    payload = json.loads(out)
    assert payload["factors"] == [
        {"j": 1, "r": 1, "last": "a1"},
        {"j": 2, "r": 1, "last": "a1inv"},
        {"j": 3, "r": 1, "last": "a1"},
    ]
    assert payload["word"] == "a1 | a2 a1^-1 | a3 a2 a1"


def test_canon_from_word(capsys):
    code, out, _ = run_cli(
        capsys, "canon", "--group", "S", "--from-word", "s1 s2 s1 s3", "--format", "pretty"
    )
    assert code == 0 and out == "s1 | s2 s1 | s3\n"
    code, out, _ = run_cli(
        capsys, "canon", "--group", "A", "--from-word", "a1 a2 a1^-1", "--n", "5"
    )
    assert code == 0
    assert json.loads(out)["perm"] == list(
        __import__("permstat.words", fromlist=["eval_a_letters", "parse_a_letters"]).eval_a_letters(
            5, [(1, False), (2, False), (1, True)]
        )
    )
    code, _, err = run_cli(capsys, "canon", "--group", "S")
    assert code == 2 and "needs a permutation" in err


@pytest.mark.parametrize("argv", [
    ["--group", "S", "--from-word", "s9999999999"],
    ["--group", "A", "--from-word", "a9999999999"],
    ["--group", "S", "--from-word", "s1", "--n", "9999999999"],
    ["--group", "A", "--from-word", "a1", "--n", "9999999999"],
    ["--group", "S", "--from-word", "s9999999999", "--n", "5"],
])
def test_canon_from_word_bounded_before_building(capsys, argv):
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "canon", *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert peak < 1_000_000


def test_fiber_output(capsys):
    code, out, _ = run_cli(capsys, "fiber", "[2,1]")
    assert code == 0 and out == "[[2,3,1],[3,1,2]]\n"
    code, out, _ = run_cli(capsys, "fiber", "[2,1]", "--format", "pretty")
    assert out == "[2,3,1]\n[3,1,2]\n"


def test_shuffles_json_lines(capsys):
    code, out, _ = run_cli(capsys, "shuffles", "--n", "4", "--b", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "[1,2,3,4]",
        "[1,3,2,4]",
        "[1,3,4,2]",
        "[3,1,2,4]",
        "[3,1,4,2]",
        "[3,4,1,2]",
    ]
    code, _, err = run_cli(capsys, "shuffles", "--n", "12", "--b", "1,2,3,4,5,6,7,8,9,10,11")
    assert code == 2 and "cap" in err



@pytest.mark.parametrize("argv", [
    ["--n", "300000", "--b", "1,2"],
    ["--n", "21"],
    ["--n", "0"],
    ["--n", "-4", "--force"],
])
def test_shuffles_degree_bounded_before_counting(capsys, monkeypatch, argv):
    def no_count(n, cuts):
        raise AssertionError(f"counted shuffles of degree {n}")

    monkeypatch.setattr("permstat.cli.shuffle_count", no_count)
    code, out, err = run_cli(capsys, "shuffles", *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")

def test_genfun(capsys):
    code, out, _ = run_cli(
        capsys, "genfun", "--group", "S", "--n", "3", "--q-stat", "length",
        "--t-stat", "del", "--format", "pretty",
    )
    assert code == 0 and out == "1 + q + q*t + 2*q^2*t + q^3*t^2\n"
    code, out, _ = run_cli(capsys, "genfun", "--group", "A", "--n", "2", "--format", "pretty")
    assert code == 0 and out == "1 + 2*q*t\n"
    code, out, _ = run_cli(capsys, "genfun", "--group", "S", "--n", "3", "--q-stat", "rmaj")
    payload = json.loads(out)
    assert payload["variables"] == ["q", "t"]
    assert payload["terms"] == [
        {"coeff": 1, "exps": [0, 0]},
        {"coeff": 1, "exps": [1, 0]},
        {"coeff": 1, "exps": [1, 1]},
        {"coeff": 2, "exps": [2, 1]},
        {"coeff": 1, "exps": [3, 2]},
    ]
    code, _, err = run_cli(capsys, "genfun", "--group", "S", "--n", "12")
    assert code == 2 and "capped" in err
    code, _, err = run_cli(
        capsys, "genfun", "--group", "S", "--n", "3", "--t-stat", "none", "--multivar"
    )
    assert code == 2


def test_genfun_multivar(capsys):
    code, out, _ = run_cli(
        capsys, "genfun", "--group", "S", "--n", "3", "--multivar", "--format", "pretty"
    )
    # by hand: (1 + q*t1)(1 + q + q^2*t2)
    assert code == 0 and out == "1 + q + q*t1 + q^2*t2 + q^2*t1 + q^3*t1*t2\n"


def test_verify_single(capsys):
    code, out, err = run_cli(capsys, "verify", "thm61-a", "--n", "4", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["params"] == {"n": 4}
    assert "elapsed" not in payload
    assert "0 failed" in err


def test_verify_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "nope")
    assert code == 2 and "unknown identity" in err
    code, _, err = run_cli(capsys, "verify", "macmahon", "--n", "11")
    assert code == 2 and "capped" in err
    code, _, err = run_cli(capsys, "verify")
    assert code == 2 and "needs an identity" in err


def test_verify_failure_exit_code(capsys):
    def bad_check(n):
        yield None, MultiPoly.const(1), MultiPoly.const(2), 1

    REGISTRY["test-cli-bogus"] = IdentityEntry(
        "test-cli-bogus", "always fails", {"n": "int"}, 1, 3, bad_check
    )
    try:
        code, out, err = run_cli(capsys, "verify", "test-cli-bogus", "--n", "2", "--jobs", "1")
        assert code == 1
        assert json.loads(out)["pass"] is False
        code, out, _ = run_cli(
            capsys, "verify", "test-cli-bogus", "--n", "2", "--jobs", "1", "--format", "pretty"
        )
        assert code == 1 and out.startswith("FAIL test-cli-bogus")
    finally:
        del REGISTRY["test-cli-bogus"]


def test_pool_size_clamps():
    assert _pool_size(0, 144, 2) == 2
    assert _pool_size(0, 144, None) == 1
    assert _pool_size(1, 144, 8) == 1
    assert _pool_size(10**9, 144, 8) == 8
    assert _pool_size(10**9, 3, 8) == 3
    assert _pool_size(4, 1, 8) == 1
    with pytest.raises(ValueError, match="non-negative"):
        _pool_size(-3, 144, 8)


def test_verify_negative_jobs_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "macmahon", "--n", "3", "--jobs", "-3")
    assert code == 2 and out == ""
    assert err == "error: --jobs must be non-negative (got -3)\n"


def test_verify_jobs_matches_serial(capsys):
    argv = ["verify", "--all", "--n-max", "4"]
    serial = run_cli(capsys, *argv, "--jobs", "1")
    pooled = run_cli(capsys, *argv, "--jobs", "2")
    assert serial[0] == pooled[0] == 0
    assert pooled[1] == serial[1]


def _die_in_worker(task):
    """Stands in for the verify task: a pool worker ends without a result."""
    if multiprocessing.parent_process() is None:
        raise RuntimeError("meant to run in a pool worker only")
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched task reaches the workers only through fork")
def test_verify_crashed_worker_exits_2(capsys, monkeypatch):
    from permstat import cli

    monkeypatch.setattr(cli, "_verify_task", _die_in_worker)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, err = run_cli(capsys, "verify", "macmahon", "--n-max", "2", "--jobs", "2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_csv_and_timings(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "macmahon", "--n", "4", "--jobs", "1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["name,params,pass,elapsed", "macmahon,n=4,true,"]
    code, out, _ = run_cli(
        capsys, "verify", "macmahon", "--n", "4", "--jobs", "1", "--format", "csv", "--timings"
    )
    row = out.splitlines()[1]
    assert row.startswith("macmahon,n=4,true,0.")


def test_verify_range(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "thm61-s", "--n-max", "4", "--jobs", "1", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["n=1", "n=2", "n=3", "n=4"]


def test_verify_n_max_below_min_n_runs_min_n(capsys):
    # prop81 starts at n = 2; a range that ends below it runs that one degree
    code, out, _ = run_cli(
        capsys, "verify", "prop81", "--n-max", "1", "--jobs", "1", "--format", "csv"
    )
    assert code == 0
    assert [r.split(",")[1] for r in out.strip().splitlines()[1:]] == ["n=2"]


def test_list_catalog(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    names = [json.loads(line)["name"] for line in out.strip().splitlines()]
    assert names == sorted(names) and "thm61-a" in names and len(names) == 30


def test_out_file(tmp_path, capsys):
    target = tmp_path / "payload.json"
    code, out, _ = run_cli(capsys, "stat", "--group", "S", "[2,1]", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["length"] == 1


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["stat", "--bogus-flag"])
    assert exc.value.code == 2


def test_determinism_double_invocation(capsys):
    fixtures = [
        ["stat", "--group", "S", "[2,5,4,1,3]"],
        ["canon", "--group", "A", "[3,5,4,2,1]"],
        ["fiber", "[2,5,4,1,3]"],
        ["shuffles", "--n", "5", "--b", "1,3"],
        ["genfun", "--group", "S", "--n", "4", "--q-stat", "maj"],
        ["verify", "thm61-s", "--n", "3", "--jobs", "1"],
        ["list"],
    ]
    for argv in fixtures:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "permstat", "canon", "--group", "S", "[2,5,4,1,3]",
         "--format", "pretty"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "s1 | 1 | s3 s2 | s4 s3 s2\n"


# -- fuzzing the argument grammar ----------------------------------------------

# Degrees stay small where an argument would be enumerated; the large values
# only reach cap checks, which refuse them without --force.
_small = st.integers(-2, 4)
_degree = st.one_of(st.integers(-2, 6), st.sampled_from([9, 21, 300000]))
_perm_text = st.one_of(
    st.permutations(range(1, 6)).map(lambda p: "[" + ",".join(map(str, p)) + "]"),
    st.lists(st.integers(-2, 7), max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.text("[],-0123456789 x", max_size=12),
)
_word_text = st.one_of(
    st.lists(st.sampled_from(["s1", "s2", "s3", "a1", "a2", "a1^-1", "s0", "a9"]),
             max_size=5).map(" ".join),
    st.text("sa^-1230 ,x", max_size=12),
)
_FLAGS = {"--all", "--b", "--force", "--format", "--from-word", "--group", "--jobs",
          "--multivar", "--n", "--n-max", "--q-stat", "--t-stat", "--timings", "-i", "-k"}


def _opt(flag, values):
    """An optional flag: absent, or present with a drawn value (None: bare)."""
    return st.one_of(st.just([]), values.map(lambda v: [flag] if v is None else [flag, str(v)]))


def _forced(n):
    return st.just([]) if n > 6 else st.sampled_from([[], ["--force"]])


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["stat", "canon", "fiber", "shuffles", "genfun", "verify",
                                "list"]))
    group = ["--group", draw(st.sampled_from(["S", "A"]))]
    if cmd == "stat":
        args = group + [draw(_perm_text)]
    elif cmd == "canon":
        args = group + draw(st.one_of(
            _perm_text.map(lambda t: [t]),
            st.tuples(_word_text, _opt("--n", st.integers(-2, 25))).map(
                lambda wn: ["--from-word", wn[0], *wn[1]]),
            st.just([]),
        ))
    elif cmd == "fiber":
        args = [draw(_perm_text)]
    elif cmd == "shuffles":
        n = draw(_degree)
        cuts = draw(st.one_of(
            st.lists(st.integers(-1, 7), max_size=4).map(lambda c: ",".join(map(str, c))),
            st.text("0123,x", max_size=6),
        ))
        args = ["--n", str(n), "--b", cuts] + draw(_forced(n))
    elif cmd == "genfun":
        n = draw(_degree)
        args = group + ["--n", str(n)] + draw(_forced(n))
        args += draw(_opt("--q-stat", st.sampled_from(["length", "maj", "rmaj"])))
        args += draw(_opt("--t-stat", st.sampled_from(["del", "none"])))
        args += draw(_opt("--multivar", st.none()))
    elif cmd == "verify":
        # Always bound n and never fork: workers are covered by other tests.
        target = draw(st.sampled_from(["--all", "bogus", *sorted(REGISTRY)]))
        args = [target] + draw(st.sampled_from([["--n"], ["--n-max"]]))
        args += [str(draw(_small)), "--jobs", draw(st.sampled_from(["1", "-1"]))]
        args += draw(_opt("-k", _small)) + draw(_opt("-i", _small))
        args += draw(_opt("--force", st.none())) + draw(_opt("--timings", st.none()))
    else:
        args = []
    return [cmd, *args, *draw(_opt("--format", st.sampled_from(["json", "csv", "pretty"])))]


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(_argv())
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        # argparse takes a value that starts with "-" for a flag and exits 2
        # with its usage message, as test_usage_errors_exit_2 pins.
        assert exc.code == 2 and out.getvalue() == "", argv
        assert any(a.startswith("-") and a not in _FLAGS for a in argv), argv
        assert ": error: " in err.getvalue().splitlines()[-1], argv
        return
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
