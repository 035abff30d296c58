import contextlib
import csv
import gc
import hashlib
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

from permstat.cli import _pack as cli_pack, _pool_size, build_parser, main
from permstat.identities import REGISTRY, IdentityEntry


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
    # --n is the degree of the permutation built, in both groups.
    for word, n, perm in (("", "1", [1]), ("a1", "3", [2, 3, 1])):
        code, out, _ = run_cli(capsys, "canon", "--group", "A", "--from-word", word, "--n", n)
        assert code == 0 and json.loads(out)["perm"] == perm
    code, _, err = run_cli(capsys, "canon", "--group", "S")
    assert code == 2 and "needs a permutation" in err


@pytest.mark.parametrize("group, perm", [("S", "[2,1]"), ("A", "[3,5,4,2,1]")])
def test_canon_of_a_permutation_rejects_n(capsys, group, perm):
    # --n sizes only the permutation that --from-word builds; beside a
    # permutation, which has its own degree, it is a usage error.
    code, out, err = run_cli(capsys, "canon", "--group", group, perm, "--n", "5")
    assert code == 2 and out == ""
    assert err == "error: canon takes --n only with --from-word\n"


@pytest.mark.parametrize("argv", [
    ["--group", "S", "--from-word", "s9999999999"],
    ["--group", "A", "--from-word", "a9999999999"],
    ["--group", "S", "--from-word", "s1", "--n", "9999999999"],
    ["--group", "A", "--from-word", "a1", "--n", "9999999999"],
    ["--group", "S", "--from-word", "s9999999999", "--n", "5"],
])
def test_canon_from_word_bounded_before_building(capsys, argv):
    import tracemalloc

    gc.collect()  # an object reused from a free list is never traced
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


def test_fiber_json_of_a_large_fibre_is_lean(capsys):
    # The degree-16 reversal has 2^15 lifts; JSON is written from the tuples.
    import tracemalloc

    gc.collect()  # an object reused from a free list is never traced
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "fiber", json.dumps(list(range(16, 0, -1))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7f3e8d4ea2bfc50a1605e5e3842207ae494ebf252d3cbb1b3f1d65a29bb92d64"
    )
    assert peak < 12_000_000


# SHA-256 of each format of the degree-16 reversal's fibre, as dumped whole
# from the sorted list before the lifts were streamed.
FIBER_16_DIGESTS = {
    "json": "7f3e8d4ea2bfc50a1605e5e3842207ae494ebf252d3cbb1b3f1d65a29bb92d64",
    "csv": "01f713c8214c34481ca9d00c8b8135ba792fa67f902eb955507f33a9113de2f1",
    "pretty": "e28cbbc69e5d3e10f8e0ef95d58e5d92e45b58155a99ab548dae547a87fd66c1",
}


@pytest.mark.parametrize("fmt", sorted(FIBER_16_DIGESTS))
def test_fiber_streams_the_bytes_of_a_whole_list_dump(capsys, tmp_path, fmt):
    perm = json.dumps(list(range(16, 0, -1)))
    code, out, _ = run_cli(capsys, "fiber", perm, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIBER_16_DIGESTS[fmt]
    path = tmp_path / f"fibre.{fmt}"
    code, printed, _ = run_cli(capsys, "fiber", perm, "--format", fmt, "--out", str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode()


def test_fiber_of_a_huge_fibre_streams_in_small_memory(tmp_path):
    # The degree-18 reversal has 2^17 lifts; held as a list they peak over
    # 40 MB.  The file takes the output, so only the stream is traced.
    import tracemalloc

    path = tmp_path / "fibre.json"
    gc.collect()  # an object reused from a free list is never traced
    tracemalloc.start()
    try:
        code = main(["fiber", json.dumps(list(range(18, 0, -1))), "--out", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000
    lifts = json.loads(path.read_text())
    assert len(lifts) == 2 ** 17 and lifts == sorted(lifts)


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



# SHA-256 of each format of the 7,560 shuffles of --n 9 --b 2,5,7, as dumped
# whole from the sorted list before the shuffles were streamed.
SHUFFLES_9_DIGESTS = {
    "json": "98881482c4bc8aa9365335e457ccbc65f8142c0cac5632a965d2c68f5fedd2b2",
    "csv": "6a31c48774899c336a8528d8203f838547a83e4183f9cf48e92990030bc46495",
    "pretty": "98881482c4bc8aa9365335e457ccbc65f8142c0cac5632a965d2c68f5fedd2b2",
}


@pytest.mark.parametrize("fmt", sorted(SHUFFLES_9_DIGESTS))
def test_shuffles_stream_the_bytes_of_a_whole_list_dump(capsys, tmp_path, fmt):
    argv = ["shuffles", "--n", "9", "--b", "2,5,7", "--format", fmt]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.count("\n") == 7560
    assert hashlib.sha256(out.encode()).hexdigest() == SHUFFLES_9_DIGESTS[fmt]
    path = tmp_path / f"shuffles.{fmt}"
    code, printed, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode()


def test_shuffles_near_the_count_cap_stream_in_small_memory(tmp_path):
    # --n 11 --b 3,6,9 has 92,400 shuffles; held as a sorted list they peak
    # over 20 MB.  The file takes the output, so only the stream is traced.
    import tracemalloc

    import permstat.shuffles  # noqa: F401  compiled before tracing starts

    path = tmp_path / "shuffles.json"
    gc.collect()  # an object reused from a free list is never traced
    tracemalloc.start()
    try:
        code = main(["shuffles", "--n", "11", "--b", "3,6,9", "--out", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000
    shuffles = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(shuffles) == 92_400 and shuffles == sorted(shuffles)


def test_shuffles_of_one_block_deeper_than_the_recursion_limit(capsys):
    code, out, err = run_cli(capsys, "shuffles", "--n", "3000", "--force")
    assert code == 0 and err == ""
    assert len(out) == 13_895 and out == "[" + ",".join(map(str, range(1, 3001))) + "]\n"


@pytest.mark.parametrize("argv", [
    ["--n", "300000", "--b", "1,2"],
    ["--n", "21"],
    ["--n", "0"],
    ["--n", "-4", "--force"],
])
def test_shuffles_degree_bounded_before_counting(capsys, monkeypatch, argv):
    def no_count(n, cuts):
        raise AssertionError(f"counted shuffles of degree {n}")

    monkeypatch.setattr("permstat.shuffles.shuffle_count", no_count)
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
    # Every task is checked before appendix-hat's position range is read.
    code, _, err = run_cli(capsys, "verify", "--all", "-i", "2", "--n-max", "3")
    assert code == 2 and err == "error: cor92-a does not take parameter 'i'\n"


def test_verify_failure_exit_code(capsys):
    def bad_check(n):
        yield None, (0, {(0, 0): 1}), (0, {(0, 0): 2}), 1

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


def test_verify_failure_with_negative_exponent_exits_1(capsys):
    def bad_check(n):
        yield {"point": 1}, (0, {(-1, 0): 1}), (0, {(0, 0): 1}), 1

    REGISTRY["test-cli-negative"] = IdentityEntry(
        "test-cli-negative", "fails with a negative key", {"n": "int"}, 1, 3, bad_check
    )
    try:
        code, out, err = run_cli(capsys, "verify", "test-cli-negative", "--n", "2", "--jobs", "1")
        assert code == 1 and "1 failed" in err
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["params"]["failed_at"] == {"point": 1}
        assert payload["lhs"] == [{"coeff": 1, "exps": [-1, 0]}]
        code, out, _ = run_cli(
            capsys, "verify", "test-cli-negative", "--n", "2", "--jobs", "1", "--format", "pretty"
        )
        assert code == 1 and "  lhs: q^-1\n" in out
    finally:
        del REGISTRY["test-cli-negative"]


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


def test_verify_jobs_matches_serial(capsys, monkeypatch):
    from permstat import cli

    # Two CPUs on any machine, so that --jobs 2 really starts the pool.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["verify", "--all", "--n-max", "4"]
    serial = run_cli(capsys, *argv, "--jobs", "1")
    pooled = run_cli(capsys, *argv, "--jobs", "2")
    assert serial[0] == pooled[0] == 0
    assert pooled[1] == serial[1]


def test_verify_pooled_runs_carry_entry_parameters(capsys, monkeypatch):
    from permstat import cli, identities

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["verify", "appendix-hat", "--n-max", "5", "-i", "1"]
    assert len(identities.plan([("appendix-hat", n) for n in range(2, 6)], i=1)) == 4
    serial = run_cli(capsys, *argv, "--jobs", "1")
    pooled = run_cli(capsys, *argv, "--jobs", "2")
    assert serial[0] == pooled[0] == 0
    assert pooled[1] == serial[1]
    assert [json.loads(line)["params"] for line in serial[1].splitlines()] == [
        {"n": n, "i": 1} for n in range(2, 6)]


def test_verify_pooled_payload_is_pinned_to_n6(capsys, monkeypatch):
    from permstat import cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, _ = run_cli(capsys, "verify", "--all", "--n-max", "6", "--jobs", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b5d93831efb77a03d1a806aad53b45666735bb2545ba4a521f8d9fb01b324007"
    )


# A pool of two workers under a start method that shares nothing with the
# parent: each worker imports permstat afresh, compiles its own checks and
# builds its own enumeration blocks.
_POOLED_UNDER = """\
import multiprocessing, os, sys
multiprocessing.set_start_method(sys.argv[1])
os.cpu_count = lambda: 2
from permstat.cli import main
sys.exit(main(["verify", "--all", "--n-max", "4", "--jobs", "2"]))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_verify_pooled_under_each_start_method_matches_serial(capsys, method):
    # Python 3.14 makes forkserver the default on Linux.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    serial = run_cli(capsys, "verify", "--all", "--n-max", "4", "--jobs", "1")
    proc = subprocess.run([sys.executable, "-c", _POOLED_UNDER, method],
                          capture_output=True, text=True)
    assert serial[0] == proc.returncode == 0, proc.stderr
    assert proc.stdout == serial[1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_checks_every_task_before_any_runs(capsys, monkeypatch, jobs):
    # cor92-a is capped at 7; the entries before it in the registry are not.
    from permstat import cli, identities

    def no_run(*args, **kwargs):
        raise AssertionError("a check ran before every task was checked")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(identities, "run", no_run)
    monkeypatch.setattr(identities, "verify", no_run)
    code, out, err = run_cli(capsys, "verify", "--all", "--n", "8", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == "error: cor92-a is capped at n = 7 (requested 8); use force to override\n"


def test_verify_plans_each_tasks_columns_once(capsys, monkeypatch):
    # The batches read the columns that the plan made for each task: every
    # column maker runs once per whole-group task, in the plan, and every
    # task is checked against the catalog once.
    from permstat import identities

    resolve, asked, made = identities.resolve, [], []

    def counted(name, n, force, extra):
        asked.append((name, n))
        return resolve(name, n, force, extra)

    for name, (columns, finish) in list(identities._SCANS.items()):
        def counted_maker(n, _name=name, _columns=columns, **extra):
            made.append((_name, n))
            return _columns(n, **extra)

        monkeypatch.setitem(identities._SCANS, name, (counted_maker, finish))
    monkeypatch.setattr(identities, "resolve", counted)
    code, _, _ = run_cli(capsys, "verify", "--all", "--n-max", "4", "--jobs", "1")
    assert code == 0

    def tasks(entries):
        return sorted((e.name, n) for e in entries
                      for n in range(e.min_n, min(4, e.default_cap) + 1) or [e.min_n])

    assert sorted(asked) == tasks(REGISTRY.values())
    assert sorted(made) == tasks(REGISTRY[name] for name in identities._SCANS)


def test_pack_is_longest_processing_time_first():
    # Heaviest first, each to the lightest bin so far; the heaviest bin first.
    items = [(w, f"t{w}") for w in (1, 7, 3, 5, 2, 2, 9)]
    assert cli_pack(items, 3) == [["t9", "t1"], ["t5", "t3", "t2"], ["t7", "t2"]]
    assert cli_pack(items[:2], 8) == [["t7"], ["t1"]]


def test_verify_all_payload_is_pinned(capsys):
    # The whole registry's payload at n <= 5, byte for byte.
    code, out, _ = run_cli(capsys, "verify", "--all", "--n-max", "5", "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "47842e5b9e47024b089ecdda194ac1324c753502af0c3d5faf8921d03bce2089"
    )


def test_verify_all_payload_is_pinned_to_n6(capsys):
    # Reaches the alternating group of degree 7 and prop712 with four k's.
    code, out, _ = run_cli(capsys, "verify", "--all", "--n-max", "6", "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b5d93831efb77a03d1a806aad53b45666735bb2545ba4a521f8d9fb01b324007"
    )


@pytest.mark.parametrize("name, digest", [
    ("lemma64", "98e7fed0dfc24aea9315dd83a9856d5b19d548fe486663b96252821ce26e112a"),
    ("fs-rmaj", "a433c2ef4ad813f2708cb72905cfb43593d8fde37cc6cd5d154483657f528a98"),
])
def test_verify_payload_is_pinned_at_default_cap(capsys, name, digest):
    # Both caps are 7, which the --n-max 6 pin does not reach.
    code, out, _ = run_cli(capsys, "verify", name, "--n", "7", "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _die_in_worker(*args, **kwargs):
    """Stands in for a registry check: a pool worker ends without a result."""
    if multiprocessing.parent_process() is None:
        raise RuntimeError("meant to run in a pool worker only")
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched task reaches the workers only through fork")
def test_verify_crashed_worker_exits_2(capsys, monkeypatch):
    from permstat import cli

    # Each worker tallies its batch's pass, then dies as it checks the
    # batch's first entry.
    e = REGISTRY["macmahon"]
    monkeypatch.setitem(REGISTRY, "macmahon", IdentityEntry(
        e.name, e.description, e.params, e.min_n, e.default_cap, _die_in_worker))
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


def test_csv_payloads_parse_as_csv(capsys, monkeypatch):
    # Descriptions, parameter schemas and failing points hold commas: each
    # row still parses to the header's width, and its fields round-trip.
    def failing_check(n):
        yield {"w": (1, 2, 3), "stat": "maj"}, (0, {(0, 0): 1}), (0, {(0, 0): 2}), 6

    monkeypatch.setitem(REGISTRY, "test-failing", IdentityEntry(
        "test-failing", "fails, at once", {"n": "int"}, 1, 3, failing_check))
    code, out, _ = run_cli(capsys, "list", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert all(len(row) == len(header) == 5 for row in rows)
    assert [(row[0], row[3], row[4]) for row in rows] == [
        (name, ";".join(f"{k}:{v}" for k, v in e.params.items()), e.description)
        for name, e in sorted(REGISTRY.items())]
    code, out, _ = run_cli(
        capsys, "verify", "test-failing", "--n", "2", "--jobs", "1", "--format", "csv"
    )
    assert code == 1
    assert list(csv.reader(io.StringIO(out))) == [
        ["name", "params", "pass", "elapsed"],
        ["test-failing", "failed_at=w=[1, 2, 3]/stat=maj;n=2", "false", ""],
    ]


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


def test_usage_errors_exit_2(capsys):
    # argparse's own rejections, including a permutation it reads as a flag,
    # canon degrees below 1, canon given both a permutation and a word, verify
    # given both --n and --n-max, and malformed shuffle cuts
    for argv in ([], ["stat", "--bogus-flag"], ["stat", "--group", "S", "-1,0"],
                 ["verify", "--n", "x"], ["list", "extra"],
                 ["canon", "--group", "S", "--from-word", "s1", "--n", "0"],
                 ["canon", "--group", "S", "--from-word", "", "--n", "-3"],
                 ["canon", "--group", "A", "--from-word", "", "--n", "0"],
                 ["canon", "--group", "A", "[1,2,3]", "--from-word", "a5"],
                 ["verify", "macmahon", "--n", "3", "--n-max", "4"],
                 ["shuffles", "--n", "4", "--b", "1,,2"], ["shuffles", "--n", "4", "--b", "x"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    assert run_cli(capsys, "shuffles", "--n", "4", "--b", "1,,2")[2] == (
        "error: --b takes comma-separated integers (got '1,,2')\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


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


# main builds its parser once per process, on its first call; every call
# after that must still parse as a fresh parser does.

LEMMA65_N3 = ["verify", "lemma65", "--n", "3", "--jobs", "1"]


def fresh_cli(capsys, *argv):
    args = build_parser().parse_args(list(argv))
    code = args.run(args)
    return code, capsys.readouterr().out


def test_repeated_calls_print_what_a_fresh_parser_prints(capsys):
    first, second = run_cli(capsys, *LEMMA65_N3), run_cli(capsys, *LEMMA65_N3)
    assert first[:2] == second[:2] == fresh_cli(capsys, *LEMMA65_N3)
    assert first[0] == 0 and json.loads(first[1])["pass"] is True


def test_a_usage_error_leaves_the_next_call_whole(capsys):
    code, out, err = run_cli(capsys, "verify", "lemma65", "--n", "3", "--n-max", "4")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert run_cli(capsys, *LEMMA65_N3)[:2] == fresh_cli(capsys, *LEMMA65_N3)


def test_options_do_not_leak_into_the_next_call(capsys):
    from permstat import cli

    code, out, _ = run_cli(capsys, *LEMMA65_N3, "--timings", "--format", "csv")
    assert code == 0 and out.startswith("name,params,pass,elapsed\nlemma65,n=3,true,0.")
    code, out, _ = run_cli(capsys, *LEMMA65_N3)
    assert (code, out) == fresh_cli(capsys, *LEMMA65_N3)
    assert "elapsed" not in out
    assert vars(cli._parser().parse_args(LEMMA65_N3)) == vars(build_parser().parse_args(LEMMA65_N3))


def test_a_second_call_builds_no_parser(capsys, monkeypatch):
    import argparse

    assert run_cli(capsys, "list")[0] == 0
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    assert run_cli(capsys, *LEMMA65_N3)[0] == 0
    assert added == []
    # The public builder still makes a new parser on every call.
    assert build_parser() is not build_parser() and added


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
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
