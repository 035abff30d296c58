"""Smoke test of the benchmark itself, at reduced sizes (about 20 seconds).

Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that
- every workload, traced and untraced, prints every metric that
  BENCHMARK.json names, with its unit, and passes its own output checks;
- in every traced pass, the layer self times, the wrapper time and the
  unattributed time add up to the traced wall time;
- a deliberately corrupted expected digest makes fail_ratio non-zero, for a
  CLI workload and for the queries;
- no workload has more pool processes alive at once than there are CPUs;
- in a directory that holds only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exit code 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, SPAN_DIR, WORKLOADS, Run, import_checkout, measure
from workloads import SIZES, make_workload, query_reference_key

ROOT = Path.cwd()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_outputs() -> None:
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--size", "small")
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: outputs correct ({result['failed']} of {result['attempted']} failed)")
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            check(printed == declared, f"{label}: every {section} metric with its unit")
            human = "\n".join(lines[:-1])
            check(all(re.search(rf"^{re.escape(n)} \S+ {re.escape(u)}$", human, re.M)
                      for n, u in declared.items()),
                  f"{label}: every metric printed as 'name value unit'")
            if trace:
                sums = re.findall(r"^traced pass \d+: .*; layers (\S+) \+ wrappers (\S+) "
                                  r"\+ unattributed (\S+) = traced wall (\S+) s$", human, re.M)
                check(bool(sums) and all(abs(float(a) + float(b) + float(c) - float(wall)) < 1e-3
                                         for a, b, c, wall in sums),
                      f"{label}: layer self times + wrappers + unattributed = traced wall, "
                      f"in each of {len(sums)} traced passes")
            alive = re.search(r"at most (\d+) at once", human)
            check(alive is not None and int(alive.group(1)) <= (os.cpu_count() or 1),
                  f"{label}: pool processes alive at once within {os.cpu_count()} CPUs")


def check_corrupted_digest() -> None:
    import_checkout(ROOT)
    expected = json.loads((HERE / "expected.json").read_text())
    size = SIZES["small"]
    for name, seed in (("points", 3), ("queries", 5)):
        bad = copy.deepcopy(expected)
        if name == "queries":
            bad["queries"][query_reference_key(size)] = "0" * 64
        else:
            key = next(k for k in bad["cli"] if k.startswith("verify lemma63 --n 3 "))
            bad["cli"][key] = "0" * 64
        run = Run()
        measure(make_workload(name, size, seed, bad), 0.1, ROOT, run)
        check(len(run.failures) > 0 and run.attempted > 0,
              f"{name}: a corrupted expected digest gives fail_ratio "
              f"{len(run.failures)}/{run.attempted} > 0")


def check_bare_directory() -> None:
    bare = ROOT / SPAN_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    printed_result = '"metrics"' in proc.stdout
    check(proc.returncode != 0 and not printed_result,
          f"without the sources: exit {proc.returncode}, no result line")


def main() -> int:
    check_outputs()
    check_corrupted_digest()
    check_bare_directory()
    print("smoke: " + ("all checks passed" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
