"""Record a baseline: every metric on every workload over several seeds.

Run from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --trace-runs 4 --out perfbench/baseline.json

Each run is a separate `perfbench/run.py` process with its own seed
(--first-seed, then one up per run), one at a time.  For every metric it
records the median, the quartiles (``statistics.quantiles(values, n=4)``),
the sample count and the spread (interquartile distance over the median);
with fewer than 4 values, q1 and q3 are the minimum and the maximum.  An
end-to-end metric is flagged when its spread is not below a third of its
bound.  It also traces two registry entries at their default caps to check
the per-element and per-checkpoint counts that ROADMAP.md quotes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import HERE, WORKLOADS, import_checkout
from tracer import LAYERS, YIELDS, LayerTracer, calibrate
from workloads import SIZES, call_cli, fibre_histogram, make_queries


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 4:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1, q3 = min(values), max(values)
        row = {"unit": results[0]["metrics"][name]["unit"], "n": len(values),
               "median": median, "q1": q1, "q3": q3,
               "spread": (q3 - q1) / median if median else 0.0}
        if name in bounds:
            row["bound"] = bounds[name]
            row["steady"] = row["spread"] < bounds[name] / 3
        out[name] = row
    return out


def entry_trace(argv: list[str]) -> dict:
    """Per-layer counts of one traced CLI call, and its untraced time."""
    _, _, untraced_s = call_cli(argv)
    tracer = LayerTracer(calibrate()[1])
    with tracer:
        code, _, seconds = call_cli(argv)
    elements = tracer.yields("perm.iter_symmetric") + tracer.yields("perm.iter_alternating")
    checkpoints = tracer.total("identities.check:", YIELDS)
    self_s = {layer: round(tracer.self_s(layer), 4) for layer in LAYERS}
    return {
        "argv": " ".join(argv), "exit": code, "traced_wall_s": round(seconds, 4),
        "untraced_wall_s": round(untraced_s, 4),
        "self_s": self_s,
        "wrapper_s": round(tracer.wrapper_s(), 4),
        "qpoly_share_of_self_time": round(self_s["qpoly"] / sum(self_s.values()), 4),
        "elements": elements, "checkpoints": checkpoints,
        "sign_per_element": tracer.calls("perm.sign") / elements if elements else None,
        "polys_built": tracer.calls("qpoly.MultiPoly.__init__"),
        "lift_calls": tracer.calls("qpoly.MultiPoly.lift"),
        "polys_per_checkpoint": (tracer.calls("qpoly.MultiPoly.__init__") / checkpoints
                                 if checkpoints else None),
        "top_calls": dict(tracer.most_called(10)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=4, help="traced runs per workload")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    args = parser.parse_args()

    import_checkout(Path.cwd())
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    record = {
        "commit": commit,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%d"),
        "run_seconds": seconds,
        "seeds": f"{args.first_seed}..{args.first_seed + args.runs - 1}",
        # Stratified, so the same for every seed: S queries per fibre size 2^delent.
        "queries_s_by_fibre_size": fibre_histogram(make_queries(args.first_seed, SIZES["bench"])),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        row = {}
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        row["end_to_end"] = summarise(runs, bounds)
        row["failed"] = sum(r["failed"] for r in runs)
        row["attempted"] = sum(r["attempted"] for r in runs)
        if args.trace_runs:
            traced = [run_once(workload, seed, seconds, 1) for seed in seeds[:args.trace_runs]]
            row["per_layer"] = summarise(traced, {})
            row["failed"] += sum(r["failed"] for r in traced)
            row["attempted"] += sum(r["attempted"] for r in traced)
        record["workloads"][workload] = row
        for name, m in row["end_to_end"].items():
            print(f"{workload:8s} {name:14s} median {m['median']:.6g} {m['unit']}  "
                  f"spread {m['spread']:.4f}  bound {m['bound']}  "
                  f"{'ok' if m['steady'] else 'NOT STEADY'}", flush=True)
    record["entry_traces"] = [
        entry_trace(["verify", "thm61-a", "--n", "8", "--jobs", "1"]),
        entry_trace(["verify", "lemma63", "--n", "6", "--jobs", "1"]),
    ]
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
