"""permstat benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout (the directory that holds ``src/permstat``):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` it reports the per-layer
metrics, medians over traced passes that alternate with untraced passes of
the same inputs.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 2, with no result line, when permstat cannot be imported from
the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import multiprocessing.process
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, YIELDS, LayerTracer, calibrate  # noqa: E402
from workloads import SIZES, SWEEP_JOBS, Yardstick, make_workload  # noqa: E402

WORKLOADS = ("scan", "points", "sweep", "queries")
COLD_STARTS = 12
SPAN_DIR = ".perfbench_out"


def import_checkout(root: Path) -> None:
    """Import permstat from root/src, and from nowhere else."""
    src = root / "src"
    if not (src / "permstat" / "__init__.py").is_file():
        raise RuntimeError(f"no permstat sources under {src}")
    sys.path.insert(0, str(src))
    import permstat

    if Path(permstat.__file__).resolve().parent != (src / "permstat").resolve():
        raise RuntimeError(f"permstat was imported from {permstat.__file__}, not {src}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


class ProcessCounter:
    """Counts the worker processes started while it is active, and how many ran at once."""

    def __init__(self) -> None:
        self.started: list = []
        self.max_alive = 0
        self._original = None

    def __enter__(self) -> "ProcessCounter":
        base = multiprocessing.process.BaseProcess
        self._original = original = base.start
        counter = self

        def start(proc):
            original(proc)
            counter.started.append(proc)
            counter.max_alive = max(counter.max_alive,
                                    sum(1 for p in counter.started if p.is_alive()))

        base.start = start
        return self

    def __exit__(self, *exc) -> None:
        multiprocessing.process.BaseProcess.start = self._original


class ColdStarts:
    """Fresh `python -m permstat list` processes, one at a time, each timed and scaled.

    A cold start is mostly process creation, interpreter start and imports,
    whose speed drifts apart from that of pure-Python code.  So its yardstick
    is a bare interpreter start (`python -c pass`) just before and just after
    it: a cold start's scaled time is its wall time times BARE_REFERENCE_S /
    (mean of the two bare starts).  Work that permstat adds to its start-up
    passes through; the interpreter's own start-up cost is held fixed.
    """

    BARE_REFERENCE_S = 0.02  # never change: it sets the unit of setup_s

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), self.env.get("PYTHONPATH")]))
        self.scaled_s: list[float] = []
        self.raw_s: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self._cold_start()  # fills the bytecode cache; not timed

    def _time(self, *args: str) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True)
        return time.perf_counter() - start, proc

    def _cold_start(self) -> float:
        elapsed, proc = self._time("-m", "permstat", "list")
        self.attempted += 1
        if proc.returncode != 0 or "thm61-a" not in proc.stdout:
            self.failures.append(f"cold start: exit {proc.returncode}: {proc.stderr.strip()[:200]}")
        return elapsed

    def sample(self) -> None:
        before, _ = self._time("-c", "pass")
        elapsed = self._cold_start()
        after, _ = self._time("-c", "pass")
        self.raw_s.append(elapsed)
        self.scaled_s.append(elapsed * 2 * self.BARE_REFERENCE_S / (before + after))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


class Run:
    """Operations attempted and failed, and human-readable notes, for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def check(self, workload, result) -> None:
        self.attempted += len(result.outputs)
        self.failures += workload.failures(result)
        result.outputs = []  # keep memory flat across passes

    def check_reference(self, workload) -> None:
        bad = workload.reference_failures()
        if bad is not None:
            self.attempted += 1
            self.failures += bad


def measure(workload, seconds: float, root: Path, run: Run) -> dict:
    # The cold starts are spread over the run, between the passes, so that
    # setup_s samples the machine's state as the passes do.
    setup = ColdStarts(root)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        result = workload.run_pass(yardstick=True)
        run.check(workload, result)
        passes.append(result)
        due = min(COLD_STARTS, math.ceil(COLD_STARTS * (time.perf_counter() - start) / seconds))
        while len(setup.scaled_s) < due:
            setup.sample()
    run.attempted += setup.attempted
    run.failures += setup.failures
    run.check_reference(workload)
    # Each call's latency is its median over the passes, which keeps a noisy
    # pass from setting the tail; the percentiles are taken across calls.
    per_call = []
    for samples in zip(*(p.latencies_s for p in passes)):
        done = [s for s in samples if not math.isnan(s)]
        if done:
            per_call.append(statistics.median(done))
    p99 = percentile(per_call, 99)
    run.notes += [
        f"passes {len(passes)}, scaled pass times_s {[round(p.wall_s, 4) for p in passes]}",
        f"raw pass walls_s {[round(p.raw_wall_s, 4) for p in passes]}",
        f"latency: {len(per_call)} calls, each the median of {len(passes)} passes; "
        f"{sum(1 for s in per_call if s > p99)} calls beyond p99",
        f"cold starts {len(setup.scaled_s)} after one warm-up, "
        f"scaled times_s {[round(s, 4) for s in setup.scaled_s]}",
        f"cold starts raw median {statistics.median(setup.raw_s):.4f} s",
    ]
    return {
        "setup_s": statistics.median(setup.scaled_s),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "query_p50_us": percentile(per_call, 50) * 1e6,
        "query_p99_us": p99 * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }


def pass_scale(result) -> float:
    """One yardstick factor for a whole pass, from all of its probes."""
    return Yardstick.REFERENCE_S / statistics.mean(result.probes)


def pool_metrics(workload, serial, run: Run) -> tuple[float, float]:
    """(jobs-1 wall / jobs-2 wall, task busy time / (2 x jobs-2 wall)) of the sweep.

    serial is an untraced `--jobs 1` pass made just before.
    """
    pooled = workload.run_pass(yardstick=True)
    run.check(workload, pooled)
    timed = workload.run_pass([workload.argvs[0] + ["--timings"]])
    run.attempted += 1
    (argv, code, out), = timed.outputs
    reports = [json.loads(line) for line in out.splitlines()]
    if code != 0 or not reports or not all(r["pass"] for r in reports):
        run.failures.append(f"{' '.join(argv)}: exit {code} or a failed report")
    busy = sum(r.get("elapsed", 0.0) for r in reports)
    return ((serial.busy_s * pass_scale(serial)) / (pooled.busy_s * pass_scale(pooled)),
            busy / (SWEEP_JOBS * timed.raw_wall_s))


def layer_metrics(workload, tracer: LayerTracer, traced, untraced) -> dict:
    """Per-layer figures of one traced pass, its times scaled by the pass's own factor."""
    speed = pass_scale(traced)
    elements = (tracer.yields("perm.iter_symmetric") + tracer.yields("perm.iter_alternating")
                + workload.elements_per_pass)
    checkpoints = tracer.total("identities.check:", YIELDS)
    attributed = sum(tracer.self_s(layer) for layer in LAYERS)

    def per(count: int, base: int) -> float:
        return count / base if base else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.total(f"{layer}.")
        metrics[f"{layer}.self_s"] = tracer.self_s(layer) * speed
    traced_wall = traced.busy_s * speed
    untraced_wall = untraced.busy_s * pass_scale(untraced)
    metrics.update({
        "perm.elements": elements,
        "perm.sign_per_element": per(tracer.calls("perm.sign"), elements),
        "words.canonical_per_element": per(
            tracer.calls("words.s_canonical") + tracer.calls("words.a_canonical"), elements),
        "cover.fiber_elements": tracer.yields("cover.iter_fiber"),
        "qpoly.polys_built": tracer.calls("qpoly.MultiPoly.__init__"),
        "qpoly.lift_calls": tracer.calls("qpoly.MultiPoly.lift"),
        "qpoly.polys_per_checkpoint": per(tracer.calls("qpoly.MultiPoly.__init__"), checkpoints),
        "shuffles.enumerated": tracer.size("shuffles.enumerate_b_shuffles"),
        "identities.checkpoints": checkpoints,
        "identities.elements_scanned": tracer.size("identities.verify"),
        "cli.payload_bytes": traced.payload_bytes,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.wrapper_s": tracer.wrapper_s() * speed,
        "trace.unattributed_s": (traced.busy_s - attributed - tracer.wrapper_s()) * speed,
    })
    return metrics


def trace(workload, seconds: float, root: Path, seed: int, run: Run) -> dict:
    """Untraced and traced passes of the same inputs, in turns, until seconds is used up.

    Every figure is its median over the traced passes.
    """
    argvs = workload.trace_argvs()
    rows, spans = [], []
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        untraced = workload.run_pass(argvs, yardstick=True)
        # Calibrated next to each traced pass, because the machine's speed drifts.
        extra_ns, outside_ns = calibrate()
        tracer = LayerTracer(outside_ns)
        with tracer:
            traced = workload.run_pass(argvs, yardstick=True)
        for result in (untraced, traced):
            run.check(workload, result)
        row = layer_metrics(workload, tracer, traced, untraced)
        row["trace.wrapper_ns"] = extra_ns
        row["cli.pool_speedup"], row["cli.pool_busy_ratio"] = (
            pool_metrics(workload, untraced, run) if workload.name == "sweep" else (0.0, 0.0))
        rows.append(row)
        spans.append(tracer.spans)
        layers = sum(row[f"{layer}.self_s"] for layer in LAYERS)
        run.notes.append(
            f"traced pass {len(rows)}: scale {pass_scale(traced):.4f}; layers {layers:.4f} "
            f"+ wrappers {row['trace.wrapper_s']:.4f} "
            f"+ unattributed {row['trace.unattributed_s']:.4f} "
            f"= traced wall {row['trace.traced_wall_s']:.4f} s")
    run.check_reference(workload)

    span_dir = root / SPAN_DIR
    span_dir.mkdir(exist_ok=True)
    span_path = span_dir / f"spans-{workload.name}-seed{seed}.json"
    span_path.write_text(json.dumps(spans, separators=(",", ":")))

    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    run.notes += [
        f"traced argv {[' '.join(a) for a in argvs] if argvs else 'library queries'}",
        f"{len(rows)} traced passes; every figure is its median over them",
        f"by the last calibration, a traced call costs {extra_ns:.0f} ns more than a direct "
        f"one, {outside_ns:.0f} ns of it outside the wrapper's clock window",
        f"spans of every traced pass written to {span_path.relative_to(root)}",
        "top calls of the last traced pass "
        + ", ".join(f"{k}={v}" for k, v in tracer.most_called(8)),
    ]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; passes repeat until it is used up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="bench",
                        help="bench: one below each default cap; small: for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        import_checkout(root)
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    workload = make_workload(args.workload, SIZES[args.size], args.seed, expected)
    if workload.name == "queries":
        from workloads import fibre_histogram

        hist = fibre_histogram(workload.queries)
        print(f"queries {len(workload.queries)}, S queries by fibre size {hist}")

    run = Run()
    with ProcessCounter() as processes:
        if args.trace:
            values = trace(workload, args.seconds, root, args.seed, run)
        else:
            values = measure(workload, args.seconds, root, run)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {declared}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for note in run.notes:
        print(note)
    print(f"pool processes started {len(processes.started)}, at most {processes.max_alive} "
          f"at once; cold starts run one at a time")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(f"fail_ratio {len(run.failures) / run.attempted:.6f} "
          f"({len(run.failures)} of {run.attempted} operations)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
