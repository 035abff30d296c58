"""The four benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  ``scan``, ``points`` and ``sweep`` call
the CLI in-process through ``permstat.cli.main(argv)`` with stdout captured;
``queries`` calls the library one element at a time.  Functions are looked up
on their modules at the start of each pass, so a pass made while the layer
tracer is installed goes through the traced wrappers.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field

# Registry entries as (min_n, default cap), pinned here so that the workloads
# stay the same when the program changes its caps.  The scan entries spend
# their time in per-element perm/words/stats work over a whole group; the
# point entries build and compare small polynomials at thousands of
# checkpoints.  Together they are the whole registry, i.e. `verify --all`.
SCAN_ENTRIES = {
    "appendix-hat": (2, 8), "cor92-a": (1, 7), "cor92-s": (1, 7),
    "fs-fixed-descent": (1, 7), "fs-rmaj": (1, 7), "macmahon": (1, 8),
    "main-a": (1, 5), "main-s": (1, 6), "prop510-multivar-a": (1, 7),
    "prop510-multivar-s": (1, 7), "prop511-multivar": (1, 8), "prop56": (1, 9),
    "prop57-stirling-a": (1, 8), "prop57-stirling-s": (1, 8), "prop67": (1, 8),
    "prop712-sk-occurrences": (1, 8), "thm61-a": (1, 8), "thm61-s": (1, 8),
    "thm62-a": (1, 8), "thm62-s": (1, 8),
}
POINT_ENTRIES = {
    "fiber-size": (1, 7), "garsia-gessel": (2, 6), "lemma63": (1, 6),
    "lemma64": (1, 7), "lemma65": (1, 7), "lemma86": (2, 6), "lemma87": (2, 6),
    "lemma93": (2, 6), "prop81": (2, 6), "remark66": (1, 7),
}
GENFUN_CAPS = {"S": 9, "A": 8}
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Size:
    """How far below the default caps the CLI workloads run, and the query range."""

    cap_offset: int
    sweep_n_max: int
    max_degree: int
    max_delent: int


# "bench" keeps one pass of each CLI workload at a few seconds so that a
# twenty-second run holds several passes; "small" is for the smoke test.
SIZES = {
    "small": Size(cap_offset=3, sweep_n_max=3, max_degree=10, max_delent=6),
    "bench": Size(cap_offset=1, sweep_n_max=5, max_degree=20, max_delent=12),
}
QUERY_SEED_REFERENCE = 0
A_QUERIES_PER_DEGREE = 8
QUERIES_PER_PROBE = 8


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def probe_s() -> float:
    """Seconds for a fixed pure-Python task that shares no code with permstat."""
    start = time.perf_counter()
    hist: dict = {}
    for p in itertools.permutations(range(6)):
        inv = sum(1 for i in range(6) for j in range(i + 1, 6) if p[i] > p[j])
        hist[inv, p[0]] = hist.get((inv, p[0]), 0) + 1
    return time.perf_counter() - start


class Yardstick:
    """Scales timings to a fixed machine speed.

    On a machine that shares its cores with other work, the speed of
    pure-Python code can swing by 2x over seconds to minutes.  On a 2-core
    2.1 GHz Xeon VM, the medians of runs made minutes apart spread by 17-42%
    raw and by 4-10% scaled.  A yardstick times the fixed probe task before
    the first operation and after every segment of operations, and scales the
    segment's timings by REFERENCE_S / (mean of the two probes around it).  A
    scaled time is thus "seconds at the speed where the probe takes
    REFERENCE_S"; permstat's own speed-ups and slow-downs pass through
    unchanged, because the probe runs none of its code.
    """

    REFERENCE_S = 0.002  # never change: it sets the unit of every scaled time

    def __init__(self) -> None:
        self.probes = [probe_s()]

    def tick(self) -> None:
        self.probes.append(probe_s())

    def scale(self, segment: int) -> float:
        return 2 * self.REFERENCE_S / (self.probes[segment] + self.probes[segment + 1])


class _Unscaled:
    """Stands in for a Yardstick when a pass's raw times are wanted."""

    def tick(self) -> None:
        pass

    def scale(self, segment: int) -> float:
        return 1.0


@dataclass
class PassResult:
    """One pass over a workload's inputs; times are scaled when a yardstick was used."""

    wall_s: float  # sum of the scaled call latencies
    raw_wall_s: float  # start to end of the pass, probes included
    busy_s: float  # sum of the raw call latencies
    latencies_s: list[float]  # scaled, one per call in a fixed order; NaN if it failed
    probes: list[float]  # the yardstick's probe times; empty without one
    outputs: list = field(repr=False)
    payload_bytes: int = 0


def _finish(start: float, raw: list[float], stick, segment_of, outputs: list,
            payload: int = 0) -> PassResult:
    """Scale the i-th latency by the factor of segment segment_of(i)."""
    wall = time.perf_counter() - start
    scaled = [s * stick.scale(segment_of(i)) for i, s in enumerate(raw)]

    def total(xs):
        return sum(x for x in xs if not math.isnan(x))

    return PassResult(total(scaled), wall, total(raw), scaled, getattr(stick, "probes", []),
                      outputs, payload)


# -- CLI workloads --------------------------------------------------------------

def _verify_argv(entries: dict, offset: int) -> list[list[str]]:
    return [
        ["verify", name, "--n", str(max(min_n, cap - offset)), "--jobs", "1"]
        for name, (min_n, cap) in entries.items()
    ]


def sweep_argv(size: Size, jobs: int) -> list[str]:
    return ["verify", "--all", "--n-max", str(size.sweep_n_max), "--jobs", str(jobs)]


def cli_argvs(workload: str, size: Size) -> list[list[str]]:
    if workload == "scan":
        return _verify_argv(SCAN_ENTRIES, size.cap_offset) + [
            ["genfun", "--group", "S", "--n", str(GENFUN_CAPS["S"] - size.cap_offset)],
            ["genfun", "--group", "A", "--n", str(GENFUN_CAPS["A"] - size.cap_offset),
             "--multivar"],
        ]
    if workload == "points":
        return _verify_argv(POINT_ENTRIES, size.cap_offset)
    if workload == "sweep":
        return [sweep_argv(size, SWEEP_JOBS)]
    raise ValueError(f"{workload} is not a CLI workload")


def call_cli(argv: list[str]) -> tuple[int | str, str, float]:
    """Run permstat.cli.main(argv) in-process; (exit code or error, stdout, seconds)."""
    from permstat import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped exception is a counted failure, not a crash
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


class CliWorkload:
    """A fixed list of CLI calls, run in a seeded order."""

    def __init__(self, name: str, size: Size, seed: int, expected: dict):
        self.name = name
        self.size = size
        self.argvs = cli_argvs(name, size)
        random.Random(seed).shuffle(self.argvs)
        self.expected = expected
        self.elements_per_pass = 0

    def run_pass(self, argvs: list[list[str]] | None = None,
                 yardstick: bool = False) -> PassResult:
        """One closed-loop pass; with a yardstick, a probe runs between calls."""
        stick = Yardstick() if yardstick else _Unscaled()
        outputs, latencies = [], []
        start = time.perf_counter()
        for argv in argvs or self.argvs:
            code, out, seconds = call_cli(argv)
            stick.tick()
            latencies.append(seconds)
            outputs.append((argv, code, out))
        payload = sum(len(out.encode()) for _, _, out in outputs)
        return _finish(start, latencies, stick, lambda i: i, outputs, payload)

    def failures(self, result: PassResult) -> list[str]:
        bad = []
        for argv, code, out in result.outputs:
            key = " ".join(argv)
            if code != 0:
                bad.append(f"{key}: exit {code}")
            elif digest(out) != self.expected["cli"].get(key):
                bad.append(f"{key}: output digest differs from the recorded one")
        return bad

    def reference_failures(self) -> None:
        """CLI payloads are all checked against recorded digests on every pass."""
        return None

    def trace_argvs(self) -> list[list[str]]:
        """The traced pass stays in one process so every layer is seen."""
        if self.name == "sweep":
            return [sweep_argv(self.size, 1)]
        return self.argvs


# -- queries ----------------------------------------------------------------------

def inversions(p) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def is_even(p) -> bool:
    seen = [False] * len(p)
    transpositions = 0
    for start in range(len(p)):
        length = 0
        pos = start
        while not seen[pos]:
            seen[pos] = True
            pos = p[pos] - 1
            length += 1
        transpositions += max(length - 1, 0)
    return transpositions % 2 == 0


def minima_after_first(p) -> int:
    """Left-to-right minima of p, the first position not counted."""
    low, count = p[0], 0
    for x in p[1:]:
        if x < low:
            low, count = x, count + 1
    return count


def perm_with_minima(rng: random.Random, n: int, d: int) -> tuple[int, ...]:
    """A random permutation of degree n with exactly d minima after position 1.

    Built from its left inversion table c (c_i = earlier entries above p(i)):
    position i is a left-to-right minimum exactly when c_i = i - 1.
    """
    minima = set(rng.sample(range(2, n + 1), d))
    table = [i - 1 if i == 1 or i in minima else rng.randrange(i - 1) for i in range(1, n + 1)]
    remaining = list(range(1, n + 1))
    p = [0] * n
    for i in range(n, 0, -1):
        p[i - 1] = remaining.pop(i - table[i - 1] - 1)
    return tuple(p)


def random_even(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    if not is_even(p):
        p[0], p[1] = p[1], p[0]
    return tuple(p)


def make_queries(seed: int, size: Size) -> list[tuple[str, tuple[int, ...]]]:
    """Seeded single-element queries of degree 3..max_degree in both groups.

    The S queries are stratified: one permutation for every degree n and every
    delent d <= min(n - 1, max_delent), so fibre sizes 2^d cover 1..2^max_delent
    in the same proportions for every seed and only the elements change.
    """
    rng = random.Random(seed)
    queries = []
    for n in range(3, size.max_degree + 1):
        for d in range(min(n - 1, size.max_delent) + 1):
            queries.append(("S", perm_with_minima(rng, n, d)))
        for _ in range(A_QUERIES_PER_DEGREE):
            queries.append(("A", random_even(rng, n)))
    rng.shuffle(queries)
    return queries


def fibre_histogram(queries) -> dict[int, int]:
    """Number of S queries per fibre size 2^delent."""
    hist: dict[int, int] = {}
    for group, p in queries:
        if group == "S":
            size = 2 ** minima_after_first(p)
            hist[size] = hist.get(size, 0) + 1
    return dict(sorted(hist.items()))


def run_queries(queries, yardstick: bool = False) -> PassResult:
    """Each query makes four timed library calls; every call is one latency sample.

    With a yardstick, a probe runs after every QUERIES_PER_PROBE queries.
    """
    from permstat import cover, stats, words

    calls = {
        "S": (words.s_canonical, words.s_word_pretty, cover.fiber),
        "A": (words.a_canonical, words.a_word_pretty, cover.f_map),
    }
    stat_profile = stats.stat_profile
    stick = Yardstick() if yardstick else _Unscaled()
    clock = time.perf_counter
    outputs, latencies = [], []
    start = clock()
    for q, (group, p) in enumerate(queries):
        canonical, pretty, last = calls[group]
        try:
            t0 = clock()
            profile = stat_profile(p, group)
            t1 = clock()
            word = canonical(p)
            t2 = clock()
            text = pretty(word)
            t3 = clock()
            tail = last(p)
            t4 = clock()
        except Exception as exc:  # counted as a failed query
            outputs.append(exc)
            latencies += (math.nan,) * 4
        else:
            latencies += (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
            outputs.append((profile, word, text, tail))
        if q % QUERIES_PER_PROBE == QUERIES_PER_PROBE - 1 or q == len(queries) - 1:
            stick.tick()
    return _finish(start, latencies, stick, lambda i: i // (4 * QUERIES_PER_PROBE), outputs)


def query_failure(group: str, p, output) -> str | None:
    """Check one query's output against invariants computed here."""
    from permstat import stats, words

    if isinstance(output, Exception):
        return f"{group} {p}: {type(output).__name__}: {output}"
    profile, word, _, tail = output
    info = stats.profile_to_json(profile)
    if group == "S":
        inv = inversions(p)
        word_length = sum(f["j"] - f["r"] + 1 for f in words.word_to_json(word))
        if info["length"] != inv or word_length != inv:
            return f"S {p}: length {info['length']}/{word_length}, inversions {inv}"
        d = minima_after_first(p)
        if info["del"] != d or len(tail) != 2 ** d:
            return f"S {p}: delent {info['del']}, fibre {len(tail)}, expected 2^{d}"
        if len(set(tail)) != len(tail) or any(
                len(v) != len(p) + 1 or sorted(v) != list(range(1, len(p) + 2)) or not is_even(v)
                for v in tail):
            return f"S {p}: a lift is repeated, odd or of the wrong degree"
    elif sorted(tail) != list(range(1, len(p))) or info["n"] != len(p) - 1:
        return f"A {p}: projection {tail} is not a permutation of degree {len(p) - 1}"
    return None


def fingerprint(output) -> int:
    """Hash of one query's output, to compare passes without keeping them."""
    if isinstance(output, Exception):
        return hash(repr(output))
    profile, word, text, tail = output
    return hash((profile, word, text, tuple(tail)))


def query_digest(outputs) -> str:
    from permstat import stats, words

    lines = []
    for output in outputs:
        if isinstance(output, Exception):
            lines.append(repr(output))
            continue
        profile, word, text, tail = output
        shaped = [list(v) for v in tail] if tail and isinstance(tail[0], tuple) else list(tail)
        lines.append(json.dumps([stats.profile_to_json(profile), words.word_to_json(word),
                                 text, shaped], separators=(",", ":")))
    return digest("\n".join(lines))


def query_reference_key(size: Size) -> str:
    return (f"seed={QUERY_SEED_REFERENCE} degree<={size.max_degree} "
            f"delent<={size.max_delent}")


class QueryWorkload:
    name = "queries"

    def __init__(self, size: Size, seed: int, expected: dict):
        self.size = size
        self.seed = seed
        self.queries = make_queries(seed, size)
        self.elements_per_pass = len(self.queries)
        self.expected = expected
        self._first = None

    def run_pass(self, argvs=None, yardstick: bool = False) -> PassResult:
        return run_queries(self.queries, yardstick)

    def failures(self, result: PassResult) -> list[str]:
        """Full invariant check on the first pass; later passes must repeat it exactly."""
        prints = [fingerprint(out) for out in result.outputs]
        if self._first is None:
            self._first = prints
            bad = [msg for (group, p), out in zip(self.queries, result.outputs)
                   if (msg := query_failure(group, p, out)) is not None]
            if self.seed == QUERY_SEED_REFERENCE:
                bad += self._digest_failures(result.outputs)
            return bad
        return [f"{group} {p}: output differs between passes"
                for (group, p), now, first in zip(self.queries, prints, self._first)
                if now != first]

    def reference_failures(self) -> list[str] | None:
        """Run the seed-0 stream, whose output digest was recorded, once more.

        None when this run's own stream is the seed-0 one, already checked on
        its first pass.
        """
        if self.seed == QUERY_SEED_REFERENCE:
            return None
        return self._digest_failures(run_queries(make_queries(QUERY_SEED_REFERENCE,
                                                              self.size)).outputs)

    def _digest_failures(self, outputs) -> list[str]:
        key = query_reference_key(self.size)
        if query_digest(outputs) != self.expected["queries"].get(key):
            return [f"queries {key}: output digest differs from the recorded one"]
        return []

    def trace_argvs(self):
        return None


def make_workload(name: str, size: Size, seed: int, expected: dict):
    if name == "queries":
        return QueryWorkload(size, seed, expected)
    return CliWorkload(name, size, seed, expected)
