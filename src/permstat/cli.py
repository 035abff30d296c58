"""Command-line frontend: compute, enumerate, verify.

All payload output goes to stdout, diagnostics to stderr, and nothing is
written to disk unless --out is given.  Output is deterministic: identical
invocations produce byte-identical payloads.  Timing is therefore emitted on
stderr only, unless --timings explicitly opts it into the payload.

Exit codes: 0 success, 1 at least one verification failed, 2 usage error
(or a verify worker process that died).

Each runner imports the modules it runs, so a cold start compiles only
those: ``list`` reads the catalog and compiles no check.  ``main`` builds
its parser once per process, on its first call.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .catalog import REGISTRY, CapExceeded

DEGREE_CAP = 20
GENFUN_CAP_S = 9
GENFUN_CAP_A = 8
SHUFFLE_COUNT_CAP = 500_000


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _output(out_path: str | None):
    """A context giving the file --out names, opened for writing, or stdout."""
    return open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with _output(out_path) as fh:
        fh.write(text)


def _csv(rows) -> str:
    """Rows as CSV text: a field is quoted only where it needs it, and each row
    ends in a newline."""
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _check_degree(n: int) -> None:
    if n > DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds the cap of {DEGREE_CAP}")


def _parse_perm_arg(text: str) -> tuple[int, ...]:
    from .perm import parse_one_line

    p = parse_one_line(text)
    _check_degree(len(p))
    return p


# -- per-subcommand runners ---------------------------------------------------

def _run_stat(args) -> int:
    from .stats import profile_to_json, stat_profile

    p = _parse_perm_arg(args.perm)
    profile = stat_profile(p, args.group)
    payload = profile_to_json(profile)
    # csv and pretty write a set-valued field as its members joined by spaces.
    flat = {k: " ".join(map(str, v)) if isinstance(v, list) else v for k, v in payload.items()}
    if args.format == "json":
        text = _dumps(payload)
    elif args.format == "csv":
        text = _csv([flat.keys(), flat.values()])
    else:
        text = "\n".join(f"{k}: {v}" for k, v in flat.items())
    _emit(text, args.out)
    return 0


def _run_canon(args) -> int:
    from .words import (
        a_canonical, a_word_pretty, eval_a_letters, eval_s_letters, parse_a_letters,
        parse_s_letters, s_canonical, s_word_pretty, word_to_json,
    )

    if args.from_word is not None:
        if args.perm is not None:
            raise ValueError("canon takes a permutation or --from-word, not both")
        # Check the degree before evaluating: it sizes the permutation built,
        # and the evaluation rejects letters beyond it.
        if args.group == "S":
            letters, evaluate = parse_s_letters(args.from_word), eval_s_letters
            n = max(letters, default=0) + 1
        else:
            letters, evaluate = parse_a_letters(args.from_word), eval_a_letters
            n = max((k for k, _ in letters), default=0) + 2
        if args.n is not None:
            n = args.n
            if n < 1:
                raise ValueError(f"canon needs --n of at least 1 (got {n})")
        _check_degree(n)
        p = evaluate(n, letters)
    else:
        if args.perm is None:
            raise ValueError("canon needs a permutation or --from-word")
        if args.n is not None:
            raise ValueError("canon takes --n only with --from-word")
        p = _parse_perm_arg(args.perm)
    if args.group == "S":
        word = s_canonical(p)
        pretty = s_word_pretty(word)
    else:
        word = a_canonical(p)
        pretty = a_word_pretty(word)
    factors = word_to_json(word)
    if args.format == "json":
        text = _dumps({"group": args.group, "perm": list(p), "factors": factors, "word": pretty})
    elif args.format == "csv":
        text = _csv([("j", "r", "last")] + [(f["j"], f["r"], f.get("last")) for f in factors])
    else:
        text = pretty
    _emit(text, args.out)
    return 0


def _write_perms(perms, degree: int, json_frame: tuple[str, str, str], args) -> None:
    """Write a nonempty stream of permutations of `degree` as they come.

    Each is its entries joined by commas, between the brackets and breaks that
    a dump of the whole list would put there; `json_frame` is the (head,
    separator, end) of the JSON format.  The entries are looked up as text
    rather than converted one by one.
    """
    digits = [str(x) for x in range(degree + 1)]
    rows = (",".join([digits[x] for x in p]) for p in perms)
    head, sep, end = {
        "json": json_frame, "csv": ("", "\n", "\n"), "pretty": ("[", "]\n[", "]\n"),
    }[args.format]
    with _output(args.out) as fh:
        fh.write(head + next(rows))
        fh.writelines(sep + row for row in rows)
        fh.write(end)


def _run_fiber(args) -> int:
    from .cover import iter_fiber

    w = _parse_perm_arg(args.perm)
    _write_perms(iter_fiber(w), len(w) + 1, ("[[", "],[", "]]\n"), args)
    return 0


def _run_shuffles(args) -> int:
    from .shuffles import _iter_b_shuffles, shuffle_count

    # The count itself costs a factorial of --n, so bound --n first.
    if args.n < 1:
        raise ValueError(f"shuffles needs --n of at least 1 (got {args.n})")
    if args.n > DEGREE_CAP and not args.force:
        raise CapExceeded(
            f"degree {args.n} exceeds the cap of {DEGREE_CAP}; use --force to override"
        )
    try:
        cuts = {int(part) for part in args.b.split(",")} if args.b.strip() else set()
    except ValueError:
        raise ValueError(f"--b takes comma-separated integers (got {args.b!r})") from None
    count = shuffle_count(args.n, cuts)
    if count > SHUFFLE_COUNT_CAP and not args.force:
        raise CapExceeded(
            f"{count} shuffles exceed the cap of {SHUFFLE_COUNT_CAP}; use --force to override"
        )
    # Each shuffle is written as it is made: memory does not grow with the count.
    _write_perms(_iter_b_shuffles(args.n, cuts), args.n, ("[", "]\n[", "]\n"), args)
    return 0


def _run_genfun(args) -> int:
    from .stats import genfun

    n = args.n
    cap = GENFUN_CAP_S if args.group == "S" else GENFUN_CAP_A
    if n > cap and not args.force:
        raise CapExceeded(
            f"genfun over group {args.group} is capped at n = {cap}; use --force to override"
        )
    poly = genfun(args.group, n, args.q_stat, args.t_stat, args.multivar)
    if args.format == "json":
        text = _dumps({
            "group": args.group,
            "n": n,
            "q_stat": args.q_stat,
            "t_stat": args.t_stat,
            "multivar": bool(args.multivar),
            "variables": poly.var_names(),
            "terms": poly.to_json(),
        })
    elif args.format == "csv":
        text = _csv([("coeff", "exps")] + [(term["coeff"], " ".join(map(str, term["exps"])))
                                           for term in poly.to_json()])
    else:
        text = poly.pretty()
    _emit(text, args.out)
    return 0


def _pool_size(jobs: int, tasks: int, cpus: int | None) -> int:
    """Worker processes for `tasks` pieces of work: `jobs`, or every CPU when it is 0.

    Never more than there are tasks or CPUs; 1 means run serially.
    """
    if jobs < 0:
        raise ValueError(f"--jobs must be non-negative (got {jobs})")
    cpus = cpus or 1
    return max(1, min(jobs or cpus, tasks, cpus))


def _pack(items: list[tuple[int, tuple]], bins: int) -> list[list[tuple]]:
    """Pack (work, item) pairs into at most `bins` submissions, heaviest first.

    Graham's longest-processing-time rule: each item, heaviest first, joins
    the lightest submission so far.
    """
    loads = [[0, []] for _ in range(min(bins, len(items)))]
    for cost, item in sorted(items, key=lambda pair: -pair[0]):
        lightest = min(loads, key=lambda load: load[0])
        lightest[0] += cost
        lightest[1].append(item)
    return [batch for _, batch in sorted(loads, key=lambda load: -load[0])]


def _verify_reports(tasks: list[tuple[str, int]], force: bool, extra: dict, jobs: int) -> list:
    """The reports of (name, n) tasks, in no fixed order.

    ``identities.plan`` checks every task and splits them into weighed
    pieces; the pool gets the pieces packed into about four submissions per
    worker, heaviest first.
    """
    from . import identities

    pieces = identities.plan(tasks, force, **extra)
    workers = _pool_size(jobs, len(pieces), os.cpu_count())
    if workers == 1:
        return identities.run([task for _, piece in pieces for task in piece])
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    submissions = [[task for piece in packed for task in piece]
                   for packed in _pack(pieces, 4 * workers)]
    # With the fork start method, workers inherit the compiled checks
    # instead of each compiling them.
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [r for reports in pool.map(identities.run, submissions) for r in reports]
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a verify worker process died: {exc}") from None


def _params_csv(params: dict) -> str:
    parts = []
    for k in sorted(params):
        v = params[k]
        if isinstance(v, dict):
            v = "/".join(f"{a}={b}" for a, b in v.items())
        parts.append(f"{k}={v}")
    return ";".join(parts)


def _run_verify(args) -> int:
    if args.all:
        names = sorted(REGISTRY)
    elif args.name:
        if args.name not in REGISTRY:
            raise ValueError(f"unknown identity {args.name!r}; try the list subcommand")
        names = [args.name]
    else:
        raise ValueError("verify needs an identity name or --all")
    extra = {"k": args.k, "i": args.i}  # the catalog drops the ones not given
    tasks = []
    for name in names:
        entry = REGISTRY[name]
        if args.n is not None:
            ns = [args.n]
        elif args.n_max is not None:
            hi = min(args.n_max, entry.default_cap)
            ns = list(range(entry.min_n, hi + 1)) or [entry.min_n]
        else:
            ns = [entry.default_cap]
        tasks += [(name, n) for n in ns]
    reports = _verify_reports(tasks, args.force, extra, args.jobs)
    reports.sort(key=lambda r: (r.identity, r.params.get("n", 0)))

    if args.format == "json":
        text = "\n".join(_dumps(r.to_json(include_elapsed=args.timings)) for r in reports)
    elif args.format == "csv":
        text = _csv([("name", "params", "pass", "elapsed")] + [
            (r.identity, _params_csv(r.params), str(r.passed).lower(),
             f"{r.elapsed:.6f}" if args.timings else "") for r in reports])
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{status} {r.identity} [{_params_csv(r.params)}] scanned={r.elements_scanned}"
            )
            if not r.passed:
                lines.append(f"  lhs: {r.lhs.pretty()}")
                lines.append(f"  rhs: {r.rhs.pretty()}")
        text = "\n".join(lines)
    _emit(text, args.out)
    total = sum(r.elapsed for r in reports)
    fails = sum(1 for r in reports if not r.passed)
    print(
        f"verify: {len(reports)} checks, {fails} failed, {total:.2f}s total",
        file=sys.stderr,
    )
    return 1 if fails else 0


def _run_list(args) -> int:
    entries = [REGISTRY[name] for name in sorted(REGISTRY)]
    if args.format == "json":
        text = "\n".join(
            _dumps({
                "name": e.name,
                "description": e.description,
                "params": e.params,
                "min_n": e.min_n,
                "default_cap": e.default_cap,
            })
            for e in entries
        )
    elif args.format == "csv":
        text = _csv([("name", "min_n", "default_cap", "params", "description")] + [
            (e.name, e.min_n, e.default_cap, ";".join(f"{k}:{v}" for k, v in e.params.items()),
             e.description) for e in entries])
    else:
        width = max(len(e.name) for e in entries)
        text = "\n".join(
            f"{e.name:<{width}}  n<={e.default_cap}  {e.description}" for e in entries
        )
    _emit(text, args.out)
    return 0


# -- argument parsing ----------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    sub.add_argument("--out", metavar="FILE", help="write the payload to FILE instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so main reports them on one line."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permstat",
        description="Exact permutation statistics on symmetric and alternating groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("stat", help="full statistic profile of one permutation")
    p.add_argument("--group", choices=["S", "A"], required=True)
    p.add_argument("perm", help='one-line form, e.g. "[2,5,4,1,3]"')
    _add_common(p)
    p.set_defaults(run=_run_stat)

    p = subs.add_parser("canon", help="canonical word of a permutation")
    p.add_argument("--group", choices=["S", "A"], required=True)
    p.add_argument("perm", nargs="?", help="one-line form; omit when using --from-word")
    p.add_argument("--from-word", help='flat letters to multiply first, e.g. "s1 s2 s1"')
    p.add_argument("--n", type=int, help="degree of the permutation --from-word builds")
    _add_common(p)
    p.set_defaults(run=_run_canon)

    p = subs.add_parser("fiber", help="all preimages of a permutation under the projection")
    p.add_argument("perm")
    _add_common(p)
    p.set_defaults(run=_run_fiber)

    p = subs.add_parser("shuffles", help="enumerate block shuffles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default="", help="comma-separated cut points, e.g. 1,3")
    p.add_argument("--force", action="store_true", help="ignore the enumeration size cap")
    _add_common(p)
    p.set_defaults(run=_run_shuffles)

    p = subs.add_parser("genfun", help="generating polynomial of a statistic pair")
    p.add_argument("--group", choices=["S", "A"], required=True)
    p.add_argument("--n", type=int, required=True,
                   help="degree for S; the group one degree up is used for A")
    p.add_argument("--q-stat", choices=["length", "maj", "rmaj"], default="length")
    p.add_argument("--t-stat", choices=["del", "none"], default="del")
    p.add_argument("--multivar", action="store_true",
                   help="mark each factor with its own variable instead of total delent")
    p.add_argument("--force", action="store_true", help="ignore the degree cap")
    _add_common(p)
    p.set_defaults(run=_run_genfun)

    p = subs.add_parser("verify", help="check identities from the registry")
    p.add_argument("name", nargs="?", help="registry name; see the list subcommand")
    p.add_argument("--all", action="store_true", help="run the whole registry")
    degrees = p.add_mutually_exclusive_group()
    degrees.add_argument("--n", type=int, help="run at exactly this n")
    degrees.add_argument("--n-max", type=int, help="run every n up to this bound (and each cap)")
    p.add_argument("--jobs", type=int, default=0,
                   help="parallel worker processes, at most one per CPU and per check; "
                        "default: one per CPU")
    p.add_argument("--force", action="store_true", help="ignore per-entry caps")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock times in the payload (not byte-reproducible)")
    p.add_argument("-k", type=int, help="generator index, for entries that take one")
    p.add_argument("-i", type=int, help="position index, for entries that take one")
    _add_common(p)
    p.set_defaults(run=_run_verify)

    p = subs.add_parser("list", help="the identity catalog")
    _add_common(p)
    p.set_defaults(run=_run_list)

    return parser


_parser = functools.cache(build_parser)  # main's parser, built on its first call


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
