"""Command-line frontend: compute, enumerate, verify.

All payload output goes to stdout, diagnostics to stderr, and nothing is
written to disk unless --out is given.  Output is deterministic: identical
invocations produce byte-identical payloads.  Timing is therefore emitted on
stderr only, unless --timings explicitly opts it into the payload.

Exit codes: 0 success, 1 at least one verification failed, 2 usage error
(or a verify worker process that died).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .identities import CapExceeded, IdentityReport, REGISTRY, list_identities, verify
from .perm import Perm, format_one_line, parse_one_line
from .shuffles import enumerate_b_shuffles, shuffle_count
from .stats import genfun, profile_to_json, stat_profile
from .words import (
    a_canonical,
    a_word_pretty,
    eval_a_letters,
    eval_s_letters,
    parse_a_letters,
    parse_s_letters,
    s_canonical,
    s_word_pretty,
    word_to_json,
)
from .cover import fiber

DEGREE_CAP = 20
GENFUN_CAP_S = 9
GENFUN_CAP_A = 8
SHUFFLE_COUNT_CAP = 500_000


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_degree(n: int) -> None:
    if n > DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds the cap of {DEGREE_CAP}")


def _parse_perm_arg(text: str) -> Perm:
    p = parse_one_line(text)
    _check_degree(len(p))
    return p


# -- per-subcommand runners ---------------------------------------------------

def _run_stat(args) -> int:
    p = _parse_perm_arg(args.perm)
    profile = stat_profile(p, args.group)
    payload = profile_to_json(profile)
    if args.format == "json":
        text = _dumps(payload)
    elif args.format == "csv":
        header = ",".join(payload.keys())
        row = ",".join(
            " ".join(str(x) for x in v) if isinstance(v, list) else str(v)
            for v in payload.values()
        )
        text = header + "\n" + row
    else:
        text = "\n".join(
            f"{k}: {' '.join(str(x) for x in v) if isinstance(v, list) else v}"
            for k, v in payload.items()
        )
    _emit(text, args.out)
    return 0


def _run_canon(args) -> int:
    if args.from_word is not None:
        # Check the degree before evaluating: it sizes the permutation built,
        # and the evaluation rejects letters beyond it.
        if args.group == "S":
            letters = parse_s_letters(args.from_word)
            n = args.n or max(letters, default=0) + 1
            _check_degree(n)
            p = eval_s_letters(max(n, 1), letters)
        else:
            letters = parse_a_letters(args.from_word)
            n = args.n or (max((k for k, _ in letters), default=0) + 2)
            _check_degree(n)
            p = eval_a_letters(max(n, 2), letters)
    else:
        if args.perm is None:
            raise ValueError("canon needs a permutation or --from-word")
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
        lines = ["j,r,last"]
        for f in factors:
            lines.append(f"{f['j']},{f['r']},{f.get('last') or ''}")
        text = "\n".join(lines)
    else:
        text = pretty
    _emit(text, args.out)
    return 0


def _run_fiber(args) -> int:
    w = _parse_perm_arg(args.perm)
    lifts = fiber(w)
    if args.format == "json":
        text = _dumps([list(v) for v in lifts])
    elif args.format == "csv":
        text = "\n".join(",".join(str(x) for x in v) for v in lifts)
    else:
        text = "\n".join(format_one_line(v) for v in lifts)
    _emit(text, args.out)
    return 0


def _run_shuffles(args) -> int:
    # The count itself costs a factorial of --n, so bound --n first.
    if args.n < 1:
        raise ValueError(f"shuffles needs --n of at least 1 (got {args.n})")
    if args.n > DEGREE_CAP and not args.force:
        raise CapExceeded(
            f"degree {args.n} exceeds the cap of {DEGREE_CAP}; use --force to override"
        )
    cuts = set()
    if args.b.strip():
        for part in args.b.split(","):
            cuts.add(int(part))
    count = shuffle_count(args.n, cuts)
    if count > SHUFFLE_COUNT_CAP and not args.force:
        raise CapExceeded(
            f"{count} shuffles exceed the cap of {SHUFFLE_COUNT_CAP}; use --force to override"
        )
    perms = enumerate_b_shuffles(args.n, cuts)
    if args.format == "csv":
        text = "\n".join(",".join(str(x) for x in p) for p in perms)
    elif args.format == "pretty":
        text = "\n".join(format_one_line(p) for p in perms)
    else:
        text = "\n".join(_dumps(list(p)) for p in perms)
    _emit(text, args.out)
    return 0


def _run_genfun(args) -> int:
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
        lines = ["coeff,exps"]
        for term in poly.to_json():
            lines.append(f"{term['coeff']},{' '.join(str(e) for e in term['exps'])}")
        text = "\n".join(lines)
    else:
        text = poly.pretty()
    _emit(text, args.out)
    return 0


def _pool_size(jobs: int, tasks: int, cpus: int | None) -> int:
    """Worker processes for `tasks` checks: `jobs`, or every CPU when it is 0.

    Never more than there are tasks or CPUs; 1 means run serially.
    """
    if jobs < 0:
        raise ValueError(f"--jobs must be non-negative (got {jobs})")
    cpus = cpus or 1
    return max(1, min(jobs or cpus, tasks, cpus))


def _verify_task(task) -> IdentityReport:
    name, n, force, extra = task
    return verify(name, n, force=force, **extra)


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
    extra = {}
    if args.k is not None:
        extra["k"] = args.k
    if args.i is not None:
        extra["i"] = args.i
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
        for n in ns:
            tasks.append((name, n, args.force, extra))
    workers = _pool_size(args.jobs, len(tasks), os.cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(_verify_task, tasks))
        except BrokenProcessPool as exc:
            print(f"error: a verify worker process died: {exc}", file=sys.stderr)
            return 2
    else:
        reports = [_verify_task(t) for t in tasks]
    reports.sort(key=lambda r: (r.identity, r.params.get("n", 0)))

    if args.format == "json":
        text = "\n".join(_dumps(r.to_json(include_elapsed=args.timings)) for r in reports)
    elif args.format == "csv":
        lines = ["name,params,pass,elapsed"]
        for r in reports:
            elapsed = f"{r.elapsed:.6f}" if args.timings else ""
            lines.append(f"{r.identity},{_params_csv(r.params)},{str(r.passed).lower()},{elapsed}")
        text = "\n".join(lines)
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
    entries = list_identities()
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
        lines = ["name,min_n,default_cap,params,description"]
        for e in entries:
            params = ";".join(f"{k}:{v}" for k, v in e.params.items())
            lines.append(f"{e.name},{e.min_n},{e.default_cap},{params},{e.description}")
        text = "\n".join(lines)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--n", type=int, help="ambient degree for --from-word")
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
    p.add_argument("--n", type=int, help="run at exactly this n")
    p.add_argument("--n-max", type=int, help="run every n up to this bound (and each cap)")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
