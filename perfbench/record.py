"""Record the expected output digests in perfbench/expected.json.

Run from the root of a checkout:

    python3 perfbench/record.py

It runs every CLI call of every workload size once (about 10 seconds) and
the seed-0 query stream of each size, and stores the SHA-256 of each
payload.  It refuses to record a call that exits non-zero or a query stream
that breaks an invariant.  The payloads are byte-deterministic by contract,
so the digests change only when the output format changes on purpose;
re-record only then.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, import_checkout
from workloads import (
    QUERY_SEED_REFERENCE, SIZES, call_cli, cli_argvs, digest, make_queries, query_digest,
    query_failure, query_reference_key, run_queries, sweep_argv,
)


def main() -> int:
    import_checkout(Path.cwd())
    cli_digests: dict[str, str] = {}
    query_digests: dict[str, str] = {}
    for size in SIZES.values():
        argvs = [argv for name in ("scan", "points", "sweep") for argv in cli_argvs(name, size)]
        for argv in argvs + [sweep_argv(size, 1)]:
            key = " ".join(argv)
            if key in cli_digests:
                continue
            code, out, seconds = call_cli(argv)
            if code != 0:
                print(f"{key}: exit {code}; nothing recorded", file=sys.stderr)
                return 1
            cli_digests[key] = digest(out)
            print(f"{seconds:8.3f}s  {key}")
        queries = make_queries(QUERY_SEED_REFERENCE, size)
        outputs = run_queries(queries).outputs
        bad = [msg for (group, p), out in zip(queries, outputs)
               if (msg := query_failure(group, p, out)) is not None]
        if bad:
            print(f"query invariants broken: {bad[:3]}; nothing recorded", file=sys.stderr)
            return 1
        query_digests[query_reference_key(size)] = query_digest(outputs)
    path = HERE / "expected.json"
    path.write_text(json.dumps({"cli": cli_digests, "queries": query_digests}, indent=1) + "\n")
    print(f"wrote {len(cli_digests)} CLI and {len(query_digests)} query digests to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
