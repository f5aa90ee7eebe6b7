"""Traced stand-in for `python -m vicbench`, used by the `cli` workload.

Usage: python3 bench/cli_boot.py STATS_JSON OP_ID -- <vicbench arguments>

Times the import of vicbench.cli, wraps the library layers, runs
`cli.main` under a span, and writes the tracer aggregates to STATS_JSON and
the spans next to it.  Exit code, stdout and stderr are those of the CLI:
an uncaught exception still ends in a traceback and exit 1.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    stats_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_boot.py STATS_JSON OP_ID -- ARGS...")
    start = time.perf_counter()
    import vicbench.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    idx = tracer.name_index("cli.import")
    tracer.calls[idx] += 1
    tracer.total_s[idx] += import_s
    tracer.self_s[idx] += import_s
    tracer.op_id = int(op_id)
    cli_main = tracer.wrap("cli.main", vicbench.cli.main)
    tracer.enabled = True
    try:
        return cli_main(argv)
    finally:
        tracer.enabled = False
        stats = Path(stats_path)
        stats.write_text(json.dumps(tracer.snapshot()))
        tracer.write_spans(stats.with_suffix(".tsv"))


if __name__ == "__main__":
    sys.exit(main())
