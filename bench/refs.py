"""Re-record the benchmark's input files and reference outputs.

    python3 bench/refs.py [--data] [strata] [span] [cli]

References are the outputs of a commit whose results are trusted: run this
only when a change is meant to alter outputs, and say so in the change.
--data rewrites the `cli` request files under bench/data/cli first.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import REF, SRC


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data", action="store_true")
    parser.add_argument("workloads", nargs="*", default=["strata", "span", "cli"])
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    if args.data:
        importlib.import_module("wl_cli").write_data()
    REF.mkdir(exist_ok=True)
    for name in args.workloads:
        refs = importlib.import_module(f"wl_{name}").record_refs()
        (REF / f"{name}.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(refs)} references")


if __name__ == "__main__":
    main()
