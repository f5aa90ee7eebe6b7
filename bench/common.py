"""Shared pieces of the benchmark: paths, workload metadata, digests.

This module is imported by the parent process, which never imports
vicbench itself, so it must stay free of vicbench imports.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REF = BENCH / "ref"

# Per workload: number of slots (ops) in one round, and how many fresh
# worker processes one round is split across (slot i goes to worker
# i mod workers).  Every slot runs once per round; a run measures whole
# rounds only, so every run sees the same mix of ops.
WORKLOADS = {
    "strata": {"slots": 36, "workers": 2},
    "span": {"slots": 80, "workers": 1},
    "invert": {"slots": 414, "workers": 2},
    "cli": {"slots": 30, "workers": 2},
}

# Small slot subsets for the benchmark's own smoke tests (--tiny).
TINY_SLOTS = {
    "strata": [0, 1, 5, 10],
    "span": [0, 40, 64, 72],
    "invert": [0, 12, 168, 180],
    "cli": [2, 14, 19, 25, 29],
}

OP_BUDGET_S = 60.0      # an op slower than this counts as failed
REFERENCE_S = 0.6e-3    # typical time of reference_loop on a 2-core x86 container
WORKER_TIMEOUT_S = 170  # a worker still running after this is killed


def child_env() -> dict:
    """Environment for worker and CLI processes: the checkout's own sources,
    fixed string hashing, no stray bytecode writes outside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def sources_present() -> bool:
    return (SRC / "vicbench" / "__init__.py").is_file()


_TABLE = tuple(tuple((a * 7 + b * 3) % 16 for b in range(16)) for a in range(16))


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_loop() -> int:
    """Fixed pure-Python work with the library's mix of operations (table
    lookups, small tuples, dict updates, slotted objects), independent of
    vicbench.  Timed around every op to follow the host's speed."""
    table = _TABLE
    acc = 0
    seen: dict = {}
    cells = []
    for i in range(1200):
        a = table[i & 15][(i >> 4) & 15]
        key = (a, acc, i & 3)
        seen[key] = seen.get(key, 0) + 1
        acc = table[acc][a]
        if not i & 7:
            cells.append(_Cell(key, acc))
    return acc + len(seen) + len(cells)


def reference_seconds() -> float:
    """Median time of three reference loops."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def load_ref(name: str) -> dict:
    return json.loads((REF / f"{name}.json").read_text())


def emit_json_line(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()
