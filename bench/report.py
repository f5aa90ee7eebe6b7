"""One command for the whole benchmark report.

    python3 bench/report.py [--seed N]

Runs every workload twice through bench/run.py (end-to-end metrics with
tracing off, then the traced run), then `run_selftest("full", 0)` once in a
fresh interpreter for its per-criterion seconds (recorded, never repeated
or gated).  Prints all six end-to-end metrics of every workload with their
units, the per-layer top three, and the input properties; writes the whole
report, with the environment and the exact commands, to
bench/out/BENCH_report.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from common import OUT, ROOT, WORKLOADS, child_env, sources_present
from run import UNITS

SELFTEST = """
import json, sys
from vicbench.selftest import run_selftest
results = run_selftest("full", seed=0)
print(json.dumps({"passed": all(r.passed for r in results),
                  "seconds": {r.name: r.seconds for r in results}}))
"""


def run_json(cmd: list) -> dict:
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out_path = OUT / "BENCH_report.json"
    if not sources_present():
        print("no vicbench sources under ./src", file=sys.stderr)
        return 2
    report = {"seed": args.seed, "seconds": seconds, "workloads": {},
              "command": [sys.executable] + sys.argv}
    correct = True
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
                   str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            result = run_json(cmd)
            correct &= result["correct"]
            full = json.loads((OUT / f"{workload}-seed{args.seed}-trace{trace}.json").read_text())
            entry[f"trace{trace}"] = {"command": cmd, "result": result, "report": full}
        report["workloads"][workload] = entry
    start = time.perf_counter()
    report["selftest_full_seed0"] = run_json([sys.executable, "-c", SELFTEST])
    report["selftest_full_seed0"]["wall_s"] = time.perf_counter() - start
    report["environment"] = report["workloads"]["strata"]["trace0"]["report"]["environment"]
    report["environment"]["command"] = report["command"]
    report["correct"] = correct
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    env = report["environment"]
    print(f"# vicbench benchmark report: rev={env['git_revision']} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} seed={args.seed}")
    for workload, entry in report["workloads"].items():
        plain = entry["trace0"]["report"]
        traced = entry["trace1"]["report"]
        summary = plain["summary"]
        print(f"\n## {workload}: attempted={summary['attempted']} failed={summary['failed']} "
              f"contract_failures={summary['contract_failures']} rounds={plain['rounds']}")
        for name, value in summary["metrics"].items():
            print(f"  {name:<14} {value:>12.6g} {UNITS[name]}")
        print(f"  op_tail_ms is p{summary['op_tail_percentile']:.1f} of {summary['samples']} "
              f"ops, each the median of {summary['repeats']} rounds")
        print("  unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in summary["raw_metrics"].items()))
        overhead = entry["trace1"]["result"]["metrics"]["trace.overhead_ratio"]["value"]
        print(f"  trace.overhead_ratio {overhead:.3f}; top layers by self time: " + ", ".join(
            f"{t['layer']} {t['self_s']:.3f}s" for t in traced["top_layers"]))
        props = {k: v for k, v in plain["input_properties"].items() if k != "totals"}
        if props:
            print(f"  input properties: {json.dumps(props, sort_keys=True)}")
        layer = entry["trace1"]["result"]["metrics"]
        for key in ("noether.enumerate_ovic.cache_hits", "noether.enumerate_ovic.yield",
                    "ovic.compose_vic.repeat_ratio", "rings.matrix_invertible.invertible_ratio"):
            print(f"  {key} = {layer[key]['value']:.4g}")
    st = report["selftest_full_seed0"]
    print(f"\n## selftest full --seed 0: passed={st['passed']} wall={st['wall_s']:.1f}s")
    for name, secs in st["seconds"].items():
        print(f"  {name:<28} {secs:8.2f} s")
    print(f"\n# report: {out_path.relative_to(ROOT)}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
