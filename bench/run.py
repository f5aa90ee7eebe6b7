"""vicbench benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {strata,span,invert,cli} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a checkout, against the sources in ./src.  A round is
every slot (op) of the workload once, split across fresh worker processes
that run one at a time; the run measures whole rounds until S seconds of
wall time have passed.

--trace 0 prints the end-to-end metrics.  Op latencies are scaled to a
reference speed: around every op the worker times a fixed pure-Python loop
(common.reference_loop), and the latency is multiplied by REFERENCE_S over
that loop's time.  On a shared host the machine's speed drifts by up to a
third over tens of seconds and the scaling cancels most of it; the raw
figures are kept in the report.  Each slot's latency is then the median
over the run's rounds.  setup_s: median over workers of interpreter start
to first timed op, in plain seconds.  ops_per_s: slots / sum of slot
latencies, i.e. ops per second of one round.  op_p50_ms and op_tail_ms:
median and tail over the slots, the tail being the highest percentile with
at least ten slots beyond it.  peak_rss_mb
(median over workers; on `cli` the largest CLI child of each worker), and
fail_ratio (summary lines only: it is 0 on three workloads).
--trace 1 runs one untraced and one traced round instead, and prints the
per-layer metrics of the traced round plus trace.overhead_ratio.

Every op output is checked outside the timed region.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A full
report with the environment goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from common import (BENCH, OUT, REFERENCE_S, ROOT, TINY_SLOTS, WORKER_TIMEOUT_S, WORKLOADS,
                    child_env, sources_present)
import tracer as tracing

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB", "fail_ratio": "ratio"}
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


def round_chunks(workload: str, tiny: bool) -> list:
    """Slots of one round per worker, the same for every seed: the seed
    changes the inputs, not which ops share a process."""
    meta = WORKLOADS[workload]
    slots = list(TINY_SLOTS[workload]) if tiny else list(range(meta["slots"]))
    k = min(meta["workers"], len(slots))
    return [slots[i::k] for i in range(k)]


def run_worker(spec: dict) -> tuple[dict, float]:
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for slots {spec['slots']} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["t_first_op"] - t_spawn


def run_round(args, chunks, traced: bool, trace_dir) -> list:
    results = []
    for i, chunk in enumerate(chunks):
        spec = {"workload": args.workload, "seed": args.seed, "slots": chunk,
                "trace": traced, "inject": args.inject, "worker": i,
                "trace_dir": str(trace_dir) if traced else None}
        try:
            result, setup_s = run_worker(spec)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            result = {"slots": chunk, "latencies": {}, "timed_s": 0.0, "maxrss_kb": 0,
                      "failures": {str(s): f"worker failed: {exc}" for s in chunk},
                      "props": {}, "notes": {}, "versions": {}}
            setup_s = None
        result["setup_s"] = setup_s
        results.append(result)
    return results


def tail(values: list) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _timing_metrics(latencies: list) -> tuple[dict, float]:
    tail_s, pct = tail(latencies)
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail_s * 1000}, pct


def summarize(workers: list) -> dict:
    raw: dict[str, list] = {}
    scaled: dict[str, list] = {}
    attempted = failed = contract = 0
    for w in workers:
        attempted += len(w["slots"])
        failed += len(w["failures"])
        contract += w["props"].get("contract_failures", 0)
        for slot, lat in w["latencies"].items():
            if slot not in w["failures"]:
                raw.setdefault(slot, []).append(lat)
                scaled.setdefault(slot, []).append(lat * REFERENCE_S / w["reference_s"][slot])
    setups = [w["setup_s"] for w in workers if w["setup_s"] is not None]
    rss = [w["maxrss_kb"] / 1024 for w in workers if w["maxrss_kb"]]
    out = {"attempted": attempted, "failed": failed, "contract_failures": contract,
           "samples": len(raw),
           "repeats": max((len(v) for v in raw.values()), default=0),
           "per_slot_ms": {s: [x * 1000 for x in v] for s, v in sorted(
               raw.items(), key=lambda t: int(t[0]))}}
    if raw and setups and rss:
        metrics, pct = _timing_metrics([statistics.median(v) for v in scaled.values()])
        out["metrics"] = {"setup_s": statistics.median(setups), **metrics,
                          "peak_rss_mb": statistics.median(rss),
                          "fail_ratio": (failed + contract) / attempted}
        out["raw_metrics"], _ = _timing_metrics([statistics.median(v) for v in raw.values()])
        out["op_tail_percentile"] = pct
    return out


def props_summary(workers: list) -> dict:
    props: dict = {}
    notes: dict = {}
    for w in workers:
        for key, value in w["props"].items():
            props[key] = props.get(key, 0) + value
        for key, values in w["notes"].items():
            notes.setdefault(key, []).extend(values)
    out = {"totals": props}
    if "candidates" in props:
        out["stratum_yield"] = props["emitted"] / props["candidates"]
    if "invertible" in props:
        out["invertible_share"] = props["invertible"] / sum(len(w["slots"]) for w in workers)
    if "malformed" in props:
        out["malformed_share"] = props["malformed"] / sum(len(w["slots"]) for w in workers)
        out["contract_failure_cases"] = sorted(set(notes.get("contract_case", [])))
    if "queries" in props:
        out["member_share"] = props["members"] / max(1, props["queries"])
        out["related_pair_share"] = props["related"] / max(1, props["pairs"])
    return out


def environment(workers: list) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    versions = next((w["versions"] for w in workers if w["versions"]), {})
    return {"git_revision": rev, "python": versions.get("python"),
            "numpy": versions.get("numpy"), "nproc": os.cpu_count(),
            "command": [sys.executable] + sys.argv}


def measure(args) -> dict:
    chunks = round_chunks(args.workload, args.tiny)
    trace_dir = OUT / f"trace-{args.workload}-seed{args.seed}"
    started = time.monotonic()
    if not args.trace:
        rounds = []
        while not rounds or time.monotonic() - started < args.seconds:
            rounds.append(run_round(args, chunks, False, None))
        workers = [w for r in rounds for w in r]
        summary = summarize(workers)
        report = {"rounds": len(rounds), "summary": summary}
        metrics = {k: summary["metrics"][k] for k in END_TO_END} if "metrics" in summary else {}
        units = UNITS
    else:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        plain = run_round(args, chunks, False, None)
        traced = run_round(args, chunks, True, trace_dir)
        workers = plain + traced
        summary = summarize(traced)
        base = summarize(plain)
        agg = tracing.merge(w["trace"] for w in traced if "trace" in w)
        layer = tracing.per_layer_metrics(agg)
        metrics = {name: value for name, (value, _) in layer.items()}
        units = {name: unit for name, (_, unit) in layer.items()}
        if "metrics" in summary and "metrics" in base:
            metrics["trace.overhead_ratio"] = (summary["metrics"]["ops_per_s"]
                                               / base["metrics"]["ops_per_s"])
        units["trace.overhead_ratio"] = "ratio"
        report = {"rounds": 2, "summary": summary, "untraced": base,
                  "top_layers": tracing.top_layers(agg), "trace_dir": str(trace_dir),
                  "spans_recorded": agg["spans_recorded"], "spans_total": agg["spans_total"]}
    failures = {s: msg for w in workers for s, msg in w["failures"].items()}
    report["workers"] = [{"slots": w["slots"], "timed_s": w["timed_s"], "setup_s": w["setup_s"],
                          "maxrss_kb": w["maxrss_kb"]} for w in workers]
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(workers),
        "wall_s": time.monotonic() - started, "input_properties": props_summary(workers),
        "failures": failures,
    })
    attempted = sum(len(w["slots"]) for w in workers)
    failed = sum(len(w["failures"]) for w in workers)
    report["result"] = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return report


def print_summary(report: dict) -> None:
    print(f"# workload={report['workload']} seed={report['seed']} trace={report['trace']} "
          f"rounds={report['rounds']} wall={report['wall_s']:.1f}s")
    env = report["environment"]
    print(f"# env: rev={env['git_revision']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']}")
    summary = report["summary"]
    if "metrics" in summary:
        for name, value in summary["metrics"].items():
            print(f"{name:<14} {value:>14.6g} {UNITS[name]}")
        print(f"# op_tail_ms is p{summary['op_tail_percentile']:.1f} of "
              f"{summary['samples']} ops, each the median of {summary['repeats']} rounds")
        raw = summary["raw_metrics"]
        print("# unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        print(f"# attempted={summary['attempted']} failed={summary['failed']} "
              f"contract_failures={summary['contract_failures']}")
    props = report["input_properties"]
    for key, value in props.items():
        if key != "totals":
            print(f"# {key}: {value}")
    if report["trace"]:
        print("# top layers by self time: " + ", ".join(
            f"{t['layer']} {t['self_s']:.3f}s" for t in report["top_layers"]))
    for slot, msg in sorted(report["failures"].items())[:10]:
        print(f"# FAILED slot {slot}: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap slots only (the benchmark's own tests)")
    parser.add_argument("--inject", choices=("flip-verdict", "drop-member", "corrupt-payload"),
                        help="corrupt op outputs before checking (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not sources_present():
        print(f"no vicbench sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    report = measure(args)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print_summary(report)
    print(f"# report: {path.relative_to(ROOT)}")
    print(json.dumps(report["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
