"""One fresh interpreter running one slice of a round.

Usage (from run.py): python3 bench/worker.py '<json spec>'

The spec names the workload, seed, slots, whether to trace, and an optional
injected fault.  The worker sets up, prints nothing until it is done, and
writes one JSON line with per-op latencies, failures, check results, input
properties, peak RSS and (when traced) the tracer aggregates.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from common import OP_BUDGET_S, SRC, emit_json_line, load_ref, reference_seconds


def main(spec: dict) -> dict:
    import numpy
    import vicbench

    if Path(vicbench.__file__).resolve().parent != (SRC / "vicbench").resolve():
        raise SystemExit(f"vicbench imported from {vicbench.__file__}, not {SRC}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    wl = importlib.import_module("wl_" + spec["workload"])
    seed, slots = spec["seed"], spec["slots"]

    ctx = wl.setup(seed, slots)
    ctx["trace_dir"] = spec["trace_dir"]
    inputs = [wl.make_input(ctx, seed, slot) for slot in slots]

    latencies, outputs, errors, ref_before = {}, {}, {}, []
    t_first = time.monotonic()
    t0 = time.perf_counter()
    for slot, inp in zip(slots, inputs):
        ref_before.append(reference_seconds())
        if tracer is not None:
            tracer.op_id = slot
        start = time.perf_counter()
        try:
            outputs[slot] = wl.run_op(ctx, inp)
        except Exception as exc:  # an op that raises is a counted failure
            errors[slot] = f"{type(exc).__name__}: {exc}"
        latencies[slot] = time.perf_counter() - start
    timed_s = time.perf_counter() - t0
    ref_after = ref_before[1:] + [reference_seconds()]
    reference = {str(s): (b + a) / 2 for s, b, a in zip(slots, ref_before, ref_after)}
    usage = resource.RUSAGE_CHILDREN if spec["workload"] == "cli" else resource.RUSAGE_SELF
    maxrss_kb = resource.getrusage(usage).ru_maxrss
    if tracer is not None:
        tracer.enabled = False
        tracer.op_id = -1

    refs = load_ref(spec["workload"]) if spec["workload"] != "invert" else {}
    failures, props, notes = {}, {}, {}
    for slot, inp in zip(slots, inputs):
        if slot in errors:
            failures[slot] = errors[slot]
            continue
        if latencies[slot] > OP_BUDGET_S:
            failures[slot] = f"op took {latencies[slot]:.1f}s, budget {OP_BUDGET_S}s"
        out = outputs.pop(slot)
        if spec.get("inject"):
            out = wl.inject(spec["inject"], inp, out)
        try:
            ok, detail, op_props = wl.check(ctx, inp, out, refs)
        except Exception as exc:  # a check that raises rejects the output
            ok, detail, op_props = False, f"check raised {type(exc).__name__}: {exc}", {}
        if not ok:
            failures.setdefault(slot, detail)
        for key, value in op_props.items():
            if isinstance(value, str):
                notes.setdefault(key, []).append(value)
            else:
                props[key] = props.get(key, 0) + value

    result = {
        "slots": slots,
        "latencies": {str(s): v for s, v in latencies.items()},
        "reference_s": reference,
        "failures": {str(s): v for s, v in failures.items()},
        "timed_s": timed_s,
        "t_first_op": t_first,
        "maxrss_kb": maxrss_kb,
        "props": props,
        "notes": notes,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    if tracer is not None:
        snap = tracer.snapshot()
        if spec["workload"] == "cli":
            from tracer import merge

            children = [json.loads(p.read_text())
                        for p in sorted(Path(spec["trace_dir"]).glob("cli-*.json"))
                        if int(p.stem.split("-")[1]) in slots]
            snap = merge([snap] + children)
        result["trace"] = snap
        tracer.write_spans(Path(spec["trace_dir"]) / f"spans-worker-{spec['worker']}.tsv")
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    try:
        emit_json_line(main(spec))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
