"""Workload `cli`: one fresh `python -m vicbench ...` process per op.

Requests cover the README verbs on ring, morphism and generator files under
bench/data/cli, plus five malformed inputs that break the CLI contract at
the commit that introduced this benchmark.  Each slot has a few variants of
the same verb and similar cost; the seed picks the variant.

Checks: the exit code and the payload with `timing` stripped must match the
recorded reference (by SHA-256); an exit of 1 must carry
{"error": {kind, message}}.  A malformed input holds the contract when it
exits 2 with a usage error, or 1 with a structured error whose message names
the offending field; otherwise it is a counted contract failure, reported by
name.  Such failures are reported as `fail_ratio` and by case, but they are
not counted in `failed`: that count is reserved for outputs the benchmark
rejects (a wrong payload, an unexpected exit code, a crash of a good request).
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

from common import BENCH, OP_BUDGET_S, ROOT, child_env

D = "bench/data/cli/"
WORK = "bench/out/cli-work/"


def _ring(name: str) -> list:
    return ["--ring", f"{D}{name}.json"]


def _files(prefix: str, ids) -> list:
    return [f"{D}{prefix}_{i}.json" for i in ids]


F2_O12 = (0, 1, 2, 4, 5)
F2_O13 = (0, 3, 5, 9, 12, 15, 16, 19, 24, 27)
F2_O14 = (7, 56, 63, 100)
T2F2_O12 = (0, 50, 100)
VIC_IDS = (1, 2, 3)
GENS = (0, 1, 2)

# Each good slot: (name, [argv variants]).  argv excludes `python -m vicbench`.
GOOD = (
    ("ring-build-builtin-a", [["ring", "build", "--builtin", b, "--out", WORK + "built-a.json"]
                              for b in ("F2", "F3", "Z4")]),
    ("ring-build-spec-a", [["ring", "build", "--spec", s] for s in
                           ("upper_triangular(zmod(2),2)", "zmod(4)", "group_ring(zmod(2),c2)")]),
    ("ring-describe-a", [["ring", "describe", "--in", f"{D}{r}.json"] for r in ("z4", "z8", "f2c2")]),
    ("ring-describe-builtin", [["ring", "describe", "--builtin", b] for b in ("M2F2", "T2F2", "Z8")]),
    ("ring-describe-f2s3", [["ring", "describe", "--in", f"{D}f2s3.json"]]),
    ("ring-wedderburn", [["ring", "wedderburn", "--in", f"{D}{r}.json", "--seed", s]
                         for r in ("t2f2", "m2f2", "f2c2") for s in ("0", "1")]),
    ("ring-wedderburn-f2s3", [["ring", "wedderburn", "--builtin", "F2S3", "--seed", s]
                              for s in ("0", "1", "2")]),
    ("morphism-check-f2-13", [["morphism", "check", *_ring("f2"), "--in", p]
                              for p in _files("f2_o13", F2_O13[:4])]),
    ("morphism-check-f2-14", [["morphism", "check", *_ring("f2"), "--in", p]
                              for p in _files("f2_o14", F2_O14)]),
    ("morphism-check-t2f2", [["morphism", "check", *_ring("t2f2"), "--in", p]
                             for p in _files("t2f2_o12", T2F2_O12)]),
    ("morphism-check-m2f2", [["morphism", "check", *_ring("m2f2"), "--in", p]
                             for p in _files("m2f2_v12", VIC_IDS)]),
    ("morphism-factor-z4-12", [["morphism", "factor", *_ring("z4"), "--in", p]
                               for p in _files("z4_v12", VIC_IDS)]),
    ("morphism-factor-f3", [["morphism", "factor", *_ring("f3"), "--in", p]
                            for p in _files("f3_v13", VIC_IDS)]),
    ("morphism-factor-m2f2", [["morphism", "factor", *_ring("m2f2"), "--in", p]
                              for p in _files("m2f2_v12", VIC_IDS)]),
    ("order-compare-13", [["order", "compare", *_ring("f2"), "--a", a, "--b", b]
                          for a, b in zip(_files("f2_o13", F2_O13[:5]),
                                          _files("f2_o13", F2_O13[5:]))]),
    ("order-iota-f2", [["order", "iota", *_ring("f2"), "--in", p]
                       for p in _files("f2_o13", F2_O13[4:8])]),
    ("order-chain-13", [["order", "chain", *_ring("f2"), "--a", a, "--b", b]
                        for a, b in zip(_files("f2_o12", F2_O12), _files("f2_o13", (0, 3, 12, 15, 19)))]),
    ("order-chain-14", [["order", "chain", *_ring("f2"), "--a", a, "--b", b]
                        for a, b in zip(_files("f2_o12", F2_O12[:4]), _files("f2_o14", F2_O14))]),
    ("enumerate-count", [["enumerate", "ovic", "--builtin", "F2", "--d", "1", "--n", n, "--count-only"]
                         for n in ("2", "3", "4")]),
    ("enumerate-list", [["enumerate", "ovic", "--builtin", b, "--d", "1", "--n", "2"]
                        for b in ("Z4", "F2C2", "F3")]),
    ("enumerate-vic", [["enumerate", "ovic", "--builtin", b, "--d", "1", "--n", "2", "--vic",
                        "--count-only"] for b in ("T2F2", "Z4", "F2C2")]),
    ("noether-span-f2-h4", [["noether", "span", *_ring("f2"), "--d", "1", "--k", "F2", "--gens", p,
                             "--horizon", "4"] for p in _files("gens_f2", GENS)]),
    ("noether-span-f3-q", [["noether", "span", *_ring("f3"), "--d", "1", "--k", "Q", "--gens", p,
                            "--horizon", "3"] for p in _files("gens_f3q", GENS)]),
    ("noether-span-z4", [["noether", "span", *_ring("z4"), "--d", "1", "--k", "F2", "--gens", p,
                          "--horizon", "3"] for p in _files("gens_z4", GENS)]),
    ("noether-endo", [["noether", "endo", "--builtin", b, "--d", "1", "--horizon", h]
                      for b, h in (("Z4", "2"), ("F2", "3"), ("F3", "2"))]),
)

# Each malformed slot: (case name, [argv variants], text its error message
# must contain for the contract to hold, or None for any structured error).
MALFORMED = (
    ("missing-f_prime", [["morphism", "check", *_ring("f2"), "--in", f"{D}bad_missing_fprime.json"],
                         ["morphism", "factor", *_ring("f2"), "--in", f"{D}bad_missing_fprime.json"]],
     "f_prime"),
    ("entry-7-in-F2", [["morphism", "check", *_ring("f2"), "--in", f"{D}bad_entry7.json"]], "7"),
    ("truncated-json", [["morphism", "check", *_ring("f2"), "--in", f"{D}bad_truncated.json"],
                        ["order", "iota", *_ring("f2"), "--in", f"{D}bad_truncated.json"]], None),
    ("k-F4", [["noether", "span", *_ring("f2"), "--d", "1", "--k", "F4", "--gens",
               f"{D}gens_f2_0.json", "--horizon", "2"]], "F4"),
    ("ragged-f_dprime", [["morphism", "check", *_ring("f2"), "--in", f"{D}bad_ragged.json"]],
     "f_dprime"),
)

SLOTS = tuple(("good", name, variants, None) for name, variants in GOOD) + tuple(
    ("malformed", name, variants, needle) for name, variants, needle in MALFORMED)


def setup(seed: int, slots) -> dict:
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    return {}


def make_input(ctx: dict, seed: int, slot: int) -> dict:
    kind, name, variants, needle = SLOTS[slot]
    v = random.Random(f"cli/{seed}/{slot}").randrange(len(variants))
    return {"slot": slot, "variant": v, "kind": kind, "name": name,
            "argv": variants[v], "needle": needle}


def command(inp: dict, trace_dir) -> list:
    if trace_dir is None:
        return [sys.executable, "-m", "vicbench", *inp["argv"]]
    stats = Path(trace_dir) / f"cli-{inp['slot']}.json"
    return [sys.executable, str(BENCH / "cli_boot.py"), str(stats), str(inp["slot"]),
            "--", *inp["argv"]]


def run_op(ctx: dict, inp: dict) -> tuple:
    proc = subprocess.run(command(inp, ctx["trace_dir"]), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=OP_BUDGET_S)
    return proc.returncode, proc.stdout, proc.stderr


def inject(kind: str, inp: dict, out: tuple) -> tuple:
    if kind == "corrupt-payload" and inp["kind"] == "good":
        code, stdout, stderr = out
        return code, stdout.replace('"verb": "', '"verb": "x', 1), stderr
    return out


def strip_timing(stdout: str):
    """Canonical text of a report without its `timing` key, or None."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    payload.pop("timing", None)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _structured_error(stdout: str):
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    err = payload.get("error") if isinstance(payload, dict) else None
    if (isinstance(err, dict) and isinstance(err.get("kind"), str)
            and isinstance(err.get("message"), str)):
        return err
    return None


def check(ctx: dict, inp: dict, out: tuple, refs: dict):
    code, stdout, stderr = out
    label = f"{inp['name']}#{inp['variant']}"
    if inp["kind"] == "malformed":
        props = {"malformed": 1, "contract_failures": 0}
        if code == 2 and "usage error" in stderr:
            return True, "", props
        if code == 1:
            err = _structured_error(stdout)
            if err is not None and (inp["needle"] is None or inp["needle"] in err["message"]):
                return True, "", props
            props["contract_failures"] = 1
            props["contract_case"] = inp["name"]
            return True, "", props
        return False, f"{label}: malformed input gave exit {code}", props
    props = {"malformed": 0, "contract_failures": 0}
    ref = refs.get(f"{inp['slot']}:{inp['variant']}")
    if ref is None:
        return False, f"{label}: no reference recorded", props
    if code != ref["code"]:
        return False, f"{label}: exit {code}, reference {ref['code']}: {stderr[-300:]}", props
    if code == 1 and _structured_error(stdout) is None:
        return False, f"{label}: exit 1 without a structured error", props
    text = strip_timing(stdout)
    if text is None or hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
        return False, f"{label}: payload differs from the reference", props
    return True, "", props


def record_refs() -> dict:
    ctx = dict(setup(0, range(len(SLOTS))), trace_dir=None)
    out = {}
    for slot, (kind, name, variants, _) in enumerate(SLOTS):
        if kind != "good":
            continue
        for v in range(len(variants)):
            code, stdout, stderr = run_op(ctx, {"slot": slot, "argv": variants[v]})
            if code != 0:
                raise SystemExit(f"{name}#{v} exited {code}: {stderr}")
            text = strip_timing(stdout)
            out[f"{slot}:{v}"] = {"code": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return out


def write_data() -> None:
    """Write the request input files under bench/data/cli."""
    from vicbench import jsonio, noether, rings, wedderburn
    import wl_span

    data = ROOT / D
    data.mkdir(parents=True, exist_ok=True)
    for name in rings.BUILTIN_NAMES:
        jsonio.save_ring(data / f"{name.lower()}.json", rings.builtin_ring(name))

    def emb(name):
        return wedderburn.build_aw_embedding(rings.builtin_ring(name))

    def morphisms(prefix, items, ids):
        for i in ids:
            jsonio.write_payload(data / f"{prefix}_{i}.json", items[i].to_payload())

    def non_adapted(e, d, n):
        ordered = set(noether.enumerate_ovic(e, d, n))
        return [f for f in noether.enumerate_vic(e, d, n) if f not in ordered]

    f2 = emb("F2")
    morphisms("f2_o12", noether.enumerate_ovic(f2, 1, 2), F2_O12)
    morphisms("f2_o13", noether.enumerate_ovic(f2, 1, 3), F2_O13)
    morphisms("f2_o14", noether.enumerate_ovic(f2, 1, 4), F2_O14)
    morphisms("t2f2_o12", noether.enumerate_ovic(emb("T2F2"), 1, 2), T2F2_O12)
    morphisms("m2f2_v12", non_adapted(emb("M2F2"), 1, 2), VIC_IDS)
    morphisms("z4_v12", non_adapted(emb("Z4"), 1, 2), VIC_IDS)
    morphisms("f3_v13", non_adapted(emb("F3"), 1, 3), VIC_IDS)
    for prefix, template, ring in (("gens_f2", 0, "F2"), ("gens_f3q", 6, "F3"),
                                   ("gens_z4", 7, "Z4")):
        for i in GENS:
            _, gens = wl_span.generators(emb(ring), template, i)
            (data / f"{prefix}_{i}.json").write_text(
                json.dumps(jsonio.generators_payload(gens), sort_keys=True, indent=2) + "\n")

    good = noether.enumerate_ovic(f2, 1, 3)[F2_O13[0]].to_payload()
    missing = dict(good)
    del missing["f_prime"]
    jsonio.write_payload(data / "bad_missing_fprime.json", missing)
    entry7 = dict(good, f_dprime=[[7] + row[1:] for row in good["f_dprime"]])
    jsonio.write_payload(data / "bad_entry7.json", entry7)
    text = jsonio.dump_payload(good)
    (data / "bad_truncated.json").write_text(text[: len(text) // 2])
    ragged = noether.enumerate_ovic(f2, 1, 2)[0].to_payload()
    ragged["f_dprime"] = [ragged["f_dprime"][0], ragged["f_dprime"][0][:1]]
    jsonio.write_payload(data / "bad_ragged.json", ragged)

