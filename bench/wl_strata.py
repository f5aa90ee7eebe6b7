"""Workload `strata`: cold stratum requests.

One op requests one stratum (ring, d, n): it enumerates OVIC(d, n) and
VIC(d, n), factors a seeded sample of the VIC pairs through the ordered
subcategory, and composes every composable pair of the OVIC list once.
Each stratum of the pool is requested once per round and each round slice
runs in a fresh interpreter, so the enumeration cache never hits.
"""

from __future__ import annotations

import random

from vicbench import noether, ordering, ovic, rings, wedderburn

from common import sha256_lines

# Eight builtin rings; high-yield strata (F2 1->n) next to near-empty
# endomorphism strata (d = n keeps only the identity).  M2F2 2->2 and
# F2S3 1->2 are left out: their VIC enumeration scans 16^4 * 16^2 and
# 64^2 * 64^2 vectors, minutes per op at this commit.  The heaviest op
# (T2F2 1->3) takes about 1 s on a 2-core x86 container.
POOL = (
    ("F2", 1, 1), ("F2", 1, 2), ("F2", 1, 3), ("F2", 1, 4), ("F2", 1, 5),
    ("F2", 2, 2), ("F2", 2, 3), ("F2", 2, 4), ("F2", 3, 3), ("F2", 3, 4),
    ("F3", 1, 1), ("F3", 1, 2), ("F3", 1, 3), ("F3", 1, 4), ("F3", 2, 2),
    ("F3", 2, 3),
    ("Z4", 1, 1), ("Z4", 1, 2), ("Z4", 1, 3), ("Z4", 1, 4), ("Z4", 2, 2),
    ("Z4", 2, 3),
    ("Z8", 1, 1), ("Z8", 1, 2), ("Z8", 2, 2),
    ("F2C2", 1, 1), ("F2C2", 1, 2), ("F2C2", 1, 3), ("F2C2", 2, 2),
    ("T2F2", 1, 1), ("T2F2", 1, 2), ("T2F2", 1, 3), ("T2F2", 2, 2),
    ("M2F2", 1, 1), ("M2F2", 1, 2),
    ("F2S3", 1, 1),
)

FACTOR_SAMPLE = 16


def stratum_key(ring: str, d: int, n: int) -> str:
    return f"{ring} {d}->{n}"


def morphism_digest(morphs) -> str:
    return sha256_lines(f"{f.f_prime.entries}|{f.f_dprime.entries}" for f in morphs)


def setup(seed: int, slots) -> dict:
    names = sorted({POOL[s][0] for s in slots})
    return {"embs": {name: wedderburn.build_aw_embedding(rings.builtin_ring(name))
                     for name in names}}


def make_input(ctx: dict, seed: int, slot: int) -> dict:
    ring, d, n = POOL[slot]
    return {"ring": ring, "d": d, "n": n,
            "sample_seed": f"strata/{seed}/{slot}"}


def run_op(ctx: dict, inp: dict) -> dict:
    emb = ctx["embs"][inp["ring"]]
    d, n = inp["d"], inp["n"]
    ovic_list = noether.enumerate_ovic(emb, d, n)
    vic_list = noether.enumerate_vic(emb, d, n)
    rng = random.Random(inp["sample_seed"])
    picks = rng.sample(range(len(vic_list)), min(FACTOR_SAMPLE, len(vic_list)))
    factors = [(vic_list[i], ovic.factor_vic(vic_list[i], emb)) for i in picks]
    # pairs inside one stratum compose only when it is an endomorphism stratum
    composites = ([(g, f, ovic.compose_vic(g, f)) for f in ovic_list for g in ovic_list]
                  if d == n else [])
    return {"ovic": ovic_list, "vic": vic_list, "factors": factors,
            "composites": composites}


def inject(kind: str, inp: dict, out: dict) -> dict:
    if kind == "drop-member" and out["ovic"]:
        out = dict(out)
        out["ovic"] = out["ovic"][:-1]
    return out


def check(ctx: dict, inp: dict, out: dict, refs: dict):
    emb = ctx["embs"][inp["ring"]]
    ring = emb.ring
    d, n = inp["d"], inp["n"]
    key = stratum_key(inp["ring"], d, n)
    ident = rings.RMatrix.identity(ring, d)
    ovic_list, vic_list = out["ovic"], out["vic"]
    props = {"candidates": ring.size ** (d * n) if n >= d > 0 else 0,
             "emitted": len(ovic_list), "vic": len(vic_list),
             "factored": len(out["factors"]), "composed": len(out["composites"])}
    ref = refs.get(key)
    if ref is None:
        return False, f"{key}: no reference recorded", props
    if [len(ovic_list), morphism_digest(ovic_list)] != ref["ovic"]:
        return False, f"{key}: OVIC list differs from the reference", props
    if [len(vic_list), morphism_digest(vic_list)] != ref["vic"]:
        return False, f"{key}: VIC list differs from the reference", props
    for f in ovic_list:
        if not ovic.is_column_adapted(f.f_dprime, emb):
            return False, f"{key}: emitted morphism not column-adapted: {f}", props
        if f.f_dprime.mul(f.f_prime) != ident:
            return False, f"{key}: f''f' != I for {f}", props
    for a, b in zip(ovic_list, ovic_list[1:]):
        if ordering.total_compare(a, b) != ordering.LT:
            return False, f"{key}: OVIC list not strictly increasing", props
    for f, (f1, f2) in out["factors"]:
        if (f1.f_dprime.mul(f1.f_prime) != ident or f1.f_prime.mul(f1.f_dprime) != ident
                or not ovic.is_column_adapted(f2.f_dprime, emb)
                or f2.f_prime.mul(f1.f_prime) != f.f_prime
                or f1.f_dprime.mul(f2.f_dprime) != f.f_dprime):
            return False, f"{key}: bad factorisation of {f}", props
    members = set(ovic_list)
    for g, f, comp in out["composites"]:
        if (comp not in members or comp.f_prime != g.f_prime.mul(f.f_prime)
                or comp.f_dprime != f.f_dprime.mul(g.f_dprime)):
            return False, f"{key}: composite outside the stratum: {g} o {f}", props
    return True, "", props


def record_refs() -> dict:
    out = {}
    for ring, d, n in POOL:
        emb = wedderburn.build_aw_embedding(rings.builtin_ring(ring))
        ovic_list = noether.enumerate_ovic(emb, d, n)
        vic_list = noether.enumerate_vic(emb, d, n)
        out[stratum_key(ring, d, n)] = {
            "ovic": [len(ovic_list), morphism_digest(ovic_list)],
            "vic": [len(vic_list), morphism_digest(vic_list)],
        }
    return out
