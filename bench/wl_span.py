"""Workload `span`: one module query per op.

An op computes the degree-truncated span of a generator set and its initial
module, runs `membership` on seeded elements and calls `partial_leq` on
seeded pairs of leading morphisms.  The strata it acts with are enumerated
during set-up, so ops reuse a few morphisms heavily and enumerate little.

Generator sets come from a fixed, seeded catalogue (TEMPLATES x VARIANTS)
whose canonical bases were recorded as references; every run uses all of
them, one per slot, so that every run does the same span work.  The run's
seed draws the membership elements and the order queries.
"""

from __future__ import annotations

import random
from fractions import Fraction

from vicbench import noether, ordering, ovic, rings, wedderburn

from common import sha256_lines

# (ring, coefficient field, horizon, generator degrees, terms per generator);
# variant v uses one term fewer, the same, or one more (v mod 3), so that
# op costs form a continuum rather than one cluster per template.
TEMPLATES = (
    ("F2", "F2", 4, (2,), 3),
    ("F2", "F2", 4, (2, 2), 2),
    ("F2", "Q", 4, (2,), 2),
    ("F2", "Q", 4, (2, 3), 2),
    ("F2", "F3", 4, (3,), 3),
    ("F3", "F3", 3, (2,), 2),
    ("F3", "Q", 3, (2,), 3),
    ("Z4", "F2", 3, (2,), 2),
    ("Z4", "F5", 3, (2,), 3),
    ("T2F2", "Q", 2, (1,), 1),
)
VARIANTS = 8       # generator sets per template; one slot each
MEMBERS = 3       # elements in the span by construction, per op
PROBES = 3        # random elements, verdict certified by replay, per op
ORDER_PAIRS = 3   # partial_leq queries per op


def slot_template(slot: int) -> int:
    return slot // VARIANTS


def _warm(emb, horizon: int, degrees) -> None:
    for a in sorted(set(degrees) | {1}):
        for n in range(a, horizon + 1):
            noether.enumerate_ovic(emb, a, n)


def setup(seed: int, slots) -> dict:
    embs = {}
    for slot in slots:
        ring, _, horizon, degrees, _ = TEMPLATES[slot_template(slot)]
        if ring not in embs:
            embs[ring] = wedderburn.build_aw_embedding(rings.builtin_ring(ring))
        _warm(embs[ring], horizon, degrees)
    return {"embs": embs}


def _coeff(field, rng):
    if field.name == "Q":
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 6), rng.randrange(1, 5))
    return field.from_int(rng.randrange(1, field.p))


def _random_element(emb, field, degree: int, terms: int, rng):
    pool = noether.enumerate_ovic(emb, 1, degree)
    support = rng.sample(pool, min(terms, len(pool)))
    return noether.ModuleElement(1, degree, field, {f: _coeff(field, rng) for f in support})


def generators(emb, template: int, variant: int):
    _, field_spec, _, degrees, terms = TEMPLATES[template]
    terms = max(1, terms + variant % 3 - 1)
    field = noether.parse_field(field_spec)
    rng = random.Random(f"span-gens/{template}/{variant}")
    return field, [_random_element(emb, field, deg, terms, rng) for deg in degrees]


def make_input(ctx: dict, seed: int, slot: int) -> dict:
    t, v = divmod(slot, VARIANTS)
    ring, _, horizon, _, _ = TEMPLATES[t]
    emb = ctx["embs"][ring]
    field, gens = generators(emb, t, v)
    rng = random.Random(f"span/{seed}/{slot}")
    queries = []
    top = max(g.degree for g in gens)
    for _ in range(MEMBERS):
        n = rng.randrange(top, horizon + 1)
        x = noether.ModuleElement(1, n, field, {})
        for _ in range(rng.randrange(1, 4)):
            g = rng.choice([g for g in gens if g.degree <= n])
            homs = noether.enumerate_ovic(emb, g.degree, n)
            x = x.add(noether.act(homs[rng.randrange(len(homs))], g).scale(_coeff(field, rng)))
        queries.append((x, True))
    for _ in range(PROBES):
        x = _random_element(emb, field, rng.randrange(1, horizon + 1), rng.randrange(1, 4), rng)
        queries.append((x, None))
    return {"template": t, "variant": v, "emb": emb, "field": field, "gens": gens,
            "horizon": horizon, "queries": queries, "pair_seed": f"span-pairs/{seed}/{slot}"}


def _columns(f):
    return [f.f_dprime.col(c) for c in range(f.n)]


def _is_subsequence(short, long) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def _order_pairs(leading: dict, rng) -> list:
    """Seeded pairs (f, g) of leading morphisms with deg f < deg g, preferring
    pairs whose f'' columns embed as a subsequence, so the search runs."""
    degrees = [n for n in sorted(leading) if leading[n]]
    if len(degrees) < 2:
        return []
    pairs = []
    for _ in range(40):
        a, b = sorted(rng.sample(degrees, 2))
        f, g = rng.choice(leading[a]), rng.choice(leading[b])
        if _is_subsequence(_columns(f), _columns(g)):
            pairs.append((f, g))
            if len(pairs) == ORDER_PAIRS:
                break
    return pairs


def run_op(ctx: dict, inp: dict) -> dict:
    emb, field, horizon = inp["emb"], inp["field"], inp["horizon"]
    state = noether.span_to_degree(inp["gens"], horizon, emb, field, d=1)
    leading = noether.initial_module_to_degree(state, horizon)
    verdicts = [noether.membership(state, x) for x, _ in inp["queries"]]
    rng = random.Random(inp["pair_seed"])
    chains = [(f, g, ordering.partial_leq(f, g)) for f, g in _order_pairs(leading, rng)]
    return {"state": state, "leading": leading, "verdicts": verdicts, "chains": chains}


def _morph(f) -> str:
    return f"{f.f_prime.entries}/{f.f_dprime.entries}"


def basis_digest(state) -> str:
    lines = []
    for n in sorted(state.bases):
        basis = state.bases[n]
        rows = basis.canonical_rows()
        for lead in sorted(rows, key=lambda f: f.order_key):
            row = rows[lead]
            terms = ";".join(f"{_morph(g)}:{basis.field.format(row[g])}"
                             for g in sorted(row, key=lambda f: f.order_key))
            lines.append(f"{n}|{_morph(lead)}|{terms}")
    return sha256_lines(lines)


def check(ctx: dict, inp: dict, out: dict, refs: dict):
    key = f"{inp['template']}:{inp['variant']}"
    field = inp["field"]
    state = out["state"]
    props = {"queries": len(inp["queries"]), "members": 0,
             "pairs": len(out["chains"]), "related": 0,
             "q_field": int(field.name == "Q"),
             "dim": sum(b.dim for b in state.bases.values())}
    if basis_digest(state) != refs.get(key):
        return False, f"span {key}: canonical basis differs from the reference", props
    for n, lead in out["leading"].items():
        if set(lead) != set(state.bases[n].canonical_rows()):
            return False, f"span {key}: initial module differs from the pivots at {n}", props
    for (x, by_construction), (member, cert) in zip(inp["queries"], out["verdicts"]):
        rows = state.bases[x.degree].canonical_rows()
        rem = dict(x.terms)
        for pivot, c in cert:
            for g, rc in rows[pivot].items():
                v = field.sub(rem.get(g, field.zero), field.mul(c, rc))
                if v == field.zero:
                    rem.pop(g, None)
                else:
                    rem[g] = v
        if member != (not rem):
            return False, f"span {key}: certificate replay contradicts the verdict", props
        if by_construction and not member:
            return False, f"span {key}: constructed member reported outside", props
        if rem and any(g in rows for g in rem):
            return False, f"span {key}: remainder not reduced", props
        props["members"] += int(member)
    for f, g, chain in out["chains"]:
        if chain is None:
            continue
        phi = ordering.build_phi(f, chain, expect=g)
        if ovic.compose_vic(phi, f) != g:
            return False, f"span {key}: partial_leq chain does not recompose", props
        props["related"] += 1
    return True, "", props


def record_refs() -> dict:
    out = {}
    for t, (ring, _, horizon, _, _) in enumerate(TEMPLATES):
        emb = wedderburn.build_aw_embedding(rings.builtin_ring(ring))
        for v in range(VARIANTS):
            field, gens = generators(emb, t, v)
            state = noether.span_to_degree(gens, horizon, emb, field, d=1)
            out[f"{t}:{v}"] = basis_digest(state)
    return out
