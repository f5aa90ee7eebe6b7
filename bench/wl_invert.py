"""Workload `invert`: one `matrix_invertible` call per op.

Rings run from Z8 (quotient F2) up to M2(F3) (81 elements, semisimple), with
n = 2..4; the heaviest op, F2S3 4x4 invertible, scans 32^4 quotient vectors
(about 3 s on a 2-core x86 container).  Every (ring, n) class has as many
invertible inputs, built as products of unit-triangular factors, as
singular ones, whose row i is a left combination of the other rows.  The
verdict is therefore known from the construction, and singular inputs
exercise the scan's early exit.

Where the early exit stops depends on the seeded matrix, so one singular
input of a heavy class costs anywhere from microseconds to a full scan.
The three heaviest classes (M2F2 4x4, F2S3 3x3 and 4x4) therefore get one
input of each kind and every other class twelve, so that the median and
the tail fall among many ops of similar cost rather than on a single
seeded one.
"""

from __future__ import annotations

import random

from vicbench import rings

# (ring, n, inputs of each kind)
CLASSES = (
    ("Z8", 2, 12), ("Z8", 4, 12), ("Z4", 2, 12), ("Z4", 3, 12),
    ("F2C2", 2, 12), ("F2C2", 3, 12), ("F2C2", 4, 12),
    ("T2F2", 2, 12), ("T2F2", 3, 12), ("T2F2", 4, 12),
    ("F3", 2, 12), ("F3", 3, 12), ("F3", 4, 12),
    ("M2F2", 2, 12), ("M2F2", 3, 12), ("M2F2", 4, 1),
    ("F2S3", 2, 12), ("F2S3", 3, 1), ("F2S3", 4, 1),
    ("M2F3", 2, 12),
)
# (ring, n, invertible) per slot: a class's invertible inputs, then its singular ones
SLOTS = tuple((ring, n, kind) for ring, n, count in CLASSES
              for kind in (True, False) for _ in range(count))
SPECS = {"M2F3": "matrix_ring(zmod(3),2)"}


def _ring(name: str):
    return rings.build_ring(SPECS[name]) if name in SPECS else rings.builtin_ring(name)


def setup(seed: int, slots) -> dict:
    names = sorted({SLOTS[s][0] for s in slots})
    ring_objs = {name: _ring(name) for name in names}
    return {"rings": ring_objs,
            "quotients": {name: rings.quotient_by_radical(r) for name, r in ring_objs.items()}}


def _unit_triangular(ring, n: int, lower: bool, rng) -> "rings.RMatrix":
    entries = []
    for i in range(n):
        for j in range(n):
            if i == j:
                entries.append(ring.one)
            elif (i > j) == lower:
                entries.append(rng.randrange(ring.size))
            else:
                entries.append(ring.zero)
    return rings.RMatrix(ring, n, n, entries)


def _singular(ring, n: int, rng) -> "rings.RMatrix":
    rows = [[rng.randrange(ring.size) for _ in range(n)] for _ in range(n)]
    dep = rng.randrange(n)
    new = [ring.zero] * n
    for j in range(n):
        if j == dep:
            continue
        c = rng.randrange(ring.size)
        for col in range(n):
            new[col] = ring.add(new[col], ring.mul(c, rows[j][col]))
    rows[dep] = new
    return rings.RMatrix.from_rows(ring, rows)


def make_input(ctx: dict, seed: int, slot: int) -> dict:
    name, n, invertible = SLOTS[slot]
    ring = ctx["rings"][name]
    rng = random.Random(f"invert/{seed}/{slot}")
    if invertible:
        m = _unit_triangular(ring, n, True, rng).mul(
            _unit_triangular(ring, n, False, rng)).mul(
            _unit_triangular(ring, n, True, rng))
    else:
        m = _singular(ring, n, rng)
    return {"ring": name, "n": n, "invertible": invertible, "matrix": m}


def run_op(ctx: dict, inp: dict):
    return rings.matrix_invertible(inp["matrix"], ctx["quotients"][inp["ring"]])


def inject(kind: str, inp: dict, out):
    if kind == "flip-verdict":
        return (not out[0], out[1])
    return out


def _matmul(ring, a, b, n: int) -> list:
    """Plain product over the ring's tables, independent of RMatrix.mul."""
    return [
        [_dot(ring, [a[i * n + t] for t in range(n)], [b[t * n + j] for t in range(n)])
         for j in range(n)]
        for i in range(n)
    ]


def _dot(ring, xs, ys) -> int:
    acc = ring.zero
    for x, y in zip(xs, ys):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def check(ctx: dict, inp: dict, out, refs: dict):
    ok, witness = out
    name, n = inp["ring"], inp["n"]
    props = {"invertible": int(inp["invertible"])}
    label = f"{name} {n}x{n} {'invertible' if inp['invertible'] else 'singular'}"
    if ok != inp["invertible"]:
        return False, f"{label}: verdict {ok} contradicts the construction", props
    if not ok:
        return (witness is None, f"{label}: singular verdict carries a witness", props)
    ring = ctx["rings"][name]
    ident = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    m, x = inp["matrix"].entries, witness.entries
    if _matmul(ring, m, x, n) != ident or _matmul(ring, x, m, n) != ident:
        return False, f"{label}: witness is not a two-sided inverse", props
    return True, "", props
