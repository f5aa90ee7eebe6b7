"""Degree-truncated engine over representable modules.

P(d) in degree n is the free module on Hom(R^d, R^n); a submodule is grown
from generators by applying every morphism into each degree up to a horizon,
and stored as fully reduced echelon bases with pivots on the order-largest
basis morphism.  Coefficients are exact: prime fields or rationals.  A
``ModuleElement`` reduces each coefficient into its field, and the engine
refuses an element over another field than the span's (``FieldMismatch``).

The engine works on ranks.  ``enumerate_ovic`` emits each stratum OVIC(d, n)
in strict total order, so a member's position in that list, its rank,
compares as the member does.  The rank view of a stratum
(``StratumRanks``) is that list and one index by entries,
f''.entries -> {f'.entries -> rank}; the engine builds the view on first
use and caches it on the embedding beside the stratum.  ``span_to_degree``
turns each generator into ranks, and its coefficients into ints, once.  Per
source term f of OVIC(d, k) it keeps one composite column on the embedding:
the rank of phi o f for every phi in OVIC(k, n), built in one pass over
OVIC(k, n) with one f'' product per record of it (``_composite_column``).
The columns' rows are the images' rank tuples; the engine hands all of a
generator's tuples in one degree, with its coefficients, to one
``EchelonBasis.extend`` call, which skips a tuple it has already seen and
reduces the others straight into the basis.  The basis keeps rows, column
index and pivots as ints, with coefficients as ints too: residues with
pivot entry 1 over F_p, primitive integer vectors with a positive pivot
entry over Q.  The field classes supply the row operations on them, so
inserting builds no Fraction; morphisms and field elements come back only
at the basis's public methods.
The target strata OVIC(d, n) are always enumerated and count against the
span's budget.

``act`` composes morphisms outside the engine, each term by ``compose_vic``;
it shares no state with enumeration.

Leads move only along completions.  Post-composition does not keep the
total order, so init(phi o x) need not be phi o init(x) (see ``ordering``),
and one degree's leads are not the images of the last degree's leads.  The
engine therefore reduces every image in full and reads the leads off the
echelon basis; only the completion of an insertion move on f keeps
everything below f below.
"""

from __future__ import annotations

import gc
import itertools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from functools import cache
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Optional, Sequence

from .errors import (
    BadShape,
    BudgetExceeded,
    CounterexampleFound,
    DegreeMismatch,
    FieldMismatch,
    HorizonExceeded,
    InvalidMorphism,
    ZeroElement,
)
from .ovic import (
    DistinguishedIndexer,
    OvicMorphism,
    VicMorphism,
    canonical_splitting,
    compose_vic,
    factor_vic,
    is_column_adapted,
    split_rows,
)
from .rings import RMatrix, _additive_generators, mul_entries
from .wedderburn import AWEmbedding

MAX_PRIME = 97


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

class PrimeField:
    """F_p for p prime (p <= 97); elements are ints 0..p-1.

    The echelon kernel keeps a row as a dict of residues scaled so that its
    pivot entry is 1, so a stored entry is already the field element."""

    def __init__(self, p: int):
        if p < 2 or p > MAX_PRIME or any(p % q == 0 for q in range(2, p)):
            raise ValueError(f"need a prime <= {MAX_PRIME}, got {p}")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"0 has no inverse in {self.name}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def coerce(self, c) -> int:
        """An int or Fraction as its residue; a denominator divisible by p
        raises ZeroDivisionError."""
        if c.denominator == 1:
            return c.numerator % self.p
        return c.numerator * self.inv(c.denominator % self.p) % self.p

    def parse(self, text) -> int:
        if isinstance(text, bool) or not isinstance(text, (int, str)):
            raise ValueError(f"{text!r} is not an integer")
        return int(text) % self.p

    def format(self, a) -> str:
        return str(a)

    # echelon rows: dicts of residues 1..p-1, pivot entry 1

    def integral(self, coeffs: list) -> list[int]:
        return [c % self.p for c in coeffs]

    def clear(self, v: dict, m: int, row: dict) -> None:
        """Subtract v[m] times ``row`` (pivot m) from v in place."""
        p, c = self.p, v[m]
        for g, r in row.items():
            nv = (v.get(g, 0) - c * r) % p
            if nv:
                v[g] = nv
            else:
                del v[g]

    def normalise(self, v: dict, lead: int) -> None:
        """Scale v in place to pivot entry 1 at ``lead``."""
        p = self.p
        inv = pow(v[lead], p - 2, p)
        if inv != 1:
            for g in v:
                v[g] = v[g] * inv % p

    def entry(self, x: int, pivot_entry: int) -> int:
        """A stored entry as an element of the row scaled to pivot entry 1."""
        return x


class RationalField:
    """Exact rationals via fractions.Fraction.

    The echelon kernel keeps a row as a primitive integer vector (entries
    with gcd 1) whose pivot entry is positive; the row it stands for is that
    vector divided by its pivot entry.  Fractions are built only when a
    stored entry is read back (``entry``)."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def from_int(self, n: int):
        return Fraction(n)

    def coerce(self, c) -> Fraction:
        return c if type(c) is Fraction else Fraction(c)

    def parse(self, text) -> Fraction:
        """``text`` as a Fraction; ValueError if it is no rational or one
        whose numerator or denominator is too long for ``str`` to write
        back (Python's int -> str digit limit).  Building 10^e costs time in
        e, so exponent form never builds it for a zero mantissa, and is
        refused unbuilt when |e| alone puts a nonzero value past 10^limit or
        below 10^-limit: the mantissa lies in [10^-len, 10^len)."""
        text = str(text).strip()
        mantissa, e, exp = text.replace("E", "e").partition("e")
        if e:
            # text with each exponent digit 0: as valid as text, and cheap
            value = Fraction(mantissa + e + "".join("0" if c.isdecimal() else c
                                                    for c in exp))
            if not value:
                return value
            limit = _int_max_str_digits()
            if limit and abs(int(exp)) > limit + len(text):
                raise ValueError("exponent past the int -> str digit limit")
        return check_writable(Fraction(text))

    def format(self, a) -> str:
        return str(a)

    # echelon rows: primitive int dicts with a positive pivot entry

    def integral(self, coeffs: list) -> list[int]:
        """The coefficients times the lcm of their denominators."""
        scale = lcm(*(c.denominator for c in coeffs))
        return [c.numerator * (scale // c.denominator) for c in coeffs]

    def clear(self, v: dict, m: int, row: dict) -> None:
        """v := (a v - b row) / gcd in place, a = row[m] and b = v[m]: v
        loses coordinate m and comes out primitive.  a > 0, so a coordinate
        that ``row`` does not hold keeps its sign; a stored row cleared by a
        new one keeps a positive pivot entry."""
        a, b = row[m], v[m]
        common = gcd(a, b)
        if common != 1:
            a //= common
            b //= common
        if a != 1:
            for g in v:
                v[g] *= a
        for g, r in row.items():
            nv = v.get(g, 0) - b * r
            if nv:
                v[g] = nv
            else:
                del v[g]
        content = gcd(*v.values())
        if content > 1:
            for g in v:
                v[g] //= content

    def normalise(self, v: dict, lead: int) -> None:
        """Divide v in place by its content, signed so that v[lead] > 0."""
        content = gcd(*v.values())
        if v[lead] < 0:
            content = -content
        if content != 1:
            for g in v:
                v[g] //= content

    def entry(self, x: int, pivot_entry: int) -> Fraction:
        """A stored entry as an element of the row divided by its pivot
        entry."""
        return Fraction(x, pivot_entry)


# 3.10 releases before 3.10.7 have no int -> str digit limit
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def check_writable(value):
    """``value`` if ``str`` can write it back; ValueError if its numerator
    or denominator is past Python's int -> str digit limit."""
    str(value)
    return value


def parse_field(spec: str):
    spec = spec.strip()
    if spec in ("Q", "QQ"):
        return RationalField()
    if spec.startswith("F") and spec[1:].isdigit():
        return PrimeField(int(spec[1:]))
    raise ValueError(f"unknown coefficient field {spec!r} (use Fp or Q)")


# ---------------------------------------------------------------------------
# morphism enumeration
# ---------------------------------------------------------------------------
#
# Every split pair d -> n factors uniquely as an automorphism of R^d followed
# by a column-adapted pair, so VIC(d, n) = OVIC(d, n) o GL_d.  Both are
# generated rather than filtered: the f'' of OVIC(d, n) by a search over
# their columns, the splittings of each f'' as psi + ker(f'')^d, and GL_d as
# the closure of transvections and diagonal units, each element found with
# its inverse.  Members are assembled from entry tuples checked once per f''
# and emitted in order, a record (one f'') or group (one f'' and g) at a
# time: the entries and free rows of its members are read a position at a
# time through ``itemgetter`` tables, and one batch constructor call per
# class builds its matrices and morphisms.  Results are cached in
# ``emb.enum_cache``.
#
# A stratum build allocates tens of thousands of members, and each burst of
# allocations would make CPython's cyclic collector walk them and every
# stratum already cached.  Builds therefore run with the collector paused
# (``_collector_paused``).  The pause defers no freeing: members hold only
# rings, embeddings, tuples and ints, and a build makes no reference cycle,
# so reference counting frees whatever it drops.  Re-enabling alone would
# still leave the collector counting the pause's allocations, so its next
# young passes would walk every member just built and free nothing.  A
# finished build therefore tenures them: ``gc.freeze(); gc.unfreeze()``
# moves everything tracked into the oldest generation, two list splices
# that walk no object.  The tenure also zeroes the collector's counts, so
# a caller that allocates little between builds would never again reach
# the count at which CPython starts a collection, and cyclic garbage it
# makes would never be freed.  Each tenured build therefore starts with a
# sweep (``_sweep``): a collection of the young generations, which then
# hold only the caller's objects made since the last build, so it is short
# and the tenure moves nothing unexamined but the build's own members.  The
# sweep is a full collection as often as CPython's schedule gave one when
# every build's burst started a young collection: once threshold1 x
# threshold2 builds (100 at the default thresholds) have passed since the
# last, and the objects moved into the oldest generation since then pass a
# quarter of what it kept.  The sweep and the tenure are skipped while any
# object is frozen, since ``unfreeze`` would thaw it; that includes CPython
# 3.12, which starts with the ``__mro__`` and ``__bases__`` tuples of its
# static types frozen, so builds there are paused but not tenured.  They
# are also skipped when automatic collection is off (threshold0 is 0).

# sweeps since the last full one, objects moved into the oldest generation
# since then, and the tracked objects counted after it
_tenure = [0, 0, 0]


def _sweep() -> None:
    """Collect the young generations before a tenured build, or all of them
    once the schedule above calls for a full collection."""
    _tenure[0] += 1
    _tenure[1] += gc.get_count()[0]
    sweeps, moved, kept = _tenure
    _, middle, oldest = gc.get_threshold()
    if sweeps > middle * oldest and moved > kept // 4:
        gc.collect()
        gc.freeze()
        _tenure[:] = [0, 0, gc.get_freeze_count()]
        gc.unfreeze()
    else:
        gc.collect(1)


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off.  Unless any
    object is frozen, sweep the caller's young objects first (``_sweep``)
    and, on a normal exit, tenure what the block allocated into the oldest
    generation; on any exit switch the collector back on if it was on
    before."""
    enabled = gc.isenabled()
    tenure = enabled and gc.get_threshold()[0] and not gc.get_freeze_count()
    if tenure:
        _sweep()
    gc.disable()
    try:
        yield
        if tenure:
            _tenure[1] += gc.get_count()[0]
            gc.freeze()
            gc.unfreeze()
    finally:
        if enabled:
            gc.enable()


def _check_ranks(d: int, n: int) -> None:
    if d < 0 or n < 0:
        raise ValueError(f"negative rank in {d} -> {n}")


def _check_budget(work: int, budget: int, what: str) -> None:
    if work > budget:
        raise BudgetExceeded(
            f"{what} needs more than {budget} search nodes and morphisms"
        )


def _column_search(width: int, n: int, step, state, budget: int, what: str
                   ) -> tuple[list, int]:
    """Every n-tuple (n >= 1) of candidate indices 0..width-1 whose prefixes
    all pass ``step``, with its final state, in lexicographic order, plus the
    search nodes visited.  ``step(state, c, idx)`` is the state once
    candidate ``idx`` is put in column c, or None to cut the prefix there.

    The prefixes still to extend sit on an explicit stack, smallest on top,
    so a search leaves no reference cycle for the collector to free."""
    found = []
    nodes = 0
    stack = [((), state)]
    while stack:
        chosen, state = stack.pop()
        c = len(chosen)
        full = c + 1 == n
        children = []
        for idx in range(width):
            nodes += 1
            _check_budget(nodes, budget, what)
            grown = step(state, c, idx)
            if grown is None:
                continue
            if full:
                found.append((chosen + (idx,), grown))
            else:
                children.append((chosen + (idx,), grown))
        stack.extend(reversed(children))
    return found, nodes


def _column_adapted_dprimes(emb: AWEmbedding, d: int, n: int, budget: int
                            ) -> tuple[list, int]:
    """Every column-adapted d x n matrix f'' as (f'', s_sets, the columns of
    Phi(f'')), plus the number of search nodes visited.

    f'' is built one column at a time.  The pivots of block k of
    Phi_bar(f'') are chosen left to right, and each pivot column found so far
    is an exact block-identity indicator, so the echelon state of block k is
    just its rank r: a new block-k column is a pivot iff it is nonzero mod J
    at some block row >= r, and it must then be the indicator of row r.  A
    prefix is cut at the first pivot that is not, and as soon as the columns
    left cannot bring every block to rank mu_k * d.
    """
    ring = emb.ring
    mu, q, mus = emb.mu_total, emb.q, emb.mu
    proj = emb.qdata.projection
    zero_bar = emb.qdata.quotient.zero
    ridx = DistinguishedIndexer(mus, d)
    # 0-based row of Phi(f'') carrying block row i of block k
    block_rows = [[r - 1 for r in ridx.block_positions(k + 1)] for k in range(q)]
    phi_cols = [[emb.phi(x).col(s) for s in range(mu)] for x in ring.elements()]
    vectors = list(itertools.product(ring.elements(), repeat=d))
    # per candidate column v and standard position s:
    # (block, Phi column, last block row nonzero mod J, that row if the
    #  column is exactly its indicator else -1, position within the block)
    table = []
    for v in vectors:
        entries = []
        for s in range(mu):
            k = emb.block_of[s]
            col = tuple(e for x in v for e in phi_cols[x][s])
            rows = block_rows[k]
            last = max((i for i, r in enumerate(rows) if proj[col[r]] != zero_bar),
                       default=-1)
            exact = last if last >= 0 and col == tuple(
                emb.idempotents[k][0] if r == rows[last] else ring.zero
                for r in range(mu * d)) else -1
            entries.append((k, col, last, exact, s - ridx.prefix[k]))
        table.append(entries)

    need = [m * d for m in mus]

    def step(state, c: int, idx: int):
        ranks, pivots = state
        ranks = list(ranks)
        added = [[] for _ in range(q)]
        for k, _, last, exact, r in table[idx]:
            if last < ranks[k]:
                continue
            if exact != ranks[k]:
                return None
            ranks[k] += 1
            added[k].append(c * mus[k] + r + 1)
        left = n - c - 1
        if any(ranks[k] + mus[k] * left < need[k] for k in range(q)):
            return None
        return ranks, tuple(p + tuple(a) for p, a in zip(pivots, added))

    found, nodes = _column_search(len(vectors), n, step, ([0] * q, ((),) * q),
                                  budget, f"OVIC({d}, {n})")
    out = []
    for cols, (_, pivots) in found:
        f_dprime = RMatrix(ring, d, n, [vectors[i][rho] for rho in range(d) for i in cols])
        out.append((f_dprime, pivots,
                    tuple(table[i][s][1] for i in cols for s in range(mu))))
    return out, nodes


def _kernel(f: RMatrix) -> list[tuple[int, ...]]:
    """ker f.  For one row (a_0 .. a_{n-1}), by partial sums: every prefix
    (v_0 .. v_{n-2}) carries a_0 v_0 + .. + a_{n-2} v_{n-2}, and the last
    coordinate is read off a preimage table of x -> a_{n-1} x.  For more
    rows, met in the middle: vectors on the first n // 2 coordinates are
    grouped by the negative of their image, then matched against the rest."""
    ring = f.ring
    add, mul, zero = ring.add_table, ring.mul_table, ring.zero
    d, n, e = f.rows, f.cols, f.entries
    if d == 1:
        sums = [((), zero)]
        for a in e[:-1]:
            times_a = mul[a]
            sums = [(u + (x,), add[s][ax]) for u, s in sums for x, ax in enumerate(times_a)]
        last: dict = {}  # -(a_{n-1} x) -> every such (x,)
        neg = ring._neg
        for x, ax in enumerate(mul[e[-1]]):
            last.setdefault(neg[ax], []).append((x,))
        return [u + x for u, s in sums for x in last.get(s, ())]
    half = n // 2

    def image(vec, offset):
        out = []
        for rho in range(d):
            acc = zero
            base = rho * n + offset
            for t, x in enumerate(vec):
                acc = add[acc][mul[e[base + t]][x]]
            out.append(acc)
        return tuple(out)

    neg = ring._neg
    left: dict = {}  # -(image of u) -> u
    for u in itertools.product(ring.elements(), repeat=half):
        left.setdefault(tuple(neg[x] for x in image(u, 0)), []).append(u)
    out = []
    for w in itertools.product(ring.elements(), repeat=n - half):
        for u in left.get(image(w, half), ()):
            out.append(u + w)
    return out


def _splittings(emb: AWEmbedding, d: int, n: int, budget: int) -> tuple[list, int]:
    """Per column-adapted f'' of the stratum d -> n: (f'', s_sets, canonical
    splitting psi, |ker(f'')^d|, order-key prefix, pickers), plus the search
    nodes it took; cached on ``emb``.  The splittings of f'' are psi + K for
    K in ker(f'')^d.  Phi is injective, so the prefixes (n, s_sets, Phi(f'')
    columns) are distinct; the records come sorted by them.  The nodes plus
    the splittings so far bound the work of either stratum from below, so
    BudgetExceeded is raised as soon as they pass ``budget``.  Each record
    passes ``_check_group`` as it is made, so both builds take its members'
    parts as they are.

    The shifts K are kept a position at a time: picker i takes a row of the
    addition table (x + . for an entry x of the base) to the tuple of its
    entries at position i of every K, in one fixed order of the K.  So a
    build turns a base into the entry tuples of all its splittings with
    n d getter calls and one ``zip``, and no loop over the members."""
    key = ("splittings", d, n)
    if key not in emb.enum_cache:
        ring = emb.ring
        found, nodes = _column_adapted_dprimes(emb, d, n, budget)
        records = []
        work = nodes
        for f_dprime, s_sets, cols in found:
            kernel = _kernel(f_dprime)
            work += len(kernel) ** d
            _check_budget(work, budget, f"OVIC({d}, {n})")
            # every K in ker(f'')^d, as n x d row-major entries; for d = 1
            # those are the kernel vectors themselves
            shifts = kernel if d == 1 else [
                tuple(itertools.chain.from_iterable(zip(*combo)))
                for combo in itertools.product(kernel, repeat=d)]
            psi = canonical_splitting(s_sets, emb, m=n, n=d)
            _check_group(ring, d, n, f_dprime, psi.entries, shifts)
            records.append((f_dprime, s_sets, psi, len(shifts), (n, s_sets, cols),
                            [_picker(col) for col in zip(*shifts)]))
        records.sort(key=itemgetter(4))
        emb.enum_cache[key] = (records, nodes)
    return emb.enum_cache[key]


def _picker(indices: tuple):
    """seq -> the tuple of its items at ``indices``: ``itemgetter``, which
    gives a bare item for one index."""
    if len(indices) == 1:
        i, = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def _check_group(ring, d: int, n: int, f_dprime: RMatrix, base: tuple,
                 shifts: list) -> None:
    """What ``RMatrix`` and ``VicMorphism`` check for each member, checked
    once for the members (base + K, f'') with K in ``shifts``: f'' is a
    d x n matrix over ``ring``, and base and every K are n * d ints."""
    if f_dprime.ring is not ring or (f_dprime.rows, f_dprime.cols) != (d, n):
        raise InvalidMorphism(f"f'' must be a {d}x{n} matrix over {ring.name}")
    if (len(base) != n * d or set(map(len, shifts)) - {n * d}
            or any(type(x) is not int for x in base)):
        raise BadShape(f"splittings of a {d}x{n} f'' need {n * d} int entries")


def _gl_generators(ring, d: int) -> list[tuple[int, int, int, int]]:
    """Generators of GL_d(R) as (a, b, y, z): s = I + y E_ab with s^-1 =
    I + z E_ab.

    A finite ring is semilocal, so it has stable rank 1 and GL_d(R) =
    E_d(R) GL_1(R) (Bass, *K-theory and stable algebra*, 1964): the
    transvections I + x E_ij (i != j, x an additive generator of R) and the
    diag(u, 1, .., 1) = I + (u - 1) E_00 (u a unit other than 1) generate
    it."""
    add, neg, one = ring._add, ring._neg, ring.one
    gens = [(i, j, x, neg[x]) for i in range(d) for j in range(d) if i != j
            for x in _additive_generators(add, ring.zero)]
    gens += [(0, 0, add[u][neg[one]], add[ring.inv(u)][neg[one]])
             for u in ring.elements() if u != one and ring.is_unit(u)]
    return gens


def _general_linear(emb: AWEmbedding, d: int, budget: int) -> tuple[list, int]:
    """GL_d(R) as (g, g^-1) entry-tuple pairs, plus the products it took;
    cached on ``emb``.

    A breadth-first closure from I multiplies every element g by every
    generator s (``_gl_generators``) once, on the right: g s adds column a
    of g times y to column b, and its inverse s^-1 g^-1 adds z times row b
    of g^-1 to row a.  That is |GL_d(R)| |generators| products; past
    ``budget`` BudgetExceeded is raised, before the closure runs.  A closure
    of other than ``_gl_order`` elements is a bug."""
    key = ("gl", d)
    if key not in emb.enum_cache:
        ring = emb.ring
        add, mul = ring._add, ring._mul
        gens = _gl_generators(ring, d)
        order = _gl_order(emb, d)
        _check_budget(order * len(gens), budget, f"GL_{d}")
        ident = RMatrix.identity(ring, d).entries
        seen = {ident}
        pairs = [(ident, ident)]
        for g, g_inv in pairs:  # grows while it is walked: breadth first
            for a, b, y, z in gens:
                h = list(g)
                for r in range(0, d * d, d):
                    h[r + b] = add[g[r + b]][mul[g[r + a]][y]]
                h = tuple(h)
                if h not in seen:
                    seen.add(h)
                    h_inv = list(g_inv)
                    row_a, row_b = a * d, b * d
                    for c in range(d):
                        h_inv[row_a + c] = add[g_inv[row_a + c]][mul[z][g_inv[row_b + c]]]
                    pairs.append((h, tuple(h_inv)))
        if len(pairs) != order:
            raise RuntimeError(f"closure found {len(pairs)} of |GL_{d}| = {order}")  # bug guard
        emb.enum_cache[key] = pairs, order * len(gens)
    pairs, products = emb.enum_cache[key]
    _check_budget(products, budget, f"GL_{d}")
    return pairs, products


def _build_ovic(emb: AWEmbedding, d: int, n: int, budget: int) -> tuple[list, int]:
    ring = emb.ring
    if d == 0:
        return [OvicMorphism(RMatrix(ring, n, 0, []), RMatrix(ring, 0, n, []),
                             emb, s_sets=tuple(() for _ in range(emb.q)),
                             check=False)], 1
    if n < d:
        return [], 0
    records, nodes = _splittings(emb, d, n, budget)
    work = nodes + sum(rec[3] for rec in records)
    _check_budget(work, budget, f"OVIC({d}, {n})")
    mu = emb.mu_total
    add = ring.add_table
    phis = [emb.phi(x) for x in ring.elements()]
    # per row p of Phi: row p of Phi applied along a row of f', indexed by
    # its element for d = 1 and keyed by the row for d > 1
    if d == 1:
        phi_rows = [[phi.row(p) for phi in phis] for p in range(mu)]
    else:
        phi_rows = [{v: tuple(e for x in v for e in phis[x].row(p))
                     for v in itertools.product(ring.elements(), repeat=d)}
                    for p in range(mu)]
    out = []
    for f_dprime, s_sets, psi, count, prefix, pickers in records:
        # entry i of f' over the members of the record, then row i of f'
        cols = [pick(add[a]) for pick, a in zip(pickers, psi.entries)]
        f_rows = cols if d == 1 else [list(zip(*cols[i:i + d])) for i in range(0, n * d, d)]
        # standard row s of Phi(f') is row (s-1) % mu of Phi along row
        # (s-1) // mu of f', so a free row over the members is one lookup
        # per member in one table; n = d leaves no free row, and a single
        # member per record
        free, _ = split_rows(emb, n, s_sets)
        frees = zip(*[_picker(f_rows[(s - 1) // mu])(phi_rows[(s - 1) % mu])
                      for s in free]) if free else [()] * count
        # the records come in prefix order, so sorting each by its free rows
        # sorts the stratum; no two members of a record share free rows
        members = sorted(zip(frees, zip(*cols)))
        out += OvicMorphism._batch(
            RMatrix._batch(ring, n, d, map(itemgetter(1), members)), f_dprime, emb,
            s_sets, prefix, map(itemgetter(0), members))
    return out, work


def enumerate_ovic(emb: AWEmbedding, d: int, n: int,
                   budget: int = 10 ** 6) -> list[OvicMorphism]:
    """All column-adapted morphisms d -> n, sorted by the total order.

    Each column-adapted f'' comes out of a column-by-column search, and
    carries the splittings psi + K for K in ker(f'')^d, psi its canonical
    splitting.  Order keys are a per-f'' prefix (n, s_sets, Phi(f'')
    columns) followed by the free rows of Phi(f').  Phi is injective, so no
    two f'' share a prefix: the stratum is emitted in order by taking the
    f'' in prefix order and the members of each in free-row order, with no
    sort over the whole stratum.  ``budget`` bounds the search nodes plus
    the emitted morphisms; BudgetExceeded is raised past it.  The stratum is
    cached on ``emb``: a repeated request returns the same list.  The order
    is strict, so position i in the list is rank i; the span engine builds
    its rank view (``StratumRanks``) from this list, and this function
    never does.  The stratum is built with the cyclic collector paused,
    after a collection of the caller's young objects, and a finished build
    tenures what it allocated into the oldest generation: the build leaves
    no reference cycle, so this only saves the collector's passes over the
    new members and the strata already cached.
    """
    _check_ranks(d, n)
    key = ("ovic", d, n)
    if key not in emb.enum_cache:
        with _collector_paused():
            emb.enum_cache[key] = _build_ovic(emb, d, n, budget)
    out, work = emb.enum_cache[key]
    _check_budget(work, budget, f"OVIC({d}, {n})")
    return out


def enumerate_vic(emb: AWEmbedding, d: int, n: int,
                  budget: int = 10 ** 6) -> list[VicMorphism]:
    """All split pairs d -> n, sorted by (f''.entries, f'.entries).

    Built as OVIC(d, n) o GL_d: f'' = g f2'' and f' = psi g^-1 + K over the
    column-adapted f2'' (canonical splitting psi), g in GL_d and K in
    ker(f2'')^d, on entry tuples.  Each pair arises once, because its
    factorisation through the ordered subcategory is unique; so distinct
    (f2'', g) give distinct f'', and the stratum is emitted in order by
    taking the (f2'', g) groups in f'' order and the f' of each sorted, with
    no sort over the whole stratum.  GL_d is a closure from I under right
    multiplication by transvections and diagonal units
    (``_general_linear``).  ``budget`` bounds the work: the search nodes of
    OVIC(d, n), the |GL_d| |generators| products of the closure, and per g
    in GL_d one plus the splittings of every f2''; VIC(0, n) is work 1.
    That work is counted from |GL_d| in closed form, so BudgetExceeded is
    raised past it before GL_d is built, and a cached GL_d gets the same
    verdict.  The stratum is built with the cyclic collector paused and
    tenured once finished, as in ``enumerate_ovic``.
    """
    _check_ranks(d, n)
    ring = emb.ring
    if d == 0:
        _check_budget(1, budget, f"VIC(0, {n})")
        return [VicMorphism(RMatrix(ring, n, 0, []), RMatrix(ring, 0, n, []),
                            check=False)]
    if n < d:
        return []
    with _collector_paused():
        return _build_vic(emb, d, n, budget)


def _build_vic(emb: AWEmbedding, d: int, n: int, budget: int) -> list[VicMorphism]:
    ring = emb.ring
    records, nodes = _splittings(emb, d, n, budget)
    # the closure's products, then per g in GL_d one pair and its splittings
    order = _gl_order(emb, d)
    work = nodes + order * (len(_gl_generators(ring, d)) + 1
                            + sum(rec[3] for rec in records))
    _check_budget(work, budget, f"VIC({d}, {n})")
    gl, _ = _general_linear(emb, d, budget)
    # rows of each g and columns of each g^-1
    gl_parts = [([g[i:i + d] for i in range(0, d * d, d)], [g_inv[j::d] for j in range(d)])
                for g, g_inv in gl]
    flatten = itertools.chain.from_iterable
    groups = []
    for f2, _, psi, _, _, pickers in records:
        # row i of g f2'' is (row i of g) f2'', column j of psi g^-1 is
        # psi (column j of g^-1): one product per distinct row and column
        times_f2 = cache(lambda v: mul_entries(ring, v, f2.entries, 1, d, n))
        psi_times = cache(lambda v: mul_entries(ring, psi.entries, v, n, d, 1))
        for g_rows, inv_cols in gl_parts:
            f_dprime = tuple(flatten(map(times_f2, g_rows)))
            base = tuple(flatten(zip(*map(psi_times, inv_cols))))
            groups.append((f_dprime, base, pickers))
    # each f'' comes from one (f2'', g), so sorting the groups by f'' and
    # each group's f' sorts the stratum
    groups.sort(key=itemgetter(0))
    add = ring.add_table
    out = []
    for f_dprime, (_, base, pickers) in zip(
            RMatrix._batch(ring, d, n, map(itemgetter(0), groups)), groups):
        f_primes = sorted(zip(*[pick(add[a]) for pick, a in zip(pickers, base)]))
        out += VicMorphism._batch(RMatrix._batch(ring, n, d, f_primes), f_dprime)
    return out


# ---------------------------------------------------------------------------
# module elements and the action
# ---------------------------------------------------------------------------

class ModuleElement:
    """A finite combination of degree-n basis morphisms with exact
    coefficients.  Each coefficient is reduced into ``field``
    (``field.coerce``: a residue 0..p-1 over F_p, a Fraction over Q), and
    one that is then zero is not stored."""

    __slots__ = ("d", "degree", "field", "terms")

    def __init__(self, d: int, degree: int, field, terms: dict):
        self.d = d
        self.degree = degree
        self.field = field
        coerce = field.coerce
        self.terms = {}
        for f, c in terms.items():
            c = coerce(c)
            if c:
                self.terms[f] = c
        for f in self.terms:
            if f.d != d or f.n != degree:
                raise DegreeMismatch(
                    f"term {f.d}->{f.n} inside element of type {d}->{degree}"
                )

    @classmethod
    def monomial(cls, f: OvicMorphism, field, coeff=None) -> "ModuleElement":
        return cls(f.d, f.n, field, {f: field.one if coeff is None else coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "ModuleElement") -> "ModuleElement":
        if (self.d, self.degree) != (other.d, other.degree):
            raise DegreeMismatch("cannot add across degrees")
        terms = dict(self.terms)
        for f, c in other.terms.items():
            terms[f] = self.field.add(terms.get(f, self.field.zero), c)
        return ModuleElement(self.d, self.degree, self.field, terms)

    def scale(self, c) -> "ModuleElement":
        return ModuleElement(self.d, self.degree, self.field,
                             {f: self.field.mul(c, v) for f, v in self.terms.items()})

    def sub(self, other: "ModuleElement") -> "ModuleElement":
        return self.add(other.scale(self.field.neg(self.field.one)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleElement)
            and (self.d, self.degree) == (other.d, other.degree)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.d, self.degree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        parts = [f"{self.field.format(c)}*({f.f_dprime.to_lists()})"
                 for f, c in sorted(self.terms.items(), key=lambda t: t[0].order_key)]
        return " + ".join(parts) if parts else "0"


def act(phi: OvicMorphism, x: ModuleElement) -> ModuleElement:
    """Post-composition action, extended linearly: each term f goes to
    ``compose_vic(phi, f)``, so phi and f must be over one ring
    (``RankMismatch`` otherwise).  ``act`` enumerates nothing."""
    if phi.d != x.degree:
        raise DegreeMismatch(f"morphism {phi.d}->{phi.n} cannot act on degree {x.degree}")
    field = x.field
    terms: dict = {}
    for f, c in x.terms.items():
        g = compose_vic(phi, f)
        terms[g] = field.add(terms.get(g, field.zero), c)
    return ModuleElement(x.d, phi.n, field, terms)


def init_term(x: ModuleElement) -> tuple:
    """(coefficient, order-largest morphism) of a nonzero element."""
    if x.is_zero:
        raise ZeroElement("zero element has no initial term")
    lead = max(x.terms, key=lambda f: f.order_key)
    return x.terms[lead], lead


# ---------------------------------------------------------------------------
# stratum ranks, echelon bases and spans
# ---------------------------------------------------------------------------

class StratumRanks:
    """The rank view of a stratum: ``members`` is the list ``enumerate_ovic``
    returned, so ``members[i]`` has rank i.  The list is in strict total
    order, so ranks compare as their members do.  ``records`` indexes the
    ranks by entry tuples, f''.entries -> {f'.entries -> rank}, one inner
    dict per record (the run of members sharing one f'')."""

    __slots__ = ("members", "records")

    def __init__(self, members: list):
        self.members = members
        self.records = records = {}
        for i, f in enumerate(members):
            records.setdefault(f.f_dprime.entries, {})[f.f_prime.entries] = i

    def rank(self, f: VicMorphism) -> Optional[int]:
        """The rank of ``f``, or None when it is no member: entry tuples
        find a member only of the same ring (by identity) and type."""
        if not self.members:
            return None
        head = self.members[0]
        if f.ring is not head.ring or (f.d, f.n) != (head.d, head.n):
            return None
        record = self.records.get(f.f_dprime.entries)
        return None if record is None else record.get(f.f_prime.entries)


class _RowProducts(dict):
    """v f' for row vectors v of R^k, each multiplied out on first use."""

    __slots__ = ("ring", "f_prime", "k", "d")

    def __init__(self, f: OvicMorphism):
        super().__init__()
        self.ring, self.f_prime, self.k, self.d = f.ring, f.f_prime.entries, f.n, f.d

    def __missing__(self, v: tuple) -> tuple:
        out = self[v] = mul_entries(self.ring, v, self.f_prime, 1, self.k, self.d)
        return out


def _composite_column(target: StratumRanks, homs: list, f: OvicMorphism, n: int
                      ) -> list[int]:
    """The rank in ``target`` of phi o f for every phi in ``homs`` (OVIC(k,
    n), k = f.n), in the order of ``homs``.

    The composite is (phi' f', f'' phi'').  Its f'' depends only on phi's
    record, so it is multiplied out once per record and looked up in
    ``target.records``.  Row j of phi' f' is (row j of phi') f', so the f'
    half is assembled from a table of v f' over the rows v of R^k met.  A
    composite missing from ``target`` is a bug: RuntimeError."""
    d, k = f.d, f.n
    ring, f_dprime = f.ring, f.f_dprime.entries
    records = target.records
    times_f = _RowProducts(f)
    flatten = itertools.chain.from_iterable
    column = []
    last = None
    try:
        for phi in homs:
            # the members of a record share one f'' object
            if phi.f_dprime is not last:
                last = phi.f_dprime
                record = records[mul_entries(ring, f_dprime, last.entries, d, k, n)]
            # the rows of phi' (none for k = 0, where f' and phi' f' are
            # empty), each times f'
            rows = zip(*[iter(phi.f_prime.entries)] * k)
            column.append(record[tuple(flatten(map(times_f.__getitem__, rows)))])
    except KeyError:
        raise RuntimeError(f"a composite of OVIC({k}, {n}) after OVIC({d}, {k}) "
                           f"is not in OVIC({d}, {n})") from None  # bug guard
    return column


def _stratum_ranks(emb: AWEmbedding, d: int, n: int, budget: int = 10 ** 6
                   ) -> StratumRanks:
    """The rank view of OVIC(d, n), built on first use and cached on ``emb``;
    the stratum's budget verdict holds as in ``enumerate_ovic``."""
    members = enumerate_ovic(emb, d, n, budget=budget)
    key = ("ranks", d, n)
    view = emb.enum_cache.get(key)
    if view is None:
        view = emb.enum_cache[key] = StratumRanks(members)
    return view


class EchelonBasis:
    """Fully reduced echelon basis of a subspace spanned by members of one
    stratum, kept in their ranks (``ranks``).

    Rows are keyed by their pivot, the largest rank they hold, and map ranks
    to plain ints in the form the field keeps them: monic residue vectors
    over F_p, primitive integer vectors with a positive pivot entry over Q
    (the true row is the vector over its pivot entry).  No row's tail
    contains another row's pivot, so the true rows are the canonical reduced
    basis of the span regardless of insertion order.  ``cols`` indexes the
    tails: it maps each rank to the pivots whose row holds it off the pivot,
    so adjoining a pivot clears it from exactly the rows listed under it.

    ``extend`` is the one insertion kernel: it takes tuples of ranks and
    one list of ints (``field.integral`` of the coefficients; over Q any
    nonzero multiple of a vector spans the same line), inserts one vector
    per tuple, and does all its work through the field's row operations
    (``clear``, ``normalise``), so no Fraction is built there.  ``insert``
    is ``extend`` with a single rank-keyed vector.  ``leading``,
    ``reduce`` and ``canonical_rows`` speak in members and field elements;
    ``field.entry`` reads a stored entry back.
    """

    def __init__(self, field, ranks: StratumRanks):
        self.field = field
        self.ranks = ranks
        self.rows: dict[int, dict] = {}
        self.cols: dict[int, set] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def leading(self) -> tuple[OvicMorphism, ...]:
        members = self.ranks.members
        return tuple(members[r] for r in sorted(self.rows))

    def reduce(self, terms: dict) -> tuple[dict, list]:
        """Remainder of the member-keyed ``terms`` against the basis plus the
        certificate [(pivot, coefficient), ...] that was subtracted, pivots
        descending.  Rows are fully reduced, so subtracting one never touches
        another pivot: the certificate holds the query's own coefficient at
        each pivot.  A term with no rank in the stratum (another ring or type
        included, see ``StratumRanks.rank``) is in no row, so it stays in
        the remainder."""
        field, rows = self.field, self.rows
        rank, members = self.ranks.rank, self.ranks.members
        vec, rem = {}, {}
        for f, c in terms.items():
            if c:
                r = rank(f)
                if r is None:
                    rem[f] = c
                else:
                    vec[r] = c
        cert = []
        for m in sorted(vec.keys() & rows.keys(), reverse=True):
            c = vec[m]
            cert.append((members[m], c))
            row = rows[m]
            pivot_entry = row[m]
            for g, x in row.items():
                nv = field.sub(vec.get(g, field.zero), field.mul(c, field.entry(x, pivot_entry)))
                if nv:
                    vec[g] = nv
                else:
                    del vec[g]
        rem.update((members[r], c) for r, c in vec.items())
        return rem, cert

    def insert(self, terms: dict) -> bool:
        """Adjoin the rank-keyed ints ``terms`` (``extend`` with one key)."""
        v = {r: c for r, c in terms.items() if c}
        return self.extend([tuple(v)], tuple(v.values())) == 1

    def extend(self, keys, coeffs: Sequence[int]) -> int:
        """Insert sum_i coeffs[i] e_key[i] for each tuple of distinct ranks
        ``key`` in ``keys``, skipping a key seen before in this call, and
        return how many rows were adjoined.  Each vector is reduced against
        the basis; a surviving remainder is adjoined and its pivot cleared
        from the rows that hold it."""
        rows, cols = self.rows, self.cols
        clear, normalise = self.field.clear, self.field.normalise
        cols_get = cols.get
        adjoined = 0
        for key in dict.fromkeys(keys):
            v = dict(zip(key, coeffs))
            # rows are fully reduced, so clearing one pivot brings in no other
            for m in key:
                if m in rows:
                    clear(v, m, rows[m])
            if not v:
                continue
            lead = max(v)
            normalise(v, lead)
            for pivot in cols.pop(lead, ()):
                row = rows[pivot]
                clear(row, lead, v)
                for g in v:
                    holders = cols_get(g)
                    if g in row:
                        if holders is None:
                            cols[g] = {pivot}
                        else:
                            holders.add(pivot)
                    elif holders is not None:
                        holders.discard(pivot)
                        if not holders:
                            del cols[g]
            for g in v:
                if g != lead:
                    holders = cols_get(g)
                    if holders is None:
                        cols[g] = {lead}
                    else:
                        holders.add(lead)
            rows[lead] = v
            adjoined += 1
        return adjoined

    def canonical_rows(self) -> dict:
        """The true rows, member-keyed, with pivot coefficient one."""
        field, members = self.field, self.ranks.members
        return {members[lead]: {members[g]: field.entry(x, row[lead]) for g, x in row.items()}
                for lead, row in self.rows.items()}


@dataclass
class SubmoduleState:
    """Echelonised spans of a generator set, degree by degree up to a horizon."""

    d: int
    field: object
    emb: AWEmbedding
    generators: tuple
    horizon: int
    bases: dict = dataclass_field(default_factory=dict)

    def dims(self) -> dict[int, int]:
        return {n: self.bases[n].dim for n in sorted(self.bases)}


def _check_field(x: ModuleElement, field) -> None:
    if x.field.name != field.name:
        raise FieldMismatch(f"element over {x.field.name} used with a span over {field.name}")


def span_to_degree(gens: Sequence[ModuleElement], horizon: int,
                   emb: AWEmbedding, field, d: Optional[int] = None,
                   budget: int = 10 ** 6) -> SubmoduleState:
    """Smallest submodule containing the generators, truncated at ``horizon``.

    Because the action is functorial, single applications of morphisms from
    each generator degree span everything: M_n is generated by phi o g over
    generators g and morphisms phi into degree n.

    The work is in ranks: each generator's terms are ranked once in
    OVIC(d, its degree) and its coefficients scaled to ints once
    (``field.integral``).  Each term f of degree k has one composite column
    per n, memoised on ``emb`` under (d, k, n) by the rank of f: the rank of
    phi o f for every phi in OVIC(k, n), in phi order
    (``_composite_column``).  Post-composition is injective, so an image has
    one term per term of g, and its tuple of composite ranks, a row across
    the columns of g's terms, fixes it: all of g's tuples in degree n go
    to one ``EchelonBasis.extend`` call with g's ints, which skips a tuple
    it has already seen.  Every generator must be over ``field`` (by name),
    else FieldMismatch is raised.

    ``budget`` bounds each stratum's enumeration and the morphisms
    enumerated in total: the target OVIC(d, n) for every n <= horizon, which
    is always enumerated, plus OVIC(k, n) once per generator of degree
    k <= n.  BudgetExceeded is raised past it.
    """
    gens = tuple(gens)
    for g in gens:
        _check_field(g, field)
    if d is None:
        if not gens:
            raise DegreeMismatch("need generators or an explicit source rank")
        d = gens[0].d
    if any(g.d != d for g in gens):
        raise DegreeMismatch("generators disagree on source rank")
    enumerated = 0

    def count(stratum: list) -> None:
        nonlocal enumerated
        enumerated += len(stratum)
        if enumerated > budget:
            raise BudgetExceeded(f"enumerated {enumerated} morphisms, budget {budget}")

    state = SubmoduleState(d, field, emb, gens, horizon)
    # per generator, from its own degree on: (its stratum's members, its
    # terms' ranks, their coefficients as ints)
    ranked = [None] * len(gens)
    for n in range(horizon + 1):
        target = _stratum_ranks(emb, d, n, budget)
        count(target.members)
        for i, g in enumerate(gens):
            if g.degree == n and not g.is_zero:
                ranks = list(map(target.rank, g.terms))
                if None in ranks:
                    raise InvalidMorphism(f"a generator term is not in OVIC({d}, {n}) "
                                          "of this embedding")
                coeffs = field.integral(list(g.terms.values()))
                ranked[i] = target.members, ranks, coeffs
        basis = EchelonBasis(field, target)
        for g, generator in zip(gens, ranked):
            if generator is None:
                continue
            source, ranks, coeffs = generator
            k = g.degree
            homs = enumerate_ovic(emb, k, n, budget=budget)
            count(homs)
            memo = emb.enum_cache.setdefault(("composite-columns", d, k, n), {})
            columns = []
            for r in ranks:
                column = memo.get(r)
                if column is None:
                    column = memo[r] = _composite_column(target, homs, source[r], n)
                columns.append(column)
            # each tuple is one image's composite ranks, which fix the image:
            # the coefficients are the generator's
            basis.extend(zip(*columns), coeffs)
        state.bases[n] = basis
    return state


def initial_module_to_degree(state: SubmoduleState, horizon: int) -> dict:
    """Per degree, the sorted leading morphisms of the echelon basis; over a
    field these monic leading terms describe the initial module."""
    if horizon > state.horizon:
        raise HorizonExceeded(f"asked {horizon}, computed {state.horizon}")
    return {n: state.bases[n].leading() for n in range(horizon + 1)}


def membership(state: SubmoduleState, x: ModuleElement) -> tuple[bool, list]:
    """Reduce against the echelon basis at x's degree; the certificate lists
    the (pivot, coefficient) reductions applied.  x must be over the
    state's field (by name), else FieldMismatch is raised, and its terms
    over the state's ring (by identity), else InvalidMorphism is raised."""
    _check_field(x, state.field)
    ring = state.emb.ring
    if any(f.ring is not ring for f in x.terms):
        raise InvalidMorphism("an element term is over another ring than the span's")
    if x.degree > state.horizon:
        raise HorizonExceeded(f"degree {x.degree} beyond horizon {state.horizon}")
    rem, cert = state.bases[x.degree].reduce(x.terms)
    return not rem, cert


def check_endo_generation(emb: AWEmbedding, d: int, horizon: int,
                          budget: int = 10 ** 6) -> dict:
    """Factor every split pair d -> n (n <= horizon) through a column-adapted
    one; each success witnesses that the pair lies in the span of the
    degree-d endomorphisms under the ordered action."""
    per_degree = {}
    for n in range(d, horizon + 1):
        count = 0
        for f in enumerate_vic(emb, d, n, budget=budget):
            f1, f2 = factor_vic(f, emb)
            if f1.d != d or f1.n != d:
                raise CounterexampleFound(f"factor has wrong endomorphism rank at {f}")
            if not is_column_adapted(f2.f_dprime, emb):
                raise CounterexampleFound(f"ordered factor not column-adapted at {f}")
            if compose_vic(f2, f1) != f:
                raise CounterexampleFound(f"factorisation does not recompose at {f}")
            count += 1
        per_degree[n] = count
    return {"d": d, "per_degree": per_degree, "counterexamples": 0}


def _gl_order(emb: AWEmbedding, n: int) -> int:
    """|GL_n(R)| = |J|^(n^2) * prod_k |GL_{n m_k}(F_{q_k})|: reduction
    GL_n(R) -> GL_n(R/J) is onto with kernel I + M_n(J), and
    R/J = prod_k M_{m_k}(F_{q_k})."""
    order = len(emb.qdata.ideal) ** (n * n)
    for m, corner in zip(emb.mu, emb.corner_fields):
        q, size = corner.order, n * m
        for i in range(size):
            order *= q ** size - q ** i
    return order


def closed_form_counts(emb: AWEmbedding, d: int, n: int) -> tuple[int, int]:
    """(|OVIC(d, n)|, |VIC(d, n)|) without enumerating, from
    Hom_VIC(d, n) = GL_n / GL_{n-d} and VIC = OVIC o GL_d with free GL_d
    action."""
    _check_ranks(d, n)
    if n < d:
        return 0, 0
    vic = _gl_order(emb, n) // _gl_order(emb, n - d)
    return vic // _gl_order(emb, d), vic


def count_identity_report(emb: AWEmbedding, d: int, n: int,
                          budget: int = 10 ** 6) -> dict:
    """|Hom_VIC(d,n)| against |GL_d| * |Hom_OVIC(d,n)|, as recorded data.

    ``enumerate_vic`` builds VIC(d, n) as OVIC(d, n) o GL_d, so that
    identity holds by construction; ``matches`` also requires both
    enumerated counts to equal ``closed_form_counts``, which owes nothing
    to either enumerator."""
    vic = len(enumerate_vic(emb, d, n, budget=budget))
    ovic = len(enumerate_ovic(emb, d, n, budget=budget))
    gl = len(enumerate_vic(emb, d, d, budget=budget))
    return {
        "d": d,
        "n": n,
        "vic": vic,
        "ovic": ovic,
        "gl": gl,
        "gl_times_ovic": gl * ovic,
        "matches": vic == gl * ovic and (ovic, vic) == closed_form_counts(emb, d, n),
    }
