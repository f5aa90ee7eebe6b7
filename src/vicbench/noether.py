"""Degree-truncated engine over representable modules.

P(d) in degree n is the free module on Hom(R^d, R^n); a submodule is grown
from generators by applying every morphism into each degree up to a horizon,
and stored as fully reduced echelon bases with pivots on the order-largest
basis morphism.  Coefficients are exact: prime fields or rationals.  A
``ModuleElement`` reduces each coefficient into its field, and the engine
refuses an element over another field than the span's (``FieldMismatch``).

The engine works on ranks.  ``enumerate_ovic`` returns each stratum OVIC(d, n)
as a sequence in strict total order, so a member's index, its rank,
compares as the member does.  A member is its column-adapted f'' and a
splitting f', fixed by f'' and the free rows of Phi(f'), which range
independently row by row of f' (the free-row normal form of Putman-Sam,
arXiv:1408.3694, for commutative R).  With psi the canonical splitting
and P = I - psi f'', the splittings are f' = psi + P Y, row i of Y in
V_i = ((1 - E_i) R)^d for E_i the idempotents at the dependent positions
of row i, and (1 - E_i) f'_i = Y_i.  So within its f'' a member's rank is
a mixed-radix number, one digit per row of f': the ordinal of Y_i in V_i
sorted by free rows.  ``_splittings`` generates the members of each f''
in that order, so the packed store is in rank order, and ``OvicStratum``
keeps a digit table per f'', read off (1 - E_i) and checked against the
store when built, which only ranks: a member's order key comes from Phi
alone, when first read.  Each stratum is one cached ``OvicStratum`` per
(d, n), the object that ``enumerate_ovic`` returns and every other reader
takes.  ``span_to_degree`` turns each generator into ranks, and its
coefficients into ints, once.  Per source term f of OVIC(d, k) it keeps
one composite column on the embedding: the rank of phi o f for every phi
in OVIC(k, n), in rank order, read off that stratum's records and packed
columns record by record, one f'' product and one digit sum by C-level
maps per record (``_composite_ranks``), with no member built.
A row across a generator's columns is an image's ranks; the engine hands
all of a generator's columns in one degree, with its coefficients, to one
``extend`` call of the degree's echelon basis, which reduces each image
straight into the basis.  Over F_p and Q that basis is ``EchelonBasis``:
it skips an image it has already seen in the call and keeps rows, column
index and pivots as ints, with coefficients as ints too: residues with
pivot entry 1 over F_p, primitive integer vectors with a positive pivot
entry over Q.  The field classes supply the row operations on them, so
inserting builds no Fraction.  Over F2 every stored coefficient is 1, so
``F2EchelonBasis`` keeps each row as an int bitset of ranks and reduces
every image by XOR in one C-level chain, and Python runs only for an image
that adds a row.  Its table of reduced unit vectors is dense, about N^2 / 15
bytes for a target of N ranks, so a degree uses it only while that is at
most ``F2_RED_BYTES`` (128 MiB, N up to 44,869), and ``EchelonBasis`` above.
Morphisms and field elements come back only at the bases' public methods,
which index the target stratum, building just the records they reach.
The target strata OVIC(d, n) and the source strata OVIC(k, n), each with
the verdict ``enumerate_ovic`` gives it, count against the span's budget.

``act`` composes morphisms outside the engine, each term by ``compose_vic``;
it shares no state with enumeration.

Leads move only along completions.  Post-composition does not keep the
total order, and Hom(1, -) admits no order compatible with it at all (a
2-cycle phi1 o f = phi2 o g, phi1 o g = phi2 o f with f != g, see
``ordering``), so init(phi o x) need not be phi o init(x), and one degree's
leads are not the images of the last degree's leads.  The engine therefore
reduces every image in full and reads the leads off the echelon basis;
only the completion of an insertion move on f keeps everything below f
below.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from functools import partial, reduce
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, eq, getitem, index, itemgetter, xor
from typing import Optional

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
from .records import Record
from .rings import RMatrix, _additive_generators, mul_entries, newton_inverse
from .wedderburn import AWEmbedding

MAX_PRIME = 97
# most bytes the F2 kernel's dense ``red`` may take (``span_to_degree``)
F2_RED_BYTES = 128 * 2 ** 20


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
# generated rather than filtered: the f'' of OVIC(d, n) one column per
# level, each prefix extended by the candidate columns listed once for its
# block ranks, the splittings of each f'' as psi + P Y in rank order, and
# GL_d lifted through the fibres of R -> R/J from the closure of
# transvections and diagonal units over R/J, each g^-1 lifted from its
# image's inverse when its group is built.  One cached object per stratum, the
# ``OvicStratum`` of ``_splittings`` under ("ovic", d, n), owns the packed
# store: a record per f'', checked once, the entry columns of f' over all
# members, and the search nodes the build took; the degenerate strata
# d = 0 and n < d take no search.  GL_d is one entry too, the pairs over
# R/J and its entry columns under ("gl", d).  A stratum d -> n is a read-only
# sequence (``_Stratum``) whose groups are runs of consecutive members: an
# OVIC record, its slice of the columns, in rank order, whose digits rank
# but give no order key (``OvicStratum``, every d and n), or a VIC group,
# one record of the cached OVIC(d, n) and one g, whose f'' = g f2'' the
# table takes for all of GL_d at once, on GL_d's entry columns, and whose
# slice, psi + K for K in ker(f2'')^d, is moved to psi g^-1 + K, one table
# per entry, and sorted only when it is read (``VicStratum``,
# 1 <= d <= n).  A group is built with one batch constructor call per
# class when it is first read.  OVIC strata keep the records they build,
# since callers walk them again; a VIC stratum is built per call, and a
# walk over it drops each group once past it.
# Members hold only rings, embeddings, tuples and ints, so reference
# counting frees whatever is dropped, and no build leaves work for the
# cyclic collector.


def _check_ranks(d: int, n: int) -> None:
    if d < 0 or n < 0:
        raise ValueError(f"negative rank in {d} -> {n}")


def _check_budget(work: int, budget: int, what: str) -> None:
    if work > budget:
        raise BudgetExceeded(
            f"{what} needs more than {budget} search nodes and morphisms"
        )


def _column_adapted_dprimes(emb: AWEmbedding, d: int, n: int, budget: int
                            ) -> tuple[list, int]:
    """Every column-adapted d x n matrix f'' as (f'', s_sets, the columns of
    Phi(f'')), in lexicographic order of its columns, plus the search nodes
    visited: |R|^d, one per candidate column, for every kept prefix shorter
    than n, the empty one included.

    f'' is built one column at a time.  The pivots of block k of
    Phi_bar(f'') are chosen left to right, and each pivot column found so far
    is an exact block-identity indicator, so the echelon state of block k is
    just its rank r: a new block-k column is a pivot iff it is nonzero mod J
    at some block row >= r, and it must then be the indicator of row r.  So
    whether a candidate passes, the ranks after it and the offsets of its
    pivots within each block depend on the ranks before it alone, and the
    passing candidates are listed once per rank state; column c only places
    the pivots, at c mu_k + offset + 1.  A prefix is cut at the first pivot
    that is not an indicator, and as soon as the columns left cannot bring
    every block to rank mu_k * d.

    The prefixes are extended one column per level, and each level's nodes
    are checked against ``budget`` before it is expanded.  Level 0 is the
    empty prefix alone, so a budget below |R|^d is refused before the
    candidate table is built.
    """
    ring = emb.ring
    what, width = f"OVIC({d}, {n})", ring.size ** d
    _check_budget(width, budget, what)
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

    def passing(ranks: tuple) -> list:
        """(candidate, ranks after it, its pivot offsets per block) for each
        candidate whose pivots are indicators when the blocks have ``ranks``."""
        out = []
        for idx, entries in enumerate(table):
            after, offsets = list(ranks), [() for _ in range(q)]
            for k, _, last, exact, r in entries:
                if last < after[k]:
                    continue
                if exact != after[k]:
                    break
                after[k] += 1
                offsets[k] += (r,)
            else:
                out.append((idx, tuple(after), offsets))
        return out

    need = [m * d for m in mus]
    successors = {}
    nodes, kept = width, [((), (0,) * q, ((),) * q)]
    for c in range(n):
        if c:
            nodes += width * len(kept)
            _check_budget(nodes, budget, what)
        left, grown = n - c - 1, []
        for cols, ranks, pivots in kept:
            if ranks not in successors:
                successors[ranks] = passing(ranks)
            for idx, after, offsets in successors[ranks]:
                if all(a + m * left >= t for a, m, t in zip(after, mus, need)):
                    grown.append((cols + (idx,), after, tuple(
                        p + tuple(c * m + r + 1 for r in rs)
                        for p, m, rs in zip(pivots, mus, offsets))))
        kept = grown
    out = []
    for cols, _, pivots in kept:
        f_dprime = RMatrix(ring, d, n, [vectors[i][rho] for rho in range(d) for i in cols])
        out.append((f_dprime, pivots,
                    tuple(table[i][s][1] for i in cols for s in range(mu))))
    return out, nodes


def _splittings(emb: AWEmbedding, d: int, n: int, budget: int) -> OvicStratum:
    """OVIC(d, n) as one packed store: the ``OvicStratum`` over it, which
    carries the search nodes the build took (``nodes``), cached on ``emb``
    under ("ovic", d, n).  Per column-adapted f'' a record (f'', s_sets,
    canonical splitting psi, count, offset), and the n d entry columns
    (``_packing``) of its splittings, record after record, so a record's
    members are the slices [offset, offset + count).  The records are
    sorted by the order keys' prefixes (n, s_sets, Phi(f'') columns),
    distinct as Phi is injective.

    Phi(psi) is zero on the free rows, so with P = I - psi f'' the
    splittings are f' = psi + P Y, row i of Y running over V_i
    (``_row_spaces``), and (1 - E_i) f'_i = Y_i fixes the free rows of
    row i.  Each record is stored in rank order: Y in product order over
    V_0 x .. x V_{n-1}, row 0 most significant, so entry (r, c) is an
    outer sum built from the last row up, |V_i| translated copies of the
    rows below per row i, a plain repeat where P[r, i] is zero.  A count
    other than |R|^(d (n - d)), or a V_i with a repeated value, is a bug:
    RuntimeError, before the record's columns are built.  The nodes plus
    the members so far bound the work of either stratum from below, so
    BudgetExceeded is raised as soon as they pass ``budget``.  Each record
    passes ``_check_group`` as it is made, so both builds take its
    members' parts as they are.  With no search, d = 0 is one record (the
    0 x n f'') of one member and no columns, and n < d no record and n d
    empty columns."""
    key = ("ovic", d, n)
    if key not in emb.enum_cache:
        ring = emb.ring
        pack, _, through = _packing(ring)
        plus, mul, zero = _translations(emb), ring._mul, ring.zero
        if d == 0:
            found, nodes = [(RMatrix(ring, 0, n, ()), ((),) * emb.q,
                             ((),) * (emb.mu_total * n))], 0
        elif n < d:
            found, nodes = [], 0
        else:
            found, nodes = _column_adapted_dprimes(emb, d, n, budget)
            # prefix order: n is fixed, so by s_sets, then Phi(f'') columns
            found.sort(key=itemgetter(1, 2))
        records, parts = [], [[] for _ in range(n * d)]
        work, ident, by_pivots = nodes, RMatrix.identity(ring, n), {}
        for f_dprime, s_sets, _ in found:
            if s_sets not in by_pivots:  # psi and the V_i depend on s_sets alone
                spaces = [values for _, values in _row_spaces(emb, d, n, s_sets)]
                count = prod(map(len, spaces))
                if count != ring.size ** (d * (n - d)) or any(len(set(v)) < len(v)
                                                             for v in spaces):
                    raise RuntimeError(f"record {len(records)} of OVIC({d}, {n}) is not "
                                       "the product of its free rows")  # bug guard
                by_pivots[s_sets] = canonical_splitting(s_sets, emb, m=n, n=d), spaces, count
            psi, spaces, count = by_pivots[s_sets]
            offset = work - nodes  # the members so far
            work += count
            _check_budget(work, budget, f"OVIC({d}, {n})")
            _check_group(ring, d, n, f_dprime, psi.entries, spaces)
            p = ident.sub(psi.mul(f_dprime)).entries
            records.append((f_dprime, s_sets, psi, count, offset))
            for i, (part, a) in enumerate(zip(parts, psi.entries)):
                r, c = divmod(i, d)
                column = pack((a,))
                for x, values in zip(reversed(p[r * n:(r + 1) * n]), reversed(spaces)):
                    if x == zero:
                        column *= len(values)
                    elif len(column) == 1:  # one table for all of row i's shifts
                        column = through(pack([mul[x][y[c]] for y in values]), plus[column[0]])
                    else:
                        column = pack(b"".join([through(column, plus[mul[x][y[c]]])
                                                for y in values]))
                part.append(column)
        # join and drop one position's parts at a time, so the build peaks
        # near one store, not two
        columns = []
        while parts:
            columns.append(pack(b"".join(parts.pop(0))))
        emb.enum_cache[key] = OvicStratum(emb, d, n, records, columns, nodes)
    return emb.enum_cache[key]


def _row_spaces(emb: AWEmbedding, d: int, n: int, s_sets: tuple) -> list:
    """Per row i of an f' whose f'' has pivot sets ``s_sets``, (1 - E_i, V_i)
    from ``_free_values``, E_i the sum of the lifted idempotents at the
    dependent positions of band i (rows i mu .. i mu + mu - 1 of Phi(f'));
    cached on ``emb`` per (d, n, s_sets)."""
    key = ("row-spaces", d, n, s_sets)
    if key not in emb.enum_cache:
        mu, bands = emb.mu_total, [[] for _ in range(n)]
        for s in split_rows(emb, n, s_sets)[1]:
            bands[(s - 1) // mu].append((s - 1) % mu)
        emb.enum_cache[key] = [_free_values(emb, d, tuple(band)) for band in bands]
    return emb.enum_cache[key]


def _free_values(emb: AWEmbedding, d: int, dependent: tuple) -> tuple:
    """(1 - E, V) for a band whose positions ``dependent`` are dependent, E
    the sum of their lifted idempotents: V = ((1 - E) R)^d as d-tuples,
    sorted by their rows of Phi at the free positions, in order.  Those
    rows of Phi(x) equal those of Phi((1 - E) x), whose other rows are
    zero, and Phi is injective, so the order is strict.  Cached on ``emb``
    per (d, dependent)."""
    key = ("free-values", d, dependent)
    if key not in emb.enum_cache:
        ring, mu = emb.ring, emb.mu_total
        idempotents = [e for block in emb.idempotents for e in block]
        proj = ring.sub(ring.one, reduce(ring.add, (idempotents[p] for p in dependent),
                                         ring.zero))
        free = [p for p in range(mu) if p not in dependent]
        phis = [emb.phi(x) for x in ring.elements()]
        values = itertools.product(sorted(set(ring.mul_table[proj])), repeat=d)
        emb.enum_cache[key] = proj, sorted(values, key=lambda y: tuple(
            e for p in free for x in y for e in phis[x].row(p)))
    return emb.enum_cache[key]


def _packing(ring) -> tuple:
    """(pack, table, through) for columns of ``ring``'s elements: bytes and
    ``bytes.translate`` when |R| <= 256, ``array('H')`` otherwise
    (``rings.SIZE_CAP`` is 2^16).  ``pack`` packs ints, or reads the raw
    bytes of columns back; ``through(column, table(row))`` replaces each
    entry x by row[x]."""
    if ring.size <= 256:
        return bytes, lambda row: bytes(row).ljust(256, b"\0"), bytes.translate
    return partial(array, "H"), tuple, lambda col, t: array("H", map(t.__getitem__, col))


def _translations(emb: AWEmbedding) -> list:
    """Per element b of the ring, the table (``_packing``) of x -> x + b;
    built once per embedding and cached on it."""
    key = ("translations",)
    if key not in emb.enum_cache:
        table = _packing(emb.ring)[1]
        emb.enum_cache[key] = list(map(table, emb.ring.add_table))
    return emb.enum_cache[key]


def _column_product(emb: AWEmbedding, columns: list, b: tuple, rows: int, inner: int,
                    cols: int, total: int) -> list:
    """The rows x cols products a b for ``total`` matrices a at once, a
    given by its entry columns (``_packing``) and b an inner x cols entry
    tuple: entry (i, c) of every product as one lazy column, row-major.
    Column (i, t) is right-multiplied by b[t, c] through one table (R need
    not commute), taken as it is for a one and skipped for a zero, and the
    terms are summed through the addition table by ``map``, in C."""
    ring, (_, table, through) = emb.ring, _packing(emb.ring)
    add, mul, zero, one = ring._add, ring._mul, ring.zero, ring.one
    times = emb.enum_cache.setdefault(("right-products",), {})  # x -> x b by b
    for x in set(b) - times.keys():
        times[x] = table([row[x] for row in mul])
    out = []
    for i in range(rows):
        row = columns[i * inner:(i + 1) * inner]
        for c in range(cols):
            terms = [column if x == one else through(column, times[x])
                     for column, x in zip(row, b[c::cols]) if x != zero]
            acc = terms[0] if terms else itertools.repeat(zero, total)
            for term in terms[1:]:
                acc = map(getitem, map(add.__getitem__, acc), term)
            out.append(acc)
    return out


def _check_group(ring, d: int, n: int, f_dprime: RMatrix, base: tuple,
                 spaces: list) -> None:
    """What ``RMatrix`` and ``VicMorphism`` check for each member, checked
    once for the members (base + P Y, f''), row i of Y in ``spaces[i]``:
    f'' is d x n over ``ring``, base n * d ints, and ``spaces`` n lists of
    d-tuples."""
    if f_dprime.ring is not ring or (f_dprime.rows, f_dprime.cols) != (d, n):
        raise InvalidMorphism(f"f'' must be a {d}x{n} matrix over {ring.name}")
    if (len(base) != n * d or len(spaces) != n or any(set(map(len, v)) - {d} for v in spaces)
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


def _gl_closure(ring, d: int) -> list:
    """GL_d(``ring``) as (g, g^-1) entry-tuple pairs, I first: a
    breadth-first closure from I multiplies every element g by every
    generator s (``_gl_generators``) once, on the right.  g s adds column a
    of g times y to column b, and its inverse s^-1 g^-1 adds z times row b
    of g^-1 to row a."""
    add, mul = ring._add, ring._mul
    gens = _gl_generators(ring, d)
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
    return pairs


def _gl_products(emb: AWEmbedding, d: int) -> int:
    """|GL_d(R/J)| |generators of GL_d(R/J)|, the products of the closure
    that ``_general_linear`` runs over R/J, counted once per (ring, d) and
    cached on ``emb``."""
    key = ("gl-products", d)
    if key not in emb.enum_cache:
        bar = _gl_order(emb, d) // len(emb.qdata.ideal) ** (d * d)
        emb.enum_cache[key] = bar * len(_gl_generators(emb.qdata.quotient, d))
    return emb.enum_cache[key]


def _general_linear(emb: AWEmbedding, d: int, budget: int) -> tuple[list, list]:
    """GL_d(R), d >= 1, lifted from GL_d(R/J): the (gbar, gbar^-1) pairs
    of GL_d(R/J), and entry (i, t) of every g as one packed column each;
    cached on ``emb`` under ("gl", d).

    Reduction GL_d(R) -> GL_d(R/J) is onto with kernel I + M_d(J), so the
    g over one gbar are the matrices whose entry (i, t) runs over the fibre
    of gbar_it, |J|^(d^2) of them.  So the closure (``_gl_closure``) runs
    over R/J alone, |GL_d(R/J)| |generators| products (``_gl_products``).
    Those plus the |GL_d(R)| lifts are the work; past ``budget``
    BudgetExceeded is raised before any of it, and a cached GL_d gets the
    same verdict.  The lifts of each gbar, in closure order, come in
    product order over the fibres, entry (0, 0) most significant, so
    column (i, t) joins per gbar one table of fibre elements, each repeated
    and the whole tiled, with no product per g.  ``_gl_inverse`` lifts g^-1
    from gbar^-1.  A closure of other than |GL_d(R)| / |J|^(d^2) elements,
    or a lift count other than ``_gl_order``, is a bug."""
    _check_budget(_gl_products(emb, d) + _gl_order(emb, d), budget, f"GL_{d}")
    key = ("gl", d)
    if key not in emb.enum_cache:
        ring, qdata = emb.ring, emb.qdata
        order, size = _gl_order(emb, d), len(qdata.ideal)
        lifts = size ** (d * d)
        bar = _gl_closure(qdata.quotient, d)
        if len(bar) != order // lifts:
            raise RuntimeError(f"closure over R/J found {len(bar)} of |GL_{d}(R)| / "
                               f"|J|^{d * d} = {order // lifts}")  # bug guard
        pack = _packing(ring)[0]
        fibres = [[] for _ in range(qdata.quotient.size)]
        for x in ring.elements():
            fibres[qdata.projection[x]].append(x)
        columns = []
        for e in range(d * d):
            inner = size ** (d * d - 1 - e)  # the lifts one fibre element spans
            tables = [pack([x for x in fibre for _ in range(inner)]) * (lifts // inner // size)
                      for fibre in fibres]
            columns.append(pack(b"".join([tables[g[e]] for g, _ in bar])))
        if len(columns[0]) != order:
            raise RuntimeError(f"lifts found {len(columns[0])} of |GL_{d}| = {order}")  # bug guard
        emb.enum_cache[key] = bar, columns
    return emb.enum_cache[key]


def _gl_inverse(emb: AWEmbedding, d: int, gl: tuple, i: int) -> tuple[int, ...]:
    """g^-1 for element i of GL_d (``gl``, from ``_general_linear``): the
    section of gbar^-1 is an inverse of g modulo J, from which
    ``newton_inverse`` lifts it and checks it on both sides."""
    bar, columns = gl
    sec = emb.qdata.section
    seed = tuple([sec[x] for x in bar[i * len(bar) // len(columns[0])][1]])
    return newton_inverse(emb.ring, d, tuple([column[i] for column in columns]), seed,
                          emb.qdata.nilpotency)


def enumerate_ovic(emb: AWEmbedding, d: int, n: int,
                   budget: int = 10 ** 6) -> Sequence[OvicMorphism]:
    """All column-adapted morphisms d -> n as a read-only sequence, sorted
    by the total order: the one cached ``OvicStratum`` of ``_splittings``,
    so a repeated request, ``enumerate_vic`` and ``span_to_degree`` all
    read the same object.

    Each column-adapted f'' comes out of a column-by-column search, and
    carries the splittings psi + P Y, psi its canonical splitting and
    P = I - psi f'', generated in free-row order (``_splittings``).  Order
    keys are a per-f'' prefix (n, s_sets, Phi(f'') columns) followed by
    the free rows of Phi(f').  Phi is injective, so the stratum is in order
    when the f'' are taken in prefix order and the members of each in
    free-row order, their digit order (``OvicStratum``); each member
    computes its key from Phi when first read.
    A call builds only the packed store; a record's members are built when
    an index or a walk first reaches it.  Index i is rank i, and
    ``OvicStratum.rank`` reads it off the digits with no member built.
    ``budget`` bounds the search nodes plus the members,
    ``stratum.nodes + len(stratum)``; BudgetExceeded is raised past it, and
    a cached stratum gets the same verdict.  OVIC(0, n), one member, is
    work 1, and OVIC(d, n) for n < d, empty, work 0.
    """
    _check_ranks(d, n)
    stratum = _splittings(emb, d, n, budget)
    _check_budget(stratum.nodes + len(stratum), budget, f"OVIC({d}, {n})")
    return stratum


def enumerate_vic(emb: AWEmbedding, d: int, n: int,
                  budget: int = 10 ** 6) -> Sequence[VicMorphism]:
    """All split pairs d -> n as a read-only sequence, sorted by
    (f''.entries, f'.entries).

    Built as OVIC(d, n) o GL_d: f'' = g f2'' and f' = psi g^-1 + K over the
    column-adapted f2'' (canonical splitting psi), g in GL_d and K in
    ker(f2'')^d.  Each pair arises once, because its factorisation through
    the ordered subcategory is unique; so distinct (f2'', g) give distinct
    f'', and the stratum is in order when the (f2'', g) groups are taken in
    f'' order and the f' of each sorted.  A call builds only that group
    table (``VicStratum``) over the cached OVIC(d, n) of ``_splittings``,
    each record's f'' for all g at once from GL_d's entry columns
    (``_column_product``).  Its length comes from the table; a group's
    g^-1, psi g^-1 and members are made when an index or a walk first
    reaches it.  GL_d is lifted through the fibres of R -> R/J from a
    closure over R/J under right multiplication by transvections and
    diagonal units (``_general_linear``).  ``budget`` bounds the work: the
    search nodes of OVIC(d, n), the |GL_d(R/J)| |generators| products of
    the closure (``_gl_products``), and per g in GL_d one lift plus the
    members of OVIC(d, n); VIC(0, n) is work 1.  That work is counted
    from |GL_d| in closed form, so BudgetExceeded is raised past it before
    GL_d is built, and a cached GL_d gets the same verdict.  VIC(0, n), one
    member, and VIC(d, n) for n < d, empty, are tuples.
    """
    _check_ranks(d, n)
    ring = emb.ring
    if d == 0:
        _check_budget(1, budget, f"VIC(0, {n})")
        return (VicMorphism(RMatrix(ring, n, 0, []), RMatrix(ring, 0, n, []),
                            check=False),)
    if n < d:
        return ()
    ovic = _splittings(emb, d, n, budget)
    # the closure's products over R/J, then per g in GL_d one lift and its
    # splittings
    order = _gl_order(emb, d)
    work = ovic.nodes + _gl_products(emb, d) + order * (1 + len(ovic))
    _check_budget(work, budget, f"VIC({d}, {n})")
    gl = _general_linear(emb, d, budget)
    groups = []
    for r, rec in enumerate(ovic._records):
        f_dprimes = zip(*_column_product(emb, gl[1], rec[0].entries, d, d, n, order))
        groups.extend(zip(f_dprimes, itertools.repeat(r), range(order)))
    # each f'' comes from one (f2'', g), so sorting the groups by f'' (keyed:
    # twice as fast as on whole groups) and each group's f' sorts the stratum
    groups.sort(key=itemgetter(0))
    return VicStratum(ovic, gl, groups)


class _Stratum(Sequence):
    """A stratum d -> n as a read-only sequence over groups, runs of
    consecutive members that ``_group(k)`` builds afresh off the packed
    store of an ``OvicStratum``.

    ``_starts`` holds each group's first index and the length last, so
    ``len`` is O(1) and an index finds its group by bisection; a slice
    gives a list.  Indexing keeps each group it builds (``_kept``), so
    repeated indices into one group build it once.  A walk takes the
    groups in turn through ``_walked``: ``_kept`` in a stratum that is
    walked again, ``_group`` in one whose walk holds one group at a
    time."""

    __slots__ = ("_starts", "_built")

    def __init__(self, counts):
        self._starts = [0, *itertools.accumulate(counts)]
        self._built: dict = {}

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        starts = self._starts
        i = index(i)
        if i < 0:
            i += starts[-1]
        if not 0 <= i < starts[-1]:
            raise IndexError("stratum index out of range")
        k = bisect_right(starts, i) - 1
        # groups are never empty, so a miss alone calls ``_kept``
        return (self._built.get(k) or self._kept(k))[i - starts[k]]

    def __iter__(self):
        return itertools.chain.from_iterable(map(self._walked, range(len(self._starts) - 1)))

    def _kept(self, k: int) -> list:
        """The members of group k, built on first use and kept."""
        members = self._built.get(k)
        if members is None:
            members = self._built[k] = self._group(k)
        return members


class OvicStratum(_Stratum):
    """OVIC(d, n), for every d, n >= 0, as a read-only sequence over the
    records of its packed store, in prefix order, with the search ``nodes``
    that built it: the one object ``_splittings`` caches per (embedding, d,
    n), which ``enumerate_ovic`` returns and ``VicStratum`` and
    ``_composite_ranks`` read.  OVIC(0, n) is one record of one member and
    OVIC(d, n < d) none.  A walk keeps each record.

    Each record's slice of the store is in rank order, so ``_group``
    builds a record's members straight off it.  ``_table(k)`` maps row i
    of f' (an entry for d = 1, d entries else) to the ordinal of
    (1 - E_i) f'_i in V_i (``_row_spaces``) times the row's weight, row 0
    weighing most.  ``rank`` adds the digits to the start of the record its
    f'' finds in ``_index``, and ``_composite_ranks`` ranks composites; no
    table builds a member, no walk builds a table, and no member gets its
    order key from a table."""

    __slots__ = ("_emb", "_d", "_n", "_records", "_columns", "nodes", "_index", "_digits")

    def __init__(self, emb: AWEmbedding, d: int, n: int, records: list, columns: list,
                 nodes: int):
        super().__init__(rec[3] for rec in records)
        self._emb, self._d, self._n, self.nodes = emb, d, n, nodes
        self._records = records
        self._columns = columns
        self._index = {rec[0].entries: k for k, rec in enumerate(records)}
        self._digits: dict = {}

    def _table(self, k: int) -> list:
        """Record k's digit tables, built on first use over the values its
        slice of the store holds.  Digit sums of the slice other than 0, 1,
        .., count - 1 in order are a bug: RuntimeError."""
        tables = self._digits.get(k)
        if tables is None:
            emb, d, n = self._emb, self._d, self._n
            _, s_sets, _, count, offset = self._records[k]
            cols = [column[offset:offset + count] for column in self._columns]
            rows = [row if d == 1 else list(row) for row in _f_rows(cols, d, n, count)]
            tables, weight = [], 1
            for (proj, values), row in zip(_row_spaces(emb, d, n, s_sets)[::-1], rows[::-1]):
                times = emb.ring.mul_table[proj].__getitem__
                digit = dict(zip(values, range(0, len(values) * weight, weight)))
                tables.insert(0, {x: digit[(times(x),) if d == 1 else tuple(map(times, x))]
                                  for x in set(row)})
                weight *= len(values)
            if not all(map(eq, _digit_sums(tables, rows, count), range(count))):
                raise RuntimeError(f"record {k} of OVIC({d}, {n}) is not the product "
                                   "of its free rows")  # bug guard
            self._digits[k] = tables
        return tables

    def _group(self, k: int) -> list[OvicMorphism]:
        """The members of record k, built afresh off its slice of the store."""
        f_dprime, s_sets, _, count, offset = self._records[k]
        emb, d, n = self._emb, self._d, self._n
        cols = [column[offset:offset + count] for column in self._columns]
        return OvicMorphism._batch(RMatrix._batch(emb.ring, n, d, zip(*cols) if d else [()]),
                                   f_dprime, emb, s_sets)

    _walked = _Stratum._kept

    def rank(self, f: VicMorphism) -> Optional[int]:
        """The rank of ``f``, or None when it is no member: over another
        ring (by identity), of another type, or with an f'' no record has.
        f' is taken to split f'', as ``VicMorphism`` checks, so each of its
        rows has a digit; one that has none gives None too."""
        d, n = self._d, self._n
        k = self._index.get(f.f_dprime.entries)
        if f.ring is not self._emb.ring or (f.d, f.n) != (d, n) or k is None:
            return None
        e = f.f_prime.entries
        rows = e if d == 1 else [e[i * d:(i + 1) * d] for i in range(n)]
        try:
            return self._starts[k] + sum(map(getitem, self._table(k), rows))
        except KeyError:
            return None


def _f_rows(columns: list, d: int, n: int, count: int) -> list:
    """Per row i of f', its values over ``count`` members (an entry for
    d = 1, a tuple else), from the n d entry ``columns`` of f'."""
    if d == 1:
        return columns
    if d == 0:
        return [itertools.repeat((), count) for _ in range(n)]
    return [zip(*columns[i:i + d]) for i in range(0, n * d, d)]


def _digit_sums(tables: list, rows: list, count: int, start: int = 0):
    """``start`` plus each member's digits, row i (``_f_rows``) through
    ``tables[i]``, lazily in C; a value with no digit raises KeyError.
    Exactly ``count`` values are taken off each row iterator."""
    sums = itertools.repeat(start, count)
    for table, row in zip(tables, rows):
        sums = map(add, sums, map(table.__getitem__, row))
    return sums


class VicStratum(_Stratum):
    """VIC(d, n), d >= 1, as a read-only sequence over its (f2'', g) groups
    in f'' order (``enumerate_vic``).  A group is (f''.entries, the index
    of its record in ``ovic``, the cached OVIC(d, n), the index of g in
    GL_d).  Building it lifts g^-1 (``_gl_inverse``), computes psi g^-1 and
    moves the record's slice of the store, psi + K, to psi g^-1 + K through
    one translation table per entry; those f', sorted, are paired with f''.
    A walk keeps no group."""

    __slots__ = ("_ring", "_ovic", "_gl", "_groups", "_plus", "_through", "_f_primes",
                 "_f_dprimes")

    def __init__(self, ovic: OvicStratum, gl: tuple, groups: list):
        counts = [rec[3] for rec in ovic._records]
        super().__init__(map(counts.__getitem__, map(itemgetter(1), groups)))
        emb, d, n = ovic._emb, ovic._d, ovic._n
        ring = self._ring = emb.ring
        self._ovic, self._gl, self._groups = ovic, gl, groups
        self._plus = _translations(emb)
        self._through = _packing(ring)[2]
        self._f_primes = partial(RMatrix._batch, ring, n, d)
        self._f_dprimes = partial(RMatrix._batch, ring, d, n)

    def _group(self, k: int) -> list[VicMorphism]:
        """The members of group k, built afresh."""
        f_dprime, r, g = self._groups[k]
        ovic = self._ovic
        _, _, psi, count, offset = ovic._records[r]
        ring, plus, through = self._ring, self._plus, self._through
        add, neg, d, part = ring._add, ring._neg, psi.cols, slice(offset, offset + count)
        # psi g^-1, and per entry the table of x -> x + (psi g^-1 - psi)
        base = mul_entries(ring, psi.entries, _gl_inverse(ovic._emb, d, self._gl, g),
                           psi.rows, d, d)
        f_primes = sorted(zip(*[through(column[part], plus[add[b][neg[a]]])
                                for column, a, b in zip(ovic._columns, psi.entries, base)]))
        return VicMorphism._batch(self._f_primes(f_primes), self._f_dprimes((f_dprime,))[0])

    _walked = _group


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

def _composite_ranks(target: OvicStratum, source: OvicStratum, f: OvicMorphism) -> array:
    """The rank in ``target``, OVIC(d, n) with d = f.d, of phi o f for every
    phi in ``source``, OVIC(k, n) with k = f.n, in the order of the
    source's packed store, its records and entry columns, which is rank
    order: index j holds the composite of the phi of rank j.

    The composite is (phi' f', f'' phi'').  Its f' is multiplied out for
    all members at once from the columns of phi' (``_column_product``);
    per record its f'' is multiplied out once and found in the target's
    ``_index``, and the record's rows of f' are summed through that target
    record's digit tables (``_digit_sums``), by ``map`` in C.  A composite
    whose f'' or row the target has no entry for is a bug: RuntimeError."""
    d, k, n, ring, total = f.d, f.n, source._n, f.ring, len(source)
    f_dprime = f.f_dprime.entries
    # one iterator per row over all members (a column may be the store's bytes)
    products = _column_product(f.emb, source._columns, f.f_prime.entries, n, k, d, total)
    rows = list(map(iter, _f_rows(products, d, n, total)))
    ranks = array("I")
    try:
        for rec in source._records:
            r = target._index[mul_entries(ring, f_dprime, rec[0].entries, d, k, n)]
            ranks.extend(_digit_sums(target._table(r), rows, rec[3], target._starts[r]))
    except KeyError:
        raise RuntimeError(f"a composite of OVIC({k}, {n}) after OVIC({d}, {k}) "
                           f"is not in OVIC({d}, {n})") from None  # bug guard
    return ranks


class EchelonBasis:
    """Fully reduced echelon basis of a subspace spanned by members of one
    OVIC stratum (``stratum``, as ``enumerate_ovic`` returns it), kept in
    their ranks.

    Rows are keyed by their pivot, the largest rank they hold, and map ranks
    to plain ints in the form the field keeps them: monic residue vectors
    over F_p, primitive integer vectors with a positive pivot entry over Q
    (the true row is the vector over its pivot entry).  No row's tail
    contains another row's pivot, so the true rows are the canonical reduced
    basis of the span regardless of insertion order.  ``cols`` indexes the
    tails: it maps each rank to the pivots whose row holds it off the pivot,
    so adjoining a pivot clears it from exactly the rows listed under it.

    ``extend`` is the one insertion kernel: it takes one column of ranks per
    term and one list of ints (``field.integral`` of the coefficients; over
    Q any nonzero multiple of a vector spans the same line), inserts one
    vector per row across the columns, and does all its work through the
    field's row operations (``clear``, ``normalise``), so no Fraction is
    built there.  ``insert`` is ``extend`` with a single rank-keyed vector.
    ``leading``, ``reduce`` and ``canonical_rows`` speak in members and
    field elements: they rank a member with ``stratum.rank`` and index the
    stratum for a rank, and ``field.entry`` reads a stored entry back.
    Over F2 the span engine uses ``F2EchelonBasis`` instead, and this class
    is its oracle in the tests.
    """

    def __init__(self, field, stratum: Sequence[OvicMorphism]):
        self.field = field
        self.stratum = stratum
        self.rows: dict[int, dict] = {}
        self.cols: dict[int, set] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def leading(self) -> tuple[OvicMorphism, ...]:
        return tuple(map(self.stratum.__getitem__, sorted(self.rows)))

    def _ranked(self, terms: dict) -> tuple[dict, dict]:
        """The nonzero member-keyed ``terms`` split into those with a rank,
        rank-keyed, and those with none (another ring or type included, see
        ``OvicStratum.rank``), member-keyed."""
        rank = self.stratum.rank
        vec, rem = {}, {}
        for f, c in terms.items():
            if c:
                r = rank(f)
                if r is None:
                    rem[f] = c
                else:
                    vec[r] = c
        return vec, rem

    def reduce(self, terms: dict) -> tuple[dict, list]:
        """Remainder of the member-keyed ``terms`` against the basis plus the
        certificate [(pivot, coefficient), ...] that was subtracted, pivots
        descending.  Rows are fully reduced, so subtracting one never touches
        another pivot: the certificate holds the query's own coefficient at
        each pivot.  A term with no rank in the stratum is in no row, so it
        stays in the remainder."""
        field, rows, members = self.field, self.rows, self.stratum
        vec, rem = self._ranked(terms)
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
        """Adjoin the rank-keyed ints ``terms`` (``extend`` with one row of
        one-rank columns)."""
        v = {r: c for r, c in terms.items() if c}
        return self.extend([(r,) for r in v], list(v.values())) == 1

    def extend(self, columns: Sequence[Sequence[int]], coeffs: Sequence[int]) -> int:
        """Insert sum_i coeffs[i] e_columns[i][j] for each row j across the
        equally long ``columns`` of ranks, the ranks of a row distinct,
        skipping a row seen before in this call, and return how many rows
        were adjoined.  Each vector is reduced against the basis; a
        surviving remainder is adjoined and its pivot cleared from the rows
        that hold it."""
        rows, cols = self.rows, self.cols
        clear, normalise = self.field.clear, self.field.normalise
        cols_get = cols.get
        adjoined = 0
        for key in dict.fromkeys(zip(*columns)):
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
        field, members = self.field, self.stratum
        return {members[lead]: {members[g]: field.entry(x, row[lead]) for g, x in row.items()}
                for lead, row in self.rows.items()}


def _bits(x: int):
    """The positions of the set bits of ``x`` >= 0, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class F2EchelonBasis(EchelonBasis):
    """The fully reduced echelon basis over F2, rows as int bitsets.

    Over F2 every stored coefficient is 1, so a row is its set of ranks and
    subtracting a row is XOR, which Python runs in C on ints.  ``rows`` maps
    a pivot to its row's bitset, ``cols`` a rank to the bitset of the
    pivots whose row holds it off the pivot, and ``red`` lists, per rank r
    of the stratum, e_r reduced against the basis: 1 << r when r is no
    pivot, the row's tail when it is.  An image is then the XOR of ``red``
    over its ranks, so ``extend`` reduces every image in one lazy C chain
    of ``map`` and ``filter`` and runs Python only for an image that
    survives, a row it adjoins.  ``map`` reads ``red`` as it consumes an
    image, so each image meets the basis as it stands then, as in the dict
    kernel, and an image repeated in one call reduces to 0.  For a stratum
    of N ranks ``red`` holds about N^2 / 15 bytes (4.4 MiB at N = 8128, F2
    OVIC(1, 7)), and D rows about D N / 15; ``span_to_degree`` builds this
    kernel only while that fits ``F2_RED_BYTES``.  Coefficients are
    ignored: over F2 every nonzero one is 1."""

    def __init__(self, field, stratum: Sequence[OvicMorphism]):
        super().__init__(field, stratum)
        self.red = [1 << r for r in range(len(stratum))]

    def reduce(self, terms: dict) -> tuple[dict, list]:
        """As ``EchelonBasis.reduce``: the certificate is the query's own
        coefficient at each pivot it holds, descending, and the remainder
        is the query XOR those rows."""
        rows, members = self.rows, self.stratum
        vec, rem = self._ranked(terms)
        pivots = sorted(vec.keys() & rows.keys(), reverse=True)
        v = sum(1 << r for r in vec)
        for m in pivots:
            v ^= rows[m]
        rem.update((members[r], self.field.one) for r in _bits(v))
        return rem, [(members[m], vec[m]) for m in pivots]

    def extend(self, columns: Sequence[Sequence[int]], coeffs: Sequence[int]) -> int:
        """Insert e_columns[0][j] + e_columns[1][j] + .. for each row j across
        the equally long ``columns`` of ranks, the ranks of a row distinct,
        and return how many rows were adjoined.  A surviving image v with
        pivot ``lead`` is XORed into the rows that hold ``lead`` (and into
        their ``red`` entries), and toggles those rows and itself in the
        ``cols`` entry of each rank of its tail."""
        if not columns:
            return 0
        rows, cols, red = self.rows, self.cols, self.red
        look = red.__getitem__
        images = map(look, columns[0])
        for column in columns[1:]:
            images = map(xor, images, map(look, column))
        adjoined = 0
        for v in filter(None, images):
            lead = v.bit_length() - 1
            bit = 1 << lead
            holders = cols.pop(lead, 0)
            for pivot in _bits(holders):
                rows[pivot] ^= v
                red[pivot] ^= v
            toggle = holders | bit
            tail = v ^ bit
            for g in _bits(tail):
                cols[g] = cols.get(g, 0) ^ toggle
            rows[lead] = v
            red[lead] = tail
            adjoined += 1
        return adjoined

    def canonical_rows(self) -> dict:
        one, members = self.field.one, self.stratum
        return {members[lead]: {members[g]: one for g in _bits(row)}
                for lead, row in self.rows.items()}


class SubmoduleState(Record):
    """Echelonised spans of a generator set, degree by degree up to a horizon."""

    __slots__ = ("d", "field", "emb", "generators", "horizon", "bases")

    def __init__(self, d: int, field: object, emb: AWEmbedding, generators: tuple,
                 horizon: int, bases: Optional[dict] = None):
        self.d = d
        self.field = field
        self.emb = emb
        self.generators = generators
        self.horizon = horizon
        self.bases = {} if bases is None else bases

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
    per n, memoised on ``emb`` under (d, k, n) by the rank of f: an
    ``array('I')`` of the rank of phi o f for every phi in OVIC(k, n), in
    phi's rank order, the order of the source's store, ranked by the
    target's digit tables (``_composite_ranks``); no member is built.  The
    fully reduced basis depends only on the span, so that order leaves no
    trace in it.
    Post-composition is injective, so an image has one term per term of g,
    and its composite ranks, a row across the columns of g's terms, fix it:
    all of g's columns in degree n go to one ``extend`` call with g's ints.  The kernel is chosen per
    degree by the target's size N: over F2 it is ``F2EchelonBasis`` while
    its dense ``red``, about N^2 / 15 bytes, fits ``F2_RED_BYTES`` (128 MiB,
    N up to 44,869: F2 OVIC(1, 8) at N = 32,640 is on bitsets), and
    ``EchelonBasis`` above it (T2F2 OVIC(1, 4), N = 921,600, whose ``red``
    would take about 53 GiB) and over any other field.  Both kernels give
    the same basis, so the rule moves only time and memory.
    Every generator must be over ``field`` (by name), else FieldMismatch is
    raised.

    The target OVIC(d, n) and each source OVIC(k, n) are what
    ``enumerate_ovic`` returns, the one stratum cached per (d, n): the
    target ranks the generators' terms and the composites by its digit
    tables, and the bases build only the members their public methods
    return.  ``budget`` bounds each stratum's own work, search nodes plus
    members, through ``enumerate_ovic``'s verdict, and the morphisms
    counted in total, each stratum's ``len``: the target OVIC(d, n) for
    every n <= horizon, plus the source OVIC(k, n) once per generator of
    degree k <= n.  BudgetExceeded is raised past either.
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

    def count(members: int) -> None:
        nonlocal enumerated
        enumerated += members
        if enumerated > budget:
            raise BudgetExceeded(f"enumerated {enumerated} morphisms, budget {budget}")

    state = SubmoduleState(d, field, emb, gens, horizon)
    # per generator, from its own degree on: (its terms' ranks, their
    # coefficients as ints)
    ranked = [None] * len(gens)
    for n in range(horizon + 1):
        target = enumerate_ovic(emb, d, n, budget)
        size = len(target)
        count(size)
        for i, g in enumerate(gens):
            if g.degree == n and not g.is_zero:
                ranks = list(map(target.rank, g.terms))
                if None in ranks:
                    raise InvalidMorphism(f"a generator term is not in OVIC({d}, {n}) "
                                          "of this embedding")
                ranked[i] = ranks, field.integral(list(g.terms.values()))
        if field.name == "F2" and size * size // 15 <= F2_RED_BYTES:
            basis = F2EchelonBasis(field, target)
        else:
            basis = EchelonBasis(field, target)
        for g, generator in zip(gens, ranked):
            if generator is None:
                continue
            ranks, coeffs = generator
            k = g.degree
            # the source OVIC(k, n), with its own budget verdict; no member is built
            source = enumerate_ovic(emb, k, n, budget)
            count(len(source))
            memo = emb.enum_cache.setdefault(("composite-columns", d, k, n), {})
            columns = []
            for r, f in zip(ranks, g.terms):
                column = memo.get(r)
                if column is None:
                    column = memo[r] = _composite_ranks(target, source, f)
                columns.append(column)
            # a row across the columns is one image's composite ranks, which
            # fix the image: the coefficients are the generator's
            basis.extend(columns, coeffs)
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
    state's field (by name), else FieldMismatch is raised, its terms over
    the state's ring (by identity), else InvalidMorphism is raised, and of
    the state's source rank and a degree >= 0, else DegreeMismatch is
    raised, zero or not."""
    _check_field(x, state.field)
    ring = state.emb.ring
    if any(f.ring is not ring for f in x.terms):
        raise InvalidMorphism("an element term is over another ring than the span's")
    if x.d != state.d or x.degree < 0:
        raise DegreeMismatch(f"element of type {x.d}->{x.degree} tested against a span "
                             f"of source rank {state.d}")
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
    to either enumerator.  For d >= 1 the counts come from the records of
    OVIC(d, n) and the group tables of VIC(d, n) and VIC(d, d): no member
    is built."""
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
