"""Finite rings presented by explicit addition/multiplication tables.

Elements are integers ``0..size-1``; all structure (units, radical,
quotients, matrices) is derived from the two tables.  Tables are validated
at construction time in pure Python: the laws on three variables are checked
over an additive generating set, in O(log|R| * |R|^2) table lookups.

Index conventions: ring elements, matrix entry coordinates and vector
coordinates are 0-based throughout this module.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .errors import (
    BadShape,
    InvalidTables,
    NotSquare,
    SizeCapExceeded,
)

SIZE_CAP = 65536  # most elements a ring may have


def _as_table(table, size: int, what: str) -> tuple[tuple[int, ...], ...]:
    rows = tuple(tuple(int(v) for v in row) for row in table)
    if len(rows) != size or any(len(r) != size for r in rows):
        raise InvalidTables(f"{what}_shape", detail=f"expected {size}x{size}")
    return rows


class FiniteRing:
    """A unital ring on ``{0, .., size-1}`` with table-defined operations.

    Instances are immutable after construction and hash/compare by identity;
    use :meth:`same_tables` for structural comparison.
    """

    def __init__(
        self,
        name: str,
        size: int,
        zero: int,
        one: int,
        add,
        mul,
        labels: Optional[Sequence[str]] = None,
        validate: bool = True,
    ):
        if size <= 0:
            raise InvalidTables("size", detail="size must be positive")
        if size > SIZE_CAP:
            raise SizeCapExceeded(f"ring size {size} exceeds cap {SIZE_CAP}")
        self.name = name
        self.size = size
        self.zero = int(zero)
        self.one = int(one)
        self._add = _as_table(add, size, "add")
        self._mul = _as_table(mul, size, "mul")
        if labels is None:
            labels = tuple(str(i) for i in range(size))
        self.labels = tuple(str(s) for s in labels)
        if len(self.labels) != size:
            raise InvalidTables("labels_shape")
        if validate:
            _validate_tables(self)
        self._neg = tuple(self._add[a].index(self.zero) for a in range(size))
        self._unit_cache: Optional[tuple[Optional[int], ...]] = None
        # F_p data of the p-parts, built on first use when this is a quotient R/J
        self._fp_cache: Optional[tuple[_FpPart, ...]] = None
        # n -> row-major entries of the n x n identity (``identity_entries``)
        self._identities: dict[int, tuple[int, ...]] = {}
        # lazily built structure caches (radical / quotient / AW embedding)
        self._radical = None
        self._quotient = None
        self._aw = None

    # -- scalar operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def elements(self) -> range:
        return range(self.size)

    @property
    def add_table(self) -> tuple[tuple[int, ...], ...]:
        return self._add

    @property
    def mul_table(self) -> tuple[tuple[int, ...], ...]:
        return self._mul

    # -- units ------------------------------------------------------------

    def _units(self) -> tuple[Optional[int], ...]:
        """Per element: a two-sided inverse, or None."""
        if self._unit_cache is None:
            one, mul = self.one, self._mul
            self._unit_cache = tuple(
                next((y for y, v in enumerate(row) if v == one and mul[y][x] == one), None)
                for x, row in enumerate(mul)
            )
        return self._unit_cache

    def is_unit(self, x: int) -> bool:
        return self._units()[x] is not None

    def inv(self, x: int) -> Optional[int]:
        return self._units()[x]

    # -- presentation -----------------------------------------------------

    def label(self, x: int) -> str:
        return self.labels[x]

    def __repr__(self) -> str:
        return f"FiniteRing({self.name!r}, size={self.size})"

    def same_tables(self, other: "FiniteRing") -> bool:
        return (
            self.size == other.size
            and self.zero == other.zero
            and self.one == other.one
            and self._add == other._add
            and self._mul == other._mul
        )

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "zero": self.zero,
            "one": self.one,
            "add": [list(r) for r in self._add],
            "mul": [list(r) for r in self._mul],
            "labels": list(self.labels),
        }

    def content_hash(self) -> str:
        core = {
            "size": self.size,
            "zero": self.zero,
            "one": self.one,
            "add": [list(r) for r in self._add],
            "mul": [list(r) for r in self._mul],
        }
        blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_payload(cls, payload: dict) -> "FiniteRing":
        return cls(
            name=payload.get("name", "ring"),
            size=payload["size"],
            zero=payload["zero"],
            one=payload["one"],
            add=payload["add"],
            mul=payload["mul"],
            labels=payload.get("labels"),
        )


def _first_mismatch(got: Sequence[int], want: Sequence[int]) -> int:
    return next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)


def _additive_generators(add, zero: int) -> list[int]:
    """Greedy A such that every element is reached from ``zero`` by steps
    c -> c + g, g in A: the least element not yet reached joins A.

    Once + is a group each new generator at least doubles the reached
    subgroup, so |A| <= log2 |R|.
    """
    gens: list[int] = []
    reached = {zero}
    for x in range(len(add)):
        if x in reached:
            continue
        gens.append(x)
        frontier = list(reached)
        while frontier:
            c = frontier.pop()
            for g in gens:
                s = add[c][g]
                if s not in reached:
                    reached.add(s)
                    frontier.append(s)
    return gens


def _validate_tables(ring: FiniteRing) -> None:
    """Check the ring axioms; raise ``InvalidTables`` naming a violated law.

    The range, identity, commutativity and inverse checks scan the tables.
    The laws on three variables are checked over a greedy additive
    generating set A (see ``_additive_generators``), k = |A| <= log2 |R|:

    - additive associativity by Light's test (Clifford and Preston, *The
      Algebraic Theory of Semigroups* I): the a with (x + a) + y =
      x + (a + y) for all x, y are closed under +, so checking a in A
      suffices;
    - each distributive law by checking that x -> a*x and x -> x*a are
      additive on A, i.e. a*(x + g) = a*x + a*g and (x + g)*a = x*a + g*a for
      every a, x and g in A; in an abelian group this extends to all sums;
    - multiplicative associativity on A^3 only: once both distributive laws
      hold, the associator (ab)c - a(bc) is additive in each argument.

    That is O(k * |R|^2) lookups instead of |R|^3.  Every witness violates
    the law it names, but a table breaking several laws may be reported
    under a different one than an |R|^3 scan in another order would give
    (say ``left_distributive`` where that scan says ``mul_associative``).
    """
    n = ring.size
    add, mul = ring._add, ring._mul
    for what, tab in (("add", add), ("mul", mul)):
        for i, row in enumerate(tab):
            if min(row) < 0 or max(row) >= n:
                j = next(j for j, v in enumerate(row) if not 0 <= v < n)
                raise InvalidTables(f"{what}_entry_range", (i, j))
    zero, one = ring.zero, ring.one
    if not (0 <= zero < n and 0 <= one < n):
        raise InvalidTables("identity_index_range")
    if n > 1 and zero == one:
        raise InvalidTables("zero_equals_one")

    idx = tuple(range(n))
    if add[zero] != idx:
        raise InvalidTables("add_identity", (_first_mismatch(add[zero], idx),))
    add_t = tuple(zip(*add))
    if add != add_t:
        i = next(i for i in idx if add[i] != add_t[i])
        raise InvalidTables("add_commutative", (i, _first_mismatch(add[i], add_t[i])))
    for i, row in enumerate(add):
        if zero not in row:
            raise InvalidTables("add_inverse", (i,))
    if mul[one] != idx:
        raise InvalidTables("mul_left_identity", (_first_mismatch(mul[one], idx),))
    mul_t = tuple(zip(*mul))
    if mul_t[one] != idx:
        raise InvalidTables("mul_right_identity", (_first_mismatch(mul_t[one], idx),))

    # + is commutative from here on, so add[g] is also the column x -> x + g
    gens = _additive_generators(add, zero)
    for a in gens:
        plus_a = itemgetter(*add[a])
        for x, row in enumerate(add):
            lhs, rhs = add[row[a]], plus_a(row)  # (x + a) + y, x + (a + y)
            if lhs != rhs:
                raise InvalidTables("add_associative", (x, a, _first_mismatch(lhs, rhs)))
    for g in gens:
        plus_g = itemgetter(*add[g])
        for a in idx:
            row, col = mul[a], mul_t[a]
            lhs, rhs = plus_g(row), itemgetter(*row)(add[row[g]])
            if lhs != rhs:  # a*(x + g) against a*x + a*g
                raise InvalidTables("left_distributive", (a, _first_mismatch(lhs, rhs), g))
            lhs, rhs = plus_g(col), itemgetter(*col)(add[col[g]])
            if lhs != rhs:  # (x + g)*a against x*a + g*a
                raise InvalidTables("right_distributive", (_first_mismatch(lhs, rhs), g, a))
    for a, b, c in itertools.product(gens, repeat=3):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise InvalidTables("mul_associative", (a, b, c))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _check_cap(base_size: int, width: int, what: str) -> int:
    """``base_size ** width``, the size of a free module of rank ``width``;
    refused before any table is built, and before so large a power is
    formed, when it exceeds ``SIZE_CAP``."""
    if (base_size > 1 and width >= SIZE_CAP.bit_length()) or base_size ** width > SIZE_CAP:
        raise SizeCapExceeded(f"{what} would have more than {SIZE_CAP} elements")
    return base_size ** width


def zmod(n: int, name: Optional[str] = None) -> FiniteRing:
    """Z/nZ with elements 0..n-1."""
    if n < 2:
        raise BadShape("modulus must be at least 2")
    _check_cap(n, 1, f"Z{n}")
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteRing(name or f"Z{n}", n, 0, 1, add, mul)


def _monomial_algebra(base: FiniteRing, width: int, product, unit, label,
                      name: str) -> FiniteRing:
    """The free ``base``-module on e_0, .., e_{width-1} with
    e_a * e_b = e_{product(a, b)}, or 0 where that is None, extended
    bilinearly: (x*y)_c sums x_a * y_b over the (a, b) with product c.

    An element is its coefficient vector, indexed mixed-radix with the
    coefficient of e_0 most significant; the identity is the sum of the e_a
    for a in ``unit``, and ``label`` names a coefficient vector.  Callers
    check the size with ``_check_cap`` first.
    """
    bs, badd, bmul, zero = base.size, base._add, base._mul, base.zero
    weights = [bs ** (width - 1 - t) for t in range(width)]

    def index(vec) -> int:
        return sum(map(operator.mul, vec, weights))

    vecs = list(itertools.product(range(bs), repeat=width))
    support = [[(a, c) for a, c in enumerate(v) if c != zero] for v in vecs]
    prod = [[product(a, b) for b in range(width)] for a in range(width)]
    mul = []
    for xs in support:
        row = []
        for ys in support:
            out = [zero] * width
            for a, ca in xs:
                pa, ma = prod[a], bmul[ca]
                for b, cb in ys:
                    c = pa[b]
                    if c is not None:
                        out[c] = badd[out[c]][ma[cb]]
            row.append(index(out))
        mul.append(row)
    add = [[index([badd[a][b] for a, b in zip(x, y)]) for y in vecs] for x in vecs]
    one = index([base.one if a in unit else zero for a in range(width)])
    return FiniteRing(name, len(vecs), index([zero] * width), one, add, mul,
                      [label(v) for v in vecs])


def _matrix_units(base: FiniteRing, k: int, upper: bool, name: str) -> FiniteRing:
    """The k x k matrices over ``base`` (the upper triangular ones if
    ``upper``) as the span of the matrix units e_ij, e_ij * e_jl = e_il.

    Element index encodes the entries (i, j) in row-major order, entry (0,0)
    most significant; entries below the diagonal of a triangular matrix are
    zero and not encoded.
    """
    if k <= 0:
        raise BadShape("matrix size must be positive")
    _check_cap(base.size, k * (k + 1) // 2 if upper else k * k,
               "upper triangular ring" if upper else "matrix ring")
    positions = [(i, j) for i in range(k) for j in range(i if upper else 0, k)]
    cell = {p: t for t, p in enumerate(positions)}
    zero_label = base.label(base.zero)

    def product(a: int, b: int) -> Optional[int]:
        (i, j), (t, l) = positions[a], positions[b]
        return cell[(i, l)] if j == t else None

    def label(v) -> str:
        return "[" + ";".join(
            ",".join(base.label(v[cell[(i, j)]]) if (i, j) in cell else zero_label
                     for j in range(k))
            for i in range(k)) + "]"

    return _monomial_algebra(base, len(positions), product,
                             [cell[(i, i)] for i in range(k)], label, name)


def matrix_ring(base: FiniteRing, k: int, name: Optional[str] = None) -> FiniteRing:
    """Full k x k matrix ring over ``base``; index encodes the k*k entries in
    row-major mixed-radix order, entry (0,0) most significant."""
    return _matrix_units(base, k, False, name or f"M{k}({base.name})")


def upper_triangular(base: FiniteRing, k: int, name: Optional[str] = None) -> FiniteRing:
    """Upper-triangular k x k matrices over ``base``; index encodes the
    k(k+1)/2 entries (i,j), i<=j, in row-major order, first most significant."""
    return _matrix_units(base, k, True, name or f"T{k}({base.name})")


def product_ring(r1: FiniteRing, r2: FiniteRing, name: Optional[str] = None) -> FiniteRing:
    """Direct product; index (a, b) -> a * |r2| + b."""
    size = _check_cap(r1.size * r2.size, 1, "product ring")
    n2 = r2.size

    def enc(a, b):
        return a * n2 + b

    add = [[enc(r1._add[a1][b1], r2._add[a2][b2])
            for b1 in range(r1.size) for b2 in range(r2.size)]
           for a1 in range(r1.size) for a2 in range(r2.size)]
    mul = [[enc(r1._mul[a1][b1], r2._mul[a2][b2])
            for b1 in range(r1.size) for b2 in range(r2.size)]
           for a1 in range(r1.size) for a2 in range(r2.size)]
    labels = [f"({r1.label(a)}|{r2.label(b)})"
              for a in range(r1.size) for b in range(r2.size)]
    return FiniteRing(name or f"{r1.name}x{r2.name}", size, enc(r1.zero, r2.zero),
                      enc(r1.one, r2.one), add, mul, labels)


def _validate_group_table(table: Sequence[Sequence[int]]) -> int:
    g = len(table)
    rows = [list(r) for r in table]
    if any(len(r) != g for r in rows):
        raise InvalidTables("group_table_shape")
    identity = None
    for e in range(g):
        if all(rows[e][x] == x == rows[x][e] for x in range(g)):
            identity = e
            break
    if identity is None:
        raise InvalidTables("group_identity")
    for a in range(g):
        for b in range(g):
            for c in range(g):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    raise InvalidTables("group_associative", (a, b, c))
    for a in range(g):
        if identity not in rows[a]:
            raise InvalidTables("group_inverse", (a,))
    return identity


def group_ring(base: FiniteRing, group_table: Sequence[Sequence[int]],
               name: Optional[str] = None,
               elem_names: Optional[Sequence[str]] = None) -> FiniteRing:
    """Group algebra ``base[G]`` for G given by a multiplication table.

    An element is a coefficient vector indexed by group elements; the ring
    index encodes it mixed-radix with the coefficient of group element 0
    most significant.
    """
    g = len(group_table)
    _check_cap(base.size, g, "group ring")
    identity = _validate_group_table(group_table)
    if elem_names is None:
        elem_names = [f"g{i}" for i in range(g)]

    def label(v) -> str:
        parts = [
            elem_names[i] if base.label(c) == "1" else f"{base.label(c)}*{elem_names[i]}"
            for i, c in enumerate(v) if c != base.zero
        ]
        return "+".join(parts) if parts else "0"

    return _monomial_algebra(base, g, lambda a, b: group_table[a][b], [identity],
                             label, name or f"{base.name}[G{g}]")


def cyclic_group_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def symmetric_group_table(n: int) -> tuple[list[list[int]], list[str]]:
    """Multiplication table of S_n; permutations sorted lexicographically,
    composition (p*q)(x) = p(q(x)).  Returns (table, cycle-notation names)."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]

    def cycles(p):
        seen, out = set(), []
        for s in range(n):
            if s in seen or p[s] == s:
                continue
            cyc, x = [s], p[s]
            while x != s:
                cyc.append(x)
                seen.add(x)
                x = p[x]
            seen.add(s)
            out.append("(" + "".join(str(v + 1) for v in cyc) + ")")
        return "".join(out) if out else "e"

    return table, [cycles(p) for p in perms]


# ---------------------------------------------------------------------------
# built-in rings and the textual spec grammar
# ---------------------------------------------------------------------------

def _build_f2s3() -> FiniteRing:
    table, names = symmetric_group_table(3)
    return group_ring(zmod(2), table, name="F2S3", elem_names=names)


_BUILTIN_BUILDERS = {
    "F2": lambda: zmod(2, name="F2"),
    "F3": lambda: zmod(3, name="F3"),
    "Z4": lambda: zmod(4),
    "Z8": lambda: zmod(8),
    "F2C2": lambda: group_ring(zmod(2), cyclic_group_table(2), name="F2C2",
                               elem_names=["e", "g"]),
    "T2F2": lambda: upper_triangular(zmod(2), 2, name="T2F2"),
    "M2F2": lambda: matrix_ring(zmod(2), 2, name="M2F2"),
    "F2S3": _build_f2s3,
}

BUILTIN_NAMES = tuple(_BUILTIN_BUILDERS)

_builtin_cache: dict[str, FiniteRing] = {}


def builtin_ring(name: str) -> FiniteRing:
    """The builtin ring ``name``, built once per process.

    ``builtin_ring(name) is builtin_ring(name)``: callers (and tests) rely on
    that identity, and share the radical, quotient and embedding cached on
    the ring, with every stratum cached on the embedding.
    """
    if name not in _BUILTIN_BUILDERS:
        raise KeyError(f"unknown builtin ring {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    if name not in _builtin_cache:
        _builtin_cache[name] = _BUILTIN_BUILDERS[name]()
    return _builtin_cache[name]


_SPEC_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[(),])")


def _tokenize_spec(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _SPEC_TOKEN.match(text, pos)
        if not m:
            raise BadShape(f"cannot parse ring spec at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def build_ring(spec) -> FiniteRing:
    """Build a ring from explicit tables (dict payload) or an expression.

    Expression grammar: builtin name | ``zmod(n)`` | ``matrix_ring(S,k)`` |
    ``upper_triangular(S,k)`` | ``product(S1,S2)`` | ``group_ring(S,cN)`` |
    ``group_ring(S,sN)``.  A malformed, truncated or too deeply nested
    expression raises ``BadShape``; a ring past ``SIZE_CAP`` raises
    ``SizeCapExceeded`` before its tables (or its group's table) are built.
    """
    if isinstance(spec, dict):
        return FiniteRing.from_payload(spec)
    text = str(spec)
    tokens = _tokenize_spec(text)

    def at(i: int) -> str:
        if i >= len(tokens):
            raise BadShape(f"ring spec {text!r} ends early")
        return tokens[i]

    def parse(i: int) -> tuple[FiniteRing, int]:
        tok = at(i)
        if tok in _BUILTIN_BUILDERS and (i + 1 == len(tokens) or tokens[i + 1] != "("):
            return builtin_ring(tok), i + 1
        if tok == "zmod":
            if at(i + 1) != "(" or not at(i + 2).isdigit() or at(i + 3) != ")":
                raise BadShape("expected (n)")
            return zmod(int(tokens[i + 2])), i + 4
        if tok in ("matrix_ring", "upper_triangular"):
            if at(i + 1) != "(":
                raise BadShape(f"expected '(' after {tok}")
            inner, j = parse(i + 2)
            if at(j) != "," or not at(j + 1).isdigit() or at(j + 2) != ")":
                raise BadShape(f"expected ',k)' in {tok}(...)")
            k = int(tokens[j + 1])
            fn = matrix_ring if tok == "matrix_ring" else upper_triangular
            return fn(inner, k), j + 3
        if tok == "product":
            if at(i + 1) != "(":
                raise BadShape("expected '(' after product")
            left, j = parse(i + 2)
            if at(j) != ",":
                raise BadShape("expected ',' in product(...)")
            right, j = parse(j + 1)
            if at(j) != ")":
                raise BadShape("expected ')' in product(...)")
            return product_ring(left, right), j + 1
        if tok == "group_ring":
            if at(i + 1) != "(":
                raise BadShape("expected '(' after group_ring")
            inner, j = parse(i + 2)
            if at(j) != ",":
                raise BadShape("expected ',' in group_ring(...)")
            gname = at(j + 1).lower()
            if at(j + 2) != ")":
                raise BadShape("expected ')' in group_ring(...)")
            m = re.fullmatch(r"([cs])(\d+)", gname)
            if not m:
                raise BadShape(f"unknown group {gname!r} (use cN or sN)")
            n = int(m.group(2))
            # |S_n| = n! passes the cap's bit length from n = 4 on, so n is
            # clipped before the factorial; the table is built after the check
            _check_cap(inner.size, n if m.group(1) == "c" else math.factorial(min(n, 20)),
                       "group ring")
            if m.group(1) == "c":
                table, names = cyclic_group_table(n), None
            else:
                table, names = symmetric_group_table(n)
            return group_ring(inner, table, elem_names=names), j + 3
        raise BadShape(f"unknown ring spec token {tok!r}")

    try:
        ring, end = parse(0)
    except RecursionError:
        raise BadShape(f"ring spec {text[:40]!r}... nests too deeply") from None
    if end != len(tokens):
        raise BadShape(f"trailing tokens in ring spec: {tokens[end:]}")
    return ring


# ---------------------------------------------------------------------------
# ideals, the Jacobson radical, quotients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealSet:
    """A two-sided ideal given by its member set."""

    ring: FiniteRing
    members: frozenset

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)

    def verify(self) -> None:
        r = self.ring
        mem = self.members
        if r.zero not in mem:
            raise InvalidTables("ideal_zero")
        for a in mem:
            for b in mem:
                if r.add(a, b) not in mem:
                    raise InvalidTables("ideal_add_closed", (a, b))
        for a in mem:
            for x in r.elements():
                if r.mul(x, a) not in mem or r.mul(a, x) not in mem:
                    raise InvalidTables("ideal_mul_closed", (x, a))


def additive_closure(ring: FiniteRing, seed) -> frozenset:
    members = set(seed)
    members.add(ring.zero)
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                s = ring.add(a, b)
                if s not in members:
                    members.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(members)


def ideal_product(ring: FiniteRing, left: frozenset, right: frozenset) -> frozenset:
    prods = {ring.mul(a, b) for a in left for b in right}
    return additive_closure(ring, prods)


def nilpotency_index(ring: FiniteRing, ideal: IdealSet) -> Optional[int]:
    """Least k with I^k = 0, or None if I is not nilpotent."""
    zero_only = frozenset({ring.zero})
    power = frozenset(ideal.members)
    seen = []
    k = 1
    while True:
        if power == zero_only:
            return k
        if power in seen:
            return None
        seen.append(power)
        power = ideal_product(ring, power, ideal.members)
        k += 1


def jacobson_radical(ring: FiniteRing) -> IdealSet:
    """All y such that 1 - x*y is a unit for every x.

    This is J(R) by Lam, *A First Course in Noncommutative Rings*, Lemma 4.1
    (1 - x*y left invertible for all x; in a finite ring a left inverse is
    two-sided), so |R|^2 lookups in the unit table.

    Also verifies that the result is a two-sided nilpotent ideal.  That it
    contains every nilpotent ideal is guarded where R/J is decomposed:
    ``wedderburn.semisimple_decompose`` rejects a quotient with a nonzero
    radical, and a nilpotent ideal I strictly containing J would leave the
    nonzero nilpotent ideal I/J there.
    """
    if ring._radical is not None:
        return ring._radical
    one_minus_unit = [ring.is_unit(ring.sub(ring.one, t)) for t in ring.elements()]
    members = [y for y, col in enumerate(zip(*ring._mul))
               if all(map(one_minus_unit.__getitem__, col))]
    radical = IdealSet(ring, frozenset(members))
    radical.verify()
    k = nilpotency_index(ring, radical)
    if k is None or k > ring.size:
        raise InvalidTables("radical_nilpotent", detail=f"nilpotency index {k}")
    ring._radical = radical
    return radical


@dataclass(frozen=True)
class QuotientData:
    """Quotient of ``source`` by a two-sided ideal, with projection/section."""

    source: FiniteRing
    ideal: IdealSet
    quotient: FiniteRing
    projection: tuple[int, ...]
    section: tuple[int, ...]
    nilpotency: int


def quotient_by_radical(ring: FiniteRing) -> QuotientData:
    """R/J(R) with smallest-index coset representatives."""
    if ring._quotient is not None:
        return ring._quotient
    radical = jacobson_radical(ring)
    k = nilpotency_index(ring, radical)
    jset = radical.sorted_members
    coset_of = {}
    reps = []
    for x in ring.elements():
        if x in coset_of:
            continue
        coset = sorted(ring.add(x, j) for j in jset)
        rep = coset[0]
        for c in coset:
            coset_of[c] = rep
        reps.append(rep)
    reps.sort()
    q_index = {rep: i for i, rep in enumerate(reps)}
    projection = tuple(q_index[coset_of[x]] for x in ring.elements())
    section = tuple(reps)
    qsize = len(reps)
    if qsize * len(jset) != ring.size:
        raise InvalidTables("quotient_fibers")
    q_add = [[projection[ring.add(section[a], section[b])] for b in range(qsize)]
             for a in range(qsize)]
    q_mul = [[projection[ring.mul(section[a], section[b])] for b in range(qsize)]
             for a in range(qsize)]
    # R's tables are validated and J is a verified two-sided ideal, so these
    # tables are well defined on cosets and satisfy the ring axioms
    quotient = FiniteRing(
        name=f"{ring.name}/J",
        size=qsize,
        zero=projection[ring.zero],
        one=projection[ring.one],
        add=q_add,
        mul=q_mul,
        labels=[ring.label(r) for r in reps],
        validate=False,
    )
    qdata = QuotientData(ring, radical, quotient, projection, section, k)
    ring._quotient = qdata
    return qdata


# ---------------------------------------------------------------------------
# matrices over a table ring
# ---------------------------------------------------------------------------

class RMatrix:
    """Dense matrix over a FiniteRing; entries row-major, immutable."""

    __slots__ = ("ring", "rows", "cols", "entries", "_hash")

    def __init__(self, ring: FiniteRing, rows: int, cols: int, entries):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = tuple(map(int, entries))
        if len(self.entries) != rows * cols:
            raise BadShape(f"{rows}x{cols} matrix needs {rows*cols} entries")
        self._hash = None

    @classmethod
    def _batch(cls, ring: FiniteRing, rows: int, cols: int, entries) -> list["RMatrix"]:
        """One rows x cols matrix per tuple of rows * cols ints in
        ``entries``, each taken as it is: for stratum enumeration, which
        checks its parts once per record."""
        new = object.__new__
        out = []
        append = out.append
        for e in entries:
            m = new(cls)
            m.ring = ring
            m.rows = rows
            m.cols = cols
            m.entries = e
            m._hash = None
            append(m)
        return out

    @classmethod
    def from_rows(cls, ring: FiniteRing, rows: Sequence[Sequence[int]],
                  cols: Optional[int] = None) -> "RMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else (0 if cols is None else cols)
        return cls(ring, n, m, [v for r in rows for v in r])

    @classmethod
    def identity(cls, ring: FiniteRing, n: int) -> "RMatrix":
        return cls(ring, n, n, identity_entries(ring, n))

    def get(self, r: int, c: int) -> int:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[int, ...]:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def col(self, c: int) -> tuple[int, ...]:
        return self.entries[c::self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(r)) for r in range(self.rows)]

    def mul(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows or self.ring is not other.ring:
            raise BadShape(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return RMatrix(self.ring, self.rows, other.cols,
                       mul_entries(self.ring, self.entries, other.entries,
                                   self.rows, self.cols, other.cols))

    def add(self, other: "RMatrix") -> "RMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ring is not other.ring:
            raise BadShape("shape mismatch in add")
        tab = self.ring._add
        return RMatrix(self.ring, self.rows, self.cols,
                       [tab[a][b] for a, b in zip(self.entries, other.entries)])

    def sub(self, other: "RMatrix") -> "RMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ring is not other.ring:
            raise BadShape("shape mismatch in sub")
        r = self.ring
        return RMatrix(r, self.rows, self.cols,
                       [r.sub(a, b) for a, b in zip(self.entries, other.entries)])

    def reduce(self, q: QuotientData) -> "RMatrix":
        proj = q.projection
        return RMatrix(q.quotient, self.rows, self.cols, [proj[e] for e in self.entries])

    def lift(self, q: QuotientData) -> "RMatrix":
        sec = q.section
        return RMatrix(q.source, self.rows, self.cols, [sec[e] for e in self.entries])

    def insert_col(self, pos: int, values: Sequence[int]) -> "RMatrix":
        """New matrix with ``values`` inserted as column index ``pos`` (0-based)."""
        rows = [list(self.row(r)) for r in range(self.rows)]
        for r, v in zip(rows, values):
            r.insert(pos, int(v))
        return RMatrix.from_rows(self.ring, rows, cols=self.cols + 1)

    def insert_row(self, pos: int, values: Sequence[int]) -> "RMatrix":
        rows = [list(self.row(r)) for r in range(self.rows)]
        rows.insert(pos, [int(v) for v in values])
        return RMatrix.from_rows(self.ring, rows, cols=self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RMatrix)
            and self.ring is other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        """hash((id(ring), rows, cols, entries)), computed on the first call."""
        if self._hash is None:
            self._hash = hash((id(self.ring), self.rows, self.cols, self.entries))
        return self._hash

    def __repr__(self) -> str:
        return f"RMatrix({self.ring.name}, {self.rows}x{self.cols}, {self.to_lists()})"


def iter_vectors(ring: FiniteRing, n: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(ring.elements(), repeat=n)


def identity_entries(ring: FiniteRing, n: int) -> tuple[int, ...]:
    """Row-major entries of the n x n identity over ``ring``, cached on it."""
    ident = ring._identities.get(n)
    if ident is None:
        ident = ring._identities[n] = tuple(
            ring.one if i == j else ring.zero for i in range(n) for j in range(n))
    return ident


def mul_entries(ring: FiniteRing, a: tuple, b: tuple, rows: int, inner: int,
                cols: int) -> tuple[int, ...]:
    """Row-major entries of the rows x cols product of the row-major
    rows x inner and inner x cols entry tuples ``a`` and ``b``."""
    add, mul, zero = ring._add, ring._mul, ring.zero
    out = []
    for i in range(rows):
        base = i * inner
        for j in range(cols):
            acc = zero
            for t in range(inner):
                acc = add[acc][mul[a[base + t]][b[t * cols + j]]]
            out.append(acc)
    return tuple(out)


def matvec(ring: FiniteRing, m: RMatrix, vec: Sequence[int]) -> tuple[int, ...]:
    return mul_entries(ring, m.entries, vec, m.rows, m.cols, 1)


# ---------------------------------------------------------------------------
# invertibility: F_p linear algebra on the semisimple quotient, on int bitsets
# for p = 2, with every check on row-major entry tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FpPart:
    """The p-part ``P = e*Q`` of a semisimple ring Q as an F_p-vector space.

    ``e = eps*1`` with eps = 1 mod p and eps = 0 mod c/p (c the
    characteristic) is a central idempotent, so y -> a*y maps P into itself
    for every a in Q.
    """

    p: int
    dim: int
    lmul: tuple  # per element a: the dim rows of the F_p matrix of y -> a*y on P
    one: tuple[int, ...]  # coordinates of e, the identity of P
    element: dict  # coordinate tuple -> element of P
    # p = 2 only: per element a, each row of lmul[a] as an int, bit c for column c
    lbits: Optional[tuple] = None


def _multiple(ring: FiniteRing, k: int, x: int) -> int:
    acc = ring.zero
    for _ in range(k):
        acc = ring._add[acc][x]
    return acc


def _fp_parts(qr: FiniteRing) -> tuple[_FpPart, ...]:
    """The p-parts of the semisimple ring ``qr``, one per prime p | char(qr).

    A semisimple finite ring has squarefree characteristic and is the direct
    sum of its p-parts; anything else means ``qr`` is not R/J (bug guard).
    Built once per ring and cached on it.
    """
    if qr._fp_cache is not None:
        return qr._fp_cache
    add, mul, zero = qr._add, qr._mul, qr.zero
    char, x = 1, qr.one
    while x != zero:
        x = add[x][qr.one]
        char += 1
    parts = []
    rest = char
    for p in range(2, char + 1):
        if rest % p:
            continue
        rest //= p
        if rest % p == 0:
            raise RuntimeError(f"{qr.name} has characteristic {char}, "
                               "not squarefree")  # bug guard
        cofactor = char // p
        e = _multiple(qr, cofactor * pow(cofactor, -1, p) % char, qr.one)
        members = sorted({mul[e][y] for y in qr.elements()})
        if any(_multiple(qr, p, y) != zero for y in members):
            raise RuntimeError(f"{p}-part of {qr.name} is not "
                               "elementary abelian")  # bug guard
        # greedy basis in index order; coords maps each element of its span
        # to its coordinates
        coords: dict[int, tuple[int, ...]] = {zero: ()}
        basis = []
        for y in members:
            if y in coords:
                continue
            basis.append(y)
            grown = {}
            step = zero
            for k in range(p):
                for z, c in coords.items():
                    grown[add[z][step]] = c + (k,)
                step = add[step][y]
            coords = grown
        lmul = tuple(tuple(zip(*(coords[mul[a][b]] for b in basis)))
                     for a in qr.elements())
        lbits = None
        if p == 2:
            lbits = tuple(tuple(sum(v << c for c, v in enumerate(row)) for row in rows)
                          for rows in lmul)
        parts.append(_FpPart(p, len(basis), lmul, coords[e],
                             {c: z for z, c in coords.items()}, lbits))
    qr._fp_cache = tuple(parts)
    return qr._fp_cache


def _part_inverse(part: _FpPart, n: int, entries: Sequence[int]) -> Optional[list[int]]:
    """Row-major P-part of the inverse of the n x n ``entries`` over the
    semisimple ring of ``part``, or None when that part is singular.

    v -> Mv is an F_p-linear map of P^n; one Gauss-Jordan pass on the rows of
    [M | e*E_i], with the coordinates of e*(unit vector j) as right-hand
    sides, decides whether it is invertible and yields the inverse's
    coordinates.  Rows are lists of residues; this runs for odd p, and is
    the tests' oracle for ``_part_inverse_bits`` at p = 2.
    """
    p, r, lmul, one = part.p, part.dim, part.lmul, part.one
    size = n * r
    rows = []
    for i in range(n):
        blocks = [lmul[a] for a in entries[i * n:(i + 1) * n]]
        for s in range(r):
            rhs = [0] * n
            rhs[i] = one[s]
            rows.append([v for blk in blocks for v in blk[s]] + rhs)
    for col in range(size):
        piv = col
        while not rows[piv][col]:
            piv += 1
            if piv == size:
                return None
        prow = rows[piv]
        rows[piv] = rows[col]
        if prow[col] != 1:
            f = pow(prow[col], -1, p)
            prow = [v * f % p for v in prow]
        rows[col] = prow
        for k in range(size):
            f = rows[k][col]
            if f and k != col:
                rows[k] = [(v - f * w) % p for v, w in zip(rows[k], prow)]
    element = part.element
    return [element[tuple(row[size + j] for row in rows[i * r:(i + 1) * r])]
            for i in range(n) for j in range(n)]


def _part_inverse_bits(part: _FpPart, n: int, entries: Sequence[int]) -> Optional[list[int]]:
    """``_part_inverse`` for p = 2, each row of [M | e*E_i] one int: bit c
    for column c, the right-hand sides from bit n*dim on.  The pivot search
    is ``row & bit`` and clearing a pivot is XOR."""
    r, lbits, one = part.dim, part.lbits, part.one
    size = n * r
    rows = []
    for i in range(n):
        blocks = [lbits[a] for a in entries[i * n:(i + 1) * n]]
        for s in range(r):
            row = one[s] << (size + i)
            for t, blk in enumerate(blocks):
                row |= blk[s] << (t * r)
            rows.append(row)
    for col in range(size):
        bit = 1 << col
        piv = col
        while not rows[piv] & bit:
            piv += 1
            if piv == size:
                return None
        prow = rows[piv]
        rows[piv] = rows[col]
        rows = [row ^ prow if row & bit else row for row in rows]
        rows[col] = prow
    # bit size + j of row i*r + s is coordinate s of inverse entry (i, j)
    element = part.element
    out = []
    for i in range(0, size, r):
        out += map(element.__getitem__,
                   zip(*[[row >> j & 1 for j in range(size, size + n)] for row in rows[i:i + r]]))
    return out


def _quotient_inverse(qr: FiniteRing, n: int,
                      entries: Sequence[int]) -> Optional[list[int]]:
    """Row-major inverse of an n x n matrix over the semisimple ``qr``, or None.

    Q is the direct sum of its p-parts, so M is invertible iff it is on each
    part, and the inverse is the sum of the parts' inverses.  A p = 2 part
    is eliminated on int bitsets (``_part_inverse_bits``), any other on
    residue lists (``_part_inverse``).
    """
    qadd = qr._add
    inv = None
    for part in _fp_parts(qr):
        got = (_part_inverse_bits if part.p == 2 else _part_inverse)(part, n, entries)
        if got is None:
            return None
        inv = got if inv is None else [qadd[a][b] for a, b in zip(inv, got)]
    return inv


def matrix_invertible(m: RMatrix, q: QuotientData) -> tuple[bool, Optional[RMatrix]]:
    """Two-sided invertibility over the source ring.

    M is invertible iff its reduction is invertible over the semisimple
    quotient R/J, which is decided by F_p Gauss-Jordan elimination on each
    p-part of R/J in time polynomial in n: on int bitsets by XOR for p = 2,
    on residue lists otherwise.  An actual inverse is then lifted by Newton
    iteration X <- X(2I - MX), whose loop test MX = I and final check
    XM = I verify the returned inverse on both sides over R: a wrong
    quotient inverse raises RuntimeError there.  The checks run on
    row-major entry tuples (``mul_entries``); only the returned inverse is
    an ``RMatrix``.  A 1 x 1 matrix is answered from the ring's unit table
    (``FiniteRing.inv``), whose inverses are checked on both sides when the
    table is built, one pass over the multiplication table per ring.
    """
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols} matrix")
    ring = m.ring
    if ring is not q.source:
        raise BadShape("matrix ring does not match quotient source")
    n = m.rows
    if n == 0:
        return True, RMatrix(ring, 0, 0, [])
    if n == 1:
        x = ring.inv(m.entries[0])
        return (False, None) if x is None else (True, RMatrix(ring, 1, 1, (x,)))
    proj = q.projection
    inv = _quotient_inverse(q.quotient, n, [proj[e] for e in m.entries])
    if inv is None:
        return False, None
    sec = q.section
    x = newton_inverse(ring, n, m.entries, tuple([sec[e] for e in inv]), q.nilpotency)
    return True, RMatrix(ring, n, n, x)


def newton_inverse(ring: FiniteRing, n: int, m: tuple, x: tuple,
                   nilpotency: int) -> tuple[int, ...]:
    """Entries of the two-sided inverse of the n x n entries ``m``, lifted
    from ``x``, an inverse of ``m`` modulo J (J^nilpotency = 0), by Newton
    iteration X <- X(2I - MX): the error I - MX lives in M_n(J) and squares
    each step."""
    add, neg = ring._add, ring._neg
    ident = identity_entries(ring, n)
    two_ident = tuple(add[a][a] for a in ident)
    steps = 0
    max_steps = max(1, nilpotency).bit_length() + 2
    mx = mul_entries(ring, m, x, n, n, n)
    while mx != ident:
        x = mul_entries(ring, x, tuple(add[a][neg[b]] for a, b in zip(two_ident, mx)),
                        n, n, n)
        steps += 1
        if steps > max_steps:
            raise RuntimeError("inverse lifting did not converge")  # bug guard
        mx = mul_entries(ring, m, x, n, n, n)
    if mul_entries(ring, x, m, n, n, n) != ident:
        raise RuntimeError("one-sided inverse over a finite ring")  # bug guard
    return x
