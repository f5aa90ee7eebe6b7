"""The column-adapted morphism calculus.

Morphisms between free modules come in pairs (f', f'') with f'' o f' = id;
``f''`` surjections with pivot columns in normal form ("column-adapted")
form a subcategory whose members are pinned down by f'' plus the free rows
of the embedded f'.  This module provides pivot-set computation, the
column-adapted predicate, composition, canonical splittings, the
factorisation of an arbitrary pair through a column-adapted one, and
reconstruction from free rows.

The canonical splitting psi_S of pivot sets S carries the pivot layout, and
the rest is derived from it rather than from scans of pivot columns:
- h is column-adapted iff ``s_function(h)`` succeeds and h psi_S(h) = I;
- the change of basis of ``factor_vic`` is g = f'' psi_S(f'');
- when f'' psi = I, X + psi (I - f'' X) splits f'' for any X, and keeps
  the free rows of X, Phi(psi) being zero off the dependent rows.  Moves build
  successors this way (``ordering.insert_successor``), and
  ``reconstruct_from_free`` does it for X recovered from the free rows given
  and zero dependent rows.

Index conventions: pivot sets, distinguished positions (k, j) and row/column
indices exposed by this module are **1-based**, matching the usual way the
calculus is written; raw matrix access stays 0-based.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import (
    BadShape,
    InvalidMorphism,
    NoSolution,
    NotColumnAdapted,
    NotSurjective,
    RankMismatch,
)
from .rings import FiniteRing, RMatrix, matrix_invertible
from .wedderburn import AWEmbedding, CornerField


class DistinguishedIndexer:
    """Bijection between distinguished labels (k, j) and standard indices.

    For ambient rank m the standard index space is {1, .., mu*m}; super-block
    t (0-based) holds, for each block k in order, the run of mu_k positions
    labelled (k, t*mu_k + 1 .. t*mu_k + mu_k).
    """

    def __init__(self, mu: Sequence[int], size: int):
        self.mu = tuple(mu)
        self.size = size
        self.mu_total = sum(self.mu)
        self.prefix = []
        acc = 0
        for m in self.mu:
            self.prefix.append(acc)
            acc += m

    def std(self, k: int, j: int) -> int:
        """Standard index (1-based) of v(k)_j; k is 1-based."""
        mk = self.mu[k - 1]
        t, r = divmod(j - 1, mk)
        return t * self.mu_total + self.prefix[k - 1] + r + 1

    def label(self, s: int) -> tuple[int, int]:
        """(k, j) label (both 1-based) of standard index s."""
        t, p = divmod(s - 1, self.mu_total)
        for k, (off, mk) in enumerate(zip(self.prefix, self.mu), start=1):
            if off <= p < off + mk:
                return k, t * mk + (p - off) + 1
        raise BadShape(f"standard index {s} out of range")

    def block_positions(self, k: int) -> list[int]:
        """All standard indices carrying block-k labels, in j order."""
        mk = self.mu[k - 1]
        return [self.std(k, j) for j in range(1, mk * self.size + 1)]


def _block_rows(emb: AWEmbedding, big: RMatrix, k: int,
                row_size: int, col_size: int) -> list[list[int]]:
    """Block k of a Phi-image matrix: rows/cols restricted to block-k labels."""
    ridx = DistinguishedIndexer(emb.mu, row_size)
    cidx = DistinguishedIndexer(emb.mu, col_size)
    rows = ridx.block_positions(k)
    cols = cidx.block_positions(k)
    return [[big.get(r - 1, c - 1) for c in cols] for r in rows]


def _greedy_pivots(rows: list[list[int]], field: CornerField) -> list[int]:
    """Left-to-right pivot columns (1-based) of a matrix over a corner field.

    Greedy selection returns the lexicographically smallest basis-indexing
    subset of the column set: a column is a pivot iff it is independent of
    the columns before it, i.e. it does not reduce to zero against the
    echelon basis of (pivot index, monic vector) pairs kept so far.
    """
    zero, sub, mul = field.zero, field.sub, field.mul
    basis = []
    pivots = []
    for c, vec in enumerate(zip(*rows), start=1):
        if len(pivots) == len(rows):
            break
        for piv, row in basis:
            x = vec[piv]
            if x != zero:
                vec = [sub(v, mul(x, y)) for v, y in zip(vec, row)]
        lead = next((i for i, x in enumerate(vec) if x != zero), None)
        if lead is not None:
            inv = field.inv(vec[lead])
            basis.append((lead, [mul(inv, x) for x in vec]))
            pivots.append(c)
    return pivots


def s_function(h: RMatrix, emb: AWEmbedding) -> tuple[tuple[int, ...], ...]:
    """Per-block pivot column sets of the reduced matrix of h (1-based).

    ``h`` is d x n, i.e. a map R^n -> R^d; block k of the reduced embedded
    matrix is row-reduced over the corner field D_k and must have full row
    rank mu_k * d (else the map is not surjective).
    """
    d, n = h.rows, h.cols
    hbar = h.reduce(emb.qdata)
    big = emb.phi_bar_on_matrices(hbar)
    out = []
    for k in range(1, emb.q + 1):
        rows = _block_rows(emb, big, k, d, n)
        field = emb.corner_fields[k - 1]
        pivots = _greedy_pivots(rows, field)
        need = emb.mu[k - 1] * d
        if len(pivots) != need:
            raise NotSurjective(
                f"block {k} has rank {len(pivots)}, needs {need}"
            )
        out.append(tuple(pivots))
    return tuple(out)


def is_column_adapted(h: RMatrix, emb: AWEmbedding) -> bool:
    """Surjective, and every pivot column of Phi(h) is exactly the matching
    block-identity indicator column (which forces the reduced map into
    column-adapted form as well)."""
    return column_adapted_s_sets(h, emb) is not None


def column_adapted_s_sets(h: RMatrix, emb: AWEmbedding
                          ) -> Optional[tuple[tuple[int, ...], ...]]:
    """Pivot sets when h is column-adapted, else None."""
    try:
        s_sets = s_function(h, emb)
    except NotSurjective:
        return None
    return s_sets if _pivot_columns_exact(h, emb, s_sets) else None


def _pivot_columns_exact(h: RMatrix, emb: AWEmbedding,
                         s_sets: Sequence[Sequence[int]]) -> bool:
    """Whether each pivot column of Phi(h) is the matching block-identity
    column: Phi(psi) for psi the canonical splitting of ``s_sets`` picks out
    exactly those columns, so this is h psi = I."""
    psi = canonical_splitting(s_sets, emb, m=h.cols, n=h.rows)
    return h.mul(psi) == RMatrix.identity(emb.ring, h.rows)


class VicMorphism:
    """A pair (f', f'') with f'' o f' = id: a split injection R^d -> R^n."""

    __slots__ = ("ring", "d", "n", "f_prime", "f_dprime", "_hash")

    def __init__(self, f_prime: RMatrix, f_dprime: RMatrix, check: bool = True):
        ring = f_prime.ring
        if f_dprime.ring is not ring:
            raise InvalidMorphism("component rings differ")
        d, n = f_prime.cols, f_prime.rows
        if (f_dprime.rows, f_dprime.cols) != (d, n):
            raise InvalidMorphism(
                f"shape mismatch: f' is {n}x{d}, f'' is {f_dprime.rows}x{f_dprime.cols}"
            )
        if check and f_dprime.mul(f_prime) != RMatrix.identity(ring, d):
            raise InvalidMorphism("f'' o f' is not the identity")
        self.ring = ring
        self.d = d
        self.n = n
        self.f_prime = f_prime
        self.f_dprime = f_dprime
        self._hash = None

    @classmethod
    def _batch(cls, f_primes, f_dprime: RMatrix) -> list["VicMorphism"]:
        """The pair (f', f'') for each f' in ``f_primes``, taken as it is:
        for stratum enumeration, which checks the rings and shapes once per
        record."""
        new = object.__new__
        ring, d, n = f_dprime.ring, f_dprime.rows, f_dprime.cols
        out = []
        append = out.append
        for f_prime in f_primes:
            f = new(cls)
            f.ring = ring
            f.d = d
            f.n = n
            f.f_prime = f_prime
            f.f_dprime = f_dprime
            f._hash = None
            append(f)
        return out

    @classmethod
    def identity(cls, ring: FiniteRing, n: int) -> "VicMorphism":
        ident = RMatrix.identity(ring, n)
        return cls(ident, ident, check=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VicMorphism)
            and self.ring is other.ring
            and self.d == other.d
            and self.n == other.n
            and self.f_prime.entries == other.f_prime.entries
            and self.f_dprime.entries == other.f_dprime.entries
        )

    def __hash__(self) -> int:
        """hash((id(ring), d, n, f'.entries, f''.entries)), computed on the
        first call."""
        if self._hash is None:
            self._hash = hash((id(self.ring), self.d, self.n,
                               self.f_prime.entries, self.f_dprime.entries))
        return self._hash

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.ring.name}, {self.d}->{self.n}, "
                f"f'={self.f_prime.to_lists()}, f''={self.f_dprime.to_lists()})")

    def to_payload(self) -> dict:
        return {
            "ring": self.ring.name,
            "d": self.d,
            "n": self.n,
            "f_prime": self.f_prime.to_lists(),
            "f_dprime": self.f_dprime.to_lists(),
        }


class OvicMorphism(VicMorphism):
    """A VicMorphism whose splitting component is column-adapted.

    Carries the embedding, the cached pivot sets of f'', and a cached sort
    key implementing the stratum-wise total order.
    """

    __slots__ = ("emb", "s_sets", "_order_key")

    def __init__(self, f_prime: RMatrix, f_dprime: RMatrix, emb: AWEmbedding,
                 s_sets=None, check: bool = True):
        """``s_sets``, when given, is trusted: it must equal what
        ``s_function`` computes."""
        super().__init__(f_prime, f_dprime, check=check)
        self.emb = emb
        if s_sets is None:
            s_sets = s_function(f_dprime, emb)
            if check and not _pivot_columns_exact(f_dprime, emb, s_sets):
                raise NotColumnAdapted("f'' is not column-adapted")
        self.s_sets = tuple(tuple(s) for s in s_sets)
        self._order_key = None

    @classmethod
    def _batch(cls, f_primes, f_dprime: RMatrix, emb: AWEmbedding, s_sets: tuple,
               key_prefix: tuple, frees) -> list["OvicMorphism"]:
        """``VicMorphism._batch`` plus the embedding and the pivot sets as a
        tuple of tuples, all trusted; each member's order key is
        ``key_prefix`` + (its free rows,), the free rows of ``frees`` taken
        in step with ``f_primes``."""
        out = super()._batch(f_primes, f_dprime)
        for f, free in zip(out, frees):
            f.emb = emb
            f.s_sets = s_sets
            f._order_key = key_prefix + (free,)
        return out

    @classmethod
    def identity(cls, ring_or_emb, n: int) -> "OvicMorphism":
        emb = ring_or_emb
        ident = RMatrix.identity(emb.ring, n)
        mu = emb.mu
        s_sets = tuple(
            tuple(range(1, mu[k] * n + 1)) for k in range(emb.q)
        )
        return cls(ident, ident, emb, s_sets=s_sets, check=False)

    @property
    def order_key(self) -> tuple:
        """(rank, pivot tuples, Phi(f'') columns, free rows of Phi(f'));
        lexicographic comparison of these keys is the stratum total order."""
        if self._order_key is None:
            big_dd = self.emb.phi_on_matrices(self.f_dprime)
            cols = tuple(big_dd.col(c) for c in range(big_dd.cols))
            self._order_key = (self.n, self.s_sets, cols,
                               tuple(extract_free_fragment(self)))
        return self._order_key


def free_rows(f: OvicMorphism) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(free, dependent) standard row indices (1-based) of Phi(f').

    A row is dependent when its distinguished label (k, i) has i in the
    pivot set of f'' for block k.
    """
    return split_rows(f.emb, f.n, f.s_sets)


def split_rows(emb: AWEmbedding, n: int, s_sets: Sequence[Sequence[int]]
               ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``free_rows`` of any morphism into rank n with pivot sets ``s_sets``."""
    ridx = DistinguishedIndexer(emb.mu, n)
    dependent = sorted(
        ridx.std(k, i)
        for k, pivots in enumerate(s_sets, start=1)
        for i in pivots
    )
    dep_set = set(dependent)
    total = emb.mu_total * n
    free = tuple(s for s in range(1, total + 1) if s not in dep_set)
    return free, tuple(dependent)


def compose_vic(g: VicMorphism, f: VicMorphism) -> VicMorphism:
    """g o f: composite (g' f', f'' g'').

    When both factors are column-adapted the composite is too, and its pivot
    sets are those of g'' re-indexed through the pivots of f''.
    """
    if f.n != g.d:
        raise RankMismatch(f"cannot compose {g.d}->{g.n} after {f.d}->{f.n}")
    if f.ring is not g.ring:
        raise RankMismatch("morphisms over different rings")
    fp = g.f_prime.mul(f.f_prime)
    fdp = f.f_dprime.mul(g.f_dprime)
    if isinstance(g, OvicMorphism) and isinstance(f, OvicMorphism):
        s_sets = tuple(
            tuple(g_pivots[j - 1] for j in f_pivots)
            for g_pivots, f_pivots in zip(g.s_sets, f.s_sets)
        )
        return OvicMorphism(fp, fdp, g.emb, s_sets=s_sets, check=False)
    return VicMorphism(fp, fdp, check=False)


def canonical_splitting(s_sets: Sequence[Sequence[int]], emb: AWEmbedding,
                        m: int, n: int) -> RMatrix:
    """The m x n splitting determined by pivot data alone.

    For every column-adapted h: R^m -> R^n with pivot sets ``s_sets``,
    h o (this matrix) = id.  Its image under Phi has the block idempotent
    e_1 at row (k, j) and column (k, i) for j the i-th pivot of block k, and
    zeros elsewhere.  Phi(b_p a_s) is e_1 at position (p, s) of its block,
    for the conjugators (a, b) of positions p and s of block k, so entry
    (r, c) is the sum of b_p a_s over the pivots whose row lies in band r
    at position p and whose column lies in band c at position s.
    """
    mu = emb.mu
    if len(s_sets) != emb.q:
        raise BadShape(f"need {emb.q} pivot sets")
    for k, pivots in enumerate(s_sets):
        if len(pivots) != mu[k] * n:
            raise BadShape(f"pivot set {k + 1} must have {mu[k] * n} entries")
        if any(not 1 <= j <= mu[k] * m for j in pivots):
            raise BadShape(f"pivot set {k + 1} out of range for ambient rank {m}")
    ring = emb.ring
    entries = [ring.zero] * (m * n)
    for mk, conj, pivots in zip(mu, emb.conjugators, s_sets):
        for i, j in enumerate(pivots):
            r, p = divmod(j - 1, mk)
            c, s = divmod(i, mk)
            x = ring.mul(conj[p][1], conj[s][0])
            entries[r * n + c] = ring.add(entries[r * n + c], x)
    return RMatrix(ring, m, n, entries)


def factor_vic(f: VicMorphism, emb: AWEmbedding) -> tuple[VicMorphism, "OvicMorphism"]:
    """Split f as f2 o f1 with f1 an automorphism pair and f2 column-adapted.

    The change of basis is g = f'' psi, psi the canonical splitting of the
    pivot sets of f'': Phi(g) collects the pivot columns of Phi(f'').  Its
    invertibility is certified through the quotient (reduction invertible
    implies invertible, with an explicit two-sided inverse)."""
    d, n = f.d, f.n
    s_sets = s_function(f.f_dprime, emb)
    g = f.f_dprime.mul(canonical_splitting(s_sets, emb, m=n, n=d))
    ok, g_inv = matrix_invertible(g, emb.qdata)
    if not ok:
        raise InvalidMorphism("pivot-column matrix not invertible")  # bug guard
    f1 = VicMorphism(g_inv, g, check=False)
    f2 = OvicMorphism(f.f_prime.mul(g), g_inv.mul(f.f_dprime), emb,
                      s_sets=s_sets, check=False)
    if compose_vic(f2, f1) != VicMorphism(f.f_prime, f.f_dprime, check=False):
        raise InvalidMorphism("factorisation does not recompose")  # bug guard
    return f1, f2


def extract_free_fragment(f: OvicMorphism) -> list[tuple[int, ...]]:
    """Rows of Phi(f') at the free positions, in increasing standard index."""
    big = f.emb.phi_on_matrices(f.f_prime)
    free, _ = free_rows(f)
    return [big.row(r - 1) for r in free]


def reconstruct_from_free(f_dprime: RMatrix, fragment: Sequence[Sequence[int]],
                          emb: AWEmbedding) -> OvicMorphism:
    """The unique column-adapted morphism with the given f'' and free rows.

    Y, the free rows with zero dependent rows, lies in the image of Phi:
    band by band it is Phi((1 - E) x), for E the idempotents of the masked
    positions.  So X = recover(Y) has the given free rows, and X + psi (I -
    f'' X), for psi the canonical splitting, splits f'' and keeps them.

    Every entry must be an int (bool excluded) in 0..|R| - 1, the rule of
    morphism files; any other entry or shape raises NoSolution, and free
    rows that no morphism has raise RecoverOutsideImage.
    """
    s_sets = column_adapted_s_sets(f_dprime, emb)
    if s_sets is None:
        raise NotColumnAdapted("f'' is not column-adapted")
    ring = emb.ring
    d, n = f_dprime.rows, f_dprime.cols
    width = emb.mu_total * d
    free, _ = split_rows(emb, n, s_sets)
    if not isinstance(fragment, (list, tuple)) or len(fragment) != len(free):
        raise NoSolution(f"fragment must be a list of {len(free)} rows")
    entries = [ring.zero] * (emb.mu_total * n * width)
    for s, row in zip(free, fragment):
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise NoSolution(f"fragment rows must be lists of {width} entries")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < ring.size:
                raise NoSolution(f"fragment entry {v!r} is not an element of "
                                 f"{ring.name} (0..{ring.size - 1})")
        entries[(s - 1) * width:s * width] = row
    x = emb.recover(RMatrix(ring, emb.mu_total * n, width, entries))
    psi = canonical_splitting(s_sets, emb, m=n, n=d)
    f_prime = x.add(psi.mul(RMatrix.identity(ring, d).sub(f_dprime.mul(x))))
    return OvicMorphism(f_prime, f_dprime, emb, s_sets=s_sets, check=False)
