"""Orders on the union of morphism strata P(d) = U_n Hom(R^d, R^n).

Four layers: a stratum-respecting total order (rank, then pivot sets, then
splitting columns, then free rows); a partial order generated by duplicating
a non-pivot column; an embedding of morphisms into words over a finite
alphabet (dependent rows masked out) ordered by a dominance-constrained
subsequence relation; and, for each covering move, an explicit morphism that
completes f to g and is monotone on everything below f.

The word order is the move order.  A move (a, b) copies a pivot-free
column, so neither band a of Phi(h') nor the copy has a masked row, and
``insert_successor`` keeps the draft's free rows: iota of the successor is
iota(h) with letter a copied after position b, dominated by the original.
So f <= g implies iota(f) <= iota(g).  Conversely, let s = iota(f) embed in
t = iota(g) with f.n < g.n, and let j be the first position of t that the
embedding leaves unmatched.  Dominance makes t_j equal to a letter s_a
matched before j; with b the number of letters matched before j, a <= b.
t_j has no masked row, since two columns of g with equal masked letters
would carry the same pivot, so column a of f is pivot-free, (a, b) is a
valid move, and its successor's word, s with s_a copied after position b,
embeds in t with the copy at j.  By induction, and as iota is injective,
f <= g.  So a move whose successor's word embeds in iota(g) never leads to
a dead end, and ``partial_leq`` builds its chain in one forward pass.

The successor comes from the canonical splitting psi of its pivot sets: for
g'' the duplicated f'' and X the duplicated f', X + psi (I - g'' X) splits
g'' and keeps the free rows of X.

Leads move only along completions: the completion of a move on f keeps
everything below f below, but post-composition in general does not keep
the total order (over F2, f < f' in OVIC(1, 2) and phi o f > phi o f' for a
phi in OVIC(2, 3)), so init(phi o x) need not be phi o init(x).  No other
order would do: over F2 (and F3, Z4) there are f != g in OVIC(1, 2) and
phi1, phi2 in OVIC(2, 3) with phi1 o f = phi2 o g and phi1 o g = phi2 o f,
so f < g would force both phi2 o g < phi2 o f and phi2 o f < phi2 o g.
Hom(1, -) admits no order compatible with post-composition, and leads rest
on completions alone.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

from .errors import (
    InvalidChain,
    InvalidMove,
    NotColumnAdapted,
    SearchBudgetExceeded,
    SourceMismatch,
)
from .ovic import (
    OvicMorphism,
    canonical_splitting,
    compose_vic,
    free_rows,
)
from .records import FrozenRecord
from .rings import RMatrix, matvec

LT, EQ, GT = -1, 0, 1
_COMPARE_NAMES = {LT: "LT", EQ: "EQ", GT: "GT"}


def compare_name(value: int) -> str:
    return _COMPARE_NAMES[value]


def total_compare(f: OvicMorphism, g: OvicMorphism) -> int:
    """LT/EQ/GT under the cascade: rank, pivot-set tuple, columns of the
    embedded splitting, free rows of the embedded injection."""
    if f.ring is not g.ring or f.d != g.d:
        raise SourceMismatch(f"cannot compare source ranks {f.d} and {g.d}")
    a, b = f.order_key, g.order_key
    return LT if a < b else (GT if a > b else EQ)


class InsertionMove(FrozenRecord):
    """Duplicate column ``a`` of the splitting, placing the copy after
    position ``b``; both 1-based with a <= b <= rank."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _pivot_free_columns(f: OvicMorphism) -> list[int]:
    """Columns a of f'' holding no pivot: no standard index of their band is
    a dependent row of Phi(f')."""
    mu = f.emb.mu_total
    dependent = set(free_rows(f)[1])
    return [a for a in range(1, f.n + 1)
            if dependent.isdisjoint(range((a - 1) * mu + 1, a * mu + 1))]


def valid_moves(f: OvicMorphism) -> list[InsertionMove]:
    """All moves whose duplicated column is pivot-free."""
    return [InsertionMove(a, b) for a in _pivot_free_columns(f) for b in range(a, f.n + 1)]


def insert_successor(h: OvicMorphism, move: InsertionMove) -> OvicMorphism:
    """Apply one column-duplication move: g'' is f'' with column a copied
    after position b, and X is f' with row a copied there.

    The copy is pivot-free, so the pivot sets of g'' are those of f'' with
    each label past position b moved up one band.  For psi their canonical
    splitting, X + psi (I - g'' X) splits g'' and keeps the free rows of X,
    psi being zero there."""
    a, b = move.a, move.b
    if not (1 <= a <= b <= h.n):
        raise InvalidMove(f"move ({a}, {b}) out of range for rank {h.n}")
    if a not in _pivot_free_columns(h):
        raise InvalidMove(f"column {a} is a pivot column")
    emb = h.emb
    g_dprime = h.f_dprime.insert_col(b, h.f_dprime.col(a - 1))
    draft = h.f_prime.insert_row(b, h.f_prime.row(a - 1))
    s_sets = tuple(tuple(j + m if j > b * m else j for j in pivots)
                   for m, pivots in zip(emb.mu, h.s_sets))
    psi = canonical_splitting(s_sets, emb, m=h.n + 1, n=h.d)
    ident = RMatrix.identity(h.ring, h.d)
    if g_dprime.mul(psi) != ident:
        raise NotColumnAdapted("the successor's splitting is not column-adapted")  # bug guard
    f_prime = draft.add(psi.mul(ident.sub(g_dprime.mul(draft))))
    return OvicMorphism(f_prime, g_dprime, emb, s_sets=s_sets, check=False)


def partial_leq(f: OvicMorphism, g: OvicMorphism,
                node_cap: int = 10 ** 6) -> Optional[list[InsertionMove]]:
    """A witnessing move chain from f to g, or None.

    f <= g exactly when iota(f) <= iota(g) (see the module docstring), so a
    pair whose words do not embed is answered before any move is tried, and
    otherwise the chain is built forward: at each step, the first valid move
    in (a, b) order whose successor's word (known before it is built) still
    embeds in iota(g), until rank g.n.  Raises SearchBudgetExceeded rather
    than try more than ``node_cap`` moves, embedding or not (an "unknown"
    signal, never a wrong answer).
    """
    if f.ring is not g.ring or f.d != g.d:
        raise SourceMismatch("different source data")
    if f == g:
        return []
    if f.n >= g.n:
        return None
    g_word = iota(g).letters
    word = iota(f).letters
    if not word_leq_letters(word, g_word):
        return None
    chain = []
    nodes = 0
    h = f
    while h.n < g.n:
        for move in valid_moves(h):
            nodes += 1
            if nodes > node_cap:
                raise SearchBudgetExceeded(f"gave up after {node_cap} nodes")
            step = word[:move.b] + (word[move.a - 1],) + word[move.b:]
            if word_leq_letters(step, g_word):
                break
        else:
            raise InvalidChain("no move keeps the word embedded")  # bug guard
        h, word = insert_successor(h, move), step
        chain.append(move)
    if h != g:
        raise InvalidChain("the chain does not end at g")  # bug guard
    return chain


# ---------------------------------------------------------------------------
# word embedding
# ---------------------------------------------------------------------------

CLUB = None  # sentinel for masked (dependent-row) entries


class Word(FrozenRecord):
    """Image of a morphism: one letter per target-rank slot, each letter a
    (masked row band of the embedded injection, splitting column) pair."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple):
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def to_payload(self) -> list:
        return [
            {
                "m1": [["club" if v is CLUB else v for v in row] for row in m1],
                "m2": list(m2),
            }
            for m1, m2 in self.letters
        ]


def iota(f: OvicMorphism) -> Word:
    """One letter per column: the mu-row band of Phi(f') with dependent rows
    masked, paired with the matching column of f''."""
    mu = f.emb.mu_total
    big = f.emb.phi_on_matrices(f.f_prime)
    _, dependent = free_rows(f)
    dep = set(dependent)
    letters = []
    for t in range(f.n):
        band = []
        for r in range(t * mu + 1, (t + 1) * mu + 1):
            if r in dep:
                band.append(tuple([CLUB] * big.cols))
            else:
                band.append(big.row(r - 1))
        letters.append((tuple(band), f.f_dprime.col(t)))
    return Word(tuple(letters))


def word_leq_letters(s: Sequence[Hashable], t: Sequence[Hashable]) -> bool:
    """Subsequence embedding with dominance: s embeds into t strictly
    increasingly, and every letter of t left unmatched equals a letter of s
    matched before it.

    One greedy scan decides it: match each s_i at the first equal letter of
    t not yet passed.  Matching early only grows the set of matched letters
    that may dominate later positions, so an embedding exists exactly when
    the greedy one does."""
    n = len(s)
    i = 0
    matched = set()
    for letter in t:
        if i < n and s[i] == letter:
            matched.add(letter)
            i += 1
        elif letter not in matched:
            return False
    return i == n


def word_leq(s: Word, t: Word) -> bool:
    return word_leq_letters(s.letters, t.letters)


# ---------------------------------------------------------------------------
# the completion morphism
# ---------------------------------------------------------------------------

def elementary_phi(f: OvicMorphism, move: InsertionMove) -> OvicMorphism:
    """The rank-raising morphism attached to one move on f.

    Writing chat for the canonical-splitting image of the duplicated column:
    the splitting part is the identity with chat inserted after position b;
    the injection part is the identity with chat subtracted from column a and
    a unit row inserted after row b.
    """
    a, b = move.a, move.b
    if not (1 <= a <= b <= f.n):
        raise InvalidMove(f"move ({a}, {b}) out of range for rank {f.n}")
    ring = f.ring
    n = f.n
    psi = canonical_splitting(f.s_sets, f.emb, m=n, n=f.d)
    chat = matvec(ring, psi, f.f_dprime.col(a - 1))
    ident = RMatrix.identity(ring, n)
    phi_dprime = ident.insert_col(b, chat)
    rows = [list(ident.row(r)) for r in range(n)]
    for r in range(n):
        rows[r][a - 1] = ring.sub(rows[r][a - 1], chat[r])
    unit_row = [ring.one if c == a - 1 else ring.zero for c in range(n)]
    rows.insert(b, unit_row)
    phi_prime = RMatrix.from_rows(ring, rows, cols=n)
    return OvicMorphism(phi_prime, phi_dprime, f.emb)


def build_phi(f: OvicMorphism, chain: Sequence[InsertionMove],
              expect: Optional[OvicMorphism] = None) -> OvicMorphism:
    """Compose one elementary step per move; the result phi satisfies
    phi o f = (chain applied to f), and h < f implies phi o h < phi o f."""
    current = f
    phi = OvicMorphism.identity(f.emb, f.n)
    for move in chain:
        try:
            step = elementary_phi(current, move)
            nxt = insert_successor(current, move)
        except InvalidMove as exc:
            raise InvalidChain(str(exc))
        if compose_vic(step, current) != nxt:
            raise InvalidChain(f"step {move} does not reproduce the move")  # bug guard
        phi = compose_vic(step, phi)
        current = nxt
    if expect is not None and current != expect:
        raise InvalidChain("chain does not lead to the expected morphism")
    return phi
