"""Block decomposition of R/J(R), idempotent lifting, and the embedding
of R into Mat_mu(R) induced by a complete orthogonal idempotent system.

The pipeline is: quotient by the radical, find a complete set of primitive
orthogonal idempotents of the (semisimple) quotient, group them into blocks
by right-module isomorphism, lift everything to R, and fix conjugators that
identify each corner with the block's corner ring.  All choices are made
deterministically (smallest element index first) so the embedding is
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    BadShape,
    ConjugatorNotFound,
    DecompositionFailed,
    NoConvergence,
    NotIdempotent,
    NotSemisimple,
    RecoverOutsideImage,
)
from .rings import (
    FiniteRing,
    QuotientData,
    RMatrix,
    jacobson_radical,
    quotient_by_radical,
)


def corner_set(ring: FiniteRing, e: int, f: int) -> tuple[int, ...]:
    """The additive subgroup e*R*f as a sorted element tuple."""
    return tuple(sorted({ring.mul(ring.mul(e, x), f) for x in ring.elements()}))


def _idempotents(ring: FiniteRing) -> list[int]:
    return [x for x in ring.elements() if ring.mul(x, x) == x]


def _is_primitive(ring: FiniteRing, e: int) -> bool:
    corner = corner_set(ring, e, e)
    idems = {x for x in corner if ring.mul(x, x) == x}
    return idems == {ring.zero, e}


def primitive_orthogonal_idempotents(ring: FiniteRing) -> list[int]:
    """Greedy complete set of primitive orthogonal idempotents.

    At each step the smallest-index primitive idempotent of the remaining
    corner c*R*c is taken; elements of that corner are automatically
    orthogonal to everything already chosen.
    """
    idems = _idempotents(ring)
    out: list[int] = []
    c = ring.one
    for _ in range(ring.size + 1):
        if c == ring.zero:
            break
        pick = None
        for e in idems:
            if e == ring.zero:
                continue
            if ring.mul(c, e) == e and ring.mul(e, c) == e and _is_primitive(ring, e):
                pick = e
                break
        if pick is None:
            raise DecompositionFailed("no primitive idempotent found in corner")
        out.append(pick)
        c = ring.sub(c, pick)
    else:
        raise DecompositionFailed("corner descent did not terminate")
    return out


def find_conjugator(ring: FiniteRing, e1: int, ei: int) -> Optional[tuple[int, int]]:
    """Search (a, b) with a in e1*R*ei, b in ei*R*e1, a*b = e1, b*a = ei.

    Such a pair exists iff the right modules e1*R and ei*R are isomorphic;
    the first pair in element-index order is returned.
    """
    left = corner_set(ring, e1, ei)
    right = corner_set(ring, ei, e1)
    for a in left:
        for b in right:
            if ring.mul(a, b) == e1 and ring.mul(b, a) == ei:
                return a, b
    return None


@dataclass(frozen=True)
class CornerField:
    """The corner ring ebar*Rbar*ebar of a primitive idempotent, as a field."""

    ring: FiniteRing
    one: int
    elements: tuple[int, ...]
    inverses: dict

    @property
    def zero(self) -> int:
        return self.ring.zero

    @property
    def order(self) -> int:
        return len(self.elements)

    def add(self, a: int, b: int) -> int:
        return self.ring.add(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.ring.sub(a, b)

    def mul(self, a: int, b: int) -> int:
        return self.ring.mul(a, b)

    def inv(self, a: int) -> int:
        return self.inverses[a]


def _build_corner_field(ring: FiniteRing, ebar: int) -> CornerField:
    elems = corner_set(ring, ebar, ebar)
    inverses = {}
    for x in elems:
        if x == ring.zero:
            continue
        for y in elems:
            if ring.mul(x, y) == ebar and ring.mul(y, x) == ebar:
                inverses[x] = y
                break
        else:
            raise DecompositionFailed(f"corner element {x} has no inverse; not a division ring")
    for x in elems:
        for y in elems:
            if ring.mul(x, y) != ring.mul(y, x):
                raise DecompositionFailed(f"corner not commutative at ({x}, {y})")
    return CornerField(ring, ebar, elems, inverses)


@dataclass(frozen=True)
class Decomposition:
    """Block data of a semisimple ring: q blocks, multiplicities, the corner
    field of each block, grouped primitive idempotents."""

    q: int
    mu: tuple[int, ...]
    corner_fields: tuple[CornerField, ...]
    idempotents_bar: tuple[tuple[int, ...], ...]

    @property
    def field_orders(self) -> tuple[int, ...]:
        return tuple(f.order for f in self.corner_fields)


def semisimple_decompose(q: QuotientData) -> Decomposition:
    rbar = q.quotient
    if jacobson_radical(rbar).members != {rbar.zero}:
        raise NotSemisimple(f"{rbar.name} has nonzero radical")
    prims = primitive_orthogonal_idempotents(rbar)

    # group by right-module isomorphism (conjugator search is complete:
    # every module map ei*R -> ej*R is a left multiplication)
    classes: list[list[int]] = []
    for e in prims:
        for cls in classes:
            if find_conjugator(rbar, cls[0], e) is not None:
                cls.append(e)
                break
        else:
            classes.append([e])

    for cls in classes:
        cls.sort()
    keyed = sorted(
        classes,
        key=lambda cls: (len(corner_set(rbar, cls[0], cls[0])), len(cls), cls[0]),
    )
    mu = tuple(len(cls) for cls in keyed)
    fields = tuple(_build_corner_field(rbar, cls[0]) for cls in keyed)
    field_orders = tuple(f.order for f in fields)

    # Exhaustive isomorphism-class verification across the final grouping.
    flat = [(k, e) for k, cls in enumerate(keyed) for e in cls]
    for k1, e1 in flat:
        for k2, e2 in flat:
            same = find_conjugator(rbar, e1, e2) is not None
            if same != (k1 == k2):
                raise DecompositionFailed(
                    f"module isomorphism classes inconsistent at ({e1}, {e2})"
                )
    # |ebar * Rbar| must be |D_k|^mu_k per block
    for k, cls in enumerate(keyed):
        for e in cls:
            module = {rbar.mul(e, x) for x in rbar.elements()}
            if len(module) != field_orders[k] ** mu[k]:
                raise DecompositionFailed(f"|e*Rbar| wrong for idempotent {e}")
    total = 1
    for d, m in zip(field_orders, mu):
        total *= d ** (m * m)
    if total != rbar.size:
        raise DecompositionFailed("block sizes do not multiply up to |Rbar|")
    return Decomposition(len(keyed), mu, fields, tuple(tuple(c) for c in keyed))


def lift_idempotent(q: QuotientData, ebar: int, start: Optional[int] = None) -> int:
    """Lift an idempotent of the quotient to R via x <- 3x^2 - 2x^3.

    Each step preserves the residue mod J and squares the accuracy, so
    convergence is guaranteed within ~log2(nilpotency) steps.
    """
    rbar = q.quotient
    if rbar.mul(ebar, ebar) != ebar:
        raise NotIdempotent(f"{ebar} is not idempotent in the quotient")
    ring = q.source
    x = q.section[ebar] if start is None else start
    if q.projection[x] != ebar:
        raise NotIdempotent(f"start value {x} does not reduce to {ebar}")
    max_steps = max(1, q.nilpotency).bit_length() + 2
    steps = 0
    while ring.mul(x, x) != x:
        x2 = ring.mul(x, x)
        x3 = ring.mul(x2, x)
        three_x2 = ring.add(ring.add(x2, x2), x2)
        x = ring.sub(three_x2, ring.add(x3, x3))
        steps += 1
        if steps > max_steps:
            raise NoConvergence(f"no idempotent after {steps} Newton steps")
    if q.projection[x] != ebar:
        raise NoConvergence("lift drifted to a different residue")  # bug guard
    return x


def lift_system(
    q: QuotientData, groups: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Lift a complete orthogonal idempotent system of the quotient to R.

    Lifting happens sequentially inside the shrinking corner (1-s)R(1-s),
    which keeps each new lift orthogonal to all previous ones.
    """
    rbar = q.quotient
    ring = q.source
    flat = [e for grp in groups for e in grp]
    total = rbar.zero
    for i, e in enumerate(flat):
        if rbar.mul(e, e) != e:
            raise NotIdempotent(f"input {e} not idempotent")
        for f in flat[i + 1:]:
            if rbar.mul(e, f) != rbar.zero or rbar.mul(f, e) != rbar.zero:
                raise NotIdempotent(f"inputs {e}, {f} not orthogonal")
        total = rbar.add(total, e)
    if total != rbar.one:
        raise NotIdempotent("input system does not sum to 1")

    lifted_flat: list[int] = []
    c = ring.one
    for ebar in flat:
        x0 = ring.mul(ring.mul(c, q.section[ebar]), c)
        e = lift_idempotent(q, ebar, start=x0)
        lifted_flat.append(e)
        c = ring.sub(c, e)

    s = ring.zero
    for i, e in enumerate(lifted_flat):
        if ring.mul(e, e) != e or q.projection[e] != flat[i]:
            raise NoConvergence("lifted system broken")  # bug guard
        for f in lifted_flat[i + 1:]:
            if ring.mul(e, f) != ring.zero or ring.mul(f, e) != ring.zero:
                raise NoConvergence("lifted system not orthogonal")  # bug guard
        s = ring.add(s, e)
    if s != ring.one:
        raise NoConvergence("lifted system does not sum to 1")  # bug guard

    out = []
    pos = 0
    for grp in groups:
        out.append(tuple(lifted_flat[pos:pos + len(grp)]))
        pos += len(grp)
    return tuple(out)


def _block_table(ring: FiniteRing, a: Sequence[int], b: Sequence[int]) -> tuple:
    """Per element x of ``ring``, the row-major block (a_p * x * b_s)."""
    return tuple(tuple(ring.mul(ring.mul(ap, x), bs) for ap in a for bs in b)
                 for x in ring.elements())


class AWEmbedding:
    """The embedding x -> (a_i^h x b_j^k) of R into Mat_mu(R).

    Built from ``ring`` by the full pipeline: radical, quotient, block
    decomposition, lifted complete orthogonal idempotent system
    (``idempotents``, block-major, over ``idempotents_bar`` in R/J),
    conjugators (a, b) with a*b = e_1 and b*a = e_i per block, and the
    corner groups ``blocks[(h, k)]`` = L_hk = e_h R e_k of the first
    idempotents.

    ``phi`` is an injective ring homomorphism whose image consists of the
    matrices with (h,k)-block entries in L_hk; the image identity is the
    diagonal idempotent pattern phi(1), not the literal identity matrix.
    ``recover`` inverts ``phi_on_matrices`` on that image.
    """

    def __init__(self, ring: FiniteRing):
        q = quotient_by_radical(ring)
        dec = semisimple_decompose(q)
        lifted = lift_system(q, dec.idempotents_bar)
        conjugators = []
        for k in range(dec.q):
            e1 = lifted[k][0]
            per_block = [(e1, e1)]
            for i in range(1, dec.mu[k]):
                pair = find_conjugator(ring, e1, lifted[k][i])
                if pair is None:
                    raise ConjugatorNotFound(
                        f"no conjugator between idempotents {e1} and {lifted[k][i]}"
                    )
                per_block.append(pair)
            conjugators.append(tuple(per_block))
        blocks = {
            (h, k): frozenset(corner_set(ring, lifted[h][0], lifted[k][0]))
            for h in range(dec.q)
            for k in range(dec.q)
        }
        # L_hk lands in the radical off the diagonal, and L_kk covers D_k mod J
        proj = q.projection
        rbar = q.quotient
        for h in range(dec.q):
            for k in range(dec.q):
                if h != k:
                    if not blocks[(h, k)] <= q.ideal.members:
                        raise DecompositionFailed(f"block ({h},{k}) not inside the radical")
                else:
                    reduced = {proj[x] for x in blocks[(k, k)]}
                    if reduced != set(corner_set(rbar, dec.idempotents_bar[k][0],
                                                 dec.idempotents_bar[k][0])):
                        raise DecompositionFailed(f"block ({k},{k}) does not reduce onto D_{k}")

        self.ring = ring
        self.qdata = q
        self.q = dec.q
        self.mu = dec.mu
        self.mu_total = sum(dec.mu)
        self.corner_fields = dec.corner_fields
        self.idempotents_bar = dec.idempotents_bar
        self.idempotents = lifted
        self.conjugators = tuple(conjugators)
        self.blocks = blocks
        # block of each flat distinguished position, in block-major order
        self.block_of = tuple(k for k in range(dec.q) for _ in range(dec.mu[k]))
        self._a = tuple(a for conj in conjugators for a, _ in conj)
        self._b = tuple(b for conj in conjugators for _, b in conj)
        self._phi_entry = _block_table(ring, self._a, self._b)
        self._phi_bar_entry = _block_table(rbar, [proj[a] for a in self._a],
                                           [proj[b] for b in self._b])
        # filled by the enumerators in ``noether``: OVIC strata, GL_d, and
        # the per-f'' data of each stratum; and by ``ovic``: the canonical
        # splitting of each pivot pattern
        self.enum_cache: dict = {}

    @property
    def field_orders(self) -> tuple[int, ...]:
        return tuple(f.order for f in self.corner_fields)

    @property
    def phi_bar_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Per element x of R/J, the row-major mu x mu block Phi_bar(x) that
        ``phi_bar_on_matrices`` puts in place of an entry x."""
        return self._phi_bar_entry

    # -- scalar level -------------------------------------------------------

    def phi(self, x: int) -> RMatrix:
        mu = self.mu_total
        return RMatrix(self.ring, mu, mu, self._phi_entry[x])

    def psi(self, y: int) -> RMatrix:
        """Column vector embedding R -> R^mu compatible with phi (left action)."""
        ring = self.ring
        return RMatrix(self.ring, self.mu_total, 1,
                       [ring.mul(a, y) for a in self._a])

    def identity_pattern(self, n: int) -> RMatrix:
        return self.phi_on_matrices(RMatrix.identity(self.ring, n))

    # -- matrix level ---------------------------------------------------------

    def phi_on_matrices(self, m: RMatrix) -> RMatrix:
        return self._embed(m, self.ring, self._phi_entry)

    def phi_bar_on_matrices(self, m: RMatrix) -> RMatrix:
        return self._embed(m, self.qdata.quotient, self._phi_bar_entry)

    def _embed(self, m: RMatrix, ring: FiniteRing, table) -> RMatrix:
        """Replace each entry x of ``m`` by the mu x mu block ``table[x]``."""
        mu = self.mu_total
        out = [ring.zero] * (mu * m.rows * mu * m.cols)
        big_cols = mu * m.cols
        for r in range(m.rows):
            for c in range(m.cols):
                ent = table[m.get(r, c)]
                for p in range(mu):
                    dst = (mu * r + p) * big_cols + mu * c
                    src = p * mu
                    out[dst:dst + mu] = ent[src:src + mu]
        return RMatrix(ring, mu * m.rows, mu * m.cols, out)

    def recover(self, big: RMatrix) -> RMatrix:
        """Inverse of phi_on_matrices on its image; raises otherwise."""
        mu = self.mu_total
        if big.rows % mu or big.cols % mu:
            raise BadShape(f"matrix shape {big.rows}x{big.cols} is not a multiple of mu={mu}")
        n, m = big.rows // mu, big.cols // mu
        ring = self.ring
        b, a = self._b, self._a
        out = []
        for r in range(n):
            for c in range(m):
                acc = ring.zero
                for p in range(mu):
                    for s in range(mu):
                        term = ring.mul(ring.mul(b[p], big.get(mu * r + p, mu * c + s)), a[s])
                        acc = ring.add(acc, term)
                out.append(acc)
        result = RMatrix(ring, n, m, out)
        if self.phi_on_matrices(result) != big:
            raise RecoverOutsideImage("matrix is not in the image of the embedding")
        return result

    def in_block(self, h: int, k: int, value: int) -> bool:
        return value in self.blocks[(h, k)]


def build_aw_embedding(ring: FiniteRing) -> AWEmbedding:
    """The embedding of ``ring``, built on first use and cached on the ring."""
    if ring._aw is None:
        ring._aw = AWEmbedding(ring)
    return ring._aw


def verify_embedding(emb: AWEmbedding, rng: Optional[random.Random] = None,
                     roundtrip_samples: int = 500) -> dict:
    """Executable invariant checks; returns {flag_name: bool}.

    Homomorphism/action checks run over all pairs when |R| <= 64, otherwise
    over 2000 seeded samples.
    """
    ring = emb.ring
    rng = rng or random.Random(0)
    flags = {}

    flat = [e for grp in emb.idempotents for e in grp]
    ok = all(ring.mul(e, e) == e for e in flat)
    s = ring.zero
    for i, e in enumerate(flat):
        for f in flat[i + 1:]:
            ok = ok and ring.mul(e, f) == ring.zero and ring.mul(f, e) == ring.zero
        s = ring.add(s, e)
    flags["complete_orthogonal_system"] = ok and s == ring.one

    proj = emb.qdata.projection
    flags["idempotents_reduce"] = all(
        proj[e] == ebar
        for grp, grp_bar in zip(emb.idempotents, emb.idempotents_bar)
        for e, ebar in zip(grp, grp_bar)
    )

    conj_ok = True
    for k in range(emb.q):
        e1 = emb.idempotents[k][0]
        for i, (a, b) in enumerate(emb.conjugators[k]):
            ei = emb.idempotents[k][i]
            conj_ok = conj_ok and ring.mul(a, b) == e1 and ring.mul(b, a) == ei
    flags["conjugator_identities"] = conj_ok

    total = 1
    for d, m in zip(emb.field_orders, emb.mu):
        total *= d ** (m * m)
    flags["counting_identity"] = total == emb.qdata.quotient.size

    if ring.size <= 64:
        pairs = [(x, y) for x in ring.elements() for y in ring.elements()]
    else:
        pairs = [(rng.randrange(ring.size), rng.randrange(ring.size))
                 for _ in range(2000)]
    phis = {x: emb.phi(x) for x in ring.elements()}
    flags["phi_additive"] = all(
        phis[ring.add(x, y)] == phis[x].add(phis[y]) for x, y in pairs
    )
    flags["phi_multiplicative"] = all(
        phis[ring.mul(x, y)] == phis[x].mul(phis[y]) for x, y in pairs
    )
    flags["phi_injective"] = len({phis[x] for x in ring.elements()}) == ring.size

    unit = emb.identity_pattern(1)
    flags["phi_unit_pattern"] = phis[ring.one] == unit and all(
        unit.mul(phis[x]) == phis[x] and phis[x].mul(unit) == phis[x]
        for x in ring.elements()
    )

    rad = emb.qdata.ideal.members
    off = True
    block_ok = True
    mu = emb.mu_total
    for x in ring.elements():
        px = phis[x]
        for p in range(mu):
            for s in range(mu):
                h, k = emb.block_of[p], emb.block_of[s]
                v = px.get(p, s)
                block_ok = block_ok and emb.in_block(h, k, v)
                if h != k:
                    off = off and v in rad
    flags["offdiagonal_blocks_in_radical"] = off
    flags["entries_in_blocks"] = block_ok

    flags["module_action_compatible"] = all(
        phis[x].mul(emb.psi(y)) == emb.psi(ring.mul(x, y)) for x, y in pairs
    )

    ok = True
    for _ in range(roundtrip_samples):
        n = rng.randrange(0, 4)
        m = rng.randrange(0, 4)
        mat = RMatrix(ring, n, m,
                      [rng.randrange(ring.size) for _ in range(n * m)])
        ok = ok and emb.recover(emb.phi_on_matrices(mat)) == mat
    flags["recover_roundtrip"] = ok
    return flags
