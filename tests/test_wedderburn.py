"""Decomposition, lifting, conjugators, and the embedding into Mat_mu(R)."""

from __future__ import annotations

import random

import pytest

from vicbench.errors import NotIdempotent, NotSemisimple, RecoverOutsideImage
from vicbench.rings import (
    BUILTIN_NAMES,
    RMatrix,
    build_ring,
    builtin_ring,
    matrix_ring,
    quotient_by_radical,
    zmod,
)
from vicbench.wedderburn import (
    build_aw_embedding,
    find_conjugator,
    lift_idempotent,
    lift_system,
    primitive_orthogonal_idempotents,
    semisimple_decompose,
    verify_embedding,
)

EXPECTED_SHAPES = {
    # name -> (q, mu, field_orders); frozen from exhaustive idempotent search
    "F2": (1, (1,), (2,)),
    "F3": (1, (1,), (3,)),
    "Z4": (1, (1,), (2,)),
    "Z8": (1, (1,), (2,)),
    "F2C2": (1, (1,), (2,)),
    "T2F2": (2, (1, 1), (2, 2)),
    "M2F2": (1, (2,), (2,)),
    "F2S3": (2, (1, 2), (2, 2)),
}


def test_decompose_examples():
    for name in ("Z4", "T2F2", "M2F2"):
        dec = semisimple_decompose(quotient_by_radical(builtin_ring(name)))
        assert (dec.q, dec.mu, dec.field_orders) == EXPECTED_SHAPES[name]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_decompose_shapes(name):
    dec = semisimple_decompose(quotient_by_radical(builtin_ring(name)))
    assert (dec.q, dec.mu, dec.field_orders) == EXPECTED_SHAPES[name]
    total = 1
    for d, m in zip(dec.field_orders, dec.mu):
        total *= d ** (m * m)
    assert total == quotient_by_radical(builtin_ring(name)).quotient.size


def test_decompose_requires_semisimple(z4):
    q = quotient_by_radical(z4)
    fake = type(q)(q.source, q.ideal, q.source, tuple(range(4)), tuple(range(4)), 2)
    with pytest.raises(NotSemisimple):
        semisimple_decompose(fake)


def test_primitive_idempotents_complete(m2f2):
    q = quotient_by_radical(m2f2)
    prims = primitive_orthogonal_idempotents(q.quotient)
    assert len(prims) == 2
    s = q.quotient.zero
    for e in prims:
        s = q.quotient.add(s, e)
    assert s == q.quotient.one


def test_conjugator_search(m2f2):
    q = quotient_by_radical(m2f2)
    e1, e2 = primitive_orthogonal_idempotents(q.quotient)
    pair = find_conjugator(q.quotient, e1, e2)
    assert pair is not None
    a, b = pair
    assert q.quotient.mul(a, b) == e1 and q.quotient.mul(b, a) == e2


def test_lift_idempotent_trivial(z4):
    q = quotient_by_radical(z4)
    assert lift_idempotent(q, q.projection[z4.one]) == z4.one
    assert lift_idempotent(q, q.projection[z4.zero]) == z4.zero


def test_lift_idempotent_rejects_non_idempotent(f3):
    q = quotient_by_radical(f3)
    with pytest.raises(NotIdempotent):
        lift_idempotent(q, q.projection[2])  # 2^2 = 1 != 2 in F3


def test_lift_idempotent_m2z4():
    """Start from a non-idempotent preimage; the oracle is exhaustive search
    for idempotents in the coset start + Mat(J)."""
    ring = matrix_ring(zmod(4), 2)
    q = quotient_by_radical(ring)
    e11 = next(
        x for x in ring.elements()
        if ring.label(x) == "[1,0;0,0]"
    )
    ebar = q.projection[e11]
    assert q.quotient.mul(ebar, ebar) == ebar
    # diag(1, 2): reduces to ebar but is not idempotent
    start = next(x for x in ring.elements() if ring.label(x) == "[1,0;0,2]")
    assert q.projection[start] == ebar
    assert ring.mul(start, start) != start
    e = lift_idempotent(q, ebar, start=start)
    assert ring.mul(e, e) == e and q.projection[e] == ebar
    coset = sorted(ring.add(start, j) for j in q.ideal.sorted_members)
    oracle = {x for x in coset if ring.mul(x, x) == x}
    assert e in oracle


def test_lift_system_t2f2(t2f2):
    q = quotient_by_radical(t2f2)
    dec = semisimple_decompose(q)
    lifted = lift_system(q, dec.idempotents_bar)
    flat = [e for grp in lifted for e in grp]
    assert len(flat) == 2
    s = t2f2.zero
    for e in flat:
        s = t2f2.add(s, e)
        assert t2f2.mul(e, e) == e
    assert s == t2f2.one
    a, b = flat
    assert t2f2.mul(a, b) == t2f2.zero and t2f2.mul(b, a) == t2f2.zero


def test_lift_system_identity_on_semisimple(m2f2):
    q = quotient_by_radical(m2f2)
    dec = semisimple_decompose(q)
    lifted = lift_system(q, dec.idempotents_bar)
    # J = 0: bar map is bijective, lifts are the sections themselves
    for grp, grp_bar in zip(lifted, dec.idempotents_bar):
        assert grp == tuple(q.section[e] for e in grp_bar)


def test_lift_system_zmod4(z4):
    q = quotient_by_radical(z4)
    assert lift_system(q, ((q.projection[1],),)) == ((1,),)


def test_embedding_zmod_is_identity(f2, z4):
    for ring in (f2, z4):
        emb = build_aw_embedding(ring)
        assert emb.mu_total == 1
        for x in ring.elements():
            assert emb.phi(x) == RMatrix(ring, 1, 1, [x])


def test_embedding_t2f2_block_structure(t2f2):
    emb = build_aw_embedding(t2f2)
    assert emb.mu_total == 2
    e12 = 2  # strictly upper triangular generator
    m = emb.phi(e12)
    nonzero = [(r, c) for r in range(2) for c in range(2)
               if m.get(r, c) != t2f2.zero]
    # exactly one nonzero entry, in an off-diagonal block, inside the radical
    # (which off-diagonal block depends on the deterministic block sort)
    assert len(nonzero) == 1
    r, c = nonzero[0]
    assert r != c
    assert m.get(r, c) in quotient_by_radical(t2f2).ideal.members


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_embedding_invariants(name):
    emb = build_aw_embedding(builtin_ring(name))
    flags = verify_embedding(emb, rng=random.Random(0), roundtrip_samples=100)
    bad = [k for k, v in flags.items() if not v]
    assert not bad, f"failed invariants for {name}: {bad}"


def test_recover_outside_image(t2f2):
    emb = build_aw_embedding(t2f2)
    # phi(x) always has its (0,1) entry in L_01; force a violation
    bad = RMatrix(t2f2, 2, 2, [t2f2.one, t2f2.one, t2f2.zero, t2f2.one])
    with pytest.raises(RecoverOutsideImage):
        emb.recover(bad)


def test_embedding_deterministic(t2f2):
    assert build_aw_embedding(t2f2) is build_aw_embedding(t2f2)  # cached
    # two rings built apart: distinct embeddings, the same choices
    emb1, emb2 = (build_aw_embedding(build_ring("group_ring(zmod(2),s3)"))
                  for _ in range(2))
    assert emb1 is not emb2
    assert emb1.idempotents == emb2.idempotents
    assert emb1.conjugators == emb2.conjugators
    assert ([emb1.phi(x).entries for x in emb1.ring.elements()]
            == [emb2.phi(x).entries for x in emb2.ring.elements()])
