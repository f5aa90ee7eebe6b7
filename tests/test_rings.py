"""Ring layer: tables, units, radical, quotients, matrix invertibility.

Expected values marked as derived in the examples were computed with the
brute-force oracles defined at the top of this file and then frozen.
"""

from __future__ import annotations

import itertools

import pytest

from vicbench.errors import InvalidTables, NotSquare, SizeCapExceeded
from vicbench.rings import (
    BUILTIN_NAMES,
    FiniteRing,
    IdealSet,
    RMatrix,
    build_ring,
    builtin_ring,
    ideal_closure,
    iter_vectors,
    jacobson_radical,
    matrix_invertible,
    matrix_ring,
    matvec,
    nilpotency_index,
    product_ring,
    quotient_by_radical,
    upper_triangular,
    zmod,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_unit(ring, x):
    """Exhaustive two-sided inverse search."""
    for y in ring.elements():
        if ring.mul(x, y) == ring.one and ring.mul(y, x) == ring.one:
            return y
    return None


def oracle_radical(ring):
    """Definitional triple scan, pure Python."""
    members = set()
    for y in ring.elements():
        if all(
            oracle_unit(ring, ring.sub(ring.one, ring.mul(ring.mul(x, y), z))) is not None
            for x in ring.elements()
            for z in ring.elements()
        ):
            members.add(y)
    return members


def oracle_matrix_inverse(m):
    """Scan every candidate matrix for a two-sided inverse."""
    ring = m.ring
    n = m.rows
    ident = RMatrix.identity(ring, n)
    for entries in itertools.product(ring.elements(), repeat=n * n):
        cand = RMatrix(ring, n, n, entries)
        if m.mul(cand) == ident and cand.mul(m) == ident:
            return cand
    return None


def uptri2_mul(a, b):
    """Direct 2x2 upper-triangular product over F2: triples (x, y, z) = [[x,y],[0,z]]."""
    return ((a[0] * b[0]) % 2, (a[0] * b[1] + a[1] * b[2]) % 2, (a[2] * b[2]) % 2)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_zmod4_tables(z4):
    assert z4.size == 4
    assert z4.add(1, 3) == 0
    assert z4.mul(2, 3) == 2
    assert z4.neg(1) == 3


def test_t2f2_matches_direct_matrix_oracle(t2f2):
    # element i encodes (x, y, z) = [[x, y], [0, z]] with x most significant
    def decode(i):
        return ((i >> 2) & 1, (i >> 1) & 1, i & 1)

    def encode(t):
        return (t[0] << 2) | (t[1] << 1) | t[2]

    for a in t2f2.elements():
        for b in t2f2.elements():
            assert t2f2.mul(a, b) == encode(uptri2_mul(decode(a), decode(b)))
    e12, e22 = encode((0, 1, 0)), encode((0, 0, 1))
    assert t2f2.mul(e12, e22) == e12
    assert t2f2.mul(e22, e12) == t2f2.zero  # noncommutative


def test_m2f2_size(m2f2):
    assert m2f2.size == 16
    assert m2f2.label(m2f2.one) == "[1,0;0,1]"


def test_constructors_deterministic():
    a = upper_triangular(zmod(2), 2)
    b = upper_triangular(zmod(2), 2)
    assert a.same_tables(b)
    assert a.content_hash() == b.content_hash()


def test_product_ring_componentwise():
    r = product_ring(zmod(2), zmod(3))
    assert r.size == 6
    # (1|2) * (1|2) = (1|1)
    a = 1 * 3 + 2
    assert r.mul(a, a) == 1 * 3 + 1


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        matrix_ring(zmod(4), 3)


def test_invalid_tables_reports_law():
    payload = zmod(4).to_payload()
    payload["mul"][1][1] = 2  # breaks 1*1 = 1
    with pytest.raises(InvalidTables) as exc:
        FiniteRing.from_payload(payload)
    assert "mul" in str(exc.value)


def test_invalid_associativity_detected():
    payload = zmod(4).to_payload()
    payload["mul"][2][3] = 3  # 2*3 = 3 breaks associativity/distributivity
    with pytest.raises(InvalidTables):
        FiniteRing.from_payload(payload)


def test_payload_roundtrip(t2f2):
    again = FiniteRing.from_payload(t2f2.to_payload())
    assert again.same_tables(t2f2)
    assert again.labels == t2f2.labels


def test_build_ring_spec_grammar():
    assert build_ring("zmod(4)").same_tables(zmod(4))
    assert build_ring("upper_triangular(zmod(2),2)").same_tables(builtin_ring("T2F2"))
    assert build_ring("T2F2") is builtin_ring("T2F2")
    assert build_ring("group_ring(zmod(2),s3)").same_tables(builtin_ring("F2S3"))
    assert build_ring("product(zmod(2),zmod(3))").size == 6


def test_group_ring_f2c2():
    r = builtin_ring("F2C2")
    assert r.size == 4
    g = 1  # coefficient vector (0,1)
    assert r.mul(g, g) == r.one


# ---------------------------------------------------------------------------
# units and radical
# ---------------------------------------------------------------------------

def test_unit_examples(z4):
    assert z4.is_unit(1)
    assert not z4.is_unit(2)
    assert z4.is_unit(3) and z4.inv(3) == 3  # frozen from oracle: 3*3 = 9 = 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_units_match_oracle(name):
    ring = builtin_ring(name)
    for x in ring.elements():
        assert ring.inv(x) == oracle_unit(ring, x)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_units_closed_under_product(name):
    ring = builtin_ring(name)
    units = [x for x in ring.elements() if ring.is_unit(x)]
    for x in units:
        for y in units:
            assert ring.is_unit(ring.mul(x, y))


def test_radical_examples():
    assert jacobson_radical(zmod(2)).members == {0}
    assert jacobson_radical(builtin_ring("Z4")).members == {0, 2}
    t2f2 = builtin_ring("T2F2")
    assert jacobson_radical(t2f2).members == {0, 2}  # {0, E12}, frozen from oracle


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_radical_matches_definitional_oracle(name):
    ring = builtin_ring(name)
    assert jacobson_radical(ring).members == oracle_radical(ring)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_radical_nilpotent_and_quotient_semisimple(name):
    ring = builtin_ring(name)
    rad = jacobson_radical(ring)
    k = nilpotency_index(ring, rad)
    assert k is not None and k <= ring.size
    q = quotient_by_radical(ring)
    assert oracle_radical(q.quotient) == {q.quotient.zero}


def test_ideal_closure_is_ideal(t2f2):
    ideal = ideal_closure(t2f2, {2})
    ideal.verify()
    assert 2 in ideal.members


def test_ideal_verify_rejects_non_ideals(z4, t2f2):
    """IdealSet.verify is what makes R/J well defined; it must fire."""
    with pytest.raises(InvalidTables) as exc:
        IdealSet(z4, frozenset({0, 1})).verify()
    assert exc.value.law == "ideal_add_closed"
    assert t2f2.label(4) == "[1,0;0,0]"  # E11
    with pytest.raises(InvalidTables) as exc:
        IdealSet(t2f2, frozenset({0, 4})).verify()
    assert exc.value.law == "ideal_mul_closed"


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_zmod4():
    q = quotient_by_radical(builtin_ring("Z4"))
    assert q.quotient.size == 2
    assert q.quotient.same_tables(zmod(2))
    assert q.projection == (0, 1, 0, 1)
    assert q.section == (0, 1)


def test_quotient_t2f2(t2f2):
    q = quotient_by_radical(t2f2)
    assert q.quotient.size == 4
    qr = q.quotient
    idems = [x for x in qr.elements()
             if qr.mul(x, x) == x and x not in (qr.zero, qr.one)]
    assert len(idems) == 2
    a, b = idems
    assert qr.mul(a, b) == qr.zero and qr.mul(b, a) == qr.zero
    assert qr.add(a, b) == qr.one


def test_quotient_m2f2(m2f2):
    q = quotient_by_radical(m2f2)
    assert q.quotient.size == 16
    assert sorted(q.projection) == list(range(16))  # bijective projection


def test_quotient_fibers_are_cosets(z4):
    q = quotient_by_radical(z4)
    jmem = q.ideal.sorted_members
    for x in z4.elements():
        coset = {z4.add(x, j) for j in jmem}
        assert {q.projection[c] for c in coset} == {q.projection[x]}


# ---------------------------------------------------------------------------
# matrices and invertibility
# ---------------------------------------------------------------------------

def test_matrix_ops(z4):
    m = RMatrix.from_rows(z4, [[1, 2], [0, 1]])
    assert m.mul(RMatrix.identity(z4, 2)) == m
    assert m.transpose().to_lists() == [[1, 0], [2, 1]]
    assert matvec(z4, m, (1, 1)) == (3, 1)


def test_matrix_invertible_examples(z4):
    q = quotient_by_radical(z4)
    ok, w = matrix_invertible(RMatrix.identity(z4, 2), q)
    assert ok and w == RMatrix.identity(z4, 2)

    m = RMatrix.from_rows(z4, [[1, 2], [0, 1]])
    ok, w = matrix_invertible(m, q)
    assert ok
    assert w == RMatrix.from_rows(z4, [[1, 2], [0, 1]])  # frozen: m * m = id
    assert m.mul(w) == RMatrix.identity(z4, 2) == w.mul(m)

    ok, w = matrix_invertible(RMatrix.from_rows(z4, [[2, 0], [0, 1]]), q)
    assert not ok and w is None


def test_matrix_invertible_not_square(z4):
    q = quotient_by_radical(z4)
    with pytest.raises(NotSquare):
        matrix_invertible(RMatrix.zeros(z4, 1, 2), q)


@pytest.mark.parametrize("name", ["F2", "F3", "Z4", "F2C2"])
def test_matrix_invertible_agrees_with_bruteforce(name):
    """Exhaustive 2x2 check over every ring of size <= 4."""
    ring = builtin_ring(name)
    q = quotient_by_radical(ring)
    ident = RMatrix.identity(ring, 2)
    for entries in itertools.product(ring.elements(), repeat=4):
        m = RMatrix(ring, 2, 2, entries)
        ok, w = matrix_invertible(m, q)
        oracle = oracle_matrix_inverse(m)
        assert ok == (oracle is not None)
        if ok:
            assert m.mul(w) == ident and w.mul(m) == ident


def test_iter_vectors_count(f2):
    assert len(list(iter_vectors(f2, 3))) == 8
