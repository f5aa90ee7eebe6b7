"""Ring layer: tables, units, radical, quotients, matrix invertibility.

Expected values marked as derived in the examples were computed with the
brute-force oracles defined at the top of this file and then frozen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from spec_rings import spec_rings

from vicbench.errors import InvalidTables, NotSquare, SizeCapExceeded
from vicbench.jsonio import ring_from_payload
from vicbench.rings import (
    BUILTIN_NAMES,
    FiniteRing,
    IdealSet,
    RMatrix,
    _validate_tables,
    build_ring,
    builtin_ring,
    cyclic_group_table,
    additive_closure,
    group_ring,
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
    is_unit = [oracle_unit(ring, t) is not None for t in ring.elements()]
    members = set()
    for y in ring.elements():
        if all(
            is_unit[ring.sub(ring.one, ring.mul(ring.mul(x, y), z))]
            for x in ring.elements()
            for z in ring.elements()
        ):
            members.add(y)
    return members


def _first_witness(bad, offset=0):
    idx = np.argwhere(bad)
    if idx.size == 0:
        return None
    w = idx[0].tolist()
    if offset:
        w[0] += offset
    return tuple(int(v) for v in w)


def oracle_validate_tables(ring, chunk=16):
    """Every ring axiom on all of R^3, vectorised with numpy in row chunks."""
    n = ring.size
    add = np.asarray(ring._add, dtype=np.int32)
    mul = np.asarray(ring._mul, dtype=np.int32)
    for what, tab in (("add", add), ("mul", mul)):
        if tab.min() < 0 or tab.max() >= n:
            raise InvalidTables(f"{what}_entry_range", _first_witness((tab < 0) | (tab >= n)))
    if not (0 <= ring.zero < n and 0 <= ring.one < n):
        raise InvalidTables("identity_index_range")
    if n > 1 and ring.zero == ring.one:
        raise InvalidTables("zero_equals_one")

    idx = np.arange(n, dtype=np.int32)
    if not np.array_equal(add[ring.zero], idx):
        raise InvalidTables("add_identity", _first_witness(add[ring.zero] != idx))
    if not np.array_equal(add, add.T):
        raise InvalidTables("add_commutative", _first_witness(add != add.T))
    if not (add == ring.zero).any(axis=1).all():
        missing = int(np.argmin((add == ring.zero).any(axis=1)))
        raise InvalidTables("add_inverse", (missing,))
    if not np.array_equal(mul[ring.one], idx):
        raise InvalidTables("mul_left_identity", _first_witness(mul[ring.one] != idx))
    if not np.array_equal(mul[:, ring.one], idx):
        raise InvalidTables("mul_right_identity", _first_witness(mul[:, ring.one] != idx))

    for lo in range(0, n, chunk):
        a = np.arange(lo, min(lo + chunk, n), dtype=np.int32)

        lhs = add[add[a, :], :]
        rhs = add[a[:, None, None], add[None, :, :]]
        if not np.array_equal(lhs, rhs):
            raise InvalidTables("add_associative", _first_witness(lhs != rhs, lo))

        lhs = mul[mul[a, :], :]
        rhs = mul[a[:, None, None], mul[None, :, :]]
        if not np.array_equal(lhs, rhs):
            raise InvalidTables("mul_associative", _first_witness(lhs != rhs, lo))

        p = mul[a, :]  # p[i, t] = a_i * t
        lhs = mul[a[:, None, None], add[None, :, :]]
        rhs = add[p[:, :, None], p[:, None, :]]
        if not np.array_equal(lhs, rhs):
            raise InvalidTables("left_distributive", _first_witness(lhs != rhs, lo))

        lhs = mul[add[a, :], :]
        rhs = add[p[:, None, :], mul[None, :, :]]
        if not np.array_equal(lhs, rhs):
            raise InvalidTables("right_distributive", _first_witness(lhs != rhs, lo))


def violates(tables, law, witness):
    """Evaluate a reported witness on the tables: does it break ``law``?"""
    n, zero, one, add, mul = (tables.size, tables.zero, tables.one,
                              tables._add, tables._mul)
    if law.endswith("_entry_range"):
        i, j = witness
        return not 0 <= (add if law == "add_entry_range" else mul)[i][j] < n
    checks = {
        "add_identity": lambda j: add[zero][j] != j,
        "add_commutative": lambda a, b: add[a][b] != add[b][a],
        "add_inverse": lambda a: zero not in add[a],
        "mul_left_identity": lambda j: mul[one][j] != j,
        "mul_right_identity": lambda i: mul[i][one] != i,
        "add_associative": lambda a, b, c: add[add[a][b]][c] != add[a][add[b][c]],
        "mul_associative": lambda a, b, c: mul[mul[a][b]][c] != mul[a][mul[b][c]],
        "left_distributive":
            lambda a, b, c: mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]],
        "right_distributive":
            lambda a, b, c: mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]],
    }
    return checks[law](*witness)


def verdict(validate, tables):
    try:
        validate(tables)
    except InvalidTables as exc:
        return exc
    return None


def corrupted(ring, what, i, j, value):
    """The ring's tables with one entry replaced, unvalidated."""
    add, mul = [list(r) for r in ring.add_table], [list(r) for r in ring.mul_table]
    (add if what == "add" else mul)[i][j] = value
    return SimpleNamespace(size=ring.size, zero=ring.zero, one=ring.one,
                           _add=tuple(map(tuple, add)), _mul=tuple(map(tuple, mul)))


SCANNED_LAWS = {"add_entry_range", "mul_entry_range", "add_identity", "add_commutative",
                "add_inverse", "mul_left_identity", "mul_right_identity"}


def assert_validators_agree(tables):
    """Same accept/reject verdict; a rejection names a law its witness breaks.

    The laws on two variables or fewer are checked in the same order, so they
    must give the same law and witness.  A law on three variables may differ
    from the oracle's when the tables break several, because the two
    validators check those in different orders.
    """
    got, want = verdict(_validate_tables, tables), verdict(oracle_validate_tables, tables)
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        assert violates(tables, got.law, got.witness), got
        assert violates(tables, want.law, want.witness), want
        if want.law in SCANNED_LAWS:  # checked in the same order by both
            assert (got.law, got.witness) == (want.law, want.witness)


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


SIZE_CAP_CASES = {
    "zmod": lambda: zmod(70000),
    "matrix_ring": lambda: matrix_ring(zmod(4), 3),
    "upper_triangular": lambda: upper_triangular(zmod(4), 4),
    "product_ring": lambda: product_ring(zmod(256), zmod(257)),
    "group_ring": lambda: group_ring(zmod(2), cyclic_group_table(17)),
    "spec-c600": lambda: build_ring("group_ring(zmod(2),c600)"),
    "spec-s7": lambda: build_ring("group_ring(zmod(2),s7)"),
    "payload": lambda: ring_from_payload(dict(zmod(2).to_payload(), size=70000)),
}


@pytest.mark.parametrize("case", SIZE_CAP_CASES)
def test_size_cap(case):
    """Refused before any table (or group table) is built: quickly."""
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded):
        SIZE_CAP_CASES[case]()
    assert time.perf_counter() - start < 0.5


# SHA-256 of the compact sorted-key JSON of ``to_payload()``: names, labels
# and both tables of every constructor, nested specs and the builtins
PAYLOAD_DIGESTS = {
    "zmod(2)": "2cc97b178c8381e02305d593d3bf6653f403d3fda8b49659a84e68817db6a650",
    "zmod(6)": "ed8cdc759e2ac37b73a4d8a73c3c904d0105830ff353f1ab5104d5431da98e80",
    "zmod(9)": "0c42b8514adeee9948c57ebf5d66da234a4acd1cc8ea725848eb84d8ee0bbbd8",
    "matrix_ring(zmod(2),1)": "7cd400819411fd0db2a0b2a8fe19862a1f644e075fd2951555a80a0292f7e641",
    "matrix_ring(zmod(2),2)": "8dedd7e5373f4dc6cd8682a2b742adfc24eff2ff026888a0a05e871e19664535",
    "matrix_ring(zmod(3),2)": "f25e0169cec64f8f09d645653c3cdba72e60e304a818a2b2f165afeb3ec01be8",
    "matrix_ring(F2C2,2)": "3f515502e22f5e36b0858a00fb00e0dbb63f5fab1135d9e0566a508e5373b703",
    "upper_triangular(zmod(3),1)": "21863958f9f38a2c69a3bcf8709534c96452b3ec4c6229883c9aaaefc3f3c048",
    "upper_triangular(zmod(2),2)": "b16dec539391f1401a0d28f39b16543745f77b688509f6343e2b3b4c2e95a345",
    "upper_triangular(zmod(2),3)": "810d2c4e9ffd3e633c9925f546cfb3db5e21c417575d44a56917c9a08d5c92f1",
    "upper_triangular(zmod(4),2)": "d52f2edf25e1e2f6aabe7b243f78d452ef6d5708f4de6baf74a98d8e043dcdee",
    "group_ring(zmod(2),s1)": "6e828f04073c4df2ba1e4f55ac3e5115dffeb3ac531f83247e88aee0c2d21bcc",
    "group_ring(zmod(2),c3)": "fc9065a8434dee2ef45d191feb8c09071fcffcdd490e94baae9337d98975b219",
    "group_ring(zmod(3),c2)": "8dc95ed5f83ab4ec7af44817de32c0a29e1e8ea2e416c43e6b3a16ae8aeadcd6",
    "group_ring(zmod(2),s3)": "84b594f7fcbc85d85eaae3328224e62d0aca1ae240dd65e22d74bde2af1b583f",
    "group_ring(T2F2,c2)": "e797ade76336e955a6967d060a4bfd21b3c232275820a91b88a49b9c4544fd00",
    "product(zmod(2),matrix_ring(zmod(2),2))":
        "545d43424315c2e24ea8490ab3b8b2bceea88cdebfad9e6995d44929c4d7590e",
    "group_ring(product(zmod(2),zmod(3)),c2)":
        "e399ca5c502744926732880183f81155ad82256f324170556169408e565da06a",
    "F2": "d5d596ebff3613a1dfa3f739a5dab1aae1b384767a77fd0fe9cb262162a3bbdd",
    "F3": "2fb8b6616e912978cc1ee7bc1ef7f2d378db51d2faa42eb3c98acf873accdbe9",
    "Z4": "9f0b7d87303ee31e5e198dca7e533704bff8f6b87ca877abbc1a28632c19cf09",
    "Z8": "2e1964e2b85126ffe7b099774f34b82e33c8d8aeab0bc3e2c16edbabf8e42cac",
    "F2C2": "95978681659bd9908e5a148781b1e5bd163938de57ef976702233fe6765f6b43",
    "T2F2": "9c5b8fb8b0006defa73948d7da44cee9eff4df3a808fbe686a1f8ec33de4eb2d",
    "M2F2": "b5c394cb2f0a66a2d16e0ecccd641170368b3bc495c989fdd4d8abc0bf86207e",
    "F2S3": "04682608dbd853ffc9c9afa730d7be2f32d5b7ee6cc22722bf6ce65fcde68f99",
}


@pytest.mark.parametrize("spec", PAYLOAD_DIGESTS)
def test_constructor_payloads_pinned(spec):
    blob = json.dumps(build_ring(spec).to_payload(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PAYLOAD_DIGESTS[spec]


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


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("what", ["add", "mul"])
def test_validator_matches_cubic_oracle_on_corruptions(name, what):
    """75 seeded single-entry corruptions of a builtin table, about one in
    ten out of range; the intact tables are accepted by both."""
    ring = builtin_ring(name)
    assert_validators_agree(ring)
    table = ring.add_table if what == "add" else ring.mul_table
    rng = random.Random(f"{name}-{what}")
    n = ring.size
    for _ in range(75):
        i, j = rng.randrange(n), rng.randrange(n)
        values = range(-1, n + 1) if rng.random() < 0.1 else range(n)
        value = rng.choice([v for v in values if v != table[i][j]])
        assert_validators_agree(corrupted(ring, what, i, j, value))


@st.composite
def corrupted_spec_tables(draw):
    """A spec-grammar ring's tables, intact or with one entry changed."""
    ring = draw(spec_rings())
    if draw(st.booleans()):
        return ring
    what = draw(st.sampled_from(["add", "mul"]))
    i, j = (draw(st.integers(0, ring.size - 1)) for _ in range(2))
    old = (ring.add_table if what == "add" else ring.mul_table)[i][j]
    value = draw(st.integers(0, ring.size - 1).filter(lambda v: v != old))
    return corrupted(ring, what, i, j, value)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(corrupted_spec_tables())
def test_validator_matches_cubic_oracle_on_spec_rings(tables):
    assert_validators_agree(tables)


def near_ring_z2(opposite=False):
    """All maps Z2 -> Z2 (index 2*f(0) + f(1)) under pointwise + and
    composition: (f + g)h = fh + gh and associativity hold, f(g + h) =
    fg + fh does not.  The opposite product swaps the distributive laws."""
    def apply(f, x):
        return f >> (1 - x) & 1

    def compose(f, g):
        return 2 * apply(f, apply(g, 0)) + apply(f, apply(g, 1))

    mul = tuple(tuple(compose(b, a) if opposite else compose(a, b) for b in range(4))
                for a in range(4))
    return SimpleNamespace(size=4, zero=0, one=1, _mul=mul,
                           _add=tuple(tuple(a ^ b for b in range(4)) for a in range(4)))


def nonassociative_f2_algebra():
    """F2 span of x, y and 1 (bits 1, 2, 4) with x*y = 1 and every other
    product of x, y zero, extended bilinearly: (xy)x = x but x(yx) = 0."""
    x, y, one = 1, 2, 4
    basis_product = {(x, x): 0, (x, y): one, (y, x): 0, (y, y): 0}
    for b in (x, y, one):
        basis_product[one, b] = basis_product[b, one] = b

    def mul(a, b):
        out = 0
        for u, v in basis_product:
            if a & u and b & v:
                out ^= basis_product[u, v]
        return out

    return SimpleNamespace(size=8, zero=0, one=one,
                           _add=tuple(tuple(a ^ b for b in range(8)) for a in range(8)),
                           _mul=tuple(tuple(mul(a, b) for b in range(8)) for a in range(8)))


@pytest.mark.parametrize("tables,law", [
    (near_ring_z2(), "left_distributive"),
    (near_ring_z2(opposite=True), "right_distributive"),
    (nonassociative_f2_algebra(), "mul_associative"),
], ids=["near-ring", "opposite-near-ring", "nonassociative-algebra"])
def test_validators_name_the_only_broken_law(tables, law):
    """Tables breaking exactly one law; single-entry corruptions of a ring
    usually break several, which hides a skipped check."""
    assert_validators_agree(tables)
    for validate in (_validate_tables, oracle_validate_tables):
        assert verdict(validate, tables).law == law


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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(spec_rings())
def test_radical_and_units_match_oracles_on_spec_rings(ring):
    assert jacobson_radical(ring).members == oracle_radical(ring)
    for x in ring.elements():
        assert ring.inv(x) == oracle_unit(ring, x)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_radical_nilpotent_and_quotient_semisimple(name):
    ring = builtin_ring(name)
    rad = jacobson_radical(ring)
    k = nilpotency_index(ring, rad)
    assert k is not None and k <= ring.size
    q = quotient_by_radical(ring)
    assert oracle_radical(q.quotient) == {q.quotient.zero}


def ideal_closure(ring, generators):
    """Two-sided ideal generated by ``generators``."""
    members = set(additive_closure(ring, generators))
    changed = True
    while changed:
        changed = False
        new = set()
        for a in members:
            for x in ring.elements():
                for v in (ring.mul(x, a), ring.mul(a, x)):
                    if v not in members:
                        new.add(v)
        if new:
            members = set(additive_closure(ring, members | new))
            changed = True
    return IdealSet(ring, frozenset(members))


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
    assert [list(m.col(c)) for c in range(m.cols)] == [[1, 0], [2, 1]]  # its transpose
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
        matrix_invertible(RMatrix(z4, 1, 2, [z4.zero] * 2), q)


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
