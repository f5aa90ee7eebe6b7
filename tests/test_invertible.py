"""Differential test of ``matrix_invertible`` against the exhaustive scan.

The oracle below scans every vector of (R/J)^n: the reduction of M is
invertible iff v -> Mv has trivial kernel, and the preimages of the unit
vectors are the columns of its inverse.  The inverse is then lifted by the
same Newton iteration.  Two-sided inverses are unique, so the library and the
oracle must return identical verdicts and identical witnesses.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from spec_rings import spec_rings

from vicbench import rings
from vicbench.rings import (
    BUILTIN_NAMES,
    IdealSet,
    QuotientData,
    RMatrix,
    _fp_parts,
    _part_inverse,
    _part_inverse_bits,
    _quotient_inverse,
    build_ring,
    builtin_ring,
    matrix_invertible,
    newton_inverse,
    quotient_by_radical,
)

MIXED_SPECS = (
    "matrix_ring(zmod(3),2)",
    "product(zmod(2),zmod(3))",
    "product(upper_triangular(zmod(2),2),zmod(3))",
    "zmod(12)",
)


def scan_matrix_invertible(m, q):
    """Exhaustive preimage scan over the quotient, then Newton lifting.

    The scan is vectorised: row k of ``vecs`` is the k-th vector of
    ``itertools.product(Q, repeat=n)``, and its image under M is folded
    column by column through the quotient's tables.
    """
    ring, qr, n = m.ring, q.quotient, m.rows
    add, mul = np.asarray(qr.add_table), np.asarray(qr.mul_table)
    mbar = np.asarray(m.reduce(q).entries).reshape(n, n)
    vecs = np.stack(np.unravel_index(np.arange(qr.size ** n), (qr.size,) * n), axis=1)
    images = np.full(vecs.shape, qr.zero)
    for i in range(n):
        for t in range(n):
            images[:, i] = add[images[:, i], mul[mbar[i, t], vecs[:, t]]]
    kernel = (images == qr.zero).all(axis=1) & (vecs != qr.zero).any(axis=1)
    if kernel.any():
        return False, None
    cols = []
    for j in range(n):
        hits = np.flatnonzero((images == [qr.one if i == j else qr.zero
                                          for i in range(n)]).all(axis=1))
        if hits.size == 0:
            return False, None
        cols.append(vecs[hits[0]].tolist())
    x = RMatrix(qr, n, n, [cols[j][i] for i in range(n) for j in range(n)]).lift(q)
    ident = RMatrix.identity(ring, n)
    two_ident = ident.add(ident)
    for _ in range(q.nilpotency.bit_length() + 2):
        if m.mul(x) == ident:
            break
        x = x.mul(two_ident.sub(m.mul(x)))
    assert m.mul(x) == ident == x.mul(m)
    return True, x


def _unit_triangular(ring, n, lower, rng):
    return RMatrix(ring, n, n, [
        ring.one if i == j else rng.randrange(ring.size) if (i > j) == lower else ring.zero
        for i in range(n) for j in range(n)])


def _sample(ring, n, rng):
    """One random matrix, one invertible by construction, one singular."""
    yield RMatrix(ring, n, n, [rng.randrange(ring.size) for _ in range(n * n)])
    yield (_unit_triangular(ring, n, True, rng)
           .mul(_unit_triangular(ring, n, False, rng))
           .mul(_unit_triangular(ring, n, True, rng)))
    rows = [[rng.randrange(ring.size) for _ in range(n)] for _ in range(n)]
    dep = rng.randrange(n)
    rows[dep] = [ring.zero] * n
    for j in range(n):
        if j != dep:
            c = rng.randrange(ring.size)
            rows[dep] = [ring.add(a, ring.mul(c, b)) for a, b in zip(rows[dep], rows[j])]
    yield RMatrix.from_rows(ring, rows)


def _assert_agrees(m, q):
    ok, witness = matrix_invertible(m, q)
    ref_ok, ref_witness = scan_matrix_invertible(m, q)
    assert ok == ref_ok, m
    if ok:
        assert witness.entries == ref_witness.entries, m
    else:
        assert witness is None


@pytest.mark.parametrize("spec", BUILTIN_NAMES + MIXED_SPECS)
def test_matches_scan(spec):
    ring = builtin_ring(spec) if spec in BUILTIN_NAMES else build_ring(spec)
    q = quotient_by_radical(ring)
    rng = random.Random(f"invertible/{spec}")
    for n in (1, 2, 3):
        for m in _sample(ring, n, rng):
            _assert_agrees(m, q)


@pytest.mark.parametrize("spec", [name for name in BUILTIN_NAMES if name != "F3"]
                         + ["zmod(12)", "product(upper_triangular(zmod(2),2),zmod(3))"])
def test_bitset_elimination_matches_list_elimination(spec):
    """Every p = 2 part of R/J, eliminated on int bitsets, gives the verdict
    and the inverse entries of the residue-list elimination, its oracle."""
    ring = builtin_ring(spec) if spec in BUILTIN_NAMES else build_ring(spec)
    q = quotient_by_radical(ring)
    parts = [part for part in _fp_parts(q.quotient) if part.p == 2]
    assert parts
    rng = random.Random(f"bitset/{spec}")
    singular = set()
    for n in (1, 2, 3, 4):
        for m in _sample(ring, n, rng):
            mbar = m.reduce(q).entries
            for part in parts:
                got = _part_inverse_bits(part, n, mbar)
                assert got == _part_inverse(part, n, mbar), m
                singular.add(got is None)
    assert singular == {True, False}


@st.composite
def sampled_matrices(draw):
    """An n x n matrix (n <= 3) over a spec-grammar ring of at most 64
    elements: random, invertible by construction or singular by
    construction, as ``_sample`` makes them from a drawn seed."""
    ring = draw(spec_rings())
    n = draw(st.integers(1, 3))
    kind = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    return list(_sample(ring, n, rng))[kind]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sampled_matrices())
def test_matches_scan_on_random_rings(m):
    """200 fixed examples, about 0.5 s on a 2-core x86 container."""
    _assert_agrees(m, quotient_by_radical(m.ring))


def test_matches_scan_f2s3_4x4():
    ring = builtin_ring("F2S3")
    q = quotient_by_radical(ring)
    rng = random.Random("invertible/F2S3/4")
    for m in _sample(ring, 4, rng):
        _assert_agrees(m, q)


@pytest.mark.parametrize("spec", BUILTIN_NAMES + ("zmod(9)", "zmod(257)",
                                                  "matrix_ring(zmod(3),2)"))
def test_1x1_unit_table_is_the_general_path(spec):
    """A 1 x 1 matrix is answered from the unit table (``is_unit``,
    ``inv``); the elimination over R/J followed by Newton lifting, which
    every larger n takes, gives the same verdict and the same inverse on
    every element, and a non-unit gives (False, None)."""
    ring = builtin_ring(spec) if spec in BUILTIN_NAMES else build_ring(spec)
    q = quotient_by_radical(ring)
    proj, sec = q.projection, q.section
    units = 0
    for a in ring.elements():
        got = matrix_invertible(RMatrix(ring, 1, 1, [a]), q)
        inv = _quotient_inverse(q.quotient, 1, [proj[a]])
        assert ring.is_unit(a) is (inv is not None)
        if inv is None:
            assert got == (False, None) and ring.inv(a) is None
        else:
            x = newton_inverse(ring, 1, (a,), (sec[inv[0]],), q.nilpotency)
            assert got[0] and got[1].entries == x == (ring.inv(a),)
            units += 1
    assert 0 < units < ring.size


@pytest.mark.parametrize("spec", ["zmod(4)", "product(zmod(2),zmod(4))"])
def test_quotient_with_square_characteristic_is_rejected(spec):
    """A 'quotient' whose characteristic is not squarefree is not semisimple."""
    ring = build_ring(spec)
    same = tuple(ring.elements())
    fake = QuotientData(ring, IdealSet(ring, frozenset({ring.zero})), ring, same, same, 1)
    with pytest.raises(RuntimeError, match="not squarefree"):
        matrix_invertible(RMatrix.identity(ring, 2), fake)


@pytest.mark.parametrize("spec", ["zmod(3)", "zmod(4)", "upper_triangular(zmod(2),2)"])
def test_a_wrong_quotient_inverse_is_refused(monkeypatch, spec):
    """No product checks the quotient inverse over R/J: Newton's loop test
    MX = I and its final XM = I check the lifted inverse over R, so a wrong
    quotient inverse (zero, I - MX = I never shrinks) raises RuntimeError,
    semisimple R included.  A singular matrix still returns False."""
    ring = build_ring(spec)
    q = quotient_by_radical(ring)
    assert matrix_invertible(RMatrix(ring, 2, 2, [ring.zero] * 4), q) == (False, None)
    monkeypatch.setattr(rings, "_quotient_inverse",
                        lambda qr, n, entries: [qr.zero] * (n * n))
    with pytest.raises(RuntimeError, match="did not converge"):
        matrix_invertible(RMatrix.identity(ring, 2), q)
