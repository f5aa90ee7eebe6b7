"""Column-adapted calculus: pivot sets, the predicate, composition,
canonical splittings, factorisation, free rows and reconstruction.

Exhaustive oracles: morphism enumeration here is a double loop over all
matrix pairs with the splitting identity checked directly, independent of
the filtered enumeration used by the engine module.
"""

from __future__ import annotations

import itertools

import pytest

from vicbench.errors import (
    NoSolution,
    NotColumnAdapted,
    NotSurjective,
    RankMismatch,
    RecoverOutsideImage,
)
from vicbench.noether import enumerate_ovic
from vicbench.ovic import (
    DistinguishedIndexer,
    OvicMorphism,
    VicMorphism,
    canonical_splitting,
    compose_vic,
    extract_free_fragment,
    factor_vic,
    free_rows,
    is_column_adapted,
    reconstruct_from_free,
    s_function,
    split_rows,
)
from vicbench.rings import RMatrix, builtin_ring, iter_vectors, matvec
from vicbench.wedderburn import build_aw_embedding


def emb_of(name):
    return build_aw_embedding(builtin_ring(name))


def mat(name, rows):
    return RMatrix.from_rows(builtin_ring(name), rows)


def all_vic(name, d, n):
    """Oracle: every (f', f'') pair with f'' o f' = id.

    For each candidate f'' the columns of every splitting f' are collected by
    scanning all vectors of R^n against the identity columns; no column-adapted
    machinery is involved.
    """
    ring = builtin_ring(name)
    ident_cols = [
        tuple(ring.one if i == j else ring.zero for i in range(d))
        for j in range(d)
    ]
    out = []
    for fpp in itertools.product(ring.elements(), repeat=d * n):
        f_dprime = RMatrix(ring, d, n, fpp)
        per_col = [[] for _ in range(d)]
        for v in iter_vectors(ring, n):
            img = matvec(ring, f_dprime, v)
            for j in range(d):
                if img == ident_cols[j]:
                    per_col[j].append(v)
        if any(not pc for pc in per_col):
            continue
        for combo in itertools.product(*per_col):
            f_prime = RMatrix(ring, n, d,
                              [combo[j][r] for r in range(n) for j in range(d)])
            out.append(VicMorphism(f_prime, f_dprime, check=False))
    return out


def all_ovic(name, d, n):
    emb = emb_of(name)
    return [
        OvicMorphism(f.f_prime, f.f_dprime, emb)
        for f in all_vic(name, d, n)
        if is_column_adapted(f.f_dprime, emb)
    ]


# ---------------------------------------------------------------------------
# distinguished indexing
# ---------------------------------------------------------------------------

def test_indexer_interleaving():
    idx = DistinguishedIndexer((1, 2), size=2)
    # super-block 0: (1,1) (2,1) (2,2); super-block 1: (1,2) (2,3) (2,4)
    assert [idx.label(s) for s in range(1, 7)] == [
        (1, 1), (2, 1), (2, 2), (1, 2), (2, 3), (2, 4)
    ]
    for s in range(1, 7):
        k, j = idx.label(s)
        assert idx.std(k, j) == s


def test_indexer_trivial_mu():
    idx = DistinguishedIndexer((1,), size=5)
    assert [idx.std(1, j) for j in range(1, 6)] == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# pivot sets
# ---------------------------------------------------------------------------

def test_s_function_f2_examples():
    emb = emb_of("F2")
    assert s_function(mat("F2", [[1, 1]]), emb) == ((1,),)
    assert s_function(mat("F2", [[0, 1, 0], [1, 0, 1]]), emb) == ((1, 2),)


def test_s_function_zmod4_bar_level():
    emb = emb_of("Z4")
    # column 1 dies mod J, pivot moves to column 2
    assert s_function(mat("Z4", [[2, 3]]), emb) == ((2,),)


def test_s_function_not_surjective():
    emb = emb_of("F2")
    with pytest.raises(NotSurjective):
        s_function(mat("F2", [[0, 0]]), emb)


def test_s_function_depends_only_on_reduction():
    emb = emb_of("Z4")
    ring = builtin_ring("Z4")
    by_bar = {}
    for entries in itertools.product(ring.elements(), repeat=2):
        h = RMatrix(ring, 1, 2, entries)
        try:
            s = s_function(h, emb)
        except NotSurjective:
            s = None
        bar = h.reduce(emb.qdata).entries
        if bar in by_bar:
            assert by_bar[bar] == s
        else:
            by_bar[bar] = s


def test_s_function_t2f2_blockwise():
    emb = emb_of("T2F2")
    one = builtin_ring("T2F2").one
    h = RMatrix(builtin_ring("T2F2"), 1, 2, [one, builtin_ring("T2F2").zero])
    s = s_function(h, emb)
    assert s == ((1,), (1,))  # both blocks pivot in the first column


# ---------------------------------------------------------------------------
# column-adapted predicate
# ---------------------------------------------------------------------------

def test_identity_is_column_adapted():
    for name in ("F2", "Z4", "T2F2", "M2F2"):
        emb = emb_of(name)
        for n in range(0, 3):
            assert is_column_adapted(RMatrix.identity(emb.ring, n), emb)


def test_identity_only_column_adapted_endomorphism():
    for name, dmax in (("F2", 2), ("Z4", 1), ("T2F2", 1), ("M2F2", 1)):
        emb = emb_of(name)
        ring = emb.ring
        for d in range(1, dmax + 1):
            hits = [
                entries
                for entries in itertools.product(ring.elements(), repeat=d * d)
                if is_column_adapted(RMatrix(ring, d, d, entries), emb)
            ]
            assert hits == [RMatrix.identity(ring, d).entries]


def test_predicate_examples():
    emb = emb_of("Z4")
    assert not is_column_adapted(mat("Z4", [[3, 0]]), emb)  # exact condition fails
    assert is_column_adapted(mat("Z4", [[1, 2]]), emb)
    emb2 = emb_of("F2")
    assert is_column_adapted(mat("F2", [[1, 1]]), emb2)
    assert not is_column_adapted(mat("F2", [[0, 0]]), emb2)  # not surjective


def test_column_adapted_counts_f2():
    # frozen from the brute-force oracle: 3 column-adapted 1x2 maps over F2
    ring = builtin_ring("F2")
    emb = emb_of("F2")
    ca = [
        entries
        for entries in itertools.product(ring.elements(), repeat=2)
        if is_column_adapted(RMatrix(ring, 1, 2, entries), emb)
    ]
    assert ca == [(0, 1), (1, 0), (1, 1)]


def pivot_columns_exact(h, emb):
    """Oracle: the definition of column-adapted.  h is surjective, and each
    pivot column (k, j) of Phi(h), j the i-th pivot of block k, is the
    column with the block idempotent e_1 at row (k, i) and zeros elsewhere."""
    try:
        s_sets = s_function(h, emb)
    except NotSurjective:
        return False
    big = emb.phi_on_matrices(h)
    ridx = DistinguishedIndexer(emb.mu, h.rows)
    cidx = DistinguishedIndexer(emb.mu, h.cols)
    for k, pivots in enumerate(s_sets, start=1):
        for i, j in enumerate(pivots, start=1):
            want = [emb.ring.zero] * big.rows
            want[ridx.std(k, i) - 1] = emb.idempotents[k - 1][0]
            if big.col(cidx.std(k, j) - 1) != tuple(want):
                return False
    return True


@pytest.mark.parametrize("name,d,n", [
    ("F3", 2, 3), ("Z8", 2, 2), ("T2F2", 1, 3), ("M2F2", 1, 2),
])
def test_column_adapted_is_the_pivot_column_scan(name, d, n):
    """h psi = I for psi the canonical splitting of s(h) is the definitional
    scan, on every d x n matrix."""
    emb = emb_of(name)
    ring = emb.ring
    adapted = 0
    for entries in itertools.product(ring.elements(), repeat=d * n):
        h = RMatrix(ring, d, n, entries)
        want = pivot_columns_exact(h, emb)
        assert is_column_adapted(h, emb) == want, h
        adapted += want
    assert adapted


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_with_identity():
    emb = emb_of("F2")
    for f in all_ovic("F2", 1, 2):
        assert compose_vic(OvicMorphism.identity(emb, 2), f) == f
        assert compose_vic(f, OvicMorphism.identity(emb, 1)) == f


def test_compose_example_with_pivot_formula():
    emb = emb_of("F2")
    f = reconstruct_from_free(mat("F2", [[1, 0]]), [(0,)], emb)
    g = reconstruct_from_free(mat("F2", [[1, 0, 0], [0, 1, 0]]), [(0, 0)], emb)
    comp = compose_vic(g, f)
    assert comp.f_dprime == mat("F2", [[1, 0, 0]])
    assert comp.s_sets == ((1,),)


def test_compose_rank_mismatch():
    emb = emb_of("F2")
    with pytest.raises(RankMismatch):
        compose_vic(OvicMorphism.identity(emb, 3), OvicMorphism.identity(emb, 2))


@pytest.mark.parametrize("name,sizes", [
    ("F2", (1, 2, 3)),
    ("F3", (1, 2)),
    ("Z4", (1, 2)),
    ("T2F2", (1, 2)),
])
def test_composition_closure_and_pivot_formula(name, sizes):
    """Composites of column-adapted pairs stay column-adapted and the cached
    pivot sets agree with a fresh computation."""
    emb = emb_of(name)
    by_shape = {}
    for d in sizes:
        for n in sizes:
            if d <= n:
                by_shape[(d, n)] = all_ovic(name, d, n)
    for (d, n), fs in by_shape.items():
        for (n2, ell), gs in by_shape.items():
            if n2 != n:
                continue
            for f in fs:
                for g in gs:
                    comp = compose_vic(g, f)
                    assert is_column_adapted(comp.f_dprime, emb)
                    assert comp.s_sets == s_function(comp.f_dprime, emb)


# ---------------------------------------------------------------------------
# canonical splitting
# ---------------------------------------------------------------------------

def test_canonical_splitting_examples():
    emb = emb_of("F2")
    g = canonical_splitting(((1,),), emb, m=2, n=1)
    assert g == mat("F2", [[1], [0]])
    g2 = canonical_splitting(((1, 3),), emb, m=3, n=2)
    assert g2 == mat("F2", [[1, 0], [0, 0], [0, 1]])
    assert canonical_splitting(((1, 2),), emb, m=2, n=2) == RMatrix.identity(emb.ring, 2)


@pytest.mark.parametrize("name,d,n", [
    ("F2", 1, 2), ("F2", 1, 3), ("F2", 2, 3), ("Z4", 1, 2), ("T2F2", 1, 2),
])
def test_canonical_splitting_universal(name, d, n):
    """One splitting serves every column-adapted map with the same pivots."""
    emb = emb_of(name)
    by_s = {}
    for f in all_ovic(name, d, n):
        by_s.setdefault(f.s_sets, []).append(f.f_dprime)
    assert by_s
    ident = RMatrix.identity(emb.ring, d)
    for s_sets, hs in by_s.items():
        g = canonical_splitting(s_sets, emb, m=n, n=d)
        for h in hs:
            assert h.mul(g) == ident


# ---------------------------------------------------------------------------
# factorisation
# ---------------------------------------------------------------------------

def test_factor_already_ovic():
    emb = emb_of("F2")
    for f in all_ovic("F2", 1, 2):
        f1, f2 = factor_vic(f, emb)
        assert f1 == VicMorphism.identity(emb.ring, 1)
        assert f2 == OvicMorphism(f.f_prime, f.f_dprime, emb)


def test_factor_f3_example():
    emb = emb_of("F3")
    f = VicMorphism(mat("F3", [[2], [0]]), mat("F3", [[2, 0]]))
    f1, f2 = factor_vic(f, emb)
    assert f1.f_prime == mat("F3", [[2]]) and f1.f_dprime == mat("F3", [[2]])
    assert f2.f_prime == mat("F3", [[1], [0]])
    assert f2.f_dprime == mat("F3", [[1, 0]])


def test_factor_zmod4_example():
    emb = emb_of("Z4")
    f = VicMorphism(mat("Z4", [[3], [2]]), mat("Z4", [[3, 2]]))
    f1, f2 = factor_vic(f, emb)
    assert f1.f_dprime == mat("Z4", [[3]])
    assert f2.f_dprime == mat("Z4", [[1, 2]])
    assert is_column_adapted(f2.f_dprime, emb)
    assert compose_vic(f2, f1) == f


@pytest.mark.parametrize("name,d,n", [
    ("F2", 1, 2), ("F2", 2, 3), ("Z4", 1, 2), ("T2F2", 1, 2), ("F3", 1, 2),
])
def test_factor_all_small(name, d, n):
    emb = emb_of(name)
    ident = RMatrix.identity(emb.ring, d)
    for f in all_vic(name, d, n):
        f1, f2 = factor_vic(f, emb)
        assert f1.f_dprime.mul(f1.f_prime) == ident
        assert f1.f_prime.mul(f1.f_dprime) == ident  # two-sided automorphism pair
        assert is_column_adapted(f2.f_dprime, emb)
        assert compose_vic(f2, f1) == f


def pivot_column_matrix(f_dprime, emb):
    """Oracle: the d x d matrix whose column (k, i) under Phi is pivot column
    (k, j) of Phi(f''), j the i-th pivot of block k."""
    d, n = f_dprime.rows, f_dprime.cols
    big = emb.phi_on_matrices(f_dprime)
    ridx = DistinguishedIndexer(emb.mu, d)
    cidx = DistinguishedIndexer(emb.mu, n)
    cols = [None] * (emb.mu_total * d)
    for k, pivots in enumerate(s_function(f_dprime, emb), start=1):
        for i, j in enumerate(pivots, start=1):
            cols[ridx.std(k, i) - 1] = big.col(cidx.std(k, j) - 1)
    return emb.recover(RMatrix.from_rows(emb.ring, zip(*cols), cols=len(cols)))


@pytest.mark.parametrize("name,d,n", [("Z4", 2, 3), ("M2F2", 1, 2)])
def test_factor_change_of_basis_is_the_pivot_column_matrix(name, d, n):
    """f1 = (g^-1, g) with g the pivot-column matrix, on every VIC pair (the
    engine's enumeration supplies the pairs; g^-1 is unique, and
    ``test_factor_all_small`` checks it)."""
    from vicbench.noether import enumerate_vic

    emb = emb_of(name)
    expected = {}
    for f in enumerate_vic(emb, d, n, budget=10 ** 6):
        f1, _ = factor_vic(f, emb)
        if f.f_dprime not in expected:
            expected[f.f_dprime] = pivot_column_matrix(f.f_dprime, emb)
        assert f1.f_dprime == expected[f.f_dprime], f


# ---------------------------------------------------------------------------
# free rows and reconstruction
# ---------------------------------------------------------------------------

def test_free_rows_examples():
    emb = emb_of("F2")
    ident = OvicMorphism.identity(emb, 2)
    assert free_rows(ident) == ((), (1, 2))
    f = reconstruct_from_free(mat("F2", [[1, 0]]), [(0,)], emb)
    assert free_rows(f) == ((2,), (1,))


def test_free_rows_d0():
    emb = emb_of("F2")
    ring = emb.ring
    f = OvicMorphism(RMatrix(ring, 2, 0, []), RMatrix(ring, 0, 2, []), emb)
    assert free_rows(f) == ((1, 2), ())


def test_reconstruct_examples():
    emb = emb_of("F2")
    f = reconstruct_from_free(mat("F2", [[1, 0]]), [(0,)], emb)
    assert f.f_prime == mat("F2", [[1], [0]])
    g = reconstruct_from_free(mat("F2", [[1, 0]]), [(1,)], emb)
    assert g.f_prime == mat("F2", [[1], [1]])


def test_reconstruct_d_equals_n():
    emb = emb_of("Z4")
    f = reconstruct_from_free(RMatrix.identity(emb.ring, 2), [], emb)
    assert f == OvicMorphism.identity(emb, 2)


def test_reconstruct_rejects_bad_splitting():
    emb = emb_of("F3")
    with pytest.raises(NotColumnAdapted):
        # surjective but the pivot column carries 2, not the identity
        reconstruct_from_free(mat("F3", [[2, 0]]), [(0,)], emb)
    with pytest.raises(NotColumnAdapted):
        # not surjective at all
        reconstruct_from_free(mat("F3", [[0, 0]]), [(0,)], emb)


@pytest.mark.parametrize("name,d,n", [
    ("F2", 1, 2), ("F2", 1, 3), ("F2", 2, 3), ("Z4", 1, 2), ("T2F2", 1, 2),
])
def test_reconstruct_roundtrip(name, d, n):
    emb = emb_of(name)
    for f in all_ovic(name, d, n):
        frag = extract_free_fragment(f)
        again = reconstruct_from_free(f.f_dprime, frag, emb)
        assert again == f


def _reconstruct_under_phi(f_dprime, fragment, emb):
    """Reconstruction in Phi-level matrix arithmetic: for Y the free rows
    with zero dependent rows and psi the canonical splitting,
    Phi(f') = Y + Phi(psi) - Phi(psi f'') Y."""
    ring = emb.ring
    d, n = f_dprime.rows, f_dprime.cols
    s_sets = s_function(f_dprime, emb)
    width = emb.mu_total * d
    free, _ = split_rows(emb, n, s_sets)
    rows = [[ring.zero] * width for _ in range(emb.mu_total * n)]
    for s, row in zip(free, fragment):
        rows[s - 1] = list(row)
    big_y = RMatrix(ring, len(rows), width, [v for r in rows for v in r])
    psi = canonical_splitting(s_sets, emb, m=n, n=d)
    big_x = big_y.add(emb.phi_on_matrices(psi).sub(
        emb.phi_on_matrices(psi.mul(f_dprime)).mul(big_y)))
    return OvicMorphism(emb.recover(big_x), f_dprime, emb, s_sets=s_sets, check=False)


@pytest.mark.parametrize("name,d,n", [("F2", 1, 3), ("Z4", 2, 3), ("M2F2", 1, 2)])
def test_reconstruct_is_the_phi_level_construction(name, d, n):
    """Recovering the free rows first and splitting in R gives what the same
    identity gives under Phi, on every member of the stratum (enumerated by
    the engine)."""
    emb = emb_of(name)
    for f in enumerate_ovic(emb, d, n):
        frag = extract_free_fragment(f)
        got = reconstruct_from_free(f.f_dprime, frag, emb)
        assert got == _reconstruct_under_phi(f.f_dprime, frag, emb) == f
        assert got.s_sets == f.s_sets


@pytest.mark.parametrize("name", ["M2F2", "T2F2"])
def test_reconstruct_refuses_rows_no_morphism_has(name):
    """Seeded fragments of ring elements: rows outside the image of Phi are
    refused, as the Phi-level construction refuses them."""
    import random

    emb = emb_of(name)
    stratum = enumerate_ovic(emb, 1, 2)
    rng = random.Random(0)
    for _ in range(100):
        f = rng.choice(stratum)
        frag = [tuple(rng.randrange(emb.ring.size) for _ in row)
                for row in extract_free_fragment(f)]
        with pytest.raises(RecoverOutsideImage):
            _reconstruct_under_phi(f.f_dprime, frag, emb)
        with pytest.raises(RecoverOutsideImage):
            reconstruct_from_free(f.f_dprime, frag, emb)


@pytest.mark.parametrize("entry", [5, 2, -1, True, 1.0, "1", None])
def test_reconstruct_refuses_entries_outside_the_ring(entry):
    """Entries follow the rule of morphism files: an int, not a bool, in
    0..|R| - 1.  A negative index would read the last element and a float or
    string would be coerced, so each is refused."""
    emb = emb_of("F2")
    with pytest.raises(NoSolution):
        reconstruct_from_free(mat("F2", [[1, 0]]), [(entry,)], emb)


@pytest.mark.parametrize("fragment", [[], [(0, 1)], [(0,), (0,)], [5], [None], 5, None, "0"])
def test_reconstruct_refuses_bad_fragment_shapes(fragment):
    with pytest.raises(NoSolution):
        reconstruct_from_free(mat("F2", [[1, 0]]), fragment, emb_of("F2"))


def test_injectivity_of_free_row_encoding():
    """Distinct morphisms with the same f'' differ in some free row."""
    emb = emb_of("Z4")
    seen = {}
    for f in all_ovic("Z4", 1, 2):
        key = (f.f_dprime.entries, tuple(map(tuple, extract_free_fragment(f))))
        assert key not in seen
        seen[key] = f


# ---------------------------------------------------------------------------
# sampled closure at sizes where exhaustive enumeration is too big
# ---------------------------------------------------------------------------

def sample_ovic(name, d, n, rng):
    """Draw a column-adapted morphism by factoring a random split pair."""
    ring = builtin_ring(name)
    emb = emb_of(name)
    ident_cols = [
        tuple(ring.one if i == j else ring.zero for i in range(d))
        for j in range(d)
    ]
    while True:
        entries = [rng.randrange(ring.size) for _ in range(d * n)]
        f_dprime = RMatrix(ring, d, n, entries)
        try:
            s_function(f_dprime, emb)
        except NotSurjective:
            continue
        per_col = [[] for _ in range(d)]
        for v in iter_vectors(ring, n):
            img = matvec(ring, f_dprime, v)
            for j in range(d):
                if img == ident_cols[j]:
                    per_col[j].append(v)
        combo = [pc[rng.randrange(len(pc))] for pc in per_col]
        f_prime = RMatrix(ring, n, d,
                          [combo[j][r] for r in range(n) for j in range(d)])
        _, f2 = factor_vic(VicMorphism(f_prime, f_dprime), emb)
        return f2


@pytest.mark.parametrize("name", ["T2F2", "F3"])
def test_composition_closure_sampled_rank3(name):
    """Sampled pairs up to source/target rank 3 (exhaustive scans there would
    exceed the documented candidate bound for T2F2)."""
    import random

    emb = emb_of(name)
    rng = random.Random(0)
    for _ in range(25):
        d = rng.choice([1, 2])
        n = rng.choice([2, 3]) if d == 1 else 3
        ell = rng.randrange(n, 4)
        f = sample_ovic(name, d, n, rng)
        g = sample_ovic(name, n, ell, rng)
        comp = compose_vic(g, f)
        assert is_column_adapted(comp.f_dprime, emb)
        assert comp.s_sets == s_function(comp.f_dprime, emb)
