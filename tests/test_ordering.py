"""Total order, insertion moves, word embedding, completion morphisms."""

from __future__ import annotations

import itertools
import random

import pytest

from vicbench.errors import InvalidMove, SourceMismatch
from vicbench.noether import enumerate_ovic
from vicbench.ordering import (
    EQ,
    GT,
    LT,
    InsertionMove,
    Word,
    build_phi,
    elementary_phi,
    insert_successor,
    iota,
    partial_leq,
    total_compare,
    valid_moves,
    word_leq,
    word_leq_letters,
)
from vicbench.ovic import (
    OvicMorphism,
    compose_vic,
    is_column_adapted,
    reconstruct_from_free,
    s_function,
)
from vicbench.rings import RMatrix, builtin_ring
from vicbench.wedderburn import build_aw_embedding


def emb_of(name):
    return build_aw_embedding(builtin_ring(name))


def mat(name, rows):
    return RMatrix.from_rows(builtin_ring(name), rows)


def morph(name, f_dprime_rows, fragment):
    emb = emb_of(name)
    return reconstruct_from_free(mat(name, f_dprime_rows), fragment, emb)


# ---------------------------------------------------------------------------
# total order
# ---------------------------------------------------------------------------

def test_rank_dominates():
    f = morph("F2", [[1]], [])
    g = morph("F2", [[1, 0]], [(0,)])
    assert total_compare(f, g) == LT
    assert total_compare(g, f) == GT


def test_pivot_sets_break_ties():
    f = morph("F2", [[1, 0]], [(0,)])
    g = morph("F2", [[0, 1]], [(0,)])
    assert total_compare(f, g) == LT  # pivots {1} < {2}


def test_reflexive_eq():
    f = morph("F2", [[1, 1]], [(1,)])
    assert total_compare(f, f) == EQ


def test_source_mismatch():
    emb = emb_of("F2")
    with pytest.raises(SourceMismatch):
        total_compare(OvicMorphism.identity(emb, 1), OvicMorphism.identity(emb, 2))


@pytest.mark.parametrize("name,nmax", [("F2", 3), ("Z4", 2)])
def test_total_order_trichotomy_transitivity(name, nmax):
    emb = emb_of(name)
    pool = [f for n in range(1, nmax + 1) for f in enumerate_ovic(emb, 1, n)]
    for f in pool:
        for g in pool:
            c1 = total_compare(f, g)
            c2 = total_compare(g, f)
            assert c1 == -c2
            assert (c1 == EQ) == (f == g)
    keys = {f: f.order_key for f in pool}
    for f in pool:
        for g in pool:
            for h in pool:
                if total_compare(f, g) == LT and total_compare(g, h) == LT:
                    assert total_compare(f, h) == LT
    # the cached keys realise the same order
    ordered = sorted(pool, key=lambda f: keys[f])
    for a, b in zip(ordered, ordered[1:]):
        assert total_compare(a, b) in (LT, EQ)


# ---------------------------------------------------------------------------
# insertion moves
# ---------------------------------------------------------------------------

def test_insert_successor_example():
    emb = emb_of("F2")
    h = morph("F2", [[1, 0]], [(0,)])
    g = insert_successor(h, InsertionMove(2, 2))
    assert g.f_dprime == mat("F2", [[1, 0, 0]])
    assert g.f_prime == mat("F2", [[1], [0], [0]])
    assert is_column_adapted(g.f_dprime, emb)


def test_insert_pivot_column_rejected():
    h = morph("F2", [[1, 0]], [(0,)])
    with pytest.raises(InvalidMove):
        insert_successor(h, InsertionMove(1, 1))
    with pytest.raises(InvalidMove):
        insert_successor(h, InsertionMove(2, 3))


def test_insert_duplicates_free_data():
    h = morph("F2", [[1, 0]], [(1,)])  # f' = (1, 1)^T
    g = insert_successor(h, InsertionMove(2, 2))
    assert g.f_prime == mat("F2", [[1], [1], [1]])
    assert g.f_dprime == mat("F2", [[1, 0, 0]])


def test_insert_d0():
    emb = emb_of("F2")
    ring = emb.ring
    f1 = OvicMorphism(RMatrix(ring, 1, 0, []), RMatrix(ring, 0, 1, []), emb)
    f2 = insert_successor(f1, InsertionMove(1, 1))
    assert f2.n == 2 and f2.d == 0


def test_valid_moves_shape():
    h = morph("F2", [[1, 0]], [(0,)])
    assert valid_moves(h) == [InsertionMove(2, 2)]
    ident = OvicMorphism.identity(emb_of("F2"), 2)
    assert valid_moves(ident) == []  # every column is a pivot


def test_insert_pivot_shift_formula():
    """Pivot sets of the successor are the old ones shifted past the insertion."""
    emb = emb_of("Z4")
    for f in enumerate_ovic(emb, 1, 2):
        for move in valid_moves(f):
            g = insert_successor(f, move)
            mu = emb.mu_total
            expected = tuple(
                tuple(j if j <= move.b * emb.mu[k] else j + emb.mu[k]
                      for j in pivots)
                for k, pivots in enumerate(f.s_sets)
            )
            assert g.s_sets == expected == s_function(g.f_dprime, emb)


# ---------------------------------------------------------------------------
# partial order
# ---------------------------------------------------------------------------

def test_partial_leq_reflexive():
    f = morph("F2", [[1, 1]], [(0,)])
    assert partial_leq(f, f) == []


def test_partial_leq_single_move():
    f = morph("F2", [[1, 0]], [(1,)])
    for move in valid_moves(f):
        g = insert_successor(f, move)
        chain = partial_leq(f, g)
        assert chain is not None
        cur = f
        for mv in chain:
            cur = insert_successor(cur, mv)
        assert cur == g


def test_partial_leq_equal_rank_distinct():
    f = morph("F2", [[1, 0]], [(0,)])
    g = morph("F2", [[0, 1]], [(0,)])
    assert partial_leq(f, g) is None


def test_partial_refines_total():
    emb = emb_of("F2")
    lower = enumerate_ovic(emb, 1, 1) + enumerate_ovic(emb, 1, 2)
    upper = enumerate_ovic(emb, 1, 2) + enumerate_ovic(emb, 1, 3)
    for f in lower:
        for g in upper:
            if f == g:
                continue
            if partial_leq(f, g) is not None:
                assert total_compare(f, g) == LT


def test_partial_leq_multi_step():
    f = morph("F2", [[1, 0]], [(1,)])
    g1 = insert_successor(f, InsertionMove(2, 2))
    g2 = insert_successor(g1, InsertionMove(2, 3))
    chain = partial_leq(f, g2)
    assert chain is not None and len(chain) == 2
    cur = f
    for mv in chain:
        cur = insert_successor(cur, mv)
    assert cur == g2


# ---------------------------------------------------------------------------
# word embedding and word order
# ---------------------------------------------------------------------------

def test_word_leq_hand_cases():
    assert word_leq_letters("ab", "aab")
    assert not word_leq_letters("a", "ba")
    assert word_leq_letters("", "")
    assert not word_leq_letters("", "a")
    assert word_leq_letters("ab", "ab")


def test_word_leq_reflexive_transitive_exhaustive():
    words = [
        tuple(w)
        for length in range(0, 6)
        for w in itertools.product("ab", repeat=length)
    ]
    rel = {}
    for s in words:
        assert word_leq_letters(s, s)
        for t in words:
            rel[(s, t)] = word_leq_letters(s, t)
    true_pairs = [(s, t) for (s, t), v in rel.items() if v]
    for s, t in true_pairs:
        for u in words:
            if rel[(t, u)]:
                assert rel[(s, u)]


def test_iota_identity_all_masked():
    emb = emb_of("F2")
    f = OvicMorphism.identity(emb, 2)
    w = iota(f)
    assert len(w) == 2
    for m1, m2 in w.letters:
        assert all(v is None for row in m1 for v in row)


def test_iota_example():
    f = morph("F2", [[1, 0]], [(1,)])  # f' = (1,1)^T, pivot row 1
    w = iota(f)
    assert w.letters[0] == (((None,),), (1,))
    assert w.letters[1] == (((1,),), (0,))


def test_iota_d0_no_masks():
    emb = emb_of("F2")
    ring = emb.ring
    f = OvicMorphism(RMatrix(ring, 2, 0, []), RMatrix(ring, 0, 2, []), emb)
    w = iota(f)
    assert len(w) == 2
    for m1, m2 in w.letters:
        assert m2 == ()
        assert all(None not in row for row in m1)


def test_iota_injective_small_strata():
    emb = emb_of("F2")
    seen = {}
    for n in range(0, 4):
        for f in enumerate_ovic(emb, 1, n):
            w = iota(f)
            assert w not in seen
            seen[w] = f


def test_iota_order_preserving():
    emb = emb_of("F2")
    for n in range(1, 3):
        for f in enumerate_ovic(emb, 1, n):
            frontier = [(f, f)]
            while frontier:
                base, cur = frontier.pop()
                if cur.n >= 4:
                    continue
                for move in valid_moves(cur):
                    nxt = insert_successor(cur, move)
                    assert word_leq(iota(f), iota(nxt))
                    frontier.append((base, nxt))


def test_word_payload():
    f = morph("F2", [[1, 0]], [(1,)])
    payload = iota(f).to_payload()
    assert payload[0]["m1"] == [["club"]]
    assert payload[1]["m1"] == [[1]]


# ---------------------------------------------------------------------------
# completion morphisms
# ---------------------------------------------------------------------------

def test_elementary_phi_paper_shape():
    """n = 7, move (3, 4): the splitting part is the identity with the lifted
    column inserted as column 5; the injection part subtracts it from column
    3 and inserts the unit row e_3 as row 5."""
    emb = emb_of("F2")
    ring = emb.ring
    f_dprime = mat("F2", [[1, 0, 1, 0, 0, 0, 0]])
    frag = [tuple([0])] * 6
    f = reconstruct_from_free(f_dprime, frag, emb)
    phi = elementary_phi(f, InsertionMove(3, 4))
    # chat = psi(column 3) with psi supported on the pivot row 1
    chat = [1, 0, 0, 0, 0, 0, 0]
    ident = RMatrix.identity(ring, 7)
    expect_dprime = ident.insert_col(4, chat)
    assert phi.f_dprime == expect_dprime
    rows = [list(ident.row(r)) for r in range(7)]
    for r in range(7):
        rows[r][2] = (rows[r][2] - chat[r]) % 2
    rows.insert(4, [0, 0, 1, 0, 0, 0, 0])
    assert phi.f_prime == RMatrix.from_rows(ring, rows)
    assert is_column_adapted(phi.f_dprime, emb)


def test_build_phi_identity_on_empty_chain():
    emb = emb_of("F2")
    f = OvicMorphism.identity(emb, 2)
    assert build_phi(f, []) == OvicMorphism.identity(emb, 2)


def test_build_phi_reproduces_move():
    emb = emb_of("F2")
    for f in enumerate_ovic(emb, 1, 2):
        for move in valid_moves(f):
            g = insert_successor(f, move)
            phi = build_phi(f, [move], expect=g)
            assert compose_vic(phi, f) == g
            assert is_column_adapted(phi.f_dprime, emb)


def test_build_phi_chain():
    emb = emb_of("F2")
    f = morph("F2", [[1, 0]], [(1,)])
    chain = [InsertionMove(2, 2), InsertionMove(3, 3)]
    cur = f
    for mv in chain:
        cur = insert_successor(cur, mv)
    phi = build_phi(f, chain, expect=cur)
    assert compose_vic(phi, f) == cur


def test_build_phi_monotone_below():
    """Exhaustive n=2 -> m=3 over F2, d=1: phi applied below f stays below."""
    emb = emb_of("F2")
    stratum2 = enumerate_ovic(emb, 1, 2)
    for f in stratum2:
        for move in valid_moves(f):
            g = insert_successor(f, move)
            phi = build_phi(f, [move], expect=g)
            for h in stratum2:
                if total_compare(h, f) == LT:
                    assert total_compare(compose_vic(phi, h), compose_vic(phi, f)) == LT


# ---------------------------------------------------------------------------
# pools, pigeonhole, reflection probe
# ---------------------------------------------------------------------------

def test_generator_pool_counts():
    emb = emb_of("F2")
    assert [len(enumerate_ovic(emb, 1, n)) for n in range(0, 3)] == [0, 1, 6]


def test_wqo_pigeonhole_bounded():
    """Any sequence longer than the bounded-universe size repeats, hence
    contains a related pair."""
    emb = emb_of("F2")
    universe = [f for n in range(3) for f in enumerate_ovic(emb, 1, n)]
    rng = random.Random(0)
    seq = [universe[rng.randrange(len(universe))] for _ in range(len(universe) + 1)]
    found = False
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if partial_leq(seq[i], seq[j]) is not None:
                found = True
                break
        if found:
            break
    assert found


def test_wqo_random_insertion_sequences():
    """Sequences seeded with forced insertion descendants always contain a
    related pair, and the search finds it."""
    emb = emb_of("F2")
    rng = random.Random(1)
    base = list(enumerate_ovic(emb, 1, 1)) + list(enumerate_ovic(emb, 1, 2))
    for trial in range(5):
        seq = []
        for _ in range(10):
            if seq and rng.random() < 0.5:
                parent = seq[rng.randrange(len(seq))]
                cur = parent
                for _ in range(rng.randrange(1, 3)):
                    moves = valid_moves(cur)
                    if not moves:
                        break
                    cur = insert_successor(cur, moves[rng.randrange(len(moves))])
                seq.append(cur)
            else:
                seq.append(base[rng.randrange(len(base))])
        # force at least one descendant pair
        parent = seq[0]
        moves = valid_moves(parent)
        child = insert_successor(parent, moves[0]) if moves else parent
        seq.append(child)
        hits = [
            (i, j)
            for i in range(len(seq))
            for j in range(i + 1, len(seq))
            if partial_leq(seq[i], seq[j]) is not None
        ]
        assert hits


# ---------------------------------------------------------------------------
# mu = 2 coverage (bands wider than one column)
# ---------------------------------------------------------------------------

def test_m2f2_moves_words_and_order():
    """Matrix-ring coefficients: bands of width mu=2, pivot data per block."""
    emb = emb_of("M2F2")
    assert emb.mu_total == 2
    from vicbench.noether import count_identity_report

    fs = enumerate_ovic(emb, 1, 2)
    assert fs
    data = count_identity_report(emb, 1, 2)
    assert data["vic"] == len(fs) * data["gl"] or not data["matches"]

    pool = [f for n in (1, 2) for f in enumerate_ovic(emb, 1, n)]
    for f in pool:
        for g in pool:
            c1, c2 = total_compare(f, g), total_compare(g, f)
            assert c1 == -c2 and ((c1 == 0) == (f == g))

    moved = 0
    for f in fs:
        w = iota(f)
        assert len(w) == 2
        for m1, m2 in w.letters:
            assert len(m1) == 2 and all(len(row) == 2 for row in m1)
            assert len(m2) == 1
        for move in valid_moves(f):
            g = insert_successor(f, move)
            assert is_column_adapted(g.f_dprime, emb_of("M2F2"))
            assert g.s_sets == s_function(g.f_dprime, emb)
            chain = partial_leq(f, g)
            assert chain is not None
            phi = build_phi(f, chain, expect=g)
            assert compose_vic(phi, f) == g
            assert word_leq(iota(f), iota(g))
            moved += 1
    assert moved > 0
