"""Total order, insertion moves, word embedding, completion morphisms."""

from __future__ import annotations

import itertools
import random

import pytest

from vicbench.errors import InvalidMove, SearchBudgetExceeded, SourceMismatch
from vicbench.noether import (
    ModuleElement,
    act,
    enumerate_ovic,
    init_term,
    initial_module_to_degree,
    parse_field,
    span_to_degree,
)
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
    split_rows,
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


@pytest.mark.parametrize("name,d,nmax", [
    ("F2", 1, 3), ("Z4", 1, 3), ("T2F2", 1, 3), ("M2F2", 1, 2),
])
def test_insert_successor_is_the_reconstruction(name, d, nmax):
    """The successor is the column-adapted morphism with the duplicated f''
    and the free rows of the duplicated f'.  The free rows are read at the
    successor's pivot sets; ``reconstruct_from_free`` takes its own from
    ``s_function``, so a wrong pivot set fails the comparison."""
    emb = emb_of(name)
    for n in range(1, nmax + 1):
        for h in enumerate_ovic(emb, d, n):
            for move in valid_moves(h):
                a, b = move.a, move.b
                got = insert_successor(h, move)
                g_dprime = h.f_dprime.insert_col(b, h.f_dprime.col(a - 1))
                big = emb.phi_on_matrices(h.f_prime.insert_row(b, h.f_prime.row(a - 1)))
                free, _ = split_rows(emb, n + 1, got.s_sets)
                want = reconstruct_from_free(g_dprime, [big.row(r - 1) for r in free], emb)
                assert got == want and got.s_sets == want.s_sets, (h, move)


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


def _columns(f):
    return [f.f_dprime.col(c) for c in range(f.n)]


def _is_subsequence(short, long) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def _partial_leq_oracle(f, g):
    """The search without the word embedding: every valid move in (a, b)
    order, memoised on intermediate morphisms, pruned only when the f''
    columns stop embedding in those of g (moves only duplicate columns)."""
    if f == g:
        return []
    if f.n >= g.n:
        return None
    g_cols = _columns(g)
    if not _is_subsequence(_columns(f), g_cols):
        return None
    failed = set()

    def dfs(h):
        if h.n == g.n:
            return [] if h == g else None
        if h in failed:
            return None
        for move in valid_moves(h):
            h2 = insert_successor(h, move)
            if not _is_subsequence(_columns(h2), g_cols):
                continue
            rest = dfs(h2)
            if rest is not None:
                return [move] + rest
        failed.add(h)
        return None

    return dfs(f)


@pytest.mark.parametrize("name,horizon,degrees,terms,seed,sample", [
    ("F2", 4, (2, 2, 3), 2, 0, 600),
    ("Z4", 3, (2, 2, 2), 2, 0, 600),
    ("T2F2", 3, (2,), 2, 1, None),
])
def test_partial_leq_matches_the_unpruned_search(name, horizon, degrees, terms, seed, sample):
    """Whole chains, not only verdicts, agree with the search that never
    looks at words, on pairs of leading morphisms of a seeded span; the pairs
    include related ones and ones whose f'' columns embed but whose words
    do not."""
    emb = emb_of(name)
    field = parse_field("F2")
    rng = random.Random(seed)
    gens = [
        ModuleElement(1, n, field, {f: 1 for f in rng.sample(enumerate_ovic(emb, 1, n), terms)})
        for n in degrees
    ]
    leading = initial_module_to_degree(span_to_degree(gens, horizon, emb, field), horizon)
    pairs = [(f, g) for a in leading for b in leading if a < b
             for f in leading[a] for g in leading[b]]
    if sample is not None:
        pairs = rng.sample(pairs, sample)
    related = columns_only = 0
    for f, g in pairs:
        chain = partial_leq(f, g)
        assert chain == _partial_leq_oracle(f, g)
        related += chain is not None
        columns_only += (_is_subsequence(_columns(f), _columns(g))
                         and not word_leq(iota(f), iota(g)))
    assert related and columns_only


def _word_leq_reach(s, t):
    """The word order decided by the set of counts of letters of s matched
    so far that some embedding of each prefix of t reaches."""
    n = len(s)
    prefix_sets = [set()]
    for letter in s:
        prefix_sets.append(prefix_sets[-1] | {letter})
    reach = {0}
    for letter in t:
        nxt = set()
        for i in reach:
            if letter in prefix_sets[i]:
                nxt.add(i)                      # skip: already dominated
            if i < n and s[i] == letter:
                nxt.add(i + 1)                  # match here
        reach = nxt
        if not reach:
            return False
    return n in reach


def _word_pruned_search(f, g, f_word, g_word):
    """Backtracking over every valid move in (a, b) order, memoised on
    intermediate morphisms, following a move only when its successor's word
    embeds in iota(g): (chain or None, moves tried)."""
    if not _word_leq_reach(f_word, g_word):
        return None, 0
    failed = set()
    nodes = 0

    def dfs(h, word):
        nonlocal nodes
        if h.n == g.n:
            return [] if h == g else None
        if h in failed:
            return None
        for move in valid_moves(h):
            nodes += 1
            word2 = word[:move.b] + (word[move.a - 1],) + word[move.b:]
            if not _word_leq_reach(word2, g_word):
                continue
            rest = dfs(insert_successor(h, move), word2)
            if rest is not None:
                return [move] + rest
        failed.add(h)
        return None

    return dfs(f, f_word), nodes


@pytest.mark.parametrize("name,d,top", [
    ("F2", 1, 4), ("F3", 1, 3), ("Z4", 1, 3), ("F2C2", 1, 3),
    ("M2F2", 1, 2), ("Z8", 1, 2), ("T2F2", 1, 2), ("F2", 2, 4),
])
def test_partial_leq_is_the_backtracking_search(name, d, top):
    """Every f in OVIC(d, m) and g in OVIC(d, m') with m < m' <= top.  For
    top = d + 1 the only f is the identity, which has no pivot-free column,
    so each member of rank top is paired with its one-move successors too.
    A pair is related exactly when its words embed, and the forward pass
    returns the backtracking search's chain after as many moves tried, so
    both give up below the same node cap.  The greedy scan decides each
    word pair as the reach sets do."""
    emb = emb_of(name)
    pool = [(f, iota(f).letters) for m in range(d, top + 1) for f in enumerate_ovic(emb, d, m)]
    pairs = [(f, f_word, g, g_word) for f, f_word in pool for g, g_word in pool if f.n < g.n]
    for f, f_word in pool:
        if f.n == top == d + 1:
            for move in valid_moves(f):
                g = insert_successor(f, move)
                pairs.append((f, f_word, g, iota(g).letters))
    related = 0
    for f, f_word, g, g_word in pairs:
        assert word_leq_letters(f_word, g_word) == _word_leq_reach(f_word, g_word)
        chain, nodes = _word_pruned_search(f, g, f_word, g_word)
        assert (chain is not None) == word_leq_letters(f_word, g_word)
        assert partial_leq(f, g, node_cap=nodes) == chain
        if nodes:
            with pytest.raises(SearchBudgetExceeded):
                partial_leq(f, g, node_cap=nodes - 1)
        related += chain is not None
    assert related


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


def test_word_leq_scan_is_the_reach_sets():
    words = [w for length in range(7) for w in itertools.product("ab", repeat=length)]
    for s in words:
        for t in words:
            assert word_leq_letters(s, t) == _word_leq_reach(s, t), (s, t)


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


@pytest.mark.parametrize("name,d,n", [
    (name, d, n)
    for name, nmax in [("F2", 3), ("F3", 2), ("Z4", 2), ("Z8", 2), ("F2C2", 2), ("T2F2", 2)]
    for d in (1, 2)
    for n in range(d + 1, nmax + 1)
] + [("M2F2", 1, 2)])
def test_a_move_copies_one_letter_of_the_word(name, d, n):
    """iota(successor) is iota(h) with letter a copied after position b: the
    fact that lets partial_leq prune a move before building its successor."""
    moves = 0
    for h in enumerate_ovic(emb_of(name), d, n):
        w = iota(h).letters
        for m in valid_moves(h):
            assert iota(insert_successor(h, m)).letters == w[:m.b] + (w[m.a - 1],) + w[m.b:]
            moves += 1
    assert moves


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


@pytest.mark.parametrize("name,d,n", [
    ("F2", 1, 2), ("F3", 1, 2), ("Z4", 1, 2), ("Z8", 1, 2), ("F2C2", 1, 2),
    ("T2F2", 1, 2), ("M2F2", 1, 2), ("F2", 1, 3), ("F2", 2, 3), ("F3", 2, 3),
])
def test_build_phi_monotone_below(name, d, n):
    """Exhaustive: for every move on f, its completion phi keeps every h < f
    below f.  F2S3 1 -> 2 (13,440 members) is left out for time."""
    emb = emb_of(name)
    stratum = enumerate_ovic(emb, d, n)
    for i, f in enumerate(stratum):
        for move in valid_moves(f):
            g = insert_successor(f, move)
            phi = build_phi(f, [move], expect=g)
            for h in stratum[:i]:
                assert total_compare(h, f) == LT
                assert total_compare(compose_vic(phi, h), g) == LT


def test_post_composition_does_not_preserve_the_order():
    """Over F2, f < f2 in OVIC(1, 2) while phi o f > phi o f2 for one phi in
    OVIC(2, 3), so init(phi x) differs from phi init(x) for x = f + f2: leads
    move only along completions."""
    emb = emb_of("F2")
    field = parse_field("F2")
    f, f2 = morph("F2", [[1, 0]], [(0,)]), morph("F2", [[1, 0]], [(1,)])
    assert total_compare(f, f2) == LT
    phi = OvicMorphism(mat("F2", [[1, 0], [1, 1], [1, 0]]),
                       mat("F2", [[1, 0, 0], [0, 1, 1]]), emb)
    assert total_compare(compose_vic(phi, f), compose_vic(phi, f2)) == GT
    x = ModuleElement(1, 2, field, {f: 1, f2: 1})
    assert init_term(x) == (1, f2)
    assert init_term(act(phi, x)) == (1, compose_vic(phi, f))
    assert init_term(act(phi, x)) != (1, compose_vic(phi, init_term(x)[1]))


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
