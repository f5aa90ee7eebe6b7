"""Generated strata against the brute-force filters they replaced.

``enumerate_ovic`` and ``enumerate_vic`` generate OVIC(d, n) by a column
search and VIC(d, n) as OVIC(d, n) o GL_d, GL_d a closure of transvections
and diagonal units that finds each element with its inverse.  The oracles
below build every d x n matrix f'', keep the column-adapted (respectively
the split) ones and scan all of R^n for the splittings, then sort by the
same keys; GL_d is checked against every d x d matrix that
``matrix_invertible`` accepts.  Both sides must return equal lists, order
included.  The stratum sizes are also checked against the closed form
through |GL_n(R)| (``noether.closed_form_counts``).
"""

from __future__ import annotations

import gc
import itertools
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from spec_rings import spec_rings

from vicbench import noether
from vicbench.errors import BadShape, BudgetExceeded, InvalidMorphism
from vicbench.noether import closed_form_counts, enumerate_ovic, enumerate_vic
from vicbench.ovic import (
    OvicMorphism,
    VicMorphism,
    canonical_splitting,
    column_adapted_s_sets,
)
from vicbench.rings import (
    BUILTIN_NAMES,
    RMatrix,
    build_ring,
    builtin_ring,
    iter_vectors,
    matrix_invertible,
    matvec,
    mul_entries,
    zmod,
)
from vicbench.wedderburn import build_aw_embedding


def filter_ovic(emb, d, n):
    """Every d x n matrix kept when column-adapted; its splittings are the
    canonical one shifted by kernel columns, the kernel found by a scan."""
    ring = emb.ring
    if d == 0:
        return [OvicMorphism(RMatrix(ring, n, 0, []), RMatrix(ring, 0, n, []),
                             emb, s_sets=tuple(() for _ in range(emb.q)),
                             check=False)]
    if n < d:
        return []
    zero_vec = tuple([ring.zero] * d)
    out = []
    for entries in itertools.product(ring.elements(), repeat=d * n):
        f_dprime = RMatrix(ring, d, n, entries)
        s_sets = column_adapted_s_sets(f_dprime, emb)
        if s_sets is None:
            continue
        kernel = [v for v in iter_vectors(ring, n)
                  if matvec(ring, f_dprime, v) == zero_vec]
        psi = canonical_splitting(s_sets, emb, m=n, n=d)
        for combo in itertools.product(kernel, repeat=d):
            f_prime = RMatrix(
                ring, n, d,
                [ring.add(psi.get(r, j), combo[j][r])
                 for r in range(n) for j in range(d)],
            )
            out.append(OvicMorphism(f_prime, f_dprime, emb,
                                    s_sets=s_sets, check=False))
    out.sort(key=lambda f: f.order_key)
    return out


def filter_vic(emb, d, n):
    """Every d x n matrix kept when each unit vector has a preimage; the
    splittings are all choices of preimages, found by a scan."""
    ring = emb.ring
    if d == 0:
        return [VicMorphism(RMatrix(ring, n, 0, []), RMatrix(ring, 0, n, []),
                            check=False)]
    if n < d:
        return []
    ident_cols = [
        tuple(ring.one if i == j else ring.zero for i in range(d))
        for j in range(d)
    ]
    out = []
    for entries in itertools.product(ring.elements(), repeat=d * n):
        f_dprime = RMatrix(ring, d, n, entries)
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
    out.sort(key=lambda f: (f.f_dprime.entries, f.f_prime.entries))
    return out


def assert_twins(got, want):
    """Enumerated members against the oracle's, built by the public
    constructors: equal, of the same type and shape, and hashing alike,
    their f' and f'' matrices too."""
    assert got == want
    for f, g in zip(got, want):
        assert (type(f), f.d, f.n, hash(f)) == (type(g), g.d, g.n, hash(g))
        for a, b in ((f.f_prime, g.f_prime), (f.f_dprime, g.f_dprime)):
            assert a == b
            assert (a.ring, a.rows, a.cols, hash(a)) == (b.ring, b.rows, b.cols, hash(b))


def assert_strata_match(emb, d, n):
    got, want = enumerate_ovic(emb, d, n), filter_ovic(emb, d, n)
    assert_twins(got, want)
    assert [f.s_sets for f in got] == [f.s_sets for f in want]
    # the oracle's keys are computed afresh by the order_key property
    assert [f.order_key for f in got] == [f.order_key for f in want]
    assert_twins(enumerate_vic(emb, d, n), filter_vic(emb, d, n))


def test_group_checks_reject_what_the_constructors_reject():
    """Members are built unchecked; their parts are checked once per f''."""
    ring = builtin_ring("Z4")
    f2 = RMatrix(ring, 1, 2, [1, 0])
    noether._check_group(ring, 1, 2, f2, (1, 0), [(0, 0), (0, 1)])
    with pytest.raises(InvalidMorphism):
        noether._check_group(ring, 1, 2, RMatrix(builtin_ring("F2"), 1, 2, [1, 0]),
                             (1, 0), [(0, 0)])
    with pytest.raises(InvalidMorphism):
        noether._check_group(ring, 1, 3, f2, (1, 0), [(0, 0)])
    for base, shifts in (((1,), [(0, 0)]), ((1, 0), [(0, 0), (0,)]), ((1.0, 0), [(0, 0)])):
        with pytest.raises(BadShape):
            noether._check_group(ring, 1, 2, f2, base, shifts)


def test_member_hashes_keep_their_formula():
    emb = build_aw_embedding(builtin_ring("Z4"))
    for f in enumerate_ovic(emb, 1, 2) + enumerate_vic(emb, 1, 2):
        m = f.f_prime
        assert hash(m) == hash((id(m.ring), m.rows, m.cols, m.entries))
        assert hash(f) == hash((id(f.ring), f.d, f.n, f.f_prime.entries,
                                f.f_dprime.entries))


def _grid():
    """(ring, d, n) with d, n <= 4, at most 4096 candidate f'' and at most
    2^18 vectors scanned by the VIC filter.  The second bound leaves out
    Z8 1->4, T2F2 1->4, M2F2 1->3 and F2S3 1->2 (2^24 vectors each); F2S3
    1->2 is counted in ``test_f2s3_rank_one_strata`` instead."""
    out = []
    for name in BUILTIN_NAMES:
        size = builtin_ring(name).size
        out.extend((name, d, n) for d in range(5) for n in range(5)
                   if size ** (d * n) <= 4096 and size ** ((d + 1) * n) <= 2 ** 18)
    return out


GRID = _grid()


@pytest.mark.parametrize("name,d,n", GRID, ids=[f"{r}-{d}-{n}" for r, d, n in GRID])
def test_generated_strata_equal_filter_oracle(name, d, n):
    assert_strata_match(build_aw_embedding(builtin_ring(name)), d, n)


@pytest.mark.parametrize("name,d,n", GRID, ids=[f"{r}-{d}-{n}" for r, d, n in GRID])
def test_closed_form_counts_equal_enumeration(name, d, n):
    emb = build_aw_embedding(builtin_ring(name))
    assert closed_form_counts(emb, d, n) == (len(enumerate_ovic(emb, d, n)),
                                             len(enumerate_vic(emb, d, n)))


GL_GRID = [(name, d) for name in BUILTIN_NAMES for d in (1, 2, 3)
           if builtin_ring(name).size ** (d * d) <= 4096]


@pytest.mark.parametrize("name,d", GL_GRID, ids=[f"{r}-{d}" for r, d in GL_GRID])
def test_general_linear_equals_invertibility_filter(name, d):
    """VIC(d, d) is {(g^-1, g)}: its f'' run over GL_d in entry order."""
    emb = build_aw_embedding(builtin_ring(name))
    ring = emb.ring
    expected = [e for e in itertools.product(ring.elements(), repeat=d * d)
                if matrix_invertible(RMatrix(ring, d, d, e), emb.qdata)[0]]
    pairs = enumerate_vic(emb, d, d)
    assert [f.f_dprime.entries for f in pairs] == expected
    ident = RMatrix.identity(ring, d)
    for f in pairs:
        assert f.f_dprime.mul(f.f_prime) == ident == f.f_prime.mul(f.f_dprime)


@st.composite
def small_general_linear(draw):
    """A ring of at most 64 elements from the spec grammar and d <= 2 with
    at most 4096 d x d matrices to filter."""
    ring = draw(spec_rings())
    d = draw(st.sampled_from([d for d in (1, 2) if ring.size ** (d * d) <= 4096]))
    return ring, d


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_general_linear())
def test_general_linear_on_random_rings(case):
    """GL_d(R) as the closure of transvections and diagonal units: mutually
    inverse pairs whose g are the matrices ``matrix_invertible`` accepts,
    |GL_d(R)| of them.  40 fixed examples, about 1 s on a 2-core x86
    container."""
    ring, d = case
    emb = build_aw_embedding(ring)
    pairs, _ = noether._general_linear(emb, d, 10 ** 6)
    ident = RMatrix.identity(ring, d).entries
    for g, g_inv in pairs:
        assert mul_entries(ring, g, g_inv, d, d, d) == ident
        assert mul_entries(ring, g_inv, g, d, d, d) == ident
    expected = [e for e in itertools.product(ring.elements(), repeat=d * d)
                if matrix_invertible(RMatrix(ring, d, d, e), emb.qdata)[0]]
    assert sorted(g for g, _ in pairs) == expected
    assert len(pairs) == noether._gl_order(emb, d)


def test_general_linear_multiplies_each_element_by_each_generator_once():
    """Z8, d = 2: 1536 elements; generators are the transvections I + E_01
    and I + E_10 (1 generates Z8 additively) and diag(u, 1) for u = 3, 5,
    7.  The closure's products count against the budget before it runs."""
    emb = build_aw_embedding(zmod(8))  # a fresh ring: nothing cached yet
    gens = noether._gl_generators(emb.ring, 2)
    assert len(gens) == 5
    with pytest.raises(BudgetExceeded):
        noether._general_linear(emb, 2, 1536 * 5 - 1)
    assert ("gl", 2) not in emb.enum_cache
    pairs, products = noether._general_linear(emb, 2, 1536 * 5)
    assert len(pairs) == len({g for g, _ in pairs}) == 1536
    assert products == 1536 * 5
    assert noether._general_linear(emb, 2, 1536 * 5) == (pairs, products)
    with pytest.raises(BudgetExceeded):
        noether._general_linear(emb, 2, 1536 * 5 - 1)


def test_general_linear_guards_its_count(monkeypatch):
    """A closure that misses elements is a bug, not a smaller group."""
    emb = build_aw_embedding(zmod(8))
    gens = noether._gl_generators(emb.ring, 2)
    monkeypatch.setattr(noether, "_gl_generators", lambda ring, d: gens[:1])
    with pytest.raises(RuntimeError, match="closure"):
        noether._general_linear(emb, 2, 10 ** 6)


@pytest.mark.parametrize("spec", ["zmod(8)", "matrix_ring(zmod(2),2)"])
def test_over_budget_vic_refuses_before_the_closure(monkeypatch, spec):
    """The VIC work is counted from |GL_d| in closed form, so a request past
    the budget never builds GL_d.  A budget of the OVIC(2, 2) work lets the
    column search pass and leaves the VIC work (1536 or 20160 elements of
    GL_2 times 5 or 13 generators, plus 2 each) over it."""
    calls = []
    closure = noether._general_linear
    monkeypatch.setattr(noether, "_general_linear",
                        lambda *args: calls.append(args) or closure(*args))
    emb = build_aw_embedding(build_ring(spec))
    enumerate_ovic(emb, 2, 2)
    _, ovic_work = emb.enum_cache[("ovic", 2, 2)]
    with pytest.raises(BudgetExceeded):
        enumerate_vic(emb, 2, 2, budget=ovic_work)
    assert calls == []
    assert ("gl", 2) not in emb.enum_cache


@st.composite
def small_strata(draw):
    """A ring of at most 64 elements from the spec grammar, and a stratum
    1 <= d <= n whose VIC filter scans at most 2^15 vectors (the grid above
    covers d = 0 and n < d)."""
    ring = draw(spec_rings())
    pairs = [(d, n) for d in (2, 1) for n in range(3, d - 1, -1)
             if ring.size ** ((d + 1) * n) <= 2 ** 15]
    d, n = draw(st.sampled_from(pairs))
    return ring, d, n


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_strata())
def test_generated_strata_on_random_rings(stratum):
    """40 fixed examples, about 1 s on a 2-core x86 container."""
    ring, d, n = stratum
    emb = build_aw_embedding(ring)
    assert_strata_match(emb, d, n)
    assert closed_form_counts(emb, d, n) == (len(enumerate_ovic(emb, d, n)),
                                             len(enumerate_vic(emb, d, n)))


def test_m2f2_rank_two_strata():
    emb = build_aw_embedding(builtin_ring("M2F2"))
    # GL_2(M_2(F2)) = GL_4(F2), of order (16 - 1)(16 - 2)(16 - 4)(16 - 8)
    assert len(enumerate_vic(emb, 2, 2)) == 15 * 14 * 12 * 8 == 20160
    assert enumerate_ovic(emb, 2, 2) == [OvicMorphism.identity(emb, 2)]
    assert closed_form_counts(emb, 2, 2) == (1, 20160)


def test_f2s3_rank_one_strata():
    ring = builtin_ring("F2S3")
    emb = build_aw_embedding(ring)
    # VIC(1, 1) is the unit group
    assert len(enumerate_vic(emb, 1, 1)) == sum(map(ring.is_unit, ring.elements())) == 12
    # F2[S3] = F2[C2] x M2(F2), and split pairs over a product are pairs of
    # split pairs; both factors' strata are checked against the filters
    vic = enumerate_vic(emb, 1, 2)
    factors = [len(enumerate_vic(build_aw_embedding(builtin_ring(name)), 1, 2))
               for name in ("F2C2", "M2F2")]
    assert factors == [48, 3360]
    assert len(vic) == 48 * 3360 == 161280
    assert closed_form_counts(emb, 1, 2) == (len(enumerate_ovic(emb, 1, 2)), 161280)
    assert len(set(vic)) == len(vic)
    ident = RMatrix.identity(ring, 1)
    assert all(f.f_dprime.mul(f.f_prime) == ident for f in vic)


def test_z4_rank_three_stratum():
    """4^12 candidate f'', out of reach of the filter.  Over a local ring
    with residue field F2, each of the d(n - d) entries outside the pivot
    columns and each kernel coordinate lifts in |J| ways."""
    z4 = build_aw_embedding(builtin_ring("Z4"))
    f2 = build_aw_embedding(builtin_ring("F2"))
    d, n = 3, 4
    assert len(enumerate_ovic(z4, d, n)) == len(enumerate_ovic(f2, d, n)) * 2 ** (2 * d * (n - d))
    assert len(enumerate_ovic(z4, d, n)) == 7680
    assert closed_form_counts(z4, d, n)[0] == 7680


def test_strata_cached_on_the_embedding():
    ring = builtin_ring("T2F2")
    emb = build_aw_embedding(ring)
    first = enumerate_ovic(emb, 1, 2)
    assert enumerate_ovic(emb, 1, 2) is first
    assert ("ovic", 1, 2) in emb.enum_cache


def test_column_search_order_and_nodes():
    """Prefixes kept while their sum is at most 3: the kept triples in
    lexicographic order, and one node per candidate of every kept prefix
    shorter than 3 (the empty one included)."""
    width, n = 3, 3

    def step(total, c, idx):
        return total + idx if total + idx <= 3 else None

    found, nodes = noether._column_search(width, n, step, 0, 10 ** 6, "toy")
    words = list(itertools.product(range(width), repeat=n))
    assert found == [(w, sum(w)) for w in words if sum(w) <= 3]
    kept = [w for k in range(n) for w in itertools.product(range(width), repeat=k)
            if sum(w) <= 3]
    assert nodes == width * len(kept)
    with pytest.raises(BudgetExceeded):
        noether._column_search(width, n, step, 0, nodes - 1, "toy")


@pytest.mark.parametrize("spec,d,n", [
    ("zmod(2)", 1, 3), ("zmod(4)", 2, 3), ("upper_triangular(zmod(2),2)", 1, 3),
    ("zmod(8)", 2, 2), ("zmod(2)", 3, 4),
])
def test_stratum_builds_leave_no_cyclic_garbage(spec, d, n):
    """Builds run with the collector paused; what they drop must then be
    freed by reference counting alone, so a collection finds nothing."""
    emb = build_aw_embedding(build_ring(spec))  # a fresh ring: nothing cached yet
    gc.collect()
    gc.disable()
    try:
        enumerate_ovic(emb, d, n)
        enumerate_vic(emb, d, n)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_builds_run_with_the_collector_paused(monkeypatch):
    seen = []

    def recording(fn):
        def wrapped(*args):
            seen.append((fn.__name__, gc.isenabled()))
            return fn(*args)
        return wrapped

    for name in ("_splittings", "_general_linear"):
        monkeypatch.setattr(noether, name, recording(getattr(noether, name)))
    emb = build_aw_embedding(build_ring("zmod(4)"))
    enumerate_ovic(emb, 1, 2)
    assert gc.isenabled()
    enumerate_vic(emb, 1, 2)
    assert gc.isenabled()
    assert seen == [("_splittings", False), ("_splittings", False),
                    ("_general_linear", False)]


def test_collector_back_on_after_budget_exceeded():
    """Z4 1 -> 2: the OVIC work is 40 (16 search nodes, 24 members), the
    VIC work 68, so a budget of 40 fails inside the paused VIC build after
    its column search has passed."""
    emb = build_aw_embedding(build_ring("zmod(4)"))
    with pytest.raises(BudgetExceeded):
        enumerate_vic(emb, 1, 2, budget=40)
    assert gc.isenabled()
    assert len(enumerate_ovic(emb, 1, 2, budget=40)) == 24
    assert gc.isenabled()


def test_builds_leave_a_disabled_collector_disabled():
    emb = build_aw_embedding(build_ring("zmod(4)"))
    gc.disable()
    try:
        enumerate_ovic(emb, 1, 2)
        enumerate_vic(emb, 1, 2)
        with pytest.raises(BudgetExceeded):
            enumerate_vic(emb, 1, 2, budget=40)
        assert not gc.isenabled()
    finally:
        gc.enable()


tenured = pytest.mark.skipif(
    gc.get_freeze_count() > 0,
    reason="objects are frozen (CPython 3.12 freezes its static types' __mro__ and "
           "__bases__), so builds are not tenured")


class _Node:
    """A container that can hold a reference cycle and a weak reference."""


def _cycle() -> weakref.ref:
    """A weak reference to a fresh reference cycle that only it reaches."""
    node = _Node()
    node.self = node
    return weakref.ref(node)


@tenured
def test_finished_builds_start_no_collection_over_their_members(monkeypatch):
    """A finished build tenures its members into the oldest generation, so
    no collection walks them: over Z4 2 -> 3 (43456 members) the only
    collections are the two builds' sweeps of the young generations, each
    started with few young objects."""
    monkeypatch.setattr(noether, "_tenure", [0, 0, 0])
    emb = build_aw_embedding(build_ring("zmod(4)"))
    gc.collect()
    started = []

    def count(phase, info):
        if phase == "start":
            started.append((info["generation"], gc.get_count()[0] < 700))

    gc.callbacks.append(count)
    try:
        built = enumerate_ovic(emb, 2, 3) + enumerate_vic(emb, 2, 3)
        after = [[i] for i in range(100)]
    finally:
        gc.callbacks.remove(count)
    assert len(built) == 43456 and len(after) == 100
    assert started == [(1, True), (1, True)]


@tenured
def test_cycles_made_between_builds_are_freed():
    """A caller that builds in a loop and allocates little in between still
    has its cyclic garbage freed without calling the collector: each build
    first sweeps the young generations."""
    emb = build_aw_embedding(build_ring("zmod(4)"))
    refs = []
    for _ in range(20):
        enumerate_vic(emb, 1, 2)
        refs.append(_cycle())
    enumerate_vic(emb, 1, 2)
    assert [ref() for ref in refs] == [None] * 20


def test_cycles_tenured_while_alive_are_freed_by_a_later_full_sweep(monkeypatch):
    """A cycle still reachable at a build's sweep is tenured with the
    build; once it is garbage, the full collection that the sweeps start
    after threshold1 x threshold2 builds frees it."""
    monkeypatch.setattr(noether, "_tenure", [0, 0, 0])
    emb = build_aw_embedding(build_ring("zmod(4)"))
    node = _Node()
    node.self = node
    ref = weakref.ref(node)
    enumerate_vic(emb, 1, 2)
    del node
    _, middle, oldest = gc.get_threshold()
    for _ in range(middle * oldest):
        enumerate_vic(emb, 1, 2)
    assert ref() is None


def test_builds_sweep_nothing_with_automatic_collection_off():
    emb = build_aw_embedding(build_ring("zmod(4)"))
    thresholds = gc.get_threshold()
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.set_threshold(0)
    gc.callbacks.append(count)
    try:
        enumerate_vic(emb, 1, 2)
        enumerate_vic(emb, 1, 2)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
    assert started == []


_FREEZE_THEN_BUILD = """
import gc
from vicbench.noether import enumerate_ovic, enumerate_vic
from vicbench.rings import build_ring
from vicbench.wedderburn import build_aw_embedding
emb = build_aw_embedding(build_ring("zmod(4)"))
gc.freeze()
frozen = gc.get_freeze_count()
enumerate_ovic(emb, 1, 2)
enumerate_vic(emb, 1, 2)
print(frozen, gc.get_freeze_count())
"""


def test_builds_keep_the_callers_frozen_objects_frozen():
    """Runs in a fresh interpreter: undoing the ``gc.freeze`` here would
    take ``gc.unfreeze``, which also thaws the objects CPython 3.12 starts
    with frozen."""
    src = str(Path(noether.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FREEZE_THEN_BUILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    frozen, after = map(int, proc.stdout.split())
    assert frozen
    assert after == frozen
