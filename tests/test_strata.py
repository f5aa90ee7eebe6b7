"""Generated strata against the brute-force filters they replaced.

``enumerate_ovic`` and ``enumerate_vic`` generate OVIC(d, n) by a column
search and VIC(d, n) as OVIC(d, n) o GL_d, GL_d lifted through the fibres
of R -> R/J from a closure of transvections and diagonal units over R/J.
The oracles below build every d x n matrix f'', keep the column-adapted
(respectively the split) ones and scan all of R^n for the splittings, then
sort by the same keys; GL_d is checked against every d x d matrix that
``matrix_invertible`` accepts and against the closure over R itself
(``oracles.general_linear_by_closure``).  Both sides must return equal
members, order included; both sequences are also checked indexed from
either end and sliced, and the OVIC rank view against the oracle's
positions.  The
stratum sizes are also checked against the closed form through |GL_n(R)|
(``noether.closed_form_counts``).
"""

from __future__ import annotations

import gc
import itertools
import json
import operator
import weakref

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    column_adapted_dprimes_by_search,
    digit_ranks,
    general_linear_by_closure,
    sorted_ranks,
    store_by_record,
)
from spec_rings import spec_rings

from vicbench import noether
from vicbench.cli import main
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


def assert_sequence_matches(seq, want):
    """A stratum sequence against the oracle's list: walked, indexed at
    every position from either end, and sliced; out of range at its length
    on both sides."""
    size = len(want)
    assert len(seq) == size
    assert_twins(list(seq), want)
    assert_twins([seq[i] for i in range(size)], want)
    assert_twins([seq[-i - 1] for i in range(size)], want[::-1])
    for part in (slice(None), slice(1, None, 2), slice(None, None, -3), slice(-5, -1),
                 slice(size // 2, size + 4)):
        assert_twins(list(seq[part]), want[part])
    for i in (size, -size - 1):
        with pytest.raises(IndexError):
            seq[i]


def assert_strata_match(emb, d, n):
    """Both strata against the filters; the OVIC digit ranks, read off the
    store, against the sorting oracle and the positions of the walked
    members, and ``rank`` of each oracle member against its position."""
    got, want = enumerate_ovic(emb, d, n), filter_ovic(emb, d, n)
    ranks = digit_ranks(got)
    assert ranks == sorted_ranks(got)
    assert_sequence_matches(got, want)
    walked = list(got)
    assert [f.s_sets for f in walked] == [f.s_sets for f in want]
    # the oracle's keys are computed afresh by the order_key property
    assert [f.order_key for f in walked] == [f.order_key for f in want]
    positions = {}
    for i, f in enumerate(walked):
        positions.setdefault(f.f_dprime.entries, {})[f.f_prime.entries] = i
    assert ranks == positions
    assert [got.rank(f) for f in want] == list(range(len(want)))
    assert_sequence_matches(enumerate_vic(emb, d, n), filter_vic(emb, d, n))


def _corrupt_row_spaces(monkeypatch, corrupt):
    """Have ``_free_values`` hand every record ``corrupt`` of its V_i."""
    free_values = noether._free_values
    monkeypatch.setattr(noether, "_free_values", lambda emb, d, dependent: (
        lambda proj, values: (proj, corrupt(values)))(*free_values(emb, d, dependent)))


@pytest.mark.parametrize("corrupt", [lambda values: values + values[-1:],
                                     lambda values: values[1:]], ids=["repeats", "lacks"])
def test_digit_tables_refuse_a_record_off_the_product(monkeypatch, corrupt):
    """A record whose V_i repeats a value, or lacks one, is not the product
    of its free rows: the build raises RuntimeError before any member of
    the record is built or ranked.  A store that disagrees with the
    projections (two members of a record swapped) passes the build, but
    its digit table raises RuntimeError, so neither ``rank`` nor a
    composite column ranks its members."""
    clean = enumerate_ovic(build_aw_embedding(build_ring("zmod(3)")), 1, 3)
    k = len(clean._records) // 2
    member = clean[clean._starts[k]]
    batches = []
    batch = OvicMorphism._batch.__func__
    monkeypatch.setattr(OvicMorphism, "_batch", classmethod(
        lambda cls, *args: batches.append(args) or batch(cls, *args)))
    with monkeypatch.context() as patch:
        _corrupt_row_spaces(patch, corrupt)
        emb = build_aw_embedding(build_ring("zmod(3)"))
        with pytest.raises(RuntimeError, match=r"record 0 of OVIC\(1, 3\) is not the product"):
            enumerate_ovic(emb, 1, 3)
    assert ("ovic", 1, 3) not in emb.enum_cache and batches == []
    # the middle record with its first two members swapped
    count, offset = clean._records[k][3:]
    swapped = [column[:offset] + column[offset + 1:offset + 2] + column[offset:offset + 1]
               + column[offset + 2:] for column in clean._columns]
    stratum = noether.OvicStratum(clean._emb, 1, 3, clean._records, swapped, clean.nodes)
    assert count > 1 and swapped != clean._columns
    with pytest.raises(RuntimeError, match=rf"record {k} of OVIC\(1, 3\) is not the product"):
        stratum.rank(member)
    with pytest.raises(RuntimeError, match="not the product"):
        noether._composite_ranks(stratum, stratum, OvicMorphism.identity(clean._emb, 1))
    assert k not in stratum._digits and batches == []


def test_group_checks_reject_what_the_constructors_reject():
    """Members are built unchecked; their parts are checked once: f'' per
    record (``_check_dprime``), psi and the V_i per pivot pattern
    (``_check_group``)."""
    ring = builtin_ring("Z4")
    f2 = RMatrix(ring, 1, 2, [1, 0])
    spaces = [[(0,)], [(0,), (1,), (2,), (3,)]]
    noether._check_dprime(ring, 1, 2, f2)
    noether._check_group(1, 2, (1, 0), spaces)
    with pytest.raises(InvalidMorphism):
        noether._check_dprime(ring, 1, 2, RMatrix(builtin_ring("F2"), 1, 2, [1, 0]))
    with pytest.raises(InvalidMorphism):
        noether._check_dprime(ring, 1, 3, f2)
    for base, rows in (((1,), spaces), ((1, 0), [[(0,)], [(0,), ()]]), ((1, 0), spaces[:1]),
                       ((1, 0), [[(0, 0)], spaces[1]]), ((1.0, 0), spaces)):
        with pytest.raises(BadShape):
            noether._check_group(1, 2, base, rows)


def _spy_on_columns(monkeypatch) -> list:
    """Record every ``pack`` call, as each entry column of a store is built
    through one: the list of its arguments."""
    packing, packed = noether._packing, []

    def spied(ring):
        pack, table, through = packing(ring)
        return lambda *args: packed.append(args) or pack(*args), table, through

    monkeypatch.setattr(noether, "_packing", spied)
    return packed


@pytest.mark.parametrize("bad", ["ring", "shape"])
@pytest.mark.parametrize("enumerate_", [enumerate_ovic, enumerate_vic])
def test_builds_refuse_a_record_whose_f_dprime_is_off(monkeypatch, bad, enumerate_):
    """Each record's f'' is checked as the record is made, not once per
    pivot pattern: the last record of Z4 1 -> 3, whose pattern the records
    before it share, given an f'' over another ring or of another shape, is
    refused by either build, and nothing is cached."""
    search = noether._column_adapted_dprimes

    def off(emb, d, n, budget):
        found, nodes = search(emb, d, n, budget)
        order = sorted(range(len(found)), key=lambda i: found[i][1:])
        f2, s_sets, cols = found[order[-1]]
        assert [found[i][1] for i in order].count(s_sets) > 1
        f2 = (RMatrix(zmod(4), d, n, f2.entries) if bad == "ring"
              else RMatrix(emb.ring, n, d, f2.entries))
        found[order[-1]] = f2, s_sets, cols
        return found, nodes

    monkeypatch.setattr(noether, "_column_adapted_dprimes", off)
    emb = build_aw_embedding(build_ring("zmod(4)"))
    with pytest.raises(InvalidMorphism):
        enumerate_(emb, 1, 3)
    assert ("ovic", 1, 3) not in emb.enum_cache


@pytest.mark.parametrize("bad", ["length", "type"])
def test_builds_refuse_a_bad_psi_before_any_column(monkeypatch, bad):
    """A canonical splitting of the wrong length, or with an entry that is
    no int, is refused (BadShape) once its pattern is first met, before
    any entry column is built."""
    splitting = noether.canonical_splitting

    def off(s_sets, emb, m, n):
        psi = splitting(s_sets, emb, m=m, n=n)
        entries = psi.entries[:-1] + ((1.0,) if bad == "type" else ())
        return RMatrix._batch(emb.ring, m, n, [entries])[0]

    monkeypatch.setattr(noether, "canonical_splitting", off)
    packed = _spy_on_columns(monkeypatch)
    with pytest.raises(BadShape):
        enumerate_ovic(build_aw_embedding(build_ring("zmod(2)")), 1, 3)
    assert packed == []


def test_member_hashes_keep_their_formula():
    emb = build_aw_embedding(builtin_ring("Z4"))
    for f in list(enumerate_ovic(emb, 1, 2)) + list(enumerate_vic(emb, 1, 2)):
        m = f.f_prime
        assert hash(m) == hash((id(m.ring), m.rows, m.cols, m.entries))
        assert hash(f) == hash((id(f.ring), f.d, f.n, f.f_prime.entries,
                                f.f_dprime.entries))


KERNEL_STRATA = [("F2", 1, 3), ("F2", 2, 3), ("F2", 3, 4), ("Z4", 1, 3), ("Z4", 2, 3),
                 ("Z4", 3, 4), ("T2F2", 1, 3), ("M2F2", 1, 2), ("F2S3", 1, 1)]


@pytest.mark.parametrize("name,d,n", KERNEL_STRATA,
                         ids=[f"{r}-{d}-{n}" for r, d, n in KERNEL_STRATA])
def test_kernel_equals_the_scan(name, d, n):
    """Each record's splittings less psi, f' - psi = P Y, against
    ker(f'')^d from a scan of R^n, for every column-adapted f'' of the
    stratum: as many as |ker(f'')|^d, all distinct.  No entry of a T2F2
    f'' need be a unit; M2F2 and F2S3 have mu > 1."""
    emb = build_aw_embedding(builtin_ring(name))
    ring = emb.ring
    zero_vec = (ring.zero,) * d
    stratum = enumerate_ovic(emb, d, n)
    assert stratum._records
    for f_dprime, _, psi, count, offset in stratum._records:
        kernel = [v for v in iter_vectors(ring, n) if matvec(ring, f_dprime, v) == zero_vec]
        shifts = [tuple(map(ring.sub, f_prime, psi.entries)) for f_prime in
                  zip(*[column[offset:offset + count] for column in stratum._columns])]
        assert len(set(shifts)) == count == len(kernel) ** d
        # K has the kernel vectors as its d columns
        assert set(shifts) == {tuple(K[j][r] for r in range(n) for j in range(d))
                               for K in itertools.product(kernel, repeat=d)}


@pytest.mark.parametrize("enumerate_", [enumerate_ovic, enumerate_vic])
@pytest.mark.parametrize("d", [1, 2])
def test_builds_refuse_a_corrupt_record(monkeypatch, enumerate_, d):
    """The group check runs once per pivot pattern, as ``_splittings`` first
    meets it: a V_i whose last value is short of an entry is refused by
    either build, before any entry column is built."""
    _corrupt_row_spaces(monkeypatch, lambda values: values[:-1] + [values[-1][:-1]])
    packed = _spy_on_columns(monkeypatch)
    with pytest.raises(BadShape):
        enumerate_(build_aw_embedding(build_ring("zmod(2)")), d, 3)
    assert packed == []


class _Reads(list):
    """A list that records the indices read from it."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


@pytest.mark.parametrize("kind,cls,enumerate_,flags,moves", [
    ("ovic", OvicMorphism, enumerate_ovic, [], 0),
    ("vic", VicMorphism, enumerate_vic, ["--vic"], 3 * 2),
], ids=["ovic", "vic"])
def test_counts_build_no_member(monkeypatch, capsys, kind, cls, enumerate_, flags, moves):
    """The length of a stratum, and so ``enumerate ovic --count-only`` with
    or without ``--vic``, comes from its records or group table: no member
    is built until one is read, and an index builds its own record or
    group alone.  A VIC group's psi g^-1 (a ``mul_entries`` product) and
    its n d move tables (reads of the translation tables) are made for that
    group alone, when it is built; an OVIC record needs neither."""
    batches, products, reads = [], [], []
    emb = build_aw_embedding(build_ring("zmod(4)"))
    for e in (emb, build_aw_embedding(builtin_ring("Z4"))):
        enumerate_ovic(e, 2, 3)  # the store is built through the translation tables
        monkeypatch.setitem(e.enum_cache, ("translations",),
                            _Reads(noether._translations(e), reads))
    batch = cls._batch.__func__
    monkeypatch.setattr(cls, "_batch", classmethod(
        lambda cls, *args: batches.append(args) or batch(cls, *args)))
    mul_entries_ = noether.mul_entries
    monkeypatch.setattr(noether, "mul_entries",
                        lambda *args: products.append(args[3:]) or mul_entries_(*args))
    size = closed_form_counts(emb, 2, 3)[kind == "vic"]
    assert len(enumerate_(emb, 2, 3)) == size
    assert main(["enumerate", "ovic", "--builtin", "Z4", "--d", "2", "--n", "3",
                 *flags, "--count-only"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] == size
    assert batches == products == reads == []
    assert isinstance(enumerate_(emb, 2, 3)[-1], cls)
    assert len(batches) == 1
    # psi g^-1 is 3 x 2 times 2 x 2, and each of its 6 entries takes one table
    assert products == ([(3, 2, 2)] if kind == "vic" else [])
    assert len(reads) == moves


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
# past 256 elements the builds move 16-bit entry columns, not bytes
GL_GRID.append(("zmod(257)", 1))


@pytest.mark.parametrize("name,d", GL_GRID, ids=[f"{r}-{d}" for r, d in GL_GRID])
def test_general_linear_equals_invertibility_filter(name, d):
    """VIC(d, d) is {(g^-1, g)}: its f'' run over GL_d in entry order, as
    many as ``closed_form_counts`` says."""
    emb = build_aw_embedding(builtin_ring(name) if name in BUILTIN_NAMES else build_ring(name))
    ring = emb.ring
    expected = [e for e in itertools.product(ring.elements(), repeat=d * d)
                if matrix_invertible(RMatrix(ring, d, d, e), emb.qdata)[0]]
    pairs = enumerate_vic(emb, d, d)
    assert [f.f_dprime.entries for f in pairs] == expected
    assert len(pairs) == closed_form_counts(emb, d, d)[1]
    ident = RMatrix.identity(ring, d)
    for f in pairs:
        assert f.f_dprime.mul(f.f_prime) == ident == f.f_prime.mul(f.f_dprime)
    # entry (i, t) of every g, one packed column per entry, lifted from R/J:
    # as a set, the closure over R itself, and each lifted inverse two-sided
    gl = noether._general_linear(emb, d, 10 ** 6)
    columns = gl[1]
    assert len(columns) == d * d
    assert {type(c) for c in columns} == {type(noether._packing(ring)[0](()))}
    oracle = dict(general_linear_by_closure(emb, d))
    lifted = list(zip(*columns))
    assert sorted(lifted) == sorted(oracle) == expected
    for i, g in enumerate(lifted):
        g_inv = noether._gl_inverse(emb, d, gl, i)
        assert mul_entries(ring, g, g_inv, d, d, d) == ident.entries
        assert mul_entries(ring, g_inv, g, d, d, d) == ident.entries == mul_entries(
            ring, g, oracle[g], d, d, d)


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
    """GL_d(R) lifted from the closure of transvections and diagonal units
    over R/J: as a set, the closure over R itself and the matrices
    ``matrix_invertible`` accepts, |GL_d(R)| of them, each with a two-sided
    lifted inverse.  40 fixed examples, about 1 s on a 2-core x86
    container."""
    ring, d = case
    emb = build_aw_embedding(ring)
    gl = noether._general_linear(emb, d, 10 ** 6)
    lifted = list(zip(*gl[1]))
    ident = RMatrix.identity(ring, d).entries
    for i, g in enumerate(lifted):
        g_inv = noether._gl_inverse(emb, d, gl, i)
        assert mul_entries(ring, g, g_inv, d, d, d) == ident
        assert mul_entries(ring, g_inv, g, d, d, d) == ident
    expected = [e for e in itertools.product(ring.elements(), repeat=d * d)
                if matrix_invertible(RMatrix(ring, d, d, e), emb.qdata)[0]]
    assert sorted(lifted) == sorted(g for g, _ in general_linear_by_closure(emb, d)) == expected
    assert len(lifted) == noether._gl_order(emb, d)


def test_general_linear_multiplies_each_element_by_each_generator_once():
    """Z8, d = 2: the closure runs over R/J = F2, whose GL_2 has 6 elements
    and is generated by the transvections I + E_01 and I + E_10 (F2 has no
    unit other than 1), so 12 products; each of the 6 lifts through the
    fibres of Z8 -> F2, |J|^4 = 256 ways, to the 1536 elements of GL_2(Z8).
    The products and the lifts count against the budget before either
    runs, and a cached GL_2 gets the same verdict."""
    emb = build_aw_embedding(zmod(8))  # a fresh ring: nothing cached yet
    assert len(noether._gl_generators(emb.qdata.quotient, 2)) == 2
    assert len(noether._gl_generators(emb.ring, 2)) == 5  # the closure over Z8 took 5
    work = 6 * 2 + 1536
    with pytest.raises(BudgetExceeded):
        noether._general_linear(emb, 2, work - 1)
    assert ("gl", 2) not in emb.enum_cache
    bar, columns = noether._general_linear(emb, 2, work)
    assert len(bar) == 6
    assert len(set(zip(*columns))) == len(columns[0]) == 1536
    assert noether._gl_products(emb, 2) == 6 * 2
    assert noether._general_linear(emb, 2, work) == (bar, columns)
    with pytest.raises(BudgetExceeded):
        noether._general_linear(emb, 2, work - 1)


def test_general_linear_guards_its_count(monkeypatch):
    """A closure over R/J that misses elements, or lifts that miss some, are
    a bug, not a smaller group."""
    emb = build_aw_embedding(zmod(8))
    gens = noether._gl_generators(emb.qdata.quotient, 2)
    with monkeypatch.context() as patch:
        patch.setattr(noether, "_gl_generators", lambda ring, d: gens[:1])
        with pytest.raises(RuntimeError, match=r"^closure over R/J found 2 of "):
            noether._general_linear(emb, 2, 10 ** 6)
    assert ("gl", 2) not in emb.enum_cache
    # an order that is no multiple of |J|^4 = 256 leaves the closure's 6
    # elements right and the 1536 lifts one short
    order = noether._gl_order(emb, 2)
    monkeypatch.setattr(noether, "_gl_order", lambda emb, n: order + 1)
    with pytest.raises(RuntimeError, match=r"^lifts found 1536 of "):
        noether._general_linear(build_aw_embedding(zmod(8)), 2, 10 ** 6)


def test_second_vic_build_scans_no_units(monkeypatch):
    """The GL_1 generator count is kept per (ring, d), so a second VIC build
    of M2F2 1 -> 2 calls no ``is_unit``, of R or of R/J, whose generators
    the closure takes, and builds the same stratum."""
    emb = build_aw_embedding(build_ring("matrix_ring(zmod(2),2)"))
    first = [(f.f_dprime.entries, f.f_prime.entries) for f in enumerate_vic(emb, 1, 2)]
    calls = []
    for ring in (emb.ring, emb.qdata.quotient):
        monkeypatch.setattr(ring, "is_unit",
                            lambda x, is_unit=ring.is_unit: calls.append(x) or is_unit(x))
    again = [(f.f_dprime.entries, f.f_prime.entries) for f in enumerate_vic(emb, 1, 2)]
    assert again == first
    assert calls == []


@pytest.mark.parametrize("spec", ["zmod(8)", "matrix_ring(zmod(2),2)"])
def test_over_budget_vic_refuses_before_the_closure(monkeypatch, spec):
    """The VIC work is counted from |GL_d| in closed form, so a request past
    the budget never builds GL_d.  A budget of the OVIC(2, 2) work lets the
    column search pass and leaves the VIC work over it: 12 or 262,080
    closure products over R/J (6 or 20160 elements of GL_2(R/J) times 2 or
    13 generators), then per element of GL_2 (1536 or 20160) one lift and
    one splitting."""
    calls = []
    closure = noether._general_linear
    monkeypatch.setattr(noether, "_general_linear",
                        lambda *args: calls.append(args) or closure(*args))
    emb = build_aw_embedding(build_ring(spec))
    ovic = enumerate_ovic(emb, 2, 2)
    with pytest.raises(BudgetExceeded, match=r"^VIC\(2, 2\) needs more than "):
        enumerate_vic(emb, 2, 2, budget=ovic.nodes + len(ovic))
    assert calls == []
    assert ("gl", 2) not in emb.enum_cache
    assert noether._gl_products(emb, 2) == {"zmod(8)": 12, "matrix_ring(zmod(2),2)": 262080}[spec]


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
    # f'' maps onto R^d, so |ker f''| = |R|^(n - d); digits rank the store
    got = enumerate_ovic(emb, d, n)
    assert {rec[3] for rec in got._records} == {ring.size ** (d * (n - d))}
    store = {}
    for f_dprime, _, _, count, offset in got._records:
        f_primes = zip(*[column[offset:offset + count] for column in got._columns])
        store[f_dprime.entries] = dict(zip(f_primes, range(offset, offset + count)))
    assert digit_ranks(got) == store
    assert closed_form_counts(emb, d, n) == (len(enumerate_ovic(emb, d, n)),
                                             len(enumerate_vic(emb, d, n)))


def test_m2f2_rank_two_strata():
    emb = build_aw_embedding(builtin_ring("M2F2"))
    # GL_2(M_2(F2)) = GL_4(F2), of order (16 - 1)(16 - 2)(16 - 4)(16 - 8)
    assert len(enumerate_vic(emb, 2, 2)) == 15 * 14 * 12 * 8 == 20160
    assert list(enumerate_ovic(emb, 2, 2)) == [OvicMorphism.identity(emb, 2)]
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


def test_strata_cached_on_the_embedding(monkeypatch):
    """A repeated request returns the same sequence, and a walk keeps each
    record it builds: walking it again builds nothing and yields the same
    members."""
    ring = builtin_ring("T2F2")
    emb = build_aw_embedding(ring)
    first = enumerate_ovic(emb, 1, 2)
    assert enumerate_ovic(emb, 1, 2) is first
    assert ("ovic", 1, 2) in emb.enum_cache
    walked = list(first)
    batches = []
    batch = OvicMorphism._batch.__func__
    monkeypatch.setattr(OvicMorphism, "_batch", classmethod(
        lambda cls, *args: batches.append(args) or batch(cls, *args)))
    assert all(map(operator.is_, enumerate_ovic(emb, 1, 2), walked))
    assert first[-1] is walked[-1] and batches == []


def test_gl_columns_built_once_per_ring_and_rank(monkeypatch):
    """GL_d's packed entry columns are made with its pairs, once per (ring,
    d): a second VIC build of the same d reads the same column objects."""
    used = []
    product = noether._column_product
    monkeypatch.setattr(noether, "_column_product",
                        lambda emb, columns, *args: used.append(columns) or product(
                            emb, columns, *args))
    emb = build_aw_embedding(build_ring("zmod(2)"))
    enumerate_vic(emb, 2, 2)
    _, columns = emb.enum_cache[("gl", 2)]
    first = list(columns)
    assert len(enumerate_vic(emb, 2, 4)) == closed_form_counts(emb, 2, 4)[1]
    assert emb.enum_cache[("gl", 2)][1] is columns
    assert all(map(operator.is_, columns, first))
    assert used and all(c is columns for c in used)


PRODUCT_STRATA = [("T2F2", 2, 2), ("T2F2", 1, 3), ("T2F2", 2, 3), ("M2F2", 1, 2),
                  ("F2S3", 1, 1), ("F2", 3, 4), ("zmod(257)", 1, 2)]


@pytest.mark.parametrize("name,d,n", PRODUCT_STRATA,
                         ids=[f"{r}-{d}-{n}" for r, d, n in PRODUCT_STRATA])
def test_group_table_products_equal_mul_entries(name, d, n):
    """The f'' = g f2'' of every record, batched over GL_d, against
    ``mul_entries`` for each g in GL_d's order, and the group table of
    ``enumerate_vic`` against those products.  T2F2 and M2F2 do not
    commute, so a product taken in the wrong order fails at 1 -> 3, 2 -> 3
    and 1 -> 2 (at d = n, here and over F2S3, f2'' = I); T2F2 2 -> 3 and
    F2 3 -> 4 sum two and three columns; zmod(257) moves 16-bit columns, a
    zero column among them (f2'' = [0 1]), and its 258 records of 256
    groups are checked on the table alone, with no member built."""
    emb = build_aw_embedding(builtin_ring(name) if name in BUILTIN_NAMES else build_ring(name))
    ring = emb.ring
    _, columns = noether._general_linear(emb, d, 10 ** 6)
    gl = list(zip(*columns))
    expected = []
    for r, rec in enumerate(noether._splittings(emb, d, n, 10 ** 6)._records):
        f2 = rec[0].entries
        products = [mul_entries(ring, g, f2, d, d, n) for g in gl]
        assert list(zip(*noether._column_product(emb, columns, f2, d, d, n, len(gl)))) == products
        expected += zip(products, itertools.repeat(r), range(len(gl)))
    assert enumerate_vic(emb, d, n, budget=10 ** 8)._groups == sorted(expected)


def test_vic_over_257_elements_equals_filter_oracle():
    """VIC(1, 1) over zmod(257): 256 groups of one member each, moved
    through 16-bit columns."""
    emb = build_aw_embedding(build_ring("zmod(257)"))
    assert_sequence_matches(enumerate_vic(emb, 1, 1), filter_vic(emb, 1, 1))


def test_translation_tables_built_once_per_embedding():
    """Both builds read one table of x -> x + b per ring element b, built
    on the embedding's first stratum and kept in its cache."""
    emb = build_aw_embedding(build_ring("matrix_ring(zmod(2),2)"))
    enumerate_vic(emb, 1, 1)
    tables = emb.enum_cache[("translations",)]
    enumerate_ovic(emb, 1, 2)
    enumerate_vic(emb, 1, 2)
    assert emb.enum_cache[("translations",)] is tables
    pack, _, through = noether._packing(emb.ring)
    elements = pack(range(emb.ring.size))
    assert [list(through(elements, t)) for t in tables] == list(map(list, emb.ring.add_table))


def assert_store_matches(emb, d, n):
    """The store of OVIC(d, n) against the per-record build it replaced
    (``oracles.store_by_record``): equal records, and entry columns of the
    same type holding the same bytes."""
    stratum = enumerate_ovic(emb, d, n)
    records, columns = store_by_record(emb, d, n)
    assert stratum._records == records
    assert ([(type(c), bytes(c)) for c in stratum._columns]
            == [(type(c), bytes(c)) for c in columns])


def assert_reads_match_the_walk(emb, d, n):
    """On a fresh VIC(d, n), every index read from the last to the first,
    then from the first and from either end, against the walk; slices
    too, and IndexError one past either end."""
    vic = enumerate_vic(emb, d, n)
    size = len(vic)
    backwards = [vic[i] for i in reversed(range(size))]
    walked = list(vic)
    assert backwards[::-1] == walked
    assert [vic[i] for i in range(size)] == walked
    assert [vic[i - size] for i in range(size)] == walked
    for part in (slice(None, None, -1), slice(1, None, 3), slice(-5, -1)):
        assert list(vic[part]) == walked[part]
    for i in (size, -size - 1):
        with pytest.raises(IndexError):
            vic[i]


@pytest.mark.parametrize("name,d,n", GRID, ids=[f"{r}-{d}-{n}" for r, d, n in GRID])
def test_store_and_reads_equal_their_oracles(name, d, n):
    """Columns built once per pivot pattern equal the per-record build, and
    a VIC index read, which builds its member alone, equals the walk."""
    emb = build_aw_embedding(builtin_ring(name))
    assert_store_matches(emb, d, n)
    assert_reads_match_the_walk(emb, d, n)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_strata())
def test_store_and_reads_on_random_rings(stratum):
    """The two oracles above on 40 fixed examples."""
    ring, d, n = stratum
    emb = build_aw_embedding(ring)
    assert_store_matches(emb, d, n)
    assert_reads_match_the_walk(emb, d, n)


@pytest.mark.parametrize("name,d,n", [("Z8", 2, 2), ("M2F2", 1, 2)])
def test_vic_lifts_each_inverse_once(monkeypatch, name, d, n):
    """Over Z8, J^2 != 0, so Newton takes real steps from some seed; over
    M2F2 some group's psi g^-1 is not psi.  Reading every index of VIC(d, n)
    in reverse order, then walking it, gives the walk's members and lifts
    each g^-1 once, whatever the number of records: a stratum keeps one
    inverse per g of its groups, at most |GL_d|."""
    emb = build_aw_embedding(builtin_ring(name))
    ring, vic = emb.ring, enumerate_vic(emb, d, n)
    lifts = []
    gl_inverse = noether._gl_inverse
    monkeypatch.setattr(noether, "_gl_inverse",
                        lambda *args: lifts.append(args[3]) or gl_inverse(*args))
    backwards = [vic[i] for i in reversed(range(len(vic)))]
    assert backwards[::-1] == list(vic)
    assert len(vic._inverses) == len(lifts) == len(set(lifts)) <= noether._gl_order(emb, d)
    assert set(lifts) == {g for _, _, g in vic._groups}
    ident = RMatrix.identity(ring, d).entries
    bar, columns = noether._general_linear(emb, d, 10 ** 6)
    sec = emb.qdata.section
    seeds = []
    for g, g_inv in vic._inverses.items():
        m = tuple(column[g] for column in columns)
        assert mul_entries(ring, m, g_inv, d, d, d) == ident == mul_entries(ring, g_inv, m, d, d, d)
        seeds.append(tuple(sec[x] for x in bar[g * len(bar) // len(columns[0])][1]) != g_inv)
    moved = [mul_entries(ring, vic._ovic._records[r][2].entries, vic._inverses[g], n, d, d)
             != vic._ovic._records[r][2].entries for _, r, g in vic._groups]
    assert any(seeds if name == "Z8" else moved)


def test_a_wrong_inverse_seed_raises_on_the_first_read():
    """A g^-1 lifted from a wrong seed is refused by Newton's checks on the
    first index read of its group, and neither the inverse nor the group
    is kept, so the next read raises again."""
    emb = build_aw_embedding(zmod(8))  # fresh: its GL_2 is patched below
    vic = enumerate_vic(emb, 2, 2)
    bar = noether._general_linear(emb, 2, 10 ** 6)[0]
    bar[:] = [(g, (emb.qdata.quotient.zero,) * 4) for g, _ in bar]
    for _ in range(2):
        with pytest.raises(RuntimeError, match="inverse"):
            vic[0]
    assert vic._inverses == vic._built == {}


SEARCH_CASES = [(name, d, n) for name in BUILTIN_NAMES for d in (1, 2, 3)
                for n in range(d, 6)] + [
    (spec, d, n) for spec in ("zmod(9)", "zmod(257)", "matrix_ring(zmod(3),2)",
                              "product(zmod(2),zmod(3))", "upper_triangular(zmod(4),2)")
    for d, n in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))]


def _search_result(search, emb, d, n, budget=10 ** 6):
    """(f''.entries, s_sets, Phi(f'') columns) per f'' and the search nodes,
    or the message of the BudgetExceeded raised."""
    try:
        found, nodes = search(emb, d, n, budget)
    except BudgetExceeded as exc:
        return str(exc)
    return [(f_dprime.entries, s_sets, cols) for f_dprime, s_sets, cols in found], nodes


@pytest.mark.parametrize("spec,d,n", SEARCH_CASES, ids=[f"{s}-{d}-{n}" for s, d, n in SEARCH_CASES])
def test_column_adapted_dprimes_match_search_oracle(spec, d, n):
    """Every builtin at d = 1..3, n = d..5, and five more rings at small
    strata, under the default budget: the f'' grown level by level from
    per-rank successor lists are the depth-first search's, in its order,
    with its node count, and the 17 requests it refuses are refused with its
    message."""
    ring = builtin_ring(spec) if spec in BUILTIN_NAMES else build_ring(spec)
    emb = build_aw_embedding(ring)
    assert (_search_result(noether._column_adapted_dprimes, emb, d, n)
            == _search_result(column_adapted_dprimes_by_search, emb, d, n))


@pytest.mark.parametrize("name,d,n", [("T2F2", 2, 3), ("M2F2", 1, 3), ("Z8", 2, 3)])
def test_column_adapted_dprimes_order_and_nodes(name, d, n):
    """The f'' come in lexicographic order of their columns, as candidate
    columns are listed, and the search visits |R|^d nodes per kept prefix
    shorter than n, the empty one included.  A prefix is kept only while
    the columns left can complete it, so the kept prefixes are the f''
    prefixes.  A budget of one node less is refused with the depth-first
    search's verdict."""
    emb = build_aw_embedding(builtin_ring(name))
    found, nodes = noether._column_adapted_dprimes(emb, d, n, 10 ** 6)
    words = [tuple(zip(*[f_dprime.entries[r * n:(r + 1) * n] for r in range(d)]))
             for f_dprime, _, _ in found]
    assert words == sorted(set(words))
    kept = {word[:c] for word in words for c in range(n)}
    assert nodes == emb.ring.size ** d * len(kept)
    assert (_search_result(noether._column_adapted_dprimes, emb, d, n, nodes)
            == _search_result(column_adapted_dprimes_by_search, emb, d, n, nodes))
    refused = f"OVIC({d}, {n}) needs more than {nodes - 1} search nodes and morphisms"
    assert (_search_result(noether._column_adapted_dprimes, emb, d, n, nodes - 1) == refused
            == _search_result(column_adapted_dprimes_by_search, emb, d, n, nodes - 1))


@st.composite
def small_searches(draw):
    """A ring of at most 64 elements from the spec grammar and d <= n <= 3
    with at most 2^16 matrices f''."""
    ring = draw(spec_rings())
    pairs = [(d, n) for d in (1, 2) for n in range(d, 4) if ring.size ** (d * n) <= 2 ** 16]
    d, n = draw(st.sampled_from(pairs))
    return ring, d, n


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_searches())
def test_column_adapted_dprimes_on_random_rings(case):
    """The same f'', order and nodes as the depth-first search on 40 fixed
    examples."""
    ring, d, n = case
    emb = build_aw_embedding(ring)
    assert (_search_result(noether._column_adapted_dprimes, emb, d, n)
            == _search_result(column_adapted_dprimes_by_search, emb, d, n))


@pytest.mark.parametrize("spec,d,n", [
    ("zmod(2)", 1, 3), ("zmod(4)", 2, 3), ("upper_triangular(zmod(2),2)", 1, 3),
    ("zmod(8)", 2, 2), ("zmod(2)", 3, 4),
])
def test_stratum_builds_leave_no_cyclic_garbage(spec, d, n):
    """Members hold only rings, embeddings, tuples and ints, and neither
    the store nor a record or group built on access makes a reference
    cycle: whatever a build and a walk over both sequences drop is freed
    by reference counting alone, so a collection finds nothing."""
    emb = build_aw_embedding(build_ring(spec))  # a fresh ring: nothing cached yet
    gc.collect()
    gc.disable()
    try:
        ovic = enumerate_ovic(emb, d, n)
        assert sum(1 for _ in ovic) == len(ovic)
        vic = enumerate_vic(emb, d, n)
        assert sum(1 for _ in vic) == len(vic)
        assert gc.collect() == 0
    finally:
        gc.enable()


class _Node:
    """A container that can hold a reference cycle and a weak reference."""


def _cycle() -> weakref.ref:
    """A weak reference to a fresh reference cycle that only it reaches."""
    node = _Node()
    node.self = node
    return weakref.ref(node)


def test_cycles_made_between_builds_are_freed():
    """A caller that builds in a loop has its cyclic garbage freed without
    calling the collector: builds move nothing out of the young
    generations, so the young collection that the caller's own allocations
    start frees every cycle made between them."""
    emb = build_aw_embedding(build_ring("zmod(4)"))
    refs = []
    for _ in range(20):
        enumerate_vic(emb, 1, 2)
        refs.append(_cycle())
    enumerate_vic(emb, 1, 2)
    # twice threshold0 tracked allocations, kept alive: at least one young
    # collection starts on CPython's own schedule
    kept = [[] for _ in range(2 * gc.get_threshold()[0])]
    assert [ref() for ref in refs] == [None] * 20 and kept
