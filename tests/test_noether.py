"""Representable-module engine: enumeration, action, spans, membership."""

from __future__ import annotations

import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vicbench.errors import (
    BudgetExceeded,
    DegreeMismatch,
    FieldMismatch,
    HorizonExceeded,
    InvalidMorphism,
    ZeroElement,
)
from vicbench.noether import (
    EchelonBasis,
    ModuleElement,
    PrimeField,
    RationalField,
    act,
    check_endo_generation,
    closed_form_counts,
    count_identity_report,
    enumerate_ovic,
    enumerate_vic,
    init_term,
    initial_module_to_degree,
    membership,
    parse_field,
    span_to_degree,
)
from vicbench import noether, rings
from vicbench.ordering import total_compare, LT
from vicbench.ovic import OvicMorphism, compose_vic
from vicbench.rings import BUILTIN_NAMES, RMatrix, build_ring, builtin_ring, zmod
from vicbench.wedderburn import build_aw_embedding

F2 = PrimeField(2)


def emb_of(name):
    return build_aw_embedding(builtin_ring(name))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_prime_field_ops():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.parse("7") == 2
    for bad in (1.5, True, "1/2"):
        with pytest.raises(ValueError):
            f5.parse(bad)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(101)


def test_rational_field_ops():
    q = RationalField()
    assert q.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert q.parse("-2/5") == Fraction(-2, 5)


@pytest.mark.parametrize("text", ["1e100000000", "-2.5E-100000000", "3_0e1_000_000_000",
                                  " 1.e100000000 ", ".5e-100000000", "1e" + "9" * 5000],
                         ids=["plain", "negative", "underscores", "spaces", "point",
                              "long-exponent"])
def test_rational_parse_refuses_a_huge_exponent_before_building(monkeypatch, text):
    """Building 10^e costs time in e: the exponent is judged on the text, so
    ``Fraction`` never sees it (the stand-in fails rather than build it)."""
    monkeypatch.setattr(noether, "Fraction", _small_exponents_only)
    with pytest.raises(ValueError):
        RationalField().parse(text)
    assert RationalField().parse("-25e-1") == Fraction(-5, 2)


@pytest.mark.parametrize("text", ["0e100000000", "-0.000E-100000000", " 0.0e-99999999 "])
def test_rational_parse_reads_a_zero_mantissa_without_its_exponent(monkeypatch, text):
    monkeypatch.setattr(noether, "Fraction", _small_exponents_only)
    assert RationalField().parse(text) == 0


def _small_exponents_only(text: str) -> Fraction:
    """``Fraction(text)``, failing the test if ``text`` has an exponent of
    a million or more."""
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
    if len(exponent.lstrip("0")) > 6:
        pytest.fail(f"Fraction was asked to build {text[:20]!r}")
    return Fraction(text)


@pytest.mark.parametrize("text", ["0/5e3", "0e 5", "0 e5", "0e", "e5", "0e5_", "0e+5",
                                  " 0E-5 ", "1/2e5", "0.e5", "-.0e5", "0e5e5", "1e0", "0_0e1_0", "0e\u0665", "0e1__0"])
def test_rational_parse_reads_exponent_forms_as_fraction_does(text):
    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError):
            RationalField().parse(text)
    else:
        assert RationalField().parse(text) == expected


@contextmanager
def digit_limit(limit: int):
    """Python's int -> str digit limit set to ``limit`` for the block."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _parses(text: str) -> bool:
    try:
        RationalField().parse(text)
    except ValueError:
        return False
    return True


def _writable(text: str) -> bool:
    try:
        str(Fraction(text))
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "-", "+"]), st.text("0123456789", max_size=4),
       st.one_of(st.none(), st.text("0123456789", max_size=4)),
       st.one_of(st.integers(630, 650), st.integers(-650, -630)))
def test_rational_parse_accepts_exactly_the_writable_exponent_forms(sign, whole, frac, exp):
    """Near the digit limit (640 here) the check on the text refuses only
    values the exact check after building refuses too."""
    text = f"{sign}{whole or '1'}{'' if frac is None else '.' + frac}e{exp}"
    with digit_limit(640):
        assert _parses(text) == _writable(text)


@pytest.mark.parametrize("text", ["1e4299", "1e-4299", "5e-4300", "2.5e-4300", "0e99999",
                                  "-0.000e-99999"])
def test_rational_parse_keeps_writable_values_at_the_default_limit(text):
    with digit_limit(4300):
        assert RationalField().parse(text) == Fraction(text)


def test_rational_parse_without_a_digit_limit():
    with digit_limit(0):
        assert RationalField().parse("1e5000") == 10 ** 5000


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), RationalField()],
                         ids=["F2", "F3", "Q"])
def test_zero_has_no_inverse(field):
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero)
    assert field.mul(field.inv(field.one), field.one) == field.one


def test_parse_field():
    assert parse_field("F7").p == 7
    assert isinstance(parse_field("Q"), RationalField)
    with pytest.raises(ValueError):
        parse_field("Z")


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_ovic_examples():
    emb = emb_of("F2")
    assert len(enumerate_ovic(emb, 1, 1)) == 1
    assert len(enumerate_ovic(emb, 1, 2)) == 6
    assert len(enumerate_ovic(emb, 0, 3)) == 1
    assert enumerate_ovic(emb, 2, 1) == []


def test_enumerate_ovic_sorted_and_deterministic():
    emb = emb_of("F2")
    fs = enumerate_ovic(emb, 1, 3)
    assert len(fs) == 28  # frozen: (2^3 - 1) * 2^2 splittings, trivial GL_1
    for a, b in zip(fs, fs[1:]):
        assert total_compare(a, b) == LT


def test_enumerate_vic_examples():
    emb = emb_of("F2")
    assert len(enumerate_vic(emb, 1, 1)) == 1
    assert len(enumerate_vic(emb, 1, 2)) == 6
    assert len(enumerate_vic(emb, 2, 2)) == 6  # |GL_2(F2)|


def test_enumerate_vic_zmod4():
    emb = emb_of("Z4")
    # 12 surjective rows, each with |ker| = 4 splittings
    assert len(enumerate_vic(emb, 1, 2)) == 48
    assert len(enumerate_vic(emb, 1, 1)) == 2  # units {1, 3}


def test_enumerate_budget():
    emb = emb_of("F2")
    with pytest.raises(BudgetExceeded):
        enumerate_ovic(emb, 3, 4, budget=10)


@pytest.mark.parametrize("enumerate_", [enumerate_ovic, enumerate_vic])
def test_rank_zero_stratum_counts_its_member(enumerate_):
    """OVIC(0, n) and VIC(0, n) hold one member each, which is work 1."""
    emb = emb_of("F2")
    with pytest.raises(BudgetExceeded):
        enumerate_(emb, 0, 2, budget=0)
    assert len(enumerate_(emb, 0, 2, budget=1)) == 1


def test_budget_counts_generator_work_whatever_the_cache():
    """The budget bounds search nodes plus emitted morphisms, not the
    |R|^(dn) candidates, and a cached stratum gets the same verdict.

    Z8 VIC(2, 2) is 128 search nodes, then per g in GL_2 (1536 of them) 5
    closure products, one pair and 1 splitting: 10880 in all.  The 5
    generators outweigh 1 + 1, so a count without the closure would pass
    10879.  The verdict is the same before GL_2 is cached, once it is cached
    alone and once the stratum is built."""
    emb = emb_of("Z4")
    assert len(enumerate_ovic(emb, 3, 4)) == 7680  # 4^12 candidates
    with pytest.raises(BudgetExceeded):
        enumerate_ovic(emb, 3, 4, budget=7680)
    with pytest.raises(BudgetExceeded):
        enumerate_vic(emb, 1, 2, budget=48)
    work = 128 + 1536 * (5 + 1 + 1)
    emb = build_aw_embedding(build_ring("zmod(8)"))  # a fresh ring: nothing cached yet
    with pytest.raises(BudgetExceeded):
        enumerate_vic(emb, 2, 2, budget=work - 1)
    noether._general_linear(emb, 2, 10 ** 6)
    with pytest.raises(BudgetExceeded):
        enumerate_vic(emb, 2, 2, budget=work - 1)
    assert len(enumerate_vic(emb, 2, 2, budget=work)) == 1536
    with pytest.raises(BudgetExceeded):
        enumerate_vic(emb, 2, 2, budget=work - 1)


@pytest.mark.parametrize("enumerate_", [enumerate_ovic, enumerate_vic])
def test_splittings_stop_at_the_budget(monkeypatch, enumerate_):
    """The budget is checked as the splittings of each f'' are counted, so a
    stratum far past it stops after a few kernels instead of computing the
    kernel of all 196 f'' of T2F2 1 -> 3 (64 splittings each) first."""
    emb = build_aw_embedding(build_ring("upper_triangular(zmod(2),2)"))
    kernel = noether._kernel
    calls = []
    monkeypatch.setattr(noether, "_kernel", lambda f: calls.append(f) or kernel(f))
    with pytest.raises(BudgetExceeded):
        enumerate_(emb, 1, 3, budget=2000)
    assert 0 < len(calls) <= 2000 // 64 + 1


@pytest.mark.parametrize("enumerate_", [enumerate_ovic, enumerate_vic])
@pytest.mark.parametrize("d,n", [(-1, 2), (1, -2), (-1, -1)])
def test_enumerators_reject_negative_ranks(enumerate_, d, n):
    with pytest.raises(ValueError, match="negative rank"):
        enumerate_(emb_of("F2"), d, n)


def test_ovic_counts_against_vic_oracle():
    """Counts agree with brute force pairs filtered by the predicate."""
    from vicbench.ovic import is_column_adapted

    emb = emb_of("Z4")
    vics = enumerate_vic(emb, 1, 2)
    expected = [f for f in vics if is_column_adapted(f.f_dprime, emb)]
    got = enumerate_ovic(emb, 1, 2)
    assert sorted(f.order_key for f in got) == sorted(
        OvicMorphism(f.f_prime, f.f_dprime, emb).order_key for f in expected
    )


# ---------------------------------------------------------------------------
# elements and the action
# ---------------------------------------------------------------------------

def test_module_element_drops_zeros():
    emb = emb_of("F2")
    f = enumerate_ovic(emb, 1, 2)[0]
    x = ModuleElement(1, 2, F2, {f: 0})
    assert x.is_zero


def test_module_element_reduces_coefficients_into_its_field():
    """Coefficients become residues over F_p and Fractions over Q; one that
    is zero in the field is dropped, so 3 f over F3 spans nothing."""
    emb = emb_of("F2")
    f, g = enumerate_ovic(emb, 1, 2)[:2]
    f3, q = PrimeField(3), RationalField()
    x = ModuleElement(1, 2, f3, {f: 3})
    assert x.is_zero
    assert span_to_degree([x], 3, emb, f3).dims() == {0: 0, 1: 0, 2: 0, 3: 0}
    assert ModuleElement(1, 2, f3, {f: -1, g: 7}).terms == {f: 2, g: 1}
    assert ModuleElement(1, 2, f3, {f: Fraction(1, 2), g: Fraction(6, 4)}).terms == {f: 2}
    y = ModuleElement(1, 2, q, {f: 3, g: 0})
    assert y.terms == {f: Fraction(3)} and type(y.terms[f]) is Fraction


def test_span_rejects_generators_over_another_field():
    emb = emb_of("F2")
    x = ModuleElement.monomial(enumerate_ovic(emb, 1, 2)[0], RationalField(), Fraction(1, 2))
    with pytest.raises(FieldMismatch):
        span_to_degree([x], 3, emb, PrimeField(3))


def test_membership_rejects_an_element_over_another_field():
    emb = emb_of("F2")
    f = enumerate_ovic(emb, 1, 2)[0]
    f3 = PrimeField(3)
    state = span_to_degree([ModuleElement.monomial(f, f3)], 3, emb, f3)
    assert membership(state, ModuleElement.monomial(f, PrimeField(3), 2)) == (True, [(f, 2)])
    with pytest.raises(FieldMismatch):
        membership(state, ModuleElement.monomial(f, RationalField(), Fraction(1, 2)))


def test_module_element_degree_check():
    emb = emb_of("F2")
    f = enumerate_ovic(emb, 1, 2)[0]
    with pytest.raises(DegreeMismatch):
        ModuleElement(1, 3, F2, {f: 1})


def test_act_identity():
    emb = emb_of("F2")
    fs = enumerate_ovic(emb, 1, 2)
    x = ModuleElement(1, 2, F2, {fs[0]: 1, fs[1]: 1})
    assert act(OvicMorphism.identity(emb, 2), x) == x


def test_act_monomial():
    emb = emb_of("F2")
    f = enumerate_ovic(emb, 1, 1)[0]
    phi = enumerate_ovic(emb, 1, 2)[3]
    y = act(phi, ModuleElement.monomial(f, F2))
    assert list(y.terms) == [compose_vic(phi, f)]


def test_act_degree_mismatch():
    emb = emb_of("F2")
    f = enumerate_ovic(emb, 1, 1)[0]
    phi = enumerate_ovic(emb, 2, 3)[0]
    with pytest.raises(DegreeMismatch):
        act(phi, ModuleElement.monomial(f, F2))


def test_post_composition_is_injective():
    """No two distinct basis morphisms collide under any acting morphism:
    the injection part is split-monic and the splitting part split-epic, so
    the planned 'colliding pair' cannot exist; merging is exercised by adding
    equal elements instead."""
    emb = emb_of("F2")
    for d, n, m in ((1, 2, 3),):
        fs = enumerate_ovic(emb, d, n)
        for phi in enumerate_ovic(emb, n, m):
            images = {compose_vic(phi, f) for f in fs}
            assert len(images) == len(fs)


def test_merge_semantics_over_f2_and_q():
    emb = emb_of("F2")
    f = enumerate_ovic(emb, 1, 2)[0]
    phi = enumerate_ovic(emb, 2, 3)[0]
    x = ModuleElement.monomial(f, F2)
    doubled = act(phi, x).add(act(phi, x))
    assert doubled.is_zero  # characteristic 2
    q = RationalField()
    xq = ModuleElement.monomial(f, q)
    doubled_q = act(phi, xq).add(act(phi, xq))
    assert list(doubled_q.terms.values()) == [Fraction(2)]


def test_act_functorial():
    emb = emb_of("F2")
    fs = enumerate_ovic(emb, 1, 1)
    x = ModuleElement.monomial(fs[0], F2)
    for phi in enumerate_ovic(emb, 1, 2):
        for psi in enumerate_ovic(emb, 2, 3):
            assert act(psi, act(phi, x)) == act(compose_vic(psi, phi), x)


def _seeded_element(emb, field, degree, terms, seed, d=1):
    rng = random.Random(seed)
    pool = enumerate_ovic(emb, d, degree)
    support = rng.sample(pool, min(terms, len(pool)))
    return ModuleElement(d, degree, field,
                         {f: field.from_int(rng.randrange(1, 5)) for f in support})


@pytest.mark.parametrize("act_first", [False, True])
def test_act_terms_are_interned_stratum_members(act_first):
    emb = build_aw_embedding(zmod(2))  # fresh: builtin embeddings are shared
    x = _seeded_element(emb, F2, 2, 3, "intern")
    phis = enumerate_ovic(emb, 2, 3)
    if act_first:  # the target stratum is not cached yet
        images = [act(phi, x) for phi in phis]
    members = {id(f) for f in enumerate_ovic(emb, 1, 3)}
    if not act_first:
        images = [act(phi, x) for phi in phis]
    assert all(id(g) in members for y in images for g in y.terms)


def test_act_on_explicit_morphisms_enumerates_nothing():
    emb = build_aw_embedding(zmod(2))
    ring = emb.ring
    f = OvicMorphism(RMatrix(ring, 2, 1, [1, 0]), RMatrix(ring, 1, 2, [1, 0]), emb)
    phi = OvicMorphism(RMatrix(ring, 3, 2, [1, 0, 0, 1, 0, 0]),
                       RMatrix(ring, 2, 3, [1, 0, 0, 0, 1, 0]), emb)
    y = act(phi, ModuleElement.monomial(f, F2))
    assert list(y.terms) == [compose_vic(phi, f)]
    assert not [key for key in emb.enum_cache if key[0] == "ovic"]


def test_act_returns_the_emitted_member():
    """On an enumerated stratum the entry-keyed lookup lands on the very
    object ``enumerate_ovic`` emitted."""
    emb = build_aw_embedding(build_ring("upper_triangular(zmod(2),2)"))
    emitted = {f: f for f in enumerate_ovic(emb, 1, 3)}
    fs = enumerate_ovic(emb, 1, 2)
    for phi in enumerate_ovic(emb, 2, 3)[::401]:
        for f in fs[::7]:
            (g,) = act(phi, ModuleElement.monomial(f, F2)).terms
            assert g is emitted[compose_vic(phi, f)]


@pytest.mark.parametrize("spec", ["zmod(4)", "upper_triangular(zmod(2),2)"])
def test_act_on_a_stratum_never_enumerated(spec):
    """Without the target stratum the composite is built once by
    ``compose_vic``, with the pivot sets and order key a morphism built
    from scratch gets."""
    emb = build_aw_embedding(build_ring(spec))
    fs = enumerate_ovic(emb, 1, 2)
    for phi in enumerate_ovic(emb, 2, 3)[::401]:
        for f in fs[::7]:
            (g,) = act(phi, ModuleElement.monomial(f, F2)).terms
            want = compose_vic(phi, f)
            fresh = OvicMorphism(want.f_prime, want.f_dprime, emb)
            assert g == want == fresh
            assert g.s_sets == want.s_sets == fresh.s_sets
            assert g.order_key == want.order_key == fresh.order_key
            (again,) = act(phi, ModuleElement.monomial(f, F2)).terms
            assert again is g
    assert ("ovic", 1, 3) not in emb.enum_cache


def test_repeated_act_is_equal():
    emb = emb_of("Z4")
    x = _seeded_element(emb, F2, 2, 2, "repeat")
    for phi in enumerate_ovic(emb, 2, 3)[::7]:
        first = act(phi, x)
        again = act(phi, x)
        assert first == again
        assert all(a is b for a, b in zip(first.terms, again.terms))


def test_init_term_examples():
    emb = emb_of("F2")
    fs = enumerate_ovic(emb, 1, 2)
    f = next(m for m in fs if m.s_sets == ((1,),))
    g = next(m for m in fs if m.s_sets == ((2,),))
    assert total_compare(f, g) == LT
    coeff, lead = init_term(ModuleElement(1, 2, F2, {f: 1, g: 1}))
    assert lead == g and coeff == 1
    single = ModuleElement.monomial(f, F2)
    assert init_term(single) == (1, f)
    with pytest.raises(ZeroElement):
        init_term(single.sub(single))


# ---------------------------------------------------------------------------
# echelon bases and spans
# ---------------------------------------------------------------------------

def test_echelon_insert_reduce():
    emb = emb_of("F2")
    fs = enumerate_ovic(emb, 1, 2)
    ranks = noether._stratum_ranks(emb, 1, 2)
    basis = EchelonBasis(F2, ranks)
    assert basis.insert({0: 1, 1: 1})  # ranks of fs[0], fs[1]
    assert not basis.insert({0: 1, 1: 1})
    assert basis.insert({1: 1})
    rem, cert = basis.reduce({fs[0]: 1})
    assert not rem and cert


def test_span_full_module():
    emb = emb_of("F2")
    ident = ModuleElement.monomial(OvicMorphism.identity(emb, 1), F2)
    state = span_to_degree([ident], 2, emb, F2)
    assert state.dims() == {0: 0, 1: 1, 2: 6}


def test_span_empty_generators():
    emb = emb_of("F2")
    state = span_to_degree([], 3, emb, F2, d=1)
    assert state.dims() == {0: 0, 1: 0, 2: 0, 3: 0}


def test_span_p0():
    emb = emb_of("F2")
    empty = OvicMorphism.identity(emb, 0)
    state = span_to_degree([ModuleElement.monomial(empty, F2)], 3, emb, F2)
    assert state.dims() == {0: 1, 1: 1, 2: 1, 3: 1}


def test_span_idempotent():
    emb = emb_of("F2")
    ident = ModuleElement.monomial(OvicMorphism.identity(emb, 1), F2)
    s1 = span_to_degree([ident], 3, emb, F2)
    s2 = span_to_degree([ident, ident], 3, emb, F2)
    assert s1.dims() == s2.dims()
    for n in range(4):
        assert s1.bases[n].canonical_rows() == s2.bases[n].canonical_rows()


def test_initial_module_examples():
    emb = emb_of("F2")
    ident = ModuleElement.monomial(OvicMorphism.identity(emb, 1), F2)
    state = span_to_degree([ident], 2, emb, F2)
    leading = initial_module_to_degree(state, 2)
    assert len(leading[2]) == 6  # full module: every basis morphism leads
    empty_state = span_to_degree([], 2, emb, F2, d=1)
    assert initial_module_to_degree(empty_state, 2) == {0: (), 1: (), 2: ()}
    fs = enumerate_ovic(emb, 1, 2)
    f, g = fs[0], fs[-1]
    x = ModuleElement(1, 2, F2, {f: 1, g: 1})
    state2 = span_to_degree([x], 2, emb, F2)
    assert initial_module_to_degree(state2, 2)[2] == (g,)


def test_initial_module_horizon_guard():
    emb = emb_of("F2")
    state = span_to_degree([], 1, emb, F2, d=1)
    with pytest.raises(HorizonExceeded):
        initial_module_to_degree(state, 5)


def test_membership_examples():
    emb = emb_of("F2")
    fs = enumerate_ovic(emb, 1, 2)
    gen = ModuleElement(1, 2, F2, {fs[0]: 1, fs[1]: 1})
    state = span_to_degree([gen], 3, emb, F2)
    ok, cert = membership(state, gen)
    assert ok
    zero = gen.sub(gen)
    assert membership(state, zero) == (True, [])
    # a proper submodule misses some basis morphism at its own degree
    missing = [f for f in fs if not membership(state, ModuleElement.monomial(f, F2))[0]]
    assert missing
    ok, cert = membership(state, ModuleElement.monomial(missing[0], F2))
    assert not ok


def test_membership_of_another_source_rank_is_false():
    """A term outside the basis's stratum is in no row: it stays in the
    remainder."""
    emb = emb_of("F2")
    ident = ModuleElement.monomial(OvicMorphism.identity(emb, 1), F2)
    state = span_to_degree([ident], 2, emb, F2)
    other = ModuleElement.monomial(OvicMorphism.identity(emb, 2), F2)
    assert membership(state, other) == (False, [])
    assert state.bases[2].reduce(other.terms) == (other.terms, [])


def test_membership_horizon():
    emb = emb_of("F2")
    state = span_to_degree([], 1, emb, F2, d=1)
    f = enumerate_ovic(emb, 1, 2)[0]
    with pytest.raises(HorizonExceeded):
        membership(state, ModuleElement.monomial(f, F2))


def test_claim_equal_sinit_implies_equal_module():
    """Seeded random N <= M pairs: whenever the leading sets agree through
    the horizon, the reduced bases agree."""
    emb = emb_of("F2")
    rng = random.Random(7)
    horizon = 3
    pool = {n: enumerate_ovic(emb, 1, n) for n in range(1, horizon + 1)}

    def random_element():
        n = rng.choice([1, 2])
        support = rng.sample(pool[n], k=min(len(pool[n]), rng.randrange(1, 3)))
        return ModuleElement(1, n, F2, {f: 1 for f in support})

    for trial in range(20):
        gens_m = [random_element() for _ in range(rng.randrange(1, 3))]
        m_state = span_to_degree(gens_m, horizon, emb, F2)
        if rng.random() < 0.5:
            gens_n = list(gens_m)  # same module, different presentation later
        else:
            gens_n = gens_m[:1]
        extra = []
        for g in gens_m:
            homs = enumerate_ovic(emb, g.degree, min(horizon, g.degree + 1))
            if homs:
                extra.append(act(homs[rng.randrange(len(homs))], g))
        gens_n = gens_n + extra  # still inside M
        n_state = span_to_degree(gens_n, horizon, emb, F2)
        for deg in range(horizon + 1):
            for lead, row in n_state.bases[deg].canonical_rows().items():
                ok, _ = membership(m_state, ModuleElement(1, deg, F2, row))
                assert ok  # N inside M
        same_sinit = all(
            m_state.bases[deg].leading() == n_state.bases[deg].leading()
            for deg in range(horizon + 1)
        )
        if same_sinit:
            for deg in range(horizon + 1):
                assert (m_state.bases[deg].canonical_rows()
                        == n_state.bases[deg].canonical_rows())


class ScanEchelonBasis:
    """Fully reduced echelon basis keyed by leading morphism.

    Rows are monic; no row's tail contains another row's pivot, so the stored
    form is the canonical reduced basis of the span regardless of insertion
    order.
    """

    def __init__(self, field):
        self.field = field
        self.rows: dict[OvicMorphism, dict] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def leading(self) -> tuple[OvicMorphism, ...]:
        return tuple(sorted(self.rows, key=lambda f: f.order_key))

    def reduce(self, terms: dict) -> tuple[dict, list]:
        """Remainder of ``terms`` against the basis plus the certificate
        [(pivot, coefficient), ...] that was subtracted."""
        field = self.field
        vec = {f: c for f, c in terms.items() if c != field.zero}
        cert = []
        for m in sorted(vec, key=lambda f: f.order_key, reverse=True):
            c = vec.get(m, field.zero)
            if c == field.zero or m not in self.rows:
                continue
            cert.append((m, c))
            for g, rc in self.rows[m].items():
                nv = field.sub(vec.get(g, field.zero), field.mul(c, rc))
                if nv == field.zero:
                    vec.pop(g, None)
                else:
                    vec[g] = nv
        return vec, cert

    def insert(self, terms: dict) -> bool:
        """Reduce and, if a remainder survives, adjoin it (monic) and keep
        every other row reduced against the new pivot."""
        field = self.field
        rem, _ = self.reduce(terms)
        if not rem:
            return False
        lead = max(rem, key=lambda f: f.order_key)
        inv = field.inv(rem[lead])
        new_row = {g: field.mul(inv, c) for g, c in rem.items()}
        self.rows[lead] = new_row
        for pivot, row in list(self.rows.items()):
            if pivot is lead:
                continue
            c = row.get(lead, field.zero)
            if c == field.zero:
                continue
            updated = dict(row)
            for g, rc in new_row.items():
                nv = field.sub(updated.get(g, field.zero), field.mul(c, rc))
                if nv == field.zero:
                    updated.pop(g, None)
                else:
                    updated[g] = nv
            self.rows[pivot] = updated
        return True

    def canonical_rows(self) -> dict:
        return {lead: dict(row) for lead, row in self.rows.items()}


def _oracle_act(phi, x):
    """The action composing every term afresh with compose_vic."""
    terms = {}
    for f, c in x.terms.items():
        g = compose_vic(phi, f)
        terms[g] = x.field.add(terms.get(g, x.field.zero), c)
    return ModuleElement(x.d, phi.n, x.field, terms)


SPAN_CASES = [
    # (ring, coefficient field, horizon, generator degrees, terms, source rank)
    ("F2", "F2", 4, (2,), 3, 1),
    ("F3", "Q", 3, (2,), 3, 1),
    ("Z4", "F2", 3, (2,), 2, 1),
    ("T2F2", "Q", 2, (1,), 1, 1),
    ("F2", "Q", 4, (3,), 3, 2),
    ("zmod(4)", "F3", 3, (2, 3), 2, 1),  # fresh ring: no stratum cached yet
    ("Z4", "F5", 3, (2,), 3, 1),
]
SPAN_IDS = ["F2-F2-4-degrees0-3", "F3-Q-3-degrees1-3", "Z4-F2-3-degrees2-2",
            "T2F2-Q-2-degrees3-1", "F2-Q-4-d2", "Z4-F3-3-at-horizon", "Z4-F5-3"]


def _case_emb(ring):
    """The shared embedding of a builtin, or a fresh one for a ring spec."""
    return emb_of(ring) if ring in BUILTIN_NAMES else build_aw_embedding(build_ring(ring))


def _span_case_generators(emb, field, horizon, degrees, terms, variant, d):
    """Seeded generators of source rank d.  One at the horizon is phi o x for
    a seeded x one degree lower: building it enumerates no stratum into the
    horizon, so on a fresh embedding the engine builds the target stratum
    itself."""
    gens = []
    for deg in degrees:
        seed = f"oracle/{variant}/{deg}"
        if deg < horizon:
            gens.append(_seeded_element(emb, field, deg, terms + variant, seed, d))
            continue
        x = _seeded_element(emb, field, deg - 1, terms + variant, seed, d)
        phis = enumerate_ovic(emb, deg - 1, deg)
        gens.append(act(phis[random.Random(seed).randrange(len(phis))], x))
    return gens


@pytest.mark.parametrize("ring,field,horizon,degrees,terms,d", SPAN_CASES, ids=SPAN_IDS)
def test_span_matches_compose_vic_oracle(ring, field, horizon, degrees, terms, d):
    """The span engine (ranks, composition memo, column-indexed basis)
    against fresh ``compose_vic`` composites in the full-scan basis: equal
    canonical rows and leads, and equal remainders and certificates on
    membership queries in and out of the span."""
    field = parse_field(field)
    for variant in range(2):
        emb = _case_emb(ring)
        gens = _span_case_generators(emb, field, horizon, degrees, terms, variant, d)
        if ring not in BUILTIN_NAMES and max(degrees) == horizon:
            assert ("ovic", d, horizon) not in emb.enum_cache
        state = span_to_degree(gens, horizon, emb, field, d=d)
        rng = random.Random(f"oracle-queries/{variant}")
        for n in range(horizon + 1):
            oracle = ScanEchelonBasis(field)
            images = []
            for g in gens:
                if g.degree <= n:
                    for phi in enumerate_ovic(emb, g.degree, n):
                        images.append(_oracle_act(phi, g))
                        oracle.insert(images[-1].terms)
            basis = state.bases[n]
            assert basis.canonical_rows() == oracle.canonical_rows()
            assert [f.order_key for f in basis.leading()] == [
                f.order_key for f in oracle.leading()]
            if n < d:
                continue
            queries = [_seeded_element(emb, field, n, 3, f"probe/{variant}/{n}/{i}", d)
                       for i in range(3)]
            for _ in range(3 if images else 0):
                picked = rng.sample(images, min(3, len(images)))
                member = ModuleElement(d, n, field, {})
                for y in picked:
                    member = member.add(y.scale(field.from_int(rng.randrange(1, 5))))
                queries.append(member)
                queries.append(member.add(queries[0]))
            for x in queries:
                ok, cert = membership(state, x)
                rem, want = oracle.reduce(x.terms)
                assert (ok, cert) == (not rem, want)
                assert basis.reduce(x.terms)[0] == rem


def _ranked_ints(ranks, field, terms):
    """Member-keyed field coefficients as the rank-keyed ints ``insert``
    takes."""
    return dict(zip([ranks.rank[f] for f in terms], field.integral(list(terms.values()))))


def _rebuilt_index(basis):
    index = {}
    for pivot, row in basis.rows.items():
        for g in row:
            if g != pivot:
                index.setdefault(g, set()).add(pivot)
    return index


@pytest.mark.parametrize("ring,field,horizon,degrees,terms,d", SPAN_CASES, ids=SPAN_IDS)
def test_column_index_invariants(ring, field, horizon, degrees, terms, d):
    """After every insert the column index is the one rebuilt from the rows,
    no row's tail holds a pivot, each pivot is the largest rank in its row,
    and every true row is monic on its pivot.  Stored rows are nonzero ints:
    over Q primitive with a positive pivot entry, over F_p residues
    1..p-1."""
    field = parse_field(field)
    for variant in range(2):
        emb = _case_emb(ring)
        gens = _span_case_generators(emb, field, horizon, degrees, terms, variant, d)
        for n in range(1, horizon + 1):
            ranks = noether._stratum_ranks(emb, d, n)
            basis = EchelonBasis(field, ranks)
            for g in gens:
                if g.degree > n:
                    continue
                for phi in enumerate_ovic(emb, g.degree, n):
                    basis.insert(_ranked_ints(ranks, field, act(phi, g).terms))
                    assert basis.cols == _rebuilt_index(basis)
                    assert not basis.cols.keys() & basis.rows.keys()
                    for pivot, row in basis.rows.items():
                        assert field.entry(row[pivot], row[pivot]) == field.one
                        assert all(type(c) is int and c for c in row.values())
                        assert max(row) == pivot
                        if field.name == "Q":
                            assert row[pivot] > 0 and math.gcd(*row.values()) == 1
                        else:
                            assert all(0 < c < field.p for c in row.values())


@pytest.mark.parametrize("field", ["F2", "F3", "F97", "Q"])
def test_echelon_kernel_matches_scan_oracle(field):
    """Seeded sparse inserts with negative coefficients (and over Q large
    denominators), a third of them combinations of earlier ones, against
    the full-scan basis after every insert: the same accept verdicts (both
    occur), canonical rows and leads, and remainders and certificates of
    queries in and out of the span.  Over Q some insert must clear its
    pivot from a stored row whose pivot entry is not 1."""
    field = parse_field(field)
    emb = emb_of("F2")
    ranks = noether._stratum_ranks(emb, 1, 3)
    rng = random.Random(f"kernel/{field.name}")
    pool = rng.sample(ranks.members, 14)
    if field.name == "Q":
        coeffs = [Fraction(-13, 4), Fraction(7, 9), Fraction(-5), Fraction(2, 3),
                  Fraction(11, 6), Fraction(-1), Fraction(3)]
    else:
        coeffs = [c for c in range(-200, 200) if c % field.p]

    def random_element(size):
        support = rng.sample(pool, size)
        return ModuleElement(1, 3, field, {f: rng.choice(coeffs) for f in support})

    basis, oracle = EchelonBasis(field, ranks), ScanEchelonBasis(field)
    inserted, accepts, odd_pivots = [], 0, 0
    for _ in range(80):
        if len(inserted) > 1 and rng.random() < 0.35:
            x = ModuleElement(1, 3, field, {})
            for y in rng.sample(inserted, 2):
                x = x.add(y.scale(rng.choice(coeffs)))
        else:
            x = random_element(rng.randrange(1, 5))
        pivot_entries = {p: row[p] for p, row in basis.rows.items()}
        holders = {g: set(hs) for g, hs in basis.cols.items()}
        accepted = basis.insert(_ranked_ints(ranks, field, x.terms))
        assert accepted == oracle.insert(x.terms)
        inserted.append(x)
        if accepted:
            accepts += 1
            (new,) = basis.rows.keys() - pivot_entries.keys()
            odd_pivots += any(pivot_entries[h] != 1 for h in holders.get(new, ()))
        assert basis.canonical_rows() == oracle.canonical_rows()
        assert basis.leading() == oracle.leading()
        member = x.add(rng.choice(inserted).scale(rng.choice(coeffs)))
        for query in (member, random_element(3), member.add(random_element(2))):
            assert basis.reduce(query.terms) == oracle.reduce(query.terms)
    assert 0 < accepts < len(inserted)
    if field.name == "Q":
        assert odd_pivots


def test_ranks_follow_the_total_order():
    """On every stratum d <= 2, n <= 3 of each builtin that fits the default
    budget, rank i is position i, rank order is ``order_key`` order, and
    neighbours compare LT under ``total_compare``.  Each ring is built
    afresh, so its strata are freed after the test."""
    skipped = []
    for name in BUILTIN_NAMES:
        emb = build_aw_embedding(rings._BUILTIN_BUILDERS[name]())
        for d in range(3):
            for n in range(4):
                # a stratum with more members than the budget cannot fit it
                if closed_form_counts(emb, d, n)[0] > 10 ** 6:
                    skipped.append((name, d, n))
                    continue
                ranks = noether._stratum_ranks(emb, d, n)
                members = ranks.members
                assert [ranks.rank[f] for f in members] == list(range(len(members)))
                keys = [f.order_key for f in members]
                assert all(a < b for a, b in zip(keys, keys[1:]))
                assert all(total_compare(a, b) == LT for a, b in zip(members, members[1:]))
    assert skipped == [("F2S3", 1, 3), ("F2S3", 2, 3)]


def test_enumerate_ovic_builds_no_rank_view():
    emb = build_aw_embedding(zmod(2))
    enumerate_ovic(emb, 1, 3)
    enumerate_vic(emb, 1, 3)
    assert not [key for key in emb.enum_cache if key[0] == "ranks"]
    span_to_degree([], 3, emb, F2, d=1)
    assert [key for key in emb.enum_cache if key[0] == "ranks"] == [
        ("ranks", 1, n) for n in range(4)]


def test_span_budget_counts_the_target_stratum():
    """A generator at the horizon acts only through OVIC(4, 4), one member;
    the target OVIC(1, 4) alone is past the budget, and that raises."""
    emb = build_aw_embedding(zmod(2))
    ring = emb.ring
    f = OvicMorphism(RMatrix(ring, 4, 1, [1, 0, 0, 0]), RMatrix(ring, 1, 4, [1, 0, 0, 0]), emb)
    gen = ModuleElement.monomial(f, F2)
    with pytest.raises(BudgetExceeded, match=r"OVIC\(1, 4\)"):
        span_to_degree([gen], 4, emb, F2, budget=100)
    assert span_to_degree([gen], 4, emb, F2, budget=1000).dims() == {
        0: 0, 1: 0, 2: 0, 3: 0, 4: 1}
    # each stratum fits 150, but the targets OVIC(1, n <= 4) together are 155
    with pytest.raises(BudgetExceeded, match="enumerated 155 morphisms"):
        span_to_degree([gen], 4, emb, F2, budget=150)


def test_span_rejects_a_term_outside_the_embedding():
    """Generators are ranked in the strata of the embedding given; a term
    over another copy of the ring is not a member of them."""
    other = build_aw_embedding(zmod(2))
    x = ModuleElement.monomial(enumerate_ovic(other, 1, 2)[0], F2)
    with pytest.raises(InvalidMorphism):
        span_to_degree([x], 2, build_aw_embedding(zmod(2)), F2)


def test_span_over_rationals():
    emb = emb_of("F2")
    q = RationalField()
    ident = ModuleElement.monomial(OvicMorphism.identity(emb, 1), q)
    state = span_to_degree([ident.scale(Fraction(3, 2))], 2, emb, q)
    assert state.dims()[2] == 6


def test_full_module_over_q_at_scale():
    """12544 rows at degree 3, one accepted insert each: a basis that scans
    every row per insert needs quadratic time here (tens of seconds), the
    column index well under a second."""
    emb = emb_of("T2F2")
    q = RationalField()
    ident = ModuleElement.monomial(OvicMorphism.identity(emb, 1), q)
    state = span_to_degree([ident], 3, emb, q)
    assert state.dims() == {0: 0, 1: 1, 2: 144, 3: 12544}
    assert all(state.dims()[n] == len(enumerate_ovic(emb, 1, n)) for n in (1, 2, 3))


# ---------------------------------------------------------------------------
# generation witnesses
# ---------------------------------------------------------------------------

def test_endo_generation_f2():
    emb = emb_of("F2")
    report = check_endo_generation(emb, 1, 3)
    assert report["counterexamples"] == 0
    assert report["per_degree"] == {1: 1, 2: 6, 3: 28}


def test_endo_generation_zmod4():
    emb = emb_of("Z4")
    report = check_endo_generation(emb, 1, 2)
    assert report["counterexamples"] == 0
    assert report["per_degree"] == {1: 2, 2: 48}


def test_endo_generation_d0():
    emb = emb_of("F2")
    report = check_endo_generation(emb, 0, 2)
    assert report["counterexamples"] == 0


def test_count_identity_report():
    emb = emb_of("F2")
    rep = count_identity_report(emb, 1, 2)
    assert rep["vic"] == 6 and rep["gl"] == 1
    assert set(rep) >= {"vic", "ovic", "gl", "gl_times_ovic", "matches"}
    assert rep["matches"]


def test_count_identity_report_checks_the_closed_form(monkeypatch):
    """GL_d * OVIC = VIC holds by construction; a count off the closed form
    must still fail the report."""
    emb = emb_of("Z4")
    assert count_identity_report(emb, 1, 2)["matches"]
    monkeypatch.setattr(noether, "closed_form_counts", lambda emb, d, n: (24, 49))
    rep = count_identity_report(emb, 1, 2)
    assert rep["vic"] == rep["gl_times_ovic"] == 48
    assert not rep["matches"]


def test_closed_form_counts_beyond_enumeration():
    """M_2(F_2) is semisimple with GL_n(M_2(F_2)) = GL_2n(F_2), so
    |VIC(1, 3)| = |GL_6(F_2)| / |GL_4(F_2)| and |OVIC(1, 3)| divides that by
    |GL_2(F_2)| = 6."""
    gl6 = 63 * 62 * 60 * 56 * 48 * 32
    gl4 = 15 * 14 * 12 * 8
    assert closed_form_counts(emb_of("M2F2"), 1, 3) == (gl6 // gl4 // 6, gl6 // gl4)
    assert closed_form_counts(emb_of("M2F2"), 1, 3)[0] == 166656
    assert closed_form_counts(emb_of("F2"), 3, 2) == (0, 0)
    with pytest.raises(ValueError, match="negative rank"):
        closed_form_counts(emb_of("F2"), -1, 2)


# ---------------------------------------------------------------------------
# ascending-chain witnesses
# ---------------------------------------------------------------------------

def test_dimension_profile_stable_under_redundant_generators():
    emb = emb_of("F2")
    rng = random.Random(3)
    pool = {n: enumerate_ovic(emb, 1, n) for n in (1, 2)}
    for trial in range(5):
        gens = []
        for _ in range(rng.randrange(1, 3)):
            n = rng.choice([1, 2])
            support = rng.sample(pool[n], k=min(len(pool[n]), rng.randrange(1, 3)))
            gens.append(ModuleElement(1, n, F2, {f: 1 for f in support}))
        base = span_to_degree(gens, 4, emb, F2)
        g = gens[rng.randrange(len(gens))]
        homs = enumerate_ovic(emb, g.degree, g.degree + 1)
        redundant = act(homs[rng.randrange(len(homs))], g)
        bigger = span_to_degree(gens + [redundant], 4, emb, F2)
        assert base.dims() == bigger.dims()
        for n in range(5):
            assert base.bases[n].canonical_rows() == bigger.bases[n].canonical_rows()


def test_leading_growth_certified_by_insertion_chains():
    """Every certificate chain returned for a leading-set successor replays to
    the claimed morphism; coverage counts are recorded, not asserted."""
    from vicbench.errors import SearchBudgetExceeded
    from vicbench.ordering import insert_successor, partial_leq

    emb = emb_of("F2")
    rng = random.Random(11)
    pool = {n: enumerate_ovic(emb, 1, n) for n in (1, 2)}
    horizon = 4
    gens = []
    for n in (1, 2):
        support = rng.sample(pool[n], k=2 if n == 2 else 1)
        gens.append(ModuleElement(1, n, F2, {f: 1 for f in support}))
    state = span_to_degree(gens, horizon, emb, F2)
    leading = initial_module_to_degree(state, horizon)
    certified = 0
    new_leads = 0
    for n in range(1, horizon):
        # nearest predecessors first: shallow witness searches
        earlier = [p for m in range(n, 0, -1) for p in leading[m]]
        for lead in leading[n + 1]:
            new_leads += 1
            for p in earlier:
                try:
                    chain = partial_leq(p, lead, node_cap=10 ** 4)
                except SearchBudgetExceeded:
                    continue
                if chain is not None:
                    cur = p
                    for mv in chain:
                        cur = insert_successor(cur, mv)
                    assert cur == lead  # certificate must replay exactly
                    certified += 1
                    break
    assert new_leads > 0
    assert certified > 0  # growth is explained by insertion moves somewhere
