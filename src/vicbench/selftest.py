"""Self-contained acceptance suite.

Each criterion function runs a batch of oracle-backed checks at desk scale
and returns a CheckResult; ``run_selftest`` drives them all.  The ``quick``
profile restricts to F2/Z4-sized slices, the ``full`` profile runs every
built-in ring at the documented sizes.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InvalidTables, WorkbenchError
from .noether import (
    ModuleElement,
    PrimeField,
    act,
    check_endo_generation,
    count_identity_report,
    enumerate_ovic,
    enumerate_vic,
    initial_module_to_degree,
    membership,
    span_to_degree,
)
from .ordering import (
    LT,
    build_phi,
    insert_successor,
    iota,
    total_compare,
    valid_moves,
    word_leq,
    word_leq_letters,
)
from .ovic import (
    OvicMorphism,
    canonical_splitting,
    compose_vic,
    extract_free_fragment,
    factor_vic,
    is_column_adapted,
    reconstruct_from_free,
    s_function,
)
from .rings import (
    BUILTIN_NAMES,
    FiniteRing,
    RMatrix,
    builtin_ring,
    iter_vectors,
    jacobson_radical,
    matrix_invertible,
    matvec,
    nilpotency_index,
    quotient_by_radical,
)
from .wedderburn import build_aw_embedding, verify_embedding


@dataclass
class CheckResult:
    name: str
    passed: bool
    checks: int
    detail: str
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} ({self.checks} checks, {self.seconds:.2f}s)"


def _result(name: str, failures: list, checks: int, detail: str) -> CheckResult:
    if failures:
        shown = "; ".join(str(f) for f in failures[:3])
        return CheckResult(name, False, checks, f"{len(failures)} failures: {shown}", 0.0)
    return CheckResult(name, True, checks, detail, 0.0)


# ---------------------------------------------------------------------------
# criterion 1: radical against the definitional oracle
# ---------------------------------------------------------------------------

def _oracle_radical(ring: FiniteRing) -> set:
    def unit(x):
        return any(
            ring.mul(x, y) == ring.one and ring.mul(y, x) == ring.one
            for y in ring.elements()
        )

    units = [unit(x) for x in ring.elements()]
    out = set()
    for y in ring.elements():
        if all(
            units[ring.sub(ring.one, ring.mul(ring.mul(x, y), z))]
            for x in ring.elements()
            for z in ring.elements()
        ):
            out.add(y)
    return out


def criterion_radical(quick: bool = False, seed: int = 0) -> CheckResult:
    names = ("F2", "Z4") if quick else BUILTIN_NAMES
    failures = []
    checks = 0
    for name in names:
        ring = builtin_ring(name)
        rad = jacobson_radical(ring)
        checks += 1
        if rad.members != _oracle_radical(ring):
            failures.append(f"{name}: radical disagrees with the triple-scan oracle")
        k = nilpotency_index(ring, rad)
        checks += 1
        if k is None or k > ring.size:
            failures.append(f"{name}: radical not nilpotent within |R| (k={k})")
    return _result("radical-definitional", failures, checks,
                   f"{len(names)} rings match the oracle and are nilpotent")


# ---------------------------------------------------------------------------
# criterion 2: decomposition and embedding integrity
# ---------------------------------------------------------------------------

def criterion_aw_integrity(quick: bool = False, seed: int = 0) -> CheckResult:
    names = ("F2", "Z4") if quick else BUILTIN_NAMES
    failures = []
    checks = 0
    for name in names:
        emb = build_aw_embedding(builtin_ring(name))
        flags = verify_embedding(emb, rng=random.Random(seed),
                                 roundtrip_samples=100 if quick else 500)
        checks += len(flags)
        for flag, ok in flags.items():
            if not ok:
                failures.append(f"{name}: {flag}")
    return _result("artin-wedderburn-integrity", failures, checks,
                   f"{len(names)} rings, all embedding invariants hold")


# ---------------------------------------------------------------------------
# criterion 3: invertible iff reduction invertible, exhaustive 2x2
# ---------------------------------------------------------------------------

def _kernel_trivial(ring: FiniteRing, m: RMatrix) -> bool:
    zero = tuple([ring.zero] * m.rows)
    for v in iter_vectors(ring, m.cols):
        if matvec(ring, m, v) == zero and any(x != ring.zero for x in v):
            return False
    return True


def criterion_checkinvertible(quick: bool = False, seed: int = 0) -> CheckResult:
    names = ("Z4",) if quick else ("Z4", "T2F2")
    failures = []
    checks = 0
    for name in names:
        ring = builtin_ring(name)
        q = quotient_by_radical(ring)
        ident = RMatrix.identity(ring, 2)
        for entries in itertools.product(ring.elements(), repeat=4):
            m = RMatrix(ring, 2, 2, entries)
            ok, witness = matrix_invertible(m, q)
            checks += 1
            # independent oracle: over a finite ring a square matrix is
            # invertible iff its kernel is trivial
            if ok != _kernel_trivial(ring, m):
                failures.append(f"{name}: decision wrong at {entries}")
                continue
            if ok and (m.mul(witness) != ident or witness.mul(m) != ident):
                failures.append(f"{name}: witness wrong at {entries}")
    return _result("lemma-checkinvertible", failures, checks,
                   f"exhaustive 2x2 scan over {', '.join(names)}")


# ---------------------------------------------------------------------------
# criterion 4: column-adapted calculus
# ---------------------------------------------------------------------------

def _calculus_shapes(quick: bool):
    if quick:
        return {"F2": (1, 2), "Z4": (1, 2)}, 1
    return {"F2": (1, 2, 3), "Z4": (1, 2, 3)}, 2


def criterion_calculus(quick: bool = False, seed: int = 0) -> CheckResult:
    sizes_by_ring, f2_dmax = _calculus_shapes(quick)
    failures = []
    checks = 0
    for name, sizes in sizes_by_ring.items():
        emb = build_aw_embedding(builtin_ring(name))
        dmax = f2_dmax if name == "F2" else 1
        strata = {
            (a, b): enumerate_ovic(emb, a, b)
            for a in range(0, max(sizes) + 1)
            for b in range(a, max(sizes) + 1)
        }

        # composition closure, with the cached pivot formula cross-checked
        for (a, b), fs in strata.items():
            if a > dmax or a == 0:
                continue
            for (b2, c), gs in strata.items():
                if b2 != b:
                    continue
                for f in fs:
                    for g in gs:
                        comp = compose_vic(g, f)
                        checks += 1
                        if not is_column_adapted(comp.f_dprime, emb):
                            failures.append(f"{name}: closure fails {f} ; {g}")
                        elif comp.s_sets != s_function(comp.f_dprime, emb):
                            failures.append(f"{name}: pivot formula wrong {f} ; {g}")

        # canonical splitting universality
        for d in range(1, dmax + 1):
            for n in sizes:
                if n < d:
                    continue
                by_s = {}
                for f in strata[(d, n)]:
                    by_s.setdefault(f.s_sets, []).append(f.f_dprime)
                ident = RMatrix.identity(emb.ring, d)
                for s_sets, hs in by_s.items():
                    g = canonical_splitting(s_sets, emb, m=n, n=d)
                    for h in hs:
                        checks += 1
                        if h.mul(g) != ident:
                            failures.append(f"{name}: splitting not universal at {s_sets}")

        # unique ordered endomorphism
        for d in range(1, dmax + 1):
            ring = emb.ring
            hits = [
                e for e in itertools.product(ring.elements(), repeat=d * d)
                if is_column_adapted(RMatrix(ring, d, d, e), emb)
            ]
            checks += 1
            if hits != [RMatrix.identity(ring, d).entries]:
                failures.append(f"{name}: ordered endomorphisms of rank {d} != {{id}}")

        # reconstruct/extract roundtrip
        for (a, b), fs in strata.items():
            if a > dmax:
                continue
            for f in fs:
                checks += 1
                again = reconstruct_from_free(f.f_dprime, extract_free_fragment(f), emb)
                if again != f:
                    failures.append(f"{name}: roundtrip broke {f}")
    return _result("column-adapted-calculus", failures, checks,
                   "closure, universality, unique endomorphism, roundtrip")


# ---------------------------------------------------------------------------
# criterion 5: factorisation through the ordered subcategory
# ---------------------------------------------------------------------------

def criterion_factorization(quick: bool = False, seed: int = 0) -> CheckResult:
    sizes_by_ring, f2_dmax = _calculus_shapes(quick)
    failures = []
    checks = 0
    data_lines = []
    for name, sizes in sizes_by_ring.items():
        emb = build_aw_embedding(builtin_ring(name))
        dmax = f2_dmax if name == "F2" else 1
        for d in range(1, dmax + 1):
            for n in sizes:
                if n < d:
                    continue
                ident_d = RMatrix.identity(emb.ring, d)
                for f in enumerate_vic(emb, d, n):
                    f1, f2 = factor_vic(f, emb)
                    checks += 1
                    good = (
                        compose_vic(f2, f1) == f
                        and f1.f_dprime.mul(f1.f_prime) == ident_d
                        and f1.f_prime.mul(f1.f_dprime) == ident_d
                        and is_column_adapted(f2.f_dprime, emb)
                    )
                    if not good:
                        failures.append(f"{name}: bad factorisation of {f}")
                rep = count_identity_report(emb, d, n)
                data_lines.append(
                    f"{name} {d}->{n}: vic={rep['vic']} gl*ovic={rep['gl_times_ovic']}"
                    f" match={rep['matches']}"
                )
    detail = "all pairs factor; counts: " + " | ".join(data_lines)
    return _result("factor-through-ordered", failures, checks, detail)


# ---------------------------------------------------------------------------
# criterion 6: generator ordering
# ---------------------------------------------------------------------------

def _chain_pairs(emb, n_lo: int, n_hi: int, m_max: int):
    """All (f, chain, g) with f in strata [n_lo, n_hi] reachable to rank m_max."""
    out = []
    for n in range(n_lo, n_hi + 1):
        for f in enumerate_ovic(emb, 1, n):
            frontier = [(f, [])]
            while frontier:
                cur, chain = frontier.pop()
                if cur.n >= m_max:
                    continue
                for move in valid_moves(cur):
                    nxt = insert_successor(cur, move)
                    out.append((f, chain + [move], nxt))
                    frontier.append((nxt, chain + [move]))
    return out


def criterion_ordering(quick: bool = False, seed: int = 0) -> CheckResult:
    emb = build_aw_embedding(builtin_ring("F2"))
    failures = []
    checks = 0
    n_max = 2 if quick else 3
    m_max = 3 if quick else 4

    pool = [f for n in range(1, n_max + 1) for f in enumerate_ovic(emb, 1, n)]
    for f in pool:
        for g in pool:
            c1, c2 = total_compare(f, g), total_compare(g, f)
            checks += 1
            if c1 != -c2 or ((c1 == 0) != (f == g)):
                failures.append(f"trichotomy fails at {f}, {g}")
    for f in pool:
        for g in pool:
            for h in pool:
                if total_compare(f, g) == LT and total_compare(g, h) == LT:
                    checks += 1
                    if total_compare(f, h) != LT:
                        failures.append(f"transitivity fails at {f}, {g}, {h}")

    words = {}
    for n in range(0, m_max + 1):
        for f in enumerate_ovic(emb, 1, n):
            w = iota(f)
            checks += 1
            if w in words:
                failures.append(f"iota collision between {f} and {words[w]}")
            words[w] = f

    pairs = _chain_pairs(emb, 1, n_max, m_max)
    for f, chain, g in pairs:
        checks += 1
        if not word_leq(iota(f), iota(g)):
            failures.append(f"iota not order-preserving on {f} -> {g}")
        phi = build_phi(f, chain, expect=g)
        checks += 1
        if compose_vic(phi, f) != g:
            failures.append(f"completion fails (i) on {f} -> {g}")

    stratum2 = enumerate_ovic(emb, 1, 2)
    for f in stratum2:
        for move in valid_moves(f):
            g = insert_successor(f, move)
            phi = build_phi(f, [move], expect=g)
            for h in stratum2:
                if total_compare(h, f) == LT:
                    checks += 1
                    if total_compare(compose_vic(phi, h), compose_vic(phi, f)) != LT:
                        failures.append(f"monotonicity (ii) fails at {h} < {f}")
    return _result("generator-ordering", failures, checks,
                   f"order laws, iota, completion up to rank {m_max}")


# ---------------------------------------------------------------------------
# criterion 7: word order
# ---------------------------------------------------------------------------

def criterion_words(quick: bool = False, seed: int = 0) -> CheckResult:
    failures = []
    checks = 0
    max_len = 4 if quick else 5
    words = [
        tuple(w)
        for length in range(0, max_len + 1)
        for w in itertools.product("ab", repeat=length)
    ]
    rel = {}
    for s in words:
        checks += 1
        if not word_leq_letters(s, s):
            failures.append(f"not reflexive at {s}")
        for t in words:
            rel[(s, t)] = word_leq_letters(s, t)
    for (s, t), v in rel.items():
        if not v:
            continue
        for u in words:
            if rel[(t, u)]:
                checks += 1
                if not rel[(s, u)]:
                    failures.append(f"not transitive at {s}, {t}, {u}")
    checks += 2
    if not word_leq_letters("ab", "aab"):
        failures.append("hand case ab <= aab failed")
    if word_leq_letters("a", "ba"):
        failures.append("hand case a <= ba should fail")
    return _result("word-order", failures, checks,
                   f"exhaustive words up to length {max_len} plus hand cases")


# ---------------------------------------------------------------------------
# criterion 8: engine witnesses
# ---------------------------------------------------------------------------

def criterion_engine(quick: bool = False, seed: int = 0) -> CheckResult:
    failures = []
    checks = 0
    emb = build_aw_embedding(builtin_ring("F2"))
    field = PrimeField(2)
    horizon = 3 if quick else 4

    ident = ModuleElement.monomial(OvicMorphism.identity(emb, 1), field)
    state = span_to_degree([ident], horizon, emb, field)
    for n in range(1, horizon + 1):
        checks += 1
        expected = len(enumerate_ovic(emb, 1, n))
        if state.bases[n].dim != expected:
            failures.append(f"span dim at degree {n}: {state.bases[n].dim} != {expected}")

    for name, hor in (("F2", 2 if quick else 3), ("Z4", 2)):
        if quick and name == "Z4":
            continue
        emb_r = build_aw_embedding(builtin_ring(name))
        report = check_endo_generation(emb_r, 1, hor)
        checks += sum(report["per_degree"].values())
        if report["counterexamples"]:
            failures.append(f"{name}: endo generation found counterexamples")

    rng = random.Random(seed)
    trials = 10 if quick else 100
    pool = {n: enumerate_ovic(emb, 1, n) for n in range(1, horizon + 1)}

    def random_element(max_deg):
        n = rng.randrange(1, max_deg + 1)
        support = rng.sample(pool[n], k=min(len(pool[n]), rng.randrange(1, 3)))
        return ModuleElement(1, n, field, {f: 1 for f in support})

    for _ in range(trials):
        gens_m = [random_element(2) for _ in range(rng.randrange(1, 3))]
        m_state = span_to_degree(gens_m, horizon, emb, field)
        gens_n = list(gens_m) if rng.random() < 0.5 else gens_m[:1]
        for g in gens_m:
            homs = pool.get(g.degree + 1)
            if homs:
                acting = enumerate_ovic(emb, g.degree, g.degree + 1)
                gens_n.append(act(acting[rng.randrange(len(acting))], g))
        n_state = span_to_degree(gens_n, horizon, emb, field)
        inside = all(
            membership(m_state, ModuleElement(1, deg, field, row))[0]
            for deg in range(horizon + 1)
            for row in n_state.bases[deg].canonical_rows().values()
        )
        checks += 1
        if not inside:
            failures.append("constructed N not inside M")
            continue
        same_sinit = (initial_module_to_degree(m_state, horizon)
                      == initial_module_to_degree(n_state, horizon))
        checks += 1
        if same_sinit:
            for deg in range(horizon + 1):
                if (m_state.bases[deg].canonical_rows()
                        != n_state.bases[deg].canonical_rows()):
                    failures.append("equal initial data but different bases")
                    break
    return _result("engine-witnesses", failures, checks,
                   f"span dims, endo generation, initial-data claim x{trials}")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

CRITERIA: tuple[tuple[str, Callable[..., CheckResult]], ...] = (
    ("radical-definitional", criterion_radical),
    ("artin-wedderburn-integrity", criterion_aw_integrity),
    ("lemma-checkinvertible", criterion_checkinvertible),
    ("column-adapted-calculus", criterion_calculus),
    ("factor-through-ordered", criterion_factorization),
    ("generator-ordering", criterion_ordering),
    ("word-order", criterion_words),
    ("engine-witnesses", criterion_engine),
)


def _fault_injection_result() -> CheckResult:
    payload = builtin_ring("Z4").to_payload()
    payload["mul"][1][1] = 2
    payload["name"] = "Z4-corrupted"
    try:
        FiniteRing.from_payload(payload)
    except InvalidTables as exc:
        return CheckResult("fault-injection", False, 1,
                           f"InvalidTables: {exc} (injected fault surfaced)", 0.0)
    return CheckResult("fault-injection", False, 1,
                       "corrupted table was NOT detected", 0.0)


def run_selftest(profile: str = "full", seed: int = 0,
                 inject_fault: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None) -> list[CheckResult]:
    quick = profile == "quick"
    results = []
    if inject_fault == "corrupt-mul":
        res = _fault_injection_result()
        results.append(res)
        if log:
            log(res.line())
    for name, fn in CRITERIA:
        start = time.perf_counter()
        try:
            res = fn(quick=quick, seed=seed)
        except WorkbenchError as exc:
            res = CheckResult(name, False, 0, f"{exc.kind}: {exc}", 0.0)
        res.seconds = time.perf_counter() - start
        results.append(res)
        if log:
            log(res.line())
    return results
