"""Command-line surface.

Verbs map one-to-one onto library pipelines and emit a JSON report on
stdout (or to --out): {"verb", "inputs", "result", "timing"}.  Identical
inputs produce byte-identical payloads once the "timing" key is stripped.
Exit codes: 0 success, 1 domain error (structured {"error": ...} payload),
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import UsageError, WorkbenchError
from .jsonio import (
    dump_payload,
    file_digest,
    generators_payload,
    load_generators,
    load_ring,
    load_vic_morphism,
    morphism_payload,
    ovic_from_payload,
    read_json,
    save_ring,
    write_text,
)
from .rings import (
    BUILTIN_NAMES,
    FiniteRing,
    build_ring,
    builtin_ring,
    jacobson_radical,
    quotient_by_radical,
)

if TYPE_CHECKING:
    from .ovic import OvicMorphism
    from .wedderburn import AWEmbedding

# Each verb imports the layers it calls in its own body, so a request loads
# only those: rings and jsonio are the only layers every verb shares.


def _load_ring_arg(args) -> tuple[FiniteRing, dict]:
    """Resolve --in/--ring/--builtin into a ring plus its input digest."""
    path = getattr(args, "ring", None) or getattr(args, "infile", None)
    builtin = getattr(args, "builtin", None)
    if builtin:
        ring = builtin_ring(builtin)
        return ring, {"builtin": builtin, "sha256": ring.content_hash()}
    if path is None:
        raise UsageError("need --builtin or a ring file")
    ring = load_ring(path)
    return ring, {"path": str(path), "sha256": file_digest(path)}


def _load_embedding_arg(args) -> tuple[AWEmbedding, dict]:
    """The ring of _load_ring_arg, embedded, plus its input digest."""
    from .wedderburn import build_aw_embedding

    ring, digest = _load_ring_arg(args)
    return build_aw_embedding(ring), digest


def _morphism_input(path, emb) -> tuple[OvicMorphism, dict]:
    return ovic_from_payload(read_json(path), emb), {"path": str(path), "sha256": file_digest(path)}


# ---------------------------------------------------------------------------
# verb implementations: each returns (inputs, result)
# ---------------------------------------------------------------------------

def verb_ring_build(args):
    if args.builtin:
        ring = builtin_ring(args.builtin)
        inputs = {"spec": {"builtin": args.builtin}}
    elif args.spec:
        ring = build_ring(args.spec)
        inputs = {"spec": {"expression": args.spec}}
    else:
        raise UsageError("ring build needs --spec or --builtin")
    if args.ring_out:
        save_ring(args.ring_out, ring)
    result = {
        "name": ring.name,
        "size": ring.size,
        "sha256": ring.content_hash(),
        "written": str(args.ring_out) if args.ring_out else None,
    }
    if not args.ring_out:
        result["ring"] = ring.to_payload()
    return inputs, result


def verb_ring_describe(args):
    from .wedderburn import build_aw_embedding

    ring, digest = _load_ring_arg(args)
    rad = jacobson_radical(ring)
    q = quotient_by_radical(ring)
    emb = build_aw_embedding(ring)
    result = {
        "name": ring.name,
        "size": ring.size,
        "sha256": ring.content_hash(),
        "radical": list(rad.sorted_members),
        "radical_nilpotency_index": q.nilpotency,
        "quotient_size": q.quotient.size,
        "q": emb.q,
        "mu": list(emb.mu),
        "field_orders": list(emb.field_orders),
    }
    return {"ring": digest}, result


def verb_ring_wedderburn(args):
    import random

    from .wedderburn import verify_embedding

    emb, digest = _load_embedding_arg(args)
    flags = verify_embedding(emb, rng=random.Random(args.seed))
    result = {
        "q": emb.q,
        "mu": list(emb.mu),
        "mu_total": emb.mu_total,
        "field_orders": list(emb.field_orders),
        "idempotents": [list(grp) for grp in emb.idempotents],
        "idempotents_bar": [list(grp) for grp in emb.idempotents_bar],
        "radical_nilpotency_index": emb.qdata.nilpotency,
        "invariants": dict(sorted(flags.items())),
    }
    return {"ring": digest}, result


def verb_morphism_check(args):
    from .ovic import OvicMorphism, free_rows, is_column_adapted

    emb, digest = _load_embedding_arg(args)
    vic = load_vic_morphism(args.infile, emb.ring)
    adapted = is_column_adapted(vic.f_dprime, emb)
    result = {
        "d": vic.d,
        "n": vic.n,
        "column_adapted": adapted,
        "splitting_identity": True,
    }
    if adapted:
        morph = OvicMorphism(vic.f_prime, vic.f_dprime, emb)
        free, dependent = free_rows(morph)
        result["S"] = [list(s) for s in morph.s_sets]
        result["free_rows"] = list(free)
        result["dependent_rows"] = list(dependent)
    inputs = {"ring": digest,
              "morphism": {"path": str(args.infile), "sha256": file_digest(args.infile)}}
    return inputs, result


def verb_morphism_factor(args):
    from .ovic import factor_vic, is_column_adapted

    emb, digest = _load_embedding_arg(args)
    vic = load_vic_morphism(args.infile, emb.ring)
    f1, f2 = factor_vic(vic, emb)
    result = {
        "f1": morphism_payload(f1),
        "f2": morphism_payload(f2),
        "checks": {
            "recomposes": True,
            "f1_invertible_pair": True,
            "f2_column_adapted": is_column_adapted(f2.f_dprime, emb),
            "f2_S": [list(s) for s in f2.s_sets],
        },
    }
    inputs = {"ring": digest,
              "morphism": {"path": str(args.infile), "sha256": file_digest(args.infile)}}
    return inputs, result


def verb_order_compare(args):
    from .ordering import compare_name, total_compare

    emb, digest = _load_embedding_arg(args)
    fa, da = _morphism_input(args.a, emb)
    fb, db = _morphism_input(args.b, emb)
    result = {"result": compare_name(total_compare(fa, fb))}
    return {"ring": digest, "a": da, "b": db}, result


def verb_order_iota(args):
    from .ordering import iota

    emb, digest = _load_embedding_arg(args)
    f, dm = _morphism_input(args.infile, emb)
    return ({"ring": digest, "morphism": dm},
            {"letters": iota(f).to_payload()})


def verb_order_chain(args):
    from .ordering import partial_leq

    _check_non_negative(node_cap=args.node_cap)
    emb, digest = _load_embedding_arg(args)
    fa, da = _morphism_input(args.a, emb)
    fb, db = _morphism_input(args.b, emb)
    chain = partial_leq(fa, fb, node_cap=args.node_cap)
    result = {
        "related": chain is not None,
        "chain": None if chain is None else [[mv.a, mv.b] for mv in chain],
    }
    return {"ring": digest, "a": da, "b": db}, result


def _check_non_negative(**values) -> None:
    for name, value in values.items():
        if value < 0:
            raise UsageError(f"--{name.replace('_', '-')} {value}: must be non-negative")


def verb_enumerate_ovic(args):
    from .noether import enumerate_ovic, enumerate_vic

    _check_non_negative(d=args.d, n=args.n, budget=args.budget)
    emb, digest = _load_embedding_arg(args)
    if args.vic:
        morphs = enumerate_vic(emb, args.d, args.n, budget=args.budget)
    else:
        morphs = enumerate_ovic(emb, args.d, args.n, budget=args.budget)
    result = {"d": args.d, "n": args.n, "kind": "vic" if args.vic else "ovic",
              "count": len(morphs)}
    if not args.count_only:
        result["morphisms"] = [morphism_payload(f) for f in morphs]
    return {"ring": digest}, result


def verb_noether_span(args):
    from .noether import initial_module_to_degree, parse_field, span_to_degree

    try:
        field = parse_field(args.k)
    except ValueError as exc:
        raise UsageError(f"--k {args.k}: {exc}") from None
    _check_non_negative(d=args.d, horizon=args.horizon, budget=args.budget)
    emb, digest = _load_embedding_arg(args)
    gens = load_generators(args.gens, emb, field, d=args.d)
    timings = {}
    t0 = time.perf_counter()
    state = span_to_degree(gens, args.horizon, emb, field, d=args.d,
                           budget=args.budget)
    timings["span_s"] = round(time.perf_counter() - t0, 6)
    leading = initial_module_to_degree(state, args.horizon)
    result = {
        "d": args.d,
        "field": field.name,
        "horizon": args.horizon,
        "generators": generators_payload(gens),
        "degrees": [
            {
                "n": n,
                "dim": state.bases[n].dim,
                "leading": [morphism_payload(f) for f in leading[n]],
            }
            for n in range(args.horizon + 1)
        ],
    }
    inputs = {"ring": digest,
              "generators": {"path": str(args.gens), "sha256": file_digest(args.gens)}}
    return inputs, result, timings


def verb_noether_endo(args):
    from .noether import check_endo_generation

    _check_non_negative(d=args.d, horizon=args.horizon, budget=args.budget)
    emb, digest = _load_embedding_arg(args)
    report = check_endo_generation(emb, args.d, args.horizon, budget=args.budget)
    return {"ring": digest}, {
        "d": report["d"],
        "per_degree": {str(k): v for k, v in report["per_degree"].items()},
        "counterexamples": report["counterexamples"],
    }


def verb_selftest(args):
    from .selftest import run_selftest

    results = run_selftest(args.profile, seed=args.seed,
                           inject_fault=args.inject_fault,
                           log=lambda line: print(line, file=sys.stderr))
    result = {
        "profile": args.profile,
        "seed": args.seed,
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "checks": r.checks,
             "detail": r.detail}
            for r in results
        ],
    }
    timings = {r.name: round(r.seconds, 3) for r in results}
    return {"profile": {"value": args.profile, "seed": args.seed}}, result, timings


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_ring_source(p, flag: str):
    """The ring JSON file under ``flag`` ("--in" or "--ring"), or --builtin."""
    p.add_argument(flag, dest="infile" if flag == "--in" else "ring",
                   metavar="FILE", help="ring JSON file")
    p.add_argument("--builtin", choices=BUILTIN_NAMES,
                   help="use a built-in ring instead of a file")


def _ring_verbs(group) -> None:
    verbs = group.add_subparsers(dest="verb", required=True)
    p = verbs.add_parser("build", help="build a ring from a spec expression")
    p.add_argument("--spec", help="e.g. 'zmod(4)' or 'upper_triangular(zmod(2),2)'")
    p.add_argument("--builtin", choices=BUILTIN_NAMES)
    p.add_argument("--out", dest="ring_out", metavar="FILE",
                   help="write the ring JSON here (report still goes to stdout)")
    p.set_defaults(fn=verb_ring_build)
    p = verbs.add_parser("describe", help="radical, quotient, block shape")
    _add_ring_source(p, "--in")
    p.set_defaults(fn=verb_ring_describe)
    p = verbs.add_parser("wedderburn", help="full decomposition report")
    _add_ring_source(p, "--in")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=verb_ring_wedderburn)


def _morphism_verbs(group) -> None:
    verbs = group.add_subparsers(dest="verb", required=True)
    p = verbs.add_parser("check", help="column-adapted predicate and pivot data")
    _add_ring_source(p, "--ring")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(fn=verb_morphism_check)
    p = verbs.add_parser("factor", help="factor through the ordered subcategory")
    _add_ring_source(p, "--ring")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(fn=verb_morphism_factor)


def _order_verbs(group) -> None:
    verbs = group.add_subparsers(dest="verb", required=True)
    p = verbs.add_parser("compare", help="total-order comparison")
    _add_ring_source(p, "--ring")
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.set_defaults(fn=verb_order_compare)
    p = verbs.add_parser("iota", help="word image of a morphism")
    _add_ring_source(p, "--ring")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(fn=verb_order_iota)
    p = verbs.add_parser("chain", help="insertion-move witness chain")
    _add_ring_source(p, "--ring")
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.add_argument("--node-cap", type=int, default=10 ** 6,
                   help="give up after this many insertion moves tried")
    p.set_defaults(fn=verb_order_chain)


def _enumerate_verbs(group) -> None:
    verbs = group.add_subparsers(dest="verb", required=True)
    p = verbs.add_parser("ovic", help="enumerate morphisms d -> n")
    _add_ring_source(p, "--ring")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vic", action="store_true",
                   help="enumerate all split pairs instead of ordered ones")
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=verb_enumerate_ovic)


def _noether_verbs(group) -> None:
    verbs = group.add_subparsers(dest="verb", required=True)
    p = verbs.add_parser("span", help="degree-truncated span of generators")
    _add_ring_source(p, "--ring")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", default="F2", help="coefficient field (Fp or Q)")
    p.add_argument("--gens", required=True, metavar="FILE")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(fn=verb_noether_span)
    p = verbs.add_parser("endo", help="generation-by-endomorphisms witness")
    _add_ring_source(p, "--ring")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(fn=verb_noether_endo)


def _selftest_arguments(group) -> None:
    group.add_argument("profile", nargs="?", default="full", choices=("quick", "full"))
    group.add_argument("--seed", type=int, default=0)
    group.add_argument("--inject-fault", choices=("corrupt-mul",),
                       help="demonstrate error reporting on a corrupted table")
    group.set_defaults(fn=verb_selftest)


# group -> (its help, the function adding its verbs and options), in the
# order --help lists them
_GROUPS = {
    "ring": ("ring structure commands", _ring_verbs),
    "morphism": ("morphism calculus commands", _morphism_verbs),
    "order": ("ordering commands", _order_verbs),
    "enumerate": ("morphism enumeration", _enumerate_verbs),
    "noether": ("module engine", _noether_verbs),
    "selftest": ("acceptance suite", _selftest_arguments),
}


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The CLI parser.  Every group parser is built, but only the groups
    named in ``argv`` get their verbs; with no ``argv``, or one naming no
    group, all of them do.  A request reaches only the group it names, and
    --help, --version and every usage error print what the full parser
    prints."""
    parser = argparse.ArgumentParser(
        prog="vicbench",
        description="workbench for finite rings and the ordered morphism calculus",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--out", metavar="FILE", help="write the report here")
    sub = parser.add_subparsers(dest="group", required=True)
    named = _GROUPS.keys() & set(argv or ())
    for name, (help_text, add_verbs) in _GROUPS.items():
        group = sub.add_parser(name, help=help_text)
        if name in named or not named:
            add_verbs(group)
    return parser


def _emit(parser_args, report: dict) -> None:
    text = dump_payload(report)
    if parser_args.out:
        write_text(parser_args.out, text)
    else:
        sys.stdout.write(text)


def _run(args) -> tuple[dict, int]:
    """The report of one parsed request and its exit code."""
    verb = f"{args.group}.{getattr(args, 'verb', '')}".rstrip(".")
    start = time.perf_counter()
    try:
        outcome = args.fn(args)
    except UsageError:
        raise
    except WorkbenchError as exc:
        return {"verb": verb, "error": {"kind": exc.kind, "message": str(exc)}}, 1
    if len(outcome) == 3:
        inputs, result, timings = outcome
    else:
        inputs, result = outcome
        timings = {}
    timings["wall_time_s"] = round(time.perf_counter() - start, 6)
    report = {"verb": verb, "inputs": inputs, "result": result, "timing": timings}
    return report, 1 if args.group == "selftest" and not result["passed"] else 0


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        report, code = _run(args)
        _emit(args, report)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
