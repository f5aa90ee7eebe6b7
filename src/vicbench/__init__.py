"""Workbench for finite noncommutative rings and the ordered morphism calculus.

Core layers: table rings and exact matrix arithmetic (:mod:`vicbench.rings`),
the Artin-Wedderburn embedding (:mod:`vicbench.wedderburn`), the
column-adapted morphism calculus (:mod:`vicbench.ovic`), generator orderings
and word embeddings (:mod:`vicbench.ordering`), and a degree-truncated span
engine over representable modules (:mod:`vicbench.noether`).

Importing the package loads none of these layers: each public name below is
resolved on first use (PEP 562), importing only the submodule defining it.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining submodule
_EXPORTS = {
    **dict.fromkeys((
        "BUILTIN_NAMES", "FiniteRing", "IdealSet", "QuotientData", "RMatrix",
        "build_ring", "builtin_ring", "group_ring", "jacobson_radical",
        "matrix_invertible", "matrix_ring", "product_ring",
        "quotient_by_radical", "upper_triangular", "zmod",
    ), "rings"),
    **dict.fromkeys((
        "AWEmbedding", "build_aw_embedding", "lift_idempotent", "lift_system",
        "semisimple_decompose", "verify_embedding",
    ), "wedderburn"),
    **dict.fromkeys((
        "DistinguishedIndexer", "OvicMorphism", "VicMorphism",
        "canonical_splitting", "compose_vic", "factor_vic", "free_rows",
        "is_column_adapted", "reconstruct_from_free", "s_function",
    ), "ovic"),
    **dict.fromkeys((
        "InsertionMove", "Word", "build_phi", "insert_successor", "iota",
        "partial_leq", "total_compare", "word_leq",
    ), "ordering"),
    **dict.fromkeys((
        "ModuleElement", "PrimeField", "RationalField", "SubmoduleState",
        "act", "check_endo_generation", "enumerate_ovic", "enumerate_vic",
        "init_term", "initial_module_to_degree", "membership",
        "span_to_degree",
    ), "noether"),
}

# submodules reachable as package attributes without their own import
_SUBMODULES = frozenset({"errors", *_EXPORTS.values()})

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
