"""Workbench for finite noncommutative rings and the ordered morphism calculus.

Core layers: table rings and exact matrix arithmetic (:mod:`vicbench.rings`),
the Artin-Wedderburn embedding (:mod:`vicbench.wedderburn`), the
column-adapted morphism calculus (:mod:`vicbench.ovic`), generator orderings
and word embeddings (:mod:`vicbench.ordering`), and a degree-truncated span
engine over representable modules (:mod:`vicbench.noether`).
"""

__version__ = "0.1.0"

from .rings import (  # noqa: F401
    BUILTIN_NAMES,
    FiniteRing,
    IdealSet,
    QuotientData,
    RMatrix,
    build_ring,
    builtin_ring,
    group_ring,
    jacobson_radical,
    matrix_invertible,
    matrix_ring,
    product_ring,
    quotient_by_radical,
    upper_triangular,
    zmod,
)
from .wedderburn import (  # noqa: F401
    AWEmbedding,
    build_aw_embedding,
    lift_idempotent,
    lift_system,
    semisimple_decompose,
    verify_embedding,
)
from .ovic import (  # noqa: F401
    DistinguishedIndexer,
    OvicMorphism,
    VicMorphism,
    canonical_splitting,
    compose_vic,
    factor_vic,
    free_rows,
    is_column_adapted,
    reconstruct_from_free,
    s_function,
)
from .ordering import (  # noqa: F401
    InsertionMove,
    Word,
    build_phi,
    insert_successor,
    iota,
    partial_leq,
    total_compare,
    word_leq,
)
from .noether import (  # noqa: F401
    ModuleElement,
    PrimeField,
    RationalField,
    SubmoduleState,
    act,
    check_endo_generation,
    enumerate_ovic,
    enumerate_vic,
    init_term,
    initial_module_to_degree,
    membership,
    span_to_degree,
)
