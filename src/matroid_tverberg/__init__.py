"""Tverberg-style partitions of colored sequences in finite matroids.

Everything revolves around one oracle question, "is x in the closure of Y?",
asked of exact matroid implementations (GF(p) and rational vectors, affine
point sets, uniform, graphic, direct sums).  The solvers split a colored
sequence of non-loops into r pairwise disjoint rainbow subsequences whose
closures form a chain strictly above cl(empty); the bruteforce module
re-derives the same answers by exhaustive search at desk scale.
"""

from .bruteforce import (
    brute_force_solve,
    check_intersection_lemma,
    check_tightness,
    closure_intersection_agrees,
    rota_check,
    tight_instance,
)
from .errors import (
    BudgetExceeded,
    InfeasibleRequest,
    InternalInvariantBroken,
    LoopInInput,
    MatroidTverbergError,
    NotABasis,
    ParseError,
    PreconditionViolated,
    SeedInvalid,
    UnknownColor,
    UnknownElement,
)
from .instances import (
    InstanceFile,
    emit_instance,
    emit_partition,
    gen_random_instance,
    parse_instance,
    parse_partition,
)
from .matroids import (
    AffineMatroid,
    DirectSumMatroid,
    GraphicMatroid,
    MatroidOracle,
    UniformMatroid,
    VectorMatroidGFp,
    VectorMatroidRational,
    active_backend,
    add_coloops,
)
from .sequences import (
    Coloring,
    IndexedSequence,
    check_general_profile,
    check_special_profile,
    is_rainbow,
    ranked_counts,
)
from .solver import (
    Partition,
    SolveStats,
    VerificationReport,
    build_partition,
    general_precondition,
    max_rainbow_independent,
    solve_general,
    solve_noncolor,
    solve_special,
    special_precondition,
    verify_partition,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMatroid",
    "BudgetExceeded",
    "Coloring",
    "DirectSumMatroid",
    "GraphicMatroid",
    "IndexedSequence",
    "InfeasibleRequest",
    "InstanceFile",
    "InternalInvariantBroken",
    "LoopInInput",
    "MatroidOracle",
    "MatroidTverbergError",
    "NotABasis",
    "ParseError",
    "Partition",
    "PreconditionViolated",
    "SeedInvalid",
    "SolveStats",
    "UniformMatroid",
    "UnknownColor",
    "UnknownElement",
    "VectorMatroidGFp",
    "VectorMatroidRational",
    "VerificationReport",
    "active_backend",
    "add_coloops",
    "brute_force_solve",
    "build_partition",
    "check_general_profile",
    "check_intersection_lemma",
    "check_special_profile",
    "check_tightness",
    "closure_intersection_agrees",
    "emit_instance",
    "emit_partition",
    "gen_random_instance",
    "general_precondition",
    "is_rainbow",
    "max_rainbow_independent",
    "parse_instance",
    "parse_partition",
    "ranked_counts",
    "rota_check",
    "solve_general",
    "solve_noncolor",
    "solve_special",
    "special_precondition",
    "tight_instance",
    "verify_partition",
]
