"""Tverberg-style partitions of colored sequences in finite matroids.

Everything revolves around one oracle question, "is x in the closure of Y?",
asked of exact matroid implementations (GF(p) and rational vectors, affine
point sets, uniform, graphic, direct sums).  The solvers split a colored
sequence of non-loops into r pairwise disjoint rainbow subsequences whose
closures form a chain strictly above cl(empty); the bruteforce module
re-derives the same answers by exhaustive search at desk scale.
"""

from .bruteforce import brute_force_solve
from .errors import (
    BudgetExceeded,
    InfeasibleRequest,
    InternalInvariantBroken,
    LoopInInput,
    MatroidTverbergError,
    ParseError,
    PreconditionViolated,
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
    ranked_counts,
)
from .solver import (
    Partition,
    SolveStats,
    VerificationReport,
    build_partition,
    general_precondition,
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
    "ParseError",
    "Partition",
    "PreconditionViolated",
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
    "emit_instance",
    "emit_partition",
    "gen_random_instance",
    "general_precondition",
    "parse_instance",
    "parse_partition",
    "ranked_counts",
    "solve_general",
    "solve_noncolor",
    "solve_special",
    "special_precondition",
    "verify_partition",
]
