"""Hypercomplex triple products and their symmetry structure.

The product (u1 conj(u)) u2 of quaternions or octonions decomposes into
three mutually orthogonal parts: a triple anticommutator, a triple
commutator (the generalized cross product of three arguments) and an
associator that vanishes in associative dimensions.  This package
implements the arithmetic, the decomposition, the operator-level
symmetric/skew-symmetric components behind it, the Hadamard matrices
that organize the sign patterns, and a deterministic verification CLI.
"""

from .core import (
    DEFAULT_TOLERANCE,
    DimensionError,
    Hyper,
    Tolerance,
    VALID_DIMS,
    conjugate,
    embed,
    imaginary_part,
    inner,
    multiply,
    norm,
    norm_sq,
    scalar_part,
    spacetime_interval,
    unit,
)
from .triple import (
    GramMatrix,
    TripleDecomposition,
    anticommutative_component_norm_sq,
    anticommutator3,
    anticommutator3_alt,
    anticommutator3_closed,
    anticommutator3_norm_sq,
    associator3,
    associator3_alt,
    associator3_norm_sq,
    commutator3,
    commutator3_alt,
    commutator3_closed,
    commutator3_norm_sq,
    cross2,
    decompose_triple,
    gram,
    gram_det_imaginary_identity,
    gram_imaginary,
    pair_product_expansion,
)
from .operators import (
    ALL_SIGN_TRIPLES,
    ALL_WORDS,
    OpWord,
    SignTriple,
    TripleOperator,
    adjoint_residual,
    apply,
    component2,
    component3,
    component3_eigen_residuals,
    materialize,
)
from .hadamard import (
    RowPermutation,
    SignMatrix,
    build,
    classify_symmetry,
    column_set_preserving_permutations,
    doubling_order_permutations,
    row_group_check,
)
from .bridge import (
    bac_cab_residual,
    dray_manogue_cross,
    dray_manogue_residual,
    okubo_bracket,
    okubo_bracket_display_residual,
    okubo_reconstruction_residual,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the suite engine loads on first use, so a process that only computes
    # neither compiles nor holds it
    if name in ("RunConfig", "VerificationReport", "run_all"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
