"""Hypercomplex triple products and their symmetry structure.

The product (u1 conj(u)) u2 of quaternions or octonions decomposes into
three mutually orthogonal parts: a triple anticommutator, a triple
commutator (the generalized cross product of three arguments) and an
associator that vanishes in associative dimensions.  This package
implements the arithmetic, the decomposition, the operator-level
symmetric/skew-symmetric components behind it, the Hadamard matrices
that organize the sign patterns, and a deterministic verification CLI.

`import octotriple` loads `core` alone; any other name loads its home module
on first use, through the module `__getattr__` on every look-up, so a hot
loop binds it once, with `from octotriple import name`.
"""

import sys
from importlib import import_module

from .core import (DEFAULT_TOLERANCE, DimensionError, Hyper, Tolerance, VALID_DIMS, conjugate,
                   embed, imaginary_part, inner, multiply, norm, norm_sq, scalar_part,
                   spacetime_interval, unit)

__version__ = "0.1.0"

# the other submodules and the names each exports
_LAZY = {
    "triple": (
        "GramMatrix", "TripleDecomposition", "anticommutative_component_norm_sq",
        "anticommutator3", "anticommutator3_alt", "anticommutator3_closed",
        "anticommutator3_norm_sq", "associator3", "associator3_alt", "associator3_norm_sq",
        "commutator3", "commutator3_alt", "commutator3_closed", "commutator3_norm_sq",
        "cross2", "decompose_triple", "gram", "gram_det_imaginary_identity", "gram_imaginary",
        "pair_product_expansion",
    ),
    "operators": (
        "ALL_SIGN_TRIPLES", "ALL_WORDS", "OpWord", "SignTriple", "TripleOperator",
        "adjoint_residual", "apply", "component2", "component3", "component3_eigen_residuals",
        "materialize",
    ),
    "hadamard": (
        "RowPermutation", "SignMatrix", "build", "classify_symmetry",
        "column_set_preserving_permutations", "doubling_order_permutations", "row_group_check",
    ),
    "bridge": (
        "bac_cab_residual", "dray_manogue_cross", "dray_manogue_residual", "okubo_bracket",
        "okubo_bracket_display_residual", "okubo_reconstruction_residual",
    ),
    "verify": ("RunConfig", "VerificationReport", "run_all"),
}
# exported name -> full name of its home module
_HOME = {name: f"{__name__}.{module}" for module, names in _LAZY.items() for name in names}

__all__ = [
    "DEFAULT_TOLERANCE", "DimensionError", "Hyper", "Tolerance", "VALID_DIMS", "conjugate",
    "embed", "imaginary_part", "inner", "multiply", "norm", "norm_sq", "scalar_part",
    "spacetime_interval", "unit", *_HOME,
]


def __getattr__(name: str):
    # Nothing is stored in the package's namespace: a binding there would
    # keep whatever the home module held at the first look-up, even after
    # the home module's binding is replaced and restored.
    home = _HOME.get(name)
    if home is not None:
        return getattr(sys.modules.get(home) or import_module(home), name)
    if name in _LAZY:   # a submodule not imported yet; importing binds it here
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY})
