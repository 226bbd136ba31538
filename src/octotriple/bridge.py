"""Cross-checks against other published triple-product conventions.

Three independently published decompositions are re-expressed with this
library's primitives and verified numerically:

  * the BAC-CAB relation with an associator correction, stated for
    imaginary arguments;
  * Okubo's extraction of the anticommutative bracket from the
    unconjugated product (u1 u) u2;
  * the Dray-Manogue antisymmetric triple cross product, the
    half-difference of the two right-bracketed variants.

Each check returns a residual norm so a verifier can run it over random
trials.  The displays are transcribed exactly as published; nothing is
"corrected", and the BAC-CAB check exposes a sign switch so a verifier
can report which variant actually holds.
"""

from __future__ import annotations

from .core import Hyper, conjugate, imaginary_part, inner, multiply, norm, scalar_part, unit
from .triple import associator3, commutator3, cross2, decompose_triple


def bac_cab_residual(a: Hyper, b: Hyper, c: Hyper, flip_sign: bool = False) -> float:
    """Residual of [A,[B,C]] - B (A,C) + C (A,B) = <A,B,C>.

    The relation is stated for imaginary vectors, so arguments are
    projected first.  `flip_sign` tests the variant with -<A,B,C>, kept
    for verifiers because the associator convention differs by a factor
    of -2 across sources.
    """
    av, bv, cv = imaginary_part(a), imaginary_part(b), imaginary_part(c)
    lhs = cross2(av, cross2(bv, cv)) - inner(av, cv) * bv + inner(av, bv) * cv
    rhs = associator3(av, bv, cv)
    if flip_sign:
        rhs = -rhs
    return norm(lhs - rhs)


def okubo_reconstruction_residual(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """Residual of (u1 u) u2 = 2 (u,i0) u1 u2 - {u1,u,u2} - [u1,u,u2] - <u1,u,u2>."""
    lhs = multiply(multiply(u1, u), u2)
    d = decompose_triple(u1, u, u2)
    rhs = 2 * scalar_part(u) * multiply(u1, u2) - d.anti - d.comm - d.assoc
    return norm(lhs - rhs)


def okubo_bracket(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Okubo's anticommutative bracket, rewritten in this library's terms:

    -<u1,u,u2> + (u1,i0)[u,u2] + (u,i0)[u2,u1] + (u2,i0)[u1,u] - (u2,[u1,u]) i0
    """
    out = -associator3(u1, u, u2)
    out = out + scalar_part(u1) * cross2(u, u2)
    out = out + scalar_part(u) * cross2(u2, u1)
    out = out + scalar_part(u2) * cross2(u1, u)
    return out - inner(u2, cross2(u1, u)) * unit(u1.dim)


def okubo_bracket_display_residual(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """Residual of Okubo's published expansion of (u1 u) u2 around his bracket:

    (u1 u) u2 = bracket + 2 (u,i0) u1 u2 - (u,u2) u1 - (u1,u) u2 + (u1,u2) u
    """
    lhs = multiply(multiply(u1, u), u2)
    rhs = okubo_bracket(u1, u, u2) + 2 * scalar_part(u) * multiply(u1, u2)
    rhs = rhs - inner(u, u2) * u1 - inner(u1, u) * u2 + inner(u1, u2) * u
    return norm(lhs - rhs)


def dray_manogue_cross(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """The antisymmetric product (u1 (conj(u) u2) - u2 (conj(u) u1)) / 2.

    Equals [u1,u,u2] - <u1,u,u2>, so it merges the commutator and the
    associator into a single difference.
    """
    ub = conjugate(u)
    return (multiply(u1, multiply(ub, u2)) - multiply(u2, multiply(ub, u1))) / 2


def dray_manogue_residual(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """Residual of dray_manogue_cross = commutator3 - associator3."""
    lhs = dray_manogue_cross(u1, u, u2)
    rhs = commutator3(u1, u, u2) - associator3(u1, u, u2)
    return norm(lhs - rhs)
