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

from .core import Hyper, _coeffs, _conjugate, _imaginary_part, _inner, _multiply, _norm
# `multiply` stays bound in this module as it was before the array forms: the
# benchmark's call tracer (perfbench/tracer.py) wraps it in every module of the
# package that binds it.
from .core import multiply  # noqa: F401
from .triple import _associator3, _commutator3, _cross2, _decompose_triple

# Each check has an array form `_name` over coefficient arrays whose last
# axis is the basis index (see `core`), wrapped by the public function.


def _bac_cab_residual(a, b, c, flip_sign=False):
    av, bv, cv = _imaginary_part(a), _imaginary_part(b), _imaginary_part(c)
    lhs = (_cross2(av, _cross2(bv, cv)) - _inner(av, cv)[..., None] * bv
           + _inner(av, bv)[..., None] * cv)
    rhs = _associator3(av, bv, cv)
    return _norm(lhs + rhs if flip_sign else lhs - rhs)


def bac_cab_residual(a: Hyper, b: Hyper, c: Hyper, flip_sign: bool = False) -> float:
    """Residual of [A,[B,C]] - B (A,C) + C (A,B) = <A,B,C>.

    The relation is stated for imaginary vectors, so arguments are
    projected first.  `flip_sign` tests the variant with -<A,B,C>, kept
    for verifiers because the associator convention differs by a factor
    of -2 across sources.
    """
    return float(_bac_cab_residual(*_coeffs(a, b, c), flip_sign=flip_sign))


def _okubo_reconstruction_residual(u1, u, u2):
    lhs = _multiply(_multiply(u1, u), u2)
    anti, comm, assoc, _ = _decompose_triple(u1, u, u2)
    rhs = 2 * u[..., :1] * _multiply(u1, u2) - anti - comm - assoc
    return _norm(lhs - rhs)


def okubo_reconstruction_residual(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """Residual of (u1 u) u2 = 2 (u,i0) u1 u2 - {u1,u,u2} - [u1,u,u2] - <u1,u,u2>."""
    return float(_okubo_reconstruction_residual(*_coeffs(u1, u, u2)))


def _okubo_bracket(u1, u, u2):
    c_u1_u = _cross2(u1, u)
    out = (-_associator3(u1, u, u2) + u1[..., :1] * _cross2(u, u2)
           + u[..., :1] * _cross2(u2, u1) + u2[..., :1] * c_u1_u)
    out[..., 0] -= _inner(u2, c_u1_u)
    return out


def okubo_bracket(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Okubo's anticommutative bracket, rewritten in this library's terms:

    -<u1,u,u2> + (u1,i0)[u,u2] + (u,i0)[u2,u1] + (u2,i0)[u1,u] - (u2,[u1,u]) i0
    """
    return Hyper._wrap(u1.dim, _okubo_bracket(*_coeffs(u1, u, u2)))


def _okubo_bracket_display_residual(u1, u, u2):
    lhs = _multiply(_multiply(u1, u), u2)
    rhs = _okubo_bracket(u1, u, u2) + 2 * u[..., :1] * _multiply(u1, u2)
    rhs = (rhs - _inner(u, u2)[..., None] * u1 - _inner(u1, u)[..., None] * u2
           + _inner(u1, u2)[..., None] * u)
    return _norm(lhs - rhs)


def okubo_bracket_display_residual(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """Residual of Okubo's published expansion of (u1 u) u2 around his bracket:

    (u1 u) u2 = bracket + 2 (u,i0) u1 u2 - (u,u2) u1 - (u1,u) u2 + (u1,u2) u
    """
    return float(_okubo_bracket_display_residual(*_coeffs(u1, u, u2)))


def _dray_manogue_cross(u1, u, u2):
    ub = _conjugate(u)
    return (_multiply(u1, _multiply(ub, u2)) - _multiply(u2, _multiply(ub, u1))) / 2


def dray_manogue_cross(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """The antisymmetric product (u1 (conj(u) u2) - u2 (conj(u) u1)) / 2.

    Equals [u1,u,u2] - <u1,u,u2>, so it merges the commutator and the
    associator into a single difference.
    """
    return Hyper._wrap(u1.dim, _dray_manogue_cross(*_coeffs(u1, u, u2)))


def _dray_manogue_residual(u1, u, u2):
    rhs = _commutator3(u1, u, u2) - _associator3(u1, u, u2)
    return _norm(_dray_manogue_cross(u1, u, u2) - rhs)


def dray_manogue_residual(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """Residual of dray_manogue_cross = commutator3 - associator3."""
    return float(_dray_manogue_residual(*_coeffs(u1, u, u2)))
