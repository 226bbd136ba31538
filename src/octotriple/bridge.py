"""Cross-checks against other published triple-product conventions.

Three independently published decompositions are re-expressed with this
library's primitives and verified numerically:

  * the BAC-CAB relation with an associator correction, stated for
    imaginary arguments;
  * Okubo's extraction of the anticommutative bracket from the
    unconjugated product (u1 u) u2;
  * the Dray-Manogue antisymmetric triple cross product, the
    half-difference of the two right-bracketed variants.

Each check is an array form `_name_difference` that vanishes where the convention holds;
its public `name_residual` is the norm of the difference lifted by `_residual`, and every
other public function is its array form lifted by `core._lift`.  The displays are
transcribed exactly as published; nothing is "corrected".  BAC-CAB has no sign switch: it
is checked as printed, and an associator of the opposite sign fails it.
"""

from __future__ import annotations

from .core import Hyper, _conjugate, _imaginary_part, _inner, _lift, _multiply, _norm
# `multiply` stays bound in this module as it was before the array forms: the
# benchmark's call tracer (perfbench/tracer.py) wraps it in every module of the
# package that binds it.
from .core import multiply  # noqa: F401
from .triple import _associator3, _commutator3, _cross2, _decompose_triple


def _bac_cab_difference(a, b, c):
    """Difference of [A,[B,C]] - B (A,C) + C (A,B) = <A,B,C>.

    The relation is stated for imaginary vectors, so arguments are
    projected first.
    """
    av, bv, cv = _imaginary_part(a), _imaginary_part(b), _imaginary_part(c)
    lhs = (_cross2(av, _cross2(bv, cv)) - _inner(av, cv)[..., None] * bv
           + _inner(av, bv)[..., None] * cv)
    return lhs - _associator3(av, bv, cv)


def _okubo_reconstruction_difference(u1, u, u2):
    """Difference of (u1 u) u2 = 2 (u,i0) u1 u2 - {u1,u,u2} - [u1,u,u2] - <u1,u,u2>."""
    lhs = _multiply(_multiply(u1, u), u2)
    anti, comm, assoc, _ = _decompose_triple(u1, u, u2)
    rhs = 2 * u[..., :1] * _multiply(u1, u2) - anti - comm - assoc
    return lhs - rhs


def _okubo_bracket(u1, u, u2):
    """Okubo's anticommutative bracket, rewritten in this library's terms:

    -<u1,u,u2> + (u1,i0)[u,u2] + (u,i0)[u2,u1] + (u2,i0)[u1,u] - (u2,[u1,u]) i0
    """
    c_u1_u = _cross2(u1, u)
    out = (-_associator3(u1, u, u2) + u1[..., :1] * _cross2(u, u2)
           + u[..., :1] * _cross2(u2, u1) + u2[..., :1] * c_u1_u)
    out[..., 0] -= _inner(u2, c_u1_u)
    return out


def _okubo_bracket_display_difference(u1, u, u2):
    """Difference of Okubo's published expansion of (u1 u) u2 around his bracket:

    (u1 u) u2 = bracket + 2 (u,i0) u1 u2 - (u,u2) u1 - (u1,u) u2 + (u1,u2) u
    """
    lhs = _multiply(_multiply(u1, u), u2)
    rhs = _okubo_bracket(u1, u, u2) + 2 * u[..., :1] * _multiply(u1, u2)
    rhs = (rhs - _inner(u, u2)[..., None] * u1 - _inner(u1, u)[..., None] * u2
           + _inner(u1, u2)[..., None] * u)
    return lhs - rhs


def _dray_manogue_cross(u1, u, u2):
    """The antisymmetric product (u1 (conj(u) u2) - u2 (conj(u) u1)) / 2.

    Equals [u1,u,u2] - <u1,u,u2>, so it merges the commutator and the
    associator into a single difference.
    """
    ub = _conjugate(u)
    return (_multiply(u1, _multiply(ub, u2)) - _multiply(u2, _multiply(ub, u1))) / 2


def _dray_manogue_difference(u1, u, u2):
    """Difference of dray_manogue_cross = commutator3 - associator3."""
    rhs = _commutator3(u1, u, u2) - _associator3(u1, u, u2)
    return _dray_manogue_cross(u1, u, u2) - rhs


def _residual(difference):
    """The public `name_residual`: the norm of `_name_difference` lifted by `core._lift`."""
    lifted = _lift(difference)

    def residual(*args: Hyper) -> float:
        return float(_norm(lifted(*args).coeffs))

    residual.__name__ = residual.__qualname__ = lifted.__name__.replace("difference", "residual")
    residual.__doc__ = difference.__doc__.replace("Difference", "Norm of the difference", 1)
    return residual


bac_cab_residual = _residual(_bac_cab_difference)
okubo_reconstruction_residual = _residual(_okubo_reconstruction_difference)
okubo_bracket = _lift(_okubo_bracket)
okubo_bracket_display_residual = _residual(_okubo_bracket_display_difference)
dray_manogue_cross = _lift(_dray_manogue_cross)
dray_manogue_residual = _residual(_dray_manogue_difference)
