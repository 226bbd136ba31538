"""Triple products with a conjugated central argument.

The product (u1 * conj(u)) * u2 splits into three mutually orthogonal parts:

    anticommutator {u1, u, u2}   symmetric under swapping u1 and u2,
    commutator     [u1, u, u2]   the generalized cross product of three
                                 arguments, antisymmetric under the swap
                                 and under order inversion,
    associator     <u1, u, u2>   the bracketing-sensitive part, zero in
                                 associative algebras (dim <= 4).

The four bracket/order variants (u1 ub) u2, (u2 ub) u1, u2 (ub u1) and
u1 (ub u2), ub = conj(u), are the two-op word values of the operator in
`operators`; their Sylvester transform, scaled by 1/4, holds anti, assoc,
0 and comm in rows 0..3.  Each part is also its row of the order-4
Sylvester matrix on one pair of these columns, halved; the complementary
pair (the `_alt` form) agrees, which is itself a verified identity.
Closed forms express the anticommutator as a linear combination of the
arguments and the commutator via pair cross products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import (
    Hyper,
    _coeffs,
    _conjugate,
    _inner,
    _multiply,
    _norm,
    _norm_sq,
)
# `multiply` stays bound in this module as it was before the array forms: the
# benchmark's call tracer (perfbench/tracer.py) wraps it in every module of the
# package that binds it.
from .core import multiply  # noqa: F401
from .hadamard import build
from .operators import TWO_OP_WORDS, _components, _word_values

# Each function below has an array form `_name` over coefficient arrays whose
# last axis is the basis index (see `core`); the public function checks that
# its Hyper arguments share a dimension and wraps the array form.


def _cross2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (_multiply(x, y) - _multiply(y, x)) / 2


def cross2(u1: Hyper, u2: Hyper) -> Hyper:
    """Pair cross product: half the commutator (u1 u2 - u2 u1) / 2."""
    return Hyper._wrap(u1.dim, _cross2(*_coeffs(u1, u2)))


def _pair_product_expansion(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x[..., :1] * y + y[..., :1] * x
    out[..., 0] -= _inner(x, y)
    return out + _cross2(x, y)


def pair_product_expansion(u1: Hyper, u2: Hyper) -> Hyper:
    """u1 u2 rebuilt from scalar parts, the inner product and cross2.

    Returns (u1,i0) u2 + (u2,i0) u1 - (u1,u2) i0 + [u1,u2]; always equal to
    multiply(u1, u2).
    """
    return Hyper._wrap(u1.dim, _pair_product_expansion(*_coeffs(u1, u2)))


# -- the three parts ---------------------------------------------------------

_H4 = build(4).entries


def _half_sum(u1: np.ndarray, u: np.ndarray, u2: np.ndarray,
              row: int, cols: tuple[int, int]) -> np.ndarray:
    """Row `row` of the order-4 Sylvester matrix on two word columns, halved;
    evaluates only the two word values it selects."""
    a, b = _word_values(u1, u2, u, [TWO_OP_WORDS[c] for c in cols])
    return (_H4[row, cols[0]] * a + _H4[row, cols[1]] * b) / 2


def _anticommutator3(u1, u, u2):
    return _half_sum(u1, u, u2, 0, (0, 1))


def anticommutator3(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """{u1, u, u2} = ((u1 ub) u2 + (u2 ub) u1) / 2, ub = conj(u)."""
    return Hyper._wrap(u1.dim, _anticommutator3(*_coeffs(u1, u, u2)))


def _anticommutator3_alt(u1, u, u2):
    return _half_sum(u1, u, u2, 0, (2, 3))


def anticommutator3_alt(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Second half-sum form: (u1 (ub u2) + u2 (ub u1)) / 2."""
    return Hyper._wrap(u1.dim, _anticommutator3_alt(*_coeffs(u1, u, u2)))


def _anticommutator3_closed(u1, u, u2):
    return (_inner(u1, u)[..., None] * u2 - _inner(u1, u2)[..., None] * u
            + _inner(u, u2)[..., None] * u1)


def anticommutator3_closed(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Closed form: (u1,u) u2 - (u1,u2) u + (u,u2) u1."""
    return Hyper._wrap(u1.dim, _anticommutator3_closed(*_coeffs(u1, u, u2)))


def _associator3(u1, u, u2):
    return _half_sum(u1, u, u2, 1, (0, 3))


def associator3(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """<u1, u, u2> = ((u1 ub) u2 - u1 (ub u2)) / 2; zero for dim <= 4."""
    return Hyper._wrap(u1.dim, _associator3(*_coeffs(u1, u, u2)))


def _associator3_alt(u1, u, u2):
    return _half_sum(u1, u, u2, 1, (1, 2))


def associator3_alt(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Second half-sum form: (u2 (ub u1) - (u2 ub) u1) / 2."""
    return Hyper._wrap(u1.dim, _associator3_alt(*_coeffs(u1, u, u2)))


def _commutator3(u1, u, u2):
    return _half_sum(u1, u, u2, 3, (0, 2))


def commutator3(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """[u1, u, u2] = ((u1 ub) u2 - u2 (ub u1)) / 2, the triple cross product."""
    return Hyper._wrap(u1.dim, _commutator3(*_coeffs(u1, u, u2)))


def _commutator3_alt(u1, u, u2):
    return _half_sum(u1, u, u2, 3, (1, 3))


def commutator3_alt(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Second half-difference form: (u1 (ub u2) - (u2 ub) u1) / 2."""
    return Hyper._wrap(u1.dim, _commutator3_alt(*_coeffs(u1, u, u2)))


def _commutator3_closed(u1, u, u2):
    c_u1_u = _cross2(u1, u)
    out = (u[..., :1] * _cross2(u1, u2) - u1[..., :1] * _cross2(u, u2)
           - u2[..., :1] * c_u1_u)
    out[..., 0] += _inner(c_u1_u, u2)
    return out


def commutator3_closed(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Closed form via pair cross products and the unit:

    ([u1,u], u2) i0 - (u1,i0)[u,u2] + (u,i0)[u1,u2] - (u2,i0)[u1,u]
    """
    return Hyper._wrap(u1.dim, _commutator3_closed(*_coeffs(u1, u, u2)))


# -- decomposition -----------------------------------------------------------


@dataclass(frozen=True)
class TripleDecomposition:
    """Orthogonal parts of (u1 conj(u)) u2, plus the reconstruction residual."""

    anti: Hyper
    comm: Hyper
    assoc: Hyper
    residual: float

    def to_dict(self) -> dict:
        return {
            "anti": self.anti.to_dict(),
            "comm": self.comm.to_dict(),
            "assoc": self.assoc.to_dict(),
            "residual": self.residual,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def _decompose_triple(u1, u, u2):
    """(anti, comm, assoc, residual): rows 0, 3, 1 of the transform of the
    four two-op word values, and the norm of what they leave of (u1 ub) u2."""
    values = _word_values(u1, u2, u, TWO_OP_WORDS)
    anti, assoc, _, comm = _components(values)
    return anti, comm, assoc, _norm(values[0] - (anti + comm + assoc))


def decompose_triple(u1: Hyper, u: Hyper, u2: Hyper) -> TripleDecomposition:
    """Split (u1 conj(u)) u2 into anticommutator + commutator + associator."""
    anti, comm, assoc, residual = _decompose_triple(*_coeffs(u1, u, u2))
    return TripleDecomposition(anti=Hyper._wrap(u1.dim, anti), comm=Hyper._wrap(u1.dim, comm),
                               assoc=Hyper._wrap(u1.dim, assoc), residual=float(residual))


# -- Gram matrices and length formulas --------------------------------------


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinants of m[..., 3, 3] by cofactor expansion along the first row."""
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


def det3(entries: np.ndarray) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion along the first row."""
    return float(_det3(np.asarray(entries, dtype=np.float64)))


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """3x3 matrix of pairwise inner products of a triple of arguments."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.float64)
        if arr.shape != (3, 3):
            raise ValueError(f"Gram matrix must be 3x3, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def det(self) -> float:
        return det3(self.entries)


def _gram(u1, u, u2):
    """(..., 3, 3) matrices of (a, b) over a, b in (u1, u, u2)."""
    x = np.stack((u1, u, u2), axis=-2)
    return x @ np.swapaxes(x, -1, -2)


def _gram_imaginary(u1, u, u2):
    # the imaginary parts' coefficients are the vectors without index 0
    return _gram(u1[..., 1:], u[..., 1:], u2[..., 1:])


def gram(u1: Hyper, u: Hyper, u2: Hyper) -> GramMatrix:
    """Gram matrix of the arguments in the order (u1, u, u2)."""
    return GramMatrix(_gram(*_coeffs(u1, u, u2)))


def gram_imaginary(u1: Hyper, u: Hyper, u2: Hyper) -> GramMatrix:
    """Gram matrix of the imaginary parts of the arguments."""
    return GramMatrix(_gram_imaginary(*_coeffs(u1, u, u2)))


def _anticommutator3_norm_sq(u1, u, u2):
    return _norm_sq(u1) * _norm_sq(u) * _norm_sq(u2) - _det3(_gram(u1, u, u2))


def anticommutator3_norm_sq(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """|{u1,u,u2}|^2 = |u1|^2 |u|^2 |u2|^2 - det(Gram)."""
    return float(_anticommutator3_norm_sq(*_coeffs(u1, u, u2)))


def _commutator3_norm_sq(u1, u, u2):
    s = _inner(_cross2(u1, u), u2)
    return s * s + _det3(_gram(u1, u, u2)) - _det3(_gram_imaginary(u1, u, u2))


def commutator3_norm_sq(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """|[u1,u,u2]|^2 = ([u1,u],u2)^2 + det(Gram) - det(Gram of imaginary parts)."""
    return float(_commutator3_norm_sq(*_coeffs(u1, u, u2)))


def _associator3_norm_sq(u1, u, u2):
    s = _inner(_cross2(u1, u), u2)
    return _det3(_gram_imaginary(u1, u, u2)) - s * s


def associator3_norm_sq(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """|<u1,u,u2>|^2 = det(Gram of imaginary parts) - ([u1,u],u2)^2."""
    return float(_associator3_norm_sq(*_coeffs(u1, u, u2)))


def _anticommutative_component_norm_sq(u1, u, u2):
    return _det3(_gram(u1, u, u2))


def anticommutative_component_norm_sq(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """|[u1,u,u2] + <u1,u,u2>|^2 = det(Gram of the arguments)."""
    return float(_anticommutative_component_norm_sq(*_coeffs(u1, u, u2)))


def _gram_det_imaginary_identity(u1, u, u2):
    x = np.stack((u1, u, u2), axis=-2)
    conjugated = x @ np.swapaxes(_conjugate(x), -1, -2)
    lhs = _det3(_gram_imaginary(u1, u, u2))
    return lhs, (_det3(_gram(u1, u, u2)) - _det3(conjugated)) / 2


def gram_det_imaginary_identity(u1: Hyper, u: Hyper, u2: Hyper) -> tuple[float, float]:
    """Both sides of det(Gram') = (det(Gram) - det(conjugated Gram)) / 2.

    The conjugated Gram matrix has entries (u_j, conj(u_k)).  Returns
    (lhs, rhs) so a verifier can compare them.
    """
    lhs, rhs = _gram_det_imaginary_identity(*_coeffs(u1, u, u2))
    return float(lhs), float(rhs)
