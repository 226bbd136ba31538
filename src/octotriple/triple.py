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
0 and comm in rows 0..3.  Each part is also one row of `_components` over
a pair of these word values, the half sum (row 0) or half difference
(row 1); the complementary pair (the `_alt` form) agrees, which is itself
a verified identity.
Closed forms express the anticommutator as a linear combination of the
arguments and the commutator via pair cross products.

The parts, `cross2`, `pair_product_expansion` and the closed-form lengths
are their array forms lifted by `core._lift`; `decompose_triple`, the Gram
functions and `det3` return types of their own and are written out.

The three closed-form lengths, the anticommutative component's length and
the imaginary Gram identity all come from one set of terms of the triple:
|u1|^2 |u|^2 |u2|^2, the Gram determinants of the arguments and of their
imaginary parts, and ([u1,u],u2), each combined in the order of its
formula, so sharing the terms changes no bit.  `_length_terms` keeps the
last triple's terms in one module-level entry and serves them only to a
call on the same three array objects, each read-only and owning its data:
the coefficients of every `Hyper` (`Hyper._wrap` copies a view, so a part
of `decompose_triple` owns its data too), and verify's drawn blocks.  A view
and a writable array are evaluated afresh on every call; an array made writable,
changed and made read-only again is outside the contract.  The entry holds
its three arrays, so no id is reused while it lives: up to 786 KB of
arguments, and 128 KB of terms, after a 4096-row block.
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
    _lift,
    _multiply,
    _norm,
    _norm_sq,
    _real_matrix,
)
# `multiply` stays bound in this module as it was before the array forms: the
# benchmark's call tracer (perfbench/tracer.py) wraps it in every module of the
# package that binds it.
from .core import multiply  # noqa: F401
from .operators import TWO_OP_WORDS, _components, _word_values


def _cross2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pair cross product: half the commutator (u1 u2 - u2 u1) / 2."""
    return (_multiply(x, y) - _multiply(y, x)) / 2


def _pair_product_expansion(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """u1 u2 rebuilt from scalar parts, the inner product and cross2.

    Returns (u1,i0) u2 + (u2,i0) u1 - (u1,u2) i0 + [u1,u2]; always equal to
    multiply(u1, u2).
    """
    out = x[..., :1] * y + y[..., :1] * x
    out[..., 0] -= _inner(x, y)
    return out + _cross2(x, y)


cross2 = _lift(_cross2)
pair_product_expansion = _lift(_pair_product_expansion)


# -- the three parts ---------------------------------------------------------

_E, _PLUS, _STAR, _PLUS_STAR = TWO_OP_WORDS


def _anticommutator3(u1, u, u2):
    """{u1, u, u2} = ((u1 ub) u2 + (u2 ub) u1) / 2, ub = conj(u)."""
    return _components(_word_values(u1, u2, u, (_E, _PLUS)))[0]


def _anticommutator3_alt(u1, u, u2):
    """Second half-sum form: (u2 (ub u1) + u1 (ub u2)) / 2."""
    return _components(_word_values(u1, u2, u, (_STAR, _PLUS_STAR)))[0]


def _anticommutator3_closed(u1, u, u2):
    """Closed form: (u1,u) u2 - (u1,u2) u + (u,u2) u1."""
    return (_inner(u1, u)[..., None] * u2 - _inner(u1, u2)[..., None] * u
            + _inner(u, u2)[..., None] * u1)


def _associator3(u1, u, u2):
    """<u1, u, u2> = ((u1 ub) u2 - u1 (ub u2)) / 2; zero for dim <= 4."""
    return _components(_word_values(u1, u2, u, (_E, _PLUS_STAR)))[1]


def _associator3_alt(u1, u, u2):
    """Second half-sum form: (u2 (ub u1) - (u2 ub) u1) / 2."""
    return _components(_word_values(u1, u2, u, (_STAR, _PLUS)))[1]


def _commutator3(u1, u, u2):
    """[u1, u, u2] = ((u1 ub) u2 - u2 (ub u1)) / 2, the triple cross product."""
    return _components(_word_values(u1, u2, u, (_E, _STAR)))[1]


def _commutator3_alt(u1, u, u2):
    """Second half-difference form: (u1 (ub u2) - (u2 ub) u1) / 2."""
    return _components(_word_values(u1, u2, u, (_PLUS_STAR, _PLUS)))[1]


def _commutator3_closed(u1, u, u2):
    """Closed form via pair cross products and the unit:

    ([u1,u], u2) i0 - (u1,i0)[u,u2] + (u,i0)[u1,u2] - (u2,i0)[u1,u]
    """
    c_u1_u = _cross2(u1, u)
    out = (u[..., :1] * _cross2(u1, u2) - u1[..., :1] * _cross2(u, u2)
           - u2[..., :1] * c_u1_u)
    out[..., 0] += _inner(c_u1_u, u2)
    return out


anticommutator3 = _lift(_anticommutator3)
anticommutator3_alt = _lift(_anticommutator3_alt)
anticommutator3_closed = _lift(_anticommutator3_closed)
associator3 = _lift(_associator3)
associator3_alt = _lift(_associator3_alt)
commutator3 = _lift(_commutator3)
commutator3_alt = _lift(_commutator3_alt)
commutator3_closed = _lift(_commutator3_closed)


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
    """(anti, comm, assoc, leftover): rows 0, 3, 1 of the transform of the
    four two-op word values, and what they leave of (u1 ub) u2."""
    values = _word_values(u1, u2, u, TWO_OP_WORDS)
    anti, assoc, _, comm = _components(values)
    return anti, comm, assoc, values[0] - (anti + comm + assoc)


def decompose_triple(u1: Hyper, u: Hyper, u2: Hyper) -> TripleDecomposition:
    """Split (u1 conj(u)) u2 into anticommutator + commutator + associator."""
    anti, comm, assoc, leftover = _decompose_triple(*_coeffs(u1, u, u2))
    return TripleDecomposition(anti=Hyper._wrap(u1.dim, anti), comm=Hyper._wrap(u1.dim, comm),
                               assoc=Hyper._wrap(u1.dim, assoc), residual=float(_norm(leftover)))


# -- Gram matrices and length formulas --------------------------------------


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinants of m[..., 3, 3] by cofactor expansion along the first row.

    The nine entries are unpacked once: one matrix gives Python scalars, whose
    arithmetic rounds as the 0-d arrays' would without a ufunc call per
    operation, and a block gives one (3, 3, ...) view."""
    rows = m.tolist() if m.ndim == 2 else np.moveaxis(m, (-2, -1), (0, 1))
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det3(entries: np.ndarray) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion along the first row."""
    return float(_det3(_real_matrix(entries, 3).astype(np.float64)))


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """3x3 matrix of pairwise inner products of a triple of arguments."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _real_matrix(self.entries, 3).astype(np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def det(self) -> float:
        return _det3(self.entries)   # entries are one read-only 3x3 float64 matrix


def _rows3(u1, u, u2):
    """(..., 3, dim): u1, u and u2 as the rows of one matrix, by one concatenate."""
    return np.concatenate((u1, u, u2), axis=-1).reshape(*u1.shape[:-1], 3, u1.shape[-1])


def _gram_rows(x):
    """(..., 3, 3) inner products of the rows of x; one matrix by `dot`, as in `core._multiply`."""
    return x.dot(x.T) if x.ndim == 2 else x @ x.swapaxes(-1, -2)


def _gram(u1, u, u2):
    """(..., 3, 3) matrices of (a, b) over a, b in (u1, u, u2)."""
    return _gram_rows(_rows3(u1, u, u2))


def _gram_imaginary(u1, u, u2):
    # the imaginary parts' coefficients are the rows without index 0
    return _gram_rows(_rows3(u1, u, u2)[..., 1:])


def gram(u1: Hyper, u: Hyper, u2: Hyper) -> GramMatrix:
    """Gram matrix of the arguments in the order (u1, u, u2)."""
    return GramMatrix(_gram(*_coeffs(u1, u, u2)))


def gram_imaginary(u1: Hyper, u: Hyper, u2: Hyper) -> GramMatrix:
    """Gram matrix of the imaginary parts of the arguments."""
    return GramMatrix(_gram_imaginary(*_coeffs(u1, u, u2)))


# The last triple whose length terms `_length_terms` computed: ((u1, u, u2), terms),
# replaced as one tuple, so a thread reads a whole entry or none.  It holds its three
# arrays, so no id is reused while it lives, and it serves only the same three objects,
# each read-only and owning its data, so no view can have written to them.
_LAST_TERMS = None


def _frozen(x: np.ndarray) -> bool:
    return not x.flags.writeable and x.base is None


def _length_terms(u1, u, u2):
    """(|u1|^2 |u|^2 |u2|^2, det Gram, det Gram of imaginary parts, ([u1,u],u2)).

    The three closed-form lengths are combinations of these four terms, and
    every caller asks for all three of one triple, so the last triple's terms
    are kept and served to a call on the same three frozen arrays."""
    global _LAST_TERMS
    last = _LAST_TERMS
    if (last is not None and last[0][0] is u1 and last[0][1] is u and last[0][2] is u2
            and _frozen(u1) and _frozen(u) and _frozen(u2)):
        return last[1]
    x = _rows3(u1, u, u2)
    terms = (_norm_sq(u1) * _norm_sq(u) * _norm_sq(u2), _det3(_gram_rows(x)),
             _det3(_gram_rows(x[..., 1:])), _inner(_cross2(u1, u), u2))
    if _frozen(u1) and _frozen(u) and _frozen(u2):
        if x.ndim > 2:   # a block's terms are arrays that every later caller shares
            for t in terms:
                t.setflags(write=False)
        _LAST_TERMS = (u1, u, u2), terms
    return terms


def _anticommutator3_norm_sq(u1, u, u2):
    """|{u1,u,u2}|^2 = |u1|^2 |u|^2 |u2|^2 - det(Gram)."""
    prod_sq, det, _, _ = _length_terms(u1, u, u2)
    return prod_sq - det


def _commutator3_norm_sq(u1, u, u2):
    """|[u1,u,u2]|^2 = ([u1,u],u2)^2 + det(Gram) - det(Gram of imaginary parts)."""
    _, det, det_imaginary, s = _length_terms(u1, u, u2)
    return s * s + det - det_imaginary


def _associator3_norm_sq(u1, u, u2):
    """|<u1,u,u2>|^2 = det(Gram of imaginary parts) - ([u1,u],u2)^2."""
    _, _, det_imaginary, s = _length_terms(u1, u, u2)
    return det_imaginary - s * s


def _anticommutative_component_norm_sq(u1, u, u2):
    """|[u1,u,u2] + <u1,u,u2>|^2 = det(Gram of the arguments)."""
    return _length_terms(u1, u, u2)[1]


anticommutator3_norm_sq = _lift(_anticommutator3_norm_sq)
commutator3_norm_sq = _lift(_commutator3_norm_sq)
associator3_norm_sq = _lift(_associator3_norm_sq)
anticommutative_component_norm_sq = _lift(_anticommutative_component_norm_sq)


def _gram_det_imaginary_identity(u1, u, u2):
    _, det, det_imaginary, _ = _length_terms(u1, u, u2)
    x = _rows3(u1, u, u2)
    return det_imaginary, (det - _det3(x @ _conjugate(x).swapaxes(-1, -2))) / 2


def gram_det_imaginary_identity(u1: Hyper, u: Hyper, u2: Hyper) -> tuple[float, float]:
    """Both sides of det(Gram') = (det(Gram) - det(conjugated Gram)) / 2.

    The conjugated Gram matrix has entries (u_j, conj(u_k)).  Returns
    (lhs, rhs) so a verifier can compare them.
    """
    lhs, rhs = _gram_det_imaginary_identity(*_coeffs(u1, u, u2))
    return float(lhs), float(rhs)
