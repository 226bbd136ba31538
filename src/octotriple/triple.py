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
    conjugate,
    inner,
    multiply,
    norm_sq,
    imaginary_part,
    scalar_part,
    unit,
)
from .hadamard import build
from .operators import TWO_OP_WORDS, TripleOperator, _components, _word_values


def cross2(u1: Hyper, u2: Hyper) -> Hyper:
    """Pair cross product: half the commutator (u1 u2 - u2 u1) / 2."""
    return (multiply(u1, u2) - multiply(u2, u1)) / 2


def pair_product_expansion(u1: Hyper, u2: Hyper) -> Hyper:
    """u1 u2 rebuilt from scalar parts, the inner product and cross2.

    Returns (u1,i0) u2 + (u2,i0) u1 - (u1,u2) i0 + [u1,u2]; always equal to
    multiply(u1, u2).
    """
    out = scalar_part(u1) * u2 + scalar_part(u2) * u1
    out = out - inner(u1, u2) * unit(u1.dim)
    return out + cross2(u1, u2)


# -- the three parts ---------------------------------------------------------

_H4 = build(4).entries


def _half_sum(u1: Hyper, u: Hyper, u2: Hyper, row: int, cols: tuple[int, int]) -> Hyper:
    """Row `row` of the order-4 Sylvester matrix on two word columns, halved;
    evaluates only the two word values it selects."""
    values = _word_values(TripleOperator(u1, u2), u, [TWO_OP_WORDS[c] for c in cols])
    return Hyper._wrap(u1.dim, _H4[row, list(cols)] @ values / 2)


def anticommutator3(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """{u1, u, u2} = ((u1 ub) u2 + (u2 ub) u1) / 2, ub = conj(u)."""
    return _half_sum(u1, u, u2, 0, (0, 1))


def anticommutator3_alt(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Second half-sum form: (u1 (ub u2) + u2 (ub u1)) / 2."""
    return _half_sum(u1, u, u2, 0, (2, 3))


def anticommutator3_closed(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Closed form: (u1,u) u2 - (u1,u2) u + (u,u2) u1."""
    return inner(u1, u) * u2 - inner(u1, u2) * u + inner(u, u2) * u1


def associator3(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """<u1, u, u2> = ((u1 ub) u2 - u1 (ub u2)) / 2; zero for dim <= 4."""
    return _half_sum(u1, u, u2, 1, (0, 3))


def associator3_alt(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Second half-sum form: (u2 (ub u1) - (u2 ub) u1) / 2."""
    return _half_sum(u1, u, u2, 1, (1, 2))


def commutator3(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """[u1, u, u2] = ((u1 ub) u2 - u2 (ub u1)) / 2, the triple cross product."""
    return _half_sum(u1, u, u2, 3, (0, 2))


def commutator3_alt(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Second half-difference form: (u1 (ub u2) - (u2 ub) u1) / 2."""
    return _half_sum(u1, u, u2, 3, (1, 3))


def commutator3_closed(u1: Hyper, u: Hyper, u2: Hyper) -> Hyper:
    """Closed form via pair cross products and the unit:

    ([u1,u], u2) i0 - (u1,i0)[u,u2] + (u,i0)[u1,u2] - (u2,i0)[u1,u]
    """
    c_u1_u = cross2(u1, u)
    out = inner(c_u1_u, u2) * unit(u1.dim)
    out = out - scalar_part(u1) * cross2(u, u2)
    out = out + scalar_part(u) * cross2(u1, u2)
    return out - scalar_part(u2) * c_u1_u


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


def decompose_triple(u1: Hyper, u: Hyper, u2: Hyper) -> TripleDecomposition:
    """Split (u1 conj(u)) u2 into anticommutator + commutator + associator."""
    values = _word_values(TripleOperator(u1, u2), u, TWO_OP_WORDS)
    anti, assoc, _, comm = _components(values)
    residual = float(np.linalg.norm(values[0] - (anti + comm + assoc)))
    return TripleDecomposition(anti=Hyper._wrap(u1.dim, anti), comm=Hyper._wrap(u1.dim, comm),
                               assoc=Hyper._wrap(u1.dim, assoc), residual=residual)


# -- Gram matrices and length formulas --------------------------------------


def det3(entries: np.ndarray) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion along the first row."""
    m = np.asarray(entries, dtype=np.float64)
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


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


def gram(u1: Hyper, u: Hyper, u2: Hyper) -> GramMatrix:
    """Gram matrix of the arguments in the order (u1, u, u2)."""
    v = (u1, u, u2)
    return GramMatrix(np.array([[inner(a, b) for b in v] for a in v]))


def gram_imaginary(u1: Hyper, u: Hyper, u2: Hyper) -> GramMatrix:
    """Gram matrix of the imaginary parts of the arguments."""
    return gram(imaginary_part(u1), imaginary_part(u), imaginary_part(u2))


def anticommutator3_norm_sq(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """|{u1,u,u2}|^2 = |u1|^2 |u|^2 |u2|^2 - det(Gram)."""
    return norm_sq(u1) * norm_sq(u) * norm_sq(u2) - gram(u1, u, u2).det()


def commutator3_norm_sq(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """|[u1,u,u2]|^2 = ([u1,u],u2)^2 + det(Gram) - det(Gram of imaginary parts)."""
    s = inner(cross2(u1, u), u2)
    return s * s + gram(u1, u, u2).det() - gram_imaginary(u1, u, u2).det()


def associator3_norm_sq(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """|<u1,u,u2>|^2 = det(Gram of imaginary parts) - ([u1,u],u2)^2."""
    s = inner(cross2(u1, u), u2)
    return gram_imaginary(u1, u, u2).det() - s * s


def anticommutative_component_norm_sq(u1: Hyper, u: Hyper, u2: Hyper) -> float:
    """|[u1,u,u2] + <u1,u,u2>|^2 = det(Gram of the arguments)."""
    return gram(u1, u, u2).det()


def gram_det_imaginary_identity(u1: Hyper, u: Hyper, u2: Hyper) -> tuple[float, float]:
    """Both sides of det(Gram') = (det(Gram) - det(conjugated Gram)) / 2.

    The conjugated Gram matrix has entries (u_j, conj(u_k)).  Returns
    (lhs, rhs) so a verifier can compare them.
    """
    v = (u1, u, u2)
    lhs = gram_imaginary(u1, u, u2).det()
    conj_entries = np.array([[inner(a, conjugate(b)) for b in v] for a in v])
    rhs = (gram(u1, u, u2).det() - det3(conj_entries)) / 2
    return lhs, rhs
