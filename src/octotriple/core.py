"""Arithmetic in the four normed division algebras (dim 1, 2, 4, 8).

A value is a real coefficient vector over the doubling basis i0..i{dim-1},
where i0 is the multiplicative unit.  Multiplication is pinned to the
Cayley-Dickson rule

    (a, b)(c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

applied recursively from the reals.  Under this convention the quaternion
block satisfies i1*i2 == i3, i2*i1 == -i3.  Since i_i * i_j = +-i_{i xor j},
every product is one XOR-indexed kernel, (a*b)[k] = sum_i s[i, k] a[i] b[i xor k],
with the index and sign tables built once per dimension.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

VALID_DIMS = (1, 2, 4, 8)


class DimensionError(ValueError):
    """Invalid algebra dimension, or operands of different dimensions."""


def _check_dim(dim: int) -> None:
    if dim not in VALID_DIMS:
        raise DimensionError(f"dimension must be one of {VALID_DIMS}, got {dim!r}")


def _check_same_dim(a: "Hyper", b: "Hyper") -> None:
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} != {b.dim}")


@dataclass(frozen=True)
class Tolerance:
    """Scaled comparison tolerance: values match when |x - y| <= abs + rel*scale."""

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel) and self.rel > 0):
            raise ValueError(f"rel tolerance must be positive and finite, got {self.rel!r}")
        if not (math.isfinite(self.abs) and self.abs >= 0):
            raise ValueError(f"abs tolerance must be non-negative and finite, got {self.abs!r}")

    def bound(self, scale: float = 1.0) -> float:
        return self.abs + self.rel * scale

    def close(self, x: float, y: float, scale: float = 1.0) -> bool:
        return abs(x - y) <= self.bound(scale)


DEFAULT_TOLERANCE = Tolerance()


def _json_float(x: float) -> float | None:
    """x as a strict-JSON number: inf and NaN have no JSON form and become None."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True, eq=False)
class Hyper:
    """A hypercomplex number: dimension plus one real coefficient per basis element.

    Instances are immutable; the coefficient array is read-only.  Arithmetic
    never mutates and never promotes across dimensions (see :func:`embed`).
    """

    dim: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        arr = np.array(self.coeffs, dtype=np.float64)
        if arr.shape != (self.dim,):
            raise ValueError(
                f"coeffs must be a flat vector of {self.dim} entries, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coeffs must be finite (no NaN or infinity)")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _wrap(cls, dim: int, arr: np.ndarray) -> "Hyper":
        # Fast path for freshly computed float64 arrays; skips validation.
        obj = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(obj, "dim", dim)
        object.__setattr__(obj, "coeffs", arr)
        return obj

    @classmethod
    def zero(cls, dim: int) -> "Hyper":
        _check_dim(dim)
        return cls._wrap(dim, np.zeros(dim))

    @classmethod
    def basis(cls, dim: int, index: int) -> "Hyper":
        """Basis element i_index of the given dimension."""
        _check_dim(dim)
        if not 0 <= index < dim:
            raise ValueError(f"basis index must be in [0, {dim}), got {index}")
        arr = np.zeros(dim)
        arr[index] = 1.0
        return cls._wrap(dim, arr)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Hyper") -> "Hyper":
        _check_same_dim(self, other)
        return Hyper._wrap(self.dim, self.coeffs + other.coeffs)

    def __sub__(self, other: "Hyper") -> "Hyper":
        _check_same_dim(self, other)
        return Hyper._wrap(self.dim, self.coeffs - other.coeffs)

    def __neg__(self) -> "Hyper":
        return Hyper._wrap(self.dim, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Hyper):
            return multiply(self, other)
        if isinstance(other, (int, float)):
            return Hyper._wrap(self.dim, self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Hyper._wrap(self.dim, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Hyper._wrap(self.dim, self.coeffs / float(other))
        return NotImplemented

    def isclose(self, other: "Hyper", tol: Tolerance = DEFAULT_TOLERANCE,
                scale: float | None = None) -> bool:
        """Componentwise closeness; scale defaults to the larger operand norm."""
        _check_same_dim(self, other)
        if scale is None:
            scale = max(norm(self), norm(other))
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol.bound(scale)))

    def __repr__(self) -> str:
        return f"Hyper(dim={self.dim}, coeffs={self.coeffs.tolist()})"

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {"dim": self.dim, "coeffs": [float(x) for x in self.coeffs]}

    @classmethod
    def from_dict(cls, obj: object) -> "Hyper":
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        try:
            dim = obj["dim"]
        except KeyError:
            raise ValueError("missing field 'dim'") from None
        try:
            coeffs = obj["coeffs"]
        except KeyError:
            raise ValueError("missing field 'coeffs'") from None
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f"field 'dim' must be an integer, got {dim!r}")
        _check_dim(dim)
        if not isinstance(coeffs, list):
            raise ValueError("field 'coeffs' must be an array of numbers")
        if len(coeffs) != dim:
            raise ValueError(f"field 'coeffs' must have {dim} entries, got {len(coeffs)}")
        for k, x in enumerate(coeffs):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValueError(f"field 'coeffs[{k}]' must be a number, got {x!r}")
            if not math.isfinite(x):
                raise ValueError(f"field 'coeffs[{k}]' must be finite, got {x!r}")
        return cls(dim, np.asarray(coeffs, dtype=np.float64))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Hyper":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
        return cls.from_dict(obj)


# -- multiplication table --------------------------------------------------


def _basis_sign(dim: int, i: int, j: int) -> int:
    """Sign s in i_i * i_j = s * i_{i xor j}, by the pinned doubling rule."""
    if dim == 1:
        return 1
    h = dim // 2
    if i < h and j < h:
        return _basis_sign(h, i, j)
    if i < h:
        # (x, 0)(0, y) = (0, y*x)
        return _basis_sign(h, j - h, i)
    if j < h:
        # (0, x)(y, 0) = (0, x*conj(y))
        s = _basis_sign(h, i - h, j)
        return s if j == 0 else -s
    # (0, x)(0, y) = (-conj(y)*x, 0)
    s = _basis_sign(h, j - h, i - h)
    return -s if j - h == 0 else s


@lru_cache(maxsize=None)
def _product_tables(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Index table i ^ k and sign table s[i, k] of i_i * i_{i^k} = s[i, k] * i_k."""
    idx = np.arange(dim)
    xor = idx[:, None] ^ idx[None, :]
    sign = np.array([[_basis_sign(dim, i, j) for j in row] for i, row in enumerate(xor)],
                    dtype=np.float64)
    xor.flags.writeable = sign.flags.writeable = False
    return xor, sign


# -- operations --------------------------------------------------------------


def unit(dim: int) -> Hyper:
    """The multiplicative unit i0 of the given dimension."""
    return Hyper.basis(dim, 0)


def multiply(a: Hyper, b: Hyper) -> Hyper:
    """Bilinear product under the pinned doubling rule: one gather of b by the
    XOR table, one product with the sign table, one vector-matrix product."""
    _check_same_dim(a, b)
    xor, sign = _product_tables(a.dim)
    return Hyper._wrap(a.dim, a.coeffs @ (sign * b.coeffs[xor]))


def conjugate(u: Hyper) -> Hyper:
    """Negate the imaginary coefficients, keep the real one."""
    out = -u.coeffs.copy()
    out[0] = u.coeffs[0]
    return Hyper._wrap(u.dim, out)


def inner(u1: Hyper, u2: Hyper) -> float:
    """Euclidean inner product of the coefficient vectors."""
    _check_same_dim(u1, u2)
    return float(np.dot(u1.coeffs, u2.coeffs))


def norm_sq(u: Hyper) -> float:
    """Squared length (u, u)."""
    return float(np.dot(u.coeffs, u.coeffs))


def norm(u: Hyper) -> float:
    return math.sqrt(norm_sq(u))


def scalar_part(u: Hyper) -> float:
    """Coefficient of i0, i.e. (u, i0)."""
    return float(u.coeffs[0])


def imaginary_part(u: Hyper) -> Hyper:
    """u with its real component annulled: u - (u, i0) i0."""
    out = u.coeffs.copy()
    out[0] = 0.0
    return Hyper._wrap(u.dim, out)


def spacetime_interval(u: Hyper) -> float:
    """The bilinear quantity (u, conj(u)) = 2 (u, i0)^2 - (u, u)."""
    c0 = float(u.coeffs[0])
    return 2.0 * c0 * c0 - norm_sq(u)


def embed(u: Hyper, dim: int) -> Hyper:
    """Zero-pad u into a wider algebra.  Widening is explicit, never implicit."""
    _check_dim(dim)
    if dim < u.dim:
        raise DimensionError(f"cannot embed dim {u.dim} into smaller dim {dim}")
    if dim == u.dim:
        return u
    out = np.zeros(dim)
    out[: u.dim] = u.coeffs
    return Hyper._wrap(dim, out)
