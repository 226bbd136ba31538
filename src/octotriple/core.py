"""Arithmetic in the four normed division algebras (dim 1, 2, 4, 8).

A value is a real coefficient vector over the doubling basis i0..i{dim-1},
where i0 is the multiplicative unit.  Multiplication is pinned to the
Cayley-Dickson rule

    (a, b)(c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

applied recursively from the reals.  Under this convention the quaternion
block satisfies i1*i2 == i3, i2*i1 == -i3.  Since i_i * i_j = +-i_{i xor j},
every product is one XOR-indexed kernel, (a*b)[k] = sum_i s[i, k] a[i] b[i xor k],
with the index and sign tables built once per dimension.

Each identity is computed once, by an array form `_name` over float64
coefficient arrays whose last axis is the basis index, so the same code
takes one vector or a whole (trials, dim) block.  The public Hyper function
`name` is that array form lifted by `_lift`, here and in `triple` and
`bridge`; only functions whose result has a type of its own are written
out by hand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, update_wrapper

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
        arr = np.array(self.coeffs)
        if arr.dtype.kind in "bcSU":  # float64 would count bools, drop imaginary parts, parse text
            raise ValueError(f"coeffs must be real numbers, got {arr.dtype} entries")
        try:
            arr = arr.astype(np.float64, copy=False)
        except OverflowError:
            raise ValueError("coeffs must be finite, got an integer beyond the "
                             "float range") from None
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
        if not isinstance(coeffs, list):
            raise ValueError("field 'coeffs' must be an array of numbers")
        for k, x in enumerate(coeffs):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValueError(f"field 'coeffs[{k}]' must be a number, got {x!r}")
            try:
                finite = math.isfinite(x)
            except OverflowError:
                raise ValueError(f"field 'coeffs[{k}]' must be finite, got an integer "
                                 "beyond the float range") from None
            if not finite:
                raise ValueError(f"field 'coeffs[{k}]' must be finite, got {x!r}")
        return cls(dim, coeffs)

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


# -- array forms and their lift ---------------------------------------------


def _multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bilinear product under the pinned doubling rule.

    Two vectors take one gather of b by the XOR table, one product with the
    sign table and one vector-matrix product; blocks take the same gather of
    b[..., xor] and one batched matmul."""
    xor, sign = _product_tables(a.shape[-1])
    if a.ndim == 1 and b.ndim == 1:
        return a @ (sign * b[xor])
    return np.matmul(a[..., None, :], sign * b[..., xor])[..., 0, :]


def _conjugate(x: np.ndarray) -> np.ndarray:
    """Negate the imaginary coefficients, keep the real one."""
    out = -x
    out[..., 0] = x[..., 0]
    return out


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean inner product of the coefficient vectors."""
    if x.ndim == 1 and y.ndim == 1:
        return np.dot(x, y)
    return np.einsum("...i,...i->...", x, y)


def _norm_sq(x: np.ndarray) -> np.ndarray:
    """Squared length (u, u)."""
    return _inner(x, x)


def _norm(x: np.ndarray) -> np.ndarray:
    """Length sqrt((u, u))."""
    return np.sqrt(_norm_sq(x))


def _imaginary_part(x: np.ndarray) -> np.ndarray:
    """u with its real component annulled: u - (u, i0) i0."""
    out = x.copy()
    out[..., 0] = 0.0
    return out


def _spacetime_interval(x: np.ndarray) -> np.ndarray:
    """The bilinear quantity (u, conj(u)) = 2 (u, i0)^2 - (u, u)."""
    return 2.0 * x[..., 0] * x[..., 0] - _norm_sq(x)


def _coeffs(*values: Hyper) -> list[np.ndarray]:
    """Coefficient vectors of Hyper values that must share one dimension."""
    for v in values[1:]:
        if v.dim != values[0].dim:   # compared inline: this runs on every public call
            _check_same_dim(values[0], v)
    return [v.coeffs for v in values]


def _lift(array_form):
    """The Hyper function `name` of the array form `_name`.

    It checks that its Hyper arguments share a dimension, calls the array
    form on their coefficient vectors (keyword arguments pass through), and
    returns a Hyper for a vector result and a float for a 0-d one.
    """
    def public(*args: Hyper, **kwargs):
        out = array_form(*_coeffs(*args), **kwargs)
        return float(out) if out.ndim == 0 else Hyper._wrap(args[0].dim, out)

    update_wrapper(public, array_form)
    public.__name__ = public.__qualname__ = array_form.__name__[1:]
    return public


# -- operations --------------------------------------------------------------


def unit(dim: int) -> Hyper:
    """The multiplicative unit i0 of the given dimension."""
    return Hyper.basis(dim, 0)


multiply = _lift(_multiply)
conjugate = _lift(_conjugate)
inner = _lift(_inner)
norm_sq = _lift(_norm_sq)
norm = _lift(_norm)
imaginary_part = _lift(_imaginary_part)
spacetime_interval = _lift(_spacetime_interval)


def scalar_part(u: Hyper) -> float:
    """Coefficient of i0, i.e. (u, i0)."""
    return float(u.coeffs[0])


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
