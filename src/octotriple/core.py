"""Arithmetic in the four normed division algebras (dim 1, 2, 4, 8).

A value is a real coefficient vector over the doubling basis i0..i{dim-1},
where i0 is the multiplicative unit.  Multiplication is pinned to the
Cayley-Dickson rule

    (a, b)(c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

applied recursively from the reals.  Under this convention the quaternion
block satisfies i1*i2 == i3, i2*i1 == -i3.  Since i_i * i_j = +-i_{i xor j},
every product is one XOR-indexed kernel, (a*b)[k] = sum_i s[i, k] a[i] b[i xor k],
with the index and sign tables built once per dimension; the signs double
block by block, like the Sylvester matrix in `hadamard`, one block per case.

Each identity is computed once, by an array form `_name` over float64
coefficient arrays whose last axis is the basis index, so the same code
takes one vector or a whole (trials, dim) block.  The public Hyper function
`name` is that array form lifted by `_lift`, here and in `triple` and
`bridge`; only functions whose result has a type of its own are written
out by hand.

The package's one argument policy lives here (`_is_integer`, `_is_real`, `_as_int`,
`_as_real`, `_real_matrix`): a Python or numpy number is accepted and stored as the
Python value; a bool, a float where an integer is due, and text are refused.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache, update_wrapper

import numpy as np

VALID_DIMS = (1, 2, 4, 8)


class DimensionError(ValueError):
    """Invalid algebra dimension, or operands of different dimensions."""


def _is_integer(x) -> bool:
    """A Python or numpy integer, not a bool.  True == 1 and 4.0 == 4, so a
    membership or range test alone would let them through; a plain int, the
    common case, needs only the type test."""
    return type(x) is int or (not isinstance(x, bool) and isinstance(x, numbers.Integral))


def _is_real(x) -> bool:
    """A real number, not a bool, as a scalar operand; a plain float or int needs only the
    type test.  A numpy bool is no `numbers.Real`, so it is refused too."""
    return type(x) in (float, int) or (not isinstance(x, bool) and isinstance(x, numbers.Real))


def _as_int(name: str, value, allowed: tuple | None = None, error: type = ValueError) -> int:
    """value as a Python int if it is an integer, and one of `allowed` if given; else `error`."""
    if _is_integer(value) and (allowed is None or value in allowed):
        return value if type(value) is int else int(value)
    if allowed is None:
        raise error(f"{name} must be an integer, got {value!r}")
    raise error(f"{name} must be one of {allowed}, got {value!r}")


def _as_real(name: str, value) -> float:
    """value as a Python float, if it is a real number in the float range; a bool, text or an
    integer beyond the float range raises ValueError."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r} (not bools or text)")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number in the float range") from None


def _real_matrix(entries, n: int) -> np.ndarray:
    """entries as an n x n array: a float or int ndarray as it is, anything else as an
    object array of real numbers in the float range checked one by one, as a cast counts
    bools, parses text and reads None as NaN."""
    arr = entries
    if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "iuf"):
        arr = np.array(arr, dtype=object)
    if arr.shape != (n, n):
        raise ValueError(f"entries must be a {n}x{n} matrix, got shape {arr.shape}")
    if arr.dtype == object:
        for (i, j), x in np.ndenumerate(arr):
            _as_real(f"entries[{i}, {j}]", x)
    return arr


def _check_dim(dim: int) -> int:
    return _as_int("dimension", dim, VALID_DIMS, DimensionError)


def _check_same_dim(a: "Hyper", b: "Hyper") -> None:
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} != {b.dim}")


@dataclass(frozen=True)
class Tolerance:
    """Scaled comparison tolerance: values match when |x - y| <= abs + rel*scale."""

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self) -> None:
        for name, value in (("rel", self.rel), ("abs", self.abs)):   # True would pass as 1
            object.__setattr__(self, name, _as_real(f"{name} tolerance", value))
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

    # numpy defers every operator to this class, so an ndarray operand raises TypeError
    # instead of broadcasting into an object array of Hypers
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        if (dim := _check_dim(self.dim)) is not self.dim:
            object.__setattr__(self, "dim", dim)
        try:
            arr = np.array(self.coeffs)
        except ValueError:   # ragged: the checked route names the entry that is a sequence
            arr = np.array(self.coeffs, dtype=object)
        # a float64 ndarray, the common case, needs only the shape and finiteness checks
        if type(self.coeffs) is not np.ndarray or arr.dtype != np.float64:
            arr = self._checked_float64(arr)
        if arr.shape != (self.dim,):
            raise ValueError(f"coeffs must be a flat vector of {self.dim} entries, "
                             f"got shape {arr.shape}")
        # Python floats test finiteness without a ufunc call; the index is found on failure
        if not all(map(math.isfinite, arr.tolist())):
            k = int(np.isfinite(arr).argmin())
            raise ValueError(f"coeffs[{k}] must be finite, got {arr[k]}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def _checked_float64(self, arr: np.ndarray) -> np.ndarray:
        """self.coeffs (read by numpy as arr) as float64 if each entry is a real
        number in the float range: entry by entry, as a cast counts bools and parses text."""
        if arr.ndim != 1:
            return arr   # not a flat vector, which the shape check rejects
        values = []
        for k, x in enumerate(self.coeffs):
            if not _is_real(x):
                raise ValueError(f"coeffs[{k}] must be a real number, got {x!r} "
                                 "(coeffs are real numbers, not bools or text)")
            try:
                values.append(float(x))
            except OverflowError:
                raise ValueError(f"coeffs[{k}] must be finite, got a number beyond "
                                 "the float range") from None
        return np.array(values)

    @classmethod
    def _wrap(cls, dim: int, arr: np.ndarray) -> "Hyper":
        # Fast path for freshly computed float64 arrays; skips validation.  A view
        # (a row of a block, say) is copied, so no base array can change the value.
        if arr.base is not None:
            arr = arr.copy()
        obj = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(obj, "dim", dim)
        object.__setattr__(obj, "coeffs", arr)
        return obj

    @classmethod
    def zero(cls, dim: int) -> "Hyper":
        dim = _check_dim(dim)
        return cls._wrap(dim, np.zeros(dim))

    @classmethod
    def basis(cls, dim: int, index: int) -> "Hyper":
        """Basis element i_index of the given dimension."""
        dim = _check_dim(dim)
        if not 0 <= (index := _as_int("basis index", index)) < dim:
            raise ValueError(f"basis index must be an integer in [0, {dim}), got {index!r}")
        arr = np.zeros(dim)
        arr[index] = 1.0
        return cls._wrap(dim, arr)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Hyper") -> "Hyper":
        if not isinstance(other, Hyper):
            return NotImplemented
        _check_same_dim(self, other)
        return Hyper._wrap(self.dim, self.coeffs + other.coeffs)

    def __sub__(self, other: "Hyper") -> "Hyper":
        if not isinstance(other, Hyper):
            return NotImplemented
        _check_same_dim(self, other)
        return Hyper._wrap(self.dim, self.coeffs - other.coeffs)

    def __neg__(self) -> "Hyper":
        return Hyper._wrap(self.dim, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Hyper):
            return multiply(self, other)
        if _is_real(other):
            return Hyper._wrap(self.dim, self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if _is_real(other):
            return Hyper._wrap(self.dim, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if not _is_real(other):
            return NotImplemented
        divisor = float(other)
        if divisor == 0.0:
            raise ZeroDivisionError("Hyper division by zero")
        return Hyper._wrap(self.dim, self.coeffs / divisor)

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
        for field in ("dim", "coeffs"):
            if field not in obj:
                raise ValueError(f"missing field {field!r}")
        if not isinstance(obj["coeffs"], list):
            raise ValueError("field 'coeffs' must be an array of numbers")
        return cls(obj["dim"], obj["coeffs"])

    def to_json(self) -> str:
        import json   # here, not at import: most processes never serialize a value
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Hyper":
        import json
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
        return cls.from_dict(obj)


# -- multiplication table --------------------------------------------------


@lru_cache(maxsize=None)
def _product_tables(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Index table i ^ k and sign table s[i, k] of i_i * i_{i^k} = s[i, k] * i_k."""
    # m[i, j], the sign of i_i * i_j, doubles block by block, as the Sylvester recurrence
    # builds hadamard.build's (-1)^popcount(i & j): for basis elements x = i_i, y = i_j of
    # the half algebra and c[j] the sign of conj(y), the blocks are
    #   (x, 0)(y, 0) = (x*y, 0)              m
    #   (x, 0)(0, y) = (0, y*x)              m.T
    #   (0, x)(y, 0) = (0, x*conj(y))        m * c
    #   (0, x)(0, y) = (-conj(y)*x, 0)       -m.T * c
    m = np.ones((1, 1))
    while len(m) < dim:
        c = np.where(np.arange(len(m)), -1.0, 1.0)
        m = np.block([[m, m.T], [m * c, -m.T * c]])
    idx = np.arange(dim)
    xor = idx[:, None] ^ idx[None, :]
    sign = m[idx[:, None], xor]
    xor.flags.writeable = sign.flags.writeable = False
    return xor, sign


# -- array forms and their lift ---------------------------------------------


# The open block's results of `_multiply` and `_conjugate`, read-only, keyed by the ids
# of the operands each entry holds, so no id is reused within the block; both functions
# are deterministic, so a served result has the bits of a recomputed one
_MEMO: ContextVar[dict | None] = ContextVar("octotriple_block_memo", default=None)


@contextmanager
def _block_memo():
    """Compute each distinct block product and conjugate once within the block, in this thread."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bilinear product under the pinned doubling rule.

    Two vectors take one gather of b by the XOR table, one product with the
    sign table and one vector-matrix product by the `dot` method, which rounds
    as `@` does without the matmul ufunc machinery; blocks take the same
    gather of b[..., xor], signed in place, and one batched matmul.  The gather
    of two or more rows is laid out (i, k, rows), which sends the matmul to
    numpy's own loop, so out[..., k] is the sum of a[..., i] * g[..., i, k]
    taken in order of i from 0; a block of one row rounds as the 1-D product."""
    xor, sign = _product_tables(a.shape[-1])
    if a.ndim == 1 and b.ndim == 1:
        return a.dot(sign * b[xor])
    memo, key = _MEMO.get(), (id(a), id(b))
    if memo is not None and key in memo:
        return memo[key][1]
    g = b[..., xor]
    g *= sign   # sign * g would allocate a second (rows, dim, dim) array
    out = np.matmul(a[..., None, :], g)[..., 0, :]
    if memo is not None:
        memo[key] = (a, b), out
        out.setflags(write=False)
    return out


def _conjugate(x: np.ndarray) -> np.ndarray:
    """Negate the imaginary coefficients, keep the real one."""
    memo = _MEMO.get()
    if memo is not None and id(x) in memo:
        return memo[id(x)][1]
    out = -x
    out[..., 0] = x[..., 0]
    if memo is not None:
        memo[id(x)] = (x,), out
        out.setflags(write=False)
    return out


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean inner product of the coefficient vectors."""
    if x.ndim == 1 and y.ndim == 1:
        return x.dot(y)
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
    form on their coefficient vectors, and returns a Hyper for a vector
    result and a float for a scalar one, be it 0-d or already a Python float.
    """
    def public(*args: Hyper):
        out = array_form(*_coeffs(*args))
        return float(out) if getattr(out, "ndim", 0) == 0 else Hyper._wrap(args[0].dim, out)

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
    dim = _check_dim(dim)
    if dim < u.dim:
        raise DimensionError(f"cannot embed dim {u.dim} into smaller dim {dim}")
    if dim == u.dim:
        return u
    out = np.zeros(dim)
    out[: u.dim] = u.coeffs
    return Hyper._wrap(dim, out)
