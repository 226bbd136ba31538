"""Independent float64 reference for the triple decomposition.

The product here recurses on vector halves with the doubling rule
(a, b)(c, d) = (a c - conj(d) b, d a + b conj(c)), so it shares no code
and no multiplication table with the package under test.  The harness
uses it to check every output the workloads produce.
"""

from __future__ import annotations

import numpy as np

# Tolerances from the package README: vector identities within
# 1e-9 * scale, the degree-six length formulas within 1e-8 * scale^2,
# both on top of the default absolute tolerance.
PART_REL = 1e-9
LENGTH_REL = 1e-8
ABS = 1e-12


def conj(x: np.ndarray) -> np.ndarray:
    out = -x
    out[0] = x[0]
    return out


def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = len(x)
    if n == 1:
        return x * y
    h = n // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    return np.concatenate((mul(a, c) - mul(conj(d), b), mul(d, a) + mul(b, conj(c))))


def decompose(u1: np.ndarray, u: np.ndarray, u2: np.ndarray):
    """(anti, comm, assoc) of (u1 conj(u)) u2, and their squared lengths."""
    ub = conj(u)
    left = mul(mul(u1, ub), u2)
    swap = mul(mul(u2, ub), u1)
    right = mul(u1, mul(ub, u2))
    anti = (left + swap) / 2
    assoc = (left - right) / 2
    comm = left - anti - assoc
    parts = (anti, comm, assoc)
    return parts, tuple(float(np.dot(p, p)) for p in parts)


def scale(u1: np.ndarray, u: np.ndarray, u2: np.ndarray) -> float:
    """Natural scale of a triple: the product of the argument norms."""
    return float(np.linalg.norm(u1) * np.linalg.norm(u) * np.linalg.norm(u2))


def part_ok(got: np.ndarray, want: np.ndarray, s: float) -> bool:
    finite = bool(np.all(np.isfinite(got)))
    return finite and float(np.linalg.norm(got - want)) <= ABS + PART_REL * s


def length_ok(got: float, want: float, s: float) -> bool:
    return bool(np.isfinite(got)) and abs(got - want) <= ABS + LENGTH_REL * s * s
