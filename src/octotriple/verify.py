"""Randomized verification suites with deterministic, per-trial seeding.

Six suites cover the library's identity families: core identities, the
triple decomposition, the length formulas, operator symmetry, Hadamard
counts, and the convention bridge.  Trial coefficients are standard
normal draws from a Philox counter-based generator keyed per trial as

    key = [seed mod 2^64, suite_index * 2^32 + trial_index]

so no two trials share a stream, runs reproduce bit-for-bit for a given
config, and trials are independent of execution order.

Trials are evaluated in blocks of up to _BLOCK_ROWS consecutive trials
per suite and dimension: each argument is a (rows, dim) array whose row r
holds what the generator of the block's r-th trial draws, and every
identity is computed for all rows at once on the array forms of the
library (`core._multiply` and the `_name` functions wrapped by the public
API).  Blocks bound the memory a run needs, whatever its trial count.
Inside `core._block_memo()`, each distinct product and conjugate of a block
is computed once and served, read-only, to every form that asks again.  A
block draws from one generator, re-keyed before each row to the state a
new generator with that row's key starts in; Philox is counter-based, so
`trial_generator(seed, suite_index, t)`, drawn in the suite's order,
still replays trial t's row exactly.  Trial 0 also runs through the
public Hyper API, into the same channels, in the decomposition, lengths and
bridge suites and for the operator's `component3_public_api`; the public
wrappers themselves are pinned to the array forms in tests/test_array_forms.py.

Every suite is one body, `body(draws, ch)`, a plain function of its draws: the dimension
is the draws' width and i0 a basis row of that width, so a body runs at any doubling width
and on any exact number type without a checked `Hyper` (tests/test_mutants.py runs the
sedenions, dim 16, as a control, and tests/test_exact.py exact rationals).  A suite that
draws nothing (hadamard) checks fixed objects exactly: it runs once, on (), at dim 8.

A suite hands `Channels` the differences each identity says vanish and builds its scales
from the argument norms `Channels.norms` gives (vector identities scale by their product,
inner products and norms by its square); it takes a size itself only in the inequality
`gram_positive_semidefinite`, max(0, -det).  The size r (a vector's norm, a scalar's abs)
at scale s counts as r / (f * (s + abs/rel)), f the factor (10 for the degree-six length
formulas, else 1); a suite passes when the maximum is at most rel, and a non-finite
residual counts as infinite.
A report's details are its channels alone; what a suite reports but never gates on is an
"info:" channel, such as the operator's three-operation component norms (a component
vanishes where its channel is at most rel) and the hadamard column-preserving counts.
No two counted channels repeat one computation: the operator's two-operation components
are the decomposition's parts, by the same plans and transform, so only it checks them.
`CHANNELS` declares every channel once: the claim it checks, where it runs, and what it rests on.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bridge as br
from . import hadamard as hd
from . import operators as ops
from . import triple as tp
from .core import (
    DEFAULT_TOLERANCE,
    Hyper,
    Tolerance,
    _as_int,
    _block_memo,
    _check_dim,
    _conjugate,
    _imaginary_part,
    _inner,
    _json_float,
    _multiply,
    _norm,
    _norm_sq,
    _spacetime_interval,
    imaginary_part,
    multiply,
    norm,
    norm_sq,
)

_MASK64 = (1 << 64) - 1
# trials evaluated together; the largest array of a block is (_BLOCK_ROWS, dim, dim).  A
# block keeps its distinct products until it ends: at most 0.5 MB more at 100 rows, 19 MB
# at 4096; `verify --trials 10000 --dims 4,8` peaks at 84.7 MB instead of 68.8 MB RSS
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class RunConfig:
    """Verification run parameters."""

    seed: int = 0
    trials: int = 1000
    dims: tuple[int, ...] = (4, 8)
    tolerance: Tolerance = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("trials", self.trials)):
            # a Philox key word, a JSON number
            object.__setattr__(self, name, _as_int(name, value))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.trials > 1 << 32:   # a trial index is one 32-bit half of a Philox key word
            raise ValueError(f"trials must be <= 2^32, got {self.trials}")
        if not isinstance(self.tolerance, Tolerance):   # a suite reads its rel and abs
            raise ValueError(f"tolerance must be a Tolerance, got {self.tolerance!r}")
        try:   # a str would be read character by character
            dims = () if isinstance(self.dims, str) else tuple(self.dims)
        except TypeError:
            dims = ()
        if not dims:
            raise ValueError(f"dims must be a non-empty collection, got {self.dims!r}")
        # a repeated dim would run, and print, every suite at it again
        object.__setattr__(self, "dims", tuple(dict.fromkeys(map(_check_dim, dims))))


@dataclass(frozen=True)
class VerificationReport:
    """Per-suite outcome; passes iff max_residual <= tolerance_used; details is
    {"channels": {name: maximum}}, every channel the suite recorded, by name."""

    suite: str
    dim: int
    trials: int
    seed: int
    max_residual: float
    tolerance_used: float
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite residual becomes None (JSON null)."""
        channels = {k: _json_float(v) for k, v in self.details["channels"].items()}
        return {
            "suite": self.suite,
            "dim": self.dim,
            "trials": self.trials,
            "seed": self.seed,
            "max_residual": _json_float(self.max_residual),
            "tolerance_used": self.tolerance_used,
            "pass": self.passed,
            "details": {"channels": channels},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


class Channels:
    """Max-reduce accumulator of normalized residuals, one slot per identity.

    It owns every reduction and every scale.  The suites take the norms their scales
    are products of from `norms` (basis on the last axis), and hand over differences:
    `add` reduces scalar terms by abs, `add_norm` vector terms by their norm; the
    method, never the shape, says which.  A term may be any array that broadcasts with
    its scale (a matrix per trial, eight sign triples per trial); a tuple of terms
    counts as their elementwise maximum, which keeps a NaN, and calls under one name
    keep the largest value.  Names starting with "info:" are reported, never counted.
    The maxima are the whole report: a suite body reaches it only through `norms`, `add`,
    `add_norm` and `add_exact`, so a recorder that overrides those sees all of it.
    """

    def __init__(self, tol: Tolerance):
        self.tol = tol
        self.maxima: dict[str, float] = {}

    def norms(self, *blocks) -> tuple:
        return tuple(map(_norm, blocks))

    def add(self, name: str, diffs, scale, factor: float = 1.0) -> None:
        """Record the largest |diff| / (factor * (scale + abs/rel)).

        diffs is a term or a tuple of terms, scalar differences or sizes already taken
        (in a body, only `gram_positive_semidefinite`'s), that broadcast with scale,
        typically one entry per trial.  A NaN propagates to the maximum and records as inf.
        """
        self._record_sizes(name, _largest(np.abs, diffs), scale, factor)

    def add_norm(self, name: str, diffs, scale, factor: float = 1.0) -> None:
        """`add` for vector differences: each term is reduced by its norm."""
        # a norm is >= 0 or NaN already, so it is recorded without an abs
        self._record_sizes(name, _largest(_norm, diffs), scale, factor)

    def add_exact(self, name: str, diff) -> None:
        """Record the largest |diff| as it is, for exact checks (tolerance 0) and counts."""
        self._record(name, np.abs(diff).max())

    def _record_sizes(self, name: str, size, scale, factor: float) -> None:
        scale = scale + self.tol.abs / self.tol.rel
        if factor != 1.0:   # 1.0 * x is x in every bit, so the multiply is skipped
            scale = factor * scale
        self._record(name, np.divide(size, scale).max())

    def _record(self, name: str, value) -> None:
        # a non-finite value records as inf, so it can neither be dropped nor pass
        val = float(value) if math.isfinite(value) else math.inf
        self.maxima[name] = max(self.maxima.get(name, val), val)

    def counted(self) -> dict[str, float]:
        return {k: v for k, v in self.maxima.items() if not k.startswith("info:")}


def _largest(size: Callable, diffs):
    """size of one term, or the elementwise maximum of the sizes of a tuple of terms."""
    if isinstance(diffs, tuple):
        return functools.reduce(np.maximum, map(size, diffs))
    return size(diffs)


def _trial_key(seed: int, suite_index: int, trial_index: int) -> tuple[int, int]:
    """The Philox key of one trial: [seed mod 2^64, suite_index * 2^32 + trial_index]."""
    if not (0 <= suite_index < 1 << 32 and 0 <= trial_index < 1 << 32):
        raise ValueError(f"suite and trial indices must be in [0, 2^32): {suite_index}, {trial_index}")
    return seed & _MASK64, (suite_index << 32) | trial_index


def trial_generator(seed: int, suite_index: int, trial_index: int) -> np.random.Generator:
    """Generator for one trial, keyed [seed mod 2^64, suite_index * 2^32 + trial_index].

    A new generator per trial; the suites draw a block of trials from one
    generator re-keyed per row instead, and this function replays any one
    of those rows exactly.
    """
    key = np.array(_trial_key(_as_int("seed", seed), _as_int("suite_index", suite_index),
                              _as_int("trial_index", trial_index)), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# A suite's `_public(row, ch)` runs some identities on trial 0 through the public
# Hyper API and hands over its `norm` values as sizes; those of decomposition, lengths
# and bridge stay until the benchmark's call tracer times the array forms instead.


def _hypers(row: tuple[np.ndarray, ...]) -> tuple[Hyper, ...]:
    return tuple(Hyper(len(x), x) for x in row)


def _unit_row(dim: int) -> np.ndarray:
    """i0 as a read-only coefficient row of width dim; the bodies take any width, so unchecked."""
    i0 = np.zeros(dim)
    i0[0] = 1.0
    i0.setflags(write=False)
    return i0


# -- suite: core identities ---------------------------------------------------


def _core_suite(draws: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u2, u = draws
    s1, s2, su = ch.norms(*draws)
    dim = u.shape[-1]
    i0 = _unit_row(dim)
    ub = _conjugate(u)

    ch.add_norm("unit_law", (_multiply(i0, u) - u, _multiply(u, i0) - u), su)
    ch.add_norm("conjugation_involution", _conjugate(ub) - u, su)
    ch.add_norm("conjugation_formula", ub - (2 * u[:, :1] * i0 - u), su)

    half_sum = (_multiply(u1, _conjugate(u2)) + _multiply(u2, _conjugate(u1))) / 2
    ch.add_norm("inner_half_sum", half_sum - _inner(u1, u2)[:, None] * i0, s1 * s2)
    u_sq = _norm_sq(u)[:, None] * i0
    ch.add_norm("norm_sq_as_product", (_multiply(u, ub) - u_sq, _multiply(ub, u) - u_sq), su * su)

    p12, p21 = _multiply(u1, u2), _multiply(u2, u1)
    ch.add_norm("product_reversal",
                _conjugate(p12) - _multiply(_conjugate(u2), _conjugate(u1)), s1 * s2)
    ch.add("transfer_rule",
           (p12[:, 0] - p21[:, 0], p12[:, 0] - _inner(u1, _conjugate(u2))), s1 * s2)
    left_bracketed = _multiply(_multiply(u1, u), u2)
    right_bracketed = _multiply(u1, _multiply(u, u2))
    ch.add("trace_invariance", left_bracketed[:, 0] - right_bracketed[:, 0], s1 * su * s2)

    sandwich = 2 * _inner(u1, u)[:, None] * u1 - _norm_sq(u1)[:, None] * u
    left = _multiply(_multiply(u1, ub), u1)
    right = _multiply(u1, _multiply(ub, u1))
    ch.add_norm("sandwich", (left - sandwich, right - sandwich), s1 * s1 * su)
    ch.add_norm("flexibility", left - right, s1 * s1 * su)

    if dim <= 4:
        ch.add_norm("associativity", left_bracketed - right_bracketed, s1 * su * s2)

    ch.add("norm_multiplicativity", _norm_sq(p12) - _norm_sq(u1) * _norm_sq(u2), (s1 * s2) ** 2)
    ch.add("spacetime_interval", _inner(u, ub) - _spacetime_interval(u), su * su)
    im = _imaginary_part(u)
    ch.add("imaginary_part", _inner(im, i0), su)
    ch.add_norm("imaginary_part", im + u[:, :1] * i0 - u, su)


# -- suite: triple decomposition ---------------------------------------------


def _decomposition_suite(draws: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2, u3 = draws
    s1, su, s2, s3 = ch.norms(*draws)
    s = s1 * su * s2
    dim = u.shape[-1]
    i0 = _unit_row(dim)
    ub = _conjugate(u)

    anti, comm, assoc, leftover = tp._decompose_triple(u1, u, u2)
    # the operation forms, each evaluated once and compared by several channels
    comm_op, assoc_op = tp._commutator3(u1, u, u2), tp._associator3(u1, u, u2)
    # the four bracket/order variants, by hand, are the inverse transform of the parts
    variants = np.stack((_multiply(_multiply(u1, ub), u2), _multiply(_multiply(u2, ub), u1),
                         _multiply(u2, _multiply(ub, u1)), _multiply(u1, _multiply(ub, u2))))
    parts = np.stack((anti, assoc, np.zeros_like(anti), comm))
    ch.add_norm("reconstruction", hd.transform(parts) - variants, s)
    ch.add_norm("stored_residual", leftover, s)
    ch.add_norm("parts_match_operations",
                (anti - tp._anticommutator3(u1, u, u2), comm - comm_op, assoc - assoc_op), s)

    ch.add("orthogonality", (_inner(anti, comm), _inner(anti, assoc), _inner(comm, assoc)), s * s)

    ch.add_norm("half_form_agreement", (anti - tp._anticommutator3_alt(u1, u, u2),
                                        comm - tp._commutator3_alt(u1, u, u2),
                                        assoc - tp._associator3_alt(u1, u, u2)), s)
    ch.add_norm("closed_forms", (anti - tp._anticommutator3_closed(u1, u, u2),
                                 comm - tp._commutator3_closed(u1, u, u2)), s)

    assoc_swap = assoc_op + tp._associator3(u2, u, u1)
    ch.add_norm("associator_cancellation", assoc_swap, s)
    ch.add_norm("antisymmetry", comm_op + tp._commutator3(u2, u, u1), s)
    ch.add_norm("degenerate_pair", (tp._commutator3(u1, u, u1), tp._associator3(u1, u, u1)),
                s1 * s1 * su)

    for x, sx in ((u1, s1), (u, su), (u2, s2)):
        ch.add("commutator_argument_orthogonality", _inner(comm, x), s * sx)
        ch.add("associator_argument_orthogonality", _inner(assoc, x), s * sx)
    c12 = tp._cross2(u1, u2)
    for x, sx in ((i0, 1.0), (tp._cross2(u1, u), s1 * su), (c12, s1 * s2),
                  (tp._cross2(u, u2), su * s2)):
        ch.add("associator_extended_orthogonality", _inner(assoc, x), s * sx)

    ch.add("mixed_product_anticommutativity",
           (_inner(comm_op, u3) + _inner(tp._commutator3(u3, u, u2), u1),
            _inner(assoc_op, u3) + _inner(tp._associator3(u3, u, u2), u1)), s * s3)

    if dim <= 4:
        ch.add_norm("associator_zero_low_dim", assoc, s)

    p12, p21 = _multiply(u1, u2), _multiply(u2, u1)
    ch.add_norm("unit_center_reduction", (tp._commutator3(u1, i0, u2) - c12,
                                          tp._anticommutator3(u1, i0, u2) - (p12 + p21) / 2,
                                          tp._associator3(u1, i0, u2)), s1 * s2)

    ch.add_norm("cross2_unit", (tp._cross2(i0, u), tp._cross2(u, i0)), su)
    ch.add("cross2_orthogonal_to_unit", c12[:, 0], s1 * s2)
    if dim == 4:
        classic = np.cross(u1[:, 1:], u2[:, 1:])
        ch.add("cross2_matches_3d_cross", c12[:, 1:] - classic, (s1 * s2)[:, None])

    ch.add_norm("pair_product_expansion", tp._pair_product_expansion(u1, u2) - p12, s1 * s2)


def _decomposition_public(row: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2, _ = _hypers(row)
    s = norm(u1) * norm(u) * norm(u2)
    d = tp.decompose_triple(u1, u, u2)
    ch.add("stored_residual", d.residual, s)
    ch.add("parts_match_operations", (norm(d.anti - tp.anticommutator3(u1, u, u2)),
                                      norm(d.comm - tp.commutator3(u1, u, u2)),
                                      norm(d.assoc - tp.associator3(u1, u, u2))), s)
    ch.add("half_form_agreement", (norm(d.anti - tp.anticommutator3_alt(u1, u, u2)),
                                   norm(d.comm - tp.commutator3_alt(u1, u, u2)),
                                   norm(d.assoc - tp.associator3_alt(u1, u, u2))), s)
    ch.add("closed_forms", (norm(d.anti - tp.anticommutator3_closed(u1, u, u2)),
                            norm(d.comm - tp.commutator3_closed(u1, u, u2))), s)
    ch.add("pair_product_expansion",
           norm(tp.pair_product_expansion(u1, u2) - multiply(u1, u2)), norm(u1) * norm(u2))


# -- suite: length formulas ---------------------------------------------------


def _lengths_suite(draws: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2 = draws
    n1, nu, n2 = ch.norms(*draws)
    s = n1 * nu * n2
    s2 = s * s
    anti, comm, assoc, _ = tp._decompose_triple(u1, u, u2)
    prod_sq = _norm_sq(u1) * _norm_sq(u) * _norm_sq(u2)

    a = tp._anticommutator3_norm_sq(u1, u, u2)
    c = tp._commutator3_norm_sq(u1, u, u2)
    x = tp._associator3_norm_sq(u1, u, u2)
    # no channel for a + c + x: from the terms the three share, it is prod_sq whatever they are
    ch.add("anticommutator_length", a - _norm_sq(anti), s2, factor=10.0)
    ch.add("commutator_length", c - _norm_sq(comm), s2, factor=10.0)
    ch.add("associator_length", x - _norm_sq(assoc), s2, factor=10.0)
    ch.add("product_norm_multiplicativity",
           _norm_sq(_multiply(_multiply(u1, _conjugate(u)), u2)) - prod_sq, s2, factor=10.0)

    det = tp._anticommutative_component_norm_sq(u1, u, u2)   # det Gram of the arguments
    ch.add("anticommutative_component", det - _norm_sq(comm + assoc), s2, factor=10.0)
    lhs, rhs = tp._gram_det_imaginary_identity(u1, u, u2)
    ch.add("gram_half_difference", lhs - rhs, s2, factor=10.0)
    ch.add("gram_positive_semidefinite", np.maximum(0.0, -det), s2)


def _lengths_public(row: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2 = _hypers(row)
    s = norm(u1) * norm(u) * norm(u2)
    s2 = s * s
    d = tp.decompose_triple(u1, u, u2)
    ch.add("anticommutator_length",
           tp.anticommutator3_norm_sq(u1, u, u2) - norm_sq(d.anti), s2, factor=10.0)
    ch.add("commutator_length",
           tp.commutator3_norm_sq(u1, u, u2) - norm_sq(d.comm), s2, factor=10.0)
    ch.add("associator_length",
           tp.associator3_norm_sq(u1, u, u2) - norm_sq(d.assoc), s2, factor=10.0)
    ch.add("anticommutative_component",
           tp.anticommutative_component_norm_sq(u1, u, u2) - norm_sq(d.comm + d.assoc),
           s2, factor=10.0)
    lhs, rhs = tp.gram_det_imaginary_identity(u1, u, u2)
    ch.add("gram_half_difference", lhs - rhs, s2, factor=10.0)
    ch.add("gram_positive_semidefinite", np.maximum(0.0, -tp.gram(u1, u, u2).det()), s2)


# -- suite: operator symmetry -------------------------------------------------


def _operator_suite(draws: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u2, u, v, scalars = draws
    a, b = scalars[:, :1], scalars[:, 1:]   # alpha and beta, one column each
    n1, n2, nu, nv, na, nb = ch.norms(u1, u2, u, v, a, b)
    s_op = n1 * n2
    s = s_op * nu
    sv = s * nv
    ub, c1, c2 = _conjugate(u), _conjugate(u1), _conjugate(u2)
    values_u = ops._word_values(u1, u2, u)
    values_v = ops._word_values(u1, u2, v)

    # derived closed forms against the seven tabulated ones, in ALL_WORDS
    # order (the eighth, +*v, is derived rather than tabulated)
    tab = np.stack((
        _multiply(_multiply(u1, ub), u2),       # e
        _multiply(_multiply(u2, ub), u1),       # +
        _multiply(u2, _multiply(ub, u1)),       # *
        _multiply(u1, _multiply(ub, u2)),       # +*
        _multiply(c2, _multiply(ub, c1)),       # v
        _multiply(c1, _multiply(ub, c2)),       # +v
        _multiply(_multiply(c1, ub), c2),       # *v
    ))
    ch.add_norm("tabulated_closed_forms", values_u[:7] - tab, s)

    # Hermitian pairing for every word: the +-partner (w ^ 1) is the true adjoint
    pairing = _inner(values_u, v) - _inner(values_v[ops._WORD_INDEX ^ 1], u)
    ch.add("adjoint_pairing", pairing, sv)
    # matrix route: transpose of the materialized operator equals the +-partner
    diff = (np.swapaxes(ops._materialize(u1, u2, ops.OpWord()), -1, -2)
            - ops._materialize(u1, u2, ops.OpWord(plus=True)))
    ch.add("adjoint_transpose", diff, s_op[:, None, None])

    # real-linearity of the transformed operators e and v in the operand
    mixed = ops._word_values(u1, u2, a * u + b * v, (ops.OpWord(), ops.OpWord(vee=True)))
    s_mix = na * nu + nb * nv   # |alpha| |u| + |beta| |v| bit for bit: sqrt(fl(x x)) = |x|
    ch.add_norm("linearity", mixed - (a * values_u[[0, 4]] + b * values_v[[0, 4]]), s_op * s_mix)

    comps2 = ops._components(values_u[:4])
    comps3 = ops._components(values_u)

    # three-operation components: reconstruction, telescoping, the adjoint relation
    ch.add_norm("component3_sum", comps3.sum(axis=0) - values_u[0], s)
    ch.add_norm("component3_telescoping", comps3[:4] + comps3[4:] - comps2, s)
    comps3_v = ops._components(values_v)
    ch.add("component3_eigen_plus", ops._eigen_residuals(comps3, comps3_v, u, v), sv)
    for signs, b_u in zip(ops.ALL_SIGN_TRIPLES, comps3):
        ch.add_norm(f"info:three_op_norm{signs.label}", b_u, s)


def _operator_public(row: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u2, u = _hypers(row[:3])
    op = ops.TripleOperator(u1, u2)
    # the first component against its definition: the mean of the eight word values
    mean = sum((ops.apply(op, w, u) for w in ops.ALL_WORDS), Hyper.zero(u.dim)) / 8
    ch.add("component3_public_api", norm(ops.component3(op, ops.ALL_SIGN_TRIPLES[0], u) - mean),
           norm(u1) * norm(u2) * norm(u))


# -- suite: hadamard ----------------------------------------------------------

_A4_PRINTED = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
])
_A8_ROW_AB = np.array([1, -1, -1, 1, 1, -1, -1, 1])
_A4_ROW_FIXING = np.array([(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3),
                           (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)], dtype=np.uint8)


def _map_codes(maps: np.ndarray) -> np.ndarray:
    """One code per map: its images, each below 8, as the digits of a base-8 number.

    Distinct maps have distinct codes, and every code and every sum that makes one is
    an integer below 8^8 = 2^24, so float64 holds it and a BLAS product sums it exactly.
    """
    return maps @ 8.0 ** np.arange(maps.shape[-1])


def _count_missing(maps: np.ndarray, among: np.ndarray) -> int:
    """How many rows of maps are not rows of among."""
    return int(np.count_nonzero(np.all(_map_codes(maps)[:, None] != _map_codes(among), axis=1)))


def _hadamard_suite(draws: tuple[()], ch: Channels) -> None:
    a2, a4, a8 = map(hd._build, (2, 4, 8))

    ch.add_exact("a4_printed", a4 - _A4_PRINTED)
    ch.add_exact("a8_row_ab", a8[3] - _A8_ROW_AB)
    for m in (a2, a4, a8):
        n = len(m)
        ch.add_exact("inverse_up_to_factor", m @ m - n * np.eye(n, dtype=np.int64))
        ch.add_exact("symmetric", 0 if hd.symmetric_mask(m) else 1)
        ch.add_exact("normalized", np.concatenate([m[0], m[:, 0]]) - 1)
        ch.add_exact("row_group", 0 if hd._row_group_check(m) else 1)

    flipped = a8.copy()
    flipped[3, 5] = -flipped[3, 5]
    ch.add_exact("row_group_detects_flip", 1 if hd._row_group_check(flipped) else 0)

    table = hd._doubling_order_maps()   # one row of eight uint8 images per map
    ch.add_exact("automorphism_count", len(table) - 168)
    sym, asym = hd._classify_symmetry(a8[table])
    ch.add_exact("symmetric_count", sym - 28)
    ch.add_exact("asymmetric_count", asym - 140)

    codes = _map_codes(table)
    ch.add_exact("identity_included", 0 if _map_codes(np.arange(8)) in codes else 1)
    # table[b] followed by table[a] has the code sum_i a[b[i]] 8^i = sum_r a[r] w[b, r], w[b, r]
    # the sum of 8^i over the i that table[b] sends to r, so one product codes all 168^2
    # compositions; the inverses form one row.  Each check counts where a sorted row
    # differs from the sorted table: 0 exactly when each row lies in the table, since
    # composing with a map and inverting are injective on distinct maps
    w = 8.0 ** np.arange(8) @ (table[:, :, None] == np.arange(8))
    target = np.sort(codes)
    for name, row_codes in (("group_closure", table @ w.T),
                            ("group_inverse", _map_codes(np.argsort(table, axis=1)))):
        row_codes.sort(axis=-1)
        ch.add_exact(name, np.count_nonzero(row_codes != target))

    csp4 = hd._column_set_preserving_maps(a4)
    ch.add_exact("a4_row_fixing_permutations", _count_missing(_A4_ROW_FIXING, csp4))
    ch.add_exact("info:column_set_preserving_count_order4", len(csp4))
    # the exact search finds every column-preserving permutation, the linear ones included
    csp8 = hd._column_set_preserving_maps(a8)
    ch.add_exact("info:column_set_preserving_count_order8", len(csp8))
    ch.add_exact("automorphisms_preserve_columns", _count_missing(table, csp8))

    # swapping the last two rows reorders the columns as rows 1,3,4,2
    swapped = a4[[0, 1, 3, 2]]
    ch.add_exact("a4_swap_column_order",
                 np.count_nonzero(np.any(swapped.T != swapped[[0, 2, 3, 1]], axis=1)))


# -- suite: convention bridge -------------------------------------------------


def _bridge_suite(draws: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2 = draws
    n1, nu, n2, i1, iu, i2 = ch.norms(*draws, u1[:, 1:], u[:, 1:], u2[:, 1:])
    s = n1 * nu * n2
    si = np.maximum(i1 * iu * i2, 1e-30)   # live: at dim 1 it is 0, and 0/0 records inf

    ch.add_norm("okubo_reconstruction", br._okubo_reconstruction_difference(u1, u, u2), s)
    ch.add_norm("okubo_bracket_display", br._okubo_bracket_display_difference(u1, u, u2), s)
    ch.add_norm("dray_manogue_decomposition", br._dray_manogue_difference(u1, u, u2), s)
    ch.add_norm("bac_cab", br._bac_cab_difference(u1, u, u2), si)


def _bridge_public(row: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2 = _hypers(row)
    s = norm(u1) * norm(u) * norm(u2)
    si = np.maximum(norm(imaginary_part(u1)) * norm(imaginary_part(u)) * norm(imaginary_part(u2)),
                    1e-30)
    ch.add("okubo_reconstruction", br.okubo_reconstruction_residual(u1, u, u2), s)
    ch.add("okubo_bracket_display", br.okubo_bracket_display_residual(u1, u, u2), s)
    ch.add("dray_manogue_decomposition", br.dray_manogue_residual(u1, u, u2), s)
    ch.add("bac_cab", br.bac_cab_residual(u1, u, u2), si)


# -- engine --------------------------------------------------------------------


@dataclass(frozen=True)
class _Suite:
    name: str
    body: Callable                   # (draws, ch): one block's draws, () if it draws nothing
    public: Callable | None = None   # (trial 0's draws, ch)
    vectors: int = 0   # vectors each trial draws, then
    scalars: int = 0   # scalars it draws after them

    @property
    def random(self) -> bool:
        """Whether its trials draw; one that draws nothing checks fixed objects exactly,
        so it runs once, on draws (), reports dim 8 and passes only at 0."""
        return bool(self.vectors or self.scalars)

    def dims(self, config: RunConfig) -> tuple[int, ...]:
        return config.dims if self.random else (8,)


_SUITES = (
    _Suite("core", _core_suite, vectors=3),
    _Suite("decomposition", _decomposition_suite, _decomposition_public, vectors=4),
    _Suite("lengths", _lengths_suite, _lengths_public, vectors=3),
    _Suite("operator", _operator_suite, _operator_public, vectors=4, scalars=2),
    _Suite("hadamard", _hadamard_suite),
    _Suite("bridge", _bridge_suite, _bridge_public, vectors=3),
)

SUITE_INDEX = {s.name: i for i, s in enumerate(_SUITES)}
SUITE_NAMES = tuple(s.name for s in _SUITES)


def _row(claim: str, dims: tuple[int, ...] = (), fails_at_16: bool = False,
         unmoved: str = "", unfailed: str = "") -> tuple:
    mutants = ("unmoved", unmoved) if unmoved else ("unfailed", unfailed) if unfailed else ()
    return claim, dims, fails_at_16, mutants


# The channel table: one row (claim, dims, fails_at_16, mutants) per channel a suite records,
# keyed "suite:channel".  claim is the key of the README claims-table row it checks, or "info"
# for a channel reported and never counted; dims, where its body records it when that is fewer
# than its suite's dims; fails_at_16, whether it fails in the sedenions, the doubling rule
# applied once more; mutants, for a counted channel that no mutant of tests/test_mutants.py
# fails at dims 4 and 8, ("unmoved", why) if none moves it off 0.0, or ("unfailed", why) if
# none pushes it above rel, as it compares two routes that a mutant changes alike.  The bodies
# record by name and nothing reads the table at run time; the tests pin it to the reports.
CHANNELS = {
    "core:unit_law": _row("library"),
    "core:conjugation_involution": _row("library", unmoved=(
        "it checks `_conjugate` alone, which no mutant touches")),
    "core:conjugation_formula": _row("library", unmoved=(
        "it checks `_conjugate` alone, which no mutant touches")),
    "core:inner_half_sum": _row("library"),
    "core:norm_sq_as_product": _row("library"),
    "core:product_reversal": _row("library"),
    "core:transfer_rule": _row("library"),
    "core:trace_invariance": _row("library"),
    "core:sandwich": _row("library", fails_at_16=True),
    "core:flexibility": _row("library"),
    "core:associativity": _row("split", dims=(1, 2, 4)),
    "core:norm_multiplicativity": _row("library", fails_at_16=True),
    "core:spacetime_interval": _row("library", unfailed=(
        "(u, conj(u)) against 2 (u, i0)^2 - (u, u): inner products and conjugates alone")),
    "core:imaginary_part": _row("library", unmoved=(
        "it checks `_imaginary_part` and `_inner`, which no mutant touches")),
    "decomposition:reconstruction": _row("split"),
    "decomposition:stored_residual": _row("split"),
    "decomposition:parts_match_operations": _row("split"),
    "decomposition:orthogonality": _row("split", fails_at_16=True),
    "decomposition:half_form_agreement": _row("library"),
    "decomposition:closed_forms": _row("cross", fails_at_16=True),
    "decomposition:associator_cancellation": _row("cross_sign"),
    "decomposition:antisymmetry": _row("cross_sign"),
    "decomposition:degenerate_pair": _row("cross_sign"),
    "decomposition:commutator_argument_orthogonality": _row("cross"),
    "decomposition:associator_argument_orthogonality": _row("library", fails_at_16=True),
    "decomposition:associator_extended_orthogonality": _row("library", fails_at_16=True),
    "decomposition:mixed_product_anticommutativity": _row("cross", fails_at_16=True),
    "decomposition:associator_zero_low_dim": _row("split", dims=(1, 2, 4)),
    "decomposition:unit_center_reduction": _row("cross"),
    "decomposition:cross2_unit": _row("cross"),
    "decomposition:cross2_orthogonal_to_unit": _row("cross", unmoved=(
        "the scalar parts of u1 u2 and u2 u1 sum the same a_i b_i s[i, 0] in the same order")),
    "decomposition:cross2_matches_3d_cross": _row("cross", dims=(4,)),
    "decomposition:pair_product_expansion": _row("cross"),
    "lengths:anticommutator_length": _row("split", fails_at_16=True),
    "lengths:commutator_length": _row("split", fails_at_16=True),
    "lengths:associator_length": _row("split", fails_at_16=True),
    "lengths:product_norm_multiplicativity": _row("split", fails_at_16=True),
    "lengths:anticommutative_component": _row("library", fails_at_16=True),
    "lengths:gram_half_difference": _row("library", unfailed=(
        "det Gram' against (det Gram - det conj Gram) / 2: inner products and conjugates alone")),
    "lengths:gram_positive_semidefinite": _row("library", unmoved=(
        "max(0, -det) of the arguments' Gram matrix, which holds inner products alone")),
    "operator:tabulated_closed_forms": _row("signs"),
    "operator:adjoint_pairing": _row("signs"),
    "operator:adjoint_transpose": _row("signs"),
    "operator:linearity": _row("signs", unfailed=(
        "a mutant plan or sign table is still bilinear: the words e and v stay real-linear")),
    "operator:component3_sum": _row("signs"),
    "operator:component3_telescoping": _row("signs"),
    "operator:component3_eigen_plus": _row("signs"),
    **{f"operator:info:three_op_norm{s.label}": _row("info") for s in ops.ALL_SIGN_TRIPLES},
    "operator:component3_public_api": _row("library", unfailed=(
        "both routes share plans and products; a butterfly flip negates a difference, not row 0")),
    "hadamard:a4_printed": _row("hadamard"),
    "hadamard:a8_row_ab": _row("hadamard"),
    "hadamard:inverse_up_to_factor": _row("hadamard"),
    "hadamard:symmetric": _row("hadamard"),
    "hadamard:normalized": _row("hadamard"),
    "hadamard:row_group": _row("hadamard"),
    "hadamard:row_group_detects_flip": _row("hadamard"),
    "hadamard:automorphism_count": _row("hadamard"),
    "hadamard:symmetric_count": _row("hadamard"),
    "hadamard:asymmetric_count": _row("hadamard"),
    "hadamard:identity_included": _row("hadamard"),
    "hadamard:group_closure": _row("hadamard"),
    "hadamard:group_inverse": _row("hadamard"),
    "hadamard:a4_row_fixing_permutations": _row("hadamard"),
    "hadamard:info:column_set_preserving_count_order4": _row("info"),
    "hadamard:info:column_set_preserving_count_order8": _row("info"),
    "hadamard:automorphisms_preserve_columns": _row("hadamard"),
    "hadamard:a4_swap_column_order": _row("hadamard"),
    "bridge:okubo_reconstruction": _row("okubo"),
    "bridge:okubo_bracket_display": _row("okubo", fails_at_16=True),
    "bridge:dray_manogue_decomposition": _row("okubo"),
    "bridge:bac_cab": _row("okubo", fails_at_16=True),
}


def _draw_block(suite: _Suite, config: RunConfig, dim: int,
                start: int, stop: int) -> tuple[np.ndarray, ...]:
    """The draws of trials start..stop-1: `suite.vectors` blocks of shape
    (stop - start, dim), then a (stop - start, suite.scalars) block if the
    suite draws scalars.

    Row r is what trial start + r's own generator yields when the trial
    draws its vectors and then its scalars one by one, so any row can be
    replayed alone by `trial_generator`.  Building a generator costs more
    than drawing a row, so the block builds one, for its first trial, and
    before each row sets its state to the new generator's state (counter
    zero, buffer empty) with the row's key.  Philox is counter-based, so
    the re-keyed stream is exactly that of a new generator with the key.
    Every block is read-only, so no suite body can change another's draws,
    and `triple._length_terms` can serve its terms to each length form.
    A suite that draws nothing gets (), and no generator is built.
    """
    if not suite.random:
        return ()
    idx = SUITE_INDEX[suite.name]
    rows = np.empty((stop - start, suite.vectors * dim + suite.scalars))
    generator = trial_generator(config.seed, idx, start)
    _trial_key(config.seed, idx, stop - 1)   # the block's last index is in range too
    bit_generator = generator.bit_generator
    state = bit_generator.state   # a fresh copy, re-keyed in place below
    words = state["state"]   # as Python ints, which the setter reads faster than uint64s
    words["counter"], words["key"], state["buffer"] = (
        words["counter"].tolist(), words["key"].tolist(), state["buffer"].tolist())
    key, high = words["key"], idx << 32   # the seed word stays as the first row's
    for r, t in enumerate(range(start, stop)):
        key[1] = high | t
        bit_generator.state = state
        generator.standard_normal(out=rows[r])
    vectors = rows[:, :suite.vectors * dim].reshape(stop - start, suite.vectors, dim)
    blocks = tuple(np.ascontiguousarray(vectors[:, i]) for i in range(suite.vectors))
    if suite.scalars:
        blocks += (rows[:, suite.vectors * dim:],)
    for block in blocks:
        block.setflags(write=False)
    return blocks


def _run_suite(suite: _Suite, config: RunConfig, dim: int) -> VerificationReport:
    ch = Channels(config.tolerance)
    trials, bar = (config.trials, config.tolerance.rel) if suite.random else (1, 0.0)
    for start in range(0, trials, _BLOCK_ROWS):
        draws = _draw_block(suite, config, dim, start, min(start + _BLOCK_ROWS, trials))
        with _block_memo():
            suite.body(draws, ch)
        if start == 0 and suite.public is not None:
            suite.public(tuple(block[0] for block in draws), ch)
    max_residual = max(ch.counted().values(), default=0.0)
    return VerificationReport(
        suite=suite.name,
        dim=dim,
        trials=trials,
        seed=config.seed,
        max_residual=float(max_residual),
        tolerance_used=bar,
        passed=bool(max_residual <= bar),
        details={"channels": dict(sorted(ch.maxima.items()))},
    )


def run_all(config: RunConfig, suites: tuple[str, ...] = SUITE_NAMES) -> list[VerificationReport]:
    """Run the named suites, in registry order, over every configured dimension.

    Every suite is one body of its draws; a suite that draws nothing (hadamard)
    runs once, on no draws, and reports dim 8.  Raises ValueError unless
    `suites` is a non-empty iterable of names from SUITE_NAMES, read once, so a
    selection can never run nothing and pass.
    """
    try:   # a str would be read character by character
        names = set() if isinstance(suites, str) else set(suites)
    except TypeError:   # not iterable, or an item that is no name
        names = set()
    if not names or not names <= set(SUITE_NAMES):
        raise ValueError(f"suites must be a non-empty collection of {SUITE_NAMES}, got {suites!r}")
    return [_run_suite(suite, config, dim)
            for suite in _SUITES if suite.name in names for dim in suite.dims(config)]
