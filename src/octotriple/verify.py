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

A suite hands `Channels` the differences each identity says vanish and builds its scales
from the argument norms `Channels.norms` gives (vector identities scale by their product,
inner products and norms by its square); it takes a size itself only where the library's
output is one (`stored_residual`, the bridge residuals) and in `gram_positive_semidefinite`,
max(0, -det).  The size r (the norm of a vector, the abs of a scalar) at scale s counts as
r / (f * (s + abs/rel)), f the factor (10 for the degree-six length formulas, else 1); a
suite passes when the maximum is at most rel, and a non-finite residual counts as infinite.
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
    _block_memo,
    _check_dim,
    _conjugate,
    _imaginary_part,
    _inner,
    _is_integer,
    _json_float,
    _multiply,
    _norm,
    _norm_sq,
    _spacetime_interval,
    imaginary_part,
    multiply,
    norm,
    norm_sq,
    unit,
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
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.trials > 1 << 32:   # a trial index is one 32-bit half of a Philox key word
            raise ValueError(f"trials must be <= 2^32, got {self.trials}")
        if not self.dims:
            raise ValueError("dims must not be empty")
        for dim in self.dims:
            _check_dim(dim)


@dataclass(frozen=True)
class VerificationReport:
    """Per-suite outcome; passes iff max_residual <= tolerance_used."""

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
        details = dict(self.details)
        if "channels" in details:
            details["channels"] = {k: _json_float(v) for k, v in details["channels"].items()}
        return {
            "suite": self.suite,
            "dim": self.dim,
            "trials": self.trials,
            "seed": self.seed,
            "max_residual": _json_float(self.max_residual),
            "tolerance_used": self.tolerance_used,
            "pass": self.passed,
            "details": details,
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
    """

    def __init__(self, tol: Tolerance):
        self.tol = tol
        self.maxima: dict[str, float] = {}
        self.notes: dict[str, object] = {}

    def norms(self, *blocks) -> tuple:
        return tuple(map(_norm, blocks))

    def add(self, name: str, diffs, scale, factor: float = 1.0) -> None:
        """Record the largest |diff| / (factor * (scale + abs/rel)).

        diffs is a term or a tuple of terms, scalar differences or sizes
        already taken, that broadcast with scale, typically one entry per
        trial.  A NaN anywhere propagates to the maximum and records as inf.
        """
        size = (functools.reduce(np.maximum, map(np.abs, diffs)) if isinstance(diffs, tuple)
                else np.abs(diffs))
        floor = self.tol.abs / self.tol.rel
        self._record(name, np.max(np.divide(size, factor * (scale + floor))))

    def add_norm(self, name: str, diffs, scale, factor: float = 1.0) -> None:
        """`add` for vector differences: each term is reduced by its norm."""
        self.add(name, tuple(map(_norm, diffs)) if isinstance(diffs, tuple) else _norm(diffs),
                 scale, factor)

    def add_exact(self, name: str, diff) -> None:
        """Record the largest |diff| as it is, for exact checks (tolerance 0)."""
        self._record(name, np.max(np.abs(diff)))

    def _record(self, name: str, value) -> None:
        # a non-finite value records as inf, so it can neither be dropped nor pass
        val = float(value) if math.isfinite(value) else math.inf
        self.maxima[name] = max(self.maxima.get(name, val), val)

    def note(self, key: str, value: object) -> None:
        self.notes[key] = value

    def counted(self) -> dict[str, float]:
        return {k: v for k, v in self.maxima.items() if not k.startswith("info:")}


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
    key = np.array(_trial_key(seed, suite_index, trial_index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# A suite's `_public` function runs some identities on trial 0 through the public
# Hyper API and hands over its `norm` values as sizes; those of decomposition, lengths
# and bridge stay until the benchmark's call tracer times the array forms instead.


def _hypers(dim: int, row: tuple[np.ndarray, ...]) -> tuple[Hyper, ...]:
    return tuple(Hyper(dim, x) for x in row)


# -- suite: core identities ---------------------------------------------------


def _core_suite(dim: int, draws: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u2, u = draws
    s1, s2, su = ch.norms(*draws)
    i0 = unit(dim).coeffs
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


def _decomposition_suite(dim: int, draws: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2, u3 = draws
    s1, su, s2, s3 = ch.norms(*draws)
    s = s1 * su * s2
    i0 = unit(dim).coeffs
    ub = _conjugate(u)

    anti, comm, assoc, residual = tp._decompose_triple(u1, u, u2)
    # the operation forms, each evaluated once and compared by several channels
    comm_op, assoc_op = tp._commutator3(u1, u, u2), tp._associator3(u1, u, u2)
    # the four bracket/order variants, by hand, are the inverse transform of the parts
    variants = np.stack((_multiply(_multiply(u1, ub), u2), _multiply(_multiply(u2, ub), u1),
                         _multiply(u2, _multiply(ub, u1)), _multiply(u1, _multiply(ub, u2))))
    parts = np.stack((anti, assoc, np.zeros_like(anti), comm))
    ch.add_norm("reconstruction", hd.transform(parts) - variants, s)
    ch.add("stored_residual", residual, s)
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
    ch.add_norm("antisymmetry", (comm_op + tp._commutator3(u2, u, u1), assoc_swap), s)
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

    ch.add_norm("cross2_antisymmetry", (tp._cross2(u, u), c12 + tp._cross2(u2, u1)),
                np.maximum(su * su, s1 * s2))
    ch.add_norm("cross2_unit", (tp._cross2(i0, u), tp._cross2(u, i0)), su)
    ch.add("cross2_orthogonal_to_unit", c12[:, 0], s1 * s2)
    if dim == 4:
        classic = np.cross(u1[:, 1:], u2[:, 1:])
        ch.add("cross2_matches_3d_cross", c12[:, 1:] - classic, (s1 * s2)[:, None])

    ch.add_norm("pair_product_expansion", tp._pair_product_expansion(u1, u2) - p12, s1 * s2)


def _decomposition_public(dim: int, row: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2, _ = _hypers(dim, row)
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
    ch.add("cross2_antisymmetry", norm(tp.cross2(u1, u2) + tp.cross2(u2, u1)), norm(u1) * norm(u2))
    ch.add("pair_product_expansion",
           norm(tp.pair_product_expansion(u1, u2) - multiply(u1, u2)), norm(u1) * norm(u2))


# -- suite: length formulas ---------------------------------------------------


def _lengths_suite(dim: int, draws: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2 = draws
    n1, nu, n2 = ch.norms(*draws)
    s = n1 * nu * n2
    s2 = s * s
    anti, comm, assoc, _ = tp._decompose_triple(u1, u, u2)
    prod_sq = _norm_sq(u1) * _norm_sq(u) * _norm_sq(u2)

    a = tp._anticommutator3_norm_sq(u1, u, u2)
    c = tp._commutator3_norm_sq(u1, u, u2)
    x = tp._associator3_norm_sq(u1, u, u2)
    ch.add("anticommutator_length", a - _norm_sq(anti), s2, factor=10.0)
    ch.add("commutator_length", c - _norm_sq(comm), s2, factor=10.0)
    ch.add("associator_length", x - _norm_sq(assoc), s2, factor=10.0)
    ch.add("length_sum", a + c + x - prod_sq, s2, factor=10.0)
    ch.add("product_norm_multiplicativity",
           _norm_sq(_multiply(_multiply(u1, _conjugate(u)), u2)) - prod_sq, s2, factor=10.0)

    ch.add("anticommutative_component",
           tp._anticommutative_component_norm_sq(u1, u, u2) - _norm_sq(comm + assoc),
           s2, factor=10.0)
    lhs, rhs = tp._gram_det_imaginary_identity(u1, u, u2)
    ch.add("gram_half_difference", lhs - rhs, s2, factor=10.0)
    ch.add("gram_positive_semidefinite", np.maximum(0.0, -tp._det3(tp._gram(u1, u, u2))), s2)


def _lengths_public(dim: int, row: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2 = _hypers(dim, row)
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


def _operator_suite(dim: int, draws: tuple[np.ndarray, ...], ch: Channels) -> None:
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

    # two-operation components against the triple products
    ch.add_norm("component2_anticommutator", comps2[0] - tp._anticommutator3(u1, u, u2), s)
    ch.add_norm("component2_commutator", comps2[3] - tp._commutator3(u1, u, u2), s)
    ch.add_norm("component2_associator", comps2[1] - tp._associator3(u1, u, u2), s)
    ch.add_norm("component2_vanishing", comps2[2], s)

    # the transform is its own inverse up to n: it maps the components back to the values
    ch.add_norm("component2_reconstruction", hd.transform(comps2) - values_u[:4], s)

    # three-operation components: reconstruction, telescoping, eigen-relations
    ch.add_norm("component3_sum", comps3.sum(axis=0) - values_u[0], s)
    ch.add_norm("component3_telescoping", comps3[:4] + comps3[4:] - comps2, s)

    plus, star, vee = ops._eigen_residuals(values_u, values_v, u, v)
    ch.add("component3_eigen_plus", plus, sv)
    ch.add_norm("component3_eigen_star", star, s)
    ch.add_norm("component3_eigen_vee", vee, s)
    for signs, b_u in zip(ops.ALL_SIGN_TRIPLES, comps3):
        ch.add_norm(f"info:three_op_norm{signs.label}", b_u, s)


def _operator_public(dim: int, row: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u2, u = _hypers(dim, row[:3])
    op = ops.TripleOperator(u1, u2)
    # the first component against its definition: the mean of the eight word values
    mean = sum((ops.apply(op, w, u) for w in ops.ALL_WORDS), Hyper.zero(dim)) / 8
    ch.add("component3_public_api", norm(ops.component3(op, ops.ALL_SIGN_TRIPLES[0], u) - mean),
           norm(u1) * norm(u2) * norm(u))


def _operator_details(ch: Channels) -> dict:
    vanished = [
        signs.label for signs in ops.ALL_SIGN_TRIPLES
        if ch.maxima.get(f"info:three_op_norm{signs.label}", 1.0) <= ch.tol.rel
    ]
    return {"vanishing_three_op_components": vanished}


# -- suite: hadamard ----------------------------------------------------------

_A4_PRINTED = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
])
_A8_ROW_AB = np.array([1, -1, -1, 1, 1, -1, -1, 1])


def _hadamard_suite(ch: Channels) -> None:
    a4 = hd.build(4)
    a8 = hd.build(8)

    ch.add_exact("a4_printed", a4.entries - _A4_PRINTED)
    ch.add_exact("a8_row_ab", a8.entries[3] - _A8_ROW_AB)
    for m in (hd.build(2), a4, a8):
        ch.add_exact("inverse_up_to_factor",
                     m.entries @ m.entries - m.n * np.eye(m.n, dtype=np.int64))
        ch.add_exact("symmetric", 0 if m.is_symmetric() else 1)
        ch.add_exact("normalized", np.concatenate([m.entries[0], m.entries[:, 0]]) - 1)
        ch.add_exact("row_group", 0 if hd.row_group_check(m) else 1)

    flipped = a8.entries.copy()
    flipped[3, 5] = -flipped[3, 5]
    ch.add_exact("row_group_detects_flip",
                 1 if hd.row_group_check(hd.SignMatrix(8, flipped)) else 0)

    perms = hd.doubling_order_permutations(a8)
    ch.add_exact("automorphism_count", len(perms) - 168)
    sym, asym = hd.classify_symmetry(perms, a8)
    ch.add_exact("symmetric_count", sym - 28)
    ch.add_exact("asymmetric_count", asym - 140)

    perm_set = {p.map for p in perms}
    ch.add_exact("identity_included", 0 if tuple(range(8)) in perm_set else 1)
    # one row of eight byte images per map, read as one exact uint64 code; table[:, table][a, b]
    # is table[b] followed by table[a]; the inverses form one row.  Each check counts where
    # a sorted row differs from the sorted table: 0 exactly when each row lies in the table,
    # since composing with a permutation and inverting are injective on distinct maps
    table = np.array([p.map for p in perms], dtype=np.uint8)
    target = np.sort(table.view(np.uint64), axis=0)
    for name, maps in (("group_closure", table[:, table]),
                       ("group_inverse", np.argsort(table, axis=1).astype(np.uint8))):
        codes = np.ascontiguousarray(maps).view(np.uint64)
        ch.add_exact(name, np.count_nonzero(np.sort(codes, axis=-2) != target))

    csp4 = {p.map for p in hd.column_set_preserving_permutations(a4)}
    fixing = {(0,) + rest for rest in
              ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))}
    ch.add_exact("a4_row_fixing_permutations", len(fixing - csp4))
    ch.note("column_set_preserving_count_order4", len(csp4))
    # the exact search finds every column-preserving permutation, the linear ones included
    csp8 = {p.map for p in hd.column_set_preserving_permutations(a8)}
    ch.note("column_set_preserving_count_order8", len(csp8))
    ch.add_exact("automorphisms_preserve_columns", len(perm_set - csp8))

    # swapping the last two rows reorders the columns as rows 1,3,4,2
    swapped = a4.permuted_rows(hd.RowPermutation((0, 1, 3, 2)))
    order = (0, 2, 3, 1)
    ch.add_exact("a4_swap_column_order",
                 sum(0 if np.array_equal(swapped.entries[:, j], swapped.entries[order[j]])
                     else 1 for j in range(4)))


# -- suite: convention bridge -------------------------------------------------


def _bridge_suite(dim: int, draws: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2 = draws
    n1, nu, n2, i1, iu, i2 = ch.norms(*draws, u1[:, 1:], u[:, 1:], u2[:, 1:])
    s = n1 * nu * n2
    si = np.maximum(i1 * iu * i2, 1e-30)   # live: at dim 1 it is 0, and 0/0 records inf

    ch.add("okubo_reconstruction", br._okubo_reconstruction_residual(u1, u, u2), s)
    ch.add("okubo_bracket_display", br._okubo_bracket_display_residual(u1, u, u2), s)
    ch.add("dray_manogue_decomposition", br._dray_manogue_residual(u1, u, u2), s)
    ch.add_norm("dray_manogue_antisymmetry",
                br._dray_manogue_cross(u1, u, u2) + br._dray_manogue_cross(u2, u, u1), s)
    ch.add("info:bac_cab_printed", br._bac_cab_residual(u1, u, u2), si)
    ch.add("info:bac_cab_flipped", br._bac_cab_residual(u1, u, u2, flip_sign=True), si)


def _bridge_public(dim: int, row: tuple[np.ndarray, ...], ch: Channels) -> None:
    u1, u, u2 = _hypers(dim, row)
    s = norm(u1) * norm(u) * norm(u2)
    si = np.maximum(norm(imaginary_part(u1)) * norm(imaginary_part(u)) * norm(imaginary_part(u2)),
                    1e-30)
    ch.add("okubo_reconstruction", br.okubo_reconstruction_residual(u1, u, u2), s)
    ch.add("okubo_bracket_display", br.okubo_bracket_display_residual(u1, u, u2), s)
    ch.add("dray_manogue_decomposition", br.dray_manogue_residual(u1, u, u2), s)
    ch.add("dray_manogue_antisymmetry",
           norm(br.dray_manogue_cross(u1, u, u2) + br.dray_manogue_cross(u2, u, u1)), s)
    ch.add("info:bac_cab_printed", br.bac_cab_residual(u1, u, u2), si)
    ch.add("info:bac_cab_flipped", br.bac_cab_residual(u1, u, u2, flip_sign=True), si)


def _bridge_details(ch: Channels) -> dict:
    printed = ch.maxima.get("info:bac_cab_printed", 0.0)
    flipped = ch.maxima.get("info:bac_cab_flipped", 0.0)
    if printed <= ch.tol.rel or printed <= flipped:
        ch.maxima["bac_cab"] = printed
        return {"bac_cab_variant": "as_printed"}
    ch.maxima["bac_cab"] = flipped
    return {"bac_cab_variant": "sign_flipped"}


# -- engine --------------------------------------------------------------------


@dataclass(frozen=True)
class _Suite:
    name: str
    per_trial: Callable | None = None   # (dim, block draws, ch)
    public: Callable | None = None      # (dim, trial 0's draws, ch)
    once: Callable | None = None
    postprocess: Callable | None = None
    vectors: int = 0   # vectors each trial draws, then
    scalars: int = 0   # scalars it draws after them


_SUITES = (
    _Suite("core", per_trial=_core_suite, vectors=3),
    _Suite("decomposition", per_trial=_decomposition_suite, public=_decomposition_public,
           vectors=4),
    _Suite("lengths", per_trial=_lengths_suite, public=_lengths_public, vectors=3),
    _Suite("operator", per_trial=_operator_suite, public=_operator_public,
           postprocess=_operator_details, vectors=4, scalars=2),
    _Suite("hadamard", once=_hadamard_suite),
    _Suite("bridge", per_trial=_bridge_suite, public=_bridge_public,
           postprocess=_bridge_details, vectors=3),
)

SUITE_INDEX = {s.name: i for i, s in enumerate(_SUITES)}
SUITE_NAMES = tuple(s.name for s in _SUITES)


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
    """
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
    return blocks + (rows[:, suite.vectors * dim:],) if suite.scalars else blocks


def _run_suite(suite: _Suite, config: RunConfig, dim: int) -> VerificationReport:
    ch = Channels(config.tolerance)
    if suite.once is not None:
        suite.once(ch)
        trials = 1
        bar = 0.0
    else:
        for start in range(0, config.trials, _BLOCK_ROWS):
            draws = _draw_block(suite, config, dim, start,
                                min(start + _BLOCK_ROWS, config.trials))
            with _block_memo():
                suite.per_trial(dim, draws, ch)
            if start == 0 and suite.public is not None:
                suite.public(dim, tuple(block[0] for block in draws), ch)
        trials = config.trials
        bar = config.tolerance.rel
    details: dict[str, object] = {}
    if suite.postprocess is not None:
        details.update(suite.postprocess(ch))
    counted = ch.counted()
    max_residual = max(counted.values(), default=0.0)
    details["channels"] = dict(sorted(ch.maxima.items()))
    details.update(ch.notes)
    return VerificationReport(
        suite=suite.name,
        dim=dim,
        trials=trials,
        seed=config.seed,
        max_residual=float(max_residual),
        tolerance_used=bar,
        passed=bool(max_residual <= bar),
        details=details,
    )


def run_all(config: RunConfig, suites: tuple[str, ...] = SUITE_NAMES) -> list[VerificationReport]:
    """Run the named suites, in registry order, over every configured dimension.

    Dimension-independent suites (hadamard) run once and report dim 8.
    Raises ValueError unless `suites` is a non-empty collection of names
    from SUITE_NAMES, so a selection can never run nothing and pass.
    """
    if isinstance(suites, str) or not suites or not set(suites) <= set(SUITE_NAMES):
        raise ValueError(f"suites must be a non-empty collection of {SUITE_NAMES}, got {suites!r}")
    reports = []
    for suite in _SUITES:
        if suite.name not in suites:
            continue
        if suite.once is not None:
            reports.append(_run_suite(suite, config, 8))
        else:
            for dim in config.dims:
                reports.append(_run_suite(suite, config, dim))
    return reports
