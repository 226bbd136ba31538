"""Randomized verification suites with deterministic, per-trial seeding.

Six suites cover the library's identity families: core identities, the
triple decomposition, the length formulas, operator symmetry, Hadamard
counts, and the convention bridge.  Trial coefficients are standard
normal draws from a Philox counter-based generator keyed per trial as

    key = [seed mod 2^64, suite_index * 2^32 + trial_index]

so no two trials share a stream, runs reproduce bit-for-bit for a given
config, and trials are independent of execution order.

Residuals are normalized before aggregation: a residual r of an identity
with natural scale s contributes r / (f * (s + abs/rel)), where f is the
identity's tolerance factor (1 for most identities, 10 for the
degree-six length formulas).  A suite passes when the maximum normalized
residual is at most the relative tolerance; a non-finite residual counts
as infinite.  Vector identities use the product of argument norms as
scale; inner-product and norm identities use its square.
"""

from __future__ import annotations

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
    VALID_DIMS,
    _json_float,
    conjugate,
    imaginary_part,
    inner,
    multiply,
    norm,
    norm_sq,
    scalar_part,
    spacetime_interval,
    unit,
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RunConfig:
    """Verification run parameters."""

    seed: int = 0
    trials: int = 1000
    dims: tuple[int, ...] = (4, 8)
    tolerance: Tolerance = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.dims:
            raise ValueError("dims must not be empty")
        bad = [d for d in self.dims if d not in VALID_DIMS]
        if bad:
            raise ValueError(f"dims must be among {VALID_DIMS}, got {bad}")


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

    Channel names starting with "info:" are reported but never counted
    toward pass/fail.
    """

    def __init__(self, tol: Tolerance):
        self.tol = tol
        self.maxima: dict[str, float] = {}
        self.notes: dict[str, object] = {}

    def add(self, name: str, residual: float, scale: float, factor: float = 1.0) -> None:
        floor = self.tol.abs / self.tol.rel
        self.add_exact(name, float(residual) / (factor * (scale + floor)))

    def add_exact(self, name: str, residual: float) -> None:
        # a non-finite value records as inf, so it can neither be dropped nor pass
        val = float(residual) if math.isfinite(residual) else math.inf
        self.maxima[name] = max(self.maxima.get(name, val), val)

    def note(self, key: str, value: object) -> None:
        self.notes[key] = value

    def counted(self) -> dict[str, float]:
        return {k: v for k, v in self.maxima.items() if not k.startswith("info:")}


def trial_generator(seed: int, suite_index: int, trial_index: int) -> np.random.Generator:
    """Generator for one trial, keyed [seed mod 2^64, suite_index * 2^32 + trial_index]."""
    if not (0 <= suite_index < 1 << 32 and 0 <= trial_index < 1 << 32):
        raise ValueError(f"suite and trial indices must be in [0, 2^32): {suite_index}, {trial_index}")
    key = np.array([seed & _MASK64, (suite_index << 32) | trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw(rng: np.random.Generator, dim: int, count: int) -> list[Hyper]:
    return [Hyper(dim, rng.standard_normal(dim)) for _ in range(count)]


# -- suite: core identities ---------------------------------------------------


def _core_suite(dim: int, rng: np.random.Generator, ch: Channels) -> None:
    u1, u2, u = _draw(rng, dim, 3)
    s1, s2, su = norm(u1), norm(u2), norm(u)
    i0 = unit(dim)
    ub = conjugate(u)

    ch.add("unit_law", max(norm(multiply(i0, u) - u), norm(multiply(u, i0) - u)), su)
    ch.add("conjugation_involution", norm(conjugate(ub) - u), su)
    ch.add("conjugation_formula", norm(ub - (2 * scalar_part(u) * i0 - u)), su)

    half_sum = (multiply(u1, conjugate(u2)) + multiply(u2, conjugate(u1))) / 2
    ch.add("inner_half_sum", norm(half_sum - inner(u1, u2) * i0), s1 * s2)
    ch.add("norm_sq_as_product",
           max(norm(multiply(u, ub) - norm_sq(u) * i0),
               norm(multiply(ub, u) - norm_sq(u) * i0)), su * su)

    p12, p21 = multiply(u1, u2), multiply(u2, u1)
    ch.add("product_reversal",
           norm(conjugate(p12) - multiply(conjugate(u2), conjugate(u1))), s1 * s2)
    ch.add("transfer_rule",
           max(abs(scalar_part(p12) - scalar_part(p21)),
               abs(scalar_part(p12) - inner(u1, conjugate(u2)))), s1 * s2)
    ch.add("trace_invariance",
           abs(scalar_part(multiply(multiply(u1, u), u2))
               - scalar_part(multiply(u1, multiply(u, u2)))), s1 * su * s2)

    sandwich = 2 * inner(u1, u) * u1 - norm_sq(u1) * u
    left = multiply(multiply(u1, ub), u1)
    right = multiply(u1, multiply(ub, u1))
    ch.add("sandwich", max(norm(left - sandwich), norm(right - sandwich)), s1 * s1 * su)
    ch.add("flexibility", norm(left - right), s1 * s1 * su)

    if dim <= 4:
        ch.add("associativity",
               norm(multiply(multiply(u1, u), u2) - multiply(u1, multiply(u, u2))),
               s1 * su * s2)

    ch.add("norm_multiplicativity",
           abs(norm_sq(p12) - norm_sq(u1) * norm_sq(u2)), (s1 * s2) ** 2)
    ch.add("spacetime_interval",
           abs(inner(u, ub) - spacetime_interval(u)), su * su)
    ch.add("imaginary_part",
           max(abs(inner(imaginary_part(u), i0)),
               norm(imaginary_part(u) + scalar_part(u) * i0 - u)), su)


# -- suite: triple decomposition ---------------------------------------------


def _decomposition_suite(dim: int, rng: np.random.Generator, ch: Channels) -> None:
    u1, u, u2, u3 = _draw(rng, dim, 4)
    s1, su, s2, s3 = norm(u1), norm(u), norm(u2), norm(u3)
    s = s1 * su * s2
    i0 = unit(dim)
    ub = conjugate(u)

    d = tp.decompose_triple(u1, u, u2)
    # the four bracket/order variants, by hand, are the inverse transform of the parts
    variants = (multiply(multiply(u1, ub), u2), multiply(multiply(u2, ub), u1),
                multiply(u2, multiply(ub, u1)), multiply(u1, multiply(ub, u2)))
    parts = np.array([d.anti.coeffs, d.assoc.coeffs, np.zeros(dim), d.comm.coeffs])
    ch.add("reconstruction", _row_norm(hd.transform(parts) - [p.coeffs for p in variants]), s)
    ch.add("stored_residual", d.residual, s)
    ch.add("parts_match_operations",
           max(norm(d.anti - tp.anticommutator3(u1, u, u2)),
               norm(d.comm - tp.commutator3(u1, u, u2)),
               norm(d.assoc - tp.associator3(u1, u, u2))), s)

    ch.add("orthogonality",
           max(abs(inner(d.anti, d.comm)),
               abs(inner(d.anti, d.assoc)),
               abs(inner(d.comm, d.assoc))), s * s)

    ch.add("half_form_agreement",
           max(norm(d.anti - tp.anticommutator3_alt(u1, u, u2)),
               norm(d.comm - tp.commutator3_alt(u1, u, u2)),
               norm(d.assoc - tp.associator3_alt(u1, u, u2))), s)
    ch.add("closed_forms",
           max(norm(d.anti - tp.anticommutator3_closed(u1, u, u2)),
               norm(d.comm - tp.commutator3_closed(u1, u, u2))), s)

    assoc_swap = norm(tp.associator3(u1, u, u2) + tp.associator3(u2, u, u1))
    ch.add("associator_cancellation", assoc_swap, s)
    ch.add("antisymmetry",
           max(norm(tp.commutator3(u1, u, u2) + tp.commutator3(u2, u, u1)), assoc_swap), s)
    ch.add("degenerate_pair",
           max(norm(tp.commutator3(u1, u, u1)), norm(tp.associator3(u1, u, u1))),
           s1 * s1 * su)

    for x, sx in ((u1, s1), (u, su), (u2, s2)):
        ch.add("commutator_argument_orthogonality", abs(inner(d.comm, x)), s * sx)
        ch.add("associator_argument_orthogonality", abs(inner(d.assoc, x)), s * sx)
    for x, sx in ((i0, 1.0), (tp.cross2(u1, u), s1 * su),
                  (tp.cross2(u1, u2), s1 * s2), (tp.cross2(u, u2), su * s2)):
        ch.add("associator_extended_orthogonality", abs(inner(d.assoc, x)), s * max(sx, 1e-30))

    ch.add("mixed_product_anticommutativity",
           max(abs(inner(tp.commutator3(u1, u, u2), u3) + inner(tp.commutator3(u3, u, u2), u1)),
               abs(inner(tp.associator3(u1, u, u2), u3) + inner(tp.associator3(u3, u, u2), u1))),
           s * s3)

    if dim <= 4:
        ch.add("associator_zero_low_dim", norm(d.assoc), s)

    ch.add("unit_center_reduction",
           max(norm(tp.commutator3(u1, i0, u2) - tp.cross2(u1, u2)),
               norm(tp.anticommutator3(u1, i0, u2) - (multiply(u1, u2) + multiply(u2, u1)) / 2),
               norm(tp.associator3(u1, i0, u2))), s1 * s2)

    ch.add("cross2_antisymmetry",
           max(norm(tp.cross2(u, u)), norm(tp.cross2(u1, u2) + tp.cross2(u2, u1))),
           max(su * su, s1 * s2))
    ch.add("cross2_unit", max(norm(tp.cross2(i0, u)), norm(tp.cross2(u, i0))), su)
    ch.add("cross2_orthogonal_to_unit", abs(scalar_part(tp.cross2(u1, u2))), s1 * s2)
    if dim == 4:
        classic = np.cross(u1.coeffs[1:], u2.coeffs[1:])
        ch.add("cross2_matches_3d_cross",
               float(np.max(np.abs(tp.cross2(u1, u2).coeffs[1:] - classic))), s1 * s2)

    ch.add("pair_product_expansion",
           norm(tp.pair_product_expansion(u1, u2) - multiply(u1, u2)), s1 * s2)


# -- suite: length formulas ---------------------------------------------------


def _lengths_suite(dim: int, rng: np.random.Generator, ch: Channels) -> None:
    u1, u, u2 = _draw(rng, dim, 3)
    s = norm(u1) * norm(u) * norm(u2)
    s2 = s * s
    d = tp.decompose_triple(u1, u, u2)
    prod_sq = norm_sq(u1) * norm_sq(u) * norm_sq(u2)

    a = tp.anticommutator3_norm_sq(u1, u, u2)
    c = tp.commutator3_norm_sq(u1, u, u2)
    x = tp.associator3_norm_sq(u1, u, u2)
    ch.add("anticommutator_length", abs(a - norm_sq(d.anti)), s2, factor=10.0)
    ch.add("commutator_length", abs(c - norm_sq(d.comm)), s2, factor=10.0)
    ch.add("associator_length", abs(x - norm_sq(d.assoc)), s2, factor=10.0)
    ch.add("length_sum", abs(a + c + x - prod_sq), s2, factor=10.0)
    ch.add("product_norm_multiplicativity",
           abs(norm_sq(multiply(multiply(u1, conjugate(u)), u2)) - prod_sq), s2, factor=10.0)

    ch.add("anticommutative_component",
           abs(tp.anticommutative_component_norm_sq(u1, u, u2) - norm_sq(d.comm + d.assoc)),
           s2, factor=10.0)
    lhs, rhs = tp.gram_det_imaginary_identity(u1, u, u2)
    ch.add("gram_half_difference", abs(lhs - rhs), s2, factor=10.0)
    ch.add("gram_positive_semidefinite", max(0.0, -tp.gram(u1, u, u2).det()), s2)


# -- suite: operator symmetry -------------------------------------------------


def _operator_suite(dim: int, rng: np.random.Generator, ch: Channels) -> None:
    u1, u2, u, v = _draw(rng, dim, 4)
    s_op = norm(u1) * norm(u2)
    s = s_op * norm(u)
    sv = s * norm(v)
    op = ops.TripleOperator(u1, u2)
    ub = conjugate(u)
    values_u = ops._word_values(op, u)
    values_v = ops._word_values(op, v)

    # derived closed forms against the seven tabulated ones, in ALL_WORDS
    # order (the eighth, +*v, is derived rather than tabulated)
    tab = (
        multiply(multiply(u1, ub), u2),                           # e
        multiply(multiply(u2, ub), u1),                           # +
        multiply(u2, multiply(ub, u1)),                           # *
        multiply(u1, multiply(ub, u2)),                           # +*
        multiply(conjugate(u2), multiply(ub, conjugate(u1))),     # v
        multiply(conjugate(u1), multiply(ub, conjugate(u2))),     # +v
        multiply(multiply(conjugate(u1), ub), conjugate(u2)),     # *v
    )
    ch.add("tabulated_closed_forms", _row_norm(values_u[:7] - [t.coeffs for t in tab]), s)

    # Hermitian pairing for every word: the +-partner (w ^ 1) is the true adjoint
    pairing = values_u @ v.coeffs - values_v[ops._WORD_INDEX ^ 1] @ u.coeffs
    ch.add("adjoint_pairing", float(np.max(np.abs(pairing))), sv)
    # matrix route: transpose of the materialized operator equals the +-partner
    diff = ops.materialize(op, ops.OpWord()).T - ops.materialize(op, ops.OpWord(plus=True))
    ch.add("adjoint_transpose", float(np.max(np.abs(diff))), s_op)

    # real-linearity of the transformed operators e and v in the operand
    alpha, beta = rng.standard_normal(2)
    mixed = ops._word_values(op, alpha * u + beta * v, (ops.OpWord(), ops.OpWord(vee=True)))
    s_mix = abs(alpha) * norm(u) + abs(beta) * norm(v)
    ch.add("linearity",
           _row_norm(mixed - (alpha * values_u[[0, 4]] + beta * values_v[[0, 4]])), s_op * s_mix)

    comps2 = ops._components(values_u[:4])
    comps3 = ops._components(values_u)

    # two-operation components against the triple products
    ch.add("component2_anticommutator",
           _row_norm(comps2[0] - tp.anticommutator3(u1, u, u2).coeffs), s)
    ch.add("component2_commutator", _row_norm(comps2[3] - tp.commutator3(u1, u, u2).coeffs), s)
    ch.add("component2_associator", _row_norm(comps2[1] - tp.associator3(u1, u, u2).coeffs), s)
    ch.add("component2_vanishing", _row_norm(comps2[2]), s)

    # the transform is its own inverse up to n: it maps the components back to the values
    ch.add("component2_reconstruction", _row_norm(hd.transform(comps2) - values_u[:4]), s)

    # three-operation components: reconstruction, telescoping, eigen-relations
    ch.add("component3_sum", _row_norm(comps3.sum(axis=0) - values_u[0]), s)
    ch.add("component3_public_api",
           _row_norm(ops.component3(op, ops.ALL_SIGN_TRIPLES[0], u).coeffs - comps3[0]), s)
    ch.add("component3_telescoping", _row_norm(comps3[:4] + comps3[4:] - comps2), s)

    eig = ops._eigen_residuals(values_u, values_v, u, v).max(axis=0)
    ch.add("component3_eigen_plus", eig[0], sv)
    ch.add("component3_eigen_star", eig[1], s)
    ch.add("component3_eigen_vee", eig[2], s)
    for signs, b_u in zip(ops.ALL_SIGN_TRIPLES, comps3):
        ch.add(f"info:three_op_norm{signs.label}", _row_norm(b_u), s)


def _row_norm(rows: np.ndarray) -> float:
    """Largest Euclidean norm along the last axis."""
    return float(np.max(np.linalg.norm(rows, axis=-1)))


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

    ch.add_exact("a4_printed", np.max(np.abs(a4.entries - _A4_PRINTED)))
    ch.add_exact("a8_row_ab", np.max(np.abs(a8.entries[3] - _A8_ROW_AB)))
    for m in (hd.build(2), a4, a8):
        ch.add_exact("inverse_up_to_factor",
                     np.max(np.abs(m.entries @ m.entries - m.n * np.eye(m.n, dtype=np.int64))))
        ch.add_exact("symmetric", 0 if m.is_symmetric() else 1)
        ch.add_exact("normalized",
                     np.max(np.abs(np.concatenate([m.entries[0], m.entries[:, 0]]) - 1)))
        ch.add_exact("row_group", 0 if hd.row_group_check(m) else 1)

    flipped = a8.entries.copy()
    flipped[3, 5] = -flipped[3, 5]
    ch.add_exact("row_group_detects_flip",
                 1 if hd.row_group_check(hd.SignMatrix(8, flipped)) else 0)

    perms = hd.doubling_order_permutations(a8)
    ch.add_exact("automorphism_count", abs(len(perms) - 168))
    sym, asym = hd.classify_symmetry(perms, a8)
    ch.add_exact("symmetric_count", abs(sym - 28))
    ch.add_exact("asymmetric_count", abs(asym - 140))

    perm_set = {p.map for p in perms}
    ch.add_exact("identity_included", 0 if tuple(range(8)) in perm_set else 1)
    # one row per map, coded as base-8 digits; table[:, table][a, b] is
    # table[b] followed by table[a], so every ordered pair is composed
    table = np.array([p.map for p in perms], dtype=np.intp)
    weights = 8 ** np.arange(8)
    for name, maps in (("group_closure", table[:, table]),
                       ("group_inverse", np.argsort(table, axis=1))):
        ch.add_exact(name, np.count_nonzero(~np.isin(maps @ weights, table @ weights)))

    csp4 = {p.map for p in hd.column_set_preserving_permutations(a4)}
    fixing = {(0,) + rest for rest in
              ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))}
    ch.add_exact("a4_row_fixing_permutations", len(fixing - csp4))
    ch.note("column_set_preserving_count_order4", len(csp4))
    # the brute force is exactly the set of column-preserving permutations
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


def _bridge_suite(dim: int, rng: np.random.Generator, ch: Channels) -> None:
    u1, u, u2 = _draw(rng, dim, 3)
    s = norm(u1) * norm(u) * norm(u2)
    si = max(norm(imaginary_part(u1)) * norm(imaginary_part(u)) * norm(imaginary_part(u2)),
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
    per_trial: Callable | None = None
    once: Callable | None = None
    postprocess: Callable | None = None


_SUITES = (
    _Suite("core", per_trial=_core_suite),
    _Suite("decomposition", per_trial=_decomposition_suite),
    _Suite("lengths", per_trial=_lengths_suite),
    _Suite("operator", per_trial=_operator_suite, postprocess=_operator_details),
    _Suite("hadamard", once=_hadamard_suite),
    _Suite("bridge", per_trial=_bridge_suite, postprocess=_bridge_details),
)

SUITE_INDEX = {s.name: i for i, s in enumerate(_SUITES)}
SUITE_NAMES = tuple(s.name for s in _SUITES)


def _run_suite(suite: _Suite, config: RunConfig, dim: int) -> VerificationReport:
    ch = Channels(config.tolerance)
    idx = SUITE_INDEX[suite.name]
    if suite.once is not None:
        suite.once(ch)
        trials = 1
        bar = 0.0
    else:
        for t in range(config.trials):
            rng = trial_generator(config.seed, idx, t)
            suite.per_trial(dim, rng, ch)
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
