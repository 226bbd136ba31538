"""Each public Hyper function against its array form, row by row, and the
dimension check and result type that `core._lift` adds around it.

This module is the one home of the wrapper checks.  The verify suites call
the array forms on (trials, dim) blocks; the public functions call them on
single vectors.  Verify runs trial 0 through the public API only where the
benchmark's call tracer still times the public functions (the
decomposition, lengths and bridge suites) and for `component3_public_api`,
the first operator component against the mean of the eight `apply` values.
Block rows may differ from the single-vector result in the last bits (a
batched matmul sums in its own order), so rows are compared within a bound
set from float64 epsilon and the function's degree in its arguments.
"""

import numpy as np
import pytest

from octotriple import bridge, core, operators, triple
from octotriple.core import DimensionError, Hyper

RNG = np.random.default_rng(5150)
ROWS = 16
# |error| <= 64 eps * (product of argument norms)^power
BOUND = 64 * np.finfo(float).eps

# (public function, its array form, arguments, degree of the result in the
# product of argument norms)
CASES = [
    (core.multiply, core._multiply, 2, 1),
    (core.conjugate, core._conjugate, 1, 1),
    (core.inner, core._inner, 2, 1),
    (core.norm_sq, core._norm_sq, 1, 2),
    (core.norm, core._norm, 1, 1),
    (core.imaginary_part, core._imaginary_part, 1, 1),
    (core.spacetime_interval, core._spacetime_interval, 1, 2),
    (triple.cross2, triple._cross2, 2, 1),
    (triple.pair_product_expansion, triple._pair_product_expansion, 2, 1),
    *((getattr(triple, name), getattr(triple, "_" + name), 3, 1) for name in (
        "anticommutator3", "anticommutator3_alt", "anticommutator3_closed",
        "associator3", "associator3_alt", "commutator3", "commutator3_alt",
        "commutator3_closed")),
    *((getattr(triple, name), getattr(triple, "_" + name), 3, 2) for name in (
        "anticommutator3_norm_sq", "commutator3_norm_sq", "associator3_norm_sq",
        "anticommutative_component_norm_sq")),
    *((getattr(bridge, name), getattr(bridge, "_" + name), 3, 1) for name in (
        "bac_cab_residual", "okubo_reconstruction_residual", "okubo_bracket",
        "okubo_bracket_display_residual", "dray_manogue_cross", "dray_manogue_residual")),
]


def _as_array(result):
    return result.coeffs if isinstance(result, Hyper) else np.asarray(result)


@pytest.mark.parametrize("dim", (1, 2, 4, 8))
@pytest.mark.parametrize("public, array_form, arity, power", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_block_rows_match_the_public_function(public, array_form, arity, power, dim):
    blocks = RNG.standard_normal((arity, ROWS, dim))
    got = array_form(*blocks)
    for t in range(ROWS):
        want = _as_array(public(*(Hyper(dim, b[t]) for b in blocks)))
        scale = np.prod([np.linalg.norm(b[t]) for b in blocks]) ** power
        np.testing.assert_allclose(got[t], want, rtol=0, atol=BOUND * scale)


@pytest.mark.parametrize("public, array_form, arity, power", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_public_function_checks_dimensions_and_wraps_the_result(public, array_form, arity,
                                                                power):
    vectors = RNG.standard_normal((arity, 4))
    args = [Hyper(4, x) for x in vectors]
    for i in range(arity if arity > 1 else 0):   # one argument has no other to disagree with
        with pytest.raises(DimensionError):
            public(*args[:i], Hyper.zero(8), *args[i + 1:])
    out = public(*args)
    if np.ndim(array_form(*vectors)) == 1:
        assert isinstance(out, Hyper) and out.dim == 4
    else:
        assert type(out) is float


@pytest.mark.parametrize("dim", (4, 8))
def test_block_rows_match_decompose_gram_and_operators(dim):
    u1, u, u2, v = RNG.standard_normal((4, ROWS, dim))
    anti, comm, assoc, residual = triple._decompose_triple(u1, u, u2)
    lhs, rhs = triple._gram_det_imaginary_identity(u1, u, u2)
    grams = triple._gram(u1, u, u2), triple._gram_imaginary(u1, u, u2)
    plus, star, vee = operators._eigen_residuals(operators._word_values(u1, u2, u),
                                                 operators._word_values(u1, u2, v), u, v)
    for t in range(ROWS):
        h1, h, h2, hv = (Hyper(dim, x[t]) for x in (u1, u, u2, v))
        scale = np.linalg.norm(u1[t]) * np.linalg.norm(u[t]) * np.linalg.norm(u2[t])
        atol = BOUND * scale
        d = triple.decompose_triple(h1, h, h2)
        for block, part in ((anti, d.anti), (comm, d.comm), (assoc, d.assoc)):
            np.testing.assert_allclose(block[t], part.coeffs, rtol=0, atol=atol)
        assert residual[t] <= atol and d.residual <= atol
        np.testing.assert_allclose((lhs[t], rhs[t]),
                                   triple.gram_det_imaginary_identity(h1, h, h2),
                                   rtol=0, atol=BOUND * scale ** 2)
        np.testing.assert_allclose(grams[0][t], triple.gram(h1, h, h2).entries,
                                   rtol=0, atol=BOUND * scale)
        np.testing.assert_allclose(grams[1][t], triple.gram_imaginary(h1, h, h2).entries,
                                   rtol=0, atol=BOUND * scale)
        op = operators.TripleOperator(h1, h2)
        for g, signs in enumerate(operators.ALL_SIGN_TRIPLES):
            # the block hands over differences; the public function reduces its own row
            row = (abs(plus[g, t]), np.linalg.norm(star[g, t]), np.linalg.norm(vee[g, t]))
            np.testing.assert_allclose(
                row, operators.component3_eigen_residuals(op, signs, h, hv),
                rtol=0, atol=atol * np.linalg.norm(v[t]))


@pytest.mark.parametrize("dim", (1, 2, 4, 8))
def test_block_rows_match_the_operator_functions(dim):
    u1, u2, u, v = RNG.standard_normal((4, ROWS, dim))
    values_u = operators._word_values(u1, u2, u)
    values_v = operators._word_values(u1, u2, v)
    comps2, comps3 = operators._components(values_u[:4]), operators._components(values_u)
    mats = [operators._materialize(u1, u2, w) for w in operators.ALL_WORDS]
    for t in range(ROWS):
        h1, h2, h, hv = (Hyper(dim, x[t]) for x in (u1, u2, u, v))
        op = operators.TripleOperator(h1, h2)
        s_op = np.linalg.norm(u1[t]) * np.linalg.norm(u2[t])
        atol = BOUND * s_op * np.linalg.norm(u[t])
        for w, word in enumerate(operators.ALL_WORDS):
            np.testing.assert_allclose(operators.apply(op, word, h).coeffs, values_u[w, t],
                                       rtol=0, atol=atol)
            np.testing.assert_allclose(operators.materialize(op, word), mats[w][t],
                                       rtol=0, atol=BOUND * s_op)
            # the +-partner of word w is word w ^ 1
            pairing = abs(core._inner(values_u[w, t], v[t])
                          - core._inner(values_v[w ^ 1, t], u[t]))
            np.testing.assert_allclose(operators.adjoint_residual(op, h, hv, word), pairing,
                                       rtol=0, atol=atol * np.linalg.norm(v[t]))
        for g, signs in enumerate(operators.ALL_SIGN_TRIPLES):
            if g < 4:   # the two-operation rows: eps_v is +1
                np.testing.assert_allclose(
                    operators.component2(op, signs.eps_plus, signs.eps_star, h).coeffs,
                    comps2[g, t], rtol=0, atol=atol)
            np.testing.assert_allclose(operators.component3(op, signs, h).coeffs,
                                       comps3[g, t], rtol=0, atol=atol)


@pytest.mark.parametrize("dim", (1, 2, 4, 8))
@pytest.mark.parametrize("rows", ((), (1,), (40,)), ids=("vector", "1-row", "40-row"))
def test_gram_imaginary_is_the_gram_of_the_vectors_without_index_0(rows, dim):
    # the rows of one stacked matrix, sliced, round as the sliced vectors stacked
    u1, u, u2 = RNG.standard_normal((3, *rows, dim))
    got = triple._gram_imaginary(u1, u, u2)
    want = triple._gram(u1[..., 1:], u[..., 1:], u2[..., 1:])
    assert got.shape == want.shape == (*rows, 3, 3)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scalar", (np.array(2.5), np.float64(2.5), 2.5),
                         ids=("0-d", "float64", "float"))
def test_lift_returns_a_python_float_for_every_scalar_kind(scalar):
    def _scalar(x):
        return scalar

    out = core._lift(_scalar)(Hyper(4, RNG.standard_normal(4)))
    assert type(out) is float and out == 2.5


def test_lift_returns_a_hyper_for_a_vector_result():
    def _double(x):
        return 2 * x

    x = RNG.standard_normal(4)
    out = core._lift(_double)(Hyper(4, x))
    assert isinstance(out, Hyper) and out.dim == 4
    assert out.coeffs.tobytes() == (2 * x).tobytes() and not out.coeffs.flags.writeable
