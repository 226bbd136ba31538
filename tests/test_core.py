import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octotriple.core import (
    DimensionError,
    Hyper,
    Tolerance,
    VALID_DIMS,
    _multiply,
    conjugate,
    embed,
    imaginary_part,
    inner,
    multiply,
    norm,
    norm_sq,
    scalar_part,
    spacetime_interval,
    unit,
)

from cd_oracle import basis_table, omul, ovec

RNG = np.random.default_rng(20260809)


def rand(dim, scale=1.0):
    return Hyper(dim, scale * RNG.standard_normal(dim))


coeff_st = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def hyper_st(dims=VALID_DIMS):
    return st.sampled_from(dims).flatmap(
        lambda d: st.lists(coeff_st, min_size=d, max_size=d).map(lambda c: Hyper(d, c))
    )


# -- construction and validation ----------------------------------------------


def test_unit_is_first_basis_vector():
    for dim in VALID_DIMS:
        u = unit(dim)
        assert u.coeffs[0] == 1.0
        assert np.all(u.coeffs[1:] == 0.0)


@pytest.mark.parametrize("dim", [0, 3, 5, 16, -1])
def test_invalid_dimension_rejected(dim):
    with pytest.raises(DimensionError):
        unit(dim)


def test_wrong_length_coeffs_rejected():
    with pytest.raises(ValueError):
        Hyper(4, [1.0, 2.0])


def test_non_finite_coeffs_rejected():
    with pytest.raises(ValueError):
        Hyper(2, [1.0, float("nan")])
    with pytest.raises(ValueError):
        Hyper(2, [float("inf"), 0.0])
    with pytest.raises(ValueError):
        Hyper(1, [10**400])   # an exact integer beyond the float range


@pytest.mark.parametrize("coeffs", (["1", "2e3"], [True, False], [b"1", b"2"], [1 + 2j, 0]),
                         ids=("str", "bool", "bytes", "complex"))
def test_non_real_coeffs_rejected(coeffs):
    with pytest.raises(ValueError, match="real numbers"):
        Hyper(2, coeffs)


def test_integer_coeffs_within_the_float_range_accepted():
    assert Hyper(2, [1, 10**20]).coeffs.tolist() == [1.0, 1e20]
    assert Hyper(2, [np.int64(3), np.int32(-2)]).coeffs.tolist() == [3.0, -2.0]


def test_coeffs_are_read_only():
    u = rand(8)
    with pytest.raises(ValueError):
        u.coeffs[0] = 5.0


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        multiply(unit(4), unit(8))
    with pytest.raises(DimensionError):
        inner(unit(2), unit(4))
    with pytest.raises(DimensionError):
        unit(4) + unit(8)


# -- multiplication against the exact oracle ----------------------------------


@pytest.mark.parametrize("dim", VALID_DIMS)
def test_basis_products_match_oracle(dim):
    table = basis_table(dim)
    for (i, j), (k, sign) in table.items():
        got = multiply(Hyper.basis(dim, i), Hyper.basis(dim, j))
        expected = np.zeros(dim)
        expected[k] = sign
        np.testing.assert_array_equal(got.coeffs, expected)


def test_quaternion_hand_table():
    i = [Hyper.basis(4, k) for k in range(4)]
    np.testing.assert_array_equal(multiply(i[1], i[2]).coeffs, i[3].coeffs)
    np.testing.assert_array_equal(multiply(i[2], i[1]).coeffs, (-i[3]).coeffs)
    np.testing.assert_array_equal(multiply(i[2], i[3]).coeffs, i[1].coeffs)
    np.testing.assert_array_equal(multiply(i[3], i[1]).coeffs, i[2].coeffs)
    for k in range(1, 4):
        np.testing.assert_array_equal(multiply(i[k], i[k]).coeffs, (-i[0]).coeffs)


def test_imaginary_units_square_to_minus_one():
    for dim in (2, 4, 8):
        for k in range(1, dim):
            sq = multiply(Hyper.basis(dim, k), Hyper.basis(dim, k))
            np.testing.assert_array_equal(sq.coeffs, -unit(dim).coeffs)


def test_random_products_match_oracle():
    # integer coefficients keep the oracle exact
    for dim in (4, 8):
        for _ in range(20):
            a = RNG.integers(-5, 6, size=dim)
            b = RNG.integers(-5, 6, size=dim)
            expected = [float(x) for x in omul(ovec(a), ovec(b))]
            got = multiply(Hyper(dim, a.astype(float)), Hyper(dim, b.astype(float)))
            np.testing.assert_array_equal(got.coeffs, expected)


@pytest.mark.parametrize("rows", (1, 40))
@pytest.mark.parametrize("dim", VALID_DIMS)
def test_block_product_matches_scalar_multiply_and_oracle(dim, rows):
    # integer coefficients: every row must equal the scalar product and the oracle exactly
    a = RNG.integers(-5, 6, size=(rows, dim)).astype(float)
    b = RNG.integers(-5, 6, size=(rows, dim)).astype(float)
    got = _multiply(a, b)
    assert got.shape == (rows, dim)
    for t in range(rows):
        np.testing.assert_array_equal(got[t], multiply(Hyper(dim, a[t]), Hyper(dim, b[t])).coeffs)
        np.testing.assert_array_equal(got[t], [float(x) for x in omul(ovec(a[t]), ovec(b[t]))])
    # normal coefficients: each entry is a signed sum of dim rounded products,
    # so it is within dim * eps * |a| |b| of the exact value
    a = RNG.standard_normal((rows, dim))
    b = RNG.standard_normal((rows, dim))
    got = _multiply(a, b)
    for t in range(rows):
        bound = dim * np.finfo(float).eps * np.linalg.norm(a[t]) * np.linalg.norm(b[t])
        scalar = multiply(Hyper(dim, a[t]), Hyper(dim, b[t])).coeffs
        assert np.max(np.abs(got[t] - scalar)) <= bound
        exact = omul(ovec(a[t]), ovec(b[t]))
        assert max(abs(Fraction(x) - e) for x, e in zip(got[t], exact)) <= bound


def test_unit_law_random():
    for dim in VALID_DIMS:
        u = rand(dim)
        np.testing.assert_allclose(multiply(unit(dim), u).coeffs, u.coeffs, atol=0)
        np.testing.assert_allclose(multiply(u, unit(dim)).coeffs, u.coeffs, atol=0)


# -- conjugation, inner product, norms -----------------------------------------


def test_conjugate_examples():
    np.testing.assert_array_equal(conjugate(unit(4)).coeffs, unit(4).coeffs)
    u = Hyper(2, [3.0, 2.0])
    np.testing.assert_array_equal(conjugate(u).coeffs, [3.0, -2.0])


@given(hyper_st())
def test_conjugate_is_involution(u):
    np.testing.assert_array_equal(conjugate(conjugate(u)).coeffs, u.coeffs)


@given(hyper_st())
def test_conjugate_formula(u):
    expected = 2 * scalar_part(u) * unit(u.dim) - u
    np.testing.assert_array_equal(conjugate(u).coeffs, expected.coeffs)


def test_inner_examples():
    assert inner(unit(4), unit(4)) == 1.0
    assert inner(Hyper.basis(4, 1), Hyper.basis(4, 2)) == 0.0


def test_inner_equals_real_part_of_conjugated_product():
    for dim in VALID_DIMS:
        for _ in range(20):
            u1, u2 = rand(dim), rand(dim)
            direct = inner(u1, u2)
            via_product = scalar_part(multiply(u1, conjugate(u2)))
            assert math.isclose(direct, via_product, rel_tol=1e-12, abs_tol=1e-12)


def test_norm_sq_examples():
    assert norm_sq(unit(8)) == 1.0
    assert norm_sq(Hyper.zero(4)) == 0.0


def test_norm_sq_product_is_scalar():
    u = rand(8)
    prod = multiply(u, conjugate(u))
    np.testing.assert_allclose(prod.coeffs, norm_sq(u) * unit(8).coeffs,
                               atol=1e-12 * norm_sq(u))


@given(hyper_st(dims=(8,)), hyper_st(dims=(8,)))
@settings(max_examples=200)
def test_norm_multiplicativity(u1, u2):
    scale = (norm(u1) * norm(u2)) ** 2
    assert abs(norm_sq(multiply(u1, u2)) - norm_sq(u1) * norm_sq(u2)) <= 1e-12 + 1e-9 * scale


def test_imaginary_part_examples():
    np.testing.assert_array_equal(imaginary_part(unit(4)).coeffs, Hyper.zero(4).coeffs)
    u = Hyper(4, [2.0, 0.0, 0.0, 5.0])
    np.testing.assert_array_equal(imaginary_part(u).coeffs, [0.0, 0.0, 0.0, 5.0])


@given(hyper_st())
def test_imaginary_part_properties(u):
    im = imaginary_part(u)
    assert inner(im, unit(u.dim)) == 0.0
    np.testing.assert_array_equal((im + scalar_part(u) * unit(u.dim)).coeffs, u.coeffs)
    np.testing.assert_array_equal(imaginary_part(im).coeffs, im.coeffs)


def test_spacetime_interval_examples():
    assert spacetime_interval(unit(4)) == 1.0
    assert spacetime_interval(Hyper.basis(4, 1)) == -1.0


def test_spacetime_interval_matches_direct_inner():
    for dim in VALID_DIMS:
        for _ in range(20):
            u = rand(dim, scale=3.0)
            direct = inner(u, conjugate(u))
            assert math.isclose(direct, spacetime_interval(u),
                                rel_tol=1e-12, abs_tol=1e-12)


# -- elementary identities ------------------------------------------------------


@pytest.mark.parametrize("dim", (4, 8))
def test_product_reversal(dim):
    for _ in range(50):
        u1, u2 = rand(dim), rand(dim)
        lhs = conjugate(multiply(u1, u2))
        rhs = multiply(conjugate(u2), conjugate(u1))
        assert norm(lhs - rhs) <= 1e-12 + 1e-9 * norm(u1) * norm(u2)


@pytest.mark.parametrize("dim", (4, 8))
def test_transfer_rules(dim):
    for _ in range(50):
        u1, u2 = rand(dim), rand(dim)
        scale = norm(u1) * norm(u2)
        a = scalar_part(multiply(u1, u2))
        b = scalar_part(multiply(u2, u1))
        c = inner(u1, conjugate(u2))
        assert abs(a - b) <= 1e-12 + 1e-9 * scale
        assert abs(a - c) <= 1e-12 + 1e-9 * scale


@pytest.mark.parametrize("dim", (4, 8))
def test_triple_trace_invariance(dim):
    for _ in range(50):
        u1, u, u2 = rand(dim), rand(dim), rand(dim)
        scale = norm(u1) * norm(u) * norm(u2)
        a = scalar_part(multiply(multiply(u1, u), u2))
        b = scalar_part(multiply(u1, multiply(u, u2)))
        assert abs(a - b) <= 1e-12 + 1e-9 * scale


@pytest.mark.parametrize("dim", (4, 8))
def test_sandwich_identity_and_flexibility(dim):
    for _ in range(50):
        u1, u = rand(dim), rand(dim)
        scale = norm_sq(u1) * norm(u)
        target = 2 * inner(u1, u) * u1 - norm_sq(u1) * u
        left = multiply(multiply(u1, conjugate(u)), u1)
        right = multiply(u1, multiply(conjugate(u), u1))
        assert norm(left - target) <= 1e-12 + 1e-9 * scale
        assert norm(right - target) <= 1e-12 + 1e-9 * scale
        assert norm(left - right) <= 1e-12 + 1e-9 * scale


def test_quaternion_associativity():
    for dim in (1, 2, 4):
        for _ in range(50):
            a, b, c = rand(dim), rand(dim), rand(dim)
            lhs = multiply(multiply(a, b), c)
            rhs = multiply(a, multiply(b, c))
            assert norm(lhs - rhs) <= 1e-12 + 1e-9 * norm(a) * norm(b) * norm(c)


def test_octonions_are_not_associative():
    i = [Hyper.basis(8, k) for k in range(8)]
    lhs = multiply(multiply(i[1], i[2]), i[4])
    rhs = multiply(i[1], multiply(i[2], i[4]))
    assert norm(lhs - rhs) > 1.0


# -- embed ----------------------------------------------------------------------


def test_embed_widens_with_zero_padding():
    u = Hyper(2, [1.5, -2.0])
    wide = embed(u, 8)
    np.testing.assert_array_equal(wide.coeffs, [1.5, -2.0, 0, 0, 0, 0, 0, 0])
    assert embed(u, 2) is u


def test_embed_rejects_narrowing_and_bad_dims():
    with pytest.raises(DimensionError):
        embed(unit(8), 4)
    with pytest.raises(DimensionError):
        embed(unit(4), 6)


def test_embedded_values_multiply_consistently():
    for _ in range(20):
        a, b = rand(4), rand(4)
        wide = multiply(embed(a, 8), embed(b, 8))
        np.testing.assert_allclose(wide.coeffs[:4], multiply(a, b).coeffs,
                                   atol=1e-12 * norm(a) * norm(b))
        np.testing.assert_array_equal(wide.coeffs[4:], np.zeros(4))


# -- tolerance -------------------------------------------------------------------


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(rel=1e-9, abs=-1.0)
    for rel, abs_ in ((float("inf"), 1e-12), (float("nan"), 1e-12),
                      (1e-9, float("nan")), (1e-9, float("inf"))):
        with pytest.raises(ValueError):
            Tolerance(rel=rel, abs=abs_)
    t = Tolerance(rel=1e-6, abs=1e-9)
    assert t.bound(10.0) == 1e-9 + 1e-6 * 10.0
    assert t.close(1.0, 1.0 + 1e-7, scale=1000.0)
    assert not t.close(1.0, 2.0, scale=1.0)


# -- serialization ----------------------------------------------------------------


def test_json_round_trip():
    u = Hyper(4, [1.0, -2.5, 0.0, 3.25])
    again = Hyper.from_json(u.to_json())
    assert again.dim == 4
    np.testing.assert_array_equal(again.coeffs, u.coeffs)


def test_json_rejects_non_finite_coefficients():
    # the product overflows; strict JSON has no NaN or Infinity
    u = Hyper(8, [1e200] * 8)
    with np.errstate(over="ignore", invalid="ignore"):
        square = u * u
    with pytest.raises(ValueError):
        square.to_json()


@given(hyper_st())
def test_json_round_trip_random(u):
    again = Hyper.from_json(u.to_json())
    np.testing.assert_array_equal(again.coeffs, u.coeffs)


@pytest.mark.parametrize("payload,fragment", [
    ('{"coeffs": [1, 0]}', "dim"),
    ('{"dim": 2}', "coeffs"),
    ('{"dim": 3, "coeffs": [1, 0, 0]}', "dimension"),
    ('{"dim": 4, "coeffs": [1, 0]}', "coeffs"),
    ('{"dim": 2, "coeffs": [1, "x"]}', "coeffs[1]"),
    ('{"dim": 2, "coeffs": [1, NaN]}', "coeffs[1]"),
    ('{"dim": 2, "coeffs": [1, Infinity]}', "coeffs[1]"),
    pytest.param('{"dim": 2, "coeffs": [1, 1' + "0" * 400 + ']}', "coeffs[1]",
                 id="integer_beyond_float_range"),
    ('[1, 2]', "object"),
    ('{"dim": true, "coeffs": [1]}', "dim"),
])
def test_json_rejects_malformed(payload, fragment):
    with pytest.raises(ValueError) as err:
        Hyper.from_json(payload)
    assert fragment in str(err.value)


def test_json_rejects_invalid_syntax():
    with pytest.raises(ValueError):
        Hyper.from_json("{not json")
