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
    _product_tables,
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


@pytest.mark.parametrize("dim", [0, 3, 5, 16, -1, True, 4.0])
def test_invalid_dimension_rejected(dim):
    with pytest.raises(DimensionError):
        unit(dim)


@pytest.mark.parametrize("index", [True, False, 1.0, np.float64(2.0), "1", -1, 4])
def test_invalid_basis_index_rejected(index):
    # numpy reads True as a mask, so basis(4, True) was the all-ones vector
    with pytest.raises(ValueError, match="basis index must be an integer"):
        Hyper.basis(4, index)


def test_basis_accepts_numpy_integers():
    assert np.array_equal(Hyper.basis(4, np.int64(2)).coeffs, [0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(Hyper.basis(2, np.uint8(1)).coeffs, [0.0, 1.0])


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


@pytest.mark.parametrize("coeffs", ([1.5, True], [10**20, "5"], (2.0, np.bool_(False)),
                                    [10**20, b"5"], np.array([1.5, True], dtype=object),
                                    [1.5, None], [1.5, {}]),
                         ids=("bool_among_floats", "str_beside_a_big_int", "numpy_bool",
                              "bytes_beside_a_big_int", "object_array", "none", "dict"))
def test_a_bool_or_text_element_among_numbers_is_rejected(coeffs):
    # numpy would take these as float64 [1.5, 1.0], parse the text through the
    # object dtype, or fail on None or a dict with an error of its own;
    # Hyper.from_dict rejects the same elements
    with pytest.raises(ValueError, match=r"coeffs\[1\] must be a real number"):
        Hyper(2, coeffs)


@pytest.mark.parametrize("coeffs", ([1, "x"], [1, float("nan")], [1, float("-inf")],
                                    [1, 10**400], [1, [2, 3]]),
                         ids=("text", "nan", "infinity", "integer_beyond_float_range", "ragged"))
def test_a_rejected_element_is_named_by_its_index(coeffs):
    with pytest.raises(ValueError, match=r"^coeffs\[1\] must be"):
        Hyper(2, coeffs)


def test_integer_coeffs_within_the_float_range_accepted():
    assert Hyper(2, [1, 10**20]).coeffs.tolist() == [1.0, 1e20]
    assert Hyper(2, [np.int64(3), np.int32(-2)]).coeffs.tolist() == [3.0, -2.0]


def test_fractions_and_numpy_floats_accepted():
    assert Hyper(2, [Fraction(1, 2), np.float32(0.25)]).coeffs.tolist() == [0.5, 0.25]
    assert Hyper(np.int64(2), [1.0, 2.0]).dim == 2


@pytest.mark.parametrize("dim", (np.int64(4), np.uint8(4), np.int32(4)))
def test_a_numpy_dim_is_stored_as_an_int(dim):
    # a numpy dim would reach to_json, which has no encoder for it
    made = (Hyper(dim, [1.0, 2.0, 3.0, 4.0]), Hyper.zero(dim), Hyper.basis(dim, 1), unit(dim),
            embed(Hyper(2, [1.0, 2.0]), dim))
    for u in made:
        assert type(u.dim) is int
        assert Hyper.from_json(u.to_json()).to_json() == u.to_json()
    assert made[0].to_json() == Hyper(4, [1.0, 2.0, 3.0, 4.0]).to_json()


def test_coeffs_are_read_only():
    u = rand(8)
    with pytest.raises(ValueError):
        u.coeffs[0] = 5.0


@pytest.fixture
def checked_route_calls(monkeypatch):
    """Arrays that `Hyper(...)` sent through its checked conversion route."""
    calls = []
    checked = Hyper._checked_float64

    def spy(self, arr):
        calls.append(arr.dtype)
        return checked(self, arr)

    monkeypatch.setattr(Hyper, "_checked_float64", spy)
    return calls


def test_float64_array_takes_the_short_route_and_is_copied(checked_route_calls):
    src = RNG.standard_normal(4)
    u = Hyper(4, src)
    assert checked_route_calls == []
    assert not np.shares_memory(u.coeffs, src) and src.flags.writeable
    want = src.copy()
    src[:] = 7.0
    assert np.array_equal(u.coeffs, want)
    assert not u.coeffs.flags.writeable
    with pytest.raises(ValueError):
        u.coeffs[0] = 5.0


@pytest.mark.parametrize("coeffs", ([1.0, float("nan")], [float("-inf"), 0.0],
                                    [[1.0, 2.0]], [1.0, 2.0, 3.0]),
                         ids=("nan", "inf", "2-d", "wrong_length"))
def test_short_route_rejects_as_the_checked_route_does(coeffs, checked_route_calls):
    with pytest.raises(ValueError) as short:
        Hyper(2, np.array(coeffs, dtype=np.float64))
    assert checked_route_calls == []
    with pytest.raises(ValueError) as checked:
        Hyper(2, coeffs)
    assert len(checked_route_calls) == 1
    assert str(short.value) == str(checked.value)


@pytest.mark.parametrize("coeffs", (np.array([0.5, 0.25], dtype=np.float32),
                                    np.array([3, -2]), np.array([0.5, Fraction(1, 4)],
                                                                dtype=object)),
                         ids=("float32", "int", "object"))
def test_other_arrays_take_the_checked_route(coeffs, checked_route_calls):
    assert Hyper(2, coeffs).coeffs.tolist() == [float(x) for x in coeffs]
    assert checked_route_calls == [coeffs.dtype]


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        multiply(unit(4), unit(8))
    with pytest.raises(DimensionError):
        inner(unit(2), unit(4))
    with pytest.raises(DimensionError):
        unit(4) + unit(8)


@pytest.mark.parametrize("add", (lambda u: u + 1, lambda u: u - 1.0, lambda u: 1 + u,
                                 lambda u: 2.0 - u),
                         ids=("add int", "sub float", "radd int", "rsub float"))
def test_adding_what_is_not_a_hyper_raises_type_error(add):
    # a scalar is no Hyper: add it as a multiple of unit(dim), say, not by broadcasting
    with pytest.raises(TypeError, match="unsupported operand"):
        add(unit(4))


@pytest.mark.parametrize("scalar", (2, 2.0, np.int64(2), np.float32(2.0), np.float64(2.0),
                                    Fraction(2)),
                         ids=("int", "float", "numpy_int", "numpy_float32", "numpy_float64",
                              "fraction"))
def test_a_real_scalar_scales_a_hyper(scalar):
    u = Hyper(4, [1.0, -2.0, 0.5, 3.0])
    for scaled in (u * scalar, scalar * u):
        assert type(scaled) is Hyper and scaled.coeffs.tolist() == [2.0, -4.0, 1.0, 6.0]
    assert (u / scalar).coeffs.tolist() == [0.5, -1.0, 0.25, 1.5]


def test_an_array_is_no_scalar_operand():
    # numpy broadcast a Hyper over an array operand into an object array of Hypers
    u = Hyper.basis(4, 1)
    for op in (lambda: np.ones(2) * u, lambda: u * np.ones(2)):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("scalar", (True, False, np.True_, np.False_))
def test_a_bool_is_no_scalar_operand(scalar):
    # True == 1, so u * True returned u and u / False inf and NaN coefficients
    u = Hyper.basis(4, 1)
    for op in (lambda: u * scalar, lambda: scalar * u, lambda: u / scalar):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("zero", (0, 0.0, -0.0, np.float64(0.0), Fraction(0)),
                         ids=("int", "float", "negative_float", "numpy_float", "fraction"))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_division_by_zero_raises_as_float_division_does(zero):
    with pytest.raises(ZeroDivisionError):
        Hyper.basis(4, 1) / zero


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


@pytest.mark.parametrize("dim", VALID_DIMS)
def test_block_product_rounds_as_the_sequential_sum(dim):
    # a block of two or more rows gathers b[..., xor] laid out (i, k, rows), which sends
    # the batched matmul to numpy's own loop: out[:, k] sums a[:, i] * g[:, i, k] from 0,
    # in order of i.  A block of one row rounds as the 1-D (BLAS) product instead, and
    # may differ from its own row inside a larger block
    xor, sign = _product_tables(dim)
    rng = np.random.default_rng(dim)
    for rows in (2, 3, 40, 1000):
        a, b = rng.standard_normal((2, rows, dim))
        sequential = np.zeros((rows, dim))
        for i in range(dim):
            sequential += a[:, i, None] * (sign[i] * b[:, xor[i]])
        assert _multiply(a, b).tobytes() == sequential.tobytes()
    a, b = rng.standard_normal((2, 200, dim))
    for t in range(200):
        assert _multiply(a[t:t + 1], b[t:t + 1]).tobytes() == _multiply(a[t], b[t]).tobytes()


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


@pytest.mark.parametrize("field", ({"rel": True}, {"abs": False}, {"abs": np.bool_(True)},
                                   {"rel": "1e-9"}, {"abs": None}),
                         ids=("rel_true", "abs_false", "abs_numpy_bool", "rel_text", "abs_none"))
def test_tolerance_rejects_what_is_not_a_real_number(field):
    # True == 1, so a bool passed the range checks and a report printed "tolerance_used": true
    with pytest.raises(ValueError, match="must be a real number"):
        Tolerance(**field)


def test_tolerance_stores_floats():
    t = Tolerance(rel=1, abs=np.float32(0.5))
    assert (type(t.rel), type(t.abs)) == (float, float)
    assert (t.rel, t.abs) == (1.0, 0.5)


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
    pytest.param('{"dim": 2, "coeffs": "12"}', "array of numbers", id="string_coeffs"),
    ('{"dim": 3, "coeffs": [1, 0, 0]}', "dimension"),
    ('{"dim": 4, "coeffs": [1, 0]}', "coeffs"),
    ('{"dim": 2, "coeffs": [1, "x"]}', "coeffs[1]"),
    ('{"dim": 2, "coeffs": [1, NaN]}', "coeffs[1]"),
    ('{"dim": 2, "coeffs": [1, Infinity]}', "coeffs[1]"),
    pytest.param('{"dim": 2, "coeffs": [1, 1' + "0" * 400 + ']}', "coeffs[1]",
                 id="integer_beyond_float_range"),
    ('[1, 2]', "object"),
    ('{"dim": true, "coeffs": [1]}', "dim"),
    pytest.param('{"dim": 2, "coeffs": [1, [2, 3]]}', "coeffs[1]", id="ragged_nested_list"),
])
def test_json_rejects_malformed(payload, fragment):
    with pytest.raises(ValueError) as err:
        Hyper.from_json(payload)
    assert fragment in str(err.value)


def test_json_rejects_invalid_syntax():
    with pytest.raises(ValueError):
        Hyper.from_json("{not json")
