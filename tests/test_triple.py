import re
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

import octotriple.triple as tp
from octotriple.core import (
    DimensionError,
    Hyper,
    _conjugate,
    _inner,
    _norm_sq,
    conjugate,
    inner,
    multiply,
    norm,
    norm_sq,
    unit,
)
from octotriple.hadamard import build
from octotriple.triple import (
    GramMatrix,
    _det3,
    anticommutative_component_norm_sq,
    anticommutator3,
    anticommutator3_norm_sq,
    associator3,
    associator3_norm_sq,
    commutator3,
    commutator3_norm_sq,
    cross2,
    decompose_triple,
    det3,
    gram,
    gram_det_imaginary_identity,
    gram_imaginary,
    pair_product_expansion,
)

RNG = np.random.default_rng(7121983)


def rand(dim, scale=1.0):
    return Hyper(dim, scale * RNG.standard_normal(dim))


def vec_close(a, b, scale):
    assert norm(a - b) <= 1e-12 + 1e-9 * scale, (a, b)


# Frozen expected values for one octonion triple, computed with the
# exact-rational doubling recursion in cd_oracle (all values are integers,
# so float comparison is exact).
_U1 = Hyper(8, [1, 2, 0, -1, 0, 3, 0, 1])
_U = Hyper(8, [2, 0, 1, 0, -1, 0, 2, 0])
_U2 = Hyper(8, [0, 1, -2, 0, 1, 0, 0, 3])
_ANTI = np.array([-13, -4, -9, 3, 7, -9, -10, 3], dtype=float)
_COMM = np.array([-12, -4, 18, -6, 16, 2, 11, 8], dtype=float)
_ASSOC = np.array([0, 9, 17, 3, -11, -9, -14, 12], dtype=float)
_PRODUCT = np.array([-25, 1, 26, 0, 12, -16, -13, 23], dtype=float)
_DET_G = 1886.0
_DET_G_IMAG = 1065.0
_CROSS_SCALAR = -12.0


# -- cross2 --------------------------------------------------------------------


def test_cross2_of_equal_arguments_is_zero():
    u = rand(8)
    np.testing.assert_allclose(cross2(u, u).coeffs, np.zeros(8), atol=1e-12)


def test_cross2_with_unit_vanishes():
    u = rand(8)
    np.testing.assert_array_equal(cross2(unit(8), u).coeffs, np.zeros(8))
    np.testing.assert_array_equal(cross2(u, unit(8)).coeffs, np.zeros(8))


def test_cross2_quaternion_basis():
    i = [Hyper.basis(4, k) for k in range(4)]
    np.testing.assert_array_equal(cross2(i[1], i[2]).coeffs, i[3].coeffs)


def test_cross2_matches_3d_cross_product_on_quaternions():
    for _ in range(20):
        u1, u2 = rand(4), rand(4)
        classic = np.cross(u1.coeffs[1:], u2.coeffs[1:])
        got = cross2(u1, u2)
        assert got.coeffs[0] == 0.0
        np.testing.assert_allclose(got.coeffs[1:], classic,
                                   atol=1e-12 * norm(u1) * norm(u2))


def test_pair_product_expansion_trivial_cases():
    u = rand(8)
    vec_close(pair_product_expansion(unit(8), u), u, norm(u))
    i = [Hyper.basis(4, k) for k in range(4)]
    np.testing.assert_array_equal(pair_product_expansion(i[1], i[2]).coeffs, i[3].coeffs)


# -- the three parts: frozen values ---------------------------------------------


def test_frozen_octonion_decomposition():
    d = decompose_triple(_U1, _U, _U2)
    np.testing.assert_array_equal(d.anti.coeffs, _ANTI)
    np.testing.assert_array_equal(d.comm.coeffs, _COMM)
    np.testing.assert_array_equal(d.assoc.coeffs, _ASSOC)
    assert d.residual == 0.0
    prod = multiply(multiply(_U1, conjugate(_U)), _U2)
    np.testing.assert_array_equal(prod.coeffs, _PRODUCT)


def test_frozen_norm_squares():
    assert anticommutator3_norm_sq(_U1, _U, _U2) == 514.0
    assert commutator3_norm_sq(_U1, _U, _U2) == 965.0
    assert associator3_norm_sq(_U1, _U, _U2) == 921.0
    assert gram(_U1, _U, _U2).det() == _DET_G
    assert gram_imaginary(_U1, _U, _U2).det() == _DET_G_IMAG
    assert inner(cross2(_U1, _U), _U2) == _CROSS_SCALAR
    assert anticommutative_component_norm_sq(_U1, _U, _U2) == _DET_G


def test_anticommutator_examples():
    i0 = unit(8)
    np.testing.assert_array_equal(anticommutator3(i0, i0, i0).coeffs, i0.coeffs)
    q = [Hyper.basis(4, k) for k in range(4)]
    np.testing.assert_array_equal(anticommutator3(q[1], q[2], q[3]).coeffs, np.zeros(4))


def test_associator_octonion_basis_value():
    i = [Hyper.basis(8, k) for k in range(8)]
    got = associator3(i[1], i[2], i[4])
    np.testing.assert_array_equal(got.coeffs, (-i[7]).coeffs)
    assert norm_sq(got) == 1.0
    for k in (0, 1, 2, 4):
        assert inner(got, i[k]) == 0.0


def test_commutator_examples():
    u1, u = rand(8), rand(8)
    np.testing.assert_allclose(commutator3(u1, u, u1).coeffs, np.zeros(8),
                               atol=1e-12 + 1e-9 * norm_sq(u1) * norm(u))
    q = [Hyper.basis(4, k) for k in range(4)]
    np.testing.assert_array_equal(commutator3(q[1], q[2], q[3]).coeffs, q[0].coeffs)


# -- equivalent forms -------------------------------------------------------------


def test_symmetry_under_argument_swap():
    for _ in range(20):
        u1, u, u2 = rand(8), rand(8), rand(8)
        s = norm(u1) * norm(u) * norm(u2)
        vec_close(anticommutator3(u1, u, u2), anticommutator3(u2, u, u1), s)
        vec_close(commutator3(u1, u, u2), -commutator3(u2, u, u1), s)
        vec_close(associator3(u1, u, u2), -associator3(u2, u, u1), s)


# -- decomposition -----------------------------------------------------------------


def test_decomposition_low_dims_have_no_skew_parts():
    for dim in (1, 2):
        u1, u, u2 = rand(dim), rand(dim), rand(dim)
        d = decompose_triple(u1, u, u2)
        s = norm(u1) * norm(u) * norm(u2)
        assert norm(d.comm) <= 1e-12 + 1e-9 * s
        assert norm(d.assoc) <= 1e-12 + 1e-9 * s


def test_decomposition_with_unit_center():
    for _ in range(20):
        u1, u2 = rand(8), rand(8)
        d = decompose_triple(u1, unit(8), u2)
        expected_anti = (multiply(u1, u2) + multiply(u2, u1)) / 2
        s = norm(u1) * norm(u2)
        vec_close(d.anti, expected_anti, s)
        vec_close(d.comm, cross2(u1, u2), s)
        np.testing.assert_array_equal(d.assoc.coeffs, np.zeros(8))


def test_decomposition_is_sylvester_matrix_of_word_values():
    # rows of H4 @ V / 4 are anti, assoc, 0, comm for the four bracket/order variants
    for dim in (4, 8):
        u1, u, u2 = rand(dim), rand(dim), rand(dim)
        ub = conjugate(u)
        variants = (multiply(multiply(u1, ub), u2), multiply(multiply(u2, ub), u1),
                    multiply(u2, multiply(ub, u1)), multiply(u1, multiply(ub, u2)))
        rows = build(4).entries @ np.array([p.coeffs for p in variants]) / 4
        d = decompose_triple(u1, u, u2)
        s = norm(u1) * norm(u) * norm(u2)
        for got, want in ((d.anti, rows[0]), (d.assoc, rows[1]), (d.comm, rows[3])):
            vec_close(got, Hyper(dim, want), s)
        assert np.linalg.norm(rows[2]) <= 1e-12 + 1e-9 * s


def test_decomposition_serialization():
    d = decompose_triple(_U1, _U, _U2)
    obj = d.to_dict()
    assert obj["residual"] == 0.0
    assert Hyper.from_dict(obj["anti"]).isclose(d.anti)
    assert Hyper.from_dict(obj["comm"]).isclose(d.comm)
    assert Hyper.from_dict(obj["assoc"]).isclose(d.assoc)
    assert '"residual"' in d.to_json()


def test_decomposition_json_rejects_overflow():
    # the parts overflow to inf/NaN, which strict JSON cannot carry
    u = Hyper(8, [1e200] * 8)
    with np.errstate(over="ignore", invalid="ignore"):
        d = decompose_triple(u, u, u)
    with pytest.raises(ValueError):
        d.to_json()


def test_triple_dimension_mismatch():
    with pytest.raises(DimensionError):
        decompose_triple(unit(4), unit(8), unit(8))
    with pytest.raises(DimensionError):
        commutator3(unit(8), unit(8), unit(4))


# -- Gram matrices and lengths ----------------------------------------------------


def test_gram_examples():
    i0 = unit(8)
    np.testing.assert_array_equal(gram(i0, i0, i0).entries, np.ones((3, 3)))
    q = [Hyper.basis(4, k) for k in range(4)]
    np.testing.assert_array_equal(gram(q[1], q[2], q[3]).entries, np.eye(3))


def test_gram_is_symmetric_and_psd():
    for _ in range(30):
        u1, u, u2 = rand(8), rand(8), rand(8)
        g = gram(u1, u, u2)
        np.testing.assert_allclose(g.entries, g.entries.T, atol=0)
        assert g.det() >= -1e-9 * (norm(u1) * norm(u) * norm(u2)) ** 2


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        GramMatrix(np.ones((2, 2)))


@pytest.mark.parametrize("shape", ((2, 2), (2, 3, 3), (9,), (3,), (3, 4), ()))
def test_det3_and_gram_matrix_reject_every_other_shape(shape):
    message = re.escape(f"3x3 matrix, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        det3(np.ones(shape))
    with pytest.raises(ValueError, match=message):
        GramMatrix(np.ones(shape))


def test_det3_matches_numpy():
    for _ in range(20):
        m = RNG.standard_normal((3, 3))
        assert abs(det3(m) - np.linalg.det(m)) <= 1e-10


def _det3_blocks():
    fractions = [Fraction(int(p), int(q)) for p, q in zip(RNG.integers(-50, 50, 9 * 32),
                                                           RNG.integers(1, 20, 9 * 32))]
    overflowing = RNG.choice((-1e200, 1e200), (32, 3, 3)) * RNG.uniform(0.5, 2, (32, 3, 3))
    # in the first half every product overflows and infinities cancel to NaN; in
    # the second the minors stay finite and only the first-row products overflow
    overflowing[16:, 1:] *= 1e-50
    return {
        "random": RNG.standard_normal((32, 3, 3)),
        "overflowing": overflowing,
        "fraction": np.array(fractions, dtype=object).reshape(32, 3, 3),
    }


@pytest.mark.parametrize("kind", ("random", "overflowing", "fraction"))
def test_det3_of_one_matrix_is_its_row_of_the_block(kind):
    # one matrix is unpacked to Python scalars, a block to one view of arrays
    block = _det3_blocks()[kind]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _det3(block)
        ones = [_det3(m) for m in block]
    assert rows.shape == (len(block),)
    if kind == "fraction":   # exact: isnan has no object loop, and nothing is NaN
        assert all(isinstance(x, Fraction) for x in ones)
        assert np.array_equal(np.array(ones, dtype=object), rows)
    else:
        assert np.array_equal(ones, rows, equal_nan=True)
    if kind == "overflowing":
        assert np.isnan(rows).any() and np.isinf(rows).any()


@pytest.mark.parametrize("dim", (1, 2, 4, 8))
def test_det3_and_the_lengths_return_float(dim):
    u1, u, u2 = (Hyper(dim, RNG.standard_normal(dim)) for _ in range(3))
    assert type(det3(RNG.standard_normal((3, 3)))) is float
    assert type(gram(u1, u, u2).det()) is float
    assert all(type(x) is float for x in gram_det_imaginary_identity(u1, u, u2))
    for length in (anticommutator3_norm_sq, commutator3_norm_sq, associator3_norm_sq,
                   anticommutative_component_norm_sq):
        assert type(length(u1, u, u2)) is float


def test_length_formulas_trivial_triples():
    i0 = unit(8)
    assert anticommutator3_norm_sq(i0, i0, i0) == 1.0
    assert commutator3_norm_sq(i0, i0, i0) == 0.0
    assert associator3_norm_sq(i0, i0, i0) == 0.0
    q = [Hyper.basis(4, k) for k in range(4)]
    assert anticommutator3_norm_sq(q[1], q[2], q[3]) == 0.0
    assert commutator3_norm_sq(q[1], q[2], q[3]) == 1.0
    assert associator3_norm_sq(q[1], q[2], q[3]) == 0.0


def test_anticommutative_component_is_gram_determinant():
    for _ in range(30):
        u1, u, u2 = rand(8), rand(8), rand(8)
        s2 = (norm(u1) * norm(u) * norm(u2)) ** 2
        d = decompose_triple(u1, u, u2)
        assert abs(anticommutative_component_norm_sq(u1, u, u2)
                   - norm_sq(d.comm + d.assoc)) <= 1e-12 + 1e-9 * s2


def test_gram_det_imaginary_identity_examples():
    q = [Hyper.basis(4, k) for k in range(4)]
    lhs, rhs = gram_det_imaginary_identity(q[1], q[2], q[3])
    assert lhs == 1.0 and rhs == 1.0
    i0 = unit(8)
    lhs, rhs = gram_det_imaginary_identity(i0, i0, i0)
    assert lhs == 0.0 and rhs == 0.0


@pytest.mark.parametrize("dim", (4, 8))
def test_gram_det_imaginary_identity_random(dim):
    for _ in range(50):
        u1, u, u2 = rand(dim), rand(dim), rand(dim)
        s2 = (norm(u1) * norm(u) * norm(u2)) ** 2
        lhs, rhs = gram_det_imaginary_identity(u1, u, u2)
        assert abs(lhs - rhs) <= 1e-12 + 1e-9 * s2


def test_nearly_degenerate_triples_are_fine():
    u = rand(8)
    tiny = Hyper(8, 1e-8 * RNG.standard_normal(8))
    u1 = u + tiny
    d = decompose_triple(u1, u, u)
    s = norm(u1) * norm_sq(u)
    assert d.residual <= 1e-12 + 1e-9 * s
    assert abs(anticommutator3_norm_sq(u1, u, u) - norm_sq(d.anti)) <= 1e-12 + 1e-8 * s * s


# -- the shared length terms ------------------------------------------------------
# Each length form written out whole, computing its own terms; the forms that share
# `tp._length_terms` must keep every bit of it.


def _own_anti(u1, u, u2):
    return _norm_sq(u1) * _norm_sq(u) * _norm_sq(u2) - tp._det3(tp._gram(u1, u, u2))


def _own_comm(u1, u, u2):
    s = _inner(tp._cross2(u1, u), u2)
    x = tp._rows3(u1, u, u2)
    return s * s + tp._det3(tp._gram_rows(x)) - tp._det3(tp._gram_rows(x[..., 1:]))


def _own_assoc(u1, u, u2):
    s = _inner(tp._cross2(u1, u), u2)
    return tp._det3(tp._gram_imaginary(u1, u, u2)) - s * s


def _own_component(u1, u, u2):
    return tp._det3(tp._gram(u1, u, u2))


def _own_gram_identity(u1, u, u2):
    x = tp._rows3(u1, u, u2)
    conjugated = x @ _conjugate(x).swapaxes(-1, -2)
    lhs = tp._det3(tp._gram_rows(x[..., 1:]))
    return lhs, (tp._det3(tp._gram_rows(x)) - tp._det3(conjugated)) / 2


# public name -> its formula written out, in the order anti, comm, assoc, then the rest
_OWN_FORMS = {
    "anticommutator3_norm_sq": _own_anti,
    "commutator3_norm_sq": _own_comm,
    "associator3_norm_sq": _own_assoc,
    "anticommutative_component_norm_sq": _own_component,
    "gram_det_imaginary_identity": _own_gram_identity,
}


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _frozen_triple(dim, shape):
    """Three read-only arrays that own their data: the arrays the terms are kept for."""
    triple = tuple(RNG.standard_normal((*shape, dim)) for _ in range(3))
    for x in triple:
        x.setflags(write=False)
    return triple


def _call_order(order, first, second):
    """(name, arguments) of each call: every form on `first`, forward or reversed,
    or each form on `first` and then on `second`."""
    names = list(_OWN_FORMS)
    if order == "reverse":
        return [(n, first) for n in reversed(names)]
    if order == "interleaved":
        return [(n, t) for n in names for t in (first, second)]
    return [(n, first) for n in names]


@pytest.mark.parametrize("order", ("forward", "reverse", "interleaved"))
@pytest.mark.parametrize("shape", ((), (40,)), ids=("vector", "block40"))
@pytest.mark.parametrize("dim", (1, 2, 4, 8))
def test_length_forms_keep_the_bits_of_their_own_formulas(dim, shape, order):
    first, second = _frozen_triple(dim, shape), _frozen_triple(dim, shape)
    for name, args in _call_order(order, first, second):
        want = _OWN_FORMS[name](*args)
        assert _bits(getattr(tp, "_" + name)(*args)) == _bits(want), name
    if not shape:   # the public functions, on Hyper values of the same coefficients
        hypers = {id(t): tuple(Hyper(dim, x) for x in t) for t in (first, second)}
        for name, args in _call_order(order, first, second):
            want = _OWN_FORMS[name](*args)
            got = getattr(tp, name)(*hypers[id(args)])
            assert _bits(got) == _bits(want), name


def test_three_lengths_of_one_hyper_triple_build_the_rows_once(monkeypatch):
    rows3, calls = tp._rows3, []

    def counted(*args):
        calls.append(args)
        return rows3(*args)

    monkeypatch.setattr(tp, "_rows3", counted)
    lengths = (anticommutator3_norm_sq, commutator3_norm_sq, associator3_norm_sq)
    u1, u, u2 = rand(8), rand(8), rand(8)
    values = [f(u1, u, u2) for f in lengths]
    assert len(calls) == 1
    # equal values in new Hyper objects are new arguments, evaluated again
    again = tuple(Hyper(8, v.coeffs) for v in (u1, u, u2))
    assert [f(*again) for f in lengths] == values
    assert len(calls) == 2


@pytest.mark.parametrize("shape", ((), (40,)), ids=("vector", "block40"))
def test_a_changed_argument_is_evaluated_afresh(shape):
    # writable arrays, changed in place between calls
    u1, u, u2 = (RNG.standard_normal((*shape, 8)) for _ in range(3))
    before = tp._commutator3_norm_sq(u1, u, u2)
    u1 *= 2.0
    assert _bits(tp._commutator3_norm_sq(u1, u, u2)) == _bits(_own_comm(u1, u, u2)) != _bits(before)
    # read-only views, changed through their writable base
    base = RNG.standard_normal((3, *shape, 8))
    views = tuple(base)
    for x in views:
        x.setflags(write=False)
    before = tp._associator3_norm_sq(*views)
    base[2] *= 3.0
    assert _bits(tp._associator3_norm_sq(*views)) == _bits(_own_assoc(*views)) != _bits(before)
    # frozen arrays made writable again and changed
    frozen = _frozen_triple(8, shape)
    before = tp._anticommutator3_norm_sq(*frozen)
    middle = frozen[1]
    middle.setflags(write=True)
    middle *= 2.0
    assert _bits(tp._anticommutator3_norm_sq(*frozen)) == _bits(_own_anti(*frozen)) != _bits(before)


def test_threads_that_alternate_their_own_triples_get_their_own_lengths(monkeypatch):
    lengths = (anticommutator3_norm_sq, commutator3_norm_sq, associator3_norm_sq)
    frozen = tp._frozen

    def yielding(x):   # gives up the interpreter lock inside each check of the kept entry
        time.sleep(0)
        return frozen(x)

    # four threads on two cores, each alternating between two triples of its own
    owned = [[(rand(8), rand(8), rand(8)) for _ in range(2)] for _ in range(4)]
    want = [[[f(*t) for f in lengths] for t in pair] for pair in owned]
    mismatches = []
    monkeypatch.setattr(tp, "_frozen", yielding)

    def work(k):
        for i in range(400):
            j = i % 2
            got = [f(*owned[k][j]) for f in lengths]
            if got != want[k][j]:
                mismatches.append((k, j, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(owned))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
