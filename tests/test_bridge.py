import numpy as np

from octotriple.bridge import (
    bac_cab_residual,
    dray_manogue_cross,
    okubo_bracket,
    okubo_reconstruction_residual,
)
from octotriple.core import Hyper, imaginary_part, inner, norm, unit
from octotriple.triple import associator3, commutator3, cross2

RNG = np.random.default_rng(160493)


def rand(dim):
    return Hyper(dim, RNG.standard_normal(dim))


def imag(dim):
    return imaginary_part(rand(dim))


def scale3(a, b, c):
    return norm(a) * norm(b) * norm(c)


# -- BAC-CAB ---------------------------------------------------------------------


def test_bac_cab_quaternions_reduce_to_classic_identity():
    for _ in range(50):
        a, b, c = imag(4), imag(4), imag(4)
        assert bac_cab_residual(a, b, c) <= 1e-12 + 1e-9 * scale3(a, b, c)


def test_bac_cab_equal_arguments_vanish():
    a, b = imag(8), imag(8)
    assert bac_cab_residual(a, b, b) <= 1e-12 + 1e-9 * norm(a) * norm(b) ** 2


def test_bac_cab_sign_flip_fails_on_octonions():
    # documents that the identity holds with +associator, not -associator
    failed = 0
    for _ in range(50):
        a, b, c = imag(8), imag(8), imag(8)
        flipped = (cross2(a, cross2(b, c)) - inner(a, c) * b + inner(a, b) * c
                   + associator3(a, b, c))
        if norm(flipped) > 1e-6 * scale3(a, b, c):
            failed += 1
    assert failed == 50


def test_bac_cab_projects_full_arguments():
    for _ in range(20):
        a, b, c = rand(8), rand(8), rand(8)
        proj = bac_cab_residual(a, b, c)
        direct = bac_cab_residual(imaginary_part(a), imaginary_part(b), imaginary_part(c))
        assert proj == direct


# -- Okubo -----------------------------------------------------------------------


def test_okubo_reconstruction_with_unit_center():
    for _ in range(20):
        u1, u2 = rand(8), rand(8)
        assert okubo_reconstruction_residual(u1, unit(8), u2) <= \
            1e-12 + 1e-9 * norm(u1) * norm(u2)


def test_okubo_bracket_on_imaginary_quaternions():
    # scalar coefficients vanish, leaving only the pure-unit term
    for _ in range(20):
        u1, u, u2 = imag(4), imag(4), imag(4)
        got = okubo_bracket(u1, u, u2)
        expected = -inner(u2, cross2(u1, u)) * unit(4)
        assert norm(got - expected) <= 1e-12 + 1e-9 * scale3(u1, u, u2)


def test_okubo_bracket_on_real_inputs_is_zero():
    a = 3.0 * unit(8)
    b = -2.0 * unit(8)
    c = 0.5 * unit(8)
    np.testing.assert_allclose(okubo_bracket(a, b, c).coeffs, np.zeros(8), atol=1e-12)


def test_okubo_bracket_is_minus_commutator_minus_associator():
    # the bracket equals -[u1,u,u2] - <u1,u,u2> once the unit terms cancel
    for _ in range(50):
        u1, u, u2 = rand(8), rand(8), rand(8)
        got = okubo_bracket(u1, u, u2)
        d_comm = commutator3(u1, u, u2)
        d_assoc = associator3(u1, u, u2)
        assert norm(got + d_comm + d_assoc) <= 1e-12 + 1e-9 * scale3(u1, u, u2)


# -- Dray-Manogue -----------------------------------------------------------------


def test_dray_manogue_equals_commutator_on_quaternions():
    for _ in range(50):
        u1, u, u2 = rand(4), rand(4), rand(4)
        got = dray_manogue_cross(u1, u, u2)
        assert norm(got - commutator3(u1, u, u2)) <= 1e-12 + 1e-9 * scale3(u1, u, u2)


def test_dray_manogue_antisymmetry():
    for _ in range(50):
        u1, u, u2 = rand(8), rand(8), rand(8)
        got = dray_manogue_cross(u1, u, u2)
        swapped = dray_manogue_cross(u2, u, u1)
        assert norm(got + swapped) <= 1e-12 + 1e-9 * scale3(u1, u, u2)
