"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs 1000 deterministic trials from seed 42 (criterion
number = stream index) at the stated tolerance.  Residuals of vector
identities are measured against 1e-9 times the product of the argument
norms; inner-product and norm identities against the square of that
scale (1e-8 for the degree-six length formulas, which is their stated
bound).
"""

import numpy as np

from octotriple.core import (
    Hyper,
    _conjugate,
    conjugate,
    imaginary_part,
    inner,
    multiply,
    norm,
    norm_sq,
    scalar_part,
    unit,
)
from octotriple import bridge, hadamard, operators, triple
from octotriple.verify import trial_generator

SEED = 42
TRIALS = 1000

REL_VECTOR = 1e-9
REL_LENGTH = 1e-8
ABS_FLOOR = 1e-12


def _draw(rng, dim, count):
    return [Hyper(dim, rng.standard_normal(dim)) for _ in range(count)]


def _report(number, name, worst, bound=1.0):
    ok = worst <= bound
    print(f"[acceptance] criterion {number:>2} ({name}): "
          f"{'PASS' if ok else 'FAIL'}  worst={worst:.3e}  bound={bound:.1e}")
    assert ok, f"criterion {number} ({name}): worst {worst:.3e} exceeds {bound:.3e}"


def _ratio(residual, rel, scale):
    return residual / (ABS_FLOOR + rel * scale)


def test_criterion_01_decomposition_reconstruction():
    worst = 0.0
    for t in range(TRIALS):
        rng = trial_generator(SEED, 1, t)
        u1, u, u2 = _draw(rng, 8, 3)
        s = norm(u1) * norm(u) * norm(u2)
        d = triple.decompose_triple(u1, u, u2)
        ub = conjugate(u)
        residual = max(
            norm(multiply(multiply(u1, ub), u2) - (d.anti + d.comm + d.assoc)),
            norm(multiply(multiply(u2, ub), u1) - (d.anti - d.comm - d.assoc)),
            norm(multiply(u2, multiply(ub, u1)) - (d.anti - d.comm + d.assoc)),
            norm(multiply(u1, multiply(ub, u2)) - (d.anti + d.comm - d.assoc)),
        )
        worst = max(worst, _ratio(residual, REL_VECTOR, s))
    _report(1, "decomposition reconstruction", worst)


def test_criterion_02_mutual_orthogonality():
    worst = 0.0
    for t in range(TRIALS):
        rng = trial_generator(SEED, 2, t)
        u1, u, u2 = _draw(rng, 8, 3)
        s2 = (norm(u1) * norm(u) * norm(u2)) ** 2
        d = triple.decompose_triple(u1, u, u2)
        residual = max(abs(inner(d.anti, d.comm)),
                       abs(inner(d.anti, d.assoc)),
                       abs(inner(d.comm, d.assoc)))
        worst = max(worst, _ratio(residual, REL_VECTOR, s2))
    _report(2, "mutual orthogonality of the parts", worst)


def test_criterion_03_quaternion_associator_vanishes():
    worst = 0.0
    for t in range(TRIALS):
        rng = trial_generator(SEED, 3, t)
        u1, u, u2 = _draw(rng, 4, 3)
        s = norm(u1) * norm(u) * norm(u2)
        worst = max(worst, _ratio(norm(triple.associator3(u1, u, u2)), REL_VECTOR, s))
    _report(3, "quaternion associator vanishes", worst)


def test_criterion_04_length_formulas():
    worst = 0.0
    for t in range(TRIALS):
        rng = trial_generator(SEED, 4, t)
        u1, u, u2 = _draw(rng, 8, 3)
        s2 = (norm(u1) * norm(u) * norm(u2)) ** 2
        d = triple.decompose_triple(u1, u, u2)
        a = triple.anticommutator3_norm_sq(u1, u, u2)
        c = triple.commutator3_norm_sq(u1, u, u2)
        x = triple.associator3_norm_sq(u1, u, u2)
        prod = norm_sq(u1) * norm_sq(u) * norm_sq(u2)
        residual = max(abs(a - norm_sq(d.anti)),
                       abs(c - norm_sq(d.comm)),
                       abs(x - norm_sq(d.assoc)),
                       abs(a + c + x - prod))
        worst = max(worst, _ratio(residual, REL_LENGTH, s2))
    _report(4, "length formulas", worst)


def test_criterion_05_gram_identities():
    worst = 0.0
    for t in range(TRIALS):
        rng = trial_generator(SEED, 5, t)
        u1, u, u2 = _draw(rng, 8, 3)
        s2 = (norm(u1) * norm(u) * norm(u2)) ** 2
        d = triple.decompose_triple(u1, u, u2)
        gram_residual = abs(triple.anticommutative_component_norm_sq(u1, u, u2)
                            - norm_sq(d.comm + d.assoc))
        lhs, rhs = triple.gram_det_imaginary_identity(u1, u, u2)
        residual = max(gram_residual, abs(lhs - rhs))
        worst = max(worst, _ratio(residual, REL_VECTOR, s2))
    _report(5, "Gram determinant identities", worst)


# row g: (eps_+, eps_*, eps_v) of ALL_SIGN_TRIPLES[g], the signs of component row g
EPS = np.array([(s.eps_plus, s.eps_star, s.eps_vee) for s in operators.ALL_SIGN_TRIPLES])


def test_criterion_06_operator_symmetry():
    worst = 0.0
    for t in range(TRIALS):
        rng = trial_generator(SEED, 6, t)
        u1, u2, u, v = _draw(rng, 8, 4)
        op = operators.TripleOperator(u1, u2)
        s = norm(u1) * norm(u2) * norm(u)
        sv = s * norm(v)

        # component2 against the triple products, and the vanishing pattern
        residual = max(
            norm(operators.component2(op, +1, +1, u) - triple.anticommutator3(u1, u, u2)),
            norm(operators.component2(op, -1, -1, u) - triple.commutator3(u1, u, u2)),
            norm(operators.component2(op, -1, +1, u) - triple.associator3(u1, u, u2)),
            norm(operators.component2(op, +1, -1, u)),
        )
        worst = max(worst, _ratio(residual, REL_VECTOR, s))

        # involution and commutation of the transforms: the +-partner of
        # every word is its Hermitian adjoint, in particular (A+)+ = A
        pairing = max(operators.adjoint_residual(op, u, v, word)
                      for word in operators.ALL_WORDS)
        worst = max(worst, _ratio(pairing, REL_VECTOR, sv))

        # eigen-relations of all eight three-operation components, * and v by their
        # definitions: * reverses every product, and conj((conj(x) conj(c)) conj(y))
        # = y (c x); v conjugates the argument, then the product.  Row g of each
        # component set is the component of ALL_SIGN_TRIPLES[g]
        x1, x2, x, y = (w.coeffs for w in (u1, u2, u, v))
        x1_bar, x2_bar, x_bar = map(_conjugate, (x1, x2, x))
        b_u, b_v, b_vee, b_star = (
            operators._components(operators._word_values(*args))
            for args in ((x1, x2, x), (x1, x2, y), (x1, x2, x_bar), (x1_bar, x2_bar, x_bar)))
        for signs, row in zip(operators.ALL_SIGN_TRIPLES, b_u):
            assert operators.component3(op, signs, u).coeffs.tobytes() == row.tobytes()
        r_plus = np.abs(b_u @ y - EPS[:, 0] * (b_v @ x))
        r_star = np.linalg.norm(_conjugate(b_star) - EPS[:, 1:2] * b_u, axis=1)
        r_vee = np.linalg.norm(_conjugate(b_vee) - EPS[:, 2:3] * b_u, axis=1)
        worst = max(worst,
                    _ratio(np.max(r_plus), REL_VECTOR, sv),
                    _ratio(max(np.max(r_star), np.max(r_vee)), REL_VECTOR, s))
    _report(6, "operator symmetry", worst)


def test_criterion_07_hadamard_counts():
    a4 = hadamard.build(4)
    printed = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    a8 = hadamard.build(8)
    perms = hadamard.doubling_order_permutations(a8)
    sym, asym = hadamard.classify_symmetry(perms, a8)
    worst = max(
        float(np.max(np.abs(a4.entries - printed))),
        float(np.max(np.abs(a8.entries @ a8.entries - 8 * np.eye(8, dtype=np.int64)))),
        float(abs(len(perms) - 168)),
        float(abs(sym - 28)),
        float(abs(asym - 140)),
    )
    _report(7, "Hadamard matrices and permutation counts", worst, bound=0.0)


def test_criterion_08_convention_bridge():
    worst = 0.0
    for t in range(TRIALS):
        rng = trial_generator(SEED, 8, t)
        u1, u, u2 = _draw(rng, 8, 3)
        s = norm(u1) * norm(u) * norm(u2)
        si = (norm(imaginary_part(u1)) * norm(imaginary_part(u))
              * norm(imaginary_part(u2)))
        residual = max(
            bridge.okubo_reconstruction_residual(u1, u, u2),
            bridge.okubo_bracket_display_residual(u1, u, u2),
            bridge.dray_manogue_residual(u1, u, u2),
        )
        worst = max(worst, _ratio(residual, REL_VECTOR, s))
        # holds as printed; the bridge suite's counted bac_cab channel checks the same display
        worst = max(worst, _ratio(bridge.bac_cab_residual(u1, u, u2), REL_VECTOR, si))
    _report(8, "convention bridge", worst)


def test_criterion_09_unit_center_reductions():
    i0 = unit(8)
    worst = 0.0
    for t in range(TRIALS):
        rng = trial_generator(SEED, 9, t)
        u1, u2 = _draw(rng, 8, 2)
        s = norm(u1) * norm(u2)
        residual = max(
            norm(triple.commutator3(u1, i0, u2) - triple.cross2(u1, u2)),
            norm(triple.anticommutator3(u1, i0, u2)
                 - (multiply(u1, u2) + multiply(u2, u1)) / 2),
        )
        worst = max(worst, _ratio(residual, REL_VECTOR, s))
    _report(9, "unit-center reductions", worst)


def test_criterion_10_core_identities():
    worst = 0.0
    for dim in (4, 8):
        for t in range(TRIALS):
            rng = trial_generator(SEED, 10, t)
            u1, u2, u = _draw(rng, dim, 3)
            s1, s2, su = norm(u1), norm(u2), norm(u)
            sandwich = 2 * inner(u1, u) * u1 - norm_sq(u1) * u
            left = multiply(multiply(u1, conjugate(u)), u1)
            right = multiply(u1, multiply(conjugate(u), u1))
            p12, p21 = multiply(u1, u2), multiply(u2, u1)
            worst = max(
                worst,
                _ratio(norm(left - sandwich), REL_VECTOR, s1 * s1 * su),
                _ratio(norm(right - sandwich), REL_VECTOR, s1 * s1 * su),
                _ratio(norm(left - right), REL_VECTOR, s1 * s1 * su),
                _ratio(norm(conjugate(p12) - multiply(conjugate(u2), conjugate(u1))),
                       REL_VECTOR, s1 * s2),
                _ratio(abs(scalar_part(p12) - scalar_part(p21)), REL_VECTOR, s1 * s2),
                _ratio(abs(scalar_part(p12) - inner(u1, conjugate(u2))),
                       REL_VECTOR, s1 * s2),
            )
    _report(10, "core identities", worst)
