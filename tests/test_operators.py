import numpy as np
import pytest

import octotriple.operators as operators
from octotriple.core import DimensionError, Hyper, conjugate, multiply, norm, unit
from octotriple.operators import (
    ALL_SIGN_TRIPLES,
    ALL_WORDS,
    IDENTITY_WORD,
    OpWord,
    SignTriple,
    TripleOperator,
    TWO_OP_WORDS,
    _PLANS,
    adjoint_residual,
    apply,
    component2,
    component3,
    component3_eigen_residuals,
    materialize,
)
from octotriple.triple import anticommutator3, associator3, commutator3
from octotriple.hadamard import build

RNG = np.random.default_rng(424242)


def rand(dim):
    return Hyper(dim, RNG.standard_normal(dim))


def random_op(dim):
    return TripleOperator(rand(dim), rand(dim))


def vec_close(a, b, scale):
    assert norm(a - b) <= 1e-12 + 1e-9 * scale


# -- words and sign triples -----------------------------------------------------


def test_word_compose_is_xor():
    w = OpWord(plus=True).compose(OpWord(plus=True, star=True))
    assert w == OpWord(star=True)
    assert OpWord().label == "e"
    assert OpWord(plus=True, star=True, vee=True).label == "+*v"


def test_sign_triple_validation():
    with pytest.raises(ValueError):
        SignTriple(0, 1, 1)
    with pytest.raises(ValueError):
        SignTriple(1, 2, 1)
    assert SignTriple(1, -1, 1).label == "(+1,-1,+1)"


@pytest.mark.parametrize("signs", ((True, 1, 1), (1, 1.0, 1), (1, -1.0, 1),
                                   (1, np.bool_(True), 1)),
                         ids=("bool", "float", "negative_float", "numpy_bool"))
def test_sign_triple_takes_integers_only(signs):
    # True == 1 and 1.0 == 1, so a membership test alone would keep them
    with pytest.raises(ValueError, match=r"must be \+1 or -1"):
        SignTriple(*signs)
    with pytest.raises(ValueError):
        component2(random_op(4), *signs[:2], unit(4))


def test_sign_triple_accepts_numpy_integers():
    signs = SignTriple(np.int64(1), np.int8(-1), np.uint8(1))
    assert signs.label == "(+1,-1,+1)"
    assert signs in ALL_SIGN_TRIPLES
    # stored as the Python ints they equal
    assert all(type(e) is int for e in (signs.eps_plus, signs.eps_star, signs.eps_vee))


@pytest.mark.parametrize("flags", ({"plus": 2}, {"star": 1}, {"vee": "yes"}, {"plus": None}))
def test_op_word_flags_are_bools(flags):
    with pytest.raises(ValueError, match="must be a bool"):
        OpWord(**flags)


_OP4, _U4 = TripleOperator(unit(4), unit(4)), unit(4)   # no draw from RNG


@pytest.mark.parametrize("call", (
    lambda word: apply(_OP4, word, _U4),
    lambda word: materialize(_OP4, word),
    lambda word: adjoint_residual(_OP4, _U4, _U4, word),
), ids=("apply", "materialize", "adjoint_residual"))
@pytest.mark.parametrize("word", ("e", None, (True, False, False), ["+"]),
                         ids=("label", "none", "tuple", "unhashable"))
def test_an_argument_that_is_not_a_word_names_itself(call, word, monkeypatch):
    monkeypatch.setattr(operators, "_word_values", None)   # nothing is evaluated first
    with pytest.raises(ValueError, match=r"^word must be an OpWord, got "):
        call(word)


@pytest.mark.parametrize("call", (
    lambda signs: component3(_OP4, signs, _U4),
    lambda signs: component3_eigen_residuals(_OP4, signs, _U4, _U4),
), ids=("component3", "component3_eigen_residuals"))
@pytest.mark.parametrize("signs", ((1, 1, 1), None, "(+1,+1,+1)", [1, 1, 1], OpWord()),
                         ids=("tuple", "none", "label", "unhashable", "word"))
def test_an_argument_that_is_not_a_sign_triple_names_itself(call, signs, monkeypatch):
    monkeypatch.setattr(operators, "_word_values", None)   # nothing is evaluated first
    with pytest.raises(ValueError, match=r"^signs must be a SignTriple, got "):
        call(signs)


def test_op_word_accepts_numpy_bools():
    word = OpWord(plus=np.True_, star=np.False_, vee=np.False_)
    assert word == OpWord(plus=True) and word.label == "+"
    assert all(type(flag) is bool for flag in (word.plus, word.star, word.vee))
    op, u = random_op(4), rand(4)
    np.testing.assert_array_equal(apply(op, word, u).coeffs,
                                  apply(op, OpWord(plus=True), u).coeffs)


def test_operator_requires_matching_parameter_dims():
    with pytest.raises(DimensionError):
        TripleOperator(unit(4), unit(8))
    op = random_op(8)
    with pytest.raises(DimensionError):
        apply(op, IDENTITY_WORD, unit(4))


# -- the eight closed forms -------------------------------------------------------


def tabulated_form(op, word, u):
    """The seven published closed forms; the +*v entry is intentionally
    absent (it is derived, not tabulated)."""
    u1, u2, ub = op.u1, op.u2, conjugate(u)
    table = {
        (False, False, False): multiply(multiply(u1, ub), u2),
        (True, False, False): multiply(multiply(u2, ub), u1),
        (False, True, False): multiply(u2, multiply(ub, u1)),
        (True, True, False): multiply(u1, multiply(ub, u2)),
        (False, False, True): multiply(conjugate(u2), multiply(ub, conjugate(u1))),
        (True, False, True): multiply(conjugate(u1), multiply(ub, conjugate(u2))),
        (False, True, True): multiply(multiply(conjugate(u1), ub), conjugate(u2)),
    }
    return table[(word.plus, word.star, word.vee)]


@pytest.mark.parametrize("dim", (4, 8))
def test_apply_matches_tabulated_forms(dim):
    op = random_op(dim)
    scale = norm(op.u1) * norm(op.u2)
    for _ in range(10):
        u = rand(dim)
        for word in ALL_WORDS:
            if word.plus and word.star and word.vee:
                continue
            vec_close(apply(op, word, u), tabulated_form(op, word, u), scale * norm(u))


@pytest.mark.parametrize("dim", (1, 2, 4, 8))
@pytest.mark.parametrize("rows", (None, 5), ids=("vector", "block"))
def test_word_values_of_any_words_are_rows_of_the_all_words_values(dim, rows):
    # each call conjugates only the operands its words bar, so a subset must
    # never read an operand slot that only another word would have filled
    shape = (dim,) if rows is None else (rows, dim)
    u1, u2, u = (RNG.standard_normal(shape) for _ in range(3))
    every = operators._word_values(u1, u2, u)
    for subset in range(1, 1 << len(ALL_WORDS)):
        picked = [w for w in range(len(ALL_WORDS)) if subset >> w & 1]
        for order in (picked, picked[::-1], list(RNG.permutation(picked))):
            got = operators._word_values(u1, u2, u, tuple(ALL_WORDS[w] for w in order))
            assert np.array_equal(got, every[order])
    if rows is None:
        op = TripleOperator(Hyper(dim, u1), Hyper(dim, u2))
        for w, word in enumerate(ALL_WORDS):
            assert np.array_equal(apply(op, word, Hyper(dim, u)).coeffs, every[w])


def test_derived_triple_word_composes_from_tabulated_rows():
    # +*v is not tabulated; it must equal the v rewrite of the tabulated +*
    # form u1 (conj(u) u2): swap the central bar, then conjugate the product.
    op = random_op(8)
    u = rand(8)
    word = OpWord(plus=True, star=True, vee=True)
    expected = conjugate(multiply(op.u1, multiply(u, op.u2)))
    vec_close(apply(op, word, u), expected, norm(op.u1) * norm(op.u2) * norm(u))


def test_derived_triple_word_is_left_bracketed_swap():
    # the derived closed form: (conj(u2) conj(u)) conj(u1)
    op = random_op(8)
    u = rand(8)
    word = OpWord(plus=True, star=True, vee=True)
    expected = multiply(multiply(conjugate(op.u2), conjugate(u)), conjugate(op.u1))
    vec_close(apply(op, word, u), expected, norm(op.u1) * norm(op.u2) * norm(u))


def test_forms_are_distinct_and_form_a_group():
    assert len(set(_PLANS.values())) == 8
    # single-word involutions at the form level
    for gen in (OpWord(plus=True), OpWord(star=True), OpWord(vee=True)):
        for word in ALL_WORDS:
            assert word.compose(gen).compose(gen) == word


def test_derivation_rejects_a_rewrite_that_does_not_commute(monkeypatch):
    # still an involution, but it bars the central factor on one bracketing
    # of u1 and the other of u2, so it no longer commutes with +
    star = operators._GENERATORS["star"]

    def star_barring_central(p):
        x, c, y, left_assoc = star(p)
        toggle = (p[0] % 3 == 0) != p[3]    # u1 or conj(u1) on the left
        return x, (c + 3 * toggle) % 6, y, left_assoc

    base, plus = operators._BASE_PLAN, operators._GENERATORS["plus"]
    assert star_barring_central(star_barring_central(base)) == base
    assert star_barring_central(plus(base)) != plus(star_barring_central(base))
    assert operators._derive_plans() == _PLANS
    monkeypatch.setitem(operators._GENERATORS, "star", star_barring_central)
    with pytest.raises(RuntimeError, match="rewrite of"):
        operators._derive_plans()
    # a vee that keeps its plan gives each vee word the plan of the word without it
    monkeypatch.setitem(operators._GENERATORS, "star", star)
    monkeypatch.setitem(operators._GENERATORS, "vee", lambda p: p)
    with pytest.raises(RuntimeError, match="not pairwise distinct"):
        operators._derive_plans()


def test_double_application_of_each_involution_is_identity():
    op = random_op(8)
    u = rand(8)
    s = norm(op.u1) * norm(op.u2) * norm(u)
    for gen in (OpWord(plus=True), OpWord(star=True), OpWord(vee=True)):
        same = apply(op, gen.compose(gen), u)
        vec_close(same, apply(op, IDENTITY_WORD, u), s)


# -- Hermitian structure ------------------------------------------------------------


@pytest.mark.parametrize("dim", (2, 4, 8))
def test_adjoint_pairing_for_every_word(dim):
    for _ in range(20):
        op = random_op(dim)
        u, v = rand(dim), rand(dim)
        scale = norm(op.u1) * norm(op.u2) * norm(u) * norm(v)
        for word in ALL_WORDS:
            assert adjoint_residual(op, u, v, word) <= 1e-12 + 1e-9 * scale


def test_adjoint_with_unit_operands():
    op = random_op(8)
    assert adjoint_residual(op, unit(8), unit(8)) <= 1e-12 + 1e-9 * norm(op.u1) * norm(op.u2)


@pytest.mark.parametrize("dim", (4, 8))
def test_materialized_transpose_is_plus_partner(dim):
    for _ in range(5):
        op = random_op(dim)
        scale = norm(op.u1) * norm(op.u2)
        for word in (IDENTITY_WORD, OpWord(star=True), OpWord(vee=True)):
            left = materialize(op, word).T
            right = materialize(op, word.compose(OpWord(plus=True)))
            assert np.max(np.abs(left - right)) <= 1e-12 + 1e-9 * scale


def test_materialize_agrees_with_apply():
    op = random_op(8)
    u = rand(8)
    mat = materialize(op)
    vec_close(Hyper(8, mat @ u.coeffs), apply(op, IDENTITY_WORD, u),
              norm(op.u1) * norm(op.u2) * norm(u))


def test_operators_are_real_linear():
    op = random_op(8)
    u, v = rand(8), rand(8)
    a, b = -1.7, 0.3
    for word in ALL_WORDS:
        lhs = apply(op, word, a * u + b * v)
        rhs = a * apply(op, word, u) + b * apply(op, word, v)
        vec_close(lhs, rhs, norm(op.u1) * norm(op.u2) * (abs(a) * norm(u) + abs(b) * norm(v)))


# -- two-operation components ----------------------------------------------------------


@pytest.mark.parametrize("dim", (4, 8))
def test_component2_reproduces_triple_products(dim):
    for _ in range(20):
        op = random_op(dim)
        u = rand(dim)
        s = norm(op.u1) * norm(op.u2) * norm(u)
        vec_close(component2(op, +1, +1, u), anticommutator3(op.u1, u, op.u2), s)
        vec_close(component2(op, -1, -1, u), commutator3(op.u1, u, op.u2), s)
        vec_close(component2(op, -1, +1, u), associator3(op.u1, u, op.u2), s)
        assert norm(component2(op, +1, -1, u)) <= 1e-12 + 1e-9 * s


def test_component2_rejects_bad_signs():
    op = random_op(4)
    with pytest.raises(ValueError):
        component2(op, 0, 1, unit(4))


def test_component2_signed_sums_reconstruct_each_variant():
    op = random_op(8)
    u = rand(8)
    s = norm(op.u1) * norm(op.u2) * norm(u)
    comps = {(ep, es): component2(op, ep, es, u) for ep in (1, -1) for es in (1, -1)}
    for word in TWO_OP_WORDS:
        acc = Hyper.zero(8)
        for (ep, es), comp in comps.items():
            coef = (ep if word.plus else 1) * (es if word.star else 1)
            acc = acc + coef * comp
        vec_close(acc, apply(op, word, u), s)


def test_component_coefficients_match_hadamard_rows():
    # the sign pattern of the 2-op expansion is the order-4 matrix, and of
    # the 3-op expansion the order-8 matrix, under the bit indexing
    # plus->1, star->2, vee->4 for words and eps==-1 bits for components
    a4, a8 = build(4), build(8)
    for w_bits, word in enumerate(ALL_WORDS):
        for c_bits, signs in enumerate(ALL_SIGN_TRIPLES):
            coef = ((signs.eps_plus if word.plus else 1)
                    * (signs.eps_star if word.star else 1)
                    * (signs.eps_vee if word.vee else 1))
            assert coef == a8.entries[w_bits][c_bits]
            if w_bits < 4 and c_bits < 4:
                assert coef == a4.entries[w_bits][c_bits]


# -- three-operation components ----------------------------------------------------------


@pytest.mark.parametrize("dim", (4, 8))
def test_component3_sum_reconstructs_operator(dim):
    for _ in range(10):
        op = random_op(dim)
        u = rand(dim)
        s = norm(op.u1) * norm(op.u2) * norm(u)
        total = Hyper.zero(dim)
        for signs in ALL_SIGN_TRIPLES:
            total = total + component3(op, signs, u)
        vec_close(total, apply(op, IDENTITY_WORD, u), s)


def test_component3_telescopes_to_component2():
    op = random_op(8)
    u = rand(8)
    s = norm(op.u1) * norm(op.u2) * norm(u)
    for ep in (1, -1):
        for es in (1, -1):
            merged = (component3(op, SignTriple(ep, es, 1), u)
                      + component3(op, SignTriple(ep, es, -1), u))
            vec_close(merged, component2(op, ep, es, u), s)


@pytest.mark.parametrize("dim", (1, 2, 4, 8))
def test_component3_eigen_relations(dim):
    # * and v by their definitions: * reverses every product, and
    # conj((conj(x) conj(c)) conj(y)) = y (c x); v conjugates the argument,
    # then the product
    for _ in range(5):
        op = random_op(dim)
        op_bar = TripleOperator(conjugate(op.u1), conjugate(op.u2))
        u, v = rand(dim), rand(dim)
        s = norm(op.u1) * norm(op.u2) * norm(u)
        sv = s * norm(v)
        for signs in ALL_SIGN_TRIPLES:
            r_plus = component3_eigen_residuals(op, signs, u, v)
            assert r_plus <= 1e-12 + 1e-9 * sv
            b_u = component3(op, signs, u)
            vec_close(conjugate(component3(op_bar, signs, conjugate(u))), signs.eps_star * b_u, s)
            vec_close(conjugate(component3(op, signs, conjugate(u))), signs.eps_vee * b_u, s)
