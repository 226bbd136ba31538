"""Involutive transforms of the triple-product operator and its components.

For fixed parameters (u1, u2) the operator A u = (u1 conj(u)) u2 supports
three commuting involutions:

    +   Hermitian conjugation, (A u, v) = (u, A+ v),
    *   inversion of the multiplicative order of the three factors,
    v   conjugation of the central argument followed by conjugation
        of the whole product.

Words over {+, *, v} form the group (Z/2)^3; every transformed operator
has a closed form of the shape (x c) y or x (c y) with optionally
conjugated factors.  The closed forms are not hard-coded per word: they
are derived mechanically from the generator rewrites, and the derivation
fails loudly unless the table is closed under every rewrite; that
closure proves that the rewrites commute.  With word w numbered by its
bits (+ = 1, * = 2, v = 4), the components are the rows of one Sylvester
transform of the word values, scaled by 1/8: row g averages the eight
transformed operators with the sign pattern ALL_SIGN_TRIPLES[g] and
scales by the corresponding eps under each involution.  Composing every
word with a generator permutes the word values by w -> w xor bit.  The
transform of the four two-op values over {+, *}, scaled by 1/4,
reproduces the triple anticommutator, associator and commutator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Hyper, _check_same_dim, _coeffs, _conjugate, _inner, _multiply, _norm
# `multiply` stays bound in this module as it was before the array forms: the
# benchmark's call tracer (perfbench/tracer.py) wraps it in every module of the
# package that binds it.
from .core import multiply  # noqa: F401
from .hadamard import transform


@dataclass(frozen=True)
class OpWord:
    """Which of the three involutions are applied (order never matters)."""

    plus: bool = False
    star: bool = False
    vee: bool = False

    def compose(self, other: "OpWord") -> "OpWord":
        return OpWord(self.plus ^ other.plus, self.star ^ other.star, self.vee ^ other.vee)

    @property
    def label(self) -> str:
        s = ("+" if self.plus else "") + ("*" if self.star else "") + ("v" if self.vee else "")
        return s or "e"


IDENTITY_WORD = OpWord()
ALL_WORDS = tuple(
    OpWord(plus=bool(b & 1), star=bool(b & 2), vee=bool(b & 4)) for b in range(8)
)
TWO_OP_WORDS = ALL_WORDS[:4]  # e, +, *, +*


@dataclass(frozen=True)
class SignTriple:
    """Eigenvalue pattern (eps_+, eps_*, eps_v), each +1 or -1."""

    eps_plus: int
    eps_star: int
    eps_vee: int

    def __post_init__(self) -> None:
        for name in ("eps_plus", "eps_star", "eps_vee"):
            if getattr(self, name) not in (-1, 1):
                raise ValueError(f"{name} must be +1 or -1, got {getattr(self, name)!r}")

    @property
    def label(self) -> str:
        parts = ("+1" if e > 0 else "-1"
                 for e in (self.eps_plus, self.eps_star, self.eps_vee))
        return "({},{},{})".format(*parts)


# Ordered so that the sign pattern of the reconstruction coefficients is
# exactly the order-8 Hadamard matrix: bit 0 of the index flips eps_+,
# bit 1 flips eps_*, bit 2 flips eps_v.
ALL_SIGN_TRIPLES = tuple(
    SignTriple(1 - 2 * (b & 1), 1 - 2 * ((b >> 1) & 1), 1 - 2 * ((b >> 2) & 1))
    for b in range(8)
)


# -- closed-form derivation --------------------------------------------------


@dataclass(frozen=True)
class _Form:
    """Template (x c) y or x (c y): which parameter sits left, which factors
    carry a conjugation bar, and the bracketing."""

    left: int            # 1 or 2: index of the parameter in the left slot
    bar_left: bool
    bar_central: bool    # True: central factor is conj(u); False: plain u
    bar_right: bool
    left_assoc: bool     # True: (left central) right; False: left (central right)


_BASE_FORM = _Form(left=1, bar_left=False, bar_central=True, bar_right=False, left_assoc=True)


def _gen_plus(f: _Form) -> _Form:
    # Hermitian conjugation swaps the parameter subscripts in place.
    return _Form(3 - f.left, f.bar_left, f.bar_central, f.bar_right, f.left_assoc)


def _gen_star(f: _Form) -> _Form:
    # Order inversion reverses the three factors: (x c) y -> y (c x).
    return _Form(3 - f.left, f.bar_right, f.bar_central, f.bar_left, not f.left_assoc)


def _conjugate_form(f: _Form) -> _Form:
    # conj((x c) y) = conj(y) (conj(c) conj(x)): reverse, bar every factor.
    return _Form(3 - f.left, not f.bar_right, not f.bar_central, not f.bar_left,
                 not f.left_assoc)


def _gen_vee(f: _Form) -> _Form:
    # Replace the central argument by its conjugate, then conjugate the product.
    toggled = _Form(f.left, f.bar_left, not f.bar_central, f.bar_right, f.left_assoc)
    return _conjugate_form(toggled)


# in bit order: generator k sets bit 1 << k of a word's index in ALL_WORDS
_GENERATORS = {"plus": _gen_plus, "star": _gen_star, "vee": _gen_vee}


def _derive_forms() -> dict[OpWord, _Form]:
    """Derive the closed form of every word from the generator rewrites.

    Word b is the rewrite of b without its lowest generator by that generator.
    Closure of the distinct forms under every rewrite makes every generator
    order, repeats included, give one form: commutativity is checked, not assumed.
    """
    gens = tuple(_GENERATORS.values())
    forms = {IDENTITY_WORD: _BASE_FORM}
    for b in range(1, len(ALL_WORDS)):
        low = b & -b
        forms[ALL_WORDS[b]] = gens[low.bit_length() - 1](forms[ALL_WORDS[b ^ low]])
    if len(set(forms.values())) != len(ALL_WORDS):
        raise RuntimeError("derived closed forms are not pairwise distinct")
    for word in ALL_WORDS:
        for name, gen in _GENERATORS.items():
            stepped = word.compose(OpWord(**{name: True}))
            if gen(forms[word]) != forms[stepped]:
                raise RuntimeError(f"rewrite of {word.label} by {name} is not {stepped.label}")
    return forms


_FORMS = _derive_forms()


# each word's (left, central, right, left_assoc), a factor being its slot in
# (u1, u2, u, conj(u1), conj(u2), conj(u))
_PLANS = {word: (f.left - 1 + 3 * f.bar_left, 2 + 3 * f.bar_central,
                 2 - f.left + 3 * f.bar_right, f.left_assoc) for word, f in _FORMS.items()}


# -- the operator ------------------------------------------------------------


@dataclass(frozen=True)
class TripleOperator:
    """The map u -> (u1 conj(u)) u2 with fixed parameters u1, u2."""

    u1: Hyper
    u2: Hyper

    def __post_init__(self) -> None:
        _check_same_dim(self.u1, self.u2)

    @property
    def dim(self) -> int:
        return self.u1.dim


def _apply(u1: np.ndarray, u2: np.ndarray, word: OpWord, u: np.ndarray) -> np.ndarray:
    """Array form of apply: the operator with parameters u1, u2 transformed by word, at u."""
    return _word_values(u1, u2, u, (word,))[0]


def apply(op: TripleOperator, word: OpWord, u: Hyper) -> Hyper:
    """Evaluate the word-transformed operator at u."""
    u1, u2, x = _coeffs(op.u1, op.u2, u)
    return Hyper._wrap(op.dim, _apply(u1, u2, word, x))


def adjoint_residual(op: TripleOperator, u: Hyper, v: Hyper,
                     word: OpWord = IDENTITY_WORD) -> float:
    """|(A^w u, v) - (u, A^{w+} v)|: how far the +-partner is from the true adjoint."""
    u1, u2, x, y = _coeffs(op.u1, op.u2, u, v)
    lhs = _inner(_word_values(u1, u2, x, (word,))[0], y)
    rhs = _inner(x, _word_values(u1, u2, y, (word.compose(OpWord(plus=True)),))[0])
    return float(abs(lhs - rhs))


def _materialize(u1: np.ndarray, u2: np.ndarray, word: OpWord) -> np.ndarray:
    """Array form of materialize: (..., dim, dim), column k the image of basis element k."""
    return np.stack([_apply(u1, u2, word, e) for e in np.eye(u1.shape[-1])], axis=-1)


def materialize(op: TripleOperator, word: OpWord = IDENTITY_WORD) -> np.ndarray:
    """Dense dim x dim matrix of the word-transformed operator (column k is
    the image of basis element k).  Second, matrix-level route to the adjoint:
    the +-partner's matrix must be the transpose."""
    return _materialize(op.u1.coeffs, op.u2.coeffs, word)


# -- symmetric / skew-symmetric components -----------------------------------

_WORD_INDEX = np.arange(len(ALL_WORDS))
_EPS = np.array([(s.eps_plus, s.eps_star, s.eps_vee) for s in ALL_SIGN_TRIPLES])


def _word_values(u1: np.ndarray, u2: np.ndarray, u: np.ndarray, words=ALL_WORDS) -> np.ndarray:
    """A^w u for each word, stacked along a new first axis in the given order.

    u1, u2 and u are each conjugated once per call, not once per word; each
    word's operands and bracketing come from its plan."""
    operand = [u1, u2, u]
    operand += [_conjugate(x) for x in operand]
    return np.stack([_multiply(_multiply(operand[x], operand[c]), operand[y]) if left_assoc
                     else _multiply(operand[x], _multiply(operand[c], operand[y]))
                     for x, c, y, left_assoc in (_PLANS[w] for w in words)])


def _components(values: np.ndarray) -> np.ndarray:
    """Every component from the word values, row g for ALL_SIGN_TRIPLES[g]."""
    return transform(values / len(values))


def component2(op: TripleOperator, eps_plus: int, eps_star: int, u: Hyper) -> Hyper:
    """Average over {e, +, *, +*} with signs eps_+^a eps_*^b.

    (+1,+1) is the triple anticommutator, (-1,-1) the triple commutator,
    (-1,+1) the associator and (+1,-1) vanishes identically.
    """
    row = ALL_SIGN_TRIPLES.index(SignTriple(eps_plus, eps_star, 1))
    values = _word_values(*_coeffs(op.u1, op.u2, u), TWO_OP_WORDS)
    return Hyper._wrap(op.dim, _components(values)[row])


def component3(op: TripleOperator, signs: SignTriple, u: Hyper) -> Hyper:
    """Average over all eight words with signs eps_+^a eps_*^b eps_v^c."""
    row = ALL_SIGN_TRIPLES.index(signs)
    return Hyper._wrap(op.dim, _components(_word_values(*_coeffs(op.u1, op.u2, u)))[row])


def _eigen_residuals(values_u: np.ndarray, values_v: np.ndarray,
                     u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(8, 3, ...) array: the residuals of component3_eigen_residuals for every
    sign triple, over the leading axes of u and v."""
    eps = _EPS.T.reshape(3, 8, *(1,) * (values_u.ndim - 2))
    b_u, b_v = _components(values_u), _components(values_v)
    r_plus = np.abs(_inner(b_u, v) - eps[0] * _inner(b_v, u))
    r_star = _norm(_components(values_u[_WORD_INDEX ^ 2]) - eps[1][..., None] * b_u)
    r_vee = _norm(_components(values_u[_WORD_INDEX ^ 4]) - eps[2][..., None] * b_u)
    return np.stack((r_plus, r_star, r_vee), axis=1)


def component3_eigen_residuals(op: TripleOperator, signs: SignTriple,
                               u: Hyper, v: Hyper) -> tuple[float, float, float]:
    """Residuals of the three eigen-relations of a component B = component3.

    Returns (r_plus, r_star, r_vee):
      r_plus  = |(B u, v) - eps_+ (u, B v)|       adjoint must scale B by eps_+
      r_star  = |B^* u - eps_* B u|                order inversion, term by term
      r_vee   = |B^v u - eps_v B u|                central/total conjugation

    The + relation is checked through the inner-product pairing, which
    exercises the Hermitian-conjugation content; * and v are definitional
    rewrites applied to every term.
    """
    u1, u2, x, y = _coeffs(op.u1, op.u2, u, v)
    res = _eigen_residuals(_word_values(u1, u2, x), _word_values(u1, u2, y), x, y)
    return tuple(float(r) for r in res[ALL_SIGN_TRIPLES.index(signs)])
