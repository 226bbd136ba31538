"""Involutive transforms of the triple-product operator and its components.

For fixed parameters (u1, u2) the operator A u = (u1 conj(u)) u2 supports
three commuting involutions:

    +   Hermitian conjugation, (A u, v) = (u, A+ v),
    *   inversion of the multiplicative order of the three factors,
    v   conjugation of the central argument followed by conjugation
        of the whole product.

Words over {+, *, v} form the group (Z/2)^3; every transformed operator
has a closed form of the shape (x c) y or x (c y) with optionally
conjugated factors, held once as the plan its word values evaluate:
three factor slots and a bracketing.  The plans are not hard-coded per
word: the generator rewrites act on the plan of (u1 conj(u)) u2, and
the derivation fails loudly unless the eight plans are distinct and
closed under every rewrite; that closure proves that the rewrites
commute.  With word w numbered by its bits (+ = 1, * = 2, v = 4), the
components are the rows of one Sylvester transform of the word values,
scaled by 1/8: row g averages the eight transformed operators with the
sign pattern ALL_SIGN_TRIPLES[g] and scales by the corresponding eps
under each involution.  Composing every word with a generator permutes
the word values by w -> w xor bit.  The transform of the four two-op
values over {+, *}, scaled by 1/4, reproduces the triple
anticommutator, associator and commutator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Hyper, _as_int, _check_same_dim, _coeffs, _conjugate, _inner, _multiply
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

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {value!r}")
            if type(value) is not bool:   # a numpy bool goes no further
                object.__setattr__(self, name, bool(value))

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
        for name, value in vars(self).items():
            object.__setattr__(self, name, _as_int(name, value, (1, -1)))

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


# A plan (x, c, y, left_assoc) is the closed form (x c) y, or x (c y) when
# left_assoc is False; each factor is its slot in
# (u1, u2, u, conj(u1), conj(u2), conj(u)), so a bar moves a slot by 3.
_BASE_PLAN = (0, 5, 1, True)            # (u1 conj(u)) u2
_SWAP = (1, 0, 2, 4, 3, 5)              # u1 <-> u2, bars kept


def _gen_plus(p: tuple) -> tuple:
    # Hermitian conjugation swaps the parameter subscripts in place.
    x, c, y, left_assoc = p
    return _SWAP[x], c, _SWAP[y], left_assoc


def _gen_star(p: tuple) -> tuple:
    # Order inversion reverses the three factors: (x c) y -> y (c x).
    x, c, y, left_assoc = p
    return y, c, x, not left_assoc


def _gen_vee(p: tuple) -> tuple:
    # Replace the central argument by its conjugate, then conjugate the product:
    # conj((x conj(c)) y) = conj(y) (c conj(x)), so the two bars on c cancel.
    x, c, y, left_assoc = p
    return (y + 3) % 6, c, (x + 3) % 6, not left_assoc


# in bit order: generator k sets bit 1 << k of a word's index in ALL_WORDS
_GENERATORS = {"plus": _gen_plus, "star": _gen_star, "vee": _gen_vee}


def _derive_plans() -> dict[OpWord, tuple]:
    """Derive the plan of every word from the generator rewrites.

    Word b is the rewrite of b without its lowest generator by that generator.
    Closure of the distinct plans under every rewrite makes every generator
    order, repeats included, give one plan: commutativity is checked, not assumed.
    """
    gens = tuple(_GENERATORS.values())
    plans = {IDENTITY_WORD: _BASE_PLAN}
    for b in range(1, len(ALL_WORDS)):
        low = b & -b
        plans[ALL_WORDS[b]] = gens[low.bit_length() - 1](plans[ALL_WORDS[b ^ low]])
    if len(set(plans.values())) != len(ALL_WORDS):
        raise RuntimeError("derived closed forms are not pairwise distinct")
    for word in ALL_WORDS:
        for name, gen in _GENERATORS.items():
            stepped = word.compose(OpWord(**{name: True}))
            if gen(plans[word]) != plans[stepped]:
                raise RuntimeError(f"rewrite of {word.label} by {name} is not {stepped.label}")
    return plans


_PLANS = _derive_plans()


def _checked(table: dict, value, name: str, kind: str):
    """table[value] for a public argument, or a ValueError that names it."""
    try:
        return table[value]
    except (KeyError, TypeError):   # TypeError: an unhashable value
        raise ValueError(f"{name} must be {kind}, got {value!r}") from None


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


def apply(op: TripleOperator, word: OpWord, u: Hyper) -> Hyper:
    """Evaluate the word-transformed operator at u."""
    _checked(_PLANS, word, "word", "an OpWord")
    u1, u2, x = _coeffs(op.u1, op.u2, u)
    return Hyper._wrap(op.dim, _word_values(u1, u2, x, (word,))[0])


def adjoint_residual(op: TripleOperator, u: Hyper, v: Hyper,
                     word: OpWord = IDENTITY_WORD) -> float:
    """|(A^w u, v) - (u, A^{w+} v)|: how far the +-partner is from the true adjoint."""
    _checked(_PLANS, word, "word", "an OpWord")
    u1, u2, x, y = _coeffs(op.u1, op.u2, u, v)
    lhs = _inner(_word_values(u1, u2, x, (word,))[0], y)
    rhs = _inner(x, _word_values(u1, u2, y, (word.compose(OpWord(plus=True)),))[0])
    return float(abs(lhs - rhs))


def _materialize(u1: np.ndarray, u2: np.ndarray, word: OpWord) -> np.ndarray:
    """Array form of materialize: (..., dim, dim), column k the image of basis element k:
    one word value over the rows of the identity, with the last two axes swapped."""
    rows = _word_values(u1[..., None, :], u2[..., None, :], np.eye(u1.shape[-1]), (word,))[0]
    return np.swapaxes(rows, -1, -2)


def materialize(op: TripleOperator, word: OpWord = IDENTITY_WORD) -> np.ndarray:
    """Dense dim x dim matrix of the word-transformed operator (column k is
    the image of basis element k).  Second, matrix-level route to the adjoint:
    the +-partner's matrix must be the transpose."""
    _checked(_PLANS, word, "word", "an OpWord")
    return _materialize(op.u1.coeffs, op.u2.coeffs, word)


# -- symmetric / skew-symmetric components -----------------------------------

_WORD_INDEX = np.arange(len(ALL_WORDS))
_SIGN_ROWS = {signs: g for g, signs in enumerate(ALL_SIGN_TRIPLES)}
_EPS_PLUS = np.array([s.eps_plus for s in ALL_SIGN_TRIPLES])


def _word_values(u1: np.ndarray, u2: np.ndarray, u: np.ndarray, words=ALL_WORDS) -> np.ndarray:
    """A^w u for each word, stacked along a new first axis in the given order.

    Of u1, u2 and u, only those that some word bars are conjugated, each once
    per call, not once per word; each word's operands and bracketing come
    from its plan."""
    plans = [_PLANS[w] for w in words]
    operand = [u1, u2, u, None, None, None]
    for slot in {s for plan in plans for s in plan[:3] if s > 2}:
        operand[slot] = _conjugate(operand[slot - 3])
    return np.array([_multiply(_multiply(operand[x], operand[c]), operand[y]) if left_assoc
                     else _multiply(operand[x], _multiply(operand[c], operand[y]))
                     for x, c, y, left_assoc in plans])


def _components(values: np.ndarray) -> np.ndarray:
    """Every component from the word values, row g for ALL_SIGN_TRIPLES[g]."""
    return transform(values / len(values))


def component2(op: TripleOperator, eps_plus: int, eps_star: int, u: Hyper) -> Hyper:
    """Average over {e, +, *, +*} with signs eps_+^a eps_*^b.

    (+1,+1) is the triple anticommutator, (-1,-1) the triple commutator,
    (-1,+1) the associator and (+1,-1) vanishes identically.
    """
    row = _SIGN_ROWS[SignTriple(eps_plus, eps_star, 1)]
    values = _word_values(*_coeffs(op.u1, op.u2, u), TWO_OP_WORDS)
    return Hyper._wrap(op.dim, _components(values)[row])


def component3(op: TripleOperator, signs: SignTriple, u: Hyper) -> Hyper:
    """Average over all eight words with signs eps_+^a eps_*^b eps_v^c."""
    row = _checked(_SIGN_ROWS, signs, "signs", "a SignTriple")
    return Hyper._wrap(op.dim, _components(_word_values(*_coeffs(op.u1, op.u2, u)))[row])


def _eigen_residuals(b_u: np.ndarray, b_v: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(B u, v) - eps_+ (u, B v) for every component B, row g for ALL_SIGN_TRIPLES[g],
    from the components b_u at u and b_v at v, over the leading axes of u and v."""
    eps_plus = _EPS_PLUS.reshape(-1, *(1,) * (b_u.ndim - 2))
    return _inner(b_u, v) - eps_plus * _inner(b_v, u)


def component3_eigen_residuals(op: TripleOperator, signs: SignTriple, u: Hyper, v: Hyper) -> float:
    """|(B u, v) - eps_+ (u, B v)| for the component B = component3(op, signs, .), whose
    adjoint must be eps_+ B.  B^* = eps_* B and B^v = eps_v B get no residual here: word
    values reordered by * or v give the sign-flipped B bit for bit.  The tests check them
    by their definitions, from the components at conjugated arguments."""
    row = _checked(_SIGN_ROWS, signs, "signs", "a SignTriple")
    u1, u2, x, y = _coeffs(op.u1, op.u2, u, v)
    b_u, b_v = (_components(_word_values(u1, u2, w)) for w in (x, y))
    return float(abs(_eigen_residuals(b_u, b_v, x, y)[row]))
