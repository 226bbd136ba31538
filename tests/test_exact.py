"""Every counted per-trial identity, proved a polynomial identity by exact evaluation.

Each per-trial suite body is a polynomial program: it hands `Channels` differences
whose entries are polynomials in the coefficients of its draws, built from sums,
products, conjugates and divisions by the constants 2, 4 and 8.  None has total
degree above D = 6 (the length formulas, of degree 2 in each of three arguments).
By DeMillo and Lipton (IPL 7(4), 1978), Schwartz (JACM 27(4), 1980) and Zippel
(EUROSAM 1979), a nonzero polynomial of total degree at most D vanishes at a point
drawn uniformly from S^n with probability at most D / |S|.  Here S is the 2^63
integers in [-2^62, 2^62), so a channel that reads exactly 0 on r independent rows
is the zero polynomial, except with probability at most (6 / 2^63)^r: below 5e-37
at the two rows drawn at dims 1, 2, 4 and 8.

The bodies run as they are, inside `core._block_memo()`, on object blocks of the
exact type `Q`, through a recorder that keeps, per channel, whether a term is not
exactly 0 and the types of its entries.  A float entry would mean an exact product
was rounded somewhere, so none may occur.  `Q` has no `sqrt` and refuses `abs` and
`float`, so a body that takes a norm or an abs of anything it derives from its draws
raises: the recorder takes every size, and it must see exactly the suite's rows of
`verify.CHANNELS`.  `gram_positive_semidefinite` is an inequality, not an identity,
and is skipped.  The `info:` channels are recorded too: they pin which of the eight
three-operation components vanish identically at each dim.  At dim 16, the
sedenions, the nonzero counted channels must be exactly the `fails_at_16` rows of
`verify.CHANNELS`; each is an exact certificate, with no tolerance in it.  The float
control in tests/test_mutants.py also pins the gate's margins there, which this run
does not.  tests/test_mutants.py runs it under the butterfly flip that the float gate
misses, and so proves that mutant equivalent.
"""

from fractions import Fraction

import numpy as np
import pytest

from octotriple.core import DEFAULT_TOLERANCE, _block_memo
from octotriple.verify import _SUITES, CHANNELS, Channels, RunConfig, _draw_block

PER_TRIAL_SUITES = tuple(s for s in _SUITES if s.random)
SKIPPED = "gram_positive_semidefinite"   # max(0, -det): an inequality


def _ratio(x):
    """x's numerator and denominator, exactly; a float's by `as_integer_ratio`."""
    return x.as_integer_ratio() if isinstance(x, float) else (x.numerator, x.denominator)


class Q(Fraction):
    """A Fraction that stays one.  A float operand, such as an entry of the float64
    sign table or a literal, converts exactly, where a plain Fraction would round
    itself to a float; each result is built once, from its numerator and denominator.
    An operation it does not define falls back to Fraction's, whose result the
    recorder's type check refuses.  It has no `sqrt`, and `abs` and `float` raise: a
    body may take no size of a value it derives from its draws."""

    __slots__ = ()

    def __add__(a, b):
        n, d = _ratio(b)
        return Q(a.numerator * d + n * a.denominator, a.denominator * d)

    __radd__ = __add__

    def __sub__(a, b):
        n, d = _ratio(b)
        return Q(a.numerator * d - n * a.denominator, a.denominator * d)

    def __rsub__(a, b):
        n, d = _ratio(b)
        return Q(n * a.denominator - a.numerator * d, a.denominator * d)

    def __mul__(a, b):
        n, d = _ratio(b)
        return Q(a.numerator * n, a.denominator * d)

    __rmul__ = __mul__

    def __truediv__(a, b):
        n, d = _ratio(b)
        return Q(a.numerator * d, a.denominator * n)

    def __neg__(a):
        return Q(-a.numerator, a.denominator)

    def __abs__(a):
        raise AssertionError("a suite body took an abs itself")

    def __float__(a):   # a float would let np.sqrt and math.sqrt take a size
        raise AssertionError("a suite body rounded an exact value to a float")


class ExactChannels(Channels):
    """Per channel, whether some term is not exactly 0, and the types of the entries.

    Its norms are ones, so a body's scales are too, and no size is ever taken."""

    def __init__(self):
        super().__init__(DEFAULT_TOLERANCE)
        self.nonzero: dict[str, bool] = {}
        self.types: dict[str, set] = {}

    def norms(self, *blocks) -> tuple:
        return tuple(np.ones(b.shape[:-1]) for b in blocks)

    def add(self, name, diffs, scale=None, factor=1.0) -> None:
        if name == SKIPPED:
            return
        for term in diffs if isinstance(diffs, tuple) else (diffs,):
            entries = np.asarray(term, dtype=object).ravel().tolist()
            self.types.setdefault(name, set()).update(map(type, entries))
            self.nonzero[name] = self.nonzero.get(name, False) or any(x != 0 for x in entries)

    add_norm = add


def _exact_draws(suite, dim, rows, seed):
    """suite's blocks as read-only object arrays of Q, integers uniform in [-2^62, 2^62)."""
    rng = np.random.default_rng(seed)
    shapes = [(rows, dim)] * suite.vectors + ([(rows, suite.scalars)] if suite.scalars else [])
    blocks = []
    for shape in shapes:
        block = np.array([Q(int(x)) for x in rng.integers(-2**62, 2**62, size=shape).flat],
                         dtype=object).reshape(shape)
        block.setflags(write=False)
        blocks.append(block)
    return tuple(blocks)


def _run(suite, draws, ch):
    with _block_memo():
        suite.body(draws, ch)
    return ch


def _exact_run(suite, dim, rows):
    """The exact recorder of suite's body on `rows` rows at dim, seeded by dim; every entry
    it saw must be exact."""
    ch = _run(suite, _exact_draws(suite, dim, rows, seed=dim), ExactChannels())
    assert {k: t for k, t in ch.types.items() if t != {Q}} == {}
    return ch


def _counted_nonzero(dim, rows):
    """suite:name of each counted channel of the per-trial bodies not exactly 0 at dim."""
    return {f"{suite.name}:{k}" for suite in PER_TRIAL_SUITES
            for k, nonzero in _exact_run(suite, dim, rows).nonzero.items()
            if nonzero and not k.startswith("info:")}


def _table_channels(suite, dim):
    """The channels the table says a suite's report at dim records."""
    return {key.split(":", 1)[1] for key, (_, dims, _, _) in CHANNELS.items()
            if key.split(":", 1)[0] == suite and (not dims or dim in dims)}


# the labels of the three-operation components that vanish identically, by dim: the
# operator suite's info: norms that read exactly 0
VANISHING = {
    1: ("(-1,+1,+1)", "(+1,-1,+1)", "(-1,-1,+1)", "(+1,+1,-1)", "(-1,+1,-1)", "(+1,-1,-1)",
        "(-1,-1,-1)"),
    2: ("(-1,+1,+1)", "(+1,-1,+1)", "(-1,-1,+1)", "(-1,+1,-1)", "(+1,-1,-1)", "(-1,-1,-1)"),
    4: ("(-1,+1,+1)", "(+1,-1,+1)", "(-1,+1,-1)", "(+1,-1,-1)"),
    8: ("(+1,-1,+1)", "(-1,+1,-1)", "(+1,-1,-1)"),
}


@pytest.mark.parametrize("suite", PER_TRIAL_SUITES, ids=[s.name for s in PER_TRIAL_SUITES])
@pytest.mark.parametrize("dim", (1, 2, 4, 8))
def test_every_counted_channel_is_the_zero_polynomial(suite, dim):
    ch = _exact_run(suite, dim, rows=2)
    # the recorder sees every row of the table but the one that only trial 0's public
    # route records, so a body can drop no channel and take no size itself
    assert set(ch.nonzero) == _table_channels(suite.name, dim) - {"component3_public_api",
                                                                    SKIPPED}
    zero = {k for k, nonzero in ch.nonzero.items() if not nonzero}
    info = {k for k in ch.nonzero if k.startswith("info:")}   # the operator suite's alone
    assert set(ch.nonzero) - info <= zero
    if info:
        vanishing = {f"info:three_op_norm{label}" for label in VANISHING[dim]}
        assert zero & info == vanishing
        # a float run of the body reads exactly these at or below rel, and the rest above it
        floats = _run(suite, _draw_block(suite, RunConfig(seed=dim, trials=2), dim, 0, 2),
                      Channels(DEFAULT_TOLERANCE))
        assert {k for k in info if floats.maxima[k] <= DEFAULT_TOLERANCE.rel} == vanishing


def test_the_sedenions_fail_exactly_the_channels_marked_fails_at_16():
    assert _counted_nonzero(16, rows=1) == {
        k for k, (_, _, fails_at_16, _) in CHANNELS.items() if fails_at_16}
