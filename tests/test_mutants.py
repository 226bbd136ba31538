"""The verifier must reject a wrong algebra, not only pass the right one.

Three mutant classes, each applied by monkeypatching:

- one entry of the product sign table flipped.  Each of the 1 + 4 + 16 + 64
  entries at dims 1, 2, 4 and 8 is flipped in turn in
  `core._product_tables`, and the core suite alone must fail on the
  mutated product;
- one derived closed form broken.  Each word's plan in `operators._PLANS`
  has one of its three bars toggled, at dims 2, 4 and 8 (conjugation is
  the identity at dim 1), or, at dim 8 only, its bracketing swapped (the
  product is associative at dims up to 4).  The per-trial suites together
  must fail on every such plan, and so must the * and v relations checked
  by their definitions on one block;
- one butterfly stage of `hadamard.transform` with its difference negated.
  The per-trial suites together must fail on the stage-0 and stage-1 flips
  at every dim, and on the stage-2 flip at dims 4 and 8.  Stage 2 exists
  only in the eight-word transform, where it negates the rows with eps_+ =
  -1; at dims 1 and 2 those rows vanish in exact arithmetic, so there the
  mutant is equivalent, and the test asserts that the rows it changes are
  at rounding level.

A counted channel that no mutant moves off 0.0, or none pushes above the
tolerance, checks nothing that these mutants break; at dims 4 and 8 only the
five "unmoved" and the four "unfailed" channels of `verify.CHANNELS` may,
each with the reason no mutant can reach it.

A real algebra is the last control: the sedenions, the doubling rule applied
once more, at dim 16.  The suite bodies take any width, so they run there
unpatched, and exactly the fourteen channels whose identities need a normed or
alternative algebra, those the table marks `fails_at_16`, must fail.
"""

import functools

import numpy as np
import pytest

from octotriple import core, hadamard, operators, triple, verify
from octotriple.verify import _SUITES, CHANNELS, Channels, RunConfig, run_all

PER_TRIAL_SUITES = tuple(s.name for s in _SUITES if s.random)


def _flipped_tables(dim, i, k):
    """_product_tables with sign entry [i, k] of dimension dim negated."""
    original = core._product_tables
    xor, sign = original(dim)
    mutant = sign.copy()
    mutant[i, k] = -mutant[i, k]
    return lambda d: (xor, mutant) if d == dim else original(d)


@pytest.mark.parametrize("dim", core.VALID_DIMS)
def test_core_suite_catches_every_sign_flip(dim):
    clean, mutants = _mutant_maxima(dim)
    assert not _fails(clean)
    assert [key for key, maxima in mutants.items()
            if key[0] == "sign" and not _fails(maxima, "core:")] == []


def _plan_mutants(dim):
    """(word, mutant plan): each plan with one factor's bar toggled, and at
    dim 8 with its bracketing swapped."""
    for word, plan in operators._PLANS.items():
        for k in range(3):
            yield word, plan[:k] + ((plan[k] + 3) % 6,) + plan[k + 1:]
        if dim == 8:
            yield word, plan[:3] + (not plan[3],)


@pytest.mark.parametrize("dim", (2, 4, 8))
def test_per_trial_suites_catch_every_plan_mutant(dim):
    clean, mutants = _mutant_maxima(dim)
    assert not _fails(clean)
    assert [key for key, maxima in mutants.items() if key[0] == "plan" and not _fails(maxima)] == []


_EPS_STAR_VEE = np.array([[s.eps_star for s in operators.ALL_SIGN_TRIPLES],
                          [s.eps_vee for s in operators.ALL_SIGN_TRIPLES]])[..., None, None]


def _star_vee_residual(dim):
    """The larger of the * and v relations of every component on a 16-row block,
    relative to |u1| |u2| |u|."""
    u1, u2, u = np.random.default_rng(dim).standard_normal((3, 16, dim))
    conj = core._conjugate
    b = operators._components(operators._word_values(u1, u2, u))
    star = conj(operators._components(operators._word_values(conj(u1), conj(u2), conj(u))))
    vee = conj(operators._components(operators._word_values(u1, u2, conj(u))))
    residual = np.linalg.norm(np.array((star, vee)) - _EPS_STAR_VEE * b, axis=-1)
    scale = np.linalg.norm(u1, axis=-1) * np.linalg.norm(u2, axis=-1) * np.linalg.norm(u, axis=-1)
    return float(np.max(residual / scale))


# The * and v relations by their definitions: * reverses every product, and
# conj((conj(x) conj(c)) conj(y)) = y (c x), so conj(A'^w(conj u)) = A^(w*)(u) with A'
# the operator of conj(u1) and conj(u2); v conjugates the argument, then the product,
# so conj(A^w(conj u)) = A^(wv)(u).  One product serves both sides.  Beyond every plan
# mutant they catch 70 of the 85 sign-table flips: the 15 they miss flip a square
# e_i e_i, which adds to the scalar part a term symmetric in the two factors and
# unchanged by conjugating both, so conj(a b) = conj(b) conj(a) still holds.  They
# catch no butterfly flip, which negates the same rows on both sides.
@pytest.mark.parametrize("dim", (2, 4, 8))
def test_star_and_vee_definitions_catch_every_plan_mutant(dim, monkeypatch):
    assert _star_vee_residual(dim) <= 1e-14
    missed = []
    for word, mutant in _plan_mutants(dim):
        with monkeypatch.context() as m:
            m.setitem(operators._PLANS, word, mutant)
            if _star_vee_residual(dim) <= 1e-9:
                missed.append((word.label, mutant))
    assert missed == []


def _flipped_butterfly(stage):
    """hadamard.transform with the difference of butterfly stage `stage`
    negated; stage -1 flips nothing."""
    def transform(values):
        x = np.asarray(values)
        n = x.shape[0]
        h = n // 2
        rows = x.reshape(n, -1)
        for k in range(h.bit_length()):
            a, b = rows[:h], rows[h:]
            rows = np.concatenate((a + b, b - a if k == stage else a - b), axis=1).reshape(n, -1)
        return rows.reshape(x.shape)
    return transform


def test_the_unflipped_butterfly_is_the_transform():
    for n in hadamard.VALID_ORDERS:
        values = np.random.default_rng(n).standard_normal((n, 5, 8))
        assert _flipped_butterfly(-1)(values).tobytes() == hadamard.transform(values).tobytes()


@pytest.mark.parametrize("stage, caught_dims", ((0, core.VALID_DIMS), (1, core.VALID_DIMS),
                                                (2, (4, 8))),
                         ids=("stage0", "stage1", "stage2"))
def test_per_trial_suites_catch_every_butterfly_flip(stage, caught_dims, monkeypatch):
    for dim in core.VALID_DIMS:
        assert _fails(_mutant_maxima(dim)[1]["butterfly", stage]) == (dim in caught_dims), dim
    mutant = _flipped_butterfly(stage)
    seen = []

    def recording(values):
        seen.append(np.array(values))
        return mutant(values)

    # operators binds the transform by name; hadamard is patched for any other caller
    monkeypatch.setattr(hadamard, "transform", recording)
    monkeypatch.setattr(operators, "transform", recording)
    for dim in sorted(set(core.VALID_DIMS) - set(caught_dims)):
        # an equivalent mutant: every row it changes is a few units in the
        # last place of the largest word value it transforms
        seen.clear()
        run_all(RunConfig(seed=1, trials=4, dims=(dim,)), suites=PER_TRIAL_SUITES)
        assert seen
        for values in seen:
            want = _flipped_butterfly(-1)(values)
            changed = mutant(values) != want
            bound = 4 * np.finfo(float).eps * np.max(np.abs(values))
            assert np.all(np.abs(want[changed]) <= bound)


def _mutants(dim):
    """Every mutant above at dim, keyed by its class and place, as the monkeypatch calls
    that apply it."""
    for i in range(dim):
        for k in range(dim):
            yield ("sign", i, k), (("setattr", core, "_product_tables", _flipped_tables(dim, i, k)),)
    if dim > 1:   # conjugation is the identity at dim 1, so every bar mutant is equivalent
        for word, mutant in _plan_mutants(dim):
            yield ("plan", word.label, mutant), (("setitem", operators._PLANS, word, mutant),)
    for stage in range(3):
        mutant = _flipped_butterfly(stage)
        # operators binds the transform by name; hadamard is patched for any other caller
        yield ("butterfly", stage), (("setattr", hadamard, "transform", mutant),
                                     ("setattr", operators, "transform", mutant))


# the counted channels that no mutant moves off 0.0, and those that none fails
_UNMOVED = {k for k, (_, _, _, mutants) in CHANNELS.items() if mutants and mutants[0] == "unmoved"}
_UNFAILED = {k for k, (_, _, _, mutants) in CHANNELS.items() if mutants}


def _counted_channels(config):
    """suite:name -> maximum of each counted channel of the per-trial suites."""
    return {f"{r.suite}:{k}": v for r in run_all(config, suites=PER_TRIAL_SUITES)
            for k, v in r.details["channels"].items() if not k.startswith("info:")}


@functools.cache
def _mutant_maxima(dim):
    """(the counted maxima of the per-trial suites at dim, and for each key of `_mutants`
    those maxima under that mutant): one run each, which every catch and reach test reads."""
    config = RunConfig(seed=1, trials=4, dims=(dim,))
    clean, mutants = _counted_channels(config), {}
    for key, patches in _mutants(dim):
        with pytest.MonkeyPatch.context() as m:
            for method, target, name, value in patches:
                getattr(m, method)(target, name, value)
            mutants[key] = _counted_channels(config)
    return clean, mutants


def _fails(maxima, prefix=""):
    """Whether a counted channel whose name starts with prefix is above the tolerance."""
    return any(v > core.DEFAULT_TOLERANCE.rel for k, v in maxima.items() if k.startswith(prefix))


def _unreached(reached):
    """The counted channels at dims 4 and 8 whose maximum no mutant makes `reached`."""
    runs = [_mutant_maxima(dim) for dim in (4, 8)]
    return {k for clean, _ in runs for k in clean} - {
        k for _, mutants in runs for maxima in mutants.values()
        for k, v in maxima.items() if reached(v)}


def test_no_counted_channel_but_five_is_zero_under_every_mutant():
    assert _unreached(lambda v: v != 0.0) == _UNMOVED


def test_every_counted_channel_but_nine_fails_under_some_mutant():
    # a channel that only rounding moves, as a sum of closed forms over shared terms
    # would be, checks nothing these mutants break
    assert _unreached(lambda v: v > core.DEFAULT_TOLERANCE.rel) == _UNFAILED


_LENGTHS = (triple.anticommutator3_norm_sq, triple.commutator3_norm_sq,
            triple.associator3_norm_sq)


def _lengths_run(config, coeffs):
    """Bit patterns of the lengths suite's channel maxima, and of the three closed-form
    lengths of new Hyper values of `coeffs` before and after the suite runs."""
    def direct():
        t = tuple(core.Hyper(len(x), x) for x in coeffs)
        return [f(*t).hex() for f in _LENGTHS]

    before = direct()
    reports = run_all(config, suites=("lengths",))
    maxima = [(r.dim, {k: float(v).hex() for k, v in r.details["channels"].items()})
              for r in reports]
    return before, maxima, direct(), all(r.passed for r in reports)


# `triple._length_terms` keeps the last triple's terms.  No entry of a clean run may be
# served in a mutant run: its draws and Hyper values are new objects, even where their
# values are the clean run's last ones, so it reports what it reports after a reset
@pytest.mark.parametrize("dim", (2, 4, 8))
def test_no_length_terms_cross_into_a_mutant_run(dim, monkeypatch):
    config = RunConfig(seed=1, trials=4, dims=(dim,))
    coeffs = np.random.default_rng(dim).standard_normal((3, dim))
    clean = _lengths_run(config, coeffs)
    assert clean[3]
    for i, k in ((1, 0), (0, dim - 1), (dim - 1, 1)):
        with monkeypatch.context() as m:
            m.setattr(core, "_product_tables", _flipped_tables(dim, i, k))
            mutant = _lengths_run(config, coeffs)
            m.setattr(triple, "_LAST_TERMS", None)
            assert _lengths_run(config, coeffs) == mutant
        assert mutant[1] != clean[1]
        # a flipped s[i, 0] is the same in u1 u and u u1, so [u1, u] and the lengths keep it out
        assert (mutant[0] != clean[0]) == (k != 0), (i, k)


# the counted channels that fail in the sedenions, which are neither normed nor
# alternative (Baez, "The Octonions", Bull. AMS 39, 2002, section 2.2)
_SEDENION_FAILURES = {k for k, (_, _, fails_at_16, _) in CHANNELS.items() if fails_at_16}


@pytest.mark.parametrize("rows", (4, 40))
@pytest.mark.parametrize("seed", range(5))
def test_sedenions_fail_exactly_the_channels_that_need_a_normed_alternative_algebra(seed, rows):
    # each failing channel fails by far, and every other one still reads rounding
    tol = core.Tolerance()
    maxima = {}
    for suite in _SUITES:
        if suite.random:
            draws = verify._draw_block(suite, RunConfig(seed=seed, trials=rows), 16, 0, rows)
            ch = Channels(tol)
            suite.body(draws, ch)
            maxima.update((f"{suite.name}:{k}", v) for k, v in ch.counted().items())
    failing = {k for k, v in maxima.items() if v > tol.rel}
    assert failing == _SEDENION_FAILURES
    assert min(maxima[k] for k in failing) > 1e-4
    assert max(v for k, v in maxima.items() if k not in failing) < 1e-14
