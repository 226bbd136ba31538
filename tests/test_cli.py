import ast
import doctest
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import octotriple.cli as cli
import octotriple.core as core
import octotriple.triple as tp
import octotriple.verify as verify
from octotriple.core import Tolerance, _norm
from octotriple.verify import (
    CHANNELS,
    Channels,
    RunConfig,
    SUITE_INDEX,
    SUITE_NAMES,
    _Suite,
    _run_suite,
    run_all,
    trial_generator,
)


def run_cli(*args, stdin=None):
    """`octotriple *args` in this process: `cli.main` with stdin, stdout and
    stderr swapped for strings, and argparse's exit turned into the code.
    stdin is a UTF-8 text layer over bytes, as a real one is, because the
    CLI reads its `.buffer`."""
    out, err, saved_stdin = io.StringIO(), io.StringIO(), sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = saved_stdin
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_cli_process(*args, env=None):
    """`python -m octotriple *args` in a fresh process, for the entry point,
    with env's variables set over this process's."""
    return subprocess.run([sys.executable, "-m", "octotriple", *args],
                          capture_output=True, text=True, env={**os.environ, **(env or {})})


README = pathlib.Path(__file__).parent.parent / "README.md"


# -- config validation -----------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(dims=())
    with pytest.raises(ValueError):
        RunConfig(dims=(3,))
    for bad in ({"trials": 2.5}, {"trials": True}, {"seed": 1.5}, {"dims": (4.0,)}):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    # a trial index is one 32-bit half of a key word, so 2^32 trials is the most a run
    # can key; only constructed here, never run
    assert RunConfig(trials=1 << 32).trials == 1 << 32
    with pytest.raises(ValueError, match="2\\^32"):
        RunConfig(trials=(1 << 32) + 1)


def test_a_repeated_dim_runs_once():
    assert RunConfig(dims=(4, 4, 8, 4)).dims == (4, 8)
    once = run_cli("verify", "--trials", "3", "--dims", "4", "--suites", "core")
    assert once.returncode == 0 and once.stdout.count("\n") == 1
    twice = run_cli("verify", "--trials", "3", "--dims", "4,4", "--suites", "core")
    assert twice.stdout == once.stdout


def test_suite_registry_is_stable():
    assert SUITE_NAMES == ("core", "decomposition", "lengths", "operator",
                           "hadamard", "bridge")
    assert SUITE_INDEX["core"] == 0
    assert SUITE_INDEX["bridge"] == 5


def test_trial_generator_is_deterministic():
    a = trial_generator(42, 1, 7).standard_normal(8)
    b = trial_generator(42, 1, 7).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = trial_generator(42, 1, 8).standard_normal(8)
    assert not np.array_equal(a, c)


def test_trial_streams_do_not_collide_across_suites():
    # an XOR-combined key gave suite 3, trial 0 the draws of suite 0, trial 3
    a = trial_generator(42, 3, 0).standard_normal(8)
    b = trial_generator(42, 0, 3).standard_normal(8)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("suite, trial", ((-1, 0), (0, -1), (1 << 32, 0), (0, 1 << 32)))
def test_trial_generator_rejects_indices_outside_one_key_word(suite, trial):
    with pytest.raises(ValueError):
        trial_generator(42, suite, trial)


# -- engine ---------------------------------------------------------------------


def test_run_all_passes_with_small_trials():
    config = RunConfig(seed=7, trials=25, dims=(4, 8))
    reports = run_all(config)
    assert all(r.passed for r in reports)
    names = [r.suite for r in reports]
    assert names.count("hadamard") == 1
    assert names.count("core") == 2  # one per dim


def test_reports_respect_pass_invariant():
    config = RunConfig(seed=7, trials=10, dims=(8,))
    for rep in run_all(config):
        assert rep.passed == (rep.max_residual <= rep.tolerance_used)
        obj = rep.to_dict()
        assert obj["pass"] == rep.passed


def test_run_all_is_reproducible():
    config = RunConfig(seed=99, trials=10, dims=(8,))
    first = [r.to_json() for r in run_all(config)]
    second = [r.to_json() for r in run_all(config)]
    assert first == second


def test_operator_reports_are_plain_json_types():
    # the linearity channel's scale is a numpy float, which used to leak
    # into max_residual and make `pass` a numpy bool that json rejects
    config = RunConfig(seed=0, trials=10, dims=(4,))
    for rep in run_all(config, suites=("operator",)):
        obj = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
        assert type(rep.max_residual) is float
        assert type(rep.passed) is bool
        assert obj["pass"] is rep.passed


@pytest.mark.parametrize("given", ({"seed": np.int64(3)}, {"seed": np.uint64(3)},
                                   {"trials": np.int32(3)}, {"dims": (np.int64(4), np.uint8(8))},
                                   {"dims": np.array([4, 8])}),
                         ids=("int64_seed", "uint64_seed", "numpy_trials", "numpy_dims",
                              "dims_array"))
def test_numpy_integers_in_a_config_report_as_the_ints(given):
    # a numpy seed overflowed the Philox key's 64-bit mask, and a numpy seed, trials
    # or dim reached to_json, which has no encoder for it
    config = RunConfig(**{"seed": 3, "trials": 3, "dims": (4, 8), **given})
    assert all(type(x) is int for x in (config.seed, config.trials, *config.dims))
    reports = [r.to_json() for r in run_all(config, suites=("core", "hadamard"))]
    assert reports == [r.to_json() for r in run_all(RunConfig(seed=3, trials=3, dims=(4, 8)),
                                                    suites=("core", "hadamard"))]


def test_channels_keep_nan_after_finite_value():
    ch = Channels(Tolerance())
    ch.add("x", 1e-20, 1.0)
    ch.add("x", float("nan"), 1.0)
    ch.add("x", 0.0, 1.0)
    ch.add_exact("y", 0)
    ch.add_exact("y", float("nan"))
    assert ch.maxima == {"x": float("inf"), "y": float("inf")}


def test_channels_reduce_what_the_suites_hand_over():
    tol = Tolerance()
    floor = tol.abs / tol.rel
    diff = np.array([[3.0, 4.0, 0.0], [0.0, 1e-3, 0.0]])   # (rows, dim)
    scale = np.array([2.0, 1e-6])
    ch = Channels(tol)
    ch.add_norm("vector", diff, scale)
    assert ch.maxima["vector"] == np.max(_norm(diff) / (scale + floor))

    # a NaN in the second term alone survives the join of the terms
    ch.add("tuple", (np.array([1.0, 2.0]), np.array([0.5, float("nan")])), 1.0)
    ch.add_norm("tuple_norm", (diff, np.full((2, 3), float("nan"))), scale)
    assert ch.maxima["tuple"] == ch.maxima["tuple_norm"] == float("inf")

    # a scalar and a vector term under one name keep the larger value
    ch.add("mixed", np.array([-0.5, 0.25]), 1.0)
    ch.add_norm("mixed", diff, 1.0)
    assert ch.maxima["mixed"] == 5.0 / (1.0 + floor)

    # a tuple records the bits of separate calls under one name
    terms = (np.array([1e-3, -7e-4]), np.array([-2e-3, 3e-4]))
    ch.add("joined", terms, scale, factor=10.0)
    for term in terms:
        ch.add("separate", term, scale, factor=10.0)
    assert ch.maxima["joined"].hex() == ch.maxima["separate"].hex()


def test_nan_residual_fails_the_suite():
    residuals = np.array((1e-20, float("nan"), 0.0))   # one per trial

    def body(draws, ch):
        ch.add("probe", residuals, 1.0)
        ch.add("steady", np.full(3, 1e-20), 1.0)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    config = RunConfig(seed=0, trials=3, dims=(4,))
    rep = _run_suite(_Suite("core", body, vectors=3), config, 4)
    assert not rep.passed
    assert rep.max_residual == float("inf")
    # strict JSON has no inf: the report line carries null instead
    obj = json.loads(rep.to_json(), parse_constant=reject)
    assert obj["pass"] is False
    assert obj["max_residual"] is None
    assert obj["details"]["channels"] == {"probe": None, "steady": rep.details["channels"]["steady"]}


def _reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_nan_in_a_later_term_of_a_combined_channel_fails_the_suite(monkeypatch):
    # unit_law is the larger of |i0 u - u| and |u i0 - u|: poison one trial's
    # second product only, which Python's max(first, nan) would drop
    def poisoned(a, b, product=verify._multiply):
        out = product(a, b).copy()   # a block product is read-only, shared by the block
        if b.ndim == 1 and b[0] == 1 and not b[1:].any():
            out[2] = np.nan
        return out

    monkeypatch.setattr(verify, "_multiply", poisoned)
    (rep,) = run_all(RunConfig(seed=0, trials=5, dims=(4,)), suites=("core",))
    assert not rep.passed
    obj = json.loads(rep.to_json(), parse_constant=_reject_constant)
    assert obj["pass"] is False
    assert obj["max_residual"] is None
    channels = obj["details"]["channels"]
    assert channels["unit_law"] is None
    assert all(v is not None for k, v in channels.items() if k != "unit_law")


# vectors, then scalars, that one trial of each per-trial suite draws
_DRAWS = {"core": (3, 0), "decomposition": (4, 0), "lengths": (3, 0),
          "operator": (4, 2), "bridge": (3, 0)}


@pytest.mark.parametrize("dim", (4, 8))
@pytest.mark.parametrize("name", sorted(_DRAWS))
def test_block_row_t_is_trial_t_drawn_alone(name, dim):
    suite = next(s for s in verify._SUITES if s.name == name)
    assert (suite.vectors, suite.scalars) == _DRAWS[name]
    config = RunConfig(seed=42, trials=9)
    block = verify._draw_block(suite, config, dim, 3, 9)
    assert len(block) == suite.vectors + (suite.scalars > 0)
    for r, t in enumerate(range(3, 9)):
        rng = trial_generator(42, SUITE_INDEX[name], t)
        for i in range(suite.vectors):
            np.testing.assert_array_equal(block[i][r], rng.standard_normal(dim))
        if suite.scalars:   # the operator suite's trailing alpha, beta
            np.testing.assert_array_equal(block[-1][r], rng.standard_normal(suite.scalars))


@pytest.mark.parametrize("rows", (1, 5))
@pytest.mark.parametrize("name", sorted(_DRAWS))
def test_every_drawn_block_is_read_only(name, rows):
    # the operator suite's scalar block too: a suite body that wrote into its draws
    # would change what later forms of the block see
    suite = next(s for s in verify._SUITES if s.name == name)
    for block in verify._draw_block(suite, RunConfig(seed=42, trials=9), 8, 0, rows):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1.0


@pytest.mark.parametrize("seed", (0, 2**64 + 5))
def test_rows_of_the_shared_generator_replay_alone(seed):
    # a block re-keys one generator per row: each row, up to the last trial
    # index a key holds and across blocks drawn back to back, is what the
    # trial's own generator draws, vectors then the operator suite's alpha, beta
    suite = next(s for s in verify._SUITES if s.name == "operator")
    config = RunConfig(seed=seed, trials=1 << 32)
    last = (1 << 32) - 1
    for start, stop in ((0, 3), (3, 5), (last - 2, last + 1)):
        block = verify._draw_block(suite, config, 8, start, stop)
        for r, t in enumerate(range(start, stop)):
            rng = trial_generator(seed % 2**64, SUITE_INDEX["operator"], t)
            for i in range(suite.vectors):
                np.testing.assert_array_equal(block[i][r], rng.standard_normal(8))
            np.testing.assert_array_equal(block[-1][r], rng.standard_normal(suite.scalars))
    with pytest.raises(ValueError, match="2\\^32"):
        verify._draw_block(suite, config, 8, last, last + 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blocks_of_any_size_give_the_same_reports(monkeypatch):
    # trial 0 runs through the public API once, in the first block, so the
    # maxima over blocks of 7, 7, 7 and 4 rows are those over one block of 25
    config = RunConfig(seed=7, trials=25, dims=(4, 8))
    whole = run_all(config)
    monkeypatch.setattr(verify, "_BLOCK_ROWS", 7)
    assert run_all(config) == whole
    # a last block of one row, which rounds as the 1-D products do, passes too
    reports = run_all(RunConfig(seed=42, trials=22, dims=(1, 2, 4, 8)))
    assert len(reports) == 21 and all(r.passed for r in reports)


def _bits(maxima):
    return {name: value.hex() for name, value in maxima.items()}


@pytest.mark.parametrize("dim", core.VALID_DIMS)
@pytest.mark.parametrize("name", sorted(_DRAWS))
def test_block_memo_changes_no_channel_of_a_suite(name, dim):
    # each distinct product is computed once per block: the suite body and the
    # forms it calls are the same, so every maximum keeps every bit
    suite = next(s for s in verify._SUITES if s.name == name)
    draws = verify._draw_block(suite, RunConfig(seed=42, trials=40), dim, 0, 40)
    plain, memoized = Channels(Tolerance()), Channels(Tolerance())
    suite.body(draws, plain)
    with core._block_memo():
        suite.body(draws, memoized)
        assert core._MEMO.get()   # the block products went through the memo
    assert _bits(memoized.maxima) == _bits(plain.maxima)


def test_block_memo_is_closed_after_a_run_and_after_a_suite_that_raises():
    run_all(RunConfig(seed=1, trials=5, dims=(4,)), suites=("core",))
    assert core._MEMO.get() is None
    opened = []

    def body(draws, ch):
        opened.append(core._MEMO.get())
        raise RuntimeError("suite body failed")

    with pytest.raises(RuntimeError, match="suite body failed"):
        _run_suite(_Suite("core", body, vectors=3), RunConfig(trials=5), 4)
    assert opened == [{}]   # a fresh memo for the block
    assert core._MEMO.get() is None


def test_block_memo_is_invisible_to_another_thread():
    seen = []
    with core._block_memo():
        worker = threading.Thread(target=lambda: seen.append(core._MEMO.get()))
        worker.start()
        worker.join(timeout=10)
        assert core._MEMO.get() == {}
    assert not worker.is_alive() and seen == [None]


def test_block_memo_serves_one_read_only_result_per_operand_objects():
    a, b = np.random.default_rng(0).standard_normal((2, 5, 8))
    with core._block_memo():
        p, c = core._multiply(a, b), core._conjugate(a)
        assert not p.flags.writeable and not c.flags.writeable
        assert core._multiply(a, b) is p and core._conjugate(a) is c
        assert core._multiply(b, a) is not p
        assert core._multiply(a.copy(), b) is not p   # equal values, another object
        # a product of two vectors takes the scalar path, which never enters the memo
        held = dict(core._MEMO.get())
        assert core._multiply(a[0], b[0]).flags.writeable
        assert core._MEMO.get() == held
        # every conjugate does, a vector's too, so the forms of one block share conj(i0)
        i0 = core.unit(8).coeffs
        c0 = core._conjugate(i0)
        assert core._conjugate(i0) is c0 and not c0.flags.writeable
    fresh = core._multiply(a, b)
    assert fresh is not p and fresh.flags.writeable
    assert fresh.tobytes() == p.tobytes()
    fresh0, again = core._conjugate(i0), core._conjugate(i0)
    assert fresh0 is not again and fresh0.flags.writeable and again.flags.writeable
    assert fresh0.tobytes() == c0.tobytes()


def _assert_rows_do_not_depend_on_the_block_size(form, args):
    # each row of a 4096-row block has the bits of the same row in blocks of 2
    # and 17 rows and in a 2-row block of the row twice, so a trial can be replayed
    # as a small block; a 1-row block rounds as the 1-D call, which goes to BLAS
    whole = [np.asarray(x) for x in form(*args)]
    for rows in (2, 17):
        for i in range(0, 4096, rows):
            parts = form(*(x[i:i + rows] for x in args))
            assert all(p.tobytes() == w[i:i + rows].tobytes() for p, w in zip(parts, whole))
    for r in range(4096):
        parts = form(*(x[[r, r]] for x in args))
        assert all(p.tobytes() == w[[r, r]].tobytes() for p, w in zip(parts, whole))
    for r in range(0, 4096, 64):
        rows, vectors = form(*(x[r:r + 1] for x in args)), form(*(x[r] for x in args))
        assert all(np.asarray(p)[0].tobytes() == np.asarray(v).tobytes()
                   for p, v in zip(rows, vectors))


@pytest.mark.parametrize("dim", core.VALID_DIMS)
def test_block_product_rows_do_not_depend_on_the_block_size(dim):
    a, b = np.random.default_rng(dim).standard_normal((2, 4096, dim))
    _assert_rows_do_not_depend_on_the_block_size(lambda a, b: (core._multiply(a, b),), (a, b))


@pytest.mark.parametrize("dim", core.VALID_DIMS)
def test_block_decomposition_rows_do_not_depend_on_the_block_size(dim):
    # the parts and the residual, so a replayed trial reproduces every channel
    # of the decomposition it feeds
    u1, u, u2 = np.random.default_rng(dim).standard_normal((3, 4096, dim))
    _assert_rows_do_not_depend_on_the_block_size(tp._decompose_triple, (u1, u, u2))


def _table_channels(suite, dim):
    """The channels the table says a suite's report at dim records."""
    return {key.split(":", 1)[1] for key, (_, dims, _, _) in CHANNELS.items()
            if key.split(":", 1)[0] == suite and (not dims or dim in dims)}


def test_every_suite_reports_its_pinned_channels():
    reports = run_all(RunConfig(seed=7, trials=25, dims=(4, 8)))
    for r in reports:
        assert set(r.details["channels"]) == _table_channels(r.suite, r.dim), (r.suite, r.dim)
    assert {f"{r.suite}:{k}" for r in reports for k in r.details["channels"]} == set(CHANNELS)


def test_every_suite_passes_at_dims_1_and_2_with_the_dim_4_channels():
    # the reals and complexes are associative like the quaternions, so each
    # suite checks what it checks at dim 4 except the 3-D cross product
    reports = run_all(RunConfig(seed=7, trials=25, dims=(1, 2)))
    assert len(reports) == 11 and all(r.passed for r in reports)
    for r in reports:
        want = _table_channels(r.suite, 8) if r.suite == "hadamard" else (
            _table_channels(r.suite, 4) - {"cross2_matches_3d_cross"})
        assert set(r.details["channels"]) == want == _table_channels(r.suite, r.dim), (
            r.suite, r.dim)


def test_the_readme_claims_table_names_every_counted_channel_once():
    # each claim row lists exactly the counted channels the table gives that claim
    section = README.read_text().split("## Claims and the channels that check them\n")[1]
    section = section.split("\n## ")[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    named = {key.strip(" `"): sorted(re.findall(r"`([a-z]+:[a-z0-9_]+)`", channels))
             for key, _, channels in rows}
    claims = {claim for claim, _, _, _ in CHANNELS.values()} - {"info"}
    assert len(rows) == len(named) and named == {
        c: sorted(key for key, (claim, _, _, _) in CHANNELS.items() if claim == c) for c in claims}


def test_the_readme_example_runs():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert failed == 0 and attempted >= 1


class _UnitScales(Channels):
    """A recorder that owns every scale and reduction itself: each norm is one,
    and the terms are reduced with numpy here, not by the suite body."""

    def norms(self, *blocks):
        return tuple(np.ones(b.shape[:-1]) for b in blocks)

    def add(self, name, diffs, scale, factor=1.0):
        terms = diffs if isinstance(diffs, tuple) else (diffs,)
        self._record(name, max(np.max(np.abs(t) / (factor * scale)) for t in terms))

    def add_norm(self, name, diffs, scale, factor=1.0):
        terms = diffs if isinstance(diffs, tuple) else (diffs,)
        self.add(name, tuple(np.linalg.norm(t, axis=-1) for t in terms), scale, factor)


class _NoScaleNumpy:
    """numpy without abs and sqrt, for the modules whose suite code may take no size."""

    def __getattr__(self, name):
        if name in ("abs", "absolute", "sqrt"):
            raise AssertionError(f"a suite body called np.{name}")
        return getattr(np, name)


@pytest.mark.parametrize("dim", core.VALID_DIMS)
@pytest.mark.parametrize("name", sorted(_DRAWS))
def test_suite_bodies_take_every_norm_from_the_recorder(name, dim, monkeypatch):
    # the bodies hand over differences and ask the recorder for every norm, so a
    # recorder that overrides norms, add and add_norm needs no second code path
    suite = next(s for s in verify._SUITES if s.name == name)
    draws = verify._draw_block(suite, RunConfig(seed=42, trials=40), dim, 0, 40)

    def refuse(x):
        raise AssertionError("a suite body took a norm itself")

    for module in (verify, verify.ops):
        # operators binds no _norm; one it later imports is refused all the same
        monkeypatch.setattr(module, "_norm", refuse, raising=False)
        monkeypatch.setattr(module, "np", _NoScaleNumpy())
    ch = _UnitScales(Tolerance())
    suite.body(draws, ch)
    # the one channel that only trial 0's public route records
    assert set(ch.maxima) == _table_channels(name, dim) - {"component3_public_api"}
    assert all(np.isfinite(v) for v in ch.maxima.values())


def test_run_all_passes_at_200_trials():
    reports = run_all(RunConfig(seed=42, trials=200, dims=(4, 8)))
    assert len(reports) == 11
    assert all(r.passed for r in reports)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_all_passes_every_suite_with_no_absolute_tolerance():
    # with abs 0 nothing lifts a zero scale: at dim 1 no argument has an imaginary
    # part, and only the bridge's floor keeps its bac_cab 0/0 from recording inf
    tol = Tolerance(abs=0.0)
    reports = run_all(RunConfig(seed=42, trials=200, dims=(1, 2, 4, 8), tolerance=tol))
    assert len(reports) == 21
    assert [(r.suite, r.dim) for r in reports if not r.passed] == []


@pytest.mark.parametrize("suites", (("nope",), ("core", "nope"), (), "core", "nope"),
                         ids=("unknown", "one_unknown", "empty", "bare_name", "bare_unknown"))
def test_run_all_rejects_a_selection_that_is_not_suite_names(suites):
    # a selection that runs nothing, or matches names as substrings, must not pass quietly
    with pytest.raises(ValueError, match="suites"):
        run_all(RunConfig(trials=1, dims=(4,)), suites=suites)


def test_run_all_reads_a_selection_once():
    # a one-shot iterator selects what it yields, and an unknown name in it is still refused
    config = RunConfig(seed=7, trials=3, dims=(4,))
    selected = run_all(config, suites=(name for name in ("bridge", "core")))
    assert [r.to_json() for r in selected] == [
        r.to_json() for r in run_all(config, suites=("core", "bridge"))]
    with pytest.raises(ValueError, match="suites"):
        run_all(config, suites=iter(["core", "nope"]))


def test_tightened_tolerance_fails_honestly():
    # residuals sit around 1e-16, so an absurd tolerance must fail suites
    config = RunConfig(seed=7, trials=5, dims=(8,),
                       tolerance=Tolerance(rel=1e-18, abs=1e-30))
    reports = run_all(config, suites=("core",))
    assert not all(r.passed for r in reports)


def test_bac_cab_fails_on_a_negated_associator(monkeypatch):
    # BAC-CAB is checked as printed: no sign variant rescues a flipped associator
    associator3 = verify.br._associator3
    monkeypatch.setattr(verify.br, "_associator3", lambda *args: -associator3(*args))
    (rep,) = run_all(RunConfig(seed=7, trials=10, dims=(8,)), suites=("bridge",))
    assert rep.details["channels"]["bac_cab"] > rep.tolerance_used
    assert not rep.passed


def test_operator_details_report_vanishing_components():
    config = RunConfig(seed=7, trials=10, dims=(8,))
    (rep,) = run_all(config, suites=("operator",))
    # a three-operation component vanishes where its info: norm channel is at most rel
    vanished = [signs.label for signs in verify.ops.ALL_SIGN_TRIPLES
                if rep.details["channels"][f"info:three_op_norm{signs.label}"]
                <= config.tolerance.rel]
    # three of the eight three-operation components vanish numerically
    assert "(+1,-1,+1)" in vanished
    assert "(+1,-1,-1)" in vanished
    assert "(-1,+1,-1)" in vanished
    assert "(+1,+1,+1)" not in vanished


def test_hadamard_details_report_exploratory_count():
    config = RunConfig(seed=7, trials=1, dims=(8,))
    (rep,) = run_all(config, suites=("hadamard",))
    channels = rep.details["channels"]
    assert channels["info:column_set_preserving_count_order4"] == 6
    assert channels["info:column_set_preserving_count_order8"] == 168


def test_every_report_has_its_channels_as_its_only_details():
    # a report reaches its reader through channels alone; info: channels never gate
    reports = run_all(RunConfig(seed=7, trials=10, dims=(1, 2, 4, 8)))
    assert len(reports) == 21
    assert all(r.details.keys() == {"channels"} for r in reports)
    (hadamard,) = (r for r in reports if r.suite == "hadamard")
    assert hadamard.passed and hadamard.tolerance_used == 0.0 == hadamard.max_residual
    channels = hadamard.details["channels"]
    assert channels["info:column_set_preserving_count_order4"] == 6.0
    assert channels["info:column_set_preserving_count_order8"] == 168.0


def test_package_loads_each_module_on_first_use():
    # a fresh import and a first product at every dimension load core alone; any
    # other name, a submodule's included, loads its home module when looked up
    code = ("import sys, octotriple\n"
            "for dim in (1, 2, 4, 8):\n"
            "    e = octotriple.Hyper.basis(dim, dim - 1)\n"
            "    octotriple.multiply(e, e)\n"
            "print(sorted(m for m in sys.modules if m.startswith('octotriple.')))\n"
            "print(octotriple.triple.__name__, octotriple.bridge.__name__)\n"
            "print('octotriple.verify' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["['octotriple.core']",
                                       "octotriple.triple octotriple.bridge", "False"]


def test_every_exported_name_is_its_home_modules_object():
    import octotriple

    listed = set(dir(octotriple))
    star: dict = {}
    exec("from octotriple import *", star)
    for name in octotriple.__all__:
        home = importlib.import_module(octotriple._HOME.get(name, "octotriple.core"))
        assert getattr(octotriple, name) is getattr(home, name), name
        assert star[name] is getattr(home, name), name
        assert name in listed, name
    assert len(set(octotriple.__all__)) == len(octotriple.__all__)
    assert {"triple", "operators", "hadamard", "bridge", "verify"} <= listed
    # the look-ups above left nothing behind: each one goes to the home module
    assert not set(octotriple._HOME) & set(vars(octotriple))
    with pytest.raises(AttributeError, match="module 'octotriple' has no attribute 'no_such_name'"):
        octotriple.no_such_name


def test_no_module_binds_a_top_level_name_twice():
    # a second def shadows the first, whose body then never runs
    root = pathlib.Path(__file__).parent.parent
    twice = []
    for path in sorted([*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")]):
        names = [node.name for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        twice += sorted({(path.name, name) for name in names if names.count(name) > 1})
    assert twice == []


# -- CLI: verify -----------------------------------------------------------------


def test_cli_verify_small_run_passes():
    res = run_cli_process("verify", "--seed", "42", "--trials", "20", "--dims", "4,8")
    assert res.returncode == 0, res.stderr
    assert "PASS" in res.stdout
    assert "FAIL" not in res.stdout


def test_cli_verify_json_is_byte_identical_for_same_seed():
    # whatever the hash seed, and each line strict JSON
    a, b = (run_cli_process("verify", "--seed", "42", "--trials", "200", "--dims", "1,2,4,8",
                            "--json", env={"PYTHONHASHSEED": seed}) for seed in ("1", "2"))
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    lines = a.stdout.splitlines()
    assert len(lines) == 21
    for line in lines:
        json.loads(line, parse_constant=_reject_constant)


def test_cli_verify_different_seed_changes_output():
    a = run_cli("verify", "--seed", "5", "--trials", "10", "--dims", "8", "--json")
    b = run_cli("verify", "--seed", "6", "--trials", "10", "--dims", "8", "--json")
    assert a.stdout != b.stdout


def test_cli_verify_rejects_zero_trials():
    res = run_cli("verify", "--trials", "0")
    assert res.returncode == 2


def test_cli_verify_rejects_bad_dims():
    res = run_cli_process("verify", "--dims", "3,4")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "dimension must be one of (1, 2, 4, 8), got 3" in res.stderr


def test_cli_verify_rejects_dims_that_are_not_integers():
    res = run_cli("verify", "--dims", "4,x")
    assert res.returncode == 2
    assert "comma-separated integers" in res.stderr


def test_cli_verify_defaults_are_the_run_config_defaults():
    res = run_cli("verify", "--trials", "3", "--json")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "".join(rep.to_json() + "\n" for rep in run_all(RunConfig(trials=3)))


@pytest.mark.parametrize("flag, value", (("--rel-tol", "inf"), ("--abs-tol", "nan"),
                                         ("--abs-tol", "inf"), ("--rel-tol", "nan")))
def test_cli_verify_rejects_non_finite_tolerance(flag, value):
    res = run_cli("verify", "--trials", "1", "--dims", "4", flag, value)
    assert res.returncode == 2
    assert "finite" in res.stderr


def test_cli_verify_fails_with_impossible_tolerance():
    res = run_cli("verify", "--trials", "5", "--dims", "8", "--rel-tol", "1e-18",
                  "--abs-tol", "0")
    assert res.returncode == 1
    assert "FAIL" in res.stdout


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_verify_suites_prints_the_selected_lines_of_the_full_run():
    # the operator and lengths suites stand without the decomposition suite
    # that checks the parts they share
    common = ("--seed", "5", "--trials", "10", "--dims", "1,2,4,8", "--json")
    full = run_cli("verify", *common)
    assert full.returncode == 0, full.stderr
    for selected, count in ((("bridge", "hadamard"), 5), (("operator", "lengths"), 8)):
        some = run_cli("verify", *common, "--suites", *selected)
        assert some.returncode == 0, some.stderr
        wanted = [line for line in full.stdout.splitlines()
                  if json.loads(line)["suite"] in selected]
        assert len(wanted) == count
        assert some.stdout == "".join(line + "\n" for line in wanted)


def test_cli_verify_rejects_unknown_suite():
    res = run_cli("verify", "--trials", "1", "--dims", "4", "--suites", "bridge", "nope")
    assert res.returncode == 2
    assert "nope" in res.stderr
    assert "decomposition" in res.stderr   # the message lists the valid suites
    assert res.stdout == ""


def test_cli_verify_help_prints_no_placeholder_default():
    res = run_cli("verify", "--help")
    assert res.returncode == 0
    assert "--rel-tol" in res.stdout
    assert "SUPPRESS" not in res.stdout and "None" not in res.stdout


def test_cli_loads_only_the_modules_its_command_runs():
    code = ("import sys\n"
            "from octotriple import cli\n"
            "for argv in sys.argv[1:]:\n"
            "    cli.main(argv.split('|'))\n"
            "    mods = [m.removeprefix('octotriple.') for m in sys.modules\n"
            "            if m.startswith('octotriple.') or m in ('numpy.ma', 'numpy.random')]\n"
            "    print('loaded:', *mods)\n")
    runs = (["hadamard|2", "decompose|" + QUATERNION_TRIPLE], ["verify|--suites|hadamard"])
    loaded = []
    for argv in runs:
        res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        loaded += [set(line.split()[1:]) for line in res.stdout.splitlines()
                   if line.startswith("loaded:")]
    hadamard, decompose, verify_hadamard = loaded
    # numpy.random costs start-up time, and neither command draws
    assert hadamard == {"cli", "core", "hadamard"}
    assert "triple" in decompose and not {"bridge", "verify", "numpy.random"} & decompose
    # the hadamard suite's group checks sort instead of np.isin, which imports numpy.ma
    assert "verify" in verify_hadamard and "numpy.ma" not in verify_hadamard


def test_cli_compare_is_gone():
    res = run_cli("compare", "--trials", "1", "--dims", "8")
    assert res.returncode == 2


# -- CLI: decompose ----------------------------------------------------------------


QUATERNION_TRIPLE = json.dumps([
    {"dim": 4, "coeffs": [0, 1, 0, 0]},
    {"dim": 4, "coeffs": [0, 0, 1, 0]},
    {"dim": 4, "coeffs": [0, 0, 0, 1]},
])


def test_cli_decompose_inline_quaternion_triple():
    res = run_cli("decompose", QUATERNION_TRIPLE)
    assert res.returncode == 0, res.stderr
    obj = json.loads(res.stdout)
    assert obj["comm"]["coeffs"] == [1.0, 0.0, 0.0, 0.0]
    assert obj["assoc"]["coeffs"] == [0.0, 0.0, 0.0, 0.0]
    assert obj["norm_sq"] == {"anti": 0.0, "comm": 1.0, "assoc": 0.0}
    assert obj["closed_form_norm_sq"] == {"anti": 0.0, "comm": 1.0, "assoc": 0.0}
    assert obj["residual"] == 0.0
    # an octonion triple: strict JSON, and each closed-form length within the
    # README bound of its part's, 1e-12 + 1e-8 scale^2
    triple = [[0.3, -1.2, 0.5, 2.0, -0.7, 0.1, 1.5, -0.4],
              [1.1, 0.2, -0.9, 0.6, 0.3, -1.4, 0.8, 0.05],
              [-0.5, 0.9, 1.3, -0.2, 0.4, 0.7, -1.1, 0.6]]
    res = run_cli("decompose", json.dumps([{"dim": 8, "coeffs": c} for c in triple]))
    obj = json.loads(res.stdout, parse_constant=_reject_constant)
    assert {"anti", "comm", "assoc", "residual"} <= set(obj)
    scale = float(np.prod([np.linalg.norm(c) for c in triple]))
    for part in ("anti", "comm", "assoc"):
        assert abs(obj["closed_form_norm_sq"][part] - obj["norm_sq"][part]) <= (
            1e-12 + 1e-8 * scale**2)


def test_cli_decompose_object_form_and_stdin():
    payload = json.dumps({
        "u1": {"dim": 4, "coeffs": [0, 1, 0, 0]},
        "u": {"dim": 4, "coeffs": [0, 0, 1, 0]},
        "u2": {"dim": 4, "coeffs": [0, 0, 0, 1]},
    })
    res = run_cli("decompose", "-", stdin=payload)
    assert res.returncode == 0
    assert json.loads(res.stdout)["comm"]["coeffs"] == [1.0, 0.0, 0.0, 0.0]


def test_cli_decompose_from_file(tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(QUATERNION_TRIPLE)
    res = run_cli("decompose", str(path))
    assert res.returncode == 0
    assert json.loads(res.stdout)["residual"] == 0.0


@pytest.mark.parametrize("kind", ("directory", "non_utf8_file", "missing_file", "non_utf8_stdin"))
def test_cli_decompose_unreadable_input_exits_2_with_one_line(kind, tmp_path, monkeypatch):
    source = {"directory": tmp_path, "non_utf8_file": tmp_path / "latin1.json",
              "missing_file": tmp_path / "absent.json", "non_utf8_stdin": "-"}[kind]
    raw = b"\xff" + QUATERNION_TRIPLE.encode()
    if kind == "non_utf8_file":
        source.write_bytes(raw)
    if kind == "non_utf8_stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    res = run_cli("decompose", str(source))
    assert res.returncode == 2
    assert res.stdout == ""
    [line] = res.stderr.splitlines()
    assert line.startswith("octotriple: error: cannot read ")


def test_cli_decompose_non_utf8_stdin_in_utf8_mode_cannot_be_read():
    # Python's UTF-8 mode (and a C locale) decodes sys.stdin with surrogateescape,
    # so only the bytes themselves can say that they are not UTF-8
    for env in ({"PYTHONUTF8": "1"}, {"LC_ALL": "C"}):
        res = subprocess.run([sys.executable, "-m", "octotriple", "decompose", "-"],
                             input=b"\xff[1]", capture_output=True, env={**os.environ, **env})
        assert res.returncode == 2, env
        assert res.stdout == b""
        [line] = res.stderr.decode().splitlines()
        assert "cannot read standard input" in line


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_decompose_overflow_exits_1_without_json():
    big = [{"dim": 4, "coeffs": [1e200, 1e200, -1e200, 1e200]} for _ in range(3)]
    res = run_cli("decompose", json.dumps(big))
    assert res.returncode == 1
    assert res.stdout == ""
    [line] = res.stderr.splitlines()
    assert "overflows" in line


@pytest.mark.parametrize("digits, fragment", ((400, "coeffs[0]"), (5000, "malformed JSON")),
                         ids=("beyond_float_range", "beyond_int_digit_limit"))
def test_cli_decompose_rejects_a_huge_integer_coefficient(digits, fragment):
    huge = "1" + "0" * (digits - 1)
    res = run_cli("decompose", f'[{{"dim": 1, "coeffs": [{huge}]}}, '
                               '{"dim": 1, "coeffs": [1]}, {"dim": 1, "coeffs": [1]}]')
    assert res.returncode == 2
    assert res.stdout == ""
    assert fragment in res.stderr


def test_cli_decompose_rejects_malformed_json():
    one = '{"dim": 1, "coeffs": [1]}'
    for source, stdin, fragment in (('[{"dim": 4, "coeffs": [0, 1, 0]}, 1, 2]', None, "coeffs"),
                                    (f"[{one}, {one}]", None, "expected exactly 3 values, got 2"),
                                    ("-", "3", "expected a JSON array of 3 values or an object")):
        res = run_cli("decompose", source, stdin=stdin)
        assert res.returncode == 2
        assert res.stdout == ""
        [line] = [l for l in res.stderr.splitlines() if l.startswith("octotriple: error: ")]
        assert fragment in line


def test_cli_decompose_rejects_dim_mismatch():
    res = run_cli("decompose", json.dumps([
        {"dim": 4, "coeffs": [0, 1, 0, 0]},
        {"dim": 8, "coeffs": [0, 0, 1, 0, 0, 0, 0, 0]},
        {"dim": 4, "coeffs": [0, 0, 0, 1]},
    ]))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "dimension mismatch: 4 != 8" in res.stderr


def test_cli_decompose_rejects_missing_field():
    res = run_cli("decompose", '{"u1": {"dim": 2, "coeffs": [1, 0]}}')
    assert res.returncode == 2
    assert "u2" in res.stderr


# -- CLI: hadamard ------------------------------------------------------------------


def test_cli_hadamard_renders_order_4():
    res = run_cli("hadamard", "4")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["++++", "+-+-", "++--", "+--+"]


def test_cli_hadamard_perm_counts():
    res = run_cli("hadamard", "8", "--perms")
    assert res.returncode == 0
    assert "automorphism perms: 168, symmetric: 28, asymmetric: 140" in res.stdout


def test_cli_hadamard_lists_symmetric_permutations():
    res = run_cli("hadamard", "8", "--perms", "--list-symmetric")
    assert res.returncode == 0
    cycle_lines = [l for l in res.stdout.splitlines()
                   if l.startswith("(") and (" " in l or l == "()")]
    assert len(cycle_lines) == 28
    assert "()" in cycle_lines


def test_cli_hadamard_list_symmetric_requires_perms():
    res = run_cli("hadamard", "8", "--list-symmetric")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--list-symmetric requires --perms" in res.stderr


def test_cli_hadamard_rejects_order_16():
    res = run_cli("hadamard", "16")
    assert res.returncode == 2


def test_cli_hadamard_perms_requires_order_8():
    res = run_cli("hadamard", "4", "--perms")
    assert res.returncode == 2
    assert res.stdout == ""


# -- CLI: a reader that has gone -------------------------------------------------


@pytest.mark.parametrize("args", (("hadamard", "8", "--perms", "--list-symmetric"),
                                  ("decompose", QUATERNION_TRIPLE)), ids=("hadamard", "decompose"))
def test_cli_exits_141_in_silence_when_stdout_has_no_reader(args):
    # as `octotriple ... | head -1` does, but deterministic: the read end of the
    # pipe is closed before the child starts, so its first write to stdout fails
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run([sys.executable, "-m", "octotriple", *args], stdout=write,
                             stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert res.returncode == 141
    assert res.stderr == b""
