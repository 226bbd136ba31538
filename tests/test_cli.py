import json
import subprocess
import sys

import numpy as np
import pytest

from octotriple.core import Tolerance
from octotriple.verify import (
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
    return subprocess.run(
        [sys.executable, "-m", "octotriple", *args],
        capture_output=True, text=True, input=stdin,
    )


# -- config validation -----------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(dims=())
    with pytest.raises(ValueError):
        RunConfig(dims=(3,))


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


def test_channels_keep_nan_after_finite_value():
    ch = Channels(Tolerance())
    ch.add("x", 1e-20, 1.0)
    ch.add("x", float("nan"), 1.0)
    ch.add("x", 0.0, 1.0)
    ch.add_exact("y", 0)
    ch.add_exact("y", float("nan"))
    assert ch.maxima == {"x": float("inf"), "y": float("inf")}


def test_nan_residual_fails_the_suite():
    residuals = iter((1e-20, float("nan"), 0.0))

    def per_trial(dim, rng, ch):
        ch.add("probe", next(residuals), 1.0)
        ch.add("steady", 1e-20, 1.0)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    config = RunConfig(seed=0, trials=3, dims=(4,))
    rep = _run_suite(_Suite("core", per_trial=per_trial), config, 4)
    assert not rep.passed
    assert rep.max_residual == float("inf")
    # strict JSON has no inf: the report line carries null instead
    obj = json.loads(rep.to_json(), parse_constant=reject)
    assert obj["pass"] is False
    assert obj["max_residual"] is None
    assert obj["details"]["channels"] == {"probe": None, "steady": rep.details["channels"]["steady"]}


@pytest.mark.parametrize("suites", (("nope",), ("core", "nope"), (), "core", "nope"),
                         ids=("unknown", "one_unknown", "empty", "bare_name", "bare_unknown"))
def test_run_all_rejects_a_selection_that_is_not_suite_names(suites):
    # a selection that runs nothing, or matches names as substrings, must not pass quietly
    with pytest.raises(ValueError, match="suites"):
        run_all(RunConfig(trials=1, dims=(4,)), suites=suites)


def test_tightened_tolerance_fails_honestly():
    # residuals sit around 1e-16, so an absurd tolerance must fail suites
    config = RunConfig(seed=7, trials=5, dims=(8,),
                       tolerance=Tolerance(rel=1e-18, abs=1e-30))
    reports = run_all(config, suites=("core",))
    assert not all(r.passed for r in reports)


def test_bridge_details_report_the_printed_variant():
    config = RunConfig(seed=7, trials=10, dims=(8,))
    (rep,) = run_all(config, suites=("bridge",))
    assert rep.details["bac_cab_variant"] == "as_printed"


def test_operator_details_report_vanishing_components():
    config = RunConfig(seed=7, trials=10, dims=(8,))
    (rep,) = run_all(config, suites=("operator",))
    vanished = rep.details["vanishing_three_op_components"]
    # three of the eight three-operation components vanish numerically
    assert "(+1,-1,+1)" in vanished
    assert "(+1,-1,-1)" in vanished
    assert "(-1,+1,-1)" in vanished
    assert "(+1,+1,+1)" not in vanished


def test_hadamard_details_report_exploratory_count():
    config = RunConfig(seed=7, trials=1, dims=(8,))
    (rep,) = run_all(config, suites=("hadamard",))
    assert rep.details["column_set_preserving_count_order4"] == 6
    assert isinstance(rep.details["column_set_preserving_count_order8"], int)


# -- CLI: verify -----------------------------------------------------------------


def test_cli_verify_small_run_passes():
    res = run_cli("verify", "--seed", "42", "--trials", "20", "--dims", "4,8")
    assert res.returncode == 0, res.stderr
    assert "PASS" in res.stdout
    assert "FAIL" not in res.stdout


def test_cli_verify_json_is_byte_identical_for_same_seed():
    a = run_cli("verify", "--seed", "5", "--trials", "10", "--dims", "8", "--json")
    b = run_cli("verify", "--seed", "5", "--trials", "10", "--dims", "8", "--json")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    for line in a.stdout.splitlines():
        json.loads(line)


def test_cli_verify_different_seed_changes_output():
    a = run_cli("verify", "--seed", "5", "--trials", "10", "--dims", "8", "--json")
    b = run_cli("verify", "--seed", "6", "--trials", "10", "--dims", "8", "--json")
    assert a.stdout != b.stdout


def test_cli_verify_rejects_zero_trials():
    res = run_cli("verify", "--trials", "0")
    assert res.returncode == 2


def test_cli_verify_rejects_bad_dims():
    res = run_cli("verify", "--dims", "3,4")
    assert res.returncode == 2


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


def test_cli_verify_suites_prints_the_selected_lines_of_the_full_run():
    common = ("--seed", "5", "--trials", "10", "--dims", "4,8", "--json")
    full = run_cli("verify", *common)
    some = run_cli("verify", *common, "--suites", "bridge", "hadamard")
    assert full.returncode == 0 and some.returncode == 0, some.stderr
    wanted = [line for line in full.stdout.splitlines()
              if json.loads(line)["suite"] in ("bridge", "hadamard")]
    assert len(wanted) == 3
    assert some.stdout == "".join(line + "\n" for line in wanted)


def test_cli_verify_rejects_unknown_suite():
    res = run_cli("verify", "--trials", "1", "--dims", "4", "--suites", "bridge", "nope")
    assert res.returncode == 2
    assert "nope" in res.stderr
    assert res.stdout == ""


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


def test_cli_decompose_overflow_exits_1_without_json():
    big = [{"dim": 4, "coeffs": [1e200, 1e200, -1e200, 1e200]} for _ in range(3)]
    res = run_cli("decompose", json.dumps(big))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "overflows" in res.stderr


def test_cli_decompose_rejects_malformed_json():
    res = run_cli("decompose", '[{"dim": 4, "coeffs": [0, 1, 0]}, 1, 2]')
    assert res.returncode == 2
    assert "coeffs" in res.stderr


def test_cli_decompose_rejects_dim_mismatch():
    res = run_cli("decompose", json.dumps([
        {"dim": 4, "coeffs": [0, 1, 0, 0]},
        {"dim": 8, "coeffs": [0, 0, 1, 0, 0, 0, 0, 0]},
        {"dim": 4, "coeffs": [0, 0, 0, 1]},
    ]))
    assert res.returncode == 2
    assert "mismatch" in res.stderr


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


def test_cli_hadamard_rejects_order_16():
    res = run_cli("hadamard", "16")
    assert res.returncode == 2


def test_cli_hadamard_perms_requires_order_8():
    res = run_cli("hadamard", "4", "--perms")
    assert res.returncode == 2
