"""Tests of the benchmark harness itself, at a tiny length:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 3):
    if name == "verify-full":
        return workloads.VerifyFull(seed, trials=2)
    if name == "decompose-mix":
        return workloads.DecomposeMix(seed, count=16)
    return workloads.CliOneshot(seed)


def measure(workload, trace: bool = False):
    return run.measure(workload, seconds=0, trace=trace, setup_samples=1, startup_samples=1)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, lines = measure(tiny(name), trace)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    for metric, unit in spec.items():
        assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}") for line in lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] >= 0
    assert any(line.startswith("error_rate ") for line in lines)
    assert result["correct"] and result["failed"] == 0


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_decompose_reference_is_counted():
    wl = workloads.DecomposeMix(3, count=16)
    clean, _ = measure(wl)
    unit = next(t for t in wl.triples if not t.wide)
    unit.parts = (unit.parts[0] + 1.0, *unit.parts[1:])
    result, lines = measure(wl)
    assert (clean["failed"], result["failed"]) == (0, 1)
    assert not result["correct"]
    # on the wide-magnitude half a failure is the known range defect: it is
    # counted in error_rate, apart from `failed`, and the run stays correct
    wl = workloads.DecomposeMix(3, count=16)
    defects = wl.run_pass(0).range_defects
    wide = next(t for t in wl.triples if t.wide and t.check_lengths and check_ok(t))
    wide.lengths = (wide.lengths[0] + 1.0, *wide.lengths[1:])
    result, lines = measure(wl)
    assert result["failed"] == 0 and result["correct"]
    assert wl.run_pass(0).range_defects == defects + 1
    rate = (defects + 1) / result["attempted"]
    assert any(line.startswith(f"error_rate {rate!r} 1 ") for line in lines)


def check_ok(t) -> bool:
    import octotriple as pkg

    args = [pkg.Hyper(t.dim, x) for x in t.coeffs]
    d = pkg.decompose_triple(*args)
    lengths = (pkg.anticommutator3_norm_sq(*args), pkg.commutator3_norm_sq(*args),
               pkg.associator3_norm_sq(*args))
    return workloads.check_triple(t, (d.anti, d.comm, d.assoc), lengths)


def test_corrupted_cli_references_are_counted(monkeypatch):
    wl = workloads.CliOneshot(3)
    original = wl.triple

    def corrupted(index):
        t = original(index)
        t.parts = (t.parts[0], t.parts[1] - 1.0, t.parts[2])
        return t

    monkeypatch.setattr(wl, "triple", corrupted)
    monkeypatch.setattr(workloads, "_HADAMARD_COUNTS",
                        "automorphism perms: 168, symmetric: 27, asymmetric: 141")
    result, _ = measure(wl)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)


def test_corrupted_verify_expectation_is_counted():
    wl = workloads.VerifyFull(3, trials=2)
    wl.expected_lines += 1
    result, _ = measure(wl)
    assert result["failed"] >= 1 and not result["correct"]


def test_wide_magnitude_failures_stay_visible():
    # the seed overflows on some wide-magnitude triples; those are counted
    # as range defects, and no unit-scale triple fails
    res = workloads.DecomposeMix(3, count=256).run_pass(0)
    assert res.range_defects > 0 and res.failed == 0 and not res.incorrect
    result, _ = measure(workloads.DecomposeMix(3, count=256), trace=True)
    assert result["metrics"][run.RANGE_DEFECT_SHARE]["value"] > 0


def test_trace_accounts_for_the_traced_wall_time():
    import octotriple
    from octotriple import bridge, core, operators, triple, verify

    modules = (octotriple, core, triple, operators, bridge, verify)
    original = core.multiply
    wl = workloads.VerifyFull(3, trials=2)
    trace = tracer.Trace()
    with trace.installed():
        assert all(m.multiply.__wrapped__ is original for m in modules)
    assert all(m.multiply is original for m in modules)

    res = wl.run_pass(0, trace=trace)
    layers = trace.layer_metrics(res.ops, res.wall)
    assert not res.incorrect
    assert trace.self_time() == pytest.approx(trace.top_time, rel=1e-9)
    assert (layers["cli.main.self_s"] + layers["verify.run_all.self_s"] + layers["trace.suites_s"]
            == pytest.approx(trace.top_time, rel=1e-9))
    assert layers["trace.root_self_s"] >= 0
    assert layers["trace.root_self_s"] + trace.top_time == pytest.approx(layers["trace.wall_s"])
    assert layers["trace.leaf_self_s"] < layers["trace.suites_s"]
    assert {s[0] for s in trace.spans} == (
        {"cli.main", "verify.run_all"} | {tracer.SUITE_PREFIX + s for s in tracer.SUITES})
    # exact, repeatable counts
    again = tracer.Trace()
    res = wl.run_pass(1, trace=again)
    n = again.layer_metrics(res.ops, res.wall)
    for key in layers:
        if key.endswith(".calls"):
            assert layers[key] == n[key] > 0, key
    # the package is restored after the traced pass
    assert all(m.multiply is original for m in modules)
    assert core.Hyper.__dict__["__post_init__"].__name__ == "__post_init__"
    assert not hasattr(core.Hyper.__add__, "__wrapped__")
