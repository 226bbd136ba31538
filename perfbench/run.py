"""Benchmark of the octotriple verifier, run from the root of a checkout:

    python3 perfbench/run.py --workload verify-full --seed 1 --seconds 30 --trace 0

It drives the package in `src/` through its public entry points only.
With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
wraps the package's functions (see tracer.py) and reports per-layer
counts and self times instead.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See README.md for the
workloads, the metrics and the map between them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Every timing of an untraced run is scaled by CAL_REF_S / the time of a
# fixed calibration measured just before and after it (see calibration_s),
# so the timings read as seconds on a machine where the calibration takes
# CAL_REF_S.  On a shared machine the speed of the same code drifts by a
# factor of 2 within a minute; the ratio to the calibration drifts far less.
CAL_REF_S = 0.030
# The same for workloads whose work is fresh processes, scaled by the time
# of a fresh interpreter that imports numpy (see spawn_calibration_s).
SPAWN_CAL_REF_S = 0.150
# fresh-interpreter set-up samples, spread over the run
SETUP_SAMPLES = 10
# fresh-interpreter start-up samples of a traced run
STARTUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# share of operations that hit the known range defect (see workloads.DecomposeMix)
RANGE_DEFECT_SHARE = "triple.range_defect_share"

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import octotriple
units = [octotriple.Hyper.basis(int(d), 0) for d in sys.argv[1:]]
products = [octotriple.multiply(e, e) for e in units]
elapsed = time.perf_counter() - t0
ok = all(p.coeffs.tolist() == e.coeffs.tolist() for p, e in zip(products, units))
print(repr(elapsed))
sys.exit(0 if ok else 1)
"""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = ["startup.import_numpy_s", "startup.import_octotriple_self_s"]
    names += [f"{tracer.SUITE_PREFIX}{s}.s" for s in tracer.SUITES]
    names += [f"{g}.calls" for g in tracer.CALL_GROUPS]
    names += [f"{g}.self_s" for g in tracer.SELF_GROUPS]
    names += ["core.multiply.calls_per_op"]
    names += [f"{c}.calls" for c in tracer.COUNTED]
    names += ["trace.wall_s", "trace.suites_s", "trace.leaf_self_s", "trace.root_self_s",
              "trace.overhead_s"]
    units = {n: "count/op" if n.endswith("per_op") else "count" if n.endswith(".calls") else "s"
             for n in names}
    units[RANGE_DEFECT_SHARE] = "1"
    return units


def setup_sample(dims, env) -> float:
    """Seconds for `import octotriple` plus the first product at each dimension."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, *map(str, dims)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit {proc.returncode}: {proc.stderr[-2000:]}")
    return float(proc.stdout)


def startup_sample(env) -> tuple[float, float]:
    """(numpy import, octotriple's own modules) in seconds, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import octotriple"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    numpy_us = None
    own_us = 0
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name == "numpy":
            numpy_us = int(fields[1])
        elif name == "octotriple" or name.startswith("octotriple."):
            own_us += int(fields[0])
    if proc.returncode != 0 or numpy_us is None:
        raise RuntimeError(f"import octotriple failed: {proc.stderr[-2000:]}")
    return numpy_us / 1e6, own_us / 1e6


def run_passes(run_one, seconds: float) -> list:
    """Closed loop: one pass after another until `seconds` have passed (at least one)."""
    out = []
    end = time.perf_counter() + seconds
    while not out or time.perf_counter() < end:
        out.append(run_one(len(out)))
    return out


_CAL_RNG = np.random.default_rng(0)
_CAL_INPUTS = [tuple(_CAL_RNG.standard_normal(8) for _ in range(3)) for _ in range(40)]


def calibration_s() -> float:
    """Seconds for the harness's own decomposition of 40 fixed octonion triples.

    It shares no code with the package, so a change to the package does
    not move it; it runs the same kind of small-array numpy code, so a
    change in the machine's speed moves both alike.
    """
    t0 = time.perf_counter()
    for triple in _CAL_INPUTS:
        reference.decompose(*triple)
    return time.perf_counter() - t0


def spawn_calibration_s() -> float:
    """Seconds from spawn to exit of a fresh interpreter that imports numpy.

    Start-up of the interpreter and of numpy is most of a `cli-oneshot`
    call, and it slows with the host differently from in-process numpy
    code: scaled by `calibration_s`, `cli-oneshot` timings still spread
    by 0.06 to 0.09 between runs, scaled by this by 0.02 to 0.05.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return time.perf_counter() - t0


def calibrated(run_one, spawns: bool = False):
    """(result, speed factor): `run_one()` between two calibrations, of
    fresh processes if `spawns`, else in process."""
    cal, ref = (spawn_calibration_s, SPAWN_CAL_REF_S) if spawns else (calibration_s, CAL_REF_S)
    before = cal()
    result = run_one()
    return result, 2 * ref / (before + cal())


def timing_metrics(setup, runs) -> dict[str, float]:
    """End-to-end timings from (value, speed factor) pairs of set-ups and passes.

    Every pass of a workload runs the same sequence of calls (on the same
    inputs in `decompose-mix`, on each pass's own in the others), so each
    operation's latency is its median over the passes, and the percentiles
    are taken over the operations of one pass: a tail that a burst of host
    load gives some operation in some pass is not the program's.
    (`verify-full` gives each of its 1001 operations the pass's mean.)
    """
    per_op = np.median([np.asarray(p.latencies) * f for p, f in runs], axis=0)
    p50, p90, p99 = np.percentile(per_op, [50, 90, 99])
    return {
        "setup_s": statistics.median(s * f for s, f in setup),
        "wall_s": statistics.median(p.wall * f for p, f in runs),
        "ops_per_s": statistics.median(p.ops / (p.wall * f) for p, f in runs),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "latency_p99_ms": float(p99),
    }


def measure(workload, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES,
            startup_samples: int = STARTUP_SAMPLES):
    """One run: (result object for the last line, human-readable lines)."""
    env = workloads.child_env()
    if trace:
        metrics, passes, extra = _traced(workload, seconds, env, startup_samples)
    else:
        metrics, passes, extra = _untraced(workload, seconds, env, setup_samples)
    units = per_layer_units() if trace else END_TO_END
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    defects = sum(p.range_defects for p in passes)
    correct = not any(p.incorrect for p in passes)
    if trace:
        metrics[RANGE_DEFECT_SHARE] = defects / attempted
    lines = [f"# workload {workload.name}, {'traced' if trace else 'untraced'}", *extra]
    lines += [f"{name} {metrics[name]!r} {unit}" for name, unit in units.items()]
    lines.append(f"error_rate {(failed + defects) / attempted!r} 1 ({failed + defects} of "
                 f"{attempted} operations: {failed} failed, {defects} known range defect)")
    lines += [f"# {note}" for p in passes for note in p.notes][:20]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def _untraced(workload, seconds: float, env, setup_samples: int):
    setup_sample(workload.dims, env)   # warm-up: writes the bytecode caches
    setup, runs = [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() < start + seconds:
        # the k-th set-up sample is due once k/setup_samples of the run has passed
        done = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        while len(setup) < min(setup_samples, 1 + int(setup_samples * done)):
            setup.append(calibrated(lambda: setup_sample(workload.dims, env)))
        runs.append(calibrated(lambda: workload.run_pass(len(runs)), workload.spawns))
    while len(setup) < setup_samples:
        setup.append(calibrated(lambda: setup_sample(workload.dims, env)))
    passes = [p for p, _ in runs]
    metrics = timing_metrics(setup, runs)
    metrics["peak_rss_mb"] = max(p.peak_rss_kb for p in passes) / 1024
    raw = timing_metrics([(s, 1.0) for s, _ in setup], [(p, 1.0) for p in passes])
    extra = [f"# samples: {len(setup)} set-ups, {len(passes)} passes of {passes[0].ops} "
             f"operations; median speed factor {statistics.median(f for _, f in runs)!r}",
             *(f"# uncalibrated {name} {value!r}" for name, value in raw.items())]
    return metrics, passes, extra


def _traced(workload, seconds: float, env, startup_samples: int):
    from octotriple import run_all

    startup = [startup_sample(env) for _ in range(startup_samples + 1)][1:]
    untraced, traced, layers = [], [], []
    last = None

    def pair(index: int):
        nonlocal last
        untraced.append(workload.run_pass(index))
        last = tracer.Trace()
        res = workload.run_pass(index, trace=last)
        traced.append(res)
        layers.append(last.layer_metrics(res.ops, res.wall))

    run_passes(pair, seconds)
    metrics = tracer.merge_medians(layers)
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                   - statistics.median(p.wall for p in untraced))
    metrics["startup.import_numpy_s"] = statistics.median(s[0] for s in startup)
    metrics["startup.import_octotriple_self_s"] = statistics.median(s[1] for s in startup)
    config = workload.verify_config(0)
    probes_ok = True
    for suite in tracer.SUITES:
        elapsed = 0.0
        if config is not None:
            t0 = time.perf_counter()
            reports = run_all(config, suites=(suite,))
            elapsed = time.perf_counter() - t0
            probes_ok = probes_ok and all(r.passed for r in reports)
        metrics[f"{tracer.SUITE_PREFIX}{suite}.s"] = elapsed
    if not probes_ok:
        traced[-1].incorrect = True
        traced[-1].notes.append("a per-suite probe failed")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload.name}-{workload.seed}.json", "w") as fh:
        json.dump({"layers": metrics, "last_pass": last.to_dict()}, fh)
    extra = [f"# samples: {len(startup)} start-ups, {len(traced)} traced and "
             f"{len(untraced)} untraced passes"]
    return metrics, untraced + traced, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "octotriple" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'octotriple'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for the benchmark and its children, so that the calibration
    # and the work it scales run on the same CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result, lines = measure(workloads.WORKLOADS[args.workload](args.seed), args.seconds,
                            bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
