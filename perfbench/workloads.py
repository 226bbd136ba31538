"""The three benchmark workloads.

Each workload makes its inputs from the seed it is given, runs closed
loop in one process (`cli-oneshot` starts one child at a time and waits
for it), and checks every output of a pass outside the pass's timer.
`run_pass` returns the pass's wall time, its operation count and
per-operation latencies, and how many operations failed their check.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

_perf = time.perf_counter
_LOG2_10 = math.log2(10.0)
# log2 of the smallest normal float64, and of the overflow threshold
_MIN_EXP, _MAX_EXP = -1022, 1024


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's `src` first on the path."""
    env = dict(os.environ)
    env.pop("OCTOTRIPLE_SEED", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index` of a run, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class PassResult:
    wall: float
    ops: int
    latencies: list[float]
    failed: int = 0
    # a check found a wrong finite answer (see each workload for what counts)
    incorrect: bool = False
    # decompose-mix: wide-magnitude operations that hit the known range
    # defect; they are checked and counted, but not in `failed`
    range_defects: int = 0
    peak_rss_kb: int = 0
    notes: list[str] = field(default_factory=list)


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- verify-full -----------------------------------------------------------------

_PASS_LINE = re.compile(r"^PASS\s+(\S+)\s+dim=(\d+)\s+trials=(\d+)\s")
# verify runs core, decomposition, lengths, operator and bridge per
# dimension, and hadamard once
_PER_DIM_SUITES = 5


def verify_lines(dims) -> int:
    """Report lines of one `verify` call over `dims`."""
    return _PER_DIM_SUITES * len(dims) + 1


class VerifyFull:
    """`octotriple.cli.main(["verify", ...])` in process, text mode, stdout captured.

    Text mode, because `verify --json` crashes on the seed (see README.md).
    One operation is one (suite, dimension, trial) evaluation; the
    dimension-independent hadamard suite counts as one.
    """

    name = "verify-full"
    spawns = False
    dims = (4, 8)
    verify_dims = (4, 8)

    def __init__(self, seed: int, trials: int = 100):
        self.seed = seed
        self.trials = trials
        self.expected_lines = verify_lines(self.verify_dims)
        self.ops = _PER_DIM_SUITES * len(self.verify_dims) * trials + 1

    def argv(self, index: int) -> list[str]:
        return ["verify", "--seed", str(pass_seed(self.seed, index)),
                "--trials", str(self.trials),
                "--dims", ",".join(map(str, self.verify_dims))]

    def verify_config(self, index: int):
        from octotriple import RunConfig
        return RunConfig(seed=pass_seed(self.seed, index), trials=self.trials,
                         dims=self.verify_dims)

    def run_pass(self, index: int, trace=None) -> PassResult:
        import octotriple.cli as cli

        argv = self.argv(index)
        buf = io.StringIO()
        with contextlib.ExitStack() as stack:
            if trace is not None:
                stack.enter_context(trace.installed())
            stack.enter_context(contextlib.redirect_stdout(buf))
            t0 = _perf()
            rc = cli.main(argv)
            wall = _perf() - t0
        passed = [m for m in map(_PASS_LINE.match, buf.getvalue().splitlines()) if m]
        good = sum(int(m.group(3)) for m in passed)
        failed = self.ops - good
        ok = rc == 0 and len(passed) == self.expected_lines and failed == 0
        # one call exposes no single operation: each is given the pass's mean
        res = PassResult(wall, self.ops, [wall / self.ops * 1e3] * self.ops,
                         failed=failed if ok else max(failed, 1), incorrect=not ok,
                         peak_rss_kb=self_peak_rss_kb())
        if not ok:
            res.notes.append(f"verify {' '.join(argv)}: exit {rc}, "
                             f"{len(passed)} of {self.expected_lines} PASS lines")
        return res


# -- decompose-mix ------------------------------------------------------------------


@dataclass
class Triple:
    dim: int
    coeffs: tuple[np.ndarray, np.ndarray, np.ndarray]
    exp: int            # the arguments are the unit triple times 2^exp in total
    wide: bool
    scale: float        # natural scale of the unit triple
    parts: tuple        # reference parts of the unit triple
    lengths: tuple      # reference squared lengths of the unit triple
    check_lengths: bool  # the exact lengths at 2^(2 exp) are representable


def make_triples(seed: int, count: int) -> list[Triple]:
    """Half unit-scale normal triples, half with per-argument scales near 10^e.

    The wide scales are powers of two, 2^round(e log2 10) with e uniform in
    [-150, 150], so the reference (the unit triple's, rescaled) is exact by
    trilinearity.  Only triples whose product scale is a normal float64
    are kept.  Dimensions 1, 2, 4 and 8 and the two magnitudes take equal
    shares, so the mix does not vary with the seed; the order is shuffled.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        dim = (1, 2, 4, 8)[i // 2 % 4]
        wide = i % 2 == 1
        unit = tuple(rng.standard_normal(dim) for _ in range(3))
        s = ref.scale(*unit)
        exps = (0, 0, 0)
        while wide:
            exps = tuple(int(round(e * _LOG2_10)) for e in rng.uniform(-150.0, 150.0, 3))
            if _MIN_EXP < sum(exps) + math.log2(s) < _MAX_EXP:
                break
        k = sum(exps)
        coeffs = tuple(np.ldexp(c, e) for c, e in zip(unit, exps))
        parts, lengths = ref.decompose(*unit)
        two_k = 2 * (k + math.log2(s))
        out.append(Triple(dim, coeffs, k, wide, s, parts, lengths,
                          _MIN_EXP < two_k < _MAX_EXP))
    rng.shuffle(out)
    return out


def check_triple(t: Triple, parts, lengths) -> bool:
    """Whether every output matches the reference.

    Outputs are scaled back by 2^-exp (parts) and 2^-2exp (lengths), which
    is exact, and compared at unit scale.
    """
    if not all(ref.part_ok(np.ldexp(p.coeffs, -t.exp), want, t.scale)
               for p, want in zip(parts, t.parts)):
        return False
    with np.errstate(over="ignore"):
        return not t.check_lengths or all(
            ref.length_ok(float(np.ldexp(got, -2 * t.exp)), want, t.scale)
            for got, want in zip(lengths, t.lengths))


class DecomposeMix:
    """A stream of independent triples through the public scalar API.

    One operation: validated `Hyper(dim, coeffs)` for the three arguments,
    `decompose_triple`, and the three closed-form `*_norm_sq` lengths.
    A failed check on a unit-scale triple counts in `failed` and marks the
    run incorrect.  On a wide-magnitude triple it is the known range defect
    (intermediates overflow or underflow although the result is
    representable) and counts in `range_defects` instead.
    """

    name = "decompose-mix"
    spawns = False
    dims = (1, 2, 4, 8)

    def __init__(self, seed: int, count: int = 2048):
        self.seed = seed
        self.triples = make_triples(seed, count)
        self.ops = count

    def verify_config(self, index: int):
        return None

    def run_pass(self, index: int, trace=None) -> PassResult:
        import octotriple as pkg

        lat = []
        failed = range_defects = 0
        with contextlib.ExitStack() as stack:
            if trace is not None:
                stack.enter_context(trace.installed())
            # looked up after installing, so a traced pass calls the wrappers
            hyper, decompose = pkg.Hyper, pkg.decompose_triple
            anti_sq, comm_sq, assoc_sq = (pkg.anticommutator3_norm_sq, pkg.commutator3_norm_sq,
                                          pkg.associator3_norm_sq)

            def op(t: Triple):
                a, b, c = (hyper(t.dim, x) for x in t.coeffs)
                d = decompose(a, b, c)
                return (d.anti, d.comm, d.assoc), (anti_sq(a, b, c), comm_sq(a, b, c),
                                                   assoc_sq(a, b, c))

            if trace is not None:
                op = trace.wrap_span("decompose_mix.op", op)
            # The pool and everything else alive now stay out of the
            # package's garbage collections, and each output is checked and
            # dropped at once, so the harness adds no work to those
            # collections.  Without this the 99th percentile flips between
            # runs with how many collections the retained outputs trigger.
            gc.freeze()
            stack.callback(gc.unfreeze)
            for t in self.triples:
                t0 = _perf()
                parts, lengths = op(t)
                lat.append(_perf() - t0)
                if not check_triple(t, parts, lengths):
                    if t.wide:
                        range_defects += 1
                    else:
                        failed += 1
        # the pass's wall time excludes the checks between operations
        return PassResult(sum(lat), self.ops, [x * 1e3 for x in lat], failed=failed,
                          incorrect=failed > 0, range_defects=range_defects,
                          peak_rss_kb=self_peak_rss_kb())


# -- cli-oneshot --------------------------------------------------------------------

_HADAMARD_COUNTS = "automorphism perms: 168, symmetric: 28, asymmetric: 140"
_TRACE_BOOT = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
               "sys.exit(tracer.traced_cli(sys.argv[2], sys.argv[3:]))")


def run_child(args: list[str], env: dict) -> tuple[float, int, str, str, int]:
    """Run one child to completion: (seconds from spawn to exit, exit code,
    stdout, stderr, peak RSS in KiB)."""
    t0 = _perf()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        # wait4 rather than wait, for the child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = _perf() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return elapsed, proc.returncode, out.decode(), err.decode(), usage.ru_maxrss


class CliOneshot:
    """Fresh-process CLI calls, one at a time, in a fixed order.

    A pass is `decompose '<seeded inline triple>'`, `hadamard 8 --perms
    --list-symmetric` and `verify --trials 10 --dims 8 --seed S`.  One
    operation is one process, timed from spawn to exit.
    """

    name = "cli-oneshot"
    # its work is fresh processes, so its passes are calibrated by one
    spawns = True
    dims = (1, 2, 4, 8)
    verify_dims = (8,)
    verify_trials = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.env = child_env()
        self.ops = 3

    def triple(self, index: int) -> Triple:
        return next(t for t in make_triples(pass_seed(self.seed, index), 8) if not t.wide)

    def commands(self, index: int) -> list[list[str]]:
        t = self.triple(index)
        inline = json.dumps([{"dim": t.dim, "coeffs": c.tolist()} for c in t.coeffs])
        return [
            ["decompose", inline],
            ["hadamard", "8", "--perms", "--list-symmetric"],
            ["verify", "--trials", str(self.verify_trials),
             "--dims", ",".join(map(str, self.verify_dims)),
             "--seed", str(pass_seed(self.seed, index))],
        ]

    def verify_config(self, index: int):
        from octotriple import RunConfig
        return RunConfig(seed=pass_seed(self.seed, index), trials=self.verify_trials,
                         dims=self.verify_dims)

    def check(self, index: int, which: int, rc: int, out: str) -> bool:
        if rc != 0:
            return False
        if which == 0:
            return self.check_decompose(self.triple(index), out)
        if which == 1:
            lines = out.splitlines()
            return (_HADAMARD_COUNTS in lines
                    and sum(1 for line in lines if line.startswith("(")) == 28)
        passed = sum(1 for line in out.splitlines() if _PASS_LINE.match(line))
        return passed == verify_lines(self.verify_dims)

    @staticmethod
    def check_decompose(t: Triple, out: str) -> bool:
        try:
            obj = json.loads(out)
            parts = [np.asarray(obj[k]["coeffs"], dtype=np.float64)
                     for k in ("anti", "comm", "assoc")]
            closed = [obj["closed_form_norm_sq"][k] for k in ("anti", "comm", "assoc")]
            direct = [obj["norm_sq"][k] for k in ("anti", "comm", "assoc")]
        except (ValueError, KeyError, TypeError):
            return False
        return (all(ref.part_ok(p, want, t.scale) for p, want in zip(parts, t.parts))
                and all(ref.length_ok(got, want, t.scale)
                        for got, want in zip(closed + direct, t.lengths * 2)))

    def run_pass(self, index: int, trace=None) -> PassResult:
        lat = []
        results = []
        rss = 0
        with contextlib.ExitStack() as stack:
            if trace is not None:
                tmp = stack.enter_context(tempfile.TemporaryDirectory(dir=BENCH_DIR))
            t_pass = _perf()
            for which, argv in enumerate(self.commands(index)):
                if trace is None:
                    args = [sys.executable, "-m", "octotriple", *argv]
                else:
                    out_path = os.path.join(tmp, f"trace{which}.json")
                    args = [sys.executable, "-c", _TRACE_BOOT, str(BENCH_DIR), out_path, *argv]
                elapsed, rc, out, err, child_rss = run_child(args, self.env)
                lat.append(elapsed * 1e3)
                rss = max(rss, child_rss)
                results.append((which, rc, out, err))
            wall = _perf() - t_pass
            if trace is not None:
                for which in range(len(results)):
                    path = os.path.join(tmp, f"trace{which}.json")
                    if os.path.exists(path):   # a child that crashed wrote none
                        with open(path) as fh:
                            trace.merge(json.load(fh))
        res = PassResult(wall, self.ops, lat, peak_rss_kb=rss)
        for which, rc, out, err in results:
            if not self.check(index, which, rc, out):
                res.failed += 1
                res.incorrect = True
                res.notes.append(f"cli call {which} of pass {index}: exit {rc}: "
                                 f"{err.strip()[-300:]}")
        return res


WORKLOADS = {w.name: w for w in (VerifyFull, DecomposeMix, CliOneshot)}
