"""Call tracer for the benchmark's traced runs.

`Trace.installed()` wraps the package's public functions in every module
namespace that bound them by name (`multiply` alone is bound in `core`,
`triple`, `operators`, `bridge`, `verify` and the package), and the
`Hyper` and `Channels` methods once, on their classes.  It restores the
originals on exit, so untraced passes run unmodified code.

Coarse boundaries (`cli.main`, `verify.run_all`, each suite that
`run_all` runs, each `decompose-mix` operation) are spans: name, start,
end and parent, kept in memory.  Hot leaf calls run millions of times
per pass, so for them only the call count and self time per
(name, parent) pair are kept.  A frame's self time is its duration minus
the durations of the traced calls made inside it, so the self times of
all frames add up to the time spent in top-level frames.

This module imports nothing from the package at import time, because a
traced CLI child process imports it before running `octotriple.cli`.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

_perf = time.perf_counter

MODULES = ("core", "triple", "operators", "hadamard", "bridge", "verify", "cli")

# metric group -> (module, names).  Spans are the coarse boundaries.
SPANS = {
    "cli.main": ("cli", ("main",)),
    "verify.run_all": ("verify", ("run_all",)),
}
LEAVES = {
    "core.multiply": ("core", ("multiply",)),
    "core.unary": ("core", ("conjugate", "inner", "norm", "norm_sq", "scalar_part",
                            "imaginary_part")),
    "triple.decompose_triple": ("triple", ("decompose_triple",)),
    "triple.parts": ("triple", ("anticommutator3", "anticommutator3_alt",
                                "anticommutator3_closed", "commutator3", "commutator3_alt",
                                "commutator3_closed", "associator3", "associator3_alt",
                                "cross2")),
    "triple.lengths": ("triple", ("anticommutator3_norm_sq", "commutator3_norm_sq",
                                  "associator3_norm_sq", "anticommutative_component_norm_sq",
                                  "gram", "gram_imaginary", "gram_det_imaginary_identity")),
    "operators.apply": ("operators", ("apply",)),
    "operators.components": ("operators", ("component2", "component3",
                                           "component3_eigen_residuals")),
    "hadamard.build": ("hadamard", ("build",)),
    "hadamard.perms": ("hadamard", ("doubling_order_permutations",
                                    "column_set_preserving_permutations",
                                    "classify_symmetry", "row_group_check")),
    "bridge.identities": ("bridge", ("bac_cab_residual", "okubo_reconstruction_residual",
                                     "okubo_bracket", "okubo_bracket_display_residual",
                                     "dray_manogue_cross", "dray_manogue_residual")),
    "verify.trial_generator": ("verify", ("trial_generator",)),
}
# metric group -> (module, class, methods), timed like leaves
METHODS = {
    "core.hyper_arith": ("core", "Hyper", ("__add__", "__sub__", "__neg__", "__mul__",
                                           "__rmul__", "__truediv__")),
    "verify.Channels.add": ("verify", "Channels", ("add",)),
}
# counted only: validated construction and the unvalidated fast path
COUNTED = {
    "core.hyper_new": "__post_init__",
    "core.hyper_wrap": "_wrap",
}
SUITE_PREFIX = "verify.suite."
SUITES = ("core", "decomposition", "lengths", "operator", "hadamard", "bridge")

CALL_GROUPS = ("verify.trial_generator", "verify.Channels.add", "triple.decompose_triple",
               "triple.parts", "triple.lengths", "operators.apply", "operators.components",
               "bridge.identities", "core.multiply", "core.hyper_arith", "core.unary")
SELF_GROUPS = CALL_GROUPS + ("cli.main", "verify.run_all", "hadamard.build", "hadamard.perms")

TOP = "<top>"


class Trace:
    """Spans, per-(name, parent) leaf statistics and counters of one traced pass."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list] = {}   # (name, parent) -> [calls, self_s]
        self.counts: dict[str, int] = {name: 0 for name in COUNTED}
        self.spans: list[tuple[str, float, float, int]] = []   # name, start, end, parent
        self.group_of: dict[str, str] = {}
        self._top = [TOP, 0.0, -1]   # name, child time, enclosing span index
        self._stack = [self._top]

    @property
    def top_time(self) -> float:
        """Total duration of the top-level traced frames."""
        return self._top[1]

    # -- frames -------------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool, name_of=None):
        stack, spans, finish = self._stack, self.spans, self._finish

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name if name_of is None else name_of(args), 0.0, parent[2]]
            if span:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                finish(parent, frame, t0, span)

        traced.__wrapped__ = fn
        return traced

    def _finish(self, parent: list, frame: list, t0: float, span: bool) -> None:
        t1 = _perf()
        self._stack.pop()
        dt = t1 - t0
        parent[1] += dt
        if span:
            self.spans[frame[2]] = (frame[0], t0, t1, parent[2])
        entry = self.stats.get((frame[0], parent[0]))
        if entry is None:
            self.stats[(frame[0], parent[0])] = [1, dt - frame[1]]
        else:
            entry[0] += 1
            entry[1] += dt - frame[1]

    def wrap_span(self, name: str, fn):
        """`fn` as a span, for boundaries the harness itself owns."""
        self.group_of[name] = name
        return self._wrap(name, fn, span=True)

    # -- patching -------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the package for the duration of the block, then restore it."""
        undo: list[tuple[object, str, object]] = []
        try:
            self._install(undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, undo: list) -> None:
        mods = {name: importlib.import_module(f"octotriple.{name}") for name in MODULES}
        replace: dict[int, object] = {}
        for table, span in ((SPANS, True), (LEAVES, False)):
            for group, (mod, names) in table.items():
                for attr in names:
                    fine = f"{mod}.{attr}"
                    self.group_of[fine] = group
                    original = getattr(mods[mod], attr)
                    replace[id(original)] = self._wrap(fine, original, span)
        verify = mods["verify"]
        for suite in SUITES:
            self.group_of[SUITE_PREFIX + suite] = SUITE_PREFIX + suite
        replace[id(verify._run_suite)] = self._wrap(
            "verify._run_suite", verify._run_suite, span=True,
            name_of=lambda args: SUITE_PREFIX + args[0].name)
        # every binding of a wrapped function, in every module of the package
        for mod in [sys.modules["octotriple"], *mods.values()]:
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for group, (mod, cls_name, names) in METHODS.items():
            cls = getattr(mods[mod], cls_name)
            for attr in names:
                fine = f"{mod}.{cls_name}.{attr}"
                self.group_of[fine] = group
                undo.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, self._wrap(fine, cls.__dict__[attr], span=False))
        hyper = mods["core"].Hyper
        counts = self.counts
        post_init = hyper.__dict__["__post_init__"]
        wrap = hyper.__dict__["_wrap"].__func__

        def counted_post_init(obj):
            counts["core.hyper_new"] += 1
            post_init(obj)

        def counted_wrap(cls, dim, arr):
            counts["core.hyper_wrap"] += 1
            return wrap(cls, dim, arr)

        undo.append((hyper, "__post_init__", post_init))
        hyper.__post_init__ = counted_post_init
        undo.append((hyper, "_wrap", hyper.__dict__["_wrap"]))
        hyper._wrap = classmethod(counted_wrap)

    # -- results ----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "stats": [[name, parent, calls, self_s]
                      for (name, parent), (calls, self_s) in self.stats.items()],
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
            "groups": dict(self.group_of),
            "top_time": self.top_time,
        }

    def merge(self, data: dict) -> None:
        """Add a child process's trace, written by `to_dict`, into this one."""
        for name, parent, calls, self_s in data["stats"]:
            entry = self.stats.setdefault((name, parent), [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, n in data["counts"].items():
            self.counts[name] += n
        base = len(self.spans)
        self.spans.extend((n, a, b, p + base if p >= 0 else -1) for n, a, b, p in data["spans"])
        self.group_of.update(data["groups"])
        self._top[1] += data["top_time"]

    def self_time(self) -> float:
        return sum(self_s for _, self_s in self.stats.values())

    def layer_metrics(self, ops: int, wall: float) -> dict[str, float]:
        """Per-layer counts and self times of this pass, keyed by metric name."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, _parent), (n, s) in self.stats.items():
            group = self.group_of.get(name, name)
            calls[group] = calls.get(group, 0) + n
            self_s[group] = self_s.get(group, 0.0) + s
        out: dict[str, float] = {}
        for group in CALL_GROUPS:
            out[f"{group}.calls"] = calls.get(group, 0)
        for group in SELF_GROUPS:
            out[f"{group}.self_s"] = self_s.get(group, 0.0)
        out["core.multiply.calls_per_op"] = calls.get("core.multiply", 0) / ops
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        suite_spans = [(b - a) for n, a, b, _ in self.spans if n.startswith(SUITE_PREFIX)]
        out["trace.wall_s"] = wall
        out["trace.suites_s"] = sum(suite_spans)
        out["trace.leaf_self_s"] = sum(self_s.get(g, 0.0) for g in (*LEAVES, *METHODS))
        out["trace.root_self_s"] = wall - self.top_time
        return out


def merge_medians(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes of one run; counts stay whole."""
    out = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        whole = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if whole else statistics.median(values)
    return out


def traced_cli(out_path: str, argv: list[str]) -> int:
    """Run `octotriple.cli.main(argv)` traced and write the trace to out_path."""
    import octotriple.cli as cli

    trace = Trace()
    with trace.installed():
        rc = cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(trace.to_dict(), fh)
    return rc
