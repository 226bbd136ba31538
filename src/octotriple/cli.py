"""Command-line front end.

Subcommands:
  verify      run every verification suite with deterministic randomness
  compare     run only the convention-bridge identities, one report line each
  decompose   split a user-supplied triple into its three orthogonal parts
  hadamard    render a sign matrix and, for order 8, its permutation counts

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 at least one suite failed or a decomposition is not finite, 2 bad flags
or malformed input.  The default seed comes from OCTOTRIPLE_SEED when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bridge import ConventionReport
from .core import Hyper, Tolerance, VALID_DIMS, norm_sq
from .hadamard import VALID_ORDERS, build, classify_symmetry, doubling_order_permutations
from .triple import (
    anticommutator3_norm_sq,
    associator3_norm_sq,
    commutator3_norm_sq,
    decompose_triple,
)
from .verify import RunConfig, run_all


def _default_seed() -> int:
    raw = os.environ.get("OCTOTRIPLE_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        print(f"octotriple: OCTOTRIPLE_SEED must be an integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(2)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be comma-separated integers, got {text!r}")
    bad = [d for d in dims if d not in VALID_DIMS]
    if bad or not dims:
        raise argparse.ArgumentTypeError(f"dims must be among {VALID_DIMS}, got {text!r}")
    return dims


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help="base seed (default: OCTOTRIPLE_SEED or 0)")
    sub.add_argument("--trials", type=int, default=1000, help="trials per suite")
    sub.add_argument("--dims", type=_parse_dims, default=(4, 8),
                     help="comma-separated dimensions, e.g. 4,8")
    sub.add_argument("--rel-tol", type=float, default=1e-9)
    sub.add_argument("--abs-tol", type=float, default=1e-12)
    sub.add_argument("--json", action="store_true", help="emit JSON reports")


def _build_config(args, parser: argparse.ArgumentParser) -> RunConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        tol = Tolerance(rel=args.rel_tol, abs=args.abs_tol)
        return RunConfig(seed=seed, trials=args.trials, dims=args.dims, tolerance=tol)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_verify(args, parser) -> int:
    config = _build_config(args, parser)
    reports = run_all(config)
    if args.json:
        for rep in reports:
            print(rep.to_json())
    else:
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(f"{status}  {rep.suite:<14} dim={rep.dim}  trials={rep.trials}  "
                  f"max_residual={rep.max_residual:.3e}  tol={rep.tolerance_used:.1e}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_compare(args, parser) -> int:
    config = _build_config(args, parser)
    reports = run_all(config, suites=("bridge",))
    lines = []
    ok = True
    for rep in reports:
        ok = ok and rep.passed
        channels = rep.details["channels"]
        for name, value in channels.items():
            if name.startswith("info:"):
                continue
            lines.append(ConventionReport(
                identity_name=f"{name}/dim{rep.dim}",
                trials=rep.trials,
                max_residual=value,
                passed=value <= rep.tolerance_used,
            ))
    if args.json:
        for line in lines:
            print(line.to_json_line())
    else:
        for line in lines:
            status = "PASS" if line.passed else "FAIL"
            print(f"{status}  {line.identity_name:<36} trials={line.trials}  "
                  f"max_residual={line.max_residual:.3e}")
    return 0 if ok else 1


def _load_triple(source: str, parser) -> tuple[Hyper, Hyper, Hyper]:
    text = source
    if source == "-":
        text = sys.stdin.read()
    elif not source.lstrip().startswith(("[", "{")):
        path = Path(source)
        if not path.exists():
            parser.error(f"input file not found: {source}")
        text = path.read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        parser.error(f"malformed JSON input: {exc}")
    try:
        if isinstance(obj, dict):
            missing = [k for k in ("u1", "u", "u2") if k not in obj]
            if missing:
                raise ValueError(f"missing field(s) {missing}; expected keys u1, u, u2")
            items = [obj["u1"], obj["u"], obj["u2"]]
        elif isinstance(obj, list):
            if len(obj) != 3:
                raise ValueError(f"expected exactly 3 values, got {len(obj)}")
            items = obj
        else:
            raise ValueError("expected a JSON array of 3 values or an object with u1, u, u2")
        u1, u, u2 = (Hyper.from_dict(item) for item in items)
        if not (u1.dim == u.dim == u2.dim):
            raise ValueError(f"dimension mismatch: {u1.dim}, {u.dim}, {u2.dim}")
    except ValueError as exc:
        parser.error(str(exc))
    return u1, u, u2


def _cmd_decompose(args, parser) -> int:
    u1, u, u2 = _load_triple(args.input, parser)
    d = decompose_triple(u1, u, u2)
    out = {
        "anti": d.anti.to_dict(),
        "comm": d.comm.to_dict(),
        "assoc": d.assoc.to_dict(),
        "residual": d.residual,
        "norm_sq": {
            "anti": norm_sq(d.anti),
            "comm": norm_sq(d.comm),
            "assoc": norm_sq(d.assoc),
        },
        "closed_form_norm_sq": {
            "anti": anticommutator3_norm_sq(u1, u, u2),
            "comm": commutator3_norm_sq(u1, u, u2),
            "assoc": associator3_norm_sq(u1, u, u2),
        },
    }
    try:
        text = json.dumps(out, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        print("octotriple: the decomposition overflows double precision", file=sys.stderr)
        return 1
    print(text)
    return 0


def _cmd_hadamard(args, parser) -> int:
    m = build(args.order)
    print(m.render())
    if args.perms:
        if args.order != 8:
            parser.error("--perms requires order 8")
        perms = doubling_order_permutations(m)
        sym, asym = classify_symmetry(perms, m)
        print(f"automorphism perms: {len(perms)}, symmetric: {sym}, asymmetric: {asym}")
        if args.list_symmetric:
            for p in perms:
                if m.permuted_rows(p).is_symmetric():
                    print(p.cycle_notation())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="octotriple",
        description="Verify and explore the orthogonal decomposition of triple "
                    "quaternion/octonion products.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run all verification suites")
    _add_run_flags(p_verify)

    p_compare = subs.add_parser("compare", help="run the convention-bridge identities")
    _add_run_flags(p_compare)

    p_dec = subs.add_parser("decompose", help="decompose a triple given as JSON")
    p_dec.add_argument("input",
                       help="path to a JSON file, an inline JSON string, or '-' for stdin; "
                            "either [u1, u, u2] or {\"u1\":..., \"u\":..., \"u2\":...}")

    p_had = subs.add_parser("hadamard", help="render a sign matrix and its symmetries")
    p_had.add_argument("order", type=int, choices=VALID_ORDERS,
                       help="matrix order: 2, 4 or 8")
    p_had.add_argument("--perms", action="store_true",
                       help="print permutation-symmetry counts (order 8 only)")
    p_had.add_argument("--list-symmetric", action="store_true",
                       help="with --perms: list the symmetry-preserving permutations")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args, parser)
    if args.command == "compare":
        return _cmd_compare(args, parser)
    if args.command == "decompose":
        return _cmd_decompose(args, parser)
    return _cmd_hadamard(args, parser)


if __name__ == "__main__":
    sys.exit(main())
