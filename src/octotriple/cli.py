"""Command-line front end.

Subcommands:
  verify      run the verification suites (`octotriple.verify`); options left
              out take `RunConfig`'s and `run_all`'s defaults, and `run_all`
              lists the suites if one is unknown
  decompose   split a user-supplied triple into its three orthogonal parts
              (`octotriple.triple`)
  hadamard    render a sign matrix and, for order 8, its permutation counts

Beyond `core` and `hadamard`, which the parser needs, a subcommand imports
what it runs, `json` included, only when it runs.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 at least one suite failed or a decomposition is not finite, 2 bad flags
or input that is malformed or cannot be read, 141 stdout's reader left early.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .core import DimensionError, Hyper, Tolerance, norm_sq
from .hadamard import (
    VALID_ORDERS,
    build,
    doubling_order_permutations,
    permuted_stack,
    symmetric_mask,
)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be comma-separated integers, got {text!r}")


def _cmd_verify(args, parser) -> int:
    from .verify import RunConfig, run_all

    given = vars(args)   # the options set on the command line; the rest keep their defaults
    config = {k: given[k] for k in ("seed", "trials", "dims") if k in given}
    tol = {k: given[k] for k in ("rel", "abs") if k in given}
    suites = {k: given[k] for k in ("suites",) if k in given}
    try:
        if tol:
            config["tolerance"] = Tolerance(**tol)
        reports = run_all(RunConfig(**config), **suites)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        for rep in reports:
            print(rep.to_json())
    else:
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(f"{status}  {rep.suite:<14} dim={rep.dim}  trials={rep.trials}  "
                  f"max_residual={rep.max_residual:.3e}  tol={rep.tolerance_used:.1e}")
    return 0 if all(r.passed for r in reports) else 1


def _load_triple(source: str, parser) -> tuple[Hyper, Hyper, Hyper]:
    import json
    try:
        if source == "-":
            text = sys.stdin.buffer.read().decode("utf-8")   # not the locale's error handler
        elif source.lstrip().startswith(("[", "{")):
            text = source
        else:
            text = Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:   # missing, a directory, or not UTF-8 text
        name = "standard input" if source == "-" else source
        parser.exit(2, f"{parser.prog}: error: cannot read {name}: "
                       f"{getattr(exc, 'strerror', None) or exc}\n")
    try:
        obj = json.loads(text)
    except ValueError as exc:   # a JSONDecodeError, or an integer literal over the digit limit
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
        return tuple(Hyper.from_dict(item) for item in items)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_decompose(args, parser) -> int:
    import json
    from .triple import (anticommutator3_norm_sq, associator3_norm_sq, commutator3_norm_sq,
                         decompose_triple)

    u1, u, u2 = _load_triple(args.input, parser)
    # an overflow shows as a non-finite result, which the strict dump below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            d = decompose_triple(u1, u, u2)
        except DimensionError as exc:
            parser.error(str(exc))
        out = d.to_dict()
        out["norm_sq"] = {k: norm_sq(getattr(d, k)) for k in ("anti", "comm", "assoc")}
        out["closed_form_norm_sq"] = {
            "anti": anticommutator3_norm_sq(u1, u, u2),
            "comm": commutator3_norm_sq(u1, u, u2),
            "assoc": associator3_norm_sq(u1, u, u2),
        }
    try:
        text = json.dumps(out, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        print("octotriple: the decomposition overflows double precision", file=sys.stderr)
        return 1
    print(text)
    return 0


def _cmd_hadamard(args, parser) -> int:
    if args.list_symmetric and not args.perms:
        parser.error("--list-symmetric requires --perms")
    try:
        m = build(args.order)
        perms = doubling_order_permutations(m) if args.perms else []
    except ValueError as exc:
        parser.error(str(exc))
    print(m.render())
    if args.perms:
        keep = symmetric_mask(permuted_stack(perms, m))
        symmetric = [p for p, k in zip(perms, keep) if k]
        print(f"automorphism perms: {len(perms)}, symmetric: {len(symmetric)}, "
              f"asymmetric: {len(perms) - len(symmetric)}")
        if args.list_symmetric:
            for p in symmetric:
                print(p.cycle_notation())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="octotriple",
        description="Verify and explore the orthogonal decomposition of triple "
                    "quaternion/octonion products.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run the verification suites",
                               argument_default=argparse.SUPPRESS)
    p_verify.add_argument("--seed", type=int, help="base seed")
    p_verify.add_argument("--trials", type=int, help="trials per suite")
    p_verify.add_argument("--dims", type=_parse_dims, help="comma-separated dimensions, e.g. 4,8")
    p_verify.add_argument("--rel-tol", dest="rel", type=float, help="relative tolerance")
    p_verify.add_argument("--abs-tol", dest="abs", type=float, help="absolute tolerance")
    p_verify.add_argument("--suites", nargs="+", metavar="SUITE",
                          help="suites to run (default: all); an unknown name lists them")
    p_verify.add_argument("--json", action="store_true", default=False, help="emit JSON reports")

    p_dec = subs.add_parser("decompose", help="decompose a triple given as JSON")
    p_dec.add_argument("input",
                       help="path to a JSON file, an inline JSON string, or '-' for stdin; "
                            "either [u1, u, u2] or {\"u1\":..., \"u\":..., \"u2\":...}")

    p_had = subs.add_parser("hadamard", help="render a sign matrix and its symmetries")
    p_had.add_argument("order", type=int, help=f"matrix order, one of {VALID_ORDERS}")
    p_had.add_argument("--perms", action="store_true",
                       help="print permutation-symmetry counts (order 8 only)")
    p_had.add_argument("--list-symmetric", action="store_true",
                       help="with --perms: list the symmetry-preserving permutations")

    args = parser.parse_args(argv)
    command = {"verify": _cmd_verify, "decompose": _cmd_decompose}.get(args.command, _cmd_hadamard)
    try:
        code = command(args, parser)
        sys.stdout.flush()   # so a reader that has gone shows here, whatever the buffering
    except BrokenPipeError:   # quietly: stdout writes to nowhere, so the last flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141   # 128 + SIGPIPE, as a shell reports a writer its reader left
    return code


if __name__ == "__main__":
    sys.exit(main())
