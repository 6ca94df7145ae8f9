"""Command-line interface.

Exit codes: 0 success, 1 validation or constraint failure, 2 I/O or parse
error (including usage errors). All emitted numbers use a fixed
12-significant-digit format so identical inputs and flags produce
byte-identical output.

`cli_dispatch(argv)` is the in-process entry point: it returns the exit code
instead of exiting. It builds the argument parser on its first call and
reuses it, so a process that dispatches many commands pays for the parser
once, and each call's exit code, stdout, stderr and files are those of a
fresh `jointmeas` process. A `--witness-out` file is written before the
report is printed, so a write that fails exits 2 with nothing on stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import io
from .bounds import (
    admissible_region_curves,
    check_corollary_joint,
    check_corollary_pvm_instrument,
    check_theorem1,
    check_theorem2,
    heinosaari_lower_bound,
    max_commutator_norm,
    qubit_rhs,
)
from .distances import D_inf, D_l1
from .feasibility import (
    DEFAULT_MAX_ITER,
    FRONTIER_MAX_ITER,
    FRONTIER_RESOLUTION,
    FRONTIER_X_MAX,
    check_joint_measurability,
    frontier_sweep,
)
from .io import FileFormatError, format_float
from .povm import Povm, bloch_pvm
from .selftest import run_selftest
from .smearing import OutcomeMap


class UsageError(Exception):
    """Flag combination does not form a runnable command."""


def _load_povm(path, lenient: bool) -> Povm:
    povm, violations = io.load_povm(path)
    if violations:
        lines = "\n".join(f"  {v}" for v in violations)
        if lenient:
            print(f"warning: {path} is not a valid POVM:\n{lines}", file=sys.stderr)
        else:
            raise ValueError(f"{path} is not a valid POVM:\n{lines}")
    return povm


def _load_pair(args) -> tuple[Povm, Povm]:
    return _load_povm(args.a, args.lenient), _load_povm(args.b, args.lenient)


def _load_map(path, source: tuple[str, ...], target: tuple[str, ...], what: str) -> OutcomeMap:
    # parse errors propagate as they are (exit 2); only the map's own
    # validation is prefixed with the flag that named the file
    pairs = io.load_outcome_map_pairs(path)
    try:
        return OutcomeMap(source, target, dict(pairs))
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from e


def _print_distance(metric: str, dv, witness_out) -> None:
    print(f"metric = {metric}")
    print(f"value = {format_float(dv.value)}")
    if isinstance(dv.witness, tuple):
        print(f"witness_subset = {{{', '.join(dv.witness)}}}")
    else:
        print(f"witness_outcome = {dv.witness}")
    if witness_out:
        print(f"witness_state_file = {witness_out}")


def _print_report(report) -> None:
    print(f"inequality = {report.inequality_id}")
    print(f"X = {format_float(report.X)}")
    print(f"Y = {format_float(report.Y)}")
    print(f"V_A = {format_float(report.V_A)}")
    print(f"V_B = {format_float(report.V_B)}")
    print(f"lhs = {format_float(report.lhs)}")
    print(f"rhs = {format_float(report.rhs)}")
    print(f"slack = {format_float(report.slack)}")
    print(f"satisfied = {'true' if report.satisfied else 'false'}")
    if report.note:
        print(f"note = {report.note}")


def _cmd_validate(args) -> int:
    povm, violations = io.load_povm(args.povm)
    print(f"dim = {povm.dim}")
    print(f"outcomes = {len(povm.outcomes)}")
    if not violations:
        print("valid")
        return 0
    for v in violations:
        print(str(v))
    return 1


def _cmd_distance(args) -> int:
    a, b = _load_pair(args)
    dv = D_inf(a, b) if args.metric == "inf" else D_l1(a, b)
    if args.witness_out:
        io.save_state(dv.witness_state, args.witness_out)
    _print_distance(args.metric, dv, args.witness_out)
    return 0


def _cmd_bounds(args) -> int:
    a, b = _load_pair(args)
    if args.inequality == "cor-joint":
        _print_report(check_corollary_joint(a, b))
        return 0
    if not (args.joint and args.map_a and args.map_b):
        raise UsageError(f"inequality {args.inequality} needs --joint, --map-a and --map-b")
    f_povm = _load_povm(args.joint, args.lenient)
    f_a = _load_map(args.map_a, f_povm.outcomes, a.outcomes, "--map-a")
    f_b = _load_map(args.map_b, f_povm.outcomes, b.outcomes, "--map-b")
    checker = {
        "theorem1": check_theorem1,
        "theorem2": check_theorem2,
        "cor-pvm-instrument": check_corollary_pvm_instrument,
    }[args.inequality]
    _print_report(checker(a, b, f_povm, f_a, f_b))
    return 0


def _cmd_check_joint(args) -> int:
    a, b = _load_pair(args)
    result = check_joint_measurability(a, b, max_iter=args.max_iter)
    if result.witness is not None:
        io.save_povm(result.witness, args.witness_out)
    print(f"status = {result.status}")
    print(f"residual = {format_float(result.residual)}")
    print(f"iterations = {result.iterations}")
    if result.certificate_note:
        print(f"note = {result.certificate_note}")
    if result.witness is not None:
        print(f"witness_file = {args.witness_out}")
    return 0 if result.status == "feasible" else 1


def _cmd_frontier(args) -> int:
    a, b = _load_pair(args)
    points = frontier_sweep(
        a,
        b,
        args.grid,
        x_max=args.x_max,
        y_resolution=args.resolution,
        max_iter=args.max_iter,
    )
    io.write_csv(
        args.out,
        ["X_target", "X_achieved", "Y_achieved"],
        [(p.x_target, p.x_achieved, p.y_achieved) for p in points],
    )
    print(f"wrote {len(points)} frontier points to {args.out}")
    return 0


def _cmd_qubit_demo(args) -> int:
    theta = args.theta
    qubit_rhs(theta)  # range check
    # Build the actual projector pair; its largest commutator norm is the
    # bound target (this doubles as an end-to-end consistency path rather
    # than trusting the closed form).
    n = (0.0, 0.0, 1.0)
    m = (float(np.sin(theta)), 0.0, float(np.cos(theta)))
    target = max_commutator_norm(bloch_pvm(n), bloch_pvm(m))
    region = admissible_region_curves(theta, args.grid, rhs=target)
    io.write_csv(
        args.out,
        ["X", "Y_cor1", "Y_heinosaari"],
        zip(region.x, region.y_product_bound, region.y_additive_bound),
    )
    print(f"theta = {format_float(theta)}")
    print(f"commutator_bound = {format_float(target)}")
    print(f"additive_bound = {format_float(heinosaari_lower_bound(theta))}")
    print(f"wrote {args.grid} grid points to {args.out}")
    return 0


def _cmd_selftest(args) -> int:
    violations = run_selftest(trials=args.trials, seed=args.seed)
    print(f"total violations = {violations}")
    return 0 if violations == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `jointmeas` parser, built on the first call and shared after it.

    Parsing leaves the parser as it was, and help and usage text read the
    terminal width when they are formatted, so one parser serves every
    `cli_dispatch` call in a process. Callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="jointmeas",
        description=(
            "Accuracy tradeoffs and joint measurability of finite-outcome "
            "quantum observables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a POVM file against the measure axioms")
    p.add_argument("povm")
    p.set_defaults(handler=_cmd_validate)

    def pair_command(name: str, help: str, handler) -> argparse.ArgumentParser:
        """A subcommand on two POVM files `a` and `b`."""
        p = sub.add_parser(name, help=help)
        p.add_argument("a")
        p.add_argument("b")
        p.add_argument("--lenient", action="store_true", help="warn instead of failing on invalid POVMs")
        p.set_defaults(handler=handler)
        return p

    p = pair_command("distance", "observable distance between two POVM files", _cmd_distance)
    p.add_argument("--metric", choices=["inf", "l1"], required=True)
    p.add_argument("--witness-out", help="write the maximizing state to this file")

    p = pair_command("bounds", "evaluate a measurement tradeoff inequality", _cmd_bounds)
    p.add_argument(
        "--inequality",
        choices=["theorem1", "theorem2", "cor-joint", "cor-pvm-instrument"],
        required=True,
    )
    p.add_argument("--joint", help="joint POVM file (required except for cor-joint)")
    p.add_argument("--map-a", help="outcome map file: joint outcomes -> A outcomes")
    p.add_argument("--map-b", help="outcome map file: joint outcomes -> B outcomes")

    p = pair_command("check-joint", "decide joint measurability of two POVMs", _cmd_check_joint)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--witness-out", default="joint_witness.json")

    p = pair_command("frontier", "sweep the achievable accuracy frontier", _cmd_frontier)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--x-max", type=float, default=FRONTIER_X_MAX)
    p.add_argument("--resolution", type=float, default=FRONTIER_RESOLUTION)
    p.add_argument("--max-iter", type=int, default=FRONTIER_MAX_ITER)

    p = sub.add_parser("qubit-demo", help="emit both qubit bound curves as CSV")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_qubit_demo)

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.handler(args)
    except (FileFormatError, OSError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
