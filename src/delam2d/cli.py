"""Command line driver.

Subcommands:
  run              execute a configuration and write a result directory
  converge         refinement ladder at fixed time-step / cell-size ratio
  validate-config  parse a configuration, echo the canonical form + hash
  mesh-dump        build the configured mesh and write it as CSV

Exit codes: 0 success; 1 configuration or usage error; 2 solver
nonconvergence; 3 invariant violation detected during or after a run.
Diagnostics go to stderr, results to stdout and the output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .config import ConfigError, config_hash, load_config
from .energetics import momentum_residual
from .harness import (
    HarnessError,
    build_mesh,
    run_chi_sweep,
    run_convergence,
    run_single,
)
from .mesh import export_csv, validate
from .qp import QpNonconvergenceError
from .stepper import InvariantViolation

# Worst normalized KKT defect tolerated by the post-run momentum check.
MOMENTUM_DEFECT_TOL = 1e-6


class UsageError(ValueError):
    """A malformed command line."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a UsageError, not as exit status 2."""

    def error(self, message: str):
        raise UsageError(f"{message} (see {self.prog} --help)")


def _fail(message: str) -> None:
    print(f"delam2d: {message}", file=sys.stderr)


# argparse names these in its message on a bad value: "invalid int_list value".
def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out = Path(args.out) if args.out else Path(config.outputs.directory)
    if config.chi_sweep is not None:
        results = run_chi_sweep(config, out)
    else:
        results = [run_single(config, out)]
    worst = 0.0
    for result in results:
        traj = result.trajectory
        print(
            f"run: {result.out_dir}  steps={traj.n_steps}"
            f"  t_end={traj.times[-1]:g}  t_full_debond={traj.t_full_debond}"
        )
        for prev, state in result.momentum_pairs:
            defect = momentum_residual(result.ops, prev, state)
            worst = defect if math.isnan(defect) else max(worst, defect)  # a NaN stays the worst
    print(f"momentum check: worst normalized KKT defect {worst:.3e}")
    if not worst <= MOMENTUM_DEFECT_TOL:
        raise InvariantViolation(
            f"momentum KKT defect {worst:.3e} above {MOMENTUM_DEFECT_TOL:g}"
        )
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out = Path(args.out) if args.out else Path(config.outputs.directory) / "convergence"
    levels = args.levels
    report = run_convergence(config, out, levels=levels, threads=args.threads)
    for a, b, d in zip(levels[:-1], levels[1:], report["aggregate"]):
        print(f"levels {a}->{b}: aggregate energy-curve distance {d:.6e}")
    print(f"distances decrease: {report['distances_decrease']}")
    print(f"norm ratio max/min: {report['norm_ratio_max']:.4f}")
    print(f"report: {out / 'report.json'}")
    return 0


def cmd_validate_config(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    print(f"ok  config_hash={config_hash(config)}")
    if config.defaults_applied:
        print("defaults applied: " + ", ".join(config.defaults_applied))
    json.dump(config.canonical, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_mesh_dump(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    mesh = build_mesh(config)
    problems = validate(mesh)
    if problems:
        for p in problems:
            _fail(f"mesh invariant violated: {p}")
        raise InvariantViolation(f"{len(problems)} mesh invariant(s) violated")
    try:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        export_csv(mesh, args.out)
    except OSError as err:
        raise HarnessError(f"{args.out}: cannot write the mesh CSV ({err.strerror})") from err
    print(
        f"mesh: {mesh.n_nodes} nodes, {len(mesh.triangles)} triangles, "
        f"{len(mesh.seg_length)} interface segments, h={mesh.h!r} -> {args.out}"
    )
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="delam2d",
        description="Quasistatic mixed-mode delamination simulator (2D, semi-implicit).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configuration")
    p_run.add_argument("--config", required=True, help="JSON configuration path")
    p_run.add_argument("--out", default=None, help="output directory (default from config)")
    p_run.set_defaults(handler=cmd_run)

    p_conv = sub.add_parser("converge", help="run the refinement ladder")
    p_conv.add_argument("--config", required=True, help="JSON configuration path")
    p_conv.add_argument("--out", default=None, help="output directory")
    p_conv.add_argument(
        "--levels",
        type=int_list,
        default="27,54,81",
        help="comma-separated interface resolutions",
    )
    p_conv.add_argument(
        "--threads", type=positive_int, default=1, help="parallel level processes (1 = serial)"
    )
    p_conv.set_defaults(handler=cmd_converge)

    p_val = sub.add_parser("validate-config", help="check a configuration file")
    p_val.add_argument("--config", required=True, help="JSON configuration path")
    p_val.set_defaults(handler=cmd_validate_config)

    p_mesh = sub.add_parser("mesh-dump", help="write the configured mesh as CSV")
    p_mesh.add_argument("--config", required=True, help="JSON configuration path")
    p_mesh.add_argument("--out", default="mesh.csv", help="destination CSV path")
    p_mesh.set_defaults(handler=cmd_mesh_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except (ConfigError, HarnessError, UsageError) as err:
        _fail(str(err))
        return 1
    except QpNonconvergenceError as err:
        _fail(f"solver failed: {err}")
        return 2
    except InvariantViolation as err:
        _fail(f"invariant violation: {err}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
