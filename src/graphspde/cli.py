"""Command line front end: run experiments, validate configs, list presets.

Usage:
    graphspde run <config-file> [--seed S] [--paths P] [--out-dir D]
    graphspde validate <config-file>
    graphspde presets

``--seed`` and ``--paths`` become ``run.seed`` / ``run.paths`` lines appended
to the config, validated like any other line.  The default output directory
comes from the GRAPHSPDE_OUT_DIR environment variable, falling back to
./graphspde_out.  Exit status is 0 when every asserted property passed, 1
when a check failed, 2 on configuration errors (``run`` refuses what
``validate`` refuses, before creating any directory) and 3 when a validated
run crashed, such as a solver failure (one ``error: <Type>: <message>``
line on standard error).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import PRESETS, ConfigError, parse_config, run_experiment


def _default_out_dir() -> str:
    return os.environ.get("GRAPHSPDE_OUT_DIR", "graphspde_out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphspde",
        description="experiments for stochastic nonlinear diffusion on "
                    "graph Dirichlet spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("config", help="path to the config file")
    run.add_argument("--seed", type=int, help="override run.seed")
    run.add_argument("--paths", type=int, help="override run.paths")
    run.add_argument("--out-dir", default=_default_out_dir(),
                     help="artifact directory (default: GRAPHSPDE_OUT_DIR "
                          "or ./graphspde_out)")

    val = sub.add_parser("validate", help="parse a config and report all "
                                          "violations")
    val.add_argument("config", help="path to the config file")

    sub.add_parser("presets", help="list named preset spaces")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "presets":
        for name, help_text in PRESETS.items():
            print(f"{name:15s} {help_text}")
        return 0

    try:
        text = Path(args.config).read_text()
        if args.command == "run":
            # Overrides are config lines: the last value of a key wins, and
            # they are validated like every other line.
            for key in ("seed", "paths"):
                if getattr(args, key) is not None:
                    text += f"\nrun.{key} = {getattr(args, key)}"
        cfg = parse_config(text)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as err:
        print("configuration problems:", file=sys.stderr)
        for problem in err.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("configuration ok")
        sys.stdout.write(cfg.normalize())
        return 0

    try:
        status = run_experiment(cfg, args.out_dir)
    except Exception as err:
        # A crash is not a failed check: it gets its own status.
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    print(f"experiment {cfg.experiment}: "
          f"{'all checks passed' if status == 0 else 'CHECKS FAILED'} "
          f"(artifacts in {args.out_dir})")
    return status


if __name__ == "__main__":
    sys.exit(main())
