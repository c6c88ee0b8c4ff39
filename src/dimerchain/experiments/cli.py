"""Command-line entry point.

One subcommand per experiment; every run takes a JSON config file and
writes a SweepRecord CSV, metadata JSON, and an SVG plot into --out,
named <experiment>-<confighash>.<ext>.
"""

import argparse
import sys

from ..eig import RestartLimitExceeded
from .config import EXPERIMENTS, ConfigError, load_config
from .runner import COMMANDS


def build_parser():
    p = argparse.ArgumentParser(
        prog="dimerchain",
        description="subradiant dimer excitations in waveguide-coupled "
                    "emitter chains",
    )
    sub = p.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True,
                        help="JSON config file (unknown keys are rejected)")
        sp.add_argument("--out", default=None,
                        help="output directory (overrides config)")
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed, u64 (overrides config)")
        sp.add_argument("--jobs", type=int, default=None,
                        help="parallel worker processes (overrides config)")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {"out": args.out, "seed": args.seed, "jobs": args.jobs}
    try:
        cfg = load_config(args.config, experiment=args.experiment,
                          overrides=overrides)
        paths = COMMANDS[cfg.experiment](cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RestartLimitExceeded as e:
        print(f"error: eigensolver: {e}", file=sys.stderr)
        return 1
    print(paths["csv"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
