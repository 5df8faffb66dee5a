"""Command-line entry point.

Usage::

    graphssl <experiment> --config <path> [--paper-scale] [--out <dir>]
                          [--seed <int>] [--threads <int>]

Exit codes: 0 on success, 2 on a configuration/validation error, 3 on a
numerical failure.  On success each warning the run raised is printed to
stderr once, with its count.
"""

from __future__ import annotations

import argparse
import sys

from graphssl.experiments import EXPERIMENT_IDS, REFUSALS, load_config, run
from graphssl.models import MapSolverError
from graphssl.spectral import EigensolverError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphssl",
        description="Graph-based semi-supervised learning experiments "
                    "with fractional Laplacian priors.",
    )
    parser.add_argument("experiment", choices=EXPERIMENT_IDS,
                        help="experiment to run")
    parser.add_argument("--config", default=None,
                        help="INI-style config file; defaults are used if omitted")
    parser.add_argument("--paper-scale", action="store_true", default=None,
                        help="use the full study sizes instead of desk-scale defaults")
    parser.add_argument("--out", default=None,
                        help="output directory (default results/<experiment>)")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and echoed; runs nothing in parallel")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, experiment=args.experiment,
                          out_dir=args.out, seed=args.seed,
                          threads=args.threads, paper_scale=args.paper_scale)
        result = run(cfg)
    except REFUSALS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # LinAlgError, numpy's and scipy's alike, is a ValueError
    except (MapSolverError, EigensolverError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote results to {cfg.out_dir}")
    for warning, count in result["warnings"].items():
        print(f"warning ({count}x): {warning}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
