"""Command line entry point.

Every subcommand reads a JSON config (--config), optionally overrides its
seed (--seed), and writes to --out; an output path ending in .json selects
JSON, anything else CSV.  Exit codes: 0 success, 2 configuration error,
3 numerical/data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .experiments import (
    CSV_COLUMNS,
    LIFT_COLUMNS,
    PATH_COLUMNS,
    ConfigError,
    emit,
    lift_blocks,
    load_config,
    run_2var_bound,
    run_convergence,
    run_martingale_checks,
    run_pvar,
    run_rhovar,
    run_translation_check,
    run_uniform_modulus,
    simulate_blocks,
)
from .gaussian_process import DataError

# subcommand -> (experiment, config -> emit blocks or records, output columns)
_SUBCOMMANDS = {
    "simulate": ("simulate", simulate_blocks, PATH_COLUMNS),
    "lift": ("lift", lift_blocks, LIFT_COLUMNS),
    "kl-converge": ("convergence", run_convergence, CSV_COLUMNS),
    "uniform-modulus": ("uniform-modulus", run_uniform_modulus, CSV_COLUMNS),
    "martingale-check": ("martingale", run_martingale_checks, CSV_COLUMNS),
    "twovar-bound": ("twovar-bound", run_2var_bound, CSV_COLUMNS),
    "translate-check": ("translation", run_translation_check, CSV_COLUMNS),
    "pvar": ("pvar", run_pvar, CSV_COLUMNS),
    "rhovar": ("rhovar", run_rhovar, CSV_COLUMNS),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussrough",
        description="Lifted-Gaussian-path experiments; see the README for config schemas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", required=True, help="output path (.json for JSON, else CSV)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err

        experiment, produce, columns = _SUBCOMMANDS[args.command]
        cfg = load_config(experiment, data, args.seed)
        fmt = "json" if args.out.endswith(".json") else "csv"
        # Non-finite results become data errors (exit 3) where they are
        # produced, so numpy's floating-point warnings would only add lines.
        with np.errstate(all="ignore"):
            out = produce(cfg)
            # A record list is one block of complete rows.
            blocks = [((), out, None)] if columns is CSV_COLUMNS else out
            emit(blocks, fmt, args.out, columns)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
