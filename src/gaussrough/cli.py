"""Command line entry point: argument parsing and the exit-code mapping.

Every subcommand reads a JSON config (--config), optionally overrides its
seed (--seed), and writes to --out; an output path ending in .json selects
JSON, anything else CSV.  The subcommands themselves are declared in
``experiments.SUBCOMMANDS``.  Exit codes: 0 success, 2 configuration error
(including an --out that names a directory or lies in a missing one, found
before any work, and a failed write to --out, which leaves no file), 3
numerical/data error (including running out of memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .experiments import SUBCOMMANDS, ConfigError, emit, load_config
from .gaussian_process import DataError


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussrough",
        description="Lifted-Gaussian-path experiments; see the README for config schemas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
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

        entry = SUBCOMMANDS[args.command]
        cfg = load_config(entry.experiment, data, args.seed)
        if os.path.isdir(args.out):
            raise ConfigError(f"--out {args.out!r} is a directory")
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ConfigError(f"--out {args.out!r} is not in an existing directory")
        fmt = "json" if args.out.endswith(".json") else "csv"
        # Non-finite results become data errors (exit 3) where they are
        # produced, so numpy's floating-point warnings would only add lines.
        with np.errstate(all="ignore"):
            blocks = entry.produce(cfg)
        try:
            emit(blocks, fmt, args.out, entry.columns)
        except OSError as err:
            raise ConfigError(f"cannot write --out {args.out!r}: {err}") from err
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (DataError, MemoryError) as err:
        oom = "out of memory: " if isinstance(err, MemoryError) else ""
        print(f"data error: {oom}{err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
