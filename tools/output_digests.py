"""Print the sha256 of every command-line output over a fixed set of configs.

Usage: python tools/output_digests.py [--src SRC_DIR] [CASE_PATTERN ...]

Runs each of the nine subcommands at n = 8 on four kernels (Brownian motion,
fbm with H = 0.4, a 3-node table, and a table on the run's own nine nodes
with zero variance at t = 1/2 as well as at 0), plus two configs whose size
no numpy array can hold and a ``rhovar`` at rho = 600, whose every
|cell|^rho underflows.  A case is named SUBCOMMAND/KERNEL, such as
``lift/fbm`` or ``rhovar/huge-n``; the patterns (shell wildcards, default
``*``) select the cases.  Each case runs with the seeds 7 and 2^40, writing
CSV and JSON.

SRC_DIR is the directory that holds the gaussrough package, by default src
next to this script's parent directory; pass another checkout's to compare
two trees.  Each run prints one line: its case, seed and format, its exit
code, the sha256 of its output file ('-' when it wrote none) and its standard
error.  An exception that escapes the command line counts as exit 1, with
its type and message as standard error.  The last line sums up: the number
of runs, their exit codes, and the sha256 of all run lines, so two trees
with the same outputs print the same last line.  Standard library and the
package only.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import fnmatch
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

N = 8
SEEDS = (7, 2**40)
FORMATS = ("csv", "json")
NODES = [i / N for i in range(N + 1)]


def _pinned(s: float, t: float) -> float:
    # A Brownian bridge from 0 to 0 on [0, 1/2], then a fresh Brownian motion.
    if s <= 0.5 and t <= 0.5:
        return min(s, t) - 2 * s * t
    return min(s, t) - 0.5 if s >= 0.5 and t >= 0.5 else 0.0


# Table file -> its text: a PSD covariance on the nodes 0, 0.5 and 1, zero at
# time 0; and the pinned covariance on the grid's own nodes, whose active
# nodes are not contiguous, so sampling takes the mask route.
TABLES = {
    "table.csv": "0,0.5,1\n0,0,0\n0,0.5,0.3\n0,0.3,1.2\n",
    "pinned.csv": "".join(
        ",".join(map(repr, row)) + "\n"
        for row in [NODES] + [[_pinned(s, t) for t in NODES] for s in NODES]
    ),
}
KERNELS = {
    "brownian": {"kind": "brownian"},
    "fbm": {"kind": "fbm", "hurst": 0.4},
    "table": {"kind": "table", "path": "table.csv"},
    "pinned": {"kind": "table", "path": "pinned.csv"},
}
# Subcommand -> its config keys beyond kernel, n and seed.
KEYS = {
    "simulate": {"d": 2, "samples": 2},
    "lift": {"d": 2, "samples": 2, "depth": 3},
    "kl-converge": {"d": 2, "samples": 4, "p": 3.0, "q": 2, "m": [1, 2]},
    "uniform-modulus": {"d": 2, "samples": 4, "sets": 3},
    "martingale-check": {"d": 2, "samples": 8},
    "twovar-bound": {"sets": 3},
    "translate-check": {"samples": 2},
    "pvar": {"d": 2, "samples": 2, "p": 3.0},
    "rhovar": {"search": "hillclimb"},
}


def cases() -> dict[str, tuple[str, dict]]:
    """Case name -> (subcommand, config without its seed)."""
    out = {
        f"{command}/{kind}": (command, {"kernel": kernel, "n": N, **keys})
        for command, keys in KEYS.items()
        for kind, kernel in KERNELS.items()
    }
    brownian = {"kernel": KERNELS["brownian"], "n": N}
    out["rhovar/huge-n"] = ("rhovar", dict(brownian, n=10**400))
    out["simulate/huge-samples"] = ("simulate", dict(brownian, samples=10**31))
    out["rhovar/rho600"] = ("rhovar", dict(brownian, rho=600, search="fullgrid"))
    return out


def run(main, command: str, config: dict, fmt: str) -> tuple[int, str, str]:
    """(exit code, output sha256 or '-', standard error) of one run in the
    current directory."""
    Path("cfg.json").write_text(json.dumps(config))
    out = Path(f"out.{fmt}")
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([command, "--config", "cfg.json", "--out", out.name])
        except Exception as exc:  # a traceback at the command line
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
    return code, digest, err.getvalue()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("patterns", nargs="*", default=["*"])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    cli = importlib.import_module("gaussrough.cli")
    if Path(cli.__file__).resolve().parents[1] != args.src.resolve():
        print(f"imported gaussrough from {cli.__file__}, not {args.src}", file=sys.stderr)
        return 2
    selected = {
        name: case for name, case in cases().items()
        if any(fnmatch.fnmatchcase(name, p) for p in args.patterns)
    }
    if not selected:
        print(f"no case matches {args.patterns}", file=sys.stderr)
        return 2
    lines, codes = [], collections.Counter()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for path, text in TABLES.items():
                Path(path).write_text(text)
            for name, (command, config) in selected.items():
                for seed in SEEDS:
                    for fmt in FORMATS:
                        code, digest, err = run(cli.main, command, dict(config, seed=seed), fmt)
                        codes[code] += 1
                        lines.append(
                            f"{name} seed={seed} {fmt} exit={code} sha256={digest} stderr={err!r}"
                        )
                        print(lines[-1])
        finally:
            os.chdir(home)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    exits = " ".join(f"{code}:{count}" for code, count in sorted(codes.items()))
    print(f"summary runs={len(lines)} exits={exits} sha256={total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
