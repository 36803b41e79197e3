"""Run the benchmark on a parent commit and on this tree in alternating pairs.

Usage:
    python tools/bench_pairs.py --parent REV [--claim WORKLOAD:METRIC]
                                --out BENCH_N.json WORKLOAD=FIRST-LAST ...

Each WORKLOAD=FIRST-LAST argument names a workload of ``bench/run.py`` and the
seeds of its pairs, one pair per seed (``rhovar=2611-2620`` is ten pairs).
The parent is unpacked from ``git archive REV`` into ``.bench_run/`` (which
is gitignored) and removed afterwards; the change side is this tree as it
stands, committed or not.  Every run is ``bench/run.py --workload W --seed S
--seconds RUN_SECONDS --trace 0`` in its own process, with RUN_SECONDS from
``BENCHMARK.json``; the parent runs first on even pairs and the change first
on odd ones.

The output holds, per workload and per end-to-end metric of
``BENCHMARK.json``: each side's quartiles and per-run values, the relative
change of the medians, the pairs the change won (ties count for neither),
``within_bound`` (the change's median is no worse than the parent's by more
than the metric's relative bound) and ``resolved`` (the change's median lies
outside the parent's quartiles, or every change run beats every parent
run).  A run that exits non-zero, reports ``correct: false`` or prints no
result counts in ``failed_runs``, and its pair is left out.  With
``--claim``, the named metric is checked as a gain: the change wins at
least nine pairs in ten and its median is better by more than the parent's
interquartile range.  The file is rewritten after every pair.  Bounds are
read, never changed.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict | None, dict]:
    """(metrics or None on failure, environment) of one benchmark process."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(x)["environment"] for x in lines if x.startswith('{"environment"')),
               {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, env
    if proc.returncode != 0 or not result.get("correct"):
        return None, env
    return {k: v["value"] for k, v in result["metrics"].items()}, env


def _quartiles(values: list[float]) -> dict:
    # numpy.percentile's default (linear) rule at 25, 50 and 75.
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's comparison over paired runs (``parent[k]`` with ``change[k]``)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p, c = _quartiles(parent), _quartiles(change)
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "rel_change": rel,
        "pairs_won_by_change": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "parent_iqr": p["q3"] - p["q1"],
        "within_bound": sign * rel <= spec["bound"],
        "resolved": not p["q1"] <= c["median"] <= p["q3"]
        or all(sign * (b - a) < 0 for a in parent for b in change),
        "parent_runs": parent,
        "change_runs": change,
    }


def claim_met(entry: dict) -> bool:
    sign = 1.0 if entry["better"] == "lower" else -1.0
    gap = sign * (entry["parent"]["median"] - entry["change"]["median"])
    return 10 * entry["pairs_won_by_change"] >= 9 * entry["pairs"] and gap > entry["parent_iqr"]


def _seeds(text: str) -> tuple[str, list[int]]:
    name, _, span = text.partition("=")
    first, _, last = span.partition("-")
    return name, list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    parser.add_argument("--claim", help="WORKLOAD:METRIC claimed as a gain")
    parser.add_argument("workloads", nargs="+", type=_seeds, metavar="WORKLOAD=FIRST-LAST")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    parent_sha = _git("rev-parse", args.parent)
    parent_tree = ROOT / ".bench_run" / f"parent-{parent_sha[:12]}"
    out = {
        "description": (
            "Interleaved parent/change runs of bench/run.py --trace 0, each in its own "
            "process, written by tools/bench_pairs.py: parent first on even pairs, the "
            "parent from git archive of its commit, the change from the working tree. "
            "Quartiles follow numpy.percentile's linear rule; pairs_won_by_change counts "
            "pairs where the change is better, ties for neither; within_bound: the "
            "change's median is no worse than the parent's by more than the "
            "BENCHMARK.json bound; resolved: the change's median lies outside the "
            "parent's quartiles or every change run beats every parent run."
        ),
        "parent_commit": parent_sha,
        "change_commit": _git("rev-parse", "HEAD"),
        "change_tree_clean": not _git("status", "--porcelain", "--", "src", "bench"),
        "run_seconds": bench["run_seconds"],
        "seeds": {name: [seeds[0], seeds[-1]] for name, seeds in args.workloads},
        "environment": {},
        "claim": None,
        "workloads": {},
    }
    try:
        _unpack(parent_sha, parent_tree)
        for name, seeds in args.workloads:
            runs: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
            failed = 0
            for k, seed in enumerate(seeds):
                sides = [("parent", parent_tree), ("change", ROOT)]
                pair = {}
                for side, tree in sides if k % 2 == 0 else sides[::-1]:
                    pair[side], env = _run(tree, name, seed, bench["run_seconds"])
                    if side == "change" and env:
                        out["environment"] = {
                            key: env.get(key) for key in ("python", "numpy", "blas",
                                                          "blas_threads", "nproc")
                        } | {"machine": platform.machine()}
                    failed += pair[side] is None
                print(f"bench_pairs: {name} seed {seed}: " + ", ".join(
                    f"{side} op_s_p50_norm "
                    + (f"{m['op_s_p50_norm']:.5f}" if m else "FAILED")
                    for side, m in pair.items()), file=sys.stderr, flush=True)
                if all(pair.values()):
                    for side, metrics in pair.items():
                        for metric in specs:
                            runs[side].setdefault(metric, []).append(metrics[metric])
                out["workloads"][name] = {"failed_runs": failed} | {
                    metric: summarize(spec, runs["parent"][metric], runs["change"][metric])
                    for metric, spec in specs.items() if metric in runs["parent"]
                }
                if args.claim and args.claim.partition(":")[0] == name:
                    metric = args.claim.partition(":")[2]
                    entry = out["workloads"][name].get(metric)
                    out["claim"] = entry and {
                        "workload": name, "metric": metric,
                        "pairs_won_by_change": entry["pairs_won_by_change"],
                        "pairs": entry["pairs"], "rel_change": entry["rel_change"],
                        "met": claim_met(entry),
                    }
                args.out.write_text(json.dumps(out, indent=1) + "\n")
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
