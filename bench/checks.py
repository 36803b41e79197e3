"""Output checks for benchmark ops.

``check_records`` and ``check_lift`` parse one op's output file and return
``(problems, values)``: a list of human-readable failures (empty when the
output is well formed) and the values that ``compare_reference`` matches
against the stored reference op.
"""

from __future__ import annotations

import csv
import math

RECORD_COLUMNS = [
    "experiment",
    "kernel",
    "hurst",
    "n",
    "m",
    "p",
    "q",
    "samples",
    "statistic",
    "value",
    "stderr",
    "seed",
]
LIFT_COLUMNS = ["sample", "time", "coordinate", "value"]

REL_TOL = 1e-9
# Structurally zero coordinates carry rounding noise, so differences are also
# accepted below this share of the largest reference magnitude.
ZERO_TOL = 1e-13


def expected_statistics(subcommand: str, cfg: dict) -> list[str]:
    """Statistic names a record-emitting subcommand writes for ``cfg``, sorted."""
    n = cfg["n"]
    if subcommand == "kl-converge":
        names = ["kl_pvar_qmean", "kl_tail_pvar_qmean", "kl_holder_qmean", "kl_tail_holder_qmean"]
        return sorted(name for _ in cfg["m"] for name in names)
    if subcommand == "martingale-check":
        pairs = cfg.get("pairs") or [(0, n), (0, n // 2), (n // 4, 3 * n // 4)]
        out = []
        for s, t in pairs:
            tag = f"{s}-{t}"
            out += [f"cond_l{k}_max_z:{tag}" for k in (1, 2, 3)]
            out.append(f"cond_l3_max_z_nocorr:{tag}")
        out += [f"uncond_max_z:{t}" for t in {n // 2, n}]
        return sorted(out)
    if subcommand == "rhovar":
        return [f"rho_var_2d_{cfg['search']}"]
    raise ValueError(f"no record layout for {subcommand!r}")


def _float(text: str) -> float | None:
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def check_records(path: str, subcommand: str, cfg: dict, seed: int):
    problems: list[str] = []
    values: dict[str, float] = {}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != RECORD_COLUMNS:
        return [f"record columns {rows[0] if rows else None}"], values
    stats = []
    for row in rows[1:]:
        rec = dict(zip(RECORD_COLUMNS, row))
        if len(row) != len(RECORD_COLUMNS):
            problems.append(f"row width {len(row)}")
            continue
        stats.append(rec["statistic"])
        if rec["seed"] != str(seed):
            problems.append(f"{rec['statistic']}: seed {rec['seed']} != {seed}")
        key = f"{rec['statistic']}|m={rec['m']}"
        value = _float(rec["value"])
        if value is None:
            problems.append(f"{key}: value {rec['value']!r} not finite")
            continue
        values[key] = value
        if rec["stderr"]:
            se = _float(rec["stderr"])
            if se is None or se < 0:
                problems.append(f"{key}: stderr {rec['stderr']!r}")
                continue
            values[key + "|stderr"] = se
    want = expected_statistics(subcommand, cfg)
    if sorted(stats) != want:
        problems.append(f"statistics {sorted(stats)} != {want}")
    return problems, values


def _lift_labels(d: int, depth: int) -> list[list[str]]:
    """Coordinate labels per level, in the row-major order the CLI writes."""
    out = []
    for k in range(1, depth + 1):
        level = []
        for flat in range(d**k):
            idx = [(flat // d ** (k - 1 - pos)) % d for pos in range(k)]
            level.append("L%d[%s]" % (k, ",".join(map(str, idx))))
        out.append(level)
    return out


def check_lift(path: str, cfg: dict, stride: int = 211):
    """Structure of a ``lift`` CSV: shape, finiteness, zero level 1 at t=0,
    and antisymmetric level-2 log coordinates with a zero diagonal.

    Returns every ``stride``-th value plus every value at t=1 for the
    reference comparison.
    """
    d, depth, n, samples = cfg["d"], cfg["depth"], cfg["n"], cfg["samples"]
    levels = _lift_labels(d, depth)
    problems: list[str] = []
    values: dict[str, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != LIFT_COLUMNS:
            return [f"lift columns {header}"], values
        rows = list(reader)
    want = samples * (n + 1) * sum(map(len, levels))
    if len(rows) != want:
        return [f"lift rows {len(rows)} != {want}"], values
    # Rows run level by level, then sample, node and coordinate.
    expected = (
        (s, t, label)
        for level in levels
        for s in range(samples)
        for t in range(n + 1)
        for label in level
    )
    level2: dict[tuple[int, int, str], float] = {}
    scale = 0.0
    for i, (row, (s, t, label)) in enumerate(zip(rows, expected)):
        v = _float(row[3]) if len(row) == 4 else None
        time_v = _float(row[1]) if len(row) == 4 else None
        if (
            v is None
            or time_v is None
            or row[0] != str(s)
            or row[2] != label
            or abs(time_v - t / n) > 1e-12
        ):
            problems.append(f"row {i}: {row}, expected sample {s}, node {t}, {label}")
            break
        scale = max(scale, abs(v))
        if t == 0 and label.startswith("L1[") and v != 0.0:
            problems.append(f"row {i}: level 1 at t=0 is {v!r}")
        if label.startswith("L2["):
            level2[(s, t, label[3:-1])] = v
        if i % stride == 0 or t == n:
            values[f"{s}|{t}|{label}"] = v
    tol = REL_TOL * max(scale, 1.0)
    for (s, t, ij), v in level2.items():
        i, j = ij.split(",")
        mirror = level2.get((s, t, f"{j},{i}"))
        if mirror is None or abs(v + mirror) > tol:
            problems.append(f"L2[{ij}] at sample {s}, node {t} not antisymmetric")
            break
    return problems, values


def compare_reference(values: dict[str, float], reference: dict[str, float]) -> list[str]:
    """Differences beyond ``REL_TOL`` relative error (see ``ZERO_TOL``)."""
    if set(values) != set(reference):
        missing = sorted(set(reference) - set(values))[:3]
        extra = sorted(set(values) - set(reference))[:3]
        return [f"reference keys differ: missing {missing}, extra {extra}"]
    scale = max((abs(v) for v in reference.values()), default=0.0)
    out = []
    for key, ref in reference.items():
        got = values[key]
        if abs(got - ref) > REL_TOL * max(abs(got), abs(ref)) + ZERO_TOL * scale:
            out.append(f"{key}: {got!r} != reference {ref!r}")
    return out
