"""Experiment runners over lifted Gaussian paths, with CSV/JSON emission.

Each runner consumes a validated ExperimentConfig and returns ResultRecords;
``emit`` writes them with a fixed column set.  All randomness flows through
the config seed (per-draw substreams, see gaussian_process), so a given
config produces byte-identical output files.

Column conventions: ``m`` carries the experiment's running index (kept-mode
count for KL convergence, coarse grid size for dyadic refinement, interval
length in segments for modulus rows, sample index for per-sample rows); rows
where a column does not apply leave it empty.  Statistic values are never
invented: every MC statistic carries its standard error, and z-score style
statistics are emitted as the max |z| over the relevant coordinates.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .gaussian_process import (
    CovKernel,
    CovMatrix,
    DataError,
    _sample_values,
    cov_matrix,
)
from .karhunen_loeve import (
    IndexSet,
    conditional_log_mc,
    kl_decompose,
    level3_correction,
    partial_cov,
    project,
)
from .path_lift import SamplePath, _lift_values, uniform_grid
from .tensor_group import _hom_norm_levels, _log_levels
from .variation_metrics import BRUTE_MAX_2D, _dp_max_sum, pair_dist_table, rho_var_2d

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRecord",
    "CSV_COLUMNS",
    "load_config",
    "run_convergence",
    "run_uniform_modulus",
    "run_martingale_checks",
    "run_2var_bound",
    "run_translation_check",
    "run_simulate",
    "run_lift",
    "run_pvar",
    "run_rhovar",
    "emit",
    "read_records",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (bad keys, values, or regime)."""


CSV_COLUMNS = (
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
)

_KERNEL_KEYS = {"kind", "hurst", "path"}

# Allowed config keys per experiment; "kernel", "n", "seed" are universal.
_EXPERIMENT_KEYS = {
    "convergence": {"d", "p", "q", "alpha", "samples", "m", "mode", "index_policy", "rho"},
    "uniform-modulus": {"d", "samples", "sets", "lengths"},
    "martingale": {"d", "samples", "index_size", "pairs"},
    "twovar-bound": {"sets"},
    "translation": {"samples"},
    "simulate": {"d", "samples"},
    "lift": {"d", "samples", "depth"},
    "pvar": {"d", "p", "samples", "rho"},
    "rhovar": {"rho", "search"},
}

_LIFTING = {"convergence", "uniform-modulus", "martingale", "pvar", "lift"}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    kernel: CovKernel
    n: int
    seed: int
    d: int = 1
    p: float | None = None
    q: float | None = None
    alpha: float | None = None
    samples: int = 0
    m: tuple[int, ...] = ()
    mode: str = "kl"
    index_policy: str = "prefix"
    sets: int = 0
    lengths: tuple[int, ...] = ()
    index_size: int = 0
    pairs: tuple[tuple[int, int], ...] = ()
    depth: int = 3
    rho: float | None = None
    search: str = "fullgrid"

    @property
    def kernel_name(self) -> str:
        return self.kernel.kind

    @property
    def hurst(self) -> float | None:
        return self.kernel.hurst

    def effective_rho(self) -> float:
        if self.rho is not None:
            return self.rho
        if self.kernel.kind == "fbm":
            return max(1.0, 1.0 / (2.0 * self.kernel.hurst))
        return 1.0


_KERNEL_KEYS_BY_KIND = {
    "brownian": {"kind"},
    "fbm": {"kind", "hurst"},
    "table": {"kind", "path"},
}


def _build_kernel(cfg) -> CovKernel:
    if not isinstance(cfg, dict):
        raise ConfigError("kernel must be an object with a 'kind'")
    kind = cfg.get("kind")
    allowed = _KERNEL_KEYS_BY_KIND.get(kind, _KERNEL_KEYS)
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown kernel keys for {kind!r}: {sorted(unknown)}")
    try:
        if kind == "brownian":
            return CovKernel.brownian()
        if kind == "fbm":
            if "hurst" not in cfg:
                raise ConfigError("fbm kernel requires 'hurst'")
            return CovKernel.fbm(float(cfg["hurst"]))
        if kind == "table":
            if "path" not in cfg:
                raise ConfigError("table kernel requires 'path'")
            raw = np.loadtxt(cfg["path"], delimiter=",")
            return CovKernel.from_table(raw[0], raw[1:])
        raise ConfigError(f"unknown kernel kind {kind!r}")
    except (ValueError, OSError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"bad kernel: {err}") from err


def _positive_int(data, key, default=None, minimum=1):
    if key not in data:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    v = data[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ConfigError(f"{key!r} must be an integer >= {minimum}")
    return v


def load_config(experiment: str, data: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Build and validate a config for one experiment from parsed JSON."""
    if experiment not in _EXPERIMENT_KEYS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    allowed = _EXPERIMENT_KEYS[experiment] | {"kernel", "n", "seed"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    if "kernel" not in data:
        raise ConfigError("missing required key 'kernel'")
    kernel = _build_kernel(data["kernel"])
    n = _positive_int(data, "n", minimum=1)
    seed = _positive_int(data, "seed", minimum=0) if seed_override is None else seed_override
    if seed < 0:
        raise ConfigError("seed must be >= 0")

    kw: dict = {}
    if "d" in allowed:
        kw["d"] = _positive_int(data, "d", default=1)
    if "samples" in allowed:
        kw["samples"] = _positive_int(data, "samples", default=0, minimum=0)
    for key in ("p", "q", "alpha", "rho"):
        if key in allowed and key in data:
            v = data[key]
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ConfigError(f"{key!r} must be a finite number")
            kw[key] = float(v)
    if "m" in allowed and "m" in data:
        m = data["m"]
        if not isinstance(m, list) or not m or any(not isinstance(v, int) or v < 1 for v in m):
            raise ConfigError("'m' must be a non-empty list of positive integers")
        kw["m"] = tuple(m)
    if "mode" in allowed and "mode" in data:
        if data["mode"] not in ("kl", "dyadic"):
            raise ConfigError("mode must be 'kl' or 'dyadic'")
        kw["mode"] = data["mode"]
    if "index_policy" in allowed and "index_policy" in data:
        if data["index_policy"] not in ("prefix", "random"):
            raise ConfigError("index_policy must be 'prefix' or 'random'")
        kw["index_policy"] = data["index_policy"]
    if "sets" in allowed:
        kw["sets"] = _positive_int(data, "sets", default=50)
    if "lengths" in allowed and "lengths" in data:
        ls = data["lengths"]
        if not isinstance(ls, list) or any(not isinstance(v, int) or not 0 < v <= n for v in ls):
            raise ConfigError("'lengths' must be node counts within the grid")
        kw["lengths"] = tuple(ls)
    if "index_size" in allowed:
        kw["index_size"] = _positive_int(data, "index_size", default=min(4, n))
    if "pairs" in allowed and "pairs" in data:
        ps = data["pairs"]
        ok = isinstance(ps, list) and all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(v, int) for v in e)
            and 0 <= e[0] <= e[1] <= n
            for e in ps
        )
        if not ok:
            raise ConfigError("'pairs' must be [s, t] node pairs within the grid")
        kw["pairs"] = tuple((e[0], e[1]) for e in ps)
    if "depth" in allowed and "depth" in data:
        v = data["depth"]
        if v not in (1, 2, 3):
            raise ConfigError("depth must be 1, 2 or 3")
        kw["depth"] = v
    if "search" in allowed and "search" in data:
        if data["search"] not in ("fullgrid", "hillclimb", "brute"):
            raise ConfigError("search must be fullgrid, hillclimb or brute")
        kw["search"] = data["search"]

    cfg = ExperimentConfig(experiment=experiment, kernel=kernel, n=n, seed=seed, **kw)
    _validate_regime(cfg)
    return cfg


def _validate_regime(cfg: ExperimentConfig) -> None:
    k = cfg.kernel
    if cfg.experiment in _LIFTING and k.kind == "fbm" and k.hurst <= 0.25:
        raise ConfigError("lifting experiments require hurst > 1/4")
    if cfg.p is not None:
        if cfg.p < 1.0:
            raise ConfigError("p must be >= 1")
        rho = cfg.effective_rho()
        if cfg.p <= 2.0 * rho:
            raise ConfigError(f"p must exceed 2*rho = {2.0 * rho:g}")
    if cfg.q is not None and cfg.q < 1.0:
        raise ConfigError("q must be >= 1")
    if cfg.alpha is not None and not 0.0 <= cfg.alpha <= 1.0:
        raise ConfigError("alpha must lie in [0, 1]")
    if cfg.experiment == "convergence":
        if cfg.p is None or cfg.q is None:
            raise ConfigError("convergence requires p and q")
        if not cfg.m:
            raise ConfigError("convergence requires the 'm' list")
        if cfg.samples < 2:
            raise ConfigError("convergence requires samples >= 2")
        if cfg.mode == "dyadic":
            sizes = (cfg.n,) + tuple(cfg.m)
            if any(v & (v - 1) for v in sizes):
                raise ConfigError("dyadic mode requires power-of-two grid sizes")
            if any(2 * v > cfg.n for v in cfg.m):
                raise ConfigError("dyadic mode requires 2*m <= n for every m")
        else:
            if any(v > cfg.n for v in cfg.m):
                raise ConfigError("kept-mode counts cannot exceed the grid rank")
    if cfg.experiment == "martingale":
        if cfg.samples < 2:
            raise ConfigError("martingale requires samples >= 2")
        if cfg.index_size > cfg.n:
            raise ConfigError("index_size cannot exceed the grid rank")
    if cfg.experiment == "uniform-modulus" and cfg.samples < 2:
        raise ConfigError("uniform-modulus requires samples >= 2")
    if cfg.experiment == "translation" and cfg.samples < 1:
        raise ConfigError("translation requires samples >= 1")
    if cfg.experiment == "pvar":
        if cfg.p is None:
            raise ConfigError("pvar requires p")
        if cfg.samples < 1:
            raise ConfigError("pvar requires samples >= 1")
    if cfg.experiment == "rhovar":
        if cfg.rho is not None and cfg.rho < 1.0:
            raise ConfigError("rho must be >= 1")
        if cfg.search == "brute" and cfg.n > BRUTE_MAX_2D:
            raise ConfigError(f"search 'brute' is limited to n <= {BRUTE_MAX_2D}")


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    kernel: str
    hurst: float | None
    n: int | None
    m: int | None
    p: float | None
    q: float | None
    samples: int | None
    statistic: str
    value: float
    stderr: float | None
    seed: int | None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit(records: list[ResultRecord], fmt: str, path: str) -> None:
    """Write records as 'csv' or 'json'; CSV floats use repr round-tripping."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_fmt(getattr(r, c)) for c in CSV_COLUMNS])
        payload = buf.getvalue()
    elif fmt == "json":
        rows = [{c: getattr(r, c) for c in CSV_COLUMNS} for r in records]
        payload = json.dumps(rows, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(payload)


def read_records(path: str) -> list[ResultRecord]:
    """Read back a CSV produced by ``emit``."""
    out = []
    with open(path) as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise DataError("unexpected CSV columns")
        for row in reader:
            out.append(
                ResultRecord(
                    experiment=row["experiment"],
                    kernel=row["kernel"],
                    hurst=float(row["hurst"]) if row["hurst"] else None,
                    n=int(row["n"]) if row["n"] else None,
                    m=int(row["m"]) if row["m"] else None,
                    p=float(row["p"]) if row["p"] else None,
                    q=float(row["q"]) if row["q"] else None,
                    samples=int(row["samples"]) if row["samples"] else None,
                    statistic=row["statistic"],
                    value=float(row["value"]),
                    stderr=float(row["stderr"]) if row["stderr"] else None,
                    seed=int(row["seed"]) if row["seed"] else None,
                )
            )
    return out


def _record(cfg: ExperimentConfig, statistic: str, value: float, stderr: float | None, m: int | None):
    return ResultRecord(
        experiment=cfg.experiment,
        kernel=cfg.kernel_name,
        hurst=cfg.hurst,
        n=cfg.n,
        m=m,
        p=cfg.p,
        q=cfg.q,
        samples=cfg.samples or None,
        statistic=statistic,
        value=float(value),
        stderr=None if stderr is None else float(stderr),
        seed=cfg.seed,
    )


def _child_seed(seed: int, *key: int) -> int:
    # Stable derived seed for a named sub-stream of the experiment.
    return int(np.random.SeedSequence((seed,) + key).generate_state(1)[0])


def _q_mean(dists: np.ndarray, q: float) -> tuple[float, float]:
    """E[dist^q]^{1/q} with its delta-method standard error."""
    powed = dists**q
    mean = float(np.mean(powed))
    se_mean = float(np.std(powed, ddof=1) / math.sqrt(powed.size))
    if mean <= 0.0:
        return 0.0, 0.0
    value = mean ** (1.0 / q)
    return value, se_mean * value / (q * mean)


def _sample_levels(r: CovMatrix, cfg: ExperimentConfig, count: int, seed: int, depth: int = 3):
    values = _sample_values(r, cfg.d, count, seed)
    return values, _lift_values(values, depth)


def _mode_sets(cfg: ExperimentConfig, rank: int) -> list[IndexSet]:
    if any(m > rank for m in cfg.m):
        raise DataError(f"kept-mode count exceeds covariance rank {rank}")
    if cfg.index_policy == "prefix":
        return [IndexSet.prefix(m) for m in cfg.m]
    order = np.random.default_rng([cfg.seed, 101]).permutation(rank)
    return [IndexSet.of(order[:m]) for m in cfg.m]


def run_convergence(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Kept-mode (kl) or dyadic-refinement convergence of lifted paths."""
    if cfg.mode == "dyadic":
        return _run_dyadic(cfg)
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    basis = kl_decompose(r)
    values, full_levels = _sample_levels(r, cfg, cfg.samples, _child_seed(cfg.seed, 0))
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / cfg.p
    holder = cfg.kernel.kind in ("brownian", "fbm")
    i_idx, j_idx = np.triu_indices(grid.n_nodes, k=1)
    gaps = grid.times[j_idx] - grid.times[i_idx]

    def pvar_and_holder(table):
        pvar = _dp_max_sum(table**cfg.p) ** (1.0 / cfg.p)
        return pvar, np.max(table[:, i_idx, j_idx] / gaps**alpha, axis=-1)

    records = []
    for a, m in zip(_mode_sets(cfg, basis.rank), cfg.m):
        sel = basis.phi[a.as_array()]
        proj = np.einsum("sct,mt,mu->scu", values, sel, sel, optimize=True)
        pvar, hold = pvar_and_holder(pair_dist_table(_lift_values(proj, 3), full_levels))
        tail_pvar, tail_hold = pvar_and_holder(pair_dist_table(_lift_values(values - proj, 3)))
        for name, data in (
            ("kl_pvar_qmean", pvar),
            ("kl_tail_pvar_qmean", tail_pvar),
            ("kl_holder_qmean", hold),
            ("kl_tail_holder_qmean", tail_hold),
        ):
            if not holder and "holder" in name:
                continue
            value, se = _q_mean(data, cfg.q)
            records.append(_record(cfg, name, value, se, m))
    return records


def _run_dyadic(cfg: ExperimentConfig) -> list[ResultRecord]:
    # One underlying path per sample, restricted to nested dyadic grids; each
    # consecutive pair is compared on the finer grid of the two.
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    values = _sample_values(r, cfg.d, cfg.samples, _child_seed(cfg.seed, 0))
    records = []
    for m in sorted(cfg.m):
        fine = 2 * m
        stride_c, stride_f = cfg.n // m, cfg.n // fine
        fine_vals = values[:, :, ::stride_f]
        coarse_vals = values[:, :, ::stride_c]
        # PL interpolation of the coarse path onto the fine (uniform) grid.
        interp = np.empty_like(fine_vals)
        interp[:, :, ::2] = coarse_vals
        interp[:, :, 1::2] = 0.5 * (coarse_vals[:, :, :-1] + coarse_vals[:, :, 1:])
        table = pair_dist_table(_lift_values(interp, 3), _lift_values(fine_vals, 3))
        dists = _dp_max_sum(table**cfg.p) ** (1.0 / cfg.p)
        value, se = _q_mean(dists, cfg.q)
        records.append(_record(cfg, "dyadic_pvar_qmean", value, se, m))
    return records


def run_uniform_modulus(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Second moment of ||lift of a kept-mode path over [0, l]|| across random
    mode sets, with a log-log slope over the interval lengths."""
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    basis = kl_decompose(r)
    rank = basis.rank
    lengths = cfg.lengths or tuple(
        v for v in (cfg.n // 2, cfg.n // 4, cfg.n // 8, cfg.n // 16) if v >= 1
    )
    rng = np.random.default_rng([cfg.seed, 202])
    # The full set attains the sup over index sets (squared increment moments
    # are monotone in the kept modes), so it is always part of the family.
    sets = [np.arange(rank)]
    for _ in range(cfg.sets):
        size = int(rng.integers(1, rank + 1))
        sets.append(np.sort(rng.choice(rank, size=size, replace=False)))

    # Coefficient-space sampling: one xi block per mode set, shared draws.
    xi = np.stack(
        [
            np.random.default_rng([_child_seed(cfg.seed, 1), k]).standard_normal((cfg.d, rank))
            for k in range(cfg.samples)
        ]
    )
    per_length = {l: [] for l in lengths}
    for sel in sets:
        vals = np.einsum("skm,mt->skt", xi[:, :, sel], basis.h[sel])
        levels = _lift_values(vals, 3)
        for l in lengths:
            norms = _hom_norm_levels([lv[:, l] for lv in levels])
            per_length[l].append(norms**2)
    records = []
    log_x, log_y = [], []
    for l in lengths:
        means = np.array([np.mean(sq) for sq in per_length[l]])
        top = int(np.argmax(means))
        sq = per_length[l][top]
        se = float(np.std(sq, ddof=1) / math.sqrt(sq.size))
        records.append(_record(cfg, "modulus_sq_mean", float(means[top]), se, l))
        log_x.append(math.log(l / cfg.n))
        log_y.append(math.log(means[top]))
    if len(lengths) >= 2:
        slope, se = _ols_slope(np.array(log_x), np.array(log_y))
        records.append(_record(cfg, "modulus_slope", slope, se, None))
    return records


def _ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    resid = y - y.mean() - slope * xc
    dof = max(x.size - 2, 1)
    se = float(np.sqrt(np.sum(resid**2) / dof / np.dot(xc, xc)))
    return slope, se


def _max_z(diff_levels, se_levels, atol: float = 1e-12) -> float:
    """Worst |diff|/se over coordinates; differences at rounding scale count
    as zero (structurally-zero coordinates have rounding-level SEs too)."""
    worst = 0.0
    for diff, se in zip(diff_levels, se_levels):
        d = np.abs(np.asarray(diff))
        s = np.asarray(se)
        mask = d > atol
        if not np.any(mask):
            continue
        with np.errstate(divide="ignore"):
            worst = max(worst, float(np.max(np.where(s[mask] > 0, d[mask] / s[mask], np.inf))))
    return worst


def run_martingale_checks(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Conditional-mean identities of the log-lift over node windows.

    For each (s, t) window: the MC conditional mean of the log-lift given the
    kept modes must match the log-lift of the kept-mode path plus the
    degree-3 correction (z-scores per coordinate); with the correction zeroed
    the degree-3 row measures the test's power.  Also checks that the
    unconditional mean of the log-lift vanishes.
    """
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    basis = kl_decompose(r)
    bases = [basis] * cfg.d
    a = IndexSet.prefix(min(cfg.index_size, basis.rank))
    x_full = SamplePath(grid, _sample_values(r, cfg.d, 1, _child_seed(cfg.seed, 3))[0])
    x_a = project(x_full, bases, a)
    pairs = cfg.pairs or ((0, cfg.n), (0, cfg.n // 2), (cfg.n // 4, 3 * cfg.n // 4))

    records = []
    for idx, (s, t) in enumerate(pairs):
        mean_log, se = conditional_log_mc(
            bases, a, x_a, s, t, cfg.samples, _child_seed(cfg.seed, 4, idx)
        )
        ref_levels = _lift_values(x_a.values[:, s : t + 1][None], 3)
        ref_log = _log_levels([lv[0, -1] for lv in ref_levels])
        corr = level3_correction(bases, a, x_a, s, t)
        tag = f"{s}-{t}"
        diff1 = mean_log.levels[1] - ref_log[1]
        diff2 = mean_log.levels[2] - ref_log[2]
        diff3 = mean_log.levels[3] - (ref_log[3] + corr.levels[3])
        diff3_raw = mean_log.levels[3] - ref_log[3]
        records.append(_record(cfg, f"cond_l1_max_z:{tag}", _max_z([diff1], [se[0]]), None, None))
        records.append(_record(cfg, f"cond_l2_max_z:{tag}", _max_z([diff2], [se[1]]), None, None))
        records.append(_record(cfg, f"cond_l3_max_z:{tag}", _max_z([diff3], [se[2]]), None, None))
        records.append(
            _record(cfg, f"cond_l3_max_z_nocorr:{tag}", _max_z([diff3_raw], [se[2]]), None, None)
        )
    # Unconditional: the mean log-lift vanishes at every node.
    _, levels = _sample_levels(r, cfg, cfg.samples, _child_seed(cfg.seed, 5))
    for t in {cfg.n // 2, cfg.n}:
        logs = _log_levels([lv[:, t] for lv in levels])
        diffs = [np.mean(lv, axis=0) for lv in logs[1:]]
        ses = [np.std(lv, axis=0, ddof=1) / math.sqrt(cfg.samples) for lv in logs[1:]]
        records.append(_record(cfg, f"uncond_max_z:{t}", _max_z(diffs, ses), None, None))
    return records


def run_2var_bound(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Full-grid 2D 2-variation of kept-mode covariances never exceeds the
    full covariance's (same dissection both sides)."""
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    basis = kl_decompose(r)
    full_val = rho_var_2d(r.entries, 2.0, "fullgrid")
    rng = np.random.default_rng([cfg.seed, 303])
    worst = -np.inf
    for _ in range(cfg.sets):
        size = int(rng.integers(1, basis.rank + 1))
        a = IndexSet.of(np.sort(rng.choice(basis.rank, size=size, replace=False)))
        sub_val = rho_var_2d(partial_cov(basis, a).entries, 2.0, "fullgrid")
        worst = max(worst, sub_val - full_val)
    return [
        _record(cfg, "twovar_gap_max", worst, None, None),
        _record(cfg, "twovar_full_value", full_val, None, None),
    ]


def run_translation_check(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Removing a kept-mode prefix then projecting equals projecting onto the
    band directly, for every prefix pair; reports the worst deviation."""
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    basis = kl_decompose(r)
    bases = [basis]
    rank = basis.rank
    worst = 0.0
    values = _sample_values(r, 1, cfg.samples, _child_seed(cfg.seed, 6))
    for k in range(cfg.samples):
        x = SamplePath(grid, values[k])
        removed = {m: project(x, bases, IndexSet.prefix(m)) for m in range(rank + 1)}
        for a_sz in range(rank + 1):
            y = SamplePath(grid, x.values - removed[a_sz].values)
            for b_sz in range(a_sz + 1, rank + 1):
                lhs = project(y, bases, IndexSet.prefix(b_sz))
                rhs = project(x, bases, IndexSet.of(range(a_sz, b_sz)))
                worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    return [_record(cfg, "translation_max_abs_err", worst, None, None)]


def run_simulate(cfg: ExperimentConfig) -> np.ndarray:
    """Sampled path values, shape (samples, d, n_nodes)."""
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    return _sample_values(r, cfg.d, cfg.samples, cfg.seed)


def run_lift(cfg: ExperimentConfig) -> list[np.ndarray]:
    """Log coordinates of the lifted samples, one array per degree 1..depth;
    degree k has shape (samples, n_nodes) + (d,)*k."""
    values = run_simulate(cfg)
    levels = _lift_values(values, cfg.depth)
    return _log_levels(levels)[1:]


def run_pvar(cfg: ExperimentConfig) -> list[ResultRecord]:
    """p-variation norm of each sampled lift (per-sample rows)."""
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    _, levels = _sample_levels(r, cfg, cfg.samples, cfg.seed)
    vals = _dp_max_sum(pair_dist_table(levels) ** cfg.p) ** (1.0 / cfg.p)
    return [_record(cfg, "pvar_norm", val, None, s) for s, val in enumerate(vals)]


def run_rhovar(cfg: ExperimentConfig) -> list[ResultRecord]:
    """2D rho-variation of the kernel's grid covariance."""
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    rho = cfg.rho if cfg.rho is not None else cfg.effective_rho()
    val = rho_var_2d(r.entries, rho, cfg.search, seed=cfg.seed)
    rec = ResultRecord(
        experiment=cfg.experiment,
        kernel=cfg.kernel_name,
        hurst=cfg.hurst,
        n=cfg.n,
        m=None,
        p=None,
        q=None,
        samples=None,
        statistic=f"rho_var_2d_{cfg.search}",
        value=val,
        stderr=None,
        seed=cfg.seed,
    )
    return [rec]
