"""Experiment runners over lifted Gaussian paths, with CSV/JSON emission.

Each runner consumes a validated ExperimentConfig and returns ResultRecords;
``simulate_blocks`` and ``lift_blocks`` turn sampled paths into blocks of
long-format rows that share their labels, and ``emit`` writes any blocks
under their columns (a record list is one block).  All randomness flows
through the config seed (per-draw substreams, see gaussian_process), so a
given config produces byte-identical output files.

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
from typing import NamedTuple

import numpy as np

from .gaussian_process import (
    CovKernel,
    DataError,
    cov_matrix,
    draw_normals,
    sample_values,
)
from .karhunen_loeve import (
    IndexSet,
    conditional_log_mc,
    kl_decompose,
    level3_correction,
    partial_cov,
    project,
)
from .path_lift import SamplePath, signature_at, uniform_grid
from .tensor_group import group_norm_levels, log_levels
from .variation_metrics import (
    BRUTE_MAX_2D,
    holder_batch,
    pair_chunks,
    pvar_batch,
    reduce_pair_dists,
    rho_var_2d,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRecord",
    "CSV_COLUMNS",
    "PATH_COLUMNS",
    "LIFT_COLUMNS",
    "load_config",
    "run_convergence",
    "run_uniform_modulus",
    "run_martingale_checks",
    "run_2var_bound",
    "run_translation_check",
    "run_simulate",
    "run_lift",
    "simulate_blocks",
    "lift_blocks",
    "run_pvar",
    "run_rhovar",
    "emit",
    "read_records",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (bad keys, values, or regime)."""


_EXPERIMENTS = (
    "convergence", "uniform-modulus", "martingale", "twovar-bound", "translation",
    "simulate", "lift", "pvar", "rhovar",
)
_LIFTING = {"convergence", "uniform-modulus", "martingale", "pvar", "lift"}
# Fewest samples per experiment; a standard error needs two draws.
_MIN_SAMPLES = {
    "convergence": 2, "martingale": 2, "uniform-modulus": 2, "translation": 1, "pvar": 1,
}


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
    sets: int = 50
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


# Value parsers: parse(key, value) returns the field value or raises ConfigError.


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int(lo: int, hi: int | None = None):
    def parse(key, v):
        if not _is_int(v) or v < lo or (hi is not None and v > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ConfigError(f"{key!r} must be an integer {bound}")
        return v

    return parse


def _number(key, v) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ConfigError(f"{key!r} must be a finite number")
    return float(v)


def _choice(*options: str):
    def parse(key, v):
        if not isinstance(v, str) or v not in options:
            raise ConfigError(f"{key!r} must be one of {', '.join(options)}")
        return v

    return parse


def _text(key, v) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{key!r} must be a string")
    return v


def _positive_ints(key, v) -> tuple[int, ...]:
    if not isinstance(v, list) or not all(_is_int(e) and e >= 1 for e in v):
        raise ConfigError(f"{key!r} must be a list of positive integers")
    return tuple(v)


def _node_pairs(key, v) -> tuple[tuple[int, int], ...]:
    ok = isinstance(v, list) and all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) and 0 <= e[0] <= e[1]
        for e in v
    )
    if not ok:
        raise ConfigError(f"{key!r} must be a list of [s, t] node pairs with 0 <= s <= t")
    return tuple((s, t) for s, t in v)


def _table_kernel(path: str) -> CovKernel:
    raw = np.loadtxt(path, delimiter=",")
    return CovKernel.from_table(raw[0], raw[1:])


# Kernel kind -> (constructor, its parameters in call order with their parsers).
_KERNELS = {
    "brownian": (CovKernel.brownian, {}),
    "fbm": (CovKernel.fbm, {"hurst": _number}),
    "table": (_table_kernel, {"path": _text}),
}


def _kernel(key, v) -> CovKernel:
    if not isinstance(v, dict):
        raise ConfigError(f"{key!r} must be an object with a 'kind'")
    kind = v.get("kind")
    if not isinstance(kind, str) or kind not in _KERNELS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    make, params = _KERNELS[kind]
    if set(v) != {"kind", *params}:
        raise ConfigError(f"{kind} kernel takes exactly the keys {sorted({'kind', *params})}")
    args = [parse(name, v[name]) for name, parse in params.items()]
    try:
        return make(*args)
    except (ValueError, OSError, IndexError) as err:  # IndexError: a table of one value or none
        raise ConfigError(f"bad kernel: {err}") from err


_SAMPLED = ("convergence", "uniform-modulus", "martingale", "simulate", "lift", "pvar")

# Config key -> (parser, experiments that accept it).  "kernel", "n" and
# "seed" are required; every other key defaults to its ExperimentConfig field.
_SCHEMA = {
    "kernel": (_kernel, _EXPERIMENTS),
    "n": (_int(1), _EXPERIMENTS),
    "seed": (_int(0), _EXPERIMENTS),
    "d": (_int(1), _SAMPLED),
    "samples": (_int(0), _SAMPLED + ("translation",)),
    "p": (_number, ("convergence", "pvar")),
    "q": (_number, ("convergence",)),
    "alpha": (_number, ("convergence",)),
    "rho": (_number, ("convergence", "pvar", "rhovar")),
    "m": (_positive_ints, ("convergence",)),
    "mode": (_choice("kl", "dyadic"), ("convergence",)),
    "index_policy": (_choice("prefix", "random"), ("convergence",)),
    "sets": (_int(1), ("uniform-modulus", "twovar-bound")),
    "lengths": (_positive_ints, ("uniform-modulus",)),
    "index_size": (_int(1), ("martingale",)),
    "pairs": (_node_pairs, ("martingale",)),
    "depth": (_int(1, 3), ("lift",)),
    "search": (_choice("fullgrid", "hillclimb", "brute"), ("rhovar",)),
}


def load_config(experiment: str, data: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Build and validate a config for one experiment from parsed JSON."""
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = [k for k in data if experiment not in _SCHEMA.get(k, (None, ()))[1]]
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    if seed_override is not None:
        data = dict(data, seed=seed_override)
    for key in ("kernel", "n", "seed"):
        if key not in data:
            raise ConfigError(f"missing required key {key!r}")
    kw = {key: parse(key, data[key]) for key, (parse, _) in _SCHEMA.items() if key in data}
    if experiment == "martingale":
        kw.setdefault("index_size", min(4, kw["n"]))
    cfg = ExperimentConfig(experiment=experiment, **kw)
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
    if any(v > cfg.n for v in cfg.lengths):
        raise ConfigError("'lengths' must be node counts within the grid")
    if any(t > cfg.n for _, t in cfg.pairs):
        raise ConfigError("'pairs' must be [s, t] node pairs within the grid")
    if cfg.experiment == "convergence":
        if cfg.p is None or cfg.q is None:
            raise ConfigError("convergence requires p and q")
        if not cfg.m:
            raise ConfigError("convergence requires the 'm' list")
    if cfg.experiment == "pvar" and cfg.p is None:
        raise ConfigError("pvar requires p")
    need = _MIN_SAMPLES.get(cfg.experiment, 0)
    if cfg.samples < need:
        raise ConfigError(f"{cfg.experiment} requires samples >= {need}")
    if cfg.experiment == "convergence":
        if cfg.mode == "dyadic":
            sizes = (cfg.n,) + tuple(cfg.m)
            if any(v & (v - 1) for v in sizes):
                raise ConfigError("dyadic mode requires power-of-two grid sizes")
            if any(2 * v > cfg.n for v in cfg.m):
                raise ConfigError("dyadic mode requires 2*m <= n for every m")
        elif any(v > cfg.n for v in cfg.m):
            raise ConfigError("kept-mode counts cannot exceed the grid rank")
    if cfg.experiment == "martingale" and cfg.index_size > cfg.n:
        raise ConfigError("index_size cannot exceed the grid rank")
    if cfg.experiment == "rhovar":
        if cfg.rho is not None and cfg.rho < 1.0:
            raise ConfigError("rho must be >= 1")
        if cfg.search == "brute" and cfg.n > BRUTE_MAX_2D:
            raise ConfigError(f"search 'brute' is limited to n <= {BRUTE_MAX_2D}")


class ResultRecord(NamedTuple):
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


CSV_COLUMNS = ResultRecord._fields
PATH_COLUMNS = ("sample", "component", "time", "value")
LIFT_COLUMNS = ("sample", "time", "coordinate", "value")


class _Lines(list):
    """A list that ``csv.writer`` can write to: one item per row written."""

    write = list.append


def _csv_cells(rows: list[tuple]) -> list[str]:
    """Each row's CSV cells, each followed by the delimiter.

    The rows have one length.  A cell object that several rows share is
    formatted once: it is written followed by two empty cells, so that it is
    not quoted as a lone empty field would be, and cut off after its own
    delimiter.
    """
    columns = [[""] * len(rows)]  # keeps one string per row when rows have no cells
    for column in zip(*rows, strict=True):
        distinct = {id(x): x for x in column}
        lines = _Lines()
        csv.writer(lines, lineterminator="\n").writerows((x, None, None) for x in distinct.values())
        text = dict(zip(distinct, [line[:-2] for line in lines]))
        columns.append([text[id(x)] for x in column])
    return list(map("".join, zip(*columns)))


def emit(blocks, fmt: str, path: str, columns: tuple[str, ...] = CSV_COLUMNS) -> None:
    """Write ``blocks`` as 'csv' or 'json' rows in ``columns`` order.

    A block ``(head, labels, values)`` stands for the rows
    ``head + label + (value,)``, label by label and value by value, where the
    labels have one length and the values are floats; with ``values`` None it
    stands for the rows ``head + label``, so a record list is the one block
    ``((), records, None)``.  CSV leaves None empty and writes floats with
    ``repr``, so it round-trips exactly; each head, and each labels list
    that consecutive blocks share, is formatted once.  JSON is a list of
    objects keyed by the column names.
    """
    # Buffering the whole output means a failing runner leaves no file.
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        shared = None
        for head, labels, values in blocks:
            if values is None:
                writer.writerows(head + label for label in labels)
                continue
            if labels is not shared:
                shared, cells = labels, _csv_cells(labels)
            pre = _csv_cells([head])[0]
            buf.writelines([f"{pre}{c}{v!r}\n" for c, v in zip(cells, values, strict=True)])
    elif fmt == "json":
        rows = []
        for head, labels, values in blocks:
            if values is None:
                rows += [head + label for label in labels]
            else:
                rows += [head + label + (v,) for label, v in zip(labels, values, strict=True)]
        json.dump([dict(zip(columns, row)) for row in rows], buf, indent=2)
        buf.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


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
    if not math.isfinite(value) or (stderr is not None and not math.isfinite(stderr)):
        raise DataError(f"{statistic} is not finite (value {value}, stderr {stderr})")
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


def _mode_sets(cfg: ExperimentConfig, rank: int) -> list[IndexSet]:
    if any(m > rank for m in cfg.m):
        raise DataError(f"kept-mode count exceeds covariance rank {rank}")
    if cfg.index_policy == "prefix":
        return [IndexSet.prefix(m) for m in cfg.m]
    order = np.random.default_rng([cfg.seed, 101]).permutation(rank)
    return [IndexSet.of(order[:m]) for m in cfg.m]


def _random_mode_sets(rng: np.random.Generator, rank: int, count: int) -> list[np.ndarray]:
    """``count`` sorted random mode sets, each of a random size in 1..rank."""
    if rank < 1:
        raise DataError("covariance has rank 0: there are no modes to choose from")
    return [
        np.sort(rng.choice(rank, size=int(rng.integers(1, rank + 1)), replace=False))
        for _ in range(count)
    ]


def run_convergence(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Kept-mode (kl) or dyadic-refinement convergence of lifted paths.

    In kl mode every kept-mode count is projected at the level of node values,
    then the projected and tail paths of all counts are lifted one group of
    samples at a time (see ``pair_chunks``) and compared as one stack, with
    the full lift as the shared y; peak memory does not grow with the number
    of counts.
    """
    if cfg.mode == "dyadic":
        return _run_dyadic(cfg)
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    basis = kl_decompose(r)
    values = sample_values(r, cfg.d, cfg.samples, _child_seed(cfg.seed, 0))
    full_levels = signature_at(values, 3)
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / cfg.p
    holder = cfg.kernel.kind in ("brownian", "fbm")
    reductions = (lambda t: pvar_batch(t, cfg.p), lambda t: holder_batch(t, grid.times, alpha))

    sets = _mode_sets(cfg, basis.rank)
    tail = np.empty((len(sets),) + values.shape)
    for i, a in enumerate(sets):
        # Projecting onto the dropped modes keeps proj == values exactly at
        # m = rank, where every distance to the full lift is then exactly 0.
        drop = basis.phi[a.complement(basis.rank).as_array()]
        tail[i] = np.einsum("sct,mt,mu->scu", values, drop, drop, optimize=True)
    _, group = pair_chunks(grid.n_nodes, cfg.d, 3, len(sets), shared=True)
    parts = []
    for lo in range(0, cfg.samples, group):
        rows = slice(lo, lo + group)
        proj = signature_at(values[rows] - tail[:, rows], 3)
        parts.append(
            reduce_pair_dists(proj, [lv[rows] for lv in full_levels], *reductions)
            + reduce_pair_dists(signature_at(tail[:, rows], 3), None, *reductions)
        )
    pvar, hold, tail_pvar, tail_hold = (np.concatenate(p, axis=1) for p in zip(*parts))

    records = []
    for i, m in enumerate(cfg.m):
        for name, data in (
            ("kl_pvar_qmean", pvar),
            ("kl_tail_pvar_qmean", tail_pvar),
            ("kl_holder_qmean", hold),
            ("kl_tail_holder_qmean", tail_hold),
        ):
            if not holder and "holder" in name:
                continue
            value, se = _q_mean(data[i], cfg.q)
            records.append(_record(cfg, name, value, se, m))
    return records


def _run_dyadic(cfg: ExperimentConfig) -> list[ResultRecord]:
    # One underlying path per sample, restricted to nested dyadic grids; each
    # consecutive pair is compared on the finer grid of the two.
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    values = sample_values(r, cfg.d, cfg.samples, _child_seed(cfg.seed, 0))
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
        (dists,) = reduce_pair_dists(
            signature_at(interp, 3), signature_at(fine_vals, 3), lambda t: pvar_batch(t, cfg.p)
        )
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
    sets = [np.arange(rank)] + _random_mode_sets(rng, rank, cfg.sets)

    # Coefficient-space sampling: one xi block per mode set, shared draws.
    xi = draw_normals(_child_seed(cfg.seed, 1), cfg.samples, (cfg.d, rank))
    per_length = {l: [] for l in lengths}
    nodes = sorted(set(lengths))
    for sel in sets:
        vals = np.einsum("skm,mt->skt", xi[:, :, sel], basis.h[sel])
        levels = signature_at(vals, 3, nodes)
        for l in lengths:
            # S(0, l) is group-like, so the plain norm is the symmetrized one.
            norms = group_norm_levels([lv[:, nodes.index(l)] for lv in levels])
            per_length[l].append(norms**2)
    records = []
    worst = []
    for l in lengths:
        means = np.array([np.mean(sq) for sq in per_length[l]])
        top = int(np.argmax(means))
        sq = per_length[l][top]
        se = float(np.std(sq, ddof=1) / math.sqrt(sq.size))
        records.append(_record(cfg, "modulus_sq_mean", float(means[top]), se, l))
        worst.append(float(means[top]))
    if len(set(lengths)) >= 2:
        if min(worst) <= 0.0:
            raise DataError("worst mean squared norm is 0 at some length: no log-log slope")
        log_x = [math.log(l / cfg.n) for l in lengths]
        log_y = [math.log(v) for v in worst]
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


def _max_z(diff_levels, se_levels, scales=None, rtol: float = 1e-12) -> float:
    """Worst |diff|/se over coordinates.  A difference of at most rtol times
    max(1, scale) counts as zero, where scale is the largest absolute
    coordinate of that level among the values compared (None: unit scale).
    Structurally zero coordinates carry rounding differences of that size,
    over rounding-level standard errors."""
    if scales is None:
        scales = [0.0] * len(diff_levels)
    worst = 0.0
    for diff, se, scale in zip(diff_levels, se_levels, scales):
        d = np.abs(np.asarray(diff))
        s = np.asarray(se)
        mask = d > rtol * max(1.0, scale)
        if not np.any(mask):
            continue
        with np.errstate(divide="ignore"):
            worst = max(worst, float(np.max(np.where(s[mask] > 0, d[mask] / s[mask], np.inf))))
    return worst


def _abs_max(*arrays) -> float:
    return max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


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
    x_full = SamplePath(grid, sample_values(r, cfg.d, 1, _child_seed(cfg.seed, 3))[0])
    x_a = project(x_full, bases, a)
    pairs = cfg.pairs or ((0, cfg.n), (0, cfg.n // 2), (cfg.n // 4, 3 * cfg.n // 4))

    records = []
    for idx, (s, t) in enumerate(pairs):
        mean_log, se = conditional_log_mc(
            bases, a, x_a, s, t, cfg.samples, _child_seed(cfg.seed, 4, idx)
        )
        ref_levels = signature_at(x_a.values[:, s : t + 1], 3, [t - s])
        ref_log = log_levels([lv[0] for lv in ref_levels])
        corr = level3_correction(bases, a, x_a, s, t)
        tag = f"{s}-{t}"
        checks = [
            ("cond_l1_max_z", mean_log.levels[1], ref_log[1], se[0]),
            ("cond_l2_max_z", mean_log.levels[2], ref_log[2], se[1]),
            ("cond_l3_max_z", mean_log.levels[3], ref_log[3] + corr.levels[3], se[2]),
            ("cond_l3_max_z_nocorr", mean_log.levels[3], ref_log[3], se[2]),
        ]
        for name, mean, ref, err in checks:
            z = _max_z([mean - ref], [err], [_abs_max(mean, ref)])
            records.append(_record(cfg, f"{name}:{tag}", z, None, None))
    # Unconditional: the mean log-lift vanishes at every node.
    values = sample_values(r, cfg.d, cfg.samples, _child_seed(cfg.seed, 5))
    targets = {cfg.n // 2, cfg.n}  # iterated in set order, which fixes the record order
    nodes = sorted(targets)
    levels = signature_at(values, 3, nodes)
    for t in targets:
        logs = log_levels([lv[:, nodes.index(t)] for lv in levels])
        diffs = [np.mean(lv, axis=0) for lv in logs[1:]]
        ses = [np.std(lv, axis=0, ddof=1) / math.sqrt(cfg.samples) for lv in logs[1:]]
        scales = [_abs_max(lv) for lv in logs[1:]]
        records.append(_record(cfg, f"uncond_max_z:{t}", _max_z(diffs, ses, scales), None, None))
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
    for sel in _random_mode_sets(rng, basis.rank, cfg.sets):
        sub_val = rho_var_2d(partial_cov(basis, IndexSet.of(sel)).entries, 2.0, "fullgrid")
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
    values = sample_values(r, 1, cfg.samples, _child_seed(cfg.seed, 6))
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
    return sample_values(r, cfg.d, cfg.samples, cfg.seed)


def run_lift(cfg: ExperimentConfig) -> list[np.ndarray]:
    """Log coordinates of the lifted samples, one array per degree 1..depth;
    degree k has shape (samples, n_nodes) + (d,)*k."""
    values = run_simulate(cfg)
    levels = signature_at(values, cfg.depth)
    return log_levels(levels)[1:]


def simulate_blocks(cfg: ExperimentConfig) -> list:
    """``simulate`` output as ``emit`` blocks of (sample, component, time,
    value) rows: one per sample and component, all sharing the time labels."""
    labels = [(t,) for t in uniform_grid(cfg.n).times.tolist()]
    values = run_simulate(cfg)
    if not np.isfinite(values).all():
        raise DataError("sampled path values are not finite")
    return [
        ((s, c), labels, path)
        for s, sample in enumerate(values)
        for c, path in enumerate(sample.tolist())
    ]


def lift_blocks(cfg: ExperimentConfig) -> list:
    """``lift`` output as ``emit`` blocks of (sample, time, coordinate, value)
    rows, degree by degree, then sample, node and coordinate; coordinates
    read ``L2[0,1]``.  The samples of a degree share its labels."""
    times = uniform_grid(cfg.n).times.tolist()
    lifts = run_lift(cfg)
    if not all(np.isfinite(logs).all() for logs in lifts):
        raise DataError("lifted log coordinates are not finite")
    blocks = []
    for k, logs in enumerate(lifts, start=1):
        names = ["L%d[%s]" % (k, ",".join(map(str, ix))) for ix in np.ndindex(logs.shape[2:])]
        labels = [(t, name) for t in times for name in names]
        blocks += [((s,), labels, sample.ravel().tolist()) for s, sample in enumerate(logs)]
    return blocks


def run_pvar(cfg: ExperimentConfig) -> list[ResultRecord]:
    """p-variation norm of each sampled lift (per-sample rows)."""
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    levels = signature_at(sample_values(r, cfg.d, cfg.samples, cfg.seed), 3)
    (vals,) = reduce_pair_dists(levels, None, lambda t: pvar_batch(t, cfg.p))
    return [_record(cfg, "pvar_norm", val, None, s) for s, val in enumerate(vals)]


def run_rhovar(cfg: ExperimentConfig) -> list[ResultRecord]:
    """2D rho-variation of the kernel's grid covariance."""
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    rho = cfg.rho if cfg.rho is not None else cfg.effective_rho()
    val = rho_var_2d(r.entries, rho, cfg.search, seed=cfg.seed)
    return [_record(cfg, f"rho_var_2d_{cfg.search}", val, None, None)]
