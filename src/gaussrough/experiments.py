"""Experiment runners over lifted Gaussian paths, with CSV/JSON emission.

Each runner consumes a validated ExperimentConfig and returns ResultRecords;
``simulate_blocks`` and ``lift_blocks`` turn sampled paths into value blocks
of long-format rows, each carrying label columns (the times, and for a lift
the coordinate names) whose product gives its label rows, and ``emit`` writes
any blocks under their columns (a record block carries its rows, and a record
list is one block).  Each config key is declared once, as an
``ExperimentConfig`` field that carries its parser and range, and
``SUBCOMMANDS`` declares each command-line subcommand once: its experiment
tag, producer of blocks, accepted and required config keys, sample minimum,
whether it lifts paths, and columns.  All randomness flows through the config
seed (per-draw substreams, see gaussian_process), so a given config produces
byte-identical output files.

Scale: every runner works on the grid covariance divided by 4^e, with e
chosen by ``_grid_cov`` (0 for Brownian motion and fbm), and multiplies each
output by 2^(e * degree) with ``np.ldexp``, which is exact.  The degree is 1
for path values, the distances ``kl_*``, ``dyadic_*`` and ``pvar_norm``, and
``translation_max_abs_err``; m for lift coordinates of level m; 2 for
``modulus_sq_mean``, ``twovar_*`` and ``rho_var_2d_*``; and 0 for the
z-scores ``cond_*`` and ``uncond_*`` and for ``modulus_slope``.  So the
outputs for 4^k times a table are those for the table times 2^(k * degree),
bit for bit, and an output that cannot be represented is inf, a data error.

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
import itertools
import json
import math
import os
import sys
import types
import warnings
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, NamedTuple, get_args, get_type_hints

import numpy as np

from .gaussian_process import (
    CovKernel,
    CovMatrix,
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
    "SUBCOMMANDS",
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


# Value parsers: parse(key, value) returns the field value or raises ConfigError.


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _bound(lo, hi) -> str:
    return "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"


def _int(lo: int, hi: int | None = sys.maxsize):
    # sys.maxsize, the largest index numpy can hold, bounds every size; None
    # leaves an integer unbounded.
    def parse(key, v):
        if not _is_int(v) or v < lo or (hi is not None and v > hi):
            raise ConfigError(f"{key!r} must be an integer{_bound(lo, hi)}")
        return v

    return parse


_FLOAT_MAX = sys.float_info.max


def _number(lo: float | None = None, hi: float | None = None):
    def parse(key, v) -> float:
        # An int compares with a float exactly, so a JSON integer too large
        # for a float fails here rather than overflowing in float(v).
        finite = isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX
        if not finite or (lo is not None and v < lo) or (hi is not None and v > hi):
            raise ConfigError(f"{key!r} must be a finite number{_bound(lo, hi)}")
        return float(v)

    return parse


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


def _positive_ints(min_len: int = 0):
    def parse(key, v) -> tuple[int, ...]:
        if not isinstance(v, list) or len(v) < min_len or not all(_is_int(e) and e >= 1 for e in v):
            raise ConfigError(f"{key!r} must be a list of {min_len} or more positive integers")
        return tuple(v)

    return parse


def _node_pairs(key, v) -> tuple[tuple[int, int], ...]:
    ok = isinstance(v, list) and all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) and 0 <= e[0] <= e[1]
        for e in v
    )
    if not ok:
        raise ConfigError(f"{key!r} must be a list of [s, t] node pairs with 0 <= s <= t")
    return tuple((s, t) for s, t in v)


def _table_kernel(path: str) -> CovKernel:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty file warns
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    k = raw.shape[1]
    if raw.shape != (k + 1, k) or k < 2:
        found = f"shape {raw.shape}" if raw.size else "no values"
        raise ValueError(
            f"a table file holds one row of k times, then k rows of k values (k >= 2); found {found}"
        )
    return CovKernel.from_table(raw[0], raw[1:])


# Kernel kind -> (constructor, its parameters in call order with their parsers).
_KERNELS = {
    "brownian": (CovKernel.brownian, {}),
    "fbm": (CovKernel.fbm, {"hurst": _number()}),
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
    except (ValueError, OSError) as err:
        raise ConfigError(f"bad kernel: {err}") from err


def _key(parse, default=MISSING, in_grid: bool = False):
    """A field read from the config key of its name by ``parse``; with
    ``in_grid`` no integer in its value may exceed the segment count n."""
    return field(default=default, metadata={"parse": parse, "in_grid": in_grid})


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config.  Every field but ``experiment`` is the config key of
    its name, with its parser and range in the field metadata; the keys with
    no default ("kernel", "n" and "seed") are required by every subcommand."""

    experiment: str
    kernel: CovKernel = _key(_kernel)
    n: int = _key(_int(1, sys.maxsize - 1))  # n + 1 nodes
    seed: int = _key(_int(0, None))
    d: int = _key(_int(1), 1)
    p: float | None = _key(_number(1), None)
    q: float | None = _key(_number(1), None)
    alpha: float | None = _key(_number(0, 1), None)
    samples: int = _key(_int(0), 0)
    m: tuple[int, ...] = _key(_positive_ints(1), (), in_grid=True)
    mode: str = _key(_choice("kl", "dyadic"), "kl")
    index_policy: str = _key(_choice("prefix", "random"), "prefix")
    sets: int = _key(_int(1), 50)
    lengths: tuple[int, ...] = _key(_positive_ints(), (), in_grid=True)
    index_size: int = _key(_int(1), 0, in_grid=True)
    pairs: tuple[tuple[int, int], ...] = _key(_node_pairs, (), in_grid=True)
    depth: int = _key(_int(1, 3), 3)
    rho: float | None = _key(_number(1), None)
    search: str = _key(_choice("fullgrid", "hillclimb", "brute"), "fullgrid")

    def effective_rho(self) -> float:
        if self.rho is not None:
            return self.rho
        if self.kernel.kind == "fbm":
            return max(1.0, 1.0 / (2.0 * self.kernel.hurst))
        return 1.0


def load_config(experiment: str, data: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Build and validate a config for one experiment (a ``SUBCOMMANDS``
    tag) from parsed JSON."""
    entry = next((e for e in SUBCOMMANDS.values() if e.experiment == experiment), None)
    if entry is None:
        raise ConfigError(f"unknown experiment {experiment!r}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    key_fields = [f for f in fields(ExperimentConfig) if "parse" in f.metadata]
    universal = [f.name for f in key_fields if f.default is MISSING]
    unknown = [k for k in data if k not in (*universal, *entry.keys)]
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    if seed_override is not None:
        data = dict(data, seed=seed_override)
    for key in (*universal, *entry.required):
        if key not in data:
            raise ConfigError(f"missing required key {key!r}")
    kw = {f.name: f.metadata["parse"](f.name, data[f.name]) for f in key_fields if f.name in data}
    if experiment == "martingale":
        kw.setdefault("index_size", min(4, kw["n"]))
    cfg = ExperimentConfig(experiment=experiment, **kw)
    _validate_regime(cfg, entry)
    return cfg


def _validate_regime(cfg: ExperimentConfig, entry: Subcommand) -> None:
    """The rules that relate two values; a key's own range is its parser's.

    A key that only one subcommand accepts keeps its default elsewhere, so
    its rules need no test of the experiment.
    """
    if entry.lifts and cfg.kernel.kind == "fbm" and cfg.kernel.hurst <= 0.25:
        raise ConfigError("lifting experiments require hurst > 1/4")
    two_rho = 2.0 * cfg.effective_rho()
    if cfg.p is not None and cfg.p <= two_rho:
        raise ConfigError(f"p must exceed 2*rho = {two_rho:g}")
    for f in fields(cfg):
        if f.metadata.get("in_grid") and max(np.ravel(getattr(cfg, f.name)), default=0) > cfg.n:
            raise ConfigError(f"{f.name!r} cannot exceed the segment count n = {cfg.n}")
    if cfg.samples < entry.min_samples:
        raise ConfigError(f"{cfg.experiment} requires samples >= {entry.min_samples}")
    # The draws, (samples, d, n + 1) doubles, are the first array that scales
    # with samples; numpy refuses any array beyond sys.maxsize bytes.
    if cfg.samples * cfg.d * (cfg.n + 1) * 8 > sys.maxsize:
        raise ConfigError(f"samples * d * (n + 1) doubles exceed {sys.maxsize} bytes")
    if cfg.mode == "dyadic":
        if any(v & (v - 1) for v in (cfg.n, *cfg.m)):
            raise ConfigError("dyadic mode requires power-of-two grid sizes")
        if any(2 * v > cfg.n for v in cfg.m):
            raise ConfigError("dyadic mode requires 2*m <= n for every m")
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


def _csv_cells(columns) -> list[str]:
    """The CSV cells of each row of the product of ``columns``, first column
    slowest, each cell followed by the delimiter.

    Each value of a column is formatted once: it is written followed by two
    empty cells, so that it is not quoted as a lone empty field would be, and
    cut off after its own delimiter.
    """
    # writerow returns what its file's write returns: here the line itself.
    line = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow
    cells = [""]
    for column in columns:
        texts = [line((x, None, None))[:-2] for x in column]
        cells = [a + b for a in cells for b in texts]
    return cells


def emit(blocks, fmt: str, path: str, columns: tuple[str, ...] = CSV_COLUMNS) -> None:
    """Write ``blocks`` as 'csv' or 'json' rows in ``columns`` order.

    A value block ``(head, labels, values)`` stands for the rows
    ``head + label + (value,)``, label by label and value by value, where
    ``labels`` is a tuple of label columns whose Cartesian product, first
    column slowest, gives the label rows, and the values are floats.  A
    record block ``(head, rows, None)`` stands for the rows ``head + row``,
    so a record list is the one block ``((), records, None)``.  CSV leaves
    None empty and writes floats with ``repr``, so it round-trips exactly;
    each head, and each label value of the columns that consecutive blocks
    share, is formatted once.  JSON is a list of objects keyed by the column
    names.
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
            pre = _csv_cells([(h,) for h in head])[0]
            buf.writelines([f"{pre}{c}{v!r}\n" for c, v in zip(cells, values, strict=True)])
    elif fmt == "json":
        rows = []
        for head, labels, values in blocks:
            if values is None:
                rows += [head + label for label in labels]
            else:
                label_rows = itertools.product(*labels)
                rows += [head + label + (v,) for label, v in zip(label_rows, values, strict=True)]
        json.dump([dict(zip(columns, row)) for row in rows], buf, indent=2)
        buf.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    fh = open(path, "w")
    try:
        with fh:
            fh.write(buf.getvalue())
    except OSError:
        # A write that fails part way leaves no partial file; a device such
        # as /dev/full, or a file that could not be opened, stays.
        if os.path.isfile(path):
            os.remove(path)
        raise


def read_records(path: str) -> list[ResultRecord]:
    """Read back a CSV produced by ``emit``.  A cell has the type of its
    ``ResultRecord`` field; an empty cell reads as None."""
    # Each field is annotated X or X | None, so X is the first type listed.
    kinds = {c: (get_args(hint) or (hint,))[0] for c, hint in get_type_hints(ResultRecord).items()}
    with open(path) as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise DataError("unexpected CSV columns")
        return [
            ResultRecord(**{c: kind(row[c]) if row[c] else None for c, kind in kinds.items()})
            for row in reader
        ]


# Statistic name prefix -> degree: the statistic of 4^e times a covariance is
# 2^(e * degree) times the statistic of the covariance.
_DEGREES = {
    "kl_": 1, "dyadic_": 1, "pvar_norm": 1, "translation_max_abs_err": 1,
    "modulus_sq_mean": 2, "twovar_": 2, "rho_var_2d_": 2,
    "cond_": 0, "uncond_": 0, "modulus_slope": 0,
}


def _rescaled(x, shift: int):
    """x times 2^shift, exactly; inf where that cannot be represented."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, shift)


def _record(
    cfg: ExperimentConfig, e: int, statistic: str, value: float, stderr: float | None, m: int | None
):
    # The runners work on the covariance divided by 4^e (see ``_grid_cov``).
    shift = e * next(deg for prefix, deg in _DEGREES.items() if statistic.startswith(prefix))
    value = float(_rescaled(value, shift))
    stderr = None if stderr is None else float(_rescaled(stderr, shift))
    if not math.isfinite(value) or (stderr is not None and not math.isfinite(stderr)):
        raise DataError(f"{statistic} is not finite (value {value}, stderr {stderr})")
    return ResultRecord(
        experiment=cfg.experiment,
        kernel=cfg.kernel.kind,
        hurst=cfg.kernel.hurst,
        n=cfg.n,
        m=m,
        p=cfg.p,
        q=cfg.q,
        samples=cfg.samples or None,
        statistic=statistic,
        value=value,
        stderr=stderr,
        seed=cfg.seed,
    )


def _grid_cov(cfg: ExperimentConfig) -> tuple[CovMatrix, int]:
    """The kernel's covariance on the config's uniform grid (its ``grid``),
    divided by 4^e, and e.

    For a table kernel e puts the largest absolute table value, which for a
    PSD table is its largest variance, in [1, 4), so no scaled entry can
    overflow; e is 0 for an all-zero table.  Brownian motion and fbm have
    variance 1 at t = 1, so e = 0.  A power-of-two factor commutes exactly
    with the bilinear interpolation, so a table and 4^k times it give the
    same bits.
    """
    kernel, e = cfg.kernel, 0
    if kernel.kind == "table":
        top = float(np.max(np.abs(kernel.table_values)))
        e = (math.frexp(top)[1] - 1) // 2 if top > 0.0 else 0
        kernel = CovKernel.from_table(kernel.table_times, np.ldexp(kernel.table_values, -2 * e))
    return cov_matrix(kernel, uniform_grid(cfg.n)), e


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
    r, e = _grid_cov(cfg)
    basis = kl_decompose(r)
    values = sample_values(r, cfg.d, cfg.samples, _child_seed(cfg.seed, 0))
    full_levels = signature_at(values, 3)
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / cfg.p
    holder = cfg.kernel.kind in ("brownian", "fbm")
    reductions = (lambda t: pvar_batch(t, cfg.p), lambda t: holder_batch(t, r.grid.times, alpha))

    sets = _mode_sets(cfg, basis.rank)
    tail = np.empty((len(sets),) + values.shape)
    for i, a in enumerate(sets):
        # Projecting onto the dropped modes keeps proj == values exactly at
        # m = rank, where every distance to the full lift is then exactly 0.
        drop = basis.phi[a.complement(basis.rank).as_array()]
        tail[i] = np.einsum("sct,mt,mu->scu", values, drop, drop, optimize=True)
    _, group = pair_chunks(r.grid.n_nodes, cfg.d, 3, len(sets), shared=True)
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
            records.append(_record(cfg, e, name, value, se, m))
    return records


def _run_dyadic(cfg: ExperimentConfig) -> list[ResultRecord]:
    # One underlying path per sample, restricted to nested dyadic grids; each
    # consecutive pair is compared on the finer grid of the two.
    r, e = _grid_cov(cfg)
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
        records.append(_record(cfg, e, "dyadic_pvar_qmean", value, se, m))
    return records


def run_uniform_modulus(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Second moment of ||lift of a kept-mode path over [0, l]|| across random
    mode sets, with a log-log slope over the interval lengths."""
    r, e = _grid_cov(cfg)
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
        records.append(_record(cfg, e, "modulus_sq_mean", float(means[top]), se, l))
        worst.append(float(means[top]))
    if len(set(lengths)) >= 2:
        if min(worst) <= 0.0:
            raise DataError("worst mean squared norm is 0 at some length: no log-log slope")
        log_x = [math.log(l / cfg.n) for l in lengths]
        log_y = [math.log(v) for v in worst]
        slope, se = _ols_slope(np.array(log_x), np.array(log_y))
        records.append(_record(cfg, e, "modulus_slope", slope, se, None))
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
    max(1, scale) counts as zero, where scale is the size of that level's
    compared values (None: 0); the runners work at unit scale (see
    ``_grid_cov``).  Structurally zero coordinates, such as every coordinate
    of degree 2 and 3 when d = 1, carry rounding differences of that size,
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
    r, e = _grid_cov(cfg)
    basis = kl_decompose(r)
    a = IndexSet.prefix(min(cfg.index_size, basis.rank))
    x_full = SamplePath(r.grid, sample_values(r, cfg.d, 1, _child_seed(cfg.seed, 3))[0])
    x_a = project(x_full, basis, a)
    pairs = cfg.pairs or ((0, cfg.n), (0, cfg.n // 2), (cfg.n // 4, 3 * cfg.n // 4))

    records = []
    for idx, (s, t) in enumerate(pairs):
        mean_log, se = conditional_log_mc(
            basis, a, x_a, s, t, cfg.samples, _child_seed(cfg.seed, 4, idx)
        )
        ref_levels = signature_at(x_a.values[:, s : t + 1], 3, [t - s])
        ref_log = log_levels([lv[0] for lv in ref_levels])
        corr = level3_correction(basis, a, x_a, s, t)
        tag = f"{s}-{t}"
        checks = [
            ("cond_l1_max_z", 1, ref_log[1]),
            ("cond_l2_max_z", 2, ref_log[2]),
            ("cond_l3_max_z", 3, ref_log[3] + corr.levels[3]),
            ("cond_l3_max_z_nocorr", 3, ref_log[3]),
        ]
        for name, k, ref in checks:
            mean = mean_log.levels[k]
            z = _max_z([mean - ref], [se[k - 1]], [_abs_max(mean, ref)])
            records.append(_record(cfg, e, f"{name}:{tag}", z, None, None))
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
        records.append(_record(cfg, e, f"uncond_max_z:{t}", _max_z(diffs, ses, scales), None, None))
    return records


def run_2var_bound(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Full-grid 2D 2-variation of kept-mode covariances never exceeds the
    full covariance's (same dissection both sides)."""
    r, e = _grid_cov(cfg)
    basis = kl_decompose(r)
    full_val = rho_var_2d(r.entries, 2.0, "fullgrid")
    rng = np.random.default_rng([cfg.seed, 303])
    worst = -np.inf
    for sel in _random_mode_sets(rng, basis.rank, cfg.sets):
        sub_val = rho_var_2d(partial_cov(basis, IndexSet.of(sel)).entries, 2.0, "fullgrid")
        worst = max(worst, sub_val - full_val)
    return [
        _record(cfg, e, "twovar_gap_max", worst, None, None),
        _record(cfg, e, "twovar_full_value", full_val, None, None),
    ]


def run_translation_check(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Removing a kept-mode prefix then projecting equals projecting onto the
    band directly, for every prefix pair; reports the worst deviation."""
    r, e = _grid_cov(cfg)
    basis = kl_decompose(r)
    rank = basis.rank
    worst = 0.0
    values = sample_values(r, 1, cfg.samples, _child_seed(cfg.seed, 6))
    for k in range(cfg.samples):
        x = SamplePath(r.grid, values[k])
        removed = {m: project(x, basis, IndexSet.prefix(m)) for m in range(rank + 1)}
        for a_sz in range(rank + 1):
            y = SamplePath(r.grid, x.values - removed[a_sz].values)
            for b_sz in range(a_sz + 1, rank + 1):
                lhs = project(y, basis, IndexSet.prefix(b_sz))
                rhs = project(x, basis, IndexSet.of(range(a_sz, b_sz)))
                worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    return [_record(cfg, e, "translation_max_abs_err", worst, None, None)]


def run_simulate(cfg: ExperimentConfig) -> np.ndarray:
    """Sampled path values, shape (samples, d, n_nodes)."""
    r, e = _grid_cov(cfg)
    return _rescaled(sample_values(r, cfg.d, cfg.samples, cfg.seed), e)


def run_lift(cfg: ExperimentConfig) -> list[np.ndarray]:
    """Log coordinates of the lifted samples, one array per degree 1..depth;
    degree k has shape (samples, n_nodes) + (d,)*k.  The unit-scale samples
    are lifted, and degree k is rescaled by 2^(e k)."""
    r, e = _grid_cov(cfg)
    levels = signature_at(sample_values(r, cfg.d, cfg.samples, cfg.seed), cfg.depth)
    return [_rescaled(lv, e * k) for k, lv in enumerate(log_levels(levels)[1:], start=1)]


def simulate_blocks(cfg: ExperimentConfig) -> list:
    """``simulate`` output as ``emit`` blocks of (sample, component, time,
    value) rows: one per sample and component, all sharing the time labels."""
    labels = (uniform_grid(cfg.n).times.tolist(),)
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
        labels = (times, names)
        blocks += [((s,), labels, sample.ravel().tolist()) for s, sample in enumerate(logs)]
    return blocks


def run_pvar(cfg: ExperimentConfig) -> list[ResultRecord]:
    """p-variation norm of each sampled lift (per-sample rows)."""
    r, e = _grid_cov(cfg)
    levels = signature_at(sample_values(r, cfg.d, cfg.samples, cfg.seed), 3)
    (vals,) = reduce_pair_dists(levels, None, lambda t: pvar_batch(t, cfg.p))
    return [_record(cfg, e, "pvar_norm", val, None, s) for s, val in enumerate(vals)]


def run_rhovar(cfg: ExperimentConfig) -> list[ResultRecord]:
    """2D rho-variation of the kernel's grid covariance."""
    r, e = _grid_cov(cfg)
    val = rho_var_2d(r.entries, cfg.effective_rho(), cfg.search, seed=cfg.seed)
    return [_record(cfg, e, f"rho_var_2d_{cfg.search}", val, None, None)]


def _records(run):
    """Record runner ``run`` as a producer of its one ``emit`` block."""

    def blocks(cfg: ExperimentConfig) -> list:
        return [((), run(cfg), None)]

    return blocks


class Subcommand(NamedTuple):
    """One command-line subcommand."""

    experiment: str  # the tag written to the output
    produce: Callable[[ExperimentConfig], list]  # config -> ``emit`` blocks
    keys: tuple[str, ...]  # config keys accepted beyond "kernel", "n" and "seed"
    required: tuple[str, ...] = ()  # those of ``keys`` that must be given
    min_samples: int = 0  # fewest samples; a standard error needs two draws
    lifts: bool = False  # lifts sampled paths, so fbm needs hurst > 1/4
    columns: tuple[str, ...] = CSV_COLUMNS


SUBCOMMANDS = {
    "simulate": Subcommand("simulate", simulate_blocks, ("d", "samples"), columns=PATH_COLUMNS),
    "lift": Subcommand(
        "lift", lift_blocks, ("d", "samples", "depth"), lifts=True, columns=LIFT_COLUMNS
    ),
    "kl-converge": Subcommand(
        "convergence", _records(run_convergence),
        ("d", "samples", "p", "q", "alpha", "rho", "m", "mode", "index_policy"),
        required=("p", "q", "m"), min_samples=2, lifts=True,
    ),
    "uniform-modulus": Subcommand(
        "uniform-modulus", _records(run_uniform_modulus), ("d", "samples", "sets", "lengths"),
        min_samples=2, lifts=True,
    ),
    "martingale-check": Subcommand(
        "martingale", _records(run_martingale_checks), ("d", "samples", "index_size", "pairs"),
        min_samples=2, lifts=True,
    ),
    "twovar-bound": Subcommand("twovar-bound", _records(run_2var_bound), ("sets",)),
    "translate-check": Subcommand(
        "translation", _records(run_translation_check), ("samples",), min_samples=1
    ),
    "pvar": Subcommand(
        "pvar", _records(run_pvar), ("d", "samples", "p", "rho"),
        required=("p",), min_samples=1, lifts=True,
    ),
    "rhovar": Subcommand("rhovar", _records(run_rhovar), ("rho", "search")),
}
