import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussrough
import gaussrough.variation_metrics as vm
from gaussrough import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    emit,
    load_config,
    read_records,
    run_2var_bound,
    run_convergence,
    run_lift,
    run_martingale_checks,
    run_pvar,
    run_rhovar,
    run_simulate,
    run_translation_check,
    run_uniform_modulus,
    uniform_grid,
)
from gaussrough.cli import main
from gaussrough.experiments import SUBCOMMANDS, _child_seed, _mode_sets, _q_mean, _record
from gaussrough.gaussian_process import cov_matrix, sample_values
from gaussrough.karhunen_loeve import kl_decompose
from gaussrough.path_lift import signature_at
from gaussrough.variation_metrics import holder_batch, pvar_batch, reduce_pair_dists


# Every config key: the ExperimentConfig fields that carry a parser.
CONFIG_KEYS = [f.name for f in fields(ExperimentConfig) if "parse" in f.metadata]


def base(experiment, **kw):
    data = {"kernel": {"kind": "brownian"}, "n": 8, "seed": 1}
    data.update(kw)
    return load_config(experiment, data)


def test_load_config_basics():
    cfg = base("rhovar")
    assert cfg.kernel.kind == "brownian" and cfg.n == 8 and cfg.seed == 1
    assert cfg.effective_rho() == 1.0
    cfg = load_config(
        "rhovar", {"kernel": {"kind": "fbm", "hurst": 0.4}, "n": 8, "seed": 0}
    )
    assert abs(cfg.effective_rho() - 1.25) <= 1e-15
    assert cfg.kernel.hurst == 0.4


def test_seed_override():
    data = {"kernel": {"kind": "brownian"}, "n": 8, "seed": 1}
    cfg = load_config("rhovar", data, seed_override=99)
    assert cfg.seed == 99


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        base("rhovar", pairs=[[0, 1]])
    with pytest.raises(ConfigError):
        base("translation", bogus=3)
    with pytest.raises(ConfigError):
        load_config("made-up", {"kernel": {"kind": "brownian"}, "n": 4, "seed": 0})
    with pytest.raises(ConfigError):
        load_config(
            "rhovar",
            {"kernel": {"kind": "brownian", "hurst": 0.3}, "n": 4, "seed": 0},
        )


def test_regime_validation():
    # p inside the forbidden band [1, 2*rho] must be rejected.
    with pytest.raises(ConfigError):
        base("pvar", p=1.8, samples=1)
    cfg = base("pvar", p=2.5, samples=1)
    assert cfg.p == 2.5
    with pytest.raises(ConfigError):
        base("pvar", p=0.5, samples=1)
    # fbm with hurst <= 1/4 cannot be lifted, but rhovar may study it.
    rough = {"kernel": {"kind": "fbm", "hurst": 0.2}, "n": 8, "seed": 0}
    with pytest.raises(ConfigError):
        load_config("pvar", dict(rough, p=6.0, samples=1))
    cfg = load_config("rhovar", dict(rough))
    assert cfg.kernel.hurst == 0.2
    # effective rho for fbm raises the p threshold.
    h35 = {"kernel": {"kind": "fbm", "hurst": 0.35}, "n": 8, "seed": 0}
    with pytest.raises(ConfigError):
        load_config("pvar", dict(h35, p=2.5, samples=1))
    assert load_config("pvar", dict(h35, p=3.0, samples=1)).p == 3.0


def test_convergence_validation():
    with pytest.raises(ConfigError):
        base("convergence", q=2.0, samples=4, m=[2, 4])
    ok = base("convergence", p=2.5, q=2.0, samples=4, m=[2, 4])
    assert ok.m == (2, 4)
    with pytest.raises(ConfigError):
        base("convergence", p=2.5, q=2.0, samples=4, m=[])
    with pytest.raises(ConfigError):
        base("convergence", p=2.5, q=2.0, samples=1, m=[2])
    with pytest.raises(ConfigError):
        base("convergence", p=2.5, q=2.0, samples=4, m=[12])
    # Dyadic coarsenings must be powers of two no finer than half the grid.
    with pytest.raises(ConfigError):
        base("convergence", p=2.5, q=2.0, samples=4, m=[3], mode="dyadic")
    with pytest.raises(ConfigError):
        base("convergence", p=2.5, q=2.0, samples=4, m=[8], mode="dyadic")
    ok = base("convergence", p=2.5, q=2.0, samples=4, m=[2, 4], mode="dyadic")
    assert ok.mode == "dyadic"


def test_table_kernel_config(tmp_path):
    times = uniform_grid(3).times
    cov = np.minimum.outer(times, times)
    path = tmp_path / "cov.csv"
    rows = np.vstack([times[None, :], cov])
    np.savetxt(path, rows, delimiter=",")
    cfg = load_config(
        "rhovar", {"kernel": {"kind": "table", "path": str(path)}, "n": 3, "seed": 0}
    )
    assert cfg.kernel.kind == "table"
    with pytest.raises(ConfigError):
        load_config(
            "rhovar",
            {"kernel": {"kind": "table", "path": str(tmp_path / "nope.csv")}, "n": 3, "seed": 0},
        )


def test_emit_round_trip(tmp_path):
    records = [
        ResultRecord("rhovar", "brownian", None, 8, None, None, None, None,
                     "rho_var_2d_fullgrid", 1.0, None, 7),
        ResultRecord("convergence", "fbm", 0.35, 16, 4, 3.2, 2.0, 100,
                     "kl_pvar_qmean", 0.123456789012345, 0.002, 1),
    ]
    path = tmp_path / "out.csv"
    emit([((), records, None)], "csv", str(path))
    back = read_records(str(path))
    assert back == records
    emit([((), records, None)], "csv", str(tmp_path / "again.csv"))
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()
    jpath = tmp_path / "out.json"
    emit([((), records, None)], "json", str(jpath))
    data = json.loads(jpath.read_text())
    assert data[0]["statistic"] == "rho_var_2d_fullgrid"
    assert data[1]["value"] == 0.123456789012345


def test_emit_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit([((), [], None)], "csv", str(path))
    assert read_records(str(path)) == []
    text = path.read_text()
    assert text.startswith("experiment,") and text.count("\n") == 1


def _row_writer_text(rows, columns, fmt):
    """Reference: the row-at-a-time writer that ``emit`` replaced."""
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        json.dump([dict(zip(columns, row)) for row in rows], buf, indent=2)
        buf.write("\n")
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_blocks_match_row_writer(tmp_path, fmt):
    # A value block carries label columns whose product, first column
    # slowest, gives its label rows; a record block carries its rows.
    columns = ("a", "b", "c", "value")
    shared = ([0.0, 0.5, 1.0], ["L1[0]", 'q"uote'])
    blocks = [
        ((0,), shared, [0.0, -0.0, 1e-300, 2.0, 0.1, 3.0]),
        ((1,), shared, [-1.5, 2.0 / 3.0, 5e300, -0.0, 1.0, 0.5]),  # shared columns
        ((), [(8, None, "", 0.5), ("",)], None),
        ((2,), shared, [4.0, 5.0, 6.0, 7.0, 8.0, 9.0]),  # shared again after records
        ((3,), ([0.0, 0.5, 1.0], ["L1[0]", 'q"uote']), [1.0] * 6),  # equal, not shared
        # Equal cells of other types and signs stay distinct: 1, 1.0 and True.
        ((), ([7, 0.0, -0.0], [0.25, 1, 1.0, True], ["x,y"]), [float(i) for i in range(12)]),
        ((None, ""), (["", None],), [1.0, 0.1]),  # a head of two cells
        ((4,), ([], ["z"]), []),  # no label rows
        ((5, 6), (), [0.25]),  # no label columns: one empty label row
        ((9,), [(None,)], None),
    ]
    rows = [head + label + (() if values is None else (v,))
            for head, labels, values in blocks
            for label, v in zip(labels if values is None else itertools.product(*labels),
                                [None] * len(labels) if values is None else values)]
    assert len(rows) == 6 * 4 + 2 + 12 + 2 + 1 + 1
    assert rows[:3] == [(0, 0.0, "L1[0]", 0.0), (0, 0.0, 'q"uote', -0.0), (0, 0.5, "L1[0]", 1e-300)]
    out = tmp_path / f"out.{fmt}"
    emit(blocks, fmt, str(out), columns)
    assert out.read_text() == _row_writer_text(rows, columns, fmt)
    # A block with no label rows, or no block at all, leaves only the header.
    emit([((0,), ((),), [])], fmt, str(out), columns)
    assert out.read_text() == _row_writer_text([], columns, fmt)
    emit([], fmt, str(out), columns)
    assert out.read_text() == _row_writer_text([], columns, fmt)


def test_child_seed_distinct_and_stable():
    a = _child_seed(5, 1, 2)
    assert a == _child_seed(5, 1, 2)
    assert a != _child_seed(5, 2, 1)
    assert a != _child_seed(6, 1, 2)


def test_q_mean_constant_array():
    val, se = _q_mean(np.full(50, 3.0), 2.0)
    assert abs(val - 3.0) <= 1e-12
    assert se <= 1e-12


def test_q_mean_q1_matches_mean(rng):
    x = np.abs(rng.normal(size=200)) + 0.1
    val, se = _q_mean(x, 1.0)
    assert abs(val - np.mean(x)) <= 1e-12
    assert abs(se - np.std(x, ddof=1) / np.sqrt(x.size)) <= 1e-12


def test_run_rhovar_brownian_unit():
    for search in ("fullgrid", "hillclimb"):
        cfg = base("rhovar", search=search)
        recs = run_rhovar(cfg)
        assert len(recs) == 1
        assert recs[0].statistic == f"rho_var_2d_{search}"
        assert abs(recs[0].value - 1.0) <= 1e-10


def test_run_translation_check_small():
    cfg = base("translation", samples=3)
    recs = run_translation_check(cfg)
    assert [r.statistic for r in recs] == ["translation_max_abs_err"]
    assert recs[0].value <= 1e-10


def test_run_2var_bound_small():
    cfg = base("twovar-bound", sets=20)
    recs = run_2var_bound(cfg)
    stats = {r.statistic: r.value for r in recs}
    assert stats["twovar_gap_max"] <= 1e-10
    assert stats["twovar_full_value"] > 0.0


def test_run_simulate_shape_and_determinism():
    cfg = base("simulate", d=2, samples=3)
    vals = run_simulate(cfg)
    assert vals.shape == (3, 2, 9)
    assert np.all(vals[:, :, 0] == 0.0)
    again = run_simulate(base("simulate", d=2, samples=3))
    assert np.array_equal(vals, again)


def test_run_lift_levels():
    cfg = base("lift", d=2, samples=2, depth=2)
    logs = run_lift(cfg)
    assert len(logs) == 2
    assert logs[0].shape == (2, 9, 2)
    assert logs[1].shape == (2, 9, 2, 2)
    # Log coordinates start at zero and level 2 is antisymmetric.
    assert np.all(logs[0][:, 0, :] == 0.0)
    sym = logs[1] + np.swapaxes(logs[1], -1, -2)
    assert np.max(np.abs(sym)) <= 1e-12


def test_run_pvar_rows():
    cfg = base("pvar", p=2.6, samples=3, d=2)
    recs = run_pvar(cfg)
    assert len(recs) == 3
    assert all(r.statistic == "pvar_norm" for r in recs)
    assert [r.m for r in recs] == [0, 1, 2]
    assert all(r.value > 0 for r in recs)


def test_run_pvar_memory_bounded_in_samples():
    # The distance table of all 400 samples takes 51 MiB, and its p-th power
    # as much again; reduced chunk by chunk, one 4 MiB table, its power and the
    # 256 KiB increment arrays of one chunk are alive at a time.
    cfg = base("pvar", p=3.0, samples=400, d=1, n=128)
    tracemalloc.start()
    try:
        recs = run_pvar(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(recs) == 400
    assert peak < 24 * 2**20, peak


def test_run_convergence_kl_statistics_present():
    cfg = base(
        "convergence", p=2.5, q=2.0, samples=12, m=[2, 4, 6], d=1, n=8
    )
    recs = run_convergence(cfg)
    stats = {(r.statistic, r.m) for r in recs}
    for m in (2, 4, 6):
        assert ("kl_pvar_qmean", m) in stats
        assert ("kl_tail_pvar_qmean", m) in stats
        assert ("kl_holder_qmean", m) in stats
        assert ("kl_tail_holder_qmean", m) in stats
    # Keeping more modes shrinks the distance to the full lift.
    by_m = {r.m: r.value for r in recs if r.statistic == "kl_pvar_qmean"}
    assert by_m[6] < by_m[2]
    for r in recs:
        assert r.stderr is not None and r.stderr >= 0.0


def test_run_convergence_exact_zero_at_full_rank():
    # Keeping every mode reproduces the sampled path bit for bit, so all four
    # distances vanish exactly rather than at the cube root of rounding.
    cfg = base("convergence", p=2.5, q=2.0, samples=4, m=[64], d=3, n=64, seed=3)
    recs = run_convergence(cfg)
    assert len(recs) == 4
    assert all(r.value == 0.0 and r.stderr == 0.0 for r in recs)


def _convergence_by_count(cfg):
    # kl-mode run_convergence with one projection, two lifts and two
    # node-pair passes per kept-mode count: the reference for the stacked pass.
    grid = uniform_grid(cfg.n)
    r = cov_matrix(cfg.kernel, grid)
    basis = kl_decompose(r)
    values = sample_values(r, cfg.d, cfg.samples, _child_seed(cfg.seed, 0))
    full_levels = signature_at(values, 3)
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / cfg.p
    holder = cfg.kernel.kind in ("brownian", "fbm")

    def pvar_and_holder(x, y=None):
        return reduce_pair_dists(
            x, y, lambda t: pvar_batch(t, cfg.p), lambda t: holder_batch(t, grid.times, alpha)
        )

    records = []
    for a, m in zip(_mode_sets(cfg, basis.rank), cfg.m):
        drop = basis.phi[a.complement(basis.rank).as_array()]
        tail = np.einsum("sct,mt,mu->scu", values, drop, drop, optimize=True)
        proj = values - tail
        pvar, hold = pvar_and_holder(signature_at(proj, 3), full_levels)
        tail_pvar, tail_hold = pvar_and_holder(signature_at(tail, 3))
        for name, data in (
            ("kl_pvar_qmean", pvar),
            ("kl_tail_pvar_qmean", tail_pvar),
            ("kl_holder_qmean", hold),
            ("kl_tail_holder_qmean", tail_hold),
        ):
            if not holder and "holder" in name:
                continue
            value, se = _q_mean(data, cfg.q)
            records.append(_record(cfg, 0, name, value, se, m))  # unnormalised: e = 0
    return records


def test_run_convergence_equals_per_count_loop(tmp_path, monkeypatch):
    # Brownian motion plus an independent linear drift, tabulated: a kernel
    # without Holder rows whose rank, like fbm's and Brownian motion's, is n.
    times = np.linspace(0.0, 1.0, 9)
    table = tmp_path / "cov.csv"
    cov = np.minimum.outer(times, times) + 0.3 * np.outer(times, times)
    np.savetxt(table, np.vstack([times, cov]), delimiter=",")
    kernels = [
        {"kind": "fbm", "hurst": 0.4},
        {"kind": "brownian"},
        {"kind": "table", "path": str(table)},
    ]
    for kernel, d, samples, policy in itertools.product(kernels, (1, 3), (2, 7), ("prefix", "random")):
        cfg = base(
            "convergence", kernel=kernel, d=d, samples=samples, index_policy=policy,
            p=3.5, q=2.0, m=[3, 8, 1], seed=samples + d,
        )
        want = _convergence_by_count(cfg)
        assert len(want) == 3 * (2 if kernel["kind"] == "table" else 4)
        # Keeping all 8 modes gives exactly 0 for every distance.
        assert all(r.value == 0.0 for r in want if r.m == 8)
        assert run_convergence(cfg) == want
        # Sample groups of one and of two samples, one-sample chunks.
        monkeypatch.setattr(vm, "_PAIR_CHUNK_BYTES", 1)
        for per_group in (1, 2):
            monkeypatch.setattr(vm, "_TABLE_CHUNK_BYTES", 8 * 9**2 * 3 * per_group)
            assert run_convergence(cfg) == want
        monkeypatch.undo()


def test_run_convergence_memory_flat_in_counts():
    # Criterion 09's shape with ten kept-mode counts.  The counts' projected
    # and tail values take 2 MiB; lifting them all at once would add 12 MiB
    # per path kind, so the lifts are made one group of samples at a time.
    cfg = load_config(
        "convergence",
        {"kernel": {"kind": "fbm", "hurst": 0.4}, "n": 128, "d": 2, "p": 3.2, "q": 2.0,
         "samples": 100, "m": list(range(4, 124, 12)), "seed": 9},
    )
    tracemalloc.start()
    try:
        recs = run_convergence(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(recs) == 40
    assert peak < 20 * 2**20, peak


def test_run_convergence_dyadic_rows():
    cfg = base(
        "convergence", p=2.5, q=2.0, samples=8, m=[2, 4], mode="dyadic", n=8
    )
    recs = run_convergence(cfg)
    stats = {(r.statistic, r.m) for r in recs}
    assert ("dyadic_pvar_qmean", 2) in stats
    assert ("dyadic_pvar_qmean", 4) in stats
    assert all(r.value > 0 for r in recs)


def test_run_uniform_modulus_rows():
    cfg = base("uniform-modulus", d=1, samples=40, sets=5, lengths=[2, 4, 8], n=8)
    recs = run_uniform_modulus(cfg)
    stats = [r.statistic for r in recs]
    assert stats.count("modulus_sq_mean") == 3
    assert stats.count("modulus_slope") == 1
    means = {r.m: r.value for r in recs if r.statistic == "modulus_sq_mean"}
    # Longer windows carry more variance.
    assert means[8] > means[2]


def test_run_martingale_small():
    cfg = base(
        "martingale",
        kernel={"kind": "fbm", "hurst": 0.4},
        d=2,
        n=8,
        samples=3000,
        index_size=3,
        pairs=[[0, 8], [2, 6]],
    )
    recs = run_martingale_checks(cfg)
    stats = {r.statistic: r.value for r in recs}
    for s, t in ((0, 8), (2, 6)):
        for lvl in (1, 2, 3):
            z = stats[f"cond_l{lvl}_max_z:{s}-{t}"]
            assert np.isfinite(z) and z <= 6.0
    assert f"cond_l3_max_z_nocorr:0-8" in stats
    assert stats["uncond_max_z:8"] <= 6.0


def run_cli(tmp_path, name, config, outname="out.csv", seed=None):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / outname
    argv = [name, "--config", str(cfg_path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


def test_cli_rhovar_success(tmp_path):
    code, out = run_cli(
        tmp_path, "rhovar", {"kernel": {"kind": "brownian"}, "n": 8, "seed": 0}
    )
    assert code == 0
    recs = read_records(str(out))
    assert abs(recs[0].value - 1.0) <= 1e-10


def test_cli_json_output(tmp_path):
    code, out = run_cli(
        tmp_path,
        "rhovar",
        {"kernel": {"kind": "brownian"}, "n": 8, "seed": 0},
        outname="out.json",
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data[0]["experiment"] == "rhovar"


def test_cli_martingale_check_record_order(tmp_path):
    # n = 8: the unconditional nodes {4, 8} come in set order, 8 first.
    pairs = [[3, 3], [5, 6], [0, 8]]
    code, out = run_cli(
        tmp_path,
        "martingale-check",
        {"kernel": {"kind": "brownian"}, "n": 8, "seed": 1, "d": 3, "samples": 50, "pairs": pairs},
    )
    assert code == 0
    recs = read_records(str(out))
    want = [
        f"{stat}:{s}-{t}"
        for s, t in pairs
        for stat in ("cond_l1_max_z", "cond_l2_max_z", "cond_l3_max_z", "cond_l3_max_z_nocorr")
    ]
    assert [r.statistic for r in recs] == want + ["uncond_max_z:8", "uncond_max_z:4"]
    assert all(np.isfinite(r.value) for r in recs)


def test_cli_uniform_modulus_without_lengths(tmp_path):
    # n = 1 leaves no default interval length: no rows, exit 0.
    config = {"kernel": {"kind": "brownian"}, "n": 1, "seed": 0, "samples": 2, "sets": 1}
    code, out = run_cli(tmp_path, "uniform-modulus", config)
    assert code == 0
    assert read_records(str(out)) == []


def test_cli_config_error_exit_2(tmp_path):
    code, _ = run_cli(
        tmp_path, "pvar", {"kernel": {"kind": "brownian"}, "n": 8, "seed": 0, "p": 1.5, "samples": 1}
    )
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "x.csv"
    assert main(["pvar", "--config", str(bad), "--out", str(out)]) == 2


BROWNIAN = {"kernel": {"kind": "brownian"}, "n": 8, "seed": 0}
# Table kernels on the nodes 0, 0.5, 1: Brownian min(s, t), all zero (rank 0),
# h h^T with h = (0, 1, 2) (rank 1 on three nodes), Brownian times 1e-14, and
# a block with eigenvalues about 2 and -2.5e-11 (inside the PSD gate, with no
# Cholesky factor).
_TABLES = {
    "valid": "0,0.5,1\n0,0,0\n0,0.5,0.5\n0,0.5,1\n",
    "zero": "0,0.5,1\n0,0,0\n0,0,0\n0,0,0\n",
    "rank1": "0,0.5,1\n0,0,0\n0,1,2\n0,2,4\n",
    "tiny": "0,0.5,1\n0,0,0\n0,5e-15,5e-15\n0,5e-15,1e-14\n",
    "within_gate": "0,0.5,1\n0,0,0\n0,1,1\n0,1,0.99999999995\n",
}
PVAR = dict(BROWNIAN, p=3.0, samples=2)
KLCONV = dict(BROWNIAN, d=2, p=3.0, q=2, samples=2, m=[2])


def assert_config_error(code, capsys, out):
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, config",
    [
        ("pvar", dict(PVAR, p=float("nan"))),
        ("pvar", dict(PVAR, p=float("inf"))),
        ("kl-converge", dict(KLCONV, q=float("inf"))),
        ("kl-converge", dict(KLCONV, alpha=float("nan"))),
        ("rhovar", dict(BROWNIAN, rho=float("nan"))),
        ("rhovar", dict(BROWNIAN, rho=float("-inf"))),
        ("lift", dict(BROWNIAN, samples=1, depth=2.0)),
        ("rhovar", dict(BROWNIAN, kernel={"kind": ["x"]})),
        ("kl-converge", dict(KLCONV, m=[True])),
        ("uniform-modulus", dict(BROWNIAN, samples=2, lengths=[2, True])),
        ("martingale-check", dict(BROWNIAN, samples=2, pairs=[[0, True]])),
        ("lift", dict(BROWNIAN, samples=1, depth=True)),
        ("pvar", dict(PVAR, kernel={"kind": "fbm", "hurst": "0.4"})),
        ("rhovar", dict(BROWNIAN, rho=10**400)),
        ("pvar", dict(PVAR, rho=0.5)),
        ("kl-converge", dict(KLCONV, rho=-3.0)),
    ],
)
def test_cli_non_finite_number_exit_2(tmp_path, capsys, name, config):
    # json.dumps writes NaN / Infinity, which json.load accepts.  The later rows
    # are malformed values of other kinds: a float or bool where an integer
    # belongs, an unhashable kernel kind, a numeric string, an integer too
    # large for a float, and rho below 1, outside its range in every
    # subcommand that takes it.
    code, out = run_cli(tmp_path, name, config)
    assert_config_error(code, capsys, out)


_TOO_MANY_DOUBLES = f"samples * d * (n + 1) doubles exceed {sys.maxsize} bytes"
# The command line in a child process that alone runs under a 1.5 GB
# address-space limit.
_LIMITED_CLI = (
    "import resource, runpy; "
    "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000)); "
    "runpy.run_module('gaussrough.cli', run_name='__main__')"
)


@pytest.mark.parametrize("name, config, message", [
    ("rhovar", dict(BROWNIAN, n=10**400), f"'n' must be an integer in [1, {sys.maxsize - 1}]"),
    ("rhovar", dict(BROWNIAN, n=sys.maxsize), f"'n' must be an integer in [1, {sys.maxsize - 1}]"),
    ("simulate", dict(BROWNIAN, samples=10**31), f"'samples' must be an integer in [0, {sys.maxsize}]"),
    ("simulate", dict(BROWNIAN, samples=2**62, d=4), _TOO_MANY_DOUBLES),
    ("simulate", dict(BROWNIAN, samples=sys.maxsize // 72 + 1), _TOO_MANY_DOUBLES),
    ("kl-converge", dict(KLCONV, samples=2**60), _TOO_MANY_DOUBLES),
    ("martingale-check", dict(BROWNIAN, samples=2**59, d=2), _TOO_MANY_DOUBLES),
    ("translate-check", dict(BROWNIAN, samples=2**60), _TOO_MANY_DOUBLES),
], ids=["rhovar-n", "rhovar-n-nodes", "simulate-samples", "simulate-samples-d",
        "simulate-bytes", "kl-converge-samples", "martingale-samples", "translate-samples"])
def test_cli_process_huge_size_exit_2(tmp_path, name, config, message):
    # A size beyond sys.maxsize, the largest index numpy can hold, is a config
    # error, and so is a grid whose n + 1 nodes exceed it, or draws of
    # samples * d * (n + 1) doubles beyond sys.maxsize bytes; numpy itself
    # would raise ValueError or IndexError with a traceback.  The child alone
    # runs under a 1.5 GB address-space limit, so no case can allocate its way
    # past the check.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(gaussrough.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, name, "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2 and not out.exists()
    lines = proc.stderr.splitlines()
    assert lines == [f"config error: {message}"]


def test_int_upper_bounds():
    # The seed is not a size: any non-negative integer selects a stream.
    assert base("rhovar", seed=10**30).seed == 10**30
    assert base("rhovar", n=sys.maxsize - 1).n == sys.maxsize - 1
    # Draws of at most sys.maxsize bytes pass validation (n = 8: nine nodes).
    assert base("simulate", samples=sys.maxsize // 72).samples == sys.maxsize // 72
    assert base("simulate", samples=sys.maxsize // 144, d=2).d == 2
    with pytest.raises(ConfigError, match="doubles exceed"):
        base("simulate", samples=sys.maxsize // 144 + 1, d=2)


def test_cli_non_finite_table_exit_2(tmp_path, capsys):
    times = uniform_grid(2).times
    vals = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, np.nan], [0.0, np.nan, 1.0]])
    table = tmp_path / "cov.csv"
    np.savetxt(table, np.vstack([times[None, :], vals]), delimiter=",")
    code, out = run_cli(tmp_path, "rhovar", dict(BROWNIAN, kernel={"kind": "table", "path": str(table)}))
    assert_config_error(code, capsys, out)


def test_cli_one_value_table_exit_2(tmp_path, capsys):
    table = tmp_path / "cov.csv"
    table.write_text("0\n")
    code, out = run_cli(tmp_path, "rhovar", dict(BROWNIAN, kernel={"kind": "table", "path": str(table)}))
    assert_config_error(code, capsys, out)


def test_cli_large_scale_table_symmetry_is_relative(tmp_path, capsys):
    # (q*lam) @ q.T at scale 1e6 is PD but asymmetric by rounding (about
    # 1e-10): accepted and sampled.  A clearly asymmetric table still exits 2.
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    vals = (q * (rng.uniform(0.5, 2.0, 6) * 1e6)) @ q.T
    assert np.max(np.abs(vals - vals.T)) > 1e-12
    table = tmp_path / "cov.csv"
    config = dict(BROWNIAN, kernel={"kind": "table", "path": str(table)}, d=1, samples=2)
    np.savetxt(table, np.vstack([np.linspace(0.0, 1.0, 6)[None, :], vals]), delimiter=",")
    code, out = run_cli(tmp_path, "simulate", config)
    assert code == 0 and out.exists()
    out.unlink()
    vals[0, 1] += 1e-3 * vals[0, 0]
    np.savetxt(table, np.vstack([np.linspace(0.0, 1.0, 6)[None, :], vals]), delimiter=",")
    code, out = run_cli(tmp_path, "simulate", config)
    assert_config_error(code, capsys, out)


@pytest.mark.parametrize("target", ["missing/out.csv", "."])
def test_cli_bad_out_exit_2_before_sampling(tmp_path, capsys, monkeypatch, target):
    # An --out in a missing directory, or naming a directory, is refused
    # before any covariance is built.
    def fail(*args):
        raise AssertionError("sampled before checking --out")

    monkeypatch.setattr(gaussrough.experiments, "cov_matrix", fail)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(BROWNIAN, samples=2)))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / target)])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1 and err.startswith("config error: --out")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_out_of_memory_exit_3(tmp_path):
    # rhovar at n = 20000 needs a 3.2 GB covariance; the child alone runs
    # under a 1.5 GB address-space limit, so the allocation fails at once.
    pytest.importorskip("resource")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(BROWNIAN, n=20000)))
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(gaussrough.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "rhovar", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3 and not out.exists()
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: out of memory")


def test_cli_negative_seed_exit_2(tmp_path, capsys):
    code, out = run_cli(tmp_path, "pvar", PVAR, seed=-1)
    assert_config_error(code, capsys, out)


def test_cli_brute_search_too_large_exit_2(tmp_path, capsys):
    code, out = run_cli(tmp_path, "rhovar", dict(BROWNIAN, n=11, search="brute"))
    assert_config_error(code, capsys, out)
    code, out = run_cli(tmp_path, "rhovar", dict(BROWNIAN, n=10, search="brute"))
    assert code == 0 and out.exists()


def test_cli_data_error_exit_3(tmp_path):
    times = uniform_grid(2).times
    vals = np.array([[1.0, 0.0, 0.9], [0.0, 1.0, 0.0], [0.9, 0.0, -0.5]])
    table = tmp_path / "cov.csv"
    np.savetxt(table, np.vstack([times[None, :], vals]), delimiter=",")
    code, _ = run_cli(
        tmp_path,
        "simulate",
        {"kernel": {"kind": "table", "path": str(table)}, "n": 2, "seed": 0, "samples": 2},
    )
    assert code == 3


@pytest.mark.parametrize(
    "sub, keys",
    [
        ("uniform-modulus", dict(samples=2)),
        ("twovar-bound", {}),
        ("kl-converge", dict(samples=2, p=3.0, q=2, m=[1])),
    ],
    ids=["uniform-modulus", "twovar-bound", "kl-converge"],
)
def test_cli_rank_zero_covariance_exit_3(tmp_path, capsys, sub, keys):
    # An all-zero table kernel leaves no KL mode to draw a random mode set
    # from, and no mode to keep.
    table = tmp_path / "cov.csv"
    table.write_text(_TABLES["zero"])
    config = dict(BROWNIAN, n=4, kernel={"kind": "table", "path": str(table)}, **keys)
    code, out = run_cli(tmp_path, sub, config)
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert len(err.splitlines()) == 1 and err.startswith("data error: ")


@pytest.mark.parametrize("seed", [11, 12])
def test_cli_uniform_modulus_zero_mean_exit_3(tmp_path, capsys, seed):
    # The path is 0 on [0, 0.5], so every mode set has mean squared norm 0 at
    # the shortest lengths and the log-log slope is undefined.
    table = tmp_path / "cov.csv"
    table.write_text("0,0.5,1\n0,0,0\n0,0,0\n0,0,1\n")
    config = {"kernel": {"kind": "table", "path": str(table)}, "n": 16, "seed": seed,
              "d": 2, "samples": 4, "lengths": [1, 2, 4]}
    code, out = run_cli(tmp_path, "uniform-modulus", config)
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert len(err.splitlines()) == 1 and err.startswith("data error: ")


def _fbm_table(path, scale, hurst, nodes=9):
    t = np.linspace(0.0, 1.0, nodes)
    a, b = np.meshgrid(t, t, indexing="ij")
    vals = scale * 0.5 * (a ** (2 * hurst) + b ** (2 * hurst) - np.abs(b - a) ** (2 * hurst))
    np.savetxt(path, np.vstack([t[None, :], vals]), delimiter=",")
    return {"kind": "table", "path": str(path)}


def test_martingale_check_large_scale_table_z_bounded(tmp_path):
    # fbm(H=0.3) tabulated on 9 nodes, at scale 1 and 1e4: structurally zero
    # log-lift coordinates differ by rounding far above an absolute 1e-12,
    # and must not be scored as signal.  The z-scores do not depend on the
    # units, so every record at 1e4 equals its scale-1 value.  The _nocorr
    # rows omit the degree-3 correction on purpose and may be large.
    for seed in range(1, 9):
        recs = {}
        for scale in (1.0, 1e4):
            kernel = _fbm_table(tmp_path / f"cov{scale}.csv", scale, 0.3)
            cfg = load_config(
                "martingale", {"kernel": kernel, "n": 16, "seed": seed, "d": 2, "samples": 60}
            )
            recs[scale] = {rec.statistic: rec.value for rec in run_martingale_checks(cfg)}
        assert recs[1.0].keys() == recs[1e4].keys()
        for stat, value in recs[1.0].items():
            assert abs(recs[1e4][stat] - value) <= 1e-9 * abs(value), (seed, stat)
            if stat.startswith("cond_") and "_nocorr" not in stat:
                assert value <= 5.0, (seed, stat, value)


def test_cli_martingale_check_huge_table_exit_0(tmp_path):
    # 1e8 x fbm(H=0.35): level-2 antisymmetry is checked relative to the
    # level's own scale, so rounding at 1e8 is not an invalid Lie element.
    kernel = _fbm_table(tmp_path / "cov.csv", 1e8, 0.35)
    config = {"kernel": kernel, "n": 16, "seed": 3, "d": 2, "samples": 40, "index_size": 4}
    code, out = run_cli(tmp_path, "martingale-check", config)
    assert code == 0
    assert all(np.isfinite(r.value) for r in read_records(str(out)))


def test_martingale_check_z_scores_scale_free(tmp_path):
    # The differences counted as zero are relative to the compared values'
    # own scale, so a table in other units gives the same z-scores.  With a
    # max(1, scale) floor, every level-3 row read 0.0 at scale 1e-8.
    config = {"n": 16, "seed": 3, "d": 2, "samples": 40, "index_size": 4}
    stats = {}
    for scale in (1e-8, 1.0, 1e8):
        kernel = _fbm_table(tmp_path / "cov.csv", scale, 0.35)
        code, out = run_cli(tmp_path, "martingale-check", dict(config, kernel=kernel))
        assert code == 0
        stats[scale] = {r.statistic: r.value for r in read_records(str(out))}
    ref = stats.pop(1.0)
    assert ref["cond_l3_max_z:0-16"] > 0.1
    for scale, got in stats.items():
        assert got.keys() == ref.keys()
        for stat, value in ref.items():
            if stat.startswith("cond_"):
                assert abs(got[stat] - value) <= 1e-12 * value, (scale, stat)


@pytest.mark.parametrize("kernel", [{"kind": "brownian"}, {"kind": "fbm", "hurst": 0.4}])
def test_martingale_check_one_component_higher_levels_zero(kernel):
    # With d = 1 the log lift has no degree 2 or 3: those coordinates are
    # rounding, which the zero threshold (relative to max(1, scale) at unit
    # scale) must not score as signal.
    cfg = load_config("martingale", {"kernel": kernel, "n": 16, "seed": 3, "d": 1, "samples": 40,
                                     "index_size": 4})
    stats = {r.statistic: r.value for r in run_martingale_checks(cfg)}
    higher = [v for stat, v in stats.items() if stat.startswith(("cond_l2", "cond_l3"))]
    assert len(higher) == 9 and all(v == 0.0 for v in higher)
    assert stats["cond_l1_max_z:0-16"] > 0.0


# Every subcommand, kl-converge in both modes and martingale-check at d = 1 and 2.
_SCALED_CONFIGS = [
    ("simulate", {"d": 2, "samples": 2}),
    ("lift", {"d": 2, "samples": 2, "depth": 3}),
    ("kl-converge", {"d": 2, "p": 3.0, "q": 2, "samples": 3, "m": [2, 4]}),
    ("kl-converge", {"d": 2, "p": 3.0, "q": 2, "samples": 3, "m": [2, 4], "mode": "dyadic"}),
    ("uniform-modulus", {"d": 2, "samples": 4, "sets": 3, "lengths": [2, 4, 8]}),
    ("martingale-check", {"d": 2, "samples": 40, "index_size": 4}),
    ("martingale-check", {"d": 1, "samples": 40, "index_size": 4}),
    ("twovar-bound", {"sets": 5}),
    ("translate-check", {"samples": 2}),
    ("pvar", {"d": 2, "p": 3.0, "samples": 2}),
    ("rhovar", {"search": "hillclimb"}),
]


def _sqrt_scale_power(name, row):
    """Power of sqrt(c) by which a value scales when the covariance does by c.

    Kept apart from the package's own degree table, as an independent oracle.
    """
    if name == "simulate":
        return 1
    if name == "lift":
        return int(row["coordinate"][1])
    stat = row["statistic"]
    if stat.startswith(("cond_", "uncond_", "modulus_slope")):
        return 0
    if stat.startswith(("modulus_sq_mean", "twovar_", "rho_var_2d")):
        return 2
    return 1  # p-variation and Holder distances, translation error


def _run_scaled(tmp_path, name, config, k):
    """Exit code and output text of ``name`` on the fbm(H=0.35) table times 4^k."""
    kernel = _fbm_table(tmp_path / "cov.csv", 4.0**k, 0.35)
    code, out = run_cli(tmp_path, name, dict(config, kernel=kernel))
    return code, out.read_text() if code == 0 else None


def _assert_covariant(name, ref, got, k):
    """Every value and stderr of ``got`` equals 2^(k * degree) times its
    ``ref`` counterpart, and every other cell is equal."""
    ref, got = (list(csv.DictReader(io.StringIO(text))) for text in (ref, got))
    assert ref and len(got) == len(ref), k
    for want, row in zip(ref, got):
        factor = 2.0 ** (k * _sqrt_scale_power(name, want))
        for col, value in want.items():
            if col in ("value", "stderr") and value:
                assert float(row[col]) == factor * float(value), (k, want, row[col])
            else:
                assert row[col] == value, (k, col)


@pytest.mark.parametrize("name, extra", _SCALED_CONFIGS)
def test_subcommands_covariant_under_table_scaling(tmp_path, name, extra):
    # Multiplying the table by c = 4^k scales paths and distances by
    # sqrt(c) = 2^k, degree-m lift coordinates by c^(m/2), rho-variations and
    # mean squared norms by c, and z-scores and slopes not at all.  The
    # runners work on the table divided by the power of four that puts its
    # largest value in [1, 4), the same table for every k, so the images are
    # exact, far beyond where squares of the raw scale overflow.
    config = dict(extra, n=16, seed=3)
    code, ref = _run_scaled(tmp_path, name, config, 0)
    assert code == 0
    for k in (-250, -100, -24, -20, 20, 24, 100, 250):
        code, got = _run_scaled(tmp_path, name, config, k)
        assert code == 0, k
        _assert_covariant(name, ref, got, k)


@pytest.mark.parametrize(
    "name, extra, k",
    [
        ("martingale-check", {"d": 2, "samples": 20, "index_size": 3}, 498),
        ("simulate", {"d": 2, "samples": 2}, 400),
        ("lift", {"d": 2, "samples": 2, "depth": 3}, 400),
    ],
)
def test_cli_extreme_table_scales(tmp_path, capsys, name, extra, k):
    # The ends of the exit contract.  At 4^498 (about 1e300) every
    # martingale-check record has degree 0, so its CSV equals the k = 0 one
    # byte for byte.  At 4^400 simulate's paths are 2^400 times the k = 0
    # paths, but lift's level 3, about 2^1200, cannot be represented.
    config = dict(extra, n=8, seed=1)
    code, ref = _run_scaled(tmp_path, name, config, 0)
    assert code == 0
    (tmp_path / "out.csv").unlink()
    code, got = _run_scaled(tmp_path, name, config, k)
    err = capsys.readouterr().err
    if name == "lift":
        assert code == 3 and not (tmp_path / "out.csv").exists()
        assert len(err.splitlines()) == 1 and err.startswith("data error: lifted log coordinates")
        return
    assert code == 0 and err == ""
    if name == "martingale-check":
        assert got == ref
    _assert_covariant(name, ref, got, k)


def test_cli_twovar_bound_tiny_table_covariant(tmp_path):
    # The valid table times 4^-283 (about 1.4e-170): squaring its cells
    # underflows at that scale, but not at the unit scale the runners use,
    # so both statistics are exactly 4^-283 times the unscaled ones.
    raw = np.loadtxt(io.StringIO(_TABLES["valid"]), delimiter=",")
    kernel = {"kind": "table", "path": str(tmp_path / "cov.csv")}
    values = {}
    for k in (0, -283):
        np.savetxt(kernel["path"], np.vstack([raw[:1], 4.0**k * raw[1:]]), delimiter=",")
        code, out = run_cli(tmp_path, "twovar-bound", dict(BROWNIAN, n=4, seed=1, sets=2, kernel=kernel))
        assert code == 0
        values[k] = [r.value for r in read_records(str(out))]
    assert values[0][1] > 0.0
    assert values[-283] == [4.0**-283 * v for v in values[0]]


def test_cli_non_finite_statistic_exit_3(tmp_path, capsys):
    # p = 1e300 passes validation, but the distances to the power p overflow.
    code, out = run_cli(tmp_path, "pvar", dict(PVAR, p=1e300))
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("data error: pvar_norm is not finite")


def test_cli_pvar_tiny_distances_do_not_underflow(tmp_path):
    # Only the table maximum sets the unit scale, so the grid variances 0 and
    # 1e-300 stay tiny: each distance (about 1e-155 at unit scale) cubed
    # underflows.  On one segment the norm is the increment's level-1 size,
    # |X_1 - X_0| = |X_1|, which simulate writes at t = 1.
    table = tmp_path / "cov.csv"
    table.write_text("0,0.5,1\n0,0,0\n0,1e10,0\n0,0,1e-300\n")
    config = {"kernel": {"kind": "table", "path": str(table)}, "n": 1, "seed": 4}
    config.update(d=1, samples=2)
    env = dict(os.environ, PYTHONPATH=str(Path(gaussrough.__file__).parents[1]))
    outputs = {}
    for name, extra in (("pvar", {"p": 3.0}), ("simulate", {})):
        cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        cfg.write_text(json.dumps(dict(config, **extra)))
        proc = subprocess.run(
            [sys.executable, "-m", "gaussrough.cli", name, "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        outputs[name] = list(csv.DictReader(io.StringIO(out.read_text())))
    ends = [abs(float(row["value"])) for row in outputs["simulate"] if float(row["time"]) == 1.0]
    norms = [float(row["value"]) for row in outputs["pvar"]]
    assert len(norms) == len(ends) == 2 and min(ends) > 0.0
    for norm, end in zip(norms, ends):
        assert abs(norm - end) <= 1e-12 * end


@pytest.mark.parametrize(
    "table, rho, search",
    [(None, 600, "fullgrid"), ("tiny", 30, "fullgrid"), ("tiny", 30, "hillclimb")],
)
def test_cli_rhovar_underflow_exit_3(tmp_path, capsys, table, rho, search):
    # Brownian motion at n=4 has rho-variation 0.25 * 4^(1/600), about
    # 0.2506, at rho=600, though every |cell|^rho underflows: the sum is
    # redone on the covariance scaled up by a power of two.  Brownian motion
    # times 1e-14 at rho=30 underflows only at its own scale, not at the unit
    # scale the runners use, so its value is 1e-14 times the unscaled table's.
    config = dict(BROWNIAN, n=4, rho=rho, search=search)
    if table is None:
        code, out = run_cli(tmp_path, "rhovar", config)
        assert code == 0 and capsys.readouterr().err == ""
        (value,) = [r.value for r in read_records(str(out))]
        exact = 0.25 * 4 ** (1 / 600)
        assert abs(value - exact) <= 1e-12 * exact
        return
    values = {}
    for name in ("valid", table):
        (tmp_path / "cov.csv").write_text(_TABLES[name])
        kernel = {"kind": "table", "path": str(tmp_path / "cov.csv")}
        code, out = run_cli(tmp_path, "rhovar", dict(config, kernel=kernel))
        assert code == 0
        (values[name],) = [r.value for r in read_records(str(out))]
    image = 1e-14 * values["valid"]
    assert abs(values[table] - image) <= 1e-12 * image


def test_cli_rhovar_zero_covariance_is_zero(tmp_path):
    # An exactly zero covariance has rho-variation 0 at any rho.
    (tmp_path / "cov.csv").write_text(_TABLES["zero"])
    kernel = {"kind": "table", "path": str(tmp_path / "cov.csv")}
    code, out = run_cli(tmp_path, "rhovar", dict(BROWNIAN, n=4, kernel=kernel, rho=600))
    assert code == 0
    assert [row["value"] for row in csv.DictReader(out.open())] == ["0.0"]


@pytest.mark.parametrize(
    "config, code, message",
    [
        (dict(BROWNIAN, d=2, samples=3, p=1e300), 3, "data error: pvar_norm is not finite"),
        # numpy's loadtxt warns on an empty file before the kernel fails.
        (
            dict(PVAR, kernel={"kind": "table", "path": "empty.csv"}), 2,
            "config error: bad kernel: a table file holds one row of k times, then k rows"
            " of k values (k >= 2); found no values",
        ),
        (
            dict(PVAR, kernel={"kind": "table", "path": "one.csv"}), 2,
            "config error: bad kernel: a table file holds one row of k times, then k rows"
            " of k values (k >= 2); found shape (1, 1)",
        ),
    ],
    ids=["overflow", "empty-table", "one-value-table"],
)
def test_cli_process_overflow_one_stderr_line(tmp_path, config, code, message):
    # Run as a user would: no pytest warning capture between numpy and stderr.
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "one.csv").write_text("5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(gaussrough.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "gaussrough.cli", "pvar", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == code and not out.exists()
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_cli_failed_write_exit_2(tmp_path, capsys):
    # /dev/full passes the --out checks, then every write to it fails.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BROWNIAN))
    code = main(["rhovar", "--config", str(cfg), "--out", "/dev/full"])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1
    assert err.startswith("config error: cannot write --out '/dev/full'")


def test_cli_write_failing_part_way_leaves_no_file(tmp_path):
    # The child alone may write at most 4096 bytes to a file and ignores
    # SIGXFSZ, so writing the ~30 kB lift fails part way with EFBIG.
    pytest.importorskip("resource")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": {"kind": "fbm", "hurst": 0.4}, "n": 64, "seed": 0,
                               "d": 2, "samples": 2, "depth": 2}))
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(gaussrough.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    child = (
        "import resource, runpy, signal; "
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
        "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)); "
        "runpy.run_module('gaussrough.cli', run_name='__main__')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, "lift", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2 and not out.exists()
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: cannot write --out {str(out)!r}")


def test_cli_lift_overflow_exit_3(tmp_path, capsys):
    # A huge covariance samples finite paths whose lift overflows.
    times = uniform_grid(4).times
    table = tmp_path / "cov.csv"
    np.savetxt(table, np.vstack([times[None, :], 1e300 * np.minimum.outer(times, times)]), delimiter=",")
    config = {"kernel": {"kind": "table", "path": str(table)}, "n": 4, "seed": 0, "d": 2, "samples": 1}
    code, out = run_cli(tmp_path, "lift", config)
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("data error: lifted log coordinates")


def test_cli_simulate_format(tmp_path):
    code, out = run_cli(
        tmp_path,
        "simulate",
        {"kernel": {"kind": "brownian"}, "n": 4, "seed": 0, "d": 2, "samples": 2},
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "sample,component,time,value"
    assert len(lines) == 1 + 2 * 2 * 5


def test_cli_lift_format(tmp_path):
    code, out = run_cli(
        tmp_path,
        "lift",
        {"kernel": {"kind": "brownian"}, "n": 4, "seed": 0, "d": 2, "samples": 1, "depth": 2},
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "sample,time,coordinate,value"
    # Depth 2 in two dimensions: 2 + 4 coordinates per node.
    assert len(lines) == 1 + (2 + 4) * 5


@pytest.mark.parametrize(
    "name, columns",
    [("simulate", ["sample", "component", "time", "value"]),
     ("lift", ["sample", "time", "coordinate", "value"])],
)
def test_cli_path_json_output(tmp_path, name, columns):
    cfg = dict(BROWNIAN, n=4, d=2, samples=2)
    code, csv_out = run_cli(tmp_path, name, cfg, outname="out.csv")
    assert code == 0
    code, json_out = run_cli(tmp_path, name, cfg, outname="out.json")
    assert code == 0
    rows = json.loads(json_out.read_text())
    assert len(rows) == len(csv_out.read_text().splitlines()) - 1
    assert all(list(row) == columns for row in rows)


def _reference_simulate_rows(cfg):
    times = uniform_grid(cfg.n).times.tolist()
    values = run_simulate(cfg)
    for s, sample in enumerate(values):
        for c, path in enumerate(sample.tolist()):
            for t, v in zip(times, path):
                yield s, c, t, v


def _reference_lift_rows(cfg):
    times = uniform_grid(cfg.n).times.tolist()
    lifts = run_lift(cfg)
    for k, logs in enumerate(lifts, start=1):
        names = ["L%d[%s]" % (k, ",".join(map(str, ix))) for ix in np.ndindex(logs.shape[2:])]
        for s, sample in enumerate(logs):
            for t, coords in zip(times, sample.reshape(len(times), -1).tolist()):
                for name, v in zip(names, coords):
                    yield s, t, name, v


@pytest.mark.parametrize("kernel", ["brownian", "fbm", "table"])
@pytest.mark.parametrize("name", ["simulate", "lift"])
def test_cli_long_format_matches_row_writer(tmp_path, name, kernel):
    # The CLI's CSV and JSON bytes equal the row-at-a-time writer's over the
    # per-row generators.  The table kernel's middle node has variance zero.
    table = tmp_path / "cov.csv"
    table.write_text("0,0.5,1\n0,0,0\n0,0,0\n0,0,1\n")
    kernels = {"brownian": {"kind": "brownian"}, "fbm": {"kind": "fbm", "hurst": 0.4},
               "table": {"kind": "table", "path": str(table)}}
    experiment, columns = SUBCOMMANDS[name].experiment, SUBCOMMANDS[name].columns
    reference = {"simulate": _reference_simulate_rows, "lift": _reference_lift_rows}[name]
    depths = [1, 2, 3] if name == "lift" else [None]
    for d, depth, n, samples in itertools.product([1, 2, 3], depths, [1, 5], [0, 2]):
        config = {"kernel": kernels[kernel], "n": n, "seed": 3, "d": d, "samples": samples}
        if depth is not None:
            config["depth"] = depth
        rows = list(reference(load_config(experiment, config)))
        assert len(rows) == samples * (n + 1) * (d if depth is None else sum(d**k for k in range(1, depth + 1)))
        for fmt in ("csv", "json"):
            code, out = run_cli(tmp_path, name, config, outname=f"out.{fmt}")
            assert code == 0
            assert out.read_text() == _row_writer_text(rows, columns, fmt), (config, fmt)


def test_cli_parser_reused_after_usage_error(tmp_path, capsys):
    # The parser is built once per process: a usage error (exit 2) leaves it
    # fit for the next call, which writes what the same call writes alone.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(BROWNIAN, d=2, samples=2, depth=2)))
    argv = ["lift", "--config", str(cfg), "--out"]
    env = dict(os.environ, PYTHONPATH=str(Path(gaussrough.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "gaussrough.cli", *argv, str(tmp_path / "alone.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    with pytest.raises(SystemExit) as exc:
        main(["lift", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert main([*argv, str(tmp_path / "after.csv")]) == 0
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_cli_seed_override_changes_output(tmp_path):
    cfg = {"kernel": {"kind": "brownian"}, "n": 6, "seed": 0, "samples": 1}
    _, a = run_cli(tmp_path, "simulate", cfg, outname="a.csv")
    _, b = run_cli(tmp_path, "simulate", cfg, outname="b.csv", seed=5)
    assert a.read_text() != b.read_text()


def test_dyadic_decay_committed_factor():
    # Successive dyadic distances shrink by at least the recorded per-doubling
    # factor, up to 2 SE; the first doubling is near-flat, so the recorded
    # factor is 1 (Cauchy behavior, no rate claim).
    from pathlib import Path

    fx = json.loads(
        (Path(__file__).parent / "fixtures" / "calibration.json").read_text()
    )["dyadic"]
    cfg = load_config(
        "convergence",
        {
            "kernel": fx["kernel"],
            "n": fx["n"],
            "seed": 36,
            "d": fx["d"],
            "p": fx["p"],
            "q": fx["q"],
            "samples": fx["samples"],
            "m": fx["m"],
            "mode": "dyadic",
        },
    )
    recs = sorted(run_convergence(cfg), key=lambda r: r.m)
    factor = fx["per_doubling_factor"]
    for lo, hi in zip(recs[:-1], recs[1:]):
        slack = 2.0 * float(np.hypot(lo.stderr, factor * hi.stderr))
        assert factor * hi.value <= lo.value + slack


def test_readme_key_table_matches_schema():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            table[cells[0].strip("`")] = set(re.findall(r"`([a-z_]+)`", cells[1]))
    assert table == {sub: set(entry.keys) for sub, entry in SUBCOMMANDS.items()}
    # Every accepted key has a parser (load_config drops keys without one),
    # every parsed key is accepted somewhere, every required key is accepted,
    # and no two subcommands share a tag.
    entries = SUBCOMMANDS.values()
    assert set().union(*(e.keys for e in entries)) == set(CONFIG_KEYS) - {"kernel", "n", "seed"}
    assert all(set(e.required) <= set(e.keys) for e in entries)
    assert len({e.experiment for e in entries}) == len(SUBCOMMANDS)


# Valid values for every schema key except the universal ones, with n <= 8.
_GOOD = {
    "d": st.integers(1, 3),
    "samples": st.one_of(st.integers(2, 3), st.integers(0, 1)),
    "p": st.one_of(st.floats(4.5, 12.0), st.floats(1.0, 4.5)),
    "q": st.floats(1.0, 4.0),
    "alpha": st.floats(0.0, 1.0),
    "rho": st.floats(1.0, 2.0),
    "m": st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=3),
    "mode": st.sampled_from(["kl", "dyadic"]),
    "index_policy": st.sampled_from(["prefix", "random"]),
    "sets": st.integers(1, 5),
    "lengths": st.lists(st.integers(1, 8), max_size=3),
    "index_size": st.integers(1, 8),
    "pairs": st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)).map(sorted), max_size=3
    ),
    "depth": st.integers(1, 3),
    "search": st.sampled_from(["fullgrid", "hillclimb", "brute"]),
}
# Wrong types, non-finite and out-of-range numbers, for any key.
_BAD = st.one_of(
    st.integers(-2, 3),
    st.floats(-4.0, 12.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300, -0.0]),
    st.booleans(),
    st.none(),
    st.sampled_from(["kl", "brute", "0.4", ""]),
    st.lists(st.one_of(st.integers(-1, 9), st.booleans(), st.floats(0, 8)), max_size=3),
    st.lists(st.lists(st.integers(-1, 9), max_size=3), max_size=3),
    st.sampled_from([
        {"kind": "fbm"},
        {"kind": ["x"]},
        {"kind": "made-up"},
        {"kind": "brownian", "hurst": 0.3},
        {"kind": "fbm", "hurst": "0.4"},
        {"kind": "fbm", "hurst": True},
        {"kind": "table", "path": 0},
    ]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exit_codes(data):
    sub = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    config = {
        "kernel": data.draw(st.one_of(
            st.just({"kind": "brownian"}),
            st.one_of(st.floats(0.3, 0.95), st.floats(0.05, 0.3)).map(
                lambda h: {"kind": "fbm", "hurst": h}),
            st.sampled_from(sorted(_TABLES)).map(lambda name: {"kind": "table", "path": name}),
        )),
        "n": data.draw(st.integers(1, 8)),
        "seed": data.draw(st.integers(0, 2**32)),
    }
    keys = SUBCOMMANDS[sub].keys
    omit = data.draw(st.sets(st.sampled_from(keys), max_size=2))
    config.update({key: data.draw(_GOOD[key]) for key in keys if key not in omit})
    # Half the configs get up to two wrong values or unknown keys.
    config.update(data.draw(st.one_of(
        st.just({}),
        st.dictionaries(st.sampled_from(sorted(CONFIG_KEYS) + ["bogus"]), _BAD, min_size=1, max_size=2),
    )))
    ext = data.draw(st.sampled_from([".csv", ".json"]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / ("out" + ext)
        kernel = config.get("kernel")
        if isinstance(kernel, dict) and kernel.get("path") in _TABLES:
            table = Path(tmp) / "cov.csv"
            table.write_text(_TABLES[kernel["path"]])
            config["kernel"] = dict(kernel, path=str(table))
        cfg_path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([sub, "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 2, 3)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and "Traceback" not in lines[0]
            assert lines[0].startswith("config error: " if code == 2 else "data error: ")
            return
        text = out.read_text()
    if ext == ".json":
        rows = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in JSON output"))
        cells = [v for row in rows for v in row.values()]
    else:
        cells = [c for row in csv.reader(io.StringIO(text)) for c in row]
    for cell in cells:
        try:
            value = float(cell)
        except (TypeError, ValueError):
            continue
        assert math.isfinite(value), (sub, config, cell)
