import json

import numpy as np
import pytest

from gaussrough import (
    ConfigError,
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
from gaussrough.experiments import _child_seed, _q_mean


def base(experiment, **kw):
    data = {"kernel": {"kind": "brownian"}, "n": 8, "seed": 1}
    data.update(kw)
    return load_config(experiment, data)


def test_load_config_basics():
    cfg = base("rhovar")
    assert cfg.kernel_name == "brownian" and cfg.n == 8 and cfg.seed == 1
    assert cfg.effective_rho() == 1.0
    cfg = load_config(
        "rhovar", {"kernel": {"kind": "fbm", "hurst": 0.4}, "n": 8, "seed": 0}
    )
    assert abs(cfg.effective_rho() - 1.25) <= 1e-15
    assert cfg.hurst == 0.4


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
    assert cfg.hurst == 0.2
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
    emit(records, "csv", str(path))
    back = read_records(str(path))
    assert back == records
    emit(records, "csv", str(tmp_path / "again.csv"))
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()
    jpath = tmp_path / "out.json"
    emit(records, "json", str(jpath))
    data = json.loads(jpath.read_text())
    assert data[0]["statistic"] == "rho_var_2d_fullgrid"
    assert data[1]["value"] == 0.123456789012345


def test_emit_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], "csv", str(path))
    assert read_records(str(path)) == []
    text = path.read_text()
    assert text.startswith("experiment,") and text.count("\n") == 1


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
    ],
)
def test_cli_non_finite_number_exit_2(tmp_path, capsys, name, config):
    # json.dumps writes NaN / Infinity, which json.load accepts.
    code, out = run_cli(tmp_path, name, config)
    assert_config_error(code, capsys, out)


def test_cli_non_finite_table_exit_2(tmp_path, capsys):
    times = uniform_grid(2).times
    vals = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, np.nan], [0.0, np.nan, 1.0]])
    table = tmp_path / "cov.csv"
    np.savetxt(table, np.vstack([times[None, :], vals]), delimiter=",")
    code, out = run_cli(tmp_path, "rhovar", dict(BROWNIAN, kernel={"kind": "table", "path": str(table)}))
    assert_config_error(code, capsys, out)


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
