"""Acceptance suite: twelve numbered criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test also fails loudly through its assertion.
"""

import json
import time
from pathlib import Path

import numpy as np

from gaussrough import (
    CovKernel,
    IndexSet,
    SamplePath,
    coefficients,
    conditional_log_mc,
    cov_matrix,
    dilate,
    dist,
    exp,
    hom_norm,
    inverse,
    kl_decompose,
    level2_double_sum,
    level3_correction,
    lift_pl,
    load_config,
    log,
    max_abs_diff,
    mul,
    partial_cov,
    project,
    pvar_dist,
    pvar_norm,
    rho_var_2d,
    run_2var_bound,
    run_convergence,
    run_translation_check,
    run_uniform_modulus,
    shuffle_defect,
    signature_increment,
    uniform_grid,
    unit,
    young_integral_quadratic,
)
from gaussrough.experiments import _max_z, _ols_slope
from gaussrough.gaussian_process import sample_values
from gaussrough.karhunen_loeve import _residual_rect_integrand
from conftest import random_group, random_lie, random_path

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "calibration.json").read_text()
)


def report(num: int, ok: bool, detail: str, t0: float, budget: float) -> None:
    dt = time.time() - t0
    line = f"ACCEPTANCE {num:02d} {'pass' if ok and dt <= budget else 'FAIL'} {detail} ({dt:.1f}s)"
    print(line)
    assert ok, line
    assert dt <= budget, line


def test_criterion_01_algebra():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = {"assoc": 0.0, "axiom": 0.0, "roundtrip": 0.0, "dilation": 0.0, "shuffle": 0.0}
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        g, h, k = (random_group(rng, d) for _ in range(3))
        worst["assoc"] = max(worst["assoc"], max_abs_diff(mul(mul(g, h), k), mul(g, mul(h, k))))
        worst["axiom"] = max(
            worst["axiom"],
            max_abs_diff(mul(g, unit(d, 3)), g),
            max_abs_diff(mul(g, inverse(g)), unit(d, 3)),
        )
        l = random_lie(rng, d)
        worst["roundtrip"] = max(
            worst["roundtrip"], max_abs_diff(log(exp(l)), l), max_abs_diff(exp(log(g)), g)
        )
        lam = float(rng.uniform(-2.0, 2.0))
        target = abs(lam) * hom_norm(g)
        worst["dilation"] = max(
            worst["dilation"], abs(hom_norm(dilate(lam, g)) - target) / max(1.0, target)
        )
        worst["shuffle"] = max(worst["shuffle"], shuffle_defect(g))
    ok = (
        max(worst["assoc"], worst["axiom"], worst["roundtrip"], worst["dilation"]) <= 1e-12
        and worst["shuffle"] <= 1e-9
    )
    report(1, ok, f"1000 cases/suite, worst={ {k: float(f'{v:.2e}') for k, v in worst.items()} }", t0, 10.0)


def test_criterion_02_chen_refinement():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst_chen = worst_ref = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2, 65))
        path = random_path(rng, d, n, uniform=False)
        gp = lift_pl(path)
        i, j, k = sorted(rng.integers(0, n + 1, size=3))
        worst_chen = max(
            worst_chen,
            max_abs_diff(
                signature_increment(gp, i, k),
                mul(signature_increment(gp, i, j), signature_increment(gp, j, k)),
            ),
        )
        t = path.grid.times
        fine_t = np.sort(np.concatenate([t, 0.5 * (t[:-1] + t[1:])]))
        fine_vals = np.stack([np.interp(fine_t, t, path.values[c]) for c in range(d)])
        from gaussrough import TimeGrid

        fine_gp = lift_pl(SamplePath(TimeGrid(fine_t), fine_vals))
        node = int(rng.integers(0, n + 1))
        worst_ref = max(worst_ref, max_abs_diff(gp.point(node), fine_gp.point(2 * node)))
    ok = worst_chen <= 1e-12 and worst_ref <= 1e-12
    report(2, ok, f"200 paths, chen={worst_chen:.2e} refinement={worst_ref:.2e}", t0, 30.0)


def test_criterion_03_pvar_oracle():
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst = 0.0
    for case in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 13))
        x = lift_pl(random_path(rng, d, n))
        p = float(rng.uniform(1.0, 4.0))
        if case % 2:
            y = lift_pl(random_path(rng, d, n))
            a, b = pvar_dist(x, y, p, "dp"), pvar_dist(x, y, p, "brute")
        else:
            a, b = pvar_norm(x, p, "dp"), pvar_norm(x, p, "brute")
        worst = max(worst, abs(a - b) / max(1.0, b))
    ok = worst <= 1e-10
    report(3, ok, f"50 paths, dp vs brute worst={worst:.2e}", t0, 60.0)


def test_criterion_04_two_dim_variation():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        sz = int(rng.integers(2, 9))
        a = rng.normal(size=(sz + 1, sz + 1))
        mat = a @ a.T
        rho = float(rng.uniform(1.0, 2.5))
        b = rho_var_2d(mat, rho, mode="brute")
        h = rho_var_2d(mat, rho, mode="hillclimb")
        worst = max(worst, abs(h - b) / max(1.0, b))
    r = cov_matrix(CovKernel.brownian(), uniform_grid(8)).entries
    brownian_errs = [abs(rho_var_2d(r, 1.0, mode=m) - 1.0) for m in ("fullgrid", "brute", "hillclimb")]
    ok = worst <= 1e-10 and max(brownian_errs) <= 1e-12
    report(
        4,
        ok,
        f"20 PSD brute vs hillclimb worst={worst:.2e}, brownian 1-var err={max(brownian_errs):.2e}",
        t0,
        60.0,
    )


def test_criterion_05_kl_reconstruction_translation():
    t0 = time.time()
    worst_rec = 0.0
    for kernel in (CovKernel.brownian(), CovKernel.fbm(0.35)):
        r = cov_matrix(kernel, uniform_grid(64))
        basis = kl_decompose(r)
        worst_rec = max(
            worst_rec, float(np.linalg.norm(basis.h.T @ basis.h - r.entries, "fro"))
        )
    worst_tr = 0.0
    for kind in ({"kind": "brownian"}, {"kind": "fbm", "hurst": 0.35}):
        cfg = load_config(
            "translation", {"kernel": kind, "n": 16, "seed": 105, "samples": 50}
        )
        recs = run_translation_check(cfg)
        worst_tr = max(worst_tr, recs[0].value)
    ok = worst_rec <= 1e-9 and worst_tr <= 1e-10
    report(5, ok, f"frobenius={worst_rec:.2e}, translation (all prefix pairs, 50 samples)={worst_tr:.2e}", t0, 60.0)


def test_criterion_06_uniform_two_variation():
    t0 = time.time()
    worst = -np.inf
    for kind in ({"kind": "brownian"}, {"kind": "fbm", "hurst": 0.3}):
        cfg = load_config(
            "twovar-bound", {"kernel": kind, "n": 32, "seed": 106, "sets": 200}
        )
        stats = {r.statistic: r.value for r in run_2var_bound(cfg)}
        worst = max(worst, stats["twovar_gap_max"])
    ok = worst <= 1e-10
    report(6, ok, f"200 sets x 2 kernels, worst gap={worst:.2e}", t0, 60.0)


def _conditional_setup(hurst, n, kept, seed):
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.fbm(hurst), grid)
    basis = kl_decompose(r)
    vals = sample_values(r, 2, 1, seed=seed)[0]
    x = SamplePath(grid, vals)
    a = IndexSet.prefix(kept)
    proj = project(x, basis, a)
    return basis, x, a, proj


def test_criterion_07_level2_identity():
    t0 = time.time()
    n = 32
    basis, x, a, proj = _conditional_setup(0.4, n, 6, 107)
    worst_z = 0.0
    for s_node, t_node in ((0, n), (5, 27)):
        mean, se = conditional_log_mc(
            basis, a, proj, s_node, t_node, count=20_000, seed=1071
        )
        ref = log(signature_increment(lift_pl(proj), s_node, t_node))
        worst_z = max(worst_z, _max_z([mean.levels[2] - ref.levels[2]], [se[1]]))
    coeffs = np.stack([coefficients(x.values[c], basis) for c in range(2)])
    gp = lift_pl(proj)
    worst_ds = 0.0
    for t_node in (11, n):
        g2 = gp.point(t_node).levels[2]
        for i in range(2):
            for j in range(2):
                ds = level2_double_sum(basis, coeffs, a, t_node, i, j)
                worst_ds = max(worst_ds, abs(ds - g2[i, j]))
    ok = worst_z <= 4.0 and worst_ds <= 1e-9
    report(
        7,
        ok,
        f"level-2 MC z={worst_z:.2f} (20000 draws, 4 SE), double-sum err={worst_ds:.2e}",
        t0,
        300.0,
    )


def test_criterion_08_level3_correction():
    t0 = time.time()
    n = 32
    basis, x, a, proj = _conditional_setup(0.35, n, 4, 108)
    s_node, t_node = 0, n
    mean, se = conditional_log_mc(
        basis, a, proj, s_node, t_node, count=20_000, seed=1081
    )
    ref = log(signature_increment(lift_pl(proj), s_node, t_node))
    corr = level3_correction(basis, a, proj, s_node, t_node)
    z_corr = _max_z([mean.levels[3] - ref.levels[3] - corr.levels[3]], [se[2]])
    z_nocorr = _max_z([mean.levels[3] - ref.levels[3]], [se[2]])
    ok = z_corr <= 4.0 and z_nocorr > 6.0
    report(
        8,
        ok,
        f"level-3 corrected z={z_corr:.2f} (4 SE), uncorrected z={z_nocorr:.1f} (power > 6)",
        t0,
        600.0,
    )


def test_criterion_09_convergence():
    t0 = time.time()
    details = []
    ok = True
    for name, seed in (("fbm", 2601), ("brownian", 2602)):
        fx = FIXTURE["convergence"][name]
        cfg = load_config(
            "convergence",
            {
                "kernel": fx["kernel"],
                "n": fx["n"],
                "seed": seed,
                "d": fx["d"],
                "p": fx["p"],
                "q": fx["q"],
                "samples": fx["samples"],
                "m": fx["m"],
            },
        )
        recs = run_convergence(cfg)
        for stat, limit in fx["ratio_limits"].items():
            rows = sorted((r for r in recs if r.statistic == stat), key=lambda r: r.m)
            vals = [r.value for r in rows]
            ses = [r.stderr for r in rows]
            mono = all(
                vals[i + 1] <= vals[i] + 2.0 * float(np.hypot(ses[i], ses[i + 1]))
                for i in range(len(vals) - 1)
            )
            ratio = vals[-1] / vals[0]
            ok = ok and mono and ratio <= limit
            details.append(f"{name}/{stat}: mono={mono} ratio={ratio:.3f}<={limit}")
    report(9, ok, "; ".join(details), t0, 900.0)


def test_criterion_10_uniform_modulus():
    t0 = time.time()
    fx = FIXTURE["modulus"]
    details = []
    ok = True
    for kind, hurst, seed in (
        ({"kind": "brownian"}, 0.5, 110),
        ({"kind": "fbm", "hurst": 0.35}, 0.35, 111),
    ):
        cfg = load_config(
            "uniform-modulus",
            {
                "kernel": kind,
                "n": fx["n"],
                "seed": seed,
                "d": fx["d"],
                "samples": fx["samples"],
                "sets": fx["sets"],
                "lengths": fx["lengths"],
            },
        )
        recs = run_uniform_modulus(cfg)
        slope = next(r.value for r in recs if r.statistic == "modulus_slope")
        good = abs(slope - 2.0 * hurst) <= fx["slope_tolerance"]
        ok = ok and good
        details.append(f"H={hurst}: slope={slope:.3f} vs {2 * hurst} +- {fx['slope_tolerance']}")
    report(10, ok, "; ".join(details), t0, 600.0)


def test_criterion_11_levy_area():
    t0 = time.time()
    n, total, chunk = 1024, 100_000, 2000
    r = cov_matrix(CovKernel.brownian(), uniform_grid(n))
    from gaussrough.path_lift import signature_at

    area_sq = np.empty(total)
    x12_sq = np.empty(total)
    for start in range(0, total, chunk):
        vals = sample_values(r, 2, chunk, seed=111, first=start)
        levels = signature_at(vals, 2, [n])
        end2 = levels[2][:, 0]
        area = 0.5 * (end2[:, 0, 1] - end2[:, 1, 0])
        area_sq[start : start + chunk] = area**2
        x12_sq[start : start + chunk] = end2[:, 0, 1] ** 2
    z_area = abs(np.mean(area_sq) - 0.25) / (np.std(area_sq, ddof=1) / np.sqrt(total))
    z_x12 = abs(np.mean(x12_sq) - 0.5) / (np.std(x12_sq, ddof=1) / np.sqrt(total))
    ok = z_area <= 4.0 and z_x12 <= 4.0
    report(
        11,
        ok,
        f"n=1024, 100000 samples: Var(area)={np.mean(area_sq):.5f} z={z_area:.2f}; "
        f"E[sq level-2]={np.mean(x12_sq):.5f} z={z_x12:.2f} (4 SE)",
        t0,
        600.0,
    )


def test_criterion_12_young_wiener_scaling():
    t0 = time.time()
    fx = FIXTURE["young_wiener"]
    n = fx["n"]
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.brownian(), grid)
    basis = kl_decompose(r)
    count = fx["samples"]
    paths = sample_values(r, 1, count, seed=112)[:, 0, :]
    incs = np.diff(paths, axis=1)
    pinned = False
    lengths, moments = [], []
    for t_node in fx["t_nodes"]:
        best = -np.inf
        for m in fx["mode_ladder"]:
            rc = partial_cov(basis, IndexSet.prefix(m).complement(basis.rank)).entries
            f_nodes, f_mids = _residual_rect_integrand(rc, 0, t_node)
            w = (f_nodes[:t_node] + 4.0 * f_mids[:t_node] + f_nodes[1 : t_node + 1]) / 6.0
            ivals = incs[:, :t_node] @ w
            if not pinned:
                # The weight form must agree with the quadrature routine.
                direct = young_integral_quadratic(
                    f_nodes, f_mids, SamplePath(grid, paths[:1]), 0, 0, t_node
                )
                assert abs(direct - ivals[0]) <= 1e-12 * max(1.0, abs(direct))
                pinned = True
            best = max(best, float(np.mean(ivals**2)))
        lengths.append(t_node / n)
        moments.append(best)
    slope, slope_se = _ols_slope(np.log(lengths), np.log(moments))
    target = fx["slope_target"]
    ok = abs(slope - target) <= fx["slope_tolerance"]
    report(
        12,
        ok,
        f"log-log slope={slope:.3f} (se {slope_se:.3f}) vs {target} +- {fx['slope_tolerance']}",
        t0,
        600.0,
    )
