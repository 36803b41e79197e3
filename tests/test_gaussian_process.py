import json

import numpy as np
import pytest

from gaussrough import (
    CovKernel,
    DataError,
    cov_matrix,
    kernel_eval,
    rect_increment,
    sample,
    uniform_grid,
)
from gaussrough.cli import main
from gaussrough.gaussian_process import sample_values


def test_brownian_kernel_values():
    k = CovKernel.brownian()
    assert kernel_eval(k, 0.3, 0.7) == 0.3
    assert kernel_eval(k, 0.7, 0.3) == 0.3
    assert kernel_eval(k, 0.0, 0.9) == 0.0
    s = np.array([0.1, 0.5, 1.0])
    assert np.allclose(kernel_eval(k, s, s), s)


def test_fbm_half_matches_brownian():
    k = CovKernel.fbm(0.5)
    b = CovKernel.brownian()
    s = np.linspace(0.0, 1.0, 7)
    st = np.meshgrid(s, s)
    assert np.allclose(kernel_eval(k, st[0], st[1]), kernel_eval(b, st[0], st[1]), atol=1e-14)


def test_fbm_closed_form():
    h = 0.3
    k = CovKernel.fbm(h)
    s, t = 0.2, 0.9
    expect = 0.5 * (s ** (2 * h) + t ** (2 * h) - abs(t - s) ** (2 * h))
    assert abs(kernel_eval(k, s, t) - expect) <= 1e-15


def test_fbm_increment_variance_identity():
    # rect over [s,t]^2 recovers E[(X_t - X_s)^2] = |t-s|^(2H).
    h = 0.35
    grid = uniform_grid(8)
    r = cov_matrix(CovKernel.fbm(h), grid)
    for a, b in [(0, 8), (2, 5), (3, 4)]:
        got = rect_increment(r.entries, a, b, a, b)
        gap = grid.times[b] - grid.times[a]
        assert abs(got - gap ** (2 * h)) <= 1e-12


def test_kernel_validation():
    with pytest.raises(ValueError):
        CovKernel.fbm(0.0)
    with pytest.raises(ValueError):
        CovKernel.fbm(1.0)
    with pytest.raises(ValueError):
        kernel_eval(CovKernel.brownian(), -0.1, 0.5)
    with pytest.raises(ValueError):
        kernel_eval(CovKernel.brownian(), 0.5, 1.2)
    times = uniform_grid(3).times
    with pytest.raises(ValueError):
        CovKernel.from_table(times, np.zeros((4, 3)))
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        CovKernel.from_table(times, bad)


def test_table_kernel_matches_nodes_and_interpolates():
    times = uniform_grid(2).times
    vals = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    k = CovKernel.from_table(times, vals)
    for i in range(3):
        for j in range(3):
            assert kernel_eval(k, times[i], times[j]) == vals[i, j]
    # Bilinear interpolation: edge midpoints average the two straddling
    # node values, the cell center averages all four corners.
    assert abs(kernel_eval(k, 0.25, 0.5) - 0.5) <= 1e-15
    assert abs(kernel_eval(k, 0.25, 0.25) - 0.25) <= 1e-15
    assert abs(kernel_eval(k, 0.75, 0.75) - 1.25) <= 1e-15


def test_table_kernel_is_own_pl_covariance():
    # A PSD table interpolated bilinearly stays PSD on refinements, because
    # it is exactly the covariance of the linearly interpolated process.
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    base = a @ a.T
    k = CovKernel.from_table(uniform_grid(3).times, base)
    fine = cov_matrix(k, uniform_grid(12))
    w = np.linalg.eigvalsh(fine.entries)
    assert w[0] >= -1e-10 * w[-1]


def test_cov_matrix_brownian():
    grid = uniform_grid(4)
    r = cov_matrix(CovKernel.brownian(), grid)
    assert np.allclose(r.entries, np.minimum.outer(grid.times, grid.times))
    assert np.array_equal(r.entries, r.entries.T)


def test_non_psd_table_raises():
    times = uniform_grid(2).times
    vals = np.array([[1.0, 0.0, 0.9], [0.0, 1.0, 0.0], [0.9, 0.0, -0.5]])
    k = CovKernel.from_table(times, vals)
    with pytest.raises(DataError):
        cov_matrix(k, uniform_grid(2))


def _eigvalsh_gate(kernel, grid):
    # The eigenvalue test as cov_matrix states it, on the same entries.
    t = grid.times
    e = kernel_eval(kernel, t[:, None], t[None, :])
    w = np.linalg.eigvalsh(0.5 * (e + e.T))
    return not float(w[0]) < -1e-10 * max(max(float(w[-1]), 0.0), 1.0)


def _accepts(kernel, grid):
    try:
        cov_matrix(kernel, grid)
    except DataError:
        return False
    return True


def _spectrum_table(seed, size, scale, c):
    # Random eigenvectors; the smallest eigenvalue is -c times the PSD
    # tolerance 1e-10 * max(largest eigenvalue, 1).
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    lam = scale * rng.uniform(0.1, 1.0, size)
    lam[0] = -c * 1e-10 * max(float(np.max(lam)), 1.0)
    vals = (q * lam) @ q.T
    return CovKernel.from_table(uniform_grid(size - 1).times, 0.5 * (vals + vals.T))


@pytest.mark.parametrize("hurst", [0.02, 0.5, 0.98])
def test_cov_matrix_fbm_certified_without_eigvalsh(monkeypatch, hurst):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    for n in (1, 2, 7, 64, 257, 512):
        grid = uniform_grid(n)
        assert _accepts(CovKernel.fbm(hurst), grid) and calls == []
        assert _eigvalsh_gate(CovKernel.fbm(hurst), grid)
        calls.clear()


def test_cov_matrix_decision_equals_eigvalsh_gate():
    decided = []
    for c in (0.0, 0.5, 0.9, 1.1, 2.0, 10.0):
        for seed in range(4):
            for scale in (1e-3, 1.0, 1e3):
                k = _spectrum_table(seed, 12, scale, c)
                grid = uniform_grid(11)
                accept = _accepts(k, grid)
                assert accept == _eigvalsh_gate(k, grid), (c, seed, scale)
                decided.append(accept)
    # Both outcomes occur, so the sweep tests the threshold.
    assert any(decided) and not all(decided)


def test_cov_matrix_zero_variance_row_must_be_zero():
    # Node 0 has variance 0 but covariance 0.1 with node 1, which makes the
    # matrix indefinite; the positive-variance block alone is the identity.
    times = uniform_grid(2).times
    vals = np.array([[0.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])
    k = CovKernel.from_table(times, vals)
    with pytest.raises(DataError, match="not PSD"):
        cov_matrix(k, uniform_grid(2))


def test_cov_matrix_jitter_retry_stays_lazy(tmp_path):
    # Smallest eigenvalue -5e-11 times the largest: inside the PSD gate, but
    # beyond what the 1e-12 jitter retry can factor.  Only sampling fails.
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    lam = np.array([1.0, 0.8, 0.5, 0.3, -5e-11])
    vals = (q * lam) @ q.T
    vals = 0.5 * (vals + vals.T)
    times = uniform_grid(4).times
    table = tmp_path / "cov.csv"
    np.savetxt(table, np.vstack([times[None, :], vals]), delimiter=",")
    k = CovKernel.from_table(times, vals)
    r = cov_matrix(k, uniform_grid(4))
    with pytest.raises(DataError, match="jitter"):
        r.factor
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": {"kind": "table", "path": str(table)}, "n": 4, "seed": 0}))
    argv = ["--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    assert main(["rhovar", *argv]) == 0
    assert main(["simulate", *argv]) == 3


def test_sampling_deterministic():
    r = cov_matrix(CovKernel.brownian(), uniform_grid(8))
    a = sample(r, 2, 3, seed=42)
    b = sample(r, 2, 3, seed=42)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.values, pb.values)
    c = sample(r, 2, 3, seed=43)
    assert not np.array_equal(a[0].values, c[0].values)


def test_sampling_chunked_matches_full():
    # Draw k depends only on (seed, k), so chunked generation agrees
    # with one shot regardless of the split.
    r = cov_matrix(CovKernel.fbm(0.4), uniform_grid(6))
    full = sample_values(r, 2, 5, seed=11)
    head = sample_values(r, 2, 2, seed=11, first=0)
    tail = sample_values(r, 2, 3, seed=11, first=2)
    assert np.array_equal(full, np.concatenate([head, tail], axis=0))
    # The three calls share one factorization, made on first use.
    assert r.factor is r.factor


def test_sampling_starts_at_zero():
    r = cov_matrix(CovKernel.brownian(), uniform_grid(10))
    for path in sample(r, 3, 4, seed=0):
        assert np.all(path.values[:, 0] == 0.0)


def test_zero_covariance_gives_zero_paths():
    times = uniform_grid(3).times
    k = CovKernel.from_table(times, np.zeros((4, 4)))
    r = cov_matrix(k, uniform_grid(3))
    for path in sample(r, 2, 3, seed=5):
        assert np.all(path.values == 0.0)


def test_empirical_covariance():
    n = 8
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.brownian(), grid)
    count = 4000
    vals = sample_values(r, 1, count, seed=123)[:, 0, :]
    emp = vals.T @ vals / count
    # Var(X_s X_t) <= 2 sup R^2 = 2 here, so 5 sigma is ~0.11.
    assert np.max(np.abs(emp - r.entries)) <= 5.0 * np.sqrt(2.0 / count)


def test_components_independent():
    r = cov_matrix(CovKernel.brownian(), uniform_grid(4))
    count = 4000
    vals = sample_values(r, 2, count, seed=9)
    cross = vals[:, 0, -1] * vals[:, 1, -1]
    se = np.std(cross) / np.sqrt(count)
    assert abs(np.mean(cross)) <= 5.0 * se


def test_sample_validation():
    r = cov_matrix(CovKernel.brownian(), uniform_grid(4))
    with pytest.raises(ValueError):
        sample(r, 0, 3, seed=1)
    with pytest.raises(ValueError):
        sample(r, 2, -1, seed=1)
