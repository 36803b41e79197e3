import json
import tracemalloc

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
from gaussrough.gaussian_process import draw_normals, sample_values
from gaussrough.karhunen_loeve import kl_decompose


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


@pytest.mark.parametrize("kernel", [CovKernel.brownian()] + [
    CovKernel.fbm(h) for h in (0.26, 0.3, 0.35, 0.4, 0.5, 0.7, 0.99)
], ids=lambda k: k.kind if k.hurst is None else f"fbm-{k.hurst}")
def test_analytic_kernel_grid_square_exactly_symmetric(kernel):
    # cov_matrix symmetrizes only table kernels: the analytic ones must give
    # R(s, t) and R(t, s) bit for bit.
    for n in (1, 2, 3, 7, 28, 80, 100, 256, 333, 512, 1024):
        t = uniform_grid(n).times
        entries = kernel_eval(kernel, t[:, None], t[None, :])
        assert np.array_equal(entries, entries.T), n


def _broadcast_bilinear(times, values, s, t):
    # The table kernel as a reference: s and t broadcast first, then every
    # cell, weight and corner is found on the full shape.
    s, t = np.broadcast_arrays(s, t)
    cell_s = np.clip(np.searchsorted(times, s, side="right") - 1, 0, times.size - 2)
    cell_t = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
    ws = (s - times[cell_s]) / (times[cell_s + 1] - times[cell_s])
    wt = (t - times[cell_t]) / (times[cell_t + 1] - times[cell_t])
    v00 = values[cell_s, cell_t]
    v10 = values[cell_s + 1, cell_t]
    v01 = values[cell_s, cell_t + 1]
    v11 = values[cell_s + 1, cell_t + 1]
    return (
        (1 - ws) * (1 - wt) * v00
        + ws * (1 - wt) * v10
        + (1 - ws) * wt * v01
        + ws * wt * v11
    )


def _args(n, rng):
    # The grid square, scalars, and mixed shapes that broadcast.
    t = uniform_grid(n).times
    yield t[:, None], t[None, :]
    yield 0.3, 0.7
    yield np.float64(0.9), np.array(0.2)
    yield 0.25, rng.uniform(size=(3, 4))
    yield rng.uniform(size=(2, 1, 5)), rng.uniform(size=(4, 1))
    yield t, t[::-1]


def _assert_same_bits(got, want):
    if np.ndim(want) == 0:
        assert type(got) is float and got == float(want)
    else:
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("hurst", [0.26, 0.4, 0.5, 0.99])
def test_fbm_kernel_equals_closed_form_bits(hurst):
    # The in-place evaluation gives the bits of the closed form, and a float
    # for scalar arguments.
    k = CovKernel.fbm(hurst)
    h2 = 2.0 * hurst
    rng = np.random.default_rng(3)
    for n in (1, 7, 80, 333, 512):
        for s, t in _args(n, rng):
            s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
            want = 0.5 * (s**h2 + t**h2 - np.abs(t - s) ** h2)
            _assert_same_bits(kernel_eval(k, s, t), want)


@pytest.mark.parametrize("seed", range(4))
def test_table_kernel_equals_broadcast_bilinear_bits(seed):
    # Cells and weights found per axis give the bits of the broadcast form,
    # on random PSD tables over non-uniform table grids.
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 12))
    times = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(size=size - 2)]))
    a = rng.normal(size=(size, size))
    k = CovKernel.from_table(times, a @ a.T)
    for n in (1, 7, 80, 333):
        for s, t in _args(n, rng):
            s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
            want = _broadcast_bilinear(k.table_times, k.table_values, s, t)
            _assert_same_bits(kernel_eval(k, s, t), want)


def test_cov_matrix_peak_memory():
    # The fbm square is built from two arrays of its size and the Cholesky
    # factor reads the positive-variance block as a view, so the traced peak
    # stays near two matrices: the covariance and its factor.
    n = 512
    grid = uniform_grid(n)
    k = CovKernel.fbm(0.4)
    cov_matrix(k, grid)  # lazy set-up outside the traced call
    tracemalloc.start()
    try:
        cov_matrix(k, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (n + 1) ** 2 * 8


def _pinned_table(times):
    # A Brownian bridge from 0 to 0 on [0, 1/2], then a fresh Brownian
    # motion: variance zero at t = 0 and t = 1/2, positive elsewhere.
    s, t = np.meshgrid(times, times, indexing="ij")
    bridge = (s <= 0.5) & (t <= 0.5)
    fresh = (s >= 0.5) & (t >= 0.5)
    return np.where(bridge, np.minimum(s, t) - 2 * s * t, np.where(fresh, np.minimum(s, t) - 0.5, 0.0))


def test_factor_and_sampling_with_interior_zero_variance():
    # Tabulated on the run's own nodes, the covariance is exact, its zero
    # rows are exactly zero and the active block has a Cholesky factor; the
    # active nodes are not contiguous, so the mask route runs.
    grid = uniform_grid(8)
    r = cov_matrix(CovKernel.from_table(grid.times, _pinned_table(grid.times)), grid)
    active, root = r.factor
    assert np.array_equal(np.flatnonzero(~active), [0, 4])
    assert np.array_equal(root, np.linalg.cholesky(r.entries[np.ix_(active, active)]))
    values = sample_values(r, 2, 5, seed=9)
    assert values.shape == (5, 2, 9)
    assert np.all(values[:, :, ~active] == 0.0)
    z = draw_normals(9, 5, (2, 7))
    assert np.array_equal(values[:, :, active], (z.reshape(10, 7) @ root.T).reshape(5, 2, 7))


def test_table_cov_matrix_symmetrized():
    # Bilinear table entries are not exactly symmetric on this grid, so
    # cov_matrix averages the square with its transpose.
    k = CovKernel.from_table(np.array([0.0, 0.5, 1.0]),
                             np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.3], [0.0, 0.3, 1.2]]))
    t = uniform_grid(28).times
    entries = kernel_eval(k, t[:, None], t[None, :])
    assert not np.array_equal(entries, entries.T)
    r = cov_matrix(k, uniform_grid(28))
    assert np.array_equal(r.entries, 0.5 * (entries + entries.T))


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
    return not float(w[0]) < -1e-10 * max(float(w[-1]), 0.0)


def _accepts(kernel, grid):
    try:
        cov_matrix(kernel, grid)
    except DataError:
        return False
    return True


def _spectrum_table(seed, size, scale, c):
    # Random eigenvectors; the smallest eigenvalue is -c times the PSD
    # tolerance 1e-10 * largest eigenvalue.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    lam = scale * rng.uniform(0.1, 1.0, size)
    lam[0] = -c * 1e-10 * float(np.max(lam))
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


# Extra config keys that run each subcommand on a rank-4 covariance.
_EVERY_SUBCOMMAND = {
    "simulate": {"d": 2, "samples": 2},
    "lift": {"d": 2, "samples": 2},
    "kl-converge": {"d": 2, "p": 3.0, "q": 2, "samples": 3, "m": [2, 4]},
    "uniform-modulus": {"d": 2, "samples": 3, "sets": 2},
    "martingale-check": {"d": 2, "samples": 20, "index_size": 2},
    "twovar-bound": {"sets": 2},
    "translate-check": {"samples": 2},
    "pvar": {"d": 2, "p": 3.0, "samples": 2},
    "rhovar": {},
}


def _write_table(path, times, vals):
    np.savetxt(path, np.vstack([times[None, :], vals]), delimiter=",")
    return {"kind": "table", "path": str(path)}


def _run(tmp_path, sub, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    return main([sub, "--config", str(cfg), "--out", str(out)]), out


def test_cov_matrix_within_gate_runs_every_subcommand(tmp_path, capsys):
    # Smallest eigenvalue -5e-11 times the largest: inside the PSD gate, and
    # no Cholesky factor exists.  The eigen square root samples it, so every
    # subcommand ends the same way.
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    lam = np.array([1.0, 0.8, 0.5, 0.3, -5e-11])
    vals = (q * lam) @ q.T
    vals = 0.5 * (vals + vals.T)
    times = uniform_grid(4).times
    kernel = _write_table(tmp_path / "cov.csv", times, vals)
    r = cov_matrix(CovKernel.from_table(times, vals), uniform_grid(4))
    active, root = r.factor
    assert active.all() and root.shape == (5, 4)
    assert np.max(np.abs(root @ root.T - vals)) <= 1e-9
    for sub, extra in _EVERY_SUBCOMMAND.items():
        code, _ = _run(tmp_path, sub, dict({"kernel": kernel, "n": 4, "seed": 0}, **extra))
        assert code == 0, (sub, capsys.readouterr().err)


@pytest.mark.parametrize("n", [8, 16])
def test_sampling_scales_with_table(tmp_path, n):
    # A Brownian table times 4^k samples 2^k times the paths of the table
    # itself: scaling by a power of 4 commutes with Cholesky (n = 8, the
    # table's own grid) and with the eigen square root (n = 16, where the
    # interpolated covariance is singular).
    times = uniform_grid(8).times
    base = np.minimum.outer(times, times)
    values = {}
    for k in (0, -24, -20, 20, 24):
        kernel = _write_table(tmp_path / "cov.csv", times, 4.0**k * base)
        code, out = _run(tmp_path, "simulate", {"kernel": kernel, "n": n, "seed": 4, "d": 2, "samples": 3})
        assert code == 0, k
        values[k] = np.loadtxt(out, delimiter=",", skiprows=1, usecols=3)
    ref = values.pop(0)
    assert np.max(np.abs(ref)) > 0.1
    for k, v in values.items():
        assert np.max(np.abs(v / 2.0**k - ref)) <= 1e-12 * np.max(np.abs(ref)), k


@pytest.mark.parametrize("n", [8, 16])
def test_one_eigendecomposition_per_cov_matrix(monkeypatch, n):
    # n = 8: Cholesky certifies, kl_decompose runs the one eigh.  n = 16: the
    # singular interpolation takes the eigen route in cov_matrix, and the
    # sampler and the KL basis reuse that eigh.
    calls = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, fn=fn, name=name: calls.append(name) or fn(a))
    times = uniform_grid(8).times
    s, t = np.meshgrid(times, times, indexing="ij")
    r = cov_matrix(CovKernel.from_table(times, np.minimum(s, t) + s * t), uniform_grid(n))
    assert calls == ([] if n == 8 else ["eigh"])
    basis = kl_decompose(r)
    values = sample_values(r, 2, 3, seed=1)
    kl_decompose(r)
    assert len(calls) == 1
    assert basis.phi is r.modes[1] and basis.rank == 8
    # The sampled paths lie in the span of the kept modes.
    resid = values - (values @ basis.phi.T) @ basis.phi
    assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(values))


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


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**200 + 1])
def test_draw_normals_matches_default_rng_per_draw(seed):
    # The reproducibility contract itself: draw k is default_rng([seed, k])'s
    # stream, bit for bit.  first = 2**32 - 2 crosses k into two words.
    for first in (0, 2**32 - 2):
        for count in (0, 1, 5):
            for shape in ((), (3,), (2, 5)):
                got = draw_normals(seed, count, shape, first)
                want = np.array(
                    [np.random.default_rng([seed, first + k]).standard_normal(shape)
                     for k in range(count)]
                ).reshape((count,) + shape)
                assert np.array_equal(got, want), (first, count, shape)
    with pytest.raises(ValueError):
        draw_normals(-1 - seed, 1, (3,))


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
