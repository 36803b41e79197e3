import numpy as np
import pytest

from gaussrough import (
    CovKernel,
    DataError,
    IndexSet,
    SamplePath,
    conditional_log_mc,
    coefficients,
    cov_matrix,
    kl_decompose,
    level2_double_sum,
    level3_correction,
    lift_pl,
    log,
    max_abs_diff,
    partial_cov,
    project,
    rho_var_2d,
    signature_increment,
    uniform_grid,
)
from gaussrough.gaussian_process import sample_values


def brownian_basis(n):
    return kl_decompose(cov_matrix(CovKernel.brownian(), uniform_grid(n)))


def test_index_set():
    a = IndexSet.of([3, 0, 2])
    assert a.indices == (0, 2, 3)
    assert len(a) == 3 and 2 in a and 1 not in a
    assert IndexSet.prefix(3).indices == (0, 1, 2)
    assert IndexSet.prefix(0).indices == ()
    assert a.complement(5).indices == (1, 4)
    with pytest.raises(ValueError):
        IndexSet.of([1, 1])
    with pytest.raises(ValueError):
        IndexSet.of([-1, 2])


def test_decompose_identity_covariance():
    from gaussrough.gaussian_process import CovMatrix
    from gaussrough import TimeGrid

    n = 5
    grid = uniform_grid(n)
    r = CovMatrix(grid, np.eye(n + 1))
    basis = kl_decompose(r)
    assert basis.rank == n + 1
    assert np.allclose(basis.eigenvalues, 1.0)
    # Modes stay orthonormal and reproduce the covariance.
    assert np.allclose(basis.phi @ basis.phi.T, np.eye(n + 1), atol=1e-12)


def test_decompose_rank_deficiency():
    # Brownian covariance pins node 0, so one eigenvalue is exactly zero.
    n = 6
    basis = brownian_basis(n)
    assert basis.rank == n
    assert np.all(basis.eigenvalues > 0)
    ordered = basis.eigenvalues
    assert np.all(ordered[:-1] >= ordered[1:])


def test_reconstruction_from_modes():
    n = 16
    r = cov_matrix(CovKernel.fbm(0.4), uniform_grid(n))
    basis = kl_decompose(r)
    rebuilt = basis.h.T @ basis.h
    assert np.max(np.abs(rebuilt - r.entries)) <= 1e-9


def test_coefficients_pick_out_modes():
    # h_k = sqrt(lambda_k) phi_k standardizes to the k-th unit vector.
    basis = brownian_basis(8)
    for k in (0, 3, basis.rank - 1):
        z = coefficients(basis.h[k], basis)
        expect = np.zeros(basis.rank)
        expect[k] = 1.0
        assert np.max(np.abs(z - expect)) <= 1e-9


def test_coefficients_standardized_against_sampling():
    n = 8
    r = cov_matrix(CovKernel.brownian(), uniform_grid(n))
    basis = kl_decompose(r)
    count = 3000
    vals = sample_values(r, 1, count, seed=77)[:, 0, :]
    z = np.stack([coefficients(v, basis) for v in vals])
    var = np.var(z, axis=0)
    se = np.sqrt(2.0 / count)
    assert np.max(np.abs(var - 1.0)) <= 6.0 * se


def test_project_full_set_is_identity(rng):
    n = 10
    r = cov_matrix(CovKernel.brownian(), uniform_grid(n))
    basis = kl_decompose(r)
    vals = sample_values(r, 2, 1, seed=3)[0]
    x = SamplePath(uniform_grid(n), vals)
    full = IndexSet.prefix(basis.rank)
    y = project(x, [basis, basis], full)
    assert np.max(np.abs(y.values - x.values)) <= 1e-10


def test_index_set_complement_is_set_difference(rng):
    for rank in (0, 1, 5, 257):
        sets = [(), tuple(range(rank)), (rank, rank + 3)]
        sets += [rng.choice(rank, size=rng.integers(0, rank + 1), replace=False) for _ in range(20)]
        for items in sets:
            got = IndexSet.of(items).complement(rank)
            want = IndexSet.of(set(range(rank)) - {int(i) for i in items})
            assert got == want and hash(got) == hash(want)
            assert all(type(i) is int for i in got)


def test_project_idempotent_and_complement(rng):
    n = 12
    r = cov_matrix(CovKernel.fbm(0.35), uniform_grid(n))
    basis = kl_decompose(r)
    vals = sample_values(r, 1, 1, seed=4)[0]
    x = SamplePath(uniform_grid(n), vals)
    a = IndexSet.of([0, 2, 5])
    pa = project(x, [basis], a)
    paa = project(pa, [basis], a)
    assert np.max(np.abs(paa.values - pa.values)) <= 1e-12
    comp = project(x, [basis], a.complement(basis.rank))
    assert np.max(np.abs(pa.values + comp.values - x.values)) <= 1e-10


def test_project_translation_identity():
    # Removing a block of modes then projecting onto a disjoint block equals
    # projecting the original path onto that block.
    n = 10
    r = cov_matrix(CovKernel.brownian(), uniform_grid(n))
    basis = kl_decompose(r)
    vals = sample_values(r, 1, 1, seed=6)[0]
    x = SamplePath(uniform_grid(n), vals)
    a = IndexSet.prefix(3)
    b = IndexSet.of(range(3, 7))
    y = SamplePath(x.grid, x.values - project(x, [basis], a).values)
    lhs = project(y, [basis], b)
    rhs = project(x, [basis], b)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12


def test_partial_cov_sums_to_full():
    n = 8
    r = cov_matrix(CovKernel.fbm(0.45), uniform_grid(n))
    basis = kl_decompose(r)
    a = IndexSet.of([0, 3, 4])
    ra = partial_cov(basis, a).entries
    rc = partial_cov(basis, a.complement(basis.rank)).entries
    assert np.max(np.abs(ra + rc - r.entries)) <= 1e-9


def test_partial_cov_two_var_bounded_by_full():
    # The degree-2 sum over a shared dissection of both axes contracts under
    # mode truncation.  Degree 1 does not (truncation spreads mass off the
    # diagonal), so rho = 2 is the right budget here.
    n = 8
    r = cov_matrix(CovKernel.brownian(), uniform_grid(n))
    basis = kl_decompose(r)
    full = rho_var_2d(r.entries, 2.0)
    for m in (1, 2, 4, basis.rank):
        sub = rho_var_2d(partial_cov(basis, IndexSet.prefix(m)).entries, 2.0)
        assert sub <= full + 1e-12
    rng = np.random.default_rng(21)
    for _ in range(30):
        size = int(rng.integers(1, basis.rank + 1))
        a = IndexSet.of(rng.choice(basis.rank, size=size, replace=False))
        sub = rho_var_2d(partial_cov(basis, a).entries, 2.0)
        assert sub <= full + 1e-12


def test_partial_cov_rho_var_tail_bound():
    # Removing finitely many modes changes the rho-variation by at most the
    # sum of the removed rank-one pieces.
    n = 8
    rho = 1.0 / (2.0 * 0.45)
    r = cov_matrix(CovKernel.fbm(0.45), uniform_grid(n))
    basis = kl_decompose(r)
    full = rho_var_2d(r.entries, max(1.0, rho))
    rng = np.random.default_rng(33)
    for _ in range(20):
        size = int(rng.integers(1, basis.rank + 1))
        a = IndexSet.of(rng.choice(basis.rank, size=size, replace=False))
        sub = rho_var_2d(partial_cov(basis, a).entries, max(1.0, rho))
        tail = sum(
            rho_var_2d(np.outer(basis.h[k], basis.h[k]), max(1.0, rho))
            for k in a.complement(basis.rank)
        )
        assert sub <= full + tail + 1e-10


def test_level2_double_sum_matches_lift():
    n = 10
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.fbm(0.4), grid)
    basis = kl_decompose(r)
    vals = sample_values(r, 2, 1, seed=12)[0]
    a = IndexSet.of([0, 1, 4, 6])
    x = SamplePath(grid, vals)
    proj = project(x, [basis, basis], a)
    coeffs = np.stack([coefficients(vals[c], basis) for c in range(2)])
    gp = lift_pl(proj)
    for t_node in (4, n):
        g = gp.point(t_node)
        for i, j in [(0, 1), (1, 0), (0, 0)]:
            got = level2_double_sum([basis, basis], coeffs, a, t_node, i, j)
            assert abs(got - g.levels[2][i, j]) <= 1e-11


def test_level2_double_sum_empty_set():
    basis = brownian_basis(6)
    coeffs = np.zeros((1, basis.rank))
    got = level2_double_sum([basis], coeffs, IndexSet.prefix(0), 6, 0, 0)
    assert got == 0.0


def test_level3_correction_full_set_is_zero():
    # Conditioning on every mode leaves no residual, so the adjustment
    # vanishes identically.
    n = 8
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.fbm(0.4), grid)
    basis = kl_decompose(r)
    vals = sample_values(r, 2, 1, seed=13)[0]
    full = IndexSet.prefix(basis.rank)
    x = SamplePath(grid, vals)
    corr = level3_correction([basis, basis], full, x, 0, n)
    assert np.max(np.abs(corr.levels[3])) <= 1e-10
    assert np.max(np.abs(corr.levels[1])) == 0.0


def test_level3_correction_scalar_component_is_zero():
    # With one component there is no off-axis bracket to correct.
    n = 6
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.brownian(), grid)
    basis = kl_decompose(r)
    vals = sample_values(r, 1, 1, seed=14)[0]
    a = IndexSet.prefix(2)
    corr = level3_correction([basis], a, SamplePath(grid, vals), 0, n)
    assert np.max(np.abs(corr.levels[3])) <= 1e-12


def test_level3_correction_empty_window_is_zero():
    n = 6
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.brownian(), grid)
    basis = kl_decompose(r)
    vals = sample_values(r, 2, 1, seed=15)[0]
    a = IndexSet.prefix(2)
    corr = level3_correction([basis, basis], a, SamplePath(grid, vals), 3, 3)
    assert np.max(np.abs(corr.levels[3])) <= 1e-15


def test_conditional_log_full_set_is_deterministic():
    # Conditioning on all modes pins the path, so the draws collapse onto
    # the deterministic increment and the spread vanishes.
    n = 8
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.fbm(0.45), grid)
    basis = kl_decompose(r)
    vals = sample_values(r, 2, 1, seed=16)[0]
    full = IndexSet.prefix(basis.rank)
    x = SamplePath(grid, vals)
    mean, se = conditional_log_mc([basis, basis], full, x, 2, 7, count=8, seed=1)
    ref = log(signature_increment(lift_pl(x), 2, 7))
    assert max_abs_diff(mean, ref) <= 1e-9
    assert all(np.max(s) <= 1e-10 for s in se)


def test_conditional_log_deterministic_in_seed():
    n = 8
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.brownian(), grid)
    basis = kl_decompose(r)
    vals = sample_values(r, 2, 1, seed=17)[0]
    a = IndexSet.prefix(3)
    x = SamplePath(grid, vals)
    m1, s1 = conditional_log_mc([basis, basis], a, x, 0, n, count=50, seed=5)
    m2, s2 = conditional_log_mc([basis, basis], a, x, 0, n, count=50, seed=5)
    assert max_abs_diff(m1, m2) == 0.0
    m3, _ = conditional_log_mc([basis, basis], a, x, 0, n, count=50, seed=6)
    assert max_abs_diff(m1, m3) > 0.0


def test_conditional_log_level1_matches_projection():
    # Residual modes have mean zero, so the level-1 mean is the projected
    # increment up to Monte Carlo error.
    n = 10
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.brownian(), grid)
    basis = kl_decompose(r)
    vals = sample_values(r, 2, 1, seed=18)[0]
    a = IndexSet.prefix(4)
    x = SamplePath(grid, vals)
    proj = project(x, [basis, basis], a)
    s, t = 2, 9
    mean, se = conditional_log_mc([basis, basis], a, proj, s, t, count=4000, seed=2)
    expect = proj.values[:, t] - proj.values[:, s]
    z = np.abs(mean.levels[1] - expect) / np.maximum(se[0], 1e-300)
    assert np.max(z) <= 5.0


def test_error_paths():
    n = 6
    grid = uniform_grid(n)
    r = cov_matrix(CovKernel.brownian(), grid)
    basis = kl_decompose(r)
    vals = sample_values(r, 2, 1, seed=19)[0]
    x = SamplePath(grid, vals)
    with pytest.raises(ValueError):
        project(x, [basis], IndexSet.prefix(2))
    with pytest.raises(ValueError):
        project(x, [basis, basis], IndexSet.of([basis.rank]))
    with pytest.raises(ValueError):
        coefficients(np.zeros(3), basis)
    with pytest.raises(ValueError):
        level3_correction([basis, basis], IndexSet.prefix(2), x, 4, 2)
    with pytest.raises(DataError):
        conditional_log_mc([basis, basis], IndexSet.prefix(2), x, 0, n, count=1, seed=0)
