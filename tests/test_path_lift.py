import numpy as np
import pytest

from gaussrough import (
    GroupPath,
    SamplePath,
    TimeGrid,
    dilate,
    identity,
    lie_from_vector,
    lift_pl,
    log,
    max_abs_diff,
    mul,
    exp,
    signature_increment,
    uniform_grid,
    young_integral_quadratic,
)
from conftest import assert_elements_close, random_path

TOL = 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.2]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.6, 0.4, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([1.0]))
    g = uniform_grid(4)
    assert g.n_segments == 4
    assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875])


def test_lift_of_constant_path_is_identity():
    path = SamplePath(uniform_grid(5), np.full((3, 6), 2.5))
    gp = lift_pl(path)
    for i in range(6):
        assert_elements_close(gp.point(i), identity(3, 3), 0.0, "constant lift")


def test_lift_of_linear_segment():
    v = np.array([0.8, -0.3])
    path = SamplePath(TimeGrid(np.array([0.0, 1.0])), np.stack([[0.0, v[0]], [0.0, v[1]]]))
    g = lift_pl(path).point(1)
    assert_elements_close(g, exp(lie_from_vector(v)), TOL, "segment lift")
    l = log(g)
    assert np.max(np.abs(l.levels[1] - v)) <= TOL
    assert np.max(np.abs(l.levels[2])) <= TOL
    assert np.max(np.abs(l.levels[3])) <= TOL


def test_lift_two_segment_planar_example():
    # (0,0) -> (1,0) -> (1,1): area entry fills one corner only.
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    path = SamplePath(grid, np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]))
    g = lift_pl(path).point(2)
    assert abs(g.levels[2][0, 1] - 1.0) <= TOL
    assert abs(g.levels[2][1, 0]) <= TOL
    assert np.allclose(g.levels[1], [1.0, 1.0])


def test_level1_subtracts_start(rng):
    path = random_path(rng, 3, 10)
    shifted = SamplePath(path.grid, path.values + 4.0)
    gp = lift_pl(shifted)
    for i in (3, 10):
        expect = path.values[:, i] - path.values[:, 0]
        assert np.max(np.abs(gp.point(i).levels[1] - expect)) <= TOL


def test_shift_invariance(rng):
    path = random_path(rng, 2, 8)
    shifted = SamplePath(path.grid, path.values - 1.7)
    a, b = lift_pl(path), lift_pl(shifted)
    for i in range(9):
        assert_elements_close(a.point(i), b.point(i), TOL, "shift invariance")


def test_chen_identity(rng):
    for _ in range(25):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2, 20))
        gp = lift_pl(random_path(rng, d, n, uniform=False))
        i, j, k = sorted(rng.integers(0, n + 1, size=3))
        lhs = signature_increment(gp, i, k)
        rhs = mul(signature_increment(gp, i, j), signature_increment(gp, j, k))
        assert_elements_close(lhs, rhs, TOL, "Chen")


def test_increment_against_sub_lift(rng):
    path = random_path(rng, 2, 12)
    gp = lift_pl(path)
    a, b = 3, 9
    sub_times = (path.grid.times[a : b + 1] - path.grid.times[a]) / (
        path.grid.times[b] - path.grid.times[a]
    )
    sub_times[0], sub_times[-1] = 0.0, 1.0
    sub = SamplePath(TimeGrid(sub_times), path.values[:, a : b + 1])
    assert_elements_close(
        signature_increment(gp, a, b), lift_pl(sub).point(b - a), TOL, "window lift"
    )


def test_refinement_consistency(rng):
    for _ in range(10):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 12))
        path = random_path(rng, d, n)
        t = path.grid.times
        fine_t = np.sort(np.concatenate([t, 0.5 * (t[:-1] + t[1:])]))
        fine_vals = np.stack([np.interp(fine_t, t, path.values[c]) for c in range(d)])
        fine = SamplePath(TimeGrid(fine_t), fine_vals)
        coarse_gp, fine_gp = lift_pl(path), lift_pl(fine)
        for i in range(n + 1):
            assert_elements_close(
                coarse_gp.point(i), fine_gp.point(2 * i), TOL, "refinement"
            )


def test_lift_scaling_matches_dilation(rng):
    path = random_path(rng, 2, 6)
    lam = 1.7
    scaled = SamplePath(path.grid, lam * path.values)
    a = lift_pl(scaled).point(6)
    b = dilate(lam, lift_pl(path).point(6))
    assert_elements_close(a, b, 1e-11, "dilation scaling")


def test_depth_truncation(rng):
    path = random_path(rng, 2, 5)
    g2 = lift_pl(path, depth=2).point(5)
    g3 = lift_pl(path, depth=3).point(5)
    assert g2.depth == 2
    assert np.max(np.abs(g2.levels[2] - g3.levels[2])) <= TOL


def test_group_path_accessors(rng):
    path = random_path(rng, 2, 4)
    gp = lift_pl(path)
    pts = gp.points
    assert len(pts) == 5
    rebuilt = GroupPath.from_points(gp.grid, pts)
    for k in range(gp.depth + 1):
        assert np.array_equal(rebuilt.levels[k][2], gp.levels[k][2])
    assert gp.dim == 2 and gp.depth == 3


def test_young_constant_integrand():
    grid = uniform_grid(4)
    x = SamplePath(grid, np.array([[0.0, 0.5, 0.3, 0.9, 1.1]]))
    ones = np.ones(5)
    val = young_integral_quadratic(ones, np.ones(4), x, 0, 0, 4)
    assert abs(val - 1.1) <= TOL


def test_young_linear_integrand_one_segment():
    grid = TimeGrid(np.array([0.0, 1.0]))
    x = SamplePath(grid, np.array([[0.0, 1.0]]))
    val = young_integral_quadratic(np.array([0.0, 1.0]), np.array([0.5]), x, 0, 0, 1)
    assert abs(val - 0.5) <= TOL


def test_young_quadratic_example():
    # f(u) = u^2 against x(u) = u on one segment: midpoint 1/4, integral 1/3.
    grid = TimeGrid(np.array([0.0, 1.0]))
    x = SamplePath(grid, np.array([[0.0, 1.0]]))
    val = young_integral_quadratic(np.array([0.0, 1.0]), np.array([0.25]), x, 0, 0, 1)
    assert abs(val - 1.0 / 3.0) <= TOL


def test_young_quadratic_multi_segment_exact():
    n = 8
    grid = uniform_grid(n)
    t = grid.times
    x = SamplePath(grid, t[None, :])
    # int u^2 du = 1/3, exact on every subdivision.
    val = young_integral_quadratic(t**2, grid.midpoints**2, x, 0, 0, n)
    assert abs(val - 1.0 / 3.0) <= TOL


def test_young_kinked_integrator_exact(rng):
    n = 6
    grid = uniform_grid(n)
    t = grid.times
    vals = rng.normal(size=n + 1)
    x = SamplePath(grid, vals[None, :])
    got = young_integral_quadratic(t**2, grid.midpoints**2, x, 0, 0, n)
    # Against a piecewise-linear integrator, each segment contributes
    # slope * int u^2 du in closed form.
    slopes = np.diff(vals) / np.diff(t)
    expect = float(np.sum(slopes * np.diff(t**3) / 3.0))
    assert abs(got - expect) <= 1e-12


def test_young_window():
    n = 4
    grid = uniform_grid(n)
    x = SamplePath(grid, grid.times[None, :])
    f_nodes = np.ones(n + 1)
    f_mids = np.ones(n)
    val = young_integral_quadratic(f_nodes, f_mids, x, 0, 1, 3)
    assert abs(val - 0.5) <= TOL


def test_young_validation():
    grid = uniform_grid(3)
    x = SamplePath(grid, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        young_integral_quadratic(np.zeros(3), np.zeros(3), x, 0, 0, 3)
    with pytest.raises(ValueError):
        young_integral_quadratic(np.zeros(4), np.zeros(3), x, 0, 2, 1)


def test_sample_path_validation():
    with pytest.raises(ValueError):
        SamplePath(uniform_grid(3), np.zeros((2, 3)))


def test_signature_at_equals_iterated_segment_products(rng):
    # The every-node lift reproduces the left-to-right product of segment
    # exponentials node by node, for any leading batch axes.
    from gaussrough.path_lift import signature_at

    n = 6
    for d in (1, 2, 3):
        for depth in (1, 2, 3):
            values = np.cumsum(rng.standard_normal((2, 3, d, n + 1)), axis=-1) / np.sqrt(n)
            levels = signature_at(values, depth)
            assert [lv.shape for lv in levels] == [(2, 3, n + 1) + (d,) * k for k in range(depth + 1)]
            assert all(lv.flags.c_contiguous for lv in levels)
            for b in np.ndindex(2, 3):
                g = identity(d, depth)
                for m in range(n + 1):
                    if m:
                        step = values[b][:, m] - values[b][:, m - 1]
                        g = mul(g, exp(lie_from_vector(step, depth)))
                    for k in range(depth + 1):
                        err = np.max(np.abs(levels[k][b + (m,)] - g.levels[k]))
                        assert err <= 1e-13, (d, depth, b, m, k, err)


def test_lift_pl_rejects_depth_outside_1_to_3():
    values = np.zeros((2, 5))
    for depth in (0, 4):
        with pytest.raises(ValueError):
            lift_pl(SamplePath(uniform_grid(4), values), depth)


def test_signature_at_few_nodes_equals_every_node(rng):
    # The block-product route (a few nodes) against the running-sum route
    # (every node), read at the same nodes.
    from gaussrough.path_lift import signature_at

    for depth in (1, 2, 3):
        for d in (1, 2, 3):
            for batch in ((), (5,), (4, 7)):
                for n in (0, 1, 9):
                    values = np.cumsum(rng.standard_normal(batch + (d, n + 1)), axis=-1)
                    full = signature_at(values, depth)
                    spread = sorted({0, n // 3, min(n // 2 + 1, n), n})
                    for nodes in ([], [0], [n], sorted({0, n}), [n // 2], spread):
                        got = signature_at(values, depth, nodes)
                        assert len(got) == depth + 1
                        for k in range(depth + 1):
                            want = full[k][(Ellipsis, nodes) + (slice(None),) * k]
                            assert got[k].shape == batch + (len(nodes),) + (d,) * k
                            scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
                            err = float(np.max(np.abs(got[k] - want), initial=0.0)) / scale
                            assert err <= 1e-13, (depth, d, batch, n, nodes, k, err)


def test_signature_at_rejects_bad_depth_and_nodes():
    from gaussrough.path_lift import signature_at

    values = np.zeros((3, 2, 6))
    for depth in (0, 4):
        with pytest.raises(ValueError):
            signature_at(values, depth, [5])
        with pytest.raises(ValueError):
            signature_at(values, depth)
    for nodes in ([3, 1], [2, 2], [-1], [6], [0, 6], [[1]]):
        with pytest.raises(ValueError):
            signature_at(values, 3, nodes)
    # None is every node, not a bad node list.
    assert [lv.shape for lv in signature_at(values, 3, None)] == [(3, 6)] + [
        (3, 6) + (2,) * k for k in (1, 2, 3)
    ]
