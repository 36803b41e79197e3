import math
from itertools import product

import numpy as np
import pytest

import gaussrough.variation_metrics as vm
from gaussrough import (
    Dissection,
    GroupPath,
    SamplePath,
    TimeGrid,
    all_dissections,
    dist,
    holder_dist,
    holder_norm,
    hom_norm,
    lift_pl,
    pvar_dist,
    pvar_norm,
    rect_increment,
    rho_var_2d,
    signature_increment,
    uniform_grid,
)
from gaussrough.path_lift import signature_at
from gaussrough.variation_metrics import (
    holder_batch,
    pair_dist_table,
    pvar_batch,
    reduce_pair_dists,
)
from conftest import random_path


def lift(values):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = values.shape[1] - 1
    return lift_pl(SamplePath(uniform_grid(n), values))


def test_dissection_validation():
    Dissection((0, 2, 5))
    with pytest.raises(ValueError):
        Dissection((0,))
    with pytest.raises(ValueError):
        Dissection((1, 3))
    with pytest.raises(ValueError):
        Dissection((0, 3, 2))


def test_all_dissections_count():
    # Interior nodes are free, endpoints fixed: 2^(n-1) dissections.
    assert sum(1 for _ in all_dissections(4)) == 8
    seen = {d.indices for d in all_dissections(3)}
    assert (0, 3) in seen and (0, 1, 2, 3) in seen


def test_zigzag_total_variation():
    x = lift([0.0, 1.0, 0.0, 1.0])
    assert abs(pvar_norm(x, 1.0) - 3.0) <= 1e-12
    assert abs(pvar_norm(x, 1.0, mode="brute") - 3.0) <= 1e-12


def test_monotone_scalar_closed_form(rng):
    # For a scalar increasing path the node distance is the bare increment,
    # and (a+b)^p >= a^p + b^p makes the single-jump dissection optimal.
    vals = np.cumsum(np.abs(rng.normal(size=9)))
    vals = np.concatenate([[0.0], vals])
    x = lift(vals)
    total = vals[-1] - vals[0]
    for p in (1.0, 1.5, 2.0, 3.7):
        assert abs(pvar_norm(x, p) - total) <= 1e-10 * max(1.0, total)


def test_dp_equals_brute(rng):
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 11))
        x = lift_pl(random_path(rng, d, n))
        y = lift_pl(random_path(rng, d, n))
        p = float(rng.uniform(1.0, 4.0))
        a = pvar_dist(x, y, p, mode="dp")
        b = pvar_dist(x, y, p, mode="brute")
        assert abs(a - b) <= 1e-10 * max(1.0, b)


def test_pvar_nonincreasing_in_p(rng):
    x = lift_pl(random_path(rng, 2, 12))
    vals = [pvar_norm(x, p) for p in (1.0, 1.5, 2.0, 3.0, 4.0)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-12


def test_pvar_dist_symmetry_and_zero(rng):
    x = lift_pl(random_path(rng, 2, 10))
    y = lift_pl(random_path(rng, 2, 10))
    assert abs(pvar_dist(x, y, 2.2) - pvar_dist(y, x, 2.2)) <= 1e-12
    # The self-distance floor reflects cube-root rounding in the norm.
    assert pvar_dist(x, x, 2.2) <= 1e-5


def test_pvar_refinement_monotone(rng):
    # The refined node set contains the coarse one, so the sup cannot drop.
    path = random_path(rng, 2, 6)
    t = path.grid.times
    fine_t = np.sort(np.concatenate([t, 0.5 * (t[:-1] + t[1:])]))
    fine_vals = np.stack([np.interp(fine_t, t, path.values[c]) for c in range(2)])
    coarse = lift_pl(path)
    fine = lift_pl(SamplePath(TimeGrid(fine_t), fine_vals))
    for p in (1.0, 2.5):
        assert pvar_norm(fine, p) >= pvar_norm(coarse, p) - 1e-12


def test_pvar_norm_at_huge_scale(rng):
    # At 2^200 the squares of level coordinates overflow; at 2^-520 they are
    # subnormal, and at 2^-600 they underflow to 0.  Those pair-table entries
    # are redone with levels scaled by powers of two.
    path = random_path(rng, 2, 8)
    for shift in (200, -520, -600):
        scaled = lift_pl(SamplePath(path.grid, np.ldexp(path.values, shift)))
        for p in (1.0, 2.5):
            unit = pvar_norm(lift_pl(path), p)
            assert abs(np.ldexp(pvar_norm(scaled, p), -shift) - unit) <= 1e-12 * unit
        unit = holder_norm(lift_pl(path), 0.3)
        assert abs(np.ldexp(holder_norm(scaled, 0.3), -shift) - unit) <= 1e-12 * unit


def test_pvar_validation(rng):
    x = lift_pl(random_path(rng, 1, 4))
    y = lift_pl(random_path(rng, 1, 5))
    with pytest.raises(ValueError):
        pvar_dist(x, y, 2.0)
    with pytest.raises(ValueError):
        pvar_norm(x, 0.5)
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError):
            pvar_norm(x, p)
    with pytest.raises(ValueError):
        pvar_norm(x, 2.0, mode="annealing")
    big = lift_pl(random_path(rng, 1, 20))
    with pytest.raises(ValueError):
        pvar_norm(big, 2.0, mode="brute")


def test_holder_line():
    n = 8
    x = lift(uniform_grid(n).times)
    assert abs(holder_norm(x, 1.0) - 1.0) <= 1e-12


def test_holder_alpha_zero_is_max_dist(rng):
    x = lift_pl(random_path(rng, 2, 8))
    got = holder_norm(x, 0.0)
    # With no time weighting the bound is the largest pairwise distance.
    from gaussrough import dist

    pts = x.points
    expect = max(
        dist(pts[i], pts[j]) for i in range(9) for j in range(i + 1, 9)
    )
    assert abs(got - expect) <= 1e-12


def test_holder_constant_path():
    x = lift(np.zeros(6))
    assert holder_norm(x, 0.5) <= 1e-12


def test_holder_validation(rng):
    x = lift_pl(random_path(rng, 1, 4))
    with pytest.raises(ValueError):
        holder_norm(x, 1.2)
    with pytest.raises(ValueError):
        holder_norm(x, -0.1)


def test_rect_increment_values():
    r = np.arange(16, dtype=float).reshape(4, 4)
    got = rect_increment(r, 0, 2, 1, 3)
    assert got == r[2, 3] - r[2, 1] - r[0, 3] + r[0, 1]
    with pytest.raises(ValueError):
        rect_increment(r, 2, 1, 0, 3)
    with pytest.raises(ValueError):
        rect_increment(r, 0, 4, 0, 3)


def test_rect_increment_additivity(rng):
    r = rng.normal(size=(6, 6))
    whole = rect_increment(r, 0, 5, 1, 4)
    parts = (
        rect_increment(r, 0, 3, 1, 2)
        + rect_increment(r, 0, 3, 2, 4)
        + rect_increment(r, 3, 5, 1, 2)
        + rect_increment(r, 3, 5, 2, 4)
    )
    assert abs(whole - parts) <= 1e-12


def brownian_cov(n):
    t = uniform_grid(n).times
    return np.minimum.outer(t, t)


def test_brownian_one_variation_is_one():
    r = brownian_cov(8)
    for mode in ("fullgrid", "brute", "hillclimb"):
        assert abs(rho_var_2d(r, 1.0, mode=mode) - 1.0) <= 1e-12


def test_brownian_sub_block():
    r = brownian_cov(8)
    # Only the diagonal contributes, so a half window carries half the mass.
    v = rho_var_2d(r, 1.0, mode="fullgrid", lo=0, hi=4)
    assert abs(v - 0.5) <= 1e-12


def test_fullgrid_le_brute_le_hillclimb_consistency(rng):
    for _ in range(12):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n + 1, n + 1))
        r = a @ a.T
        rho = float(rng.uniform(1.0, 2.5))
        full = rho_var_2d(r, rho, mode="fullgrid")
        brute = rho_var_2d(r, rho, mode="brute")
        climb = rho_var_2d(r, rho, mode="hillclimb")
        assert full <= brute + 1e-12
        assert climb <= brute + 1e-12
        assert climb >= full - 1e-12


def test_hillclimb_matches_brute_small(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n + 1, n + 1))
        r = a @ a.T
        brute = rho_var_2d(r, 1.4, mode="brute")
        climb = rho_var_2d(r, 1.4, mode="hillclimb")
        assert abs(climb - brute) <= 1e-10 * max(1.0, brute)


def _reference_grid_sum(r, idx, rho):
    sub = r[np.ix_(idx, idx)]
    cells = np.diff(np.diff(sub, axis=0), axis=1)
    return float(np.sum(np.abs(cells) ** rho))


def _reference_hillclimb(r, nodes, rho, seed):
    # The search as it stood before screening: every candidate evaluated.
    n_seg = nodes.size - 1
    interior = list(range(1, n_seg))

    def climb(member):
        current = _reference_grid_sum(r, nodes[np.flatnonzero(member)], rho)
        improved = True
        while improved:
            improved = False
            for k in interior:
                member[k] = ~member[k]
                candidate = _reference_grid_sum(r, nodes[np.flatnonzero(member)], rho)
                if candidate > current * (1 + 1e-15):
                    current = candidate
                    improved = True
                else:
                    member[k] = ~member[k]
            if improved:
                continue
            for a_idx in range(len(interior)):
                for b_idx in range(a_idx + 1, len(interior)):
                    ka, kb = interior[a_idx], interior[b_idx]
                    member[ka] = ~member[ka]
                    member[kb] = ~member[kb]
                    candidate = _reference_grid_sum(r, nodes[np.flatnonzero(member)], rho)
                    if candidate > current * (1 + 1e-15):
                        current = candidate
                        improved = True
                    else:
                        member[ka] = ~member[ka]
                        member[kb] = ~member[kb]
        return current

    full = np.ones(n_seg + 1, dtype=bool)
    best = climb(full.copy())
    rng = np.random.default_rng(seed)
    for _ in range(vm._HILLCLIMB_RESTARTS):
        member = full.copy()
        if interior:
            member[1:n_seg] = rng.random(n_seg - 1) < 0.5
        best = max(best, climb(member))
    return max(best, _reference_grid_sum(r, nodes, rho))


def fbm_cov(n, hurst):
    t = uniform_grid(n).times
    h2 = 2.0 * hurst
    return 0.5 * (t[:, None] ** h2 + t[None, :] ** h2 - np.abs(t[:, None] - t[None, :]) ** h2)


def random_rho_cases(rng, count, max_n):
    """Symmetric, non-symmetric and fbm matrices with a random sub-block.  The
    last kind adds a constant: it cancels in every cell but lifts the screen's
    margin, which scales with the largest entry, far above most gains."""
    for case in range(count):
        n = int(rng.integers(2, max_n + 1))
        a = rng.normal(size=(n + 1, n + 1))
        fbm = fbm_cov(n, float(rng.uniform(0.1, 0.5)))
        r = (a @ a.T, a, fbm, a @ a.T + 1e6)[case % 4]
        lo = int(rng.integers(0, max(1, n // 3)))
        hi = int(rng.integers(lo + 1, n + 1))
        yield r, float(rng.uniform(1.0, 3.0)), lo, hi


def test_hillclimb_equals_unscreened_search(rng):
    for r, rho, lo, hi in random_rho_cases(rng, 200, 24):
        seed = int(rng.integers(0, 1 << 16))
        ref = _reference_hillclimb(r, np.arange(lo, hi + 1), rho, seed) ** (1.0 / rho)
        assert rho_var_2d(r, rho, mode="hillclimb", lo=lo, hi=hi, seed=seed) == ref


def test_hillclimb_equals_unscreened_search_at_large_rho():
    # At rho in [3, 8] coarse dissections win and climbs accept many
    # toggles, so a walk that kept judging candidates by the screen of the
    # state before an acceptance would skip improvements: with these seeds
    # it changes 2 of these 80 values.
    rng = np.random.default_rng(2022)
    for case in range(80):
        n = int(rng.integers(6, 17))
        a = rng.normal(size=(n + 1, n + 1))
        fbm = fbm_cov(n, float(rng.uniform(0.1, 0.5)))
        r = (a @ a.T, a, fbm)[case % 3]
        rho, seed = float(rng.uniform(3.0, 8.0)), int(rng.integers(0, 1 << 16))
        ref = _reference_hillclimb(r, np.arange(n + 1), rho, seed) ** (1.0 / rho)
        assert rho_var_2d(r, rho, mode="hillclimb", seed=seed) == ref


def test_cell_table_sums_equal_grid_sum(rng):
    grown = 0
    for r, rho, lo, hi in random_rho_cases(rng, 40, 29):
        sub = r[lo : hi + 1, lo : hi + 1]
        table = vm._CellTable(sub, rho)
        n_seg = hi - lo
        states = []
        for _ in range(6):
            member = np.ones(n_seg + 1, dtype=bool)
            member[1:n_seg] = rng.random(n_seg - 1) < 0.5
            states.append(np.flatnonzero(member))
            capacity = table.values.shape[0]
            total, ip = table.grid_sum(states[-1])
            assert total == vm._grid_sum(sub, states[-1], rho)
            assert np.array_equal(ip, table.slot[states[-1][:-1], states[-1][1:]])
            grown += 0 < capacity < table.values.shape[0]
            assert table.values.shape[0] <= 2 * table.starts.size
        # Rows and columns slotted before a growth survive it unchanged.
        for idx in states:
            assert table.grid_sum(idx)[0] == vm._grid_sum(sub, idx, rho)
    assert grown > 20


def test_hillclimb_table_grows_with_visited_intervals(monkeypatch):
    tables = []

    class Recorded(vm._CellTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(vm, "_CellTable", Recorded)
    rho_var_2d(fbm_cov(64, 0.3), 1 / 0.6, mode="hillclimb", seed=1)
    (table,) = tables
    slotted = np.count_nonzero(table.slot >= 0)
    # Far from all 2080 intervals of the grid: the table is not n^4.
    assert slotted < 2080 // 2
    assert table.values.shape[0] <= 2 * slotted


def test_hillclimb_scale_free():
    # The acceptance rule is relative: at 4^-24 every improvement of this
    # matrix's grid sum is below 1e-15, which an absolute rule would reject.
    a = np.random.default_rng(0).normal(size=(13, 13))
    r = a @ a.T
    ref = rho_var_2d(r, 1.4, mode="hillclimb", seed=3)
    for k in (-24, -20, 20, 24):
        c = 4.0**k
        assert abs(rho_var_2d(c * r, 1.4, mode="hillclimb", seed=3) / c - ref) <= 1e-12 * ref


def test_screened_gains_match_exact_differences(rng):
    overlapping = 0
    for r, rho, lo, hi in random_rho_cases(rng, 60, 16):
        sub = r[lo : hi + 1, lo : hi + 1]
        table = vm._CellTable(sub, rho)
        n_seg = hi - lo
        member = np.ones(n_seg + 1, dtype=bool)
        member[1:n_seg] = rng.random(n_seg - 1) < 0.5
        before = vm._grid_sum(sub, np.flatnonzero(member), rho)
        _, ip = table.grid_sum(np.flatnonzero(member))
        u = vm._window(member)
        gain = vm._toggle_gains(table, member, ip, u)
        # One entry per pair i < j, in row-major order.
        pair = iter(vm._pair_gains(table, member, ip, u, gain))
        tol = 1e-12 * before
        for k in range(1, n_seg):
            after = member.copy()
            after[k] = ~after[k]
            exact = vm._grid_sum(sub, np.flatnonzero(after), rho) - before
            assert abs(gain[k - 1] - exact) <= tol
            for kb in range(k + 1, n_seg):
                both = after.copy()
                both[kb] = ~both[kb]
                exact = vm._grid_sum(sub, np.flatnonzero(both), rho) - before
                assert abs(next(pair) - exact) <= tol
                # The windows overlap: no member lies strictly between.
                overlapping += not member[k + 1 : kb].any()
    assert overlapping > 100


def test_hillclimb_pair_phase_sums_only_screened_candidates(monkeypatch):
    # fbm H=0.3 at n=28 and rho=1/0.6 (the rhovar benchmark's shape): every
    # overlapping-window pair used to be summed exactly, 393-453 sums per
    # search; screening them leaves 154-163.
    sums = []

    class Counted(vm._CellTable):
        def grid_sum(self, idx):
            sums[-1] += 1
            return super().grid_sum(idx)

    monkeypatch.setattr(vm, "_CellTable", Counted)
    for seed in range(5):
        sums.append(0)
        rho_var_2d(fbm_cov(28, 0.3), 1 / 0.6, mode="hillclimb", seed=seed)
    assert 0 < max(sums) < 250


def test_hillclimb_screens_pairs_of_full_grid_once(monkeypatch):
    # At the rhovar benchmark's shape every climb ends at the full grid.  The
    # first climb proves it a local max, and later climbs end on reaching
    # it, so its pair screen runs once per search, not once per climb.
    full_screens = []
    pair_gains = vm._pair_gains

    def counted(table, member, *args):
        full_screens[-1] += bool(member.all())
        return pair_gains(table, member, *args)

    monkeypatch.setattr(vm, "_pair_gains", counted)
    r = fbm_cov(28, 0.3)
    for seed in range(5):
        full_screens.append(0)
        assert rho_var_2d(r, 1 / 0.6, mode="hillclimb", seed=seed) == rho_var_2d(r, 1 / 0.6)
    assert full_screens == [1] * 5


def test_hillclimb_exact_tie_brownian():
    # rho = 1 on Brownian covariance: only diagonal cells are nonzero, so
    # every toggle gains exactly nothing and the screen may skip none.
    r = brownian_cov(28)
    member = np.ones(29, dtype=bool)
    member[1::3] = False
    table = vm._CellTable(r, 1.0)
    _, ip = table.grid_sum(np.flatnonzero(member))
    gain = vm._toggle_gains(table, member, ip, vm._window(member))
    assert np.max(np.abs(gain)) <= 1e-15
    assert abs(rho_var_2d(r, 1.0, mode="hillclimb") - 1.0) <= 1e-12
    assert abs(rho_var_2d(r, 1.0, mode="hillclimb", lo=5, hi=20) - 15 / 28) <= 1e-12


def test_rho_var_2d_redoes_underflowed_sums():
    # fbm H=0.3 at n=8 and rho=600: every |cell|^rho of the full grid
    # underflows (the largest cell is about 0.29), so its sum is redone on R
    # scaled by a power of two.  The reference factors each dissection's
    # largest cell M out of its sum instead: M (sum (|c|/M)^rho)^(1/rho).
    r, rho = fbm_cov(8, 0.3), 600.0

    def factored(idx):
        cells = np.abs(np.diff(np.diff(r[np.ix_(idx, idx)], axis=0), axis=1))
        top = np.max(cells)
        return top * np.sum((cells / top) ** rho) ** (1.0 / rho)

    assert vm._grid_sum(r, np.arange(9), rho) == 0.0
    full = factored(np.arange(9))
    assert abs(rho_var_2d(r, rho) - full) <= 1e-12 * full
    brute = max(factored(np.array(d.indices)) for d in all_dissections(8))
    assert abs(rho_var_2d(r, rho, mode="brute") - brute) <= 1e-12 * brute
    assert rho_var_2d(r, rho, mode="hillclimb") >= rho_var_2d(r, rho)
    # fbm H=0.1 times 2^-3: every dissection's sum underflows, in every mode.
    r = fbm_cov(8, 0.1)
    for mode in ("fullgrid", "brute", "hillclimb"):
        unit = rho_var_2d(r, rho, mode=mode)
        assert abs(rho_var_2d(np.ldexp(r, -3), rho, mode=mode) * 8 - unit) <= 1e-12 * unit


def _two_dissection_brute(r, rho):
    # Friz-Victoir's 2D rho-variation on the grid: the sup over pairs (D, D')
    # of dissections, one per axis, of sum |R(D_i x D'_j)|^rho.
    dissections = [np.array(d.indices) for d in all_dissections(r.shape[0] - 1)]
    best = 0.0
    for d in dissections:
        rows = np.diff(r[d], axis=0)
        for e in dissections:
            best = max(best, float(np.sum(np.abs(np.diff(rows[:, e], axis=1)) ** rho)))
    return best ** (1.0 / rho)


def test_shared_dissection_attains_two_dissection_sup(rng):
    # For a covariance the sup over D x D' is attained on one shared
    # dissection D x D, which is what ``rho_var_2d`` searches.
    cases = []
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n + 1, int(rng.integers(1, n + 2))))
        cases.append((a @ a.T, float(rng.uniform(1.0, 3.0))))
    for hurst, n in product((0.26, 0.3, 0.4), (3, 4, 5, 6)):
        cases += [(fbm_cov(n, hurst), rho) for rho in (1.0, 0.5 / hurst, 2.0, 2.5)]
    for r, rho in cases:
        shared = rho_var_2d(r, rho, mode="brute")
        assert abs(_two_dissection_brute(r, rho) - shared) <= 1e-12 * shared
    # Control: without positive semi-definiteness D x D' can beat every D x D.
    gaps = []
    for _ in range(100):
        n = int(rng.integers(2, 7))
        s = rng.normal(size=(n + 1, n + 1))
        rho = float(rng.uniform(1.0, 3.0))
        gaps.append(_two_dissection_brute(s + s.T, rho) / rho_var_2d(s + s.T, rho, mode="brute"))
    assert max(gaps) > 1.01


def test_rho_var_nonincreasing_in_rho(rng):
    a = rng.normal(size=(7, 7))
    r = a @ a.T
    vals = [rho_var_2d(r, rho, mode="brute") for rho in (1.0, 1.3, 1.8, 2.5)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-12


def test_rho_var_validation():
    r = brownian_cov(4)
    with pytest.raises(ValueError):
        rho_var_2d(r, 0.9)
    for rho in (math.nan, math.inf):
        for mode in ("fullgrid", "hillclimb"):
            with pytest.raises(ValueError):
                rho_var_2d(r, rho, mode=mode)
    with pytest.raises(ValueError):
        rho_var_2d(r[:4, :5], 1.0)
    with pytest.raises(ValueError):
        rho_var_2d(r, 1.0, lo=3, hi=3)
    with pytest.raises(ValueError):
        rho_var_2d(r, 1.0, mode="gradient")
    big = brownian_cov(16)
    with pytest.raises(ValueError):
        rho_var_2d(big, 1.0, mode="brute")


def batch_lift(rng, batch, d, n, depth):
    values = np.cumsum(rng.standard_normal(batch + (d, n + 1)), axis=-1) / np.sqrt(n)
    return signature_at(values, depth)


def test_pair_dist_table_matches_public_dist(rng):
    # Every entry equals the per-element distance of the two signature
    # increments (general Neumann inverse, symmetrized norm).
    n = 6
    grid = uniform_grid(n)
    for d in (1, 2, 3):
        for depth in (1, 2, 3):
            x = batch_lift(rng, (2, 2), d, n, depth)
            y = batch_lift(rng, (2, 2), d, n, depth)
            table = pair_dist_table(x, y)
            norms = pair_dist_table(x)
            assert table.shape == norms.shape == (2, 2, n + 1, n + 1)
            for b in np.ndindex(2, 2):
                gx = GroupPath(grid, tuple(lv[b] for lv in x))
                gy = GroupPath(grid, tuple(lv[b] for lv in y))
                for i in range(n + 1):
                    for j in range(n + 1):
                        if j <= i:
                            assert table[b + (i, j)] == 0.0 and norms[b + (i, j)] == 0.0
                            continue
                        xi = signature_increment(gx, i, j)
                        yi = signature_increment(gy, i, j)
                        for got, expect in (
                            (table[b + (i, j)], dist(xi, yi)),
                            (norms[b + (i, j)], hom_norm(xi)),
                        ):
                            assert abs(got - expect) <= 1e-12 * expect, (d, depth, b, i, j)


def test_pair_dist_table_self_distance_is_exactly_zero(rng):
    for d in (1, 2, 3):
        for depth in (1, 2, 3):
            x = batch_lift(rng, (3,), d, 7, depth)
            assert np.all(pair_dist_table(x, x) == 0.0)


def test_pair_dist_table_chunks_bit_identical(rng, monkeypatch):
    n, d, depth = 5, 2, 3
    x = batch_lift(rng, (3, 2), d, n, depth)
    y = batch_lift(rng, (3, 2), d, n, depth)
    whole = [pair_dist_table(x, y), pair_dist_table(x)]
    times = uniform_grid(n).times
    reductions = (lambda t: pvar_batch(t, 2.5), lambda t: holder_batch(t, times, 0.3))
    reduced = [pvar_batch(whole[0], 2.5), holder_batch(whole[0], times, 0.3)]
    pairs = n * (n + 1) // 2
    for per_chunk in (1, 4):
        monkeypatch.setattr(vm, "_PAIR_CHUNK_BYTES", 8 * pairs * d**depth * per_chunk)
        for per_table in (1, 4, 6):
            monkeypatch.setattr(vm, "_TABLE_CHUNK_BYTES", 8 * (n + 1) ** 2 * per_table)
            assert np.array_equal(pair_dist_table(x, y), whole[0])
            assert np.array_equal(pair_dist_table(x), whole[1])
            got = reduce_pair_dists(x, y, *reductions)
            assert all(np.array_equal(g, r) for g, r in zip(got, reduced))


def test_reduce_pair_dists_stack_bit_identical(rng, monkeypatch):
    # A stack of x paths against one shared y (or none) gives, entry for
    # entry, the tables and reductions of one call per entry, whatever the
    # chunks and table groups; 7 samples are no multiple of any chunk here.
    n, d, depth, samples = 5, 2, 3, 7
    times = uniform_grid(n).times
    reductions = (
        lambda t: pvar_batch(t, 2.5),
        lambda t: holder_batch(t, times, 0.3),
        lambda t: t,
    )
    y = batch_lift(rng, (samples,), d, n, depth)
    top = 8 * n * (n + 1) // 2 * d**depth
    for stack in ((), (1,), (3,)):
        x = batch_lift(rng, stack + (samples,), d, n, depth)
        for shared in (y, None):
            want = [
                reduce_pair_dists([lv[s] for lv in x], shared, *reductions)
                for s in np.ndindex(stack)
            ]
            for per_chunk in (2, 4):
                monkeypatch.setattr(vm, "_PAIR_CHUNK_BYTES", top * per_chunk)
                for per_table in (1, 6, 12):
                    monkeypatch.setattr(vm, "_TABLE_CHUNK_BYTES", 8 * (n + 1) ** 2 * per_table)
                    got = reduce_pair_dists(x, shared, *reductions)
                    assert [g.shape[: len(stack) + 1] for g in got] == [stack + (samples,)] * 3
                    for s, entry in zip(np.ndindex(stack), want):
                        assert all(np.array_equal(g[s], w) for g, w in zip(got, entry))
            monkeypatch.undo()


def test_dp_max_sum_batched_equals_rows(rng):
    cost = rng.uniform(size=(3, 2, 9, 9))
    got = pvar_batch(cost, 2.5)
    assert got.shape == (3, 2)
    for b in np.ndindex(3, 2):
        assert got[b] == pvar_batch(cost[b], 2.5)
