"""p-variation and Holder distances for group paths, and 2D rho-variation.

Distances between two lifted paths on a shared grid are evaluated over grid
nodes only.  For piecewise-linear lifts this loses nothing (suprema over
dissections are attained at breakpoints); for anything else it is an
approximation from below.

``pvar_dist`` maximizes sum_i d(X_{t_i,t_{i+1}}, Y_{t_i,t_{i+1}})^p over all
dissections of the grid, by exact dynamic programming in O(n^2) after an
O(n^2) table of pairwise increment distances, or by explicit enumeration of
all 2^(n-1) dissections for cross-checks on small grids.

``pair_dist_table`` builds that table for level-stacked paths with any
leading batch axes (the experiment runners pass all samples at once): Chen's
identity gives every node-pair increment from the node values, the quotient
X_ij^{-1} Y_ij is formed in difference form, and the plain max-level norm is
taken, which equals the symmetrized norm on these group-like increments.
``_dp_max_sum`` takes the same batch axes.

The 2D functional for a covariance matrix R maximizes
sum_{i,j} |rect increment of R over cell (i,j)|^rho over a single dissection
used on both axes, and returns the rho-th root.  ``fullgrid`` evaluates the
finest dissection, ``brute`` enumerates (small n), and ``hillclimb`` does a
first-improvement local search: passes of single node toggles (insertion or
deletion of an interior node) until none improves, then a pass over toggles
of node pairs, repeated until neither improves; it runs from the full grid and
from a few random restarts, so it never returns less than ``fullgrid``.

Each search state screens all its toggles at once: a toggle changes only the
cells in the row and column bands of its window, so its gain costs O(n) and
all of them one vectorized pass; two toggles with disjoint windows interact
only through a 3 x 3 block of cells each way, and pairs whose windows overlap
are not screened.  A candidate whose screened gain is below minus a margin far
above the rounding error of either computation is rejected unseen; every other
candidate is evaluated exactly and accepted on the exact sum, so the search
takes the decisions, and returns the value, that exact evaluation of every
candidate gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .path_lift import GroupPath

__all__ = [
    "Dissection",
    "pvar_dist",
    "pvar_norm",
    "holder_dist",
    "holder_norm",
    "rect_increment",
    "rho_var_2d",
    "all_dissections",
    "pair_dist_table",
]

_BRUTE_MAX_SEGMENTS = 14
BRUTE_MAX_2D = 10
_HILLCLIMB_RESTARTS = 8
# Bytes allowed for one top-level array of node-pair increments: pair_dist_table
# processes its batch in chunks of samples that fit.
_PAIR_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class Dissection:
    """Strictly increasing node indices, first and last node included."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) < 2 or any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("a dissection needs at least two strictly increasing indices")
        if idx[0] != 0:
            raise ValueError("a dissection starts at node 0")
        object.__setattr__(self, "indices", idx)


def all_dissections(n_segments: int):
    """Yield every dissection of a grid with the given segment count."""
    interior = range(1, n_segments)
    for r in range(n_segments):
        for combo in combinations(interior, r):
            yield Dissection((0,) + combo + (n_segments,))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Tensor product of graded pieces stored tensor axis first, (d**p, ...)
    # and (d**q, ...), so that the broadcast runs over the long batch axes.
    return (a[:, None] * b[None, :]).reshape((-1,) + a.shape[1:])


def _left_quotient(x: list[np.ndarray], y: list[np.ndarray]) -> list[np.ndarray]:
    """Levels 1..depth of x^{-1} (x) y from levels 1..depth of x and y.

    Both have scalar part 1; level k is stored flattened as (d**k, ...).
    Solving Chen's identity y = x (x) z degree by degree gives
    z_k = (y_k - x_k) - sum_{p<k} x_p (x) z_{k-p}, which is the Neumann-series
    product x^{-1} (x) y written in difference form: x = y gives exactly 0.
    """
    z: list[np.ndarray] = []
    for k in range(len(x)):
        acc = y[k] - x[k]
        for p in range(k):
            acc -= _outer(x[p], z[k - 1 - p])
        z.append(acc)
    return z


def pair_dist_table(x: Sequence[np.ndarray], y: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Distances d(X_{t_i,t_j}, Y_{t_i,t_j}) for all node pairs i < j.

    ``x`` and ``y`` are level-stacked group paths with any leading batch axes:
    level k has shape ``batch + (n_nodes,) + (d,)*k`` (level 0 is ignored and
    taken to be 1).  Returns ``batch + (n_nodes, n_nodes)``, zero on and below
    the diagonal; ``y=None`` compares against the constant path, i.e. gives
    ||X_{t_i,t_j}||.  The increments X_ij = X_i^{-1} (x) X_j and the quotient
    X_ij^{-1} (x) Y_ij both come from ``_left_quotient``; the norm is the plain
    max-level norm (see the module docstring).
    """
    depth = len(x) - 1
    n, d = x[1].shape[-2], x[1].shape[-1]
    batch = x[1].shape[:-2]
    size = math.prod(batch)
    i_idx, j_idx = np.triu_indices(n, k=1)
    # Level k as (d**k, size, n_nodes): tensor axis first, nodes last.
    flat = [
        [np.moveaxis(lv.reshape((size, n, d**k)), -1, 0) for k, lv in enumerate(g[1:], start=1)]
        for g in ([x] if y is None else [x, y])
    ]
    chunk = max(1, _PAIR_CHUNK_BYTES // (8 * i_idx.size * d**depth))
    out = np.zeros((size, n, n))
    for lo in range(0, size, chunk):
        rows = slice(lo, lo + chunk)
        # np.take keeps the gathered pairs contiguous along the last axis.
        inc = [
            _left_quotient(
                [np.take(lv[:, rows], i_idx, axis=-1) for lv in g],
                [np.take(lv[:, rows], j_idx, axis=-1) for lv in g],
            )
            for g in flat
        ]
        z = inc[0] if y is None else _left_quotient(inc[0], inc[1])
        dist = np.zeros(z[0].shape[1:])
        for k, lv in enumerate(z, start=1):
            dist = np.maximum(dist, np.sqrt(np.sum(lv * lv, axis=0)) ** (1.0 / k))
        out[rows, i_idx, j_idx] = dist
    return out.reshape(batch + (n, n))


def _check_shared_grid(x: GroupPath, y: GroupPath | None) -> None:
    if y is None:
        return
    if not x.grid.same_as(y.grid):
        raise ValueError("paths must share the same time grid")
    if x.dim != y.dim or x.depth != y.depth:
        raise ValueError("paths must share dim and depth")


def _dp_max_sum(cost: np.ndarray) -> np.ndarray:
    # cost[..., i, j] for i < j; best[..., j] = max over dissections of 0..j.
    n = cost.shape[-1]
    best = np.zeros(cost.shape[:-1])
    for j in range(1, n):
        best[..., j] = np.max(best[..., :j] + cost[..., :j, j], axis=-1)
    return best[..., -1]


def _brute_max_sum(cost: np.ndarray) -> float:
    n_seg = cost.shape[0] - 1
    best = -np.inf
    for d in all_dissections(n_seg):
        idx = d.indices
        s = sum(cost[a, b] for a, b in zip(idx, idx[1:]))
        if s > best:
            best = s
    return float(best)


def pvar_dist(x: GroupPath, y: GroupPath | None, p: float, mode: str = "dp") -> float:
    """p-variation distance between two lifted paths on their shared grid.

    ``mode='dp'`` is the exact O(n^2) dynamic program; ``mode='brute'``
    enumerates all dissections and is limited to small grids.  ``y=None``
    gives the p-variation norm of x.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    _check_shared_grid(x, y)
    cost = pair_dist_table(x.levels, None if y is None else y.levels) ** p
    if mode == "dp":
        value = float(_dp_max_sum(cost))
    elif mode == "brute":
        if x.grid.n_segments > _BRUTE_MAX_SEGMENTS:
            raise ValueError(f"brute mode is limited to {_BRUTE_MAX_SEGMENTS} segments")
        value = _brute_max_sum(cost)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return value ** (1.0 / p)


def pvar_norm(x: GroupPath, p: float, mode: str = "dp") -> float:
    return pvar_dist(x, None, p, mode)


def holder_dist(x: GroupPath, y: GroupPath | None, alpha: float) -> float:
    """alpha-Holder distance over grid node pairs; alpha = 0 gives the sup
    of node-pair increment distances."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    _check_shared_grid(x, y)
    d = pair_dist_table(x.levels, None if y is None else y.levels)
    n = x.grid.n_nodes
    i_idx, j_idx = np.triu_indices(n, k=1)
    gaps = x.grid.times[j_idx] - x.grid.times[i_idx]
    return float(np.max(d[i_idx, j_idx] / gaps**alpha))


def holder_norm(x: GroupPath, alpha: float) -> float:
    return holder_dist(x, None, alpha)


def rect_increment(r: np.ndarray, a: int, b: int, c: int, d: int) -> float:
    """Rectangular increment R[b,d] - R[b,c] - R[a,d] + R[a,c] of a matrix."""
    r = np.asarray(r)
    if not (0 <= a <= b < r.shape[0] and 0 <= c <= d < r.shape[1]):
        raise ValueError("rectangle corners out of range or misordered")
    return float(r[b, d] - r[b, c] - r[a, d] + r[a, c])


def _grid_sum(r: np.ndarray, idx: np.ndarray, rho: float) -> float:
    # np.diff's own operation order, without its per-call overhead.
    sub = r[idx[:, None], idx]
    rows = sub[1:] - sub[:-1]
    cells = rows[:, 1:] - rows[:, :-1]
    return float(np.sum(np.abs(cells) ** rho))


def rho_var_2d(
    r: np.ndarray,
    rho: float,
    mode: str = "fullgrid",
    lo: int = 0,
    hi: int | None = None,
    seed: int = 0,
) -> float:
    """2D rho-variation of a covariance matrix over one shared dissection.

    Operates on the sub-block of nodes lo..hi (inclusive; hi defaults to the
    last node).  Returns the rho-th root of the maximized cell sum.
    """
    if not 1.0 <= rho < math.inf:
        raise ValueError("rho must be finite and >= 1")
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("covariance must be a square matrix")
    hi = r.shape[0] - 1 if hi is None else hi
    if not 0 <= lo < hi <= r.shape[0] - 1:
        raise ValueError("need 0 <= lo < hi within the node range")
    nodes = np.arange(lo, hi + 1)
    n_seg = nodes.size - 1

    if mode == "fullgrid":
        best = _grid_sum(r, nodes, rho)
    elif mode == "brute":
        if n_seg > BRUTE_MAX_2D:
            raise ValueError(f"brute mode is limited to {BRUTE_MAX_2D} segments")
        best = max(
            _grid_sum(r, nodes[np.array(d.indices)], rho) for d in all_dissections(n_seg)
        )
    elif mode == "hillclimb":
        best = _hillclimb(r[lo : hi + 1, lo : hi + 1], rho, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return best ** (1.0 / rho)


# Intervals [a,k], [k,b], [a,b] of a node triple (a, k, b), and the weights
# that replace a whole interval by its two halves.
_STARTS, _ENDS = np.array([0, 1, 0]), np.array([1, 2, 2])
_HALVES = np.array([1.0, 1.0, -1.0])
# The corner of one toggle: four quarter cells against the whole cell.
_CORNER = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -1.0]])


def _triple_cells(r: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cells of r between the intervals of node triples u (rows) and v
    (columns), shape (..., 3, 3)."""
    sq = r[..., u[..., :, None], v[..., None, :]]
    half = np.take(sq, _ENDS, axis=-2) - np.take(sq, _STARTS, axis=-2)
    return np.take(half, _ENDS, axis=-1) - np.take(half, _STARTS, axis=-1)


def _window(member: np.ndarray) -> np.ndarray:
    """Triples (a, k, b) for every interior node k, where a < k < b are the
    nearest members of the dissection without k; shape (n-2, 3)."""
    place = np.arange(member.size)
    below = np.maximum.accumulate(np.where(member, place, 0))
    above = np.minimum.accumulate(np.where(member, place, place[-1])[::-1])[::-1]
    return np.stack((below[:-2], place[1:-1], above[2:]), axis=-1)


def _toggle_gains(rr: np.ndarray, member: np.ndarray, rho: float) -> np.ndarray:
    """Estimated change of the grid sum when one interior node k is toggled,
    at entry k-1.

    ``rr`` stacks R and its transpose, so rows and columns are summed alike
    and R need not be symmetric.  With a < k < b the nearest members of D
    without k, only the cells whose row or column interval lies inside [a, b]
    change: the bands [a,k] + [k,b] - [a,b] against every other interval of D,
    and the corner.  An insertion gains that sum, a deletion loses it.
    """
    pos = np.flatnonzero(member)
    u = _window(member)
    outside = (pos[:-1] < u[:, :1]) | (pos[1:] > u[:, 2:])
    # Increments of R and of R^T between row node a, k or b and each interval.
    v = rr[:, u.T[..., None], pos]
    c = v[..., 1:] - v[..., :-1]
    halves = np.sum(np.abs(c[:, 1:] - c[:, :-1]) ** rho, axis=1)
    band = halves - np.abs(c[:, 2] - c[:, 0]) ** rho
    corner = np.sum(np.abs(_triple_cells(rr[0], u, u)) ** rho * _CORNER, axis=(-2, -1))
    gain = np.sum(outside * band, axis=(0, -1)) + corner
    return np.where(member[1:-1], -gain, gain)


def _pair_gains(rr: np.ndarray, member: np.ndarray, gain: np.ndarray, rho: float) -> np.ndarray:
    """Estimated change of the grid sum when the interior nodes i < j are both
    toggled, at entry (i-1, j-1); ``gain`` is ``_toggle_gains`` of the state.

    Toggles with disjoint windows interact only through the cells between one's
    triple and the other's, so their pair gain is the two gains and that
    interaction.  Pairs whose windows overlap get +inf: they are not screened.
    """
    u = _window(member)
    sign = np.where(member[1:-1], -1.0, 1.0)
    i, j = np.triu_indices(u.shape[0], 1)
    cross = np.abs(_triple_cells(rr, u[i], u[j])) ** rho @ _HALVES @ _HALVES
    pair = np.empty((u.shape[0], u.shape[0]))
    pair[i, j] = gain[i] + gain[j] + sign[i] * sign[j] * np.sum(cross, axis=0)
    overlap = u[i, 2] > u[j, 0]
    pair[i[overlap], j[overlap]] = np.inf
    return pair


def _hillclimb(r: np.ndarray, rho: float, seed: int) -> float:
    n_seg = r.shape[0] - 1
    interior = range(1, n_seg)
    rr = np.stack((r, r.T))
    # No cell exceeds (4 max|R|)^rho, so rounding moves an exact grid sum or a
    # screened gain by less than about rho * n_seg^2 * eps times that bound.
    # An infinite or NaN margin skips nothing.
    with np.errstate(over="ignore"):
        margin = 1e-9 * n_seg**2 * (4 * np.max(np.abs(r))) ** rho

    def climb(member: np.ndarray) -> float:
        # First-improvement toggles of interior nodes, then of node pairs
        # (a single toggle can look bad while the pair is an improvement),
        # repeated to a joint local max.  A candidate is evaluated exactly
        # unless its screened gain is below -margin, far beyond the screen's
        # rounding error, so each decision is the one an exact evaluation of
        # every candidate makes.  The screen changes only on acceptance.
        current = _grid_sum(r, np.flatnonzero(member), rho)
        gain = _toggle_gains(rr, member, rho)
        improved = True
        while improved:
            improved = False
            for k in interior:
                if gain[k - 1] < -margin:
                    continue
                member[k] = ~member[k]
                candidate = _grid_sum(r, np.flatnonzero(member), rho)
                if candidate > current + 1e-15:
                    current = candidate
                    improved = True
                    gain = _toggle_gains(rr, member, rho)
                else:
                    member[k] = ~member[k]
            if improved:
                continue
            pair = _pair_gains(rr, member, gain, rho)
            for ka in interior:
                for kb in range(ka + 1, n_seg):
                    if pair[ka - 1, kb - 1] < -margin:
                        continue
                    member[ka] = ~member[ka]
                    member[kb] = ~member[kb]
                    candidate = _grid_sum(r, np.flatnonzero(member), rho)
                    if candidate > current + 1e-15:
                        current = candidate
                        improved = True
                        gain = _toggle_gains(rr, member, rho)
                        pair = _pair_gains(rr, member, gain, rho)
                    else:
                        member[ka] = ~member[ka]
                        member[kb] = ~member[kb]
        return current

    full = np.ones(n_seg + 1, dtype=bool)
    best = climb(full.copy())
    rng = np.random.default_rng(seed)
    for _ in range(_HILLCLIMB_RESTARTS):
        member = full.copy()
        if interior:
            member[1:n_seg] = rng.random(n_seg - 1) < 0.5
        best = max(best, climb(member))
    # The full grid is a member of the searched family; never report less.
    return max(best, _grid_sum(r, np.arange(n_seg + 1), rho))
