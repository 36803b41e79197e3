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
first-improvement local search over single node insertions/deletions with a
few random restarts; it starts from the full grid, so it never returns less.
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
    if p < 1.0:
        raise ValueError("p must be >= 1")
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
    sub = r[np.ix_(idx, idx)]
    cells = np.diff(np.diff(sub, axis=0), axis=1)
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
    if rho < 1.0:
        raise ValueError("rho must be >= 1")
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
        best = _hillclimb(r, nodes, rho, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return best ** (1.0 / rho)


def _hillclimb(r: np.ndarray, nodes: np.ndarray, rho: float, seed: int) -> float:
    n_seg = nodes.size - 1
    interior = list(range(1, n_seg))

    def climb(member: np.ndarray) -> float:
        # First-improvement toggles of interior nodes, then of node pairs
        # (a single toggle can look bad while the pair is an improvement),
        # repeated to a joint local max.
        current = _grid_sum(r, nodes[np.flatnonzero(member)], rho)
        improved = True
        while improved:
            improved = False
            for k in interior:
                member[k] = ~member[k]
                candidate = _grid_sum(r, nodes[np.flatnonzero(member)], rho)
                if candidate > current + 1e-15:
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
                    candidate = _grid_sum(r, nodes[np.flatnonzero(member)], rho)
                    if candidate > current + 1e-15:
                        current = candidate
                        improved = True
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
    return max(best, _grid_sum(r, nodes, rho))
