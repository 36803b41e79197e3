"""Piecewise-linear paths on [0, 1] and their step-N signature lifts.

A sample path is a d-vector of node values on a shared time grid; its lift is
the product of segment exponentials, computed level by level as Chen
cumulative sums of per-segment increments, so the degree-1 part of the lifted
path is the path increment from time 0 (the start value is subtracted).  Chen's
identity holds exactly: the increment of the lift between two nodes equals the
lift of the path restricted to those nodes.

``signature_at`` is this module's part of the batch layer (see
``tensor_group``): it lifts node values of shape ``(..., d, n_nodes)`` for any
leading batch axes into level-stacked arrays, at every node (for node-pair
tables and ``lift``) or at requested nodes only, for statistics that read no
other node.  Both share one Chen recurrence; only the way the per-segment
sums are formed differs (a running sum over every segment, or one matrix
product per block of segments between requested nodes).

``young_integral_quadratic`` integrates a piecewise-quadratic scalar function
against a coordinate of a piecewise-linear path with Simpson weights per
segment, which is exact for that class of integrands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor_group import MAX_DEPTH, GroupElement, check_depth, increment

__all__ = [
    "TimeGrid",
    "SamplePath",
    "GroupPath",
    "lift_pl",
    "signature_increment",
    "young_integral_quadratic",
    "uniform_grid",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing node times with t_0 = 0 and t_n = 1."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("grid needs at least two nodes")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("grid must start at 0 and end at 1")
        if not np.all(np.diff(t) > 0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def n_segments(self) -> int:
        return self.times.size - 1

    @property
    def n_nodes(self) -> int:
        return self.times.size

    @property
    def midpoints(self) -> np.ndarray:
        t = self.times
        return 0.5 * (t[:-1] + t[1:])

    def same_as(self, other: "TimeGrid") -> bool:
        return self.times.size == other.times.size and bool(np.all(self.times == other.times))


def uniform_grid(n: int) -> TimeGrid:
    """Uniform grid with n segments."""
    return TimeGrid(np.linspace(0.0, 1.0, n + 1))


@dataclass(frozen=True)
class SamplePath:
    """d-dimensional piecewise-linear path: values[c, i] at grid node i."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.grid.n_nodes:
            raise ValueError("values must have shape (d, n_nodes)")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class GroupPath:
    """Group-valued path on a grid, stored level-stacked.

    ``levels[k]`` has shape ``(n_nodes,) + (dim,)*k``; ``point(i)`` wraps node
    i as a GroupElement and ``points`` materializes all of them.
    """

    grid: TimeGrid
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        if np.asarray(self.levels[0]).shape != (self.grid.n_nodes,):
            raise ValueError("levels must carry one entry per grid node")
        object.__setattr__(self, "levels", tuple(np.asarray(lv, dtype=float) for lv in self.levels))

    @property
    def dim(self) -> int:
        return self.levels[1].shape[-1]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def point(self, i: int) -> GroupElement:
        return GroupElement(self.dim, self.depth, tuple(lv[i] for lv in self.levels))

    @property
    def points(self) -> tuple[GroupElement, ...]:
        return tuple(self.point(i) for i in range(self.grid.n_nodes))

    @classmethod
    def from_points(cls, grid: TimeGrid, points: Sequence[GroupElement]) -> "GroupPath":
        if len(points) != grid.n_nodes:
            raise ValueError("one point per grid node required")
        depth = points[0].depth
        stacked = tuple(
            np.stack([p.levels[k] for p in points]) for k in range(depth + 1)
        )
        return cls(grid, stacked)


def _chen_sums(left: np.ndarray, delta: np.ndarray, nodes: np.ndarray | None) -> np.ndarray:
    # sum_{m<t} left[..., m] (x) delta[..., m] at the requested nodes t:
    # (..., p, n_seg), (..., d, n_seg) -> (..., len(nodes), p, d).  Every node
    # (nodes None): the per-segment products once, written into the output
    # and summed there in place along the node axis.  A few nodes: one
    # batched matrix product per block of segments between requested nodes,
    # summed over the blocks.
    if nodes is None:
        out = np.empty(left.shape[:-2] + (left.shape[-1] + 1, left.shape[-2], delta.shape[-2]))
        out[..., 0, :, :] = 0.0
        segment_last = np.moveaxis(out[..., 1:, :, :], -3, -1)
        np.multiply(left[..., :, None, :], delta[..., None, :, :], out=segment_last)
        return np.cumsum(out, axis=-3, out=out)
    bounds = np.concatenate(([0], nodes))
    out = np.empty(left.shape[:-2] + (nodes.size, left.shape[-2], delta.shape[-2]))
    for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(left[..., lo:hi], np.swapaxes(delta[..., lo:hi], -1, -2), out=out[..., j, :, :])
    return np.cumsum(out, axis=-3, out=out)


def signature_at(
    values: np.ndarray, depth: int, nodes: Sequence[int] | None = None
) -> list[np.ndarray]:
    """Lift from node 0, at every node or at the given nodes only.

    values: (..., d, n_nodes) -> levels[k]: (..., len(nodes)) + (d,)*k, for
    depth in 1..3 and nodes sorted, distinct and in 0..n_nodes-1 (possibly
    none); ``nodes=None`` means every node.  The arrays are C-contiguous.

    Chen's identity with the segment exponential exp(delta_m) gives level 1
    as S1(t) = sum_{m<t} delta_m, level 2 as sum_{m<t} (S1(m) + delta_m/2)
    (x) delta_m and level 3 as sum_{m<t} A_m (x) delta_m with
    A_m = S2(m) + (S1(m)/2 + delta_m/6) (x) delta_m.  Level 3 needs the
    running level 2 at every node, which is O(n d^2) per sample; level 2 at
    the requested nodes is then read from it.  The operands keep the input's
    component-major layout, segments last, so the elementwise loops run along
    the long axis.
    """
    check_depth(depth)
    values = np.asarray(values, dtype=float)
    n_nodes = values.shape[-1]
    at = slice(None)
    if nodes is not None:
        nodes = at = np.asarray(nodes, dtype=np.intp)
        if nodes.ndim != 1 or np.any(nodes < 0) or np.any(nodes >= n_nodes) or np.any(np.diff(nodes) <= 0):
            raise ValueError(f"nodes must be sorted, distinct and in 0..{n_nodes - 1}")
    delta = np.diff(values, axis=-1)  # (..., d, n_seg)
    s1 = np.empty_like(values)  # (..., d, n_nodes)
    s1[..., 0] = 0.0
    np.cumsum(delta, axis=-1, out=s1[..., 1:])
    d = delta.shape[-2]
    level1 = np.swapaxes(s1[..., at], -1, -2)
    out = [np.ones(level1.shape[:-1]), level1]
    if depth >= 2:
        s1 = s1[..., :-1]
        s2 = _chen_sums(s1 + delta / 2.0, delta, nodes if depth == 2 else None)
        out.append(s2 if depth == 2 else s2[..., at, :, :])
    if depth == 3:
        # A_m in one (..., d, d, n_seg) array, segments last.
        a = (s1 / 2.0 + delta / 6.0)[..., :, None, :] * delta[..., None, :, :]
        a += np.moveaxis(s2[..., :-1, :, :], -3, -1)
        flat = a.reshape(a.shape[:-3] + (d * d, a.shape[-1]))
        out.append(_chen_sums(flat, delta, nodes).reshape(out[2].shape + (d,)))
    return [np.ascontiguousarray(lv) for lv in out]


def lift_pl(path: SamplePath, depth: int = MAX_DEPTH) -> GroupPath:
    """Signature lift of a piecewise-linear path, node by node."""
    return GroupPath(path.grid, tuple(signature_at(path.values, depth)))


def signature_increment(gp: GroupPath, a: int, b: int) -> GroupElement:
    """Increment of the lift between node a and node b (Chen bracket)."""
    if not 0 <= a <= b < gp.grid.n_nodes:
        raise ValueError("need 0 <= a <= b over grid nodes")
    return increment(gp.point(a), gp.point(b))


def young_integral_quadratic(
    f_nodes: np.ndarray,
    f_mids: np.ndarray,
    integrator: SamplePath,
    j: int,
    a: int,
    b: int,
) -> float:
    """Integral of a piecewise-quadratic f against component j of a PL path.

    f is given by its node values and segment-midpoint values; per segment the
    integrand is quadratic and the integrator linear, so the Simpson average
    (f_left + 4 f_mid + f_right)/6 times the segment increment is exact.
    Integrates over nodes a..b.
    """
    f_nodes = np.asarray(f_nodes, dtype=float)
    f_mids = np.asarray(f_mids, dtype=float)
    n_seg = integrator.grid.n_segments
    if f_nodes.shape != (n_seg + 1,) or f_mids.shape != (n_seg,):
        raise ValueError("f must carry one value per node and per segment midpoint")
    if not 0 <= a <= b <= n_seg:
        raise ValueError("need 0 <= a <= b <= n_segments")
    dx = np.diff(integrator.values[j])[a:b]
    w = (f_nodes[a:b] + 4.0 * f_mids[a:b] + f_nodes[a + 1 : b + 1]) / 6.0
    return float(np.dot(dx, w))
