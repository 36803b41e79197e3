"""Piecewise-linear paths on [0, 1] and their step-N signature lifts.

A sample path is a d-vector of node values on a shared time grid; its lift is
the product of segment exponentials, computed level by level as Chen
cumulative sums of per-segment increments, so the degree-1 part of the lifted
path is the path increment from time 0 (the start value is subtracted).  Chen's
identity holds exactly: the increment of the lift between two nodes equals the
lift of the path restricted to those nodes.

``lift_values`` and ``signature_at`` are this module's part of the batch layer
(see ``tensor_group``): they lift node values of shape ``(..., d, n_nodes)``
for any leading batch axes into level-stacked arrays, ``lift_values`` at every
node (for node-pair tables and ``lift``) and ``signature_at`` at requested
nodes only, for statistics that read no other node.

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


def _times_delta(head: np.ndarray, delta: np.ndarray, out: np.ndarray) -> None:
    # out[..., c] = head (x) delta[..., c]; head may be the view out[..., 0],
    # which is why c = 0 is written last.
    for c in reversed(range(delta.shape[-1])):
        scale = delta[(Ellipsis, c) + (None,) * (head.ndim - delta.ndim + 1)]
        np.multiply(head, scale, out=out[..., c])


def lift_values(values: np.ndarray, depth: int) -> list[np.ndarray]:
    """Chen cumulative sums over the last (node) axis.

    values: (..., d, n_nodes) -> levels[k]: (..., n_nodes) + (d,)*k, for
    depth in 1..3.

    Chen's identity with the segment exponential exp(delta) gives the level-k
    increment over segment m from the lower levels at node m:
    S1 += delta, S2 += (S1 + delta/2) (x) delta and
    S3 += (S2 + (S1/2 + delta/6) (x) delta) (x) delta.  Each level's
    increments are built inside its output array, which is then summed in
    place along the node axis, so no temporary larger than the path itself is
    allocated.
    """
    check_depth(depth)
    delta = np.swapaxes(np.diff(values, axis=-1), -1, -2)  # (..., n_seg, d)
    shape = delta.shape[:-2] + (delta.shape[-2] + 1,)
    d = delta.shape[-1]
    axis = len(shape) - 1
    lead = (slice(None),) * axis
    out = [np.ones(shape)]
    for k in range(1, depth + 1):
        lv = np.empty(shape + (d,) * k)
        lv[lead + (0,)] = 0.0
        inc = lv[lead + (slice(1, None),)]
        if k == 1:
            inc[...] = delta
        else:
            # The factor left of the last delta, built in the slot inc[..., 0].
            head = inc[..., 0]
            if k == 2:
                np.divide(delta, 2.0, out=head)
                head += out[1][..., :-1, :]
            else:
                np.divide(delta, 6.0, out=head[..., 0])
                head[..., 0] += out[1][..., :-1, :] / 2.0
                _times_delta(head[..., 0], delta, head)
                head += out[2][..., :-1, :, :]
            _times_delta(head, delta, inc)
        np.cumsum(lv, axis=axis, out=lv)
        out.append(lv)
    return out


def _block_sums(left: np.ndarray, right: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    # Running sums of left[..., m] (x) right[..., m] over the segment blocks
    # between consecutive bounds: (..., p, n_seg), (..., d, n_seg) ->
    # (..., blocks, p, d).
    out = np.empty(left.shape[:-2] + (bounds.size - 1, left.shape[-2], right.shape[-2]))
    for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(left[..., lo:hi], np.swapaxes(right[..., lo:hi], -1, -2), out=out[..., j, :, :])
    return np.cumsum(out, axis=-3, out=out)


def signature_at(values: np.ndarray, depth: int, nodes: Sequence[int]) -> list[np.ndarray]:
    """Lift from node 0 read at the given nodes only.

    values: (..., d, n_nodes) -> levels[k]: (..., len(nodes)) + (d,)*k, for
    depth in 1..3 and nodes sorted, distinct and in 0..n_nodes-1 (possibly
    none); equal to ``lift_values(values, depth)[k][..., nodes, ...]`` up to
    rounding.

    With S1(m) = x_m - x_0, level 2 at node t is sum_{m<t} (S1(m) + delta_m/2)
    (x) delta_m and level 3 is sum_{m<t} A_m (x) delta_m with
    A_m = S2(m) + (S1(m)/2 + delta_m/6) (x) delta_m.  Each sum is one batched
    matrix product per block of segments between requested nodes, summed over
    the blocks; only level 3 needs the running level 2 at every node, which is
    O(n d^2) per sample instead of the O(n d^3) of a full level-3 lift.  The
    work runs in the input's component-major layout, segments last, so the
    elementwise loops run along the long axis.
    """
    check_depth(depth)
    values = np.asarray(values, dtype=float)
    n_nodes = values.shape[-1]
    nodes = np.asarray(nodes, dtype=np.intp)
    if nodes.ndim != 1 or np.any(nodes < 0) or np.any(nodes >= n_nodes) or np.any(np.diff(nodes) <= 0):
        raise ValueError(f"nodes must be sorted, distinct and in 0..{n_nodes - 1}")
    delta = np.diff(values, axis=-1)  # (..., d, n_seg)
    s1 = values - values[..., :1]  # (..., d, n_nodes)
    d = delta.shape[-2]
    bounds = np.concatenate(([0], nodes))
    out = [np.ones(values.shape[:-2] + (nodes.size,)), np.swapaxes(s1[..., nodes], -1, -2)]
    if depth >= 2:
        s1 = s1[..., :-1]
        head = s1 + delta / 2.0
        out.append(_block_sums(head, delta, bounds))
    if depth == 3:
        # A_m in one (..., d, d, n_seg) array: the running level 2 first.
        a = np.empty(delta.shape[:-2] + (d, d, delta.shape[-1]))
        a[..., :1] = 0.0
        np.multiply(head[..., :, None, :-1], delta[..., None, :, :-1], out=a[..., 1:])
        np.cumsum(a, axis=-1, out=a)
        a += (s1 / 2.0 + delta / 6.0)[..., :, None, :] * delta[..., None, :, :]
        flat = a.reshape(a.shape[:-3] + (d * d, a.shape[-1]))
        out.append(_block_sums(flat, delta, bounds).reshape(out[2].shape + (d,)))
    return out


def lift_pl(path: SamplePath, depth: int = MAX_DEPTH) -> GroupPath:
    """Signature lift of a piecewise-linear path, node by node."""
    return GroupPath(path.grid, tuple(lift_values(path.values, depth)))


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
