"""p-variation and Holder distances for group paths, and 2D rho-variation.

Distances between two lifted paths on a shared grid are evaluated over grid
nodes only.  For piecewise-linear lifts this loses nothing (suprema over
dissections are attained at breakpoints); for anything else it is an
approximation from below.

``pvar_dist`` maximizes sum_i d(X_{t_i,t_{i+1}}, Y_{t_i,t_{i+1}})^p over all
dissections of the grid, by exact dynamic programming in O(n^2) after an
O(n^2) table of pairwise increment distances, or by explicit enumeration of
all 2^(n-1) dissections for cross-checks on small grids.

This module's part of the batch layer (see ``tensor_group``) takes
level-stacked paths with any leading batch axes (the experiment runners pass
all samples at once).  ``reduce_pair_dists`` builds the node-pair distance
table a bounded chunk of samples at a time and hands it to reductions such as
``pvar_batch`` and ``holder_batch``.  Its x may carry leading stack axes that
y lacks, to compare a stack of paths (one per kept-mode count, say) with one
shared y: y's increments are built once per chunk, and the stack's tables of
a group of chunks are reduced together.  ``pair_chunks`` gives the chunk and
group sizes: the top level of a chunk's increments, x's and the shared y's,
which stay alive across the stack, fit in ``_PAIR_CHUNK_BYTES``, and the
stack's tables of a group in ``_TABLE_CHUNK_BYTES``, so a reduction's
per-call cost is paid once per group.  Chen's identity gives every node-pair increment from
the node values, the quotient X_ij^{-1} Y_ij is formed in difference form, and
its plain max-level norm comes from ``tensor_group.max_level_norm``, which
takes the levels in the tensor-axis-first layout they are built in; it equals
the symmetrized norm on these group-like increments.

The 2D functional for a covariance matrix R maximizes
sum_{i,j} |rect increment of R over cell (i,j)|^rho over a single dissection
used on both axes, and returns the rho-th root.  ``fullgrid`` evaluates the
finest dissection, ``brute`` enumerates (small n), and ``hillclimb`` does a
first-improvement local search: one walk over the toggles of single interior
nodes (insertion or deletion) and, when that accepts nothing, one over the
toggles of node pairs, back to single toggles after any acceptance, until
neither walk improves; it runs from the full grid and from a few random
restarts, so it never returns less than ``fullgrid``.  Where a search's sum is
exactly 0, every |cell|^rho may have underflowed: it is redone on R divided
by 2^e, which puts the largest cell of the finest grid in [1, 2), and the
root is multiplied back by 2^e, the rule of ``pvar_batch``.

``hillclimb`` reads every cell from a table of |rect increment of R|^rho
between pairs of intervals [a,b] x [c,d], filled lazily: an interval gets a
slot the first time the search uses it (as an interval of a start state, of a
candidate, or of a toggle's window), and its row and column against every
slotted interval are computed then, in one batch per call.  The table holds
only what a climb visits, O(s^2) doubles for s visited intervals, never the
O(n^4) of all pairs.  Its entries are formed in ``_grid_sum``'s operation
order, rows first and then columns, and the exact value of a state sums the
same q x q block of cells by the same pairwise reduction, so it equals
``_grid_sum`` bit for bit.  A candidate is accepted when it beats the current
sum by a relative 1e-15, so the search is the same at any scale of R.

Each search state screens all its toggles at once.  Toggling the interior
nodes of a window, from the nearest member of the dissection below them to
the nearest above, replaces only the dissection's intervals inside it, so
the grid sum changes by that rewrite's bands against the dissection and its
corner: O(n) per candidate, all of them in one vectorized pass over the table.
A single toggle rewrites a window of three nodes; a pair of toggles with no
member between them rewrites one joint window of four; two toggles with
disjoint windows add their gains and interact only through a 3 x 3 block of
cells each way.  A walk visits single nodes in order and pairs in row-major
order.  A candidate is rejected unseen only when the current state's screen
puts its gain below minus a margin far above the rounding error of either
computation, which proves the exact gain negative; every other candidate is
evaluated exactly and accepted on the exact sum.  An acceptance does not
rebuild the screen but marks it stale: the walk evaluates exactly each later
candidate that the stale screen passes, and rebuilds the screen (among pairs,
the pair screen too) only on reaching one that the stale screen would skip;
a new walk reuses the screen when nothing has been accepted since it was
built.  So every skip comes from the current state's own screen, every other
candidate is judged on its exact sum, and the search takes the decisions,
and returns the value, that exact evaluation of every candidate gives.  At
the rhovar benchmark's shape a search builds 88-105 toggle screens.  The
slots of the current
dissection's intervals come with its exact sum and serve every screen of
that state.

A search remembers the final state of each finished climb, and a later climb
that starts in one of them, or accepts one, ends there.  This is exact.  The
current sum of a climb is always the exact sum of its state, with the same
bits whatever order the table's slots were filled in, and the climb that
ended at the state made a full walk of single toggles and a full walk of
pairs from it that accepted nothing.  Every candidate of the later climb, in
the rest of its walk and in the walks that would follow, is one of those
candidates, judged against the same sum, so it would be rejected and the
climb would return the same value.  For fbm with H <= 1/2 and rho <= 1/(2H)
every climb ends at the full grid, whose pair screen then runs once per
search instead of once per climb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from .path_lift import GroupPath
from .tensor_group import max_level_norm

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
# Budgets of pair_chunks.  A chunk's working set (gathers, increments and
# quotient) is a few times its top level; at 256 KiB it stays within a 2 MiB
# L2 cache, and kl-converge and pvar ran faster than with 1 MiB chunks.
_PAIR_CHUNK_BYTES = 1 << 18
_TABLE_CHUNK_BYTES = 4 << 20


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


def pair_chunks(n_nodes: int, d: int, depth: int, stack: int, shared: bool) -> tuple[int, int]:
    """Samples per chunk of node-pair increments, and per table group, of
    ``reduce_pair_dists`` for ``stack`` x paths against a shared y or none."""
    pairs = n_nodes * (n_nodes - 1) // 2
    chunk = max(1, _PAIR_CHUNK_BYTES // (8 * pairs * d**depth * (1 + shared)))
    return chunk, chunk * max(1, _TABLE_CHUNK_BYTES // (8 * n_nodes**2 * chunk * stack))


def reduce_pair_dists(
    x: Sequence[np.ndarray],
    y: Sequence[np.ndarray] | None,
    *reductions: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, ...]:
    """Reductions of the node-pair distance table d(X_{t_i,t_j}, Y_{t_i,t_j}).

    ``x`` and ``y`` are level-stacked group paths with any leading batch axes:
    level k has shape ``batch + (n_nodes,) + (d,)*k`` for y and
    ``stack + batch + (n_nodes,) + (d,)*k`` for x, whose leading stack axes
    y lacks: every x of the stack is compared with the same y, whose
    increments are then built once per chunk of samples.  Level 0 is ignored
    and taken to be 1.  ``y=None`` compares against the constant path, i.e.
    gives ||X_{t_i,t_j}||, and every leading axis of x counts as batch.

    The tables of one group of samples (see ``pair_chunks``) are filled
    together; each reduction maps them, ``(stack size, group, n_nodes,
    n_nodes)`` and zero on and below the diagonal, to ``(stack size, group) +
    tail`` in one call.  The call returns one ``stack + batch + tail`` array
    per reduction.  The increments X_ij = X_i^{-1} (x) X_j and the quotient
    X_ij^{-1} (x) Y_ij both come from ``_left_quotient``.
    """
    depth = len(x) - 1
    n, d = x[1].shape[-2], x[1].shape[-1]
    lead = x[1].shape[:-2]
    batch = lead if y is None else y[1].shape[:-2]
    stack = lead[: len(lead) - len(batch)]
    count, size = math.prod(stack), math.prod(batch)
    i_idx, j_idx = np.triu_indices(n, k=1)

    def flat(g: Sequence[np.ndarray], entries: int) -> list[np.ndarray]:
        # Level k as (d**k, entries, size, n_nodes): tensor axis first, nodes last.
        return [
            np.moveaxis(lv.reshape((entries, size, n, d**k)), -1, 0)
            for k, lv in enumerate(g[1:], start=1)
        ]

    def increments(g: list[np.ndarray], entry: int, rows: slice) -> list[np.ndarray]:
        # np.take keeps the gathered pairs contiguous along the last axis.
        return _left_quotient(
            [np.take(lv[:, entry, rows], i_idx, axis=-1) for lv in g],
            [np.take(lv[:, entry, rows], j_idx, axis=-1) for lv in g],
        )

    xs = flat(x, count)
    ys = None if y is None else flat(y, 1)
    chunk, group = pair_chunks(n, d, depth, count, y is not None)
    parts: list[list[np.ndarray]] = [[] for _ in reductions]
    for lo in range(0, size, group):
        table = np.zeros((count, min(group, size - lo), n, n))
        for at in range(0, table.shape[1], chunk):
            rows = slice(lo + at, lo + at + chunk)
            shared = None if ys is None else increments(ys, 0, rows)
            for entry in range(count):
                z = increments(xs, entry, rows)
                if shared is not None:
                    z = _left_quotient(z, shared)
                table[entry][at : at + chunk, i_idx, j_idx] = max_level_norm(z)
        for part, reduce in zip(parts, reductions):
            part.append(reduce(table))
    return tuple(
        np.concatenate(part, axis=1).reshape(stack + batch + part[0].shape[2:]) for part in parts
    )


def pair_dist_table(x: Sequence[np.ndarray], y: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """The whole table of ``reduce_pair_dists``: ``batch + (n_nodes, n_nodes)``."""
    return reduce_pair_dists(x, y, lambda table: table)[0]


def pvar_batch(table: np.ndarray, p: float) -> np.ndarray:
    """p-variation from node-pair distance tables with any leading batch axes:
    the max over dissections of sum d^p, to the power 1/p, by exact DP.

    Where the result is 0, every d^p may have underflowed: the DP is redone
    on the table divided by 2^e, which puts its largest distance in [1, 2),
    and the root is multiplied back by 2^e.  A table of zeros gives 0 again,
    and every other entry keeps its bits.
    """
    root = _pvar_dp(table, p)
    zero = root == 0.0
    if np.any(zero):
        e = np.frexp(np.max(table[zero], axis=(-2, -1)))[1] - 1
        root[zero] = np.ldexp(_pvar_dp(np.ldexp(table[zero], -e[:, None, None]), p), e)
    return root


def _pvar_dp(table: np.ndarray, p: float) -> np.ndarray:
    cost = table**p
    # best[..., j] = max over dissections of nodes 0..j.
    best = np.zeros(cost.shape[:-1])
    for j in range(1, cost.shape[-1]):
        best[..., j] = np.max(best[..., :j] + cost[..., :j, j], axis=-1)
    return np.asarray(best[..., -1] ** (1.0 / p))


def holder_batch(table: np.ndarray, times: np.ndarray, alpha: float) -> np.ndarray:
    """alpha-Holder value max_{i<j} d_ij / (t_j - t_i)^alpha from node-pair
    distance tables with any leading batch axes."""
    i_idx, j_idx = np.triu_indices(times.size, k=1)
    gaps = times[j_idx] - times[i_idx]
    return np.max(table[..., i_idx, j_idx] / gaps**alpha, axis=-1)


def _check_shared_grid(x: GroupPath, y: GroupPath | None) -> None:
    if y is None:
        return
    if not x.grid.same_as(y.grid):
        raise ValueError("paths must share the same time grid")
    if x.dim != y.dim or x.depth != y.depth:
        raise ValueError("paths must share dim and depth")


def pvar_dist(x: GroupPath, y: GroupPath | None, p: float, mode: str = "dp") -> float:
    """p-variation distance between two lifted paths on their shared grid.

    ``mode='dp'`` is the exact O(n^2) dynamic program; ``mode='brute'``
    enumerates all dissections and is limited to small grids.  ``y=None``
    gives the p-variation norm of x.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    _check_shared_grid(x, y)
    table = pair_dist_table(x.levels, None if y is None else y.levels)
    if mode == "dp":
        return float(pvar_batch(table, p))
    if mode != "brute":
        raise ValueError(f"unknown mode {mode!r}")
    if x.grid.n_segments > _BRUTE_MAX_SEGMENTS:
        raise ValueError(f"brute mode is limited to {_BRUTE_MAX_SEGMENTS} segments")
    cost = table**p
    return float(
        max(
            sum(cost[a, b] for a, b in zip(d.indices, d.indices[1:]))
            for d in all_dissections(x.grid.n_segments)
        )
    ) ** (1.0 / p)


def pvar_norm(x: GroupPath, p: float, mode: str = "dp") -> float:
    return pvar_dist(x, None, p, mode)


def holder_dist(x: GroupPath, y: GroupPath | None, alpha: float) -> float:
    """alpha-Holder distance over grid node pairs; alpha = 0 gives the sup
    of node-pair increment distances."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    _check_shared_grid(x, y)
    table = pair_dist_table(x.levels, None if y is None else y.levels)
    return float(holder_batch(table, x.grid.times, alpha))


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

    Where that sum is exactly 0, every |cell|^rho may have underflowed: the
    same search is redone on the block divided by 2^e, which puts the
    largest |cell| of its finest grid in [1, 2), and the root is multiplied
    back by 2^e.  A block whose cells are all 0 gives 0 again.  A coarser
    dissection's cells can be larger than the finest grid's, so at large rho
    the redone sum of ``brute`` or ``hillclimb`` can overflow to inf.

    Friz and Victoir take the sup over pairs D x D' of dissections, one per
    axis.  For a covariance (R positive semi-definite) that sup is attained
    on a shared dissection D x D, so this is their 2D rho-variation on the
    grid.  For even integer rho this is proved: a cell is an inner product
    <u_i, v_j> of increments, and with A = sum_i u_i u_i^T and B = sum_j v_j
    v_j^T, sum_ij <u_i, v_j>^2 = tr(AB) <= |A|_F |B|_F, the geometric mean of
    the D x D and D' x D' sums; tensor powers of the increments extend this
    from rho = 2 to every even integer.  For other rho it rests on evidence:
    brute force over D x D' equals ``brute`` to 1e-12 relative on 400 random
    positive semi-definite matrices of every rank (n <= 6, rho in [1, 3])
    and on fbm with H in {0.26, 0.3, 0.4} (n <= 7), while on 400 random
    symmetric matrices that are not positive semi-definite D x D' beats
    every D x D 48 times, by up to 24%.
    """
    if not 1.0 <= rho < math.inf:
        raise ValueError("rho must be finite and >= 1")
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("covariance must be a square matrix")
    hi = r.shape[0] - 1 if hi is None else hi
    if not 0 <= lo < hi <= r.shape[0] - 1:
        raise ValueError("need 0 <= lo < hi within the node range")
    block = r[lo : hi + 1, lo : hi + 1]
    n_seg = hi - lo

    def search(sub: np.ndarray) -> float:
        if mode == "fullgrid":
            return _grid_sum(sub, np.arange(n_seg + 1), rho)
        if mode == "brute":
            if n_seg > BRUTE_MAX_2D:
                raise ValueError(f"brute mode is limited to {BRUTE_MAX_2D} segments")
            return max(_grid_sum(sub, np.array(d.indices), rho) for d in all_dissections(n_seg))
        if mode == "hillclimb":
            return _hillclimb(sub, rho, seed)
        raise ValueError(f"unknown mode {mode!r}")

    best = search(block)
    if best != 0.0:
        return best ** (1.0 / rho)
    e = math.frexp(np.max(np.abs(np.diff(np.diff(block, axis=0), axis=1))))[1] - 1
    return math.ldexp(search(np.ldexp(block, -e)) ** (1.0 / rho), e)


def _spans(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and end positions of every interval between two nodes of a
    window of ``size`` nodes, and for each membership pattern of the window's
    interior nodes the weights over those intervals, new minus old partition,
    of toggling all of them: a partition holds the intervals between
    consecutive member nodes, the window's ends included."""
    spans = list(combinations(range(size), 2))
    parts = np.zeros((2,) * (size - 2) + (len(spans),))
    for bits in product((0, 1), repeat=size - 2):
        cuts = [0] + [k for k, bit in enumerate(bits, start=1) if bit] + [size - 1]
        for span in zip(cuts, cuts[1:]):
            parts[bits + (spans.index(span),)] = 1.0
    starts, ends = np.array(spans).T
    return starts, ends, np.flip(parts, axis=tuple(range(size - 2))) - parts


# A window (a, k, b) of one toggle, and (a, i, j, b) of two toggles whose
# windows overlap.
_TRIPLE, _QUAD = _spans(3), _spans(4)


class _CellTable:
    """|rect increment of R|^rho over [a,b] x [c,d] for pairs of intervals.

    An interval gets a slot the first time it is asked for, and its row and
    column of ``values`` are computed then, in ``_grid_sum``'s operation
    order, so a gather from the table is bitwise the cells ``_grid_sum``
    forms.  ``values`` doubles its capacity as slots are added: it holds at
    most (2s)^2 entries for s slotted intervals.
    """

    def __init__(self, r: np.ndarray, rho: float):
        self.r, self.rho = r, rho
        self.slot = np.full(r.shape, -1, dtype=np.intp)
        self.starts = self.ends = np.empty(0, dtype=np.intp)
        self.values = np.empty((0, 0))

    def cells(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Slots of the intervals [a, b], arrays of any one shape; the missing
        ones are slotted in one batch."""
        s = self.slot[a, b]
        missing = s < 0
        if missing.any():
            self._add(a[missing], b[missing])
            s = self.slot[a, b]
        return s

    def _add(self, a: np.ndarray, b: np.ndarray) -> None:
        r = self.r
        # One slot per distinct interval: of repeated ones, one write wins.
        self.slot[a, b] = np.arange(a.size)
        kept = self.slot[a, b] == np.arange(a.size)
        na, nb = a[kept], b[kept]
        oa, ob = self.starts, self.ends
        old, new = oa.size, oa.size + na.size
        if new > self.values.shape[0]:
            grown = np.empty((max(new, 2 * self.values.shape[0]),) * 2)
            grown[:old, :old] = self.values[:old, :old]
            self.values = grown
        self.starts, self.ends = np.concatenate((oa, na)), np.concatenate((ob, nb))
        self.slot[na, nb] = np.arange(old, new)
        rows = r[nb] - r[na]
        cells = rows[:, self.ends]
        cells -= rows[:, self.starts]
        self.values[old:new, :new] = self._power(cells)
        oa, ob = oa[:, None], ob[:, None]
        cells = r[ob, nb] - r[oa, nb]
        cells -= r[ob, na] - r[oa, na]
        self.values[:old, old:new] = self._power(cells)

    def _power(self, cells: np.ndarray) -> np.ndarray:
        # np.abs(cells) ** rho in place: a first batch can be 800 x 800.
        np.abs(cells, out=cells)
        cells **= self.rho
        return cells

    def grid_sum(self, idx: np.ndarray) -> tuple[float, np.ndarray]:
        """``_grid_sum`` over dissection ``idx``, from the same q x q block of
        cells by the same pairwise reduction, and the slots of its intervals."""
        ip = self.cells(idx[:-1], idx[1:])
        return float(np.sum(self.values[ip[:, None], ip])), ip


def _window(member: np.ndarray) -> np.ndarray:
    """Triples (a, k, b) for every interior node k, where a < k < b are the
    nearest members of the dissection without k; shape (n-2, 3)."""
    place = np.arange(member.size)
    below = np.maximum.accumulate(np.where(member, place, 0))
    above = np.minimum.accumulate(np.where(member, place, place[-1])[::-1])[::-1]
    return np.stack((below[:-2], place[1:-1], above[2:]), axis=-1)


def _rewrite_gains(
    table: _CellTable, member: np.ndarray, ip: np.ndarray, window: np.ndarray, spans: tuple
) -> np.ndarray:
    """Change of the grid sum when the interior nodes of each row of
    ``window`` are toggled together; ``ip`` holds the slots of the intervals
    of D, the dissection ``member``, and ``spans`` is ``_spans`` of the
    window's width.

    A window's ends are the nearest members of D around its interior nodes,
    so the toggles replace D's intervals inside the window by the new
    partition: D gains f = new - old as a vector over intervals.  The grid
    sum is D^T T D for the cell table T, so it changes by f^T (T + T^T) D,
    the band of f against every interval of D, plus the corner f^T T f.
    Rows and columns are summed alike, so R need not be symmetric.
    """
    starts, ends, flip = spans
    w = table.cells(window[:, starts], window[:, ends])
    t, slots = table.values, table.starts.size
    f = flip[tuple(member[window[:, 1:-1]].T.astype(np.intp))]
    # Every slotted interval's cells against D, rows and columns: dense
    # slices of the table cost less than gathering only the window's.
    band = (np.sum(t[:slots, ip], axis=1) + np.sum(t[ip, :slots], axis=0))[w]
    corner = np.einsum("mk,mkl,ml->m", f, t[w[..., None], w[:, None]], f)
    return np.einsum("mk,mk->m", f, band) + corner


def _toggle_gains(
    table: _CellTable, member: np.ndarray, ip: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Change of the grid sum when one interior node k is toggled, at entry
    k-1; ``ip`` is as in ``_rewrite_gains`` and ``u`` is ``_window(member)``.
    An insertion splits the interval [a, b] at k, a deletion merges [a, k]
    and [k, b]."""
    return _rewrite_gains(table, member, ip, u, _TRIPLE)


def _pair_gains(
    table: _CellTable, member: np.ndarray, ip: np.ndarray, u: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    """Change of the grid sum when the interior nodes i < j are both toggled,
    for every pair in ``np.triu_indices`` order; ``ip`` and ``u`` are as in
    ``_toggle_gains``, and ``gain`` is ``_toggle_gains`` of the state.

    The windows of i and j overlap exactly when no member of D lies strictly
    between them.  Then the pair rewrites one joint window (a, i, j, b), from
    the nearest member below i to the nearest above j.  With disjoint windows
    D gains f_i + f_j, so the pair gain is the two gains and the cross terms
    f_i^T T f_j + f_j^T T f_i of the corner.
    """
    i, j = np.triu_indices(u.shape[0], 1)
    overlap = u[i, 2] > u[j, 0]
    oi, oj = i[overlap], j[overlap]
    joint = _rewrite_gains(
        table, member, ip, np.stack((u[oi, 0], oi + 1, oj + 1, u[oj, 2]), axis=-1), _QUAD
    )
    starts, ends, flip = _TRIPLE
    w = table.cells(u[:, starts], u[:, ends]).ravel()
    # cross[i, j] = f_i^T T f_j, with f_i in rows 3i..3i+2 of column i of f.
    f = np.zeros((w.size, u.shape[0]))
    f[np.arange(w.size), np.arange(w.size) // 3] = flip[member[1:-1].astype(np.intp)].ravel()
    cross = f.T @ table.values[w[:, None], w] @ f
    pair = gain[i] + gain[j] + cross[i, j] + cross[j, i]
    pair[overlap] = joint
    return pair


def _hillclimb(r: np.ndarray, rho: float, seed: int) -> float:
    n_seg = r.shape[0] - 1
    table = _CellTable(r, rho)
    # The nodes each candidate toggles: single interior nodes in
    # ``_toggle_gains`` order, then node pairs in ``_pair_gains`` order.
    moves = (
        np.arange(1, n_seg)[:, None],
        np.transpose(np.triu_indices(n_seg - 1, 1)) + 1,
    )
    # No cell exceeds (4 max|R|)^rho, so rounding moves an exact grid sum or a
    # screened gain by less than about rho * n_seg^2 * eps times that bound.
    # An infinite or NaN margin skips nothing.
    with np.errstate(over="ignore"):
        margin = 1e-9 * n_seg**2 * (4 * np.max(np.abs(r))) ** rho

    # Final states of finished climbs: local maxima that a full walk of
    # single toggles and one of pairs have failed to leave.
    maxima: set[bytes] = set()

    def climb(member: np.ndarray) -> float:
        # First-improvement walks over the toggles of interior nodes, then of
        # node pairs (a single toggle can look bad while the pair is an
        # improvement), back to single toggles after any acceptance, to a
        # joint local max.  A candidate is skipped only when the current
        # state's screen puts its gain below -margin, far beyond the screen's
        # rounding error; every other one is evaluated exactly, so each
        # decision is the one an exact evaluation of every candidate makes.
        # An acceptance only marks the screen stale: the walk evaluates
        # exactly each later candidate the stale screen passes and rebuilds
        # the screen on reaching one it would skip.  A climb that starts in
        # or accepts a known local max ends there.
        current, ip = table.grid_sum(np.flatnonzero(member))
        if member.tobytes() in maxima:
            return current

        def screen() -> list[bool]:
            # The candidates of this walk that the current state's screen rejects.
            nonlocal u, gain, stale
            if stale:
                u = _window(member)
                gain = _toggle_gains(table, member, ip, u)
                stale = False
            screened = gain if phase == 0 else _pair_gains(table, member, ip, u, gain)
            return (screened < -margin).tolist()

        u = gain = None  # the state's windows and toggle gains, built when stale
        stale, phase = True, 0
        while phase < len(moves):
            improved, skip = False, screen()
            for at in range(len(skip)):
                if skip[at] and stale:
                    skip = screen()
                if skip[at]:
                    continue
                nodes = moves[phase][at]
                member[nodes] = ~member[nodes]
                candidate, slots = table.grid_sum(np.flatnonzero(member))
                if candidate > current * (1 + 1e-15):
                    current, ip = candidate, slots
                    if member.tobytes() in maxima:
                        return current
                    improved = stale = True
                else:
                    member[nodes] = ~member[nodes]
            phase = 0 if improved else phase + 1
        maxima.add(member.tobytes())
        return current

    # The restart masks are drawn before any climb (a climb draws nothing),
    # so every start state and its windows are slotted in one batch.
    rng = np.random.default_rng(seed)
    starts = [np.ones(n_seg + 1, dtype=bool) for _ in range(_HILLCLIMB_RESTARTS + 1)]
    for member in starts[1:]:
        member[1:n_seg] = rng.random(n_seg - 1) < 0.5
    a: list[np.ndarray] = []
    b: list[np.ndarray] = []
    spans_a, spans_b, _ = _TRIPLE
    for member in starts:
        pos, u = np.flatnonzero(member), _window(member)
        a += [pos[:-1], u[:, spans_a].ravel()]
        b += [pos[1:], u[:, spans_b].ravel()]
    table.cells(np.concatenate(a), np.concatenate(b))
    # The first climb starts from the full grid and never returns less than
    # its exact sum, so no search value is below ``fullgrid``'s.
    return max(climb(member) for member in starts)
