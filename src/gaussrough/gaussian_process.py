"""Covariance kernels on [0, 1] and exact Gaussian sampling on a grid.

Supported kernels: Brownian motion min(s, t); fractional Brownian motion
(s^{2H} + t^{2H} - |t - s|^{2H}) / 2 with 0 < H < 1; and tabulated kernels
given by node values on their own grid, extended by bilinear interpolation
(which is exactly the covariance of the piecewise-linearly interpolated
process).

Sampling draws d independent components per path from the exact joint law on
the grid through a square root of the covariance, computed once per
``CovMatrix``.  Nodes with zero variance relative to the largest are
deterministic and filled with zeros.  The square root of the other nodes'
block is its Cholesky factor wherever that factorization exists; otherwise it
is the eigen square root of the modes that one ``eigh`` of the matrix keeps
(eigenvalues above ``_RANK_TOL`` times the largest), so singular covariances
are sampled exactly inside the span of their modes.  That same ``eigh``
decides the PSD gate on that route and is the KL basis
(``karhunen_loeve.kl_decompose``), so no covariance is eigendecomposed twice.

``cov_matrix`` checks positive semidefiniteness with the sampling factor: a
plain factorization of the positive-variance block, with every zero-variance
row exactly zero (node 0 of Brownian motion and fbm), certifies the matrix.
Only a covariance without this certificate (singular, indefinite, or with a
zero-variance node coupled to others) pays for ``eigh``, whose smallest
eigenvalue then decides against ``_PSD_TOL`` times the largest.  Every
tolerance here is relative to the matrix's own scale.

The grid covariance is evaluated in place: the fbm square is built in two
arrays of its size, a table's cells and weights are found per axis before
they broadcast, and a table square is symmetrized in place.  When the
positive-variance nodes are contiguous (every Brownian and fbm grid) the
factored block is a view of the matrix, so a certified covariance holds the
matrix and its factor and no copy of either.  No step changes a bit of the
entries or of the factor.

Reproducibility contract: draw k of a call with seed s uses the generator
``np.random.default_rng([s, k])``, so each draw has its own substream and
results are independent of batching or evaluation order.  The generator
states of a call are derived in one batch, vectorized over the draws, and
equal those of ``default_rng([s, k])`` bit for bit; one generator per call
takes each state in turn.  ``draw_normals``, the one place that derives these
states, and ``sample_values`` are this module's part of the batch layer (see
``tensor_group``): draw index first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .path_lift import SamplePath, TimeGrid

__all__ = [
    "DataError",
    "CovKernel",
    "CovMatrix",
    "kernel_eval",
    "cov_matrix",
    "sample",
]

_PSD_TOL = 1e-10
_RANK_TOL = 1e-10
_ZERO_VAR_TOL = 1e-14


class DataError(RuntimeError):
    """Numerical or data failure: non-PSD covariance, non-finite results."""


@dataclass(frozen=True)
class CovKernel:
    """Covariance kernel of a centered scalar Gaussian process on [0, 1]."""

    kind: str
    hurst: float | None = None
    table_times: np.ndarray | None = None
    table_values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "brownian":
            pass
        elif self.kind == "fbm":
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ValueError("fbm requires 0 < hurst < 1")
        elif self.kind == "table":
            t = np.asarray(self.table_times, dtype=float)
            v = np.asarray(self.table_values, dtype=float)
            TimeGrid(t)
            if v.shape != (t.size, t.size):
                raise ValueError("table values must be square over the table grid")
            if not np.all(np.isfinite(v)):
                raise ValueError("table values must be finite")
            # Relative to the table's scale, as the PSD gate is.
            if np.max(np.abs(v - v.T)) > 1e-12 * np.max(np.abs(v)):
                raise ValueError("table values must be symmetric")
            object.__setattr__(self, "table_times", t)
            object.__setattr__(self, "table_values", v)
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def brownian(cls) -> "CovKernel":
        return cls("brownian")

    @classmethod
    def fbm(cls, hurst: float) -> "CovKernel":
        return cls("fbm", hurst=hurst)

    @classmethod
    def from_table(cls, times: np.ndarray, values: np.ndarray) -> "CovKernel":
        return cls("table", table_times=times, table_values=values)


def _cells(times: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Table cell of each x and its weight (x - left node) / cell width."""
    cell = np.clip(np.searchsorted(times, x, side="right") - 1, 0, times.size - 2)
    return cell, (x - times[cell]) / (times[cell + 1] - times[cell])


def _bilinear(times: np.ndarray, values: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Only the corner gathers and their weighted sum have the broadcast shape.
    cell_s, ws = _cells(times, s)
    cell_t, wt = _cells(times, t)
    return (
        (1 - ws) * (1 - wt) * values[cell_s, cell_t]
        + ws * (1 - wt) * values[cell_s + 1, cell_t]
        + (1 - ws) * wt * values[cell_s, cell_t + 1]
        + ws * wt * values[cell_s + 1, cell_t + 1]
    )


def kernel_eval(kernel: CovKernel, s, t):
    """Evaluate R(s, t); broadcasts over array arguments, and gives a float
    for scalar or 0-d ones.

    Each kernel has one formula.  The fbm square is built in two arrays of
    the broadcast shape: the lag |t - s|^{2H} is raised in place and
    subtracted in place from s^{2H} + t^{2H}.  These are the operations of
    ``0.5 * (s**h2 + t**h2 - np.abs(t - s) ** h2)`` in its order, so the bits
    are its bits.  A table's cells and weights are found per axis, before s
    and t broadcast.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(s > 1) or np.any(t < 0) or np.any(t > 1):
        raise ValueError("kernel arguments must lie in [0, 1]")
    if kernel.kind == "brownian":
        out = np.minimum(s, t)
    elif kernel.kind == "fbm":
        h2 = 2.0 * kernel.hurst
        lag = np.abs(t - s)
        lag **= h2
        out = s**h2 + t**h2
        out -= lag
        out *= 0.5
    else:
        out = _bilinear(kernel.table_times, kernel.table_values, s, t)
    return out if out.ndim else float(out)


def _active_cols(active: np.ndarray) -> slice | np.ndarray:
    """The nodes of the mask ``active`` as a slice when they are contiguous,
    else the mask itself.  A slice reads a block as a view and writes it
    several times faster than a mask does."""
    idx = np.flatnonzero(active)
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(idx[0], idx[-1] + 1)
    return active


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Kernel evaluated on a grid: entries[i, j] = R(t_i, t_j), validated PSD."""

    grid: TimeGrid
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        n = self.grid.n_nodes
        if e.shape != (n, n):
            raise ValueError("entries must be square over the grid nodes")
        object.__setattr__(self, "entries", e)

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues above ``_RANK_TOL`` times the largest, descending;
        their orthonormal eigenvectors, one row per mode) from one ``eigh``,
        computed on first use and kept.  Raises DataError when the smallest
        eigenvalue is below -``_PSD_TOL`` times the largest."""
        lam, vec = np.linalg.eigh(self.entries)
        top = max(float(lam[-1]), 0.0)
        if lam[0] < -_PSD_TOL * top:
            raise DataError(f"covariance is not PSD: min eigenvalue {lam[0]:.3e}")
        keep = np.flatnonzero(lam > _RANK_TOL * top)[::-1]
        return lam[keep], vec.T[keep]

    @cached_property
    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(mask of the nodes with positive variance, square root S of their
        block, S @ S.T = block), computed on first use and kept.  S is the
        lower Cholesky factor where that factorization exists, else the eigen
        square root of the kept ``modes``, of shape (active nodes, rank).

        The block is ``entries[cols][:, cols]`` with ``cols`` from
        ``_active_cols``: for contiguous active nodes (every Brownian and fbm
        grid, all but node 0) it is a view, and only the factor is allocated.
        """
        diag = np.diag(self.entries)
        active = diag > _ZERO_VAR_TOL * np.max(diag, initial=0.0)
        cols = _active_cols(active)
        block = self.entries[cols][:, cols]
        try:
            return active, np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            lam, phi = self.modes
            return active, phi[:, active].T * np.sqrt(lam)


def cov_matrix(kernel: CovKernel, grid: TimeGrid) -> CovMatrix:
    """Evaluate a kernel on a grid and check positive semidefiniteness.

    If the plain Cholesky factorization of the positive-variance block
    succeeds and every zero-variance row is exactly zero, the matrix is
    accepted without an eigenvalue pass, and the factor is kept for
    sampling.  A successful factorization is the exact factor of a matrix
    within a backward error of order n u ||R|| of the block (u the unit
    roundoff; Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3), so the smallest eigenvalue is at least about minus that:
    6e-14 ||R|| at n = 512, far inside the gate's ``_PSD_TOL`` (1e-10) times
    ||R||.  Otherwise the ``eigh`` behind ``CovMatrix.modes`` decides, and
    raises DataError when the smallest eigenvalue is below -1e-10 times the
    largest (table kernels can be arbitrarily bad; the analytic ones cannot).

    The entries are ``kernel_eval``'s array, symmetrized in place for a
    table, and ``CovMatrix.factor`` reads their positive-variance block as a
    view when its nodes are contiguous, so the traced peak is about two
    matrices: the entries and the factor.
    """
    t = grid.times
    entries = kernel_eval(kernel, t[:, None], t[None, :])
    if kernel.kind == "table":
        # Bilinear table entries are not exactly symmetric; the analytic
        # kernels evaluate R(s, t) and R(t, s) with the same operations.
        # numpy buffers the overlapping transpose, so this is the bits of
        # 0.5 * (entries + entries.T).
        entries += entries.T
        entries *= 0.5
    r = CovMatrix(grid, entries)
    active, _ = r.factor
    if np.any(entries[~active]):
        r.modes  # a zero-variance node coupled to others: eigh decides
    return r


# numpy's SeedSequence (O'Neill's seed_seq_fe) hash constants and PCG64's
# 128-bit multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_X, _MIX_Y = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, calls) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiply constants of the numbered hash calls, as uint32
    columns: call c xors init * mult^c and multiplies by init * mult^(c+1)."""
    calls = np.asarray(calls)
    h = [init]
    for _ in range(calls.max() + 1):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)
    return h[calls, None], h[calls + 1, None]


_FILL = _hash_consts(_INIT_A, _MULT_A, range(4))
# Mixing step src hashes pool word src once for each other word dst, in
# order, with hash call 4 + 3 src + (position of dst among the other three);
# the row of src itself is computed and discarded.
_MIXING = [
    _hash_consts(_INIT_A, _MULT_A, [4 + 3 * src + dst - (dst > src) for dst in range(4)])
    for src in range(4)
]
# Output word 4 j + i hashes pool word i; shape (2, 4, 1) to broadcast.
_OUT = tuple(c.reshape(2, 4, 1) for c in _hash_consts(_INIT_B, _MULT_B, range(8)))


def _hashmix(v: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    v = v ^ consts[0]
    v *= consts[1]
    v ^= v >> _SHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_X
    r -= y * _MIX_Y
    r ^= r >> _SHIFT
    return r


def _pcg64_states(seed: int, first: int, count: int) -> list[tuple[int, int]]:
    """(state, inc) of ``np.random.default_rng([seed, k])``'s PCG64 for
    k = first..first+count-1, in one pass vectorized over the draws.

    This is numpy's ``SeedSequence`` with a pool of four uint32 words, its
    ``generate_state(4, np.uint64)``, then PCG64's set-seed.  The entropy of
    draw k is seed's words, then k's (one word below 2^32, else two).  An
    entropy shorter than the pool is zero-padded, which is how the pool is
    filled too, so only words past the pool are skipped per draw.
    """
    if first < 0 or first + count > 1 << 64:
        raise ValueError("draw indices must lie in [0, 2**64)")
    if seed < 0:
        raise ValueError("expected non-negative integer")
    nw = max(1, -(-seed.bit_length() // 32))  # 0 is one word
    seed_words = [seed >> 32 * i & _MASK32 for i in range(nw)]
    ks = np.arange(first, first + count, dtype=np.uint64)
    entropy = np.zeros((max(nw + 2, 4), count), dtype=np.uint32)
    entropy[:nw] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[nw] = ks  # the low word: assignment truncates
    entropy[nw + 1] = ks >> 32
    length = nw + 1 + (entropy[nw + 1] > 0)

    pool = _hashmix(entropy[:4], _FILL)
    for src, consts in enumerate(_MIXING):
        mixed = _mix(pool, _hashmix(pool[src], consts))
        mixed[src] = pool[src]
        pool = mixed
    # Word s >= 4, past the pool, is mixed into every pool word with hash
    # calls 4 s .. 4 s + 3.
    for s in range(4, entropy.shape[0]):
        consts = _hash_consts(_INIT_A, _MULT_A, range(4 * s, 4 * s + 4))
        mixed = _mix(pool, _hashmix(entropy[s], consts))
        pool = np.where(s < length, mixed, pool)

    words = _hashmix(pool, _OUT).reshape(8, count).astype(np.uint64)
    u = words[0::2] | words[1::2] << np.uint64(32)
    states = []
    for u0, u1, u2, u3 in u.T.tolist():
        inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
        states.append((((inc + (u0 << 64 | u1)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def draw_normals(seed: int, count: int, shape: tuple[int, ...], first: int = 0) -> np.ndarray:
    """Standard normals of draws first..first+count-1, shape (count,) + shape.

    Draw k is ``np.random.default_rng([seed, k]).standard_normal(shape)``
    bit for bit.  The generator states of all draws are derived in one batch
    (``_pcg64_states``) and set in turn on one generator built per call.
    """
    out = np.empty((count,) + shape)
    flat = out.reshape(count, math.prod(shape))
    bits = np.random.PCG64(0)  # every draw replaces this state
    gen = np.random.Generator(bits)
    for k, (state, inc) in enumerate(_pcg64_states(operator.index(seed), first, count)):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=flat[k])
    return out


def sample_values(r: CovMatrix, dim: int, count: int, seed: int, first: int = 0) -> np.ndarray:
    """Stacked draws first..first+count-1, shape (count, dim, n_nodes).

    Components are independent; draw indices address substreams, so a chunked
    caller reproduces one big call exactly.
    """
    active, root = r.factor
    n = r.grid.n_nodes
    out = np.zeros((count, dim, n))
    n_active, rank = root.shape
    if n_active == 0 or count == 0:
        return out
    z = draw_normals(seed, count, (dim, rank), first)
    out[:, :, _active_cols(active)] = (z.reshape(count * dim, rank) @ root.T).reshape(
        count, dim, n_active
    )
    return out


def sample(r: CovMatrix, dim: int, count: int, seed: int) -> list[SamplePath]:
    """Draw paths with d iid components from the exact grid law."""
    if dim < 1 or count < 0:
        raise ValueError("need dim >= 1 and count >= 0")
    values = sample_values(r, dim, count, seed)
    return [SamplePath(r.grid, values[k]) for k in range(count)]
