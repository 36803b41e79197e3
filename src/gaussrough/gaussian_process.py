"""Covariance kernels on [0, 1] and exact Gaussian sampling on a grid.

Supported kernels: Brownian motion min(s, t); fractional Brownian motion
(s^{2H} + t^{2H} - |t - s|^{2H}) / 2 with 0 < H < 1; and tabulated kernels
given by node values on their own grid, extended by bilinear interpolation
(which is exactly the covariance of the piecewise-linearly interpolated
process).

Sampling draws d independent components per path from the exact joint law on
the grid via a Cholesky factor, computed once per ``CovMatrix``.  Nodes with
(numerically) zero variance are deterministic and excluded from the
factorization; they are filled with zeros.  If the reduced matrix still fails
to factor, the diagonal is jittered once by 1e-12 times its mean and the
factorization retried; persistent failure raises DataError.

``cov_matrix`` checks positive semidefiniteness with that same factor: a
plain factorization of the positive-variance block, with every zero-variance
row exactly zero (node 0 of Brownian motion and fbm), certifies the matrix.
Only a covariance without this certificate (singular, indefinite, or with a
zero-variance node coupled to others) pays for ``eigvalsh``, which then
decides against the tolerance ``_PSD_TOL``.

Reproducibility contract: draw k of a call with seed s uses the generator
``np.random.default_rng([s, k])``, so each draw has its own substream and
results are independent of batching or evaluation order.  ``draw_normals``,
the one place that builds these generators, and ``sample_values`` are this
module's part of the batch layer (see ``tensor_group``): draw index first.
"""

from __future__ import annotations

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
_ZERO_VAR_TOL = 1e-14
_JITTER = 1e-12


class DataError(RuntimeError):
    """Numerical or data failure: non-PSD covariance, failed factorization."""


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
            if np.max(np.abs(v - v.T)) > 1e-12 * max(float(np.max(np.abs(v))), 1.0):
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


def _bilinear(times: np.ndarray, values: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
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


def kernel_eval(kernel: CovKernel, s, t):
    """Evaluate R(s, t); broadcasts over array arguments."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(s > 1) or np.any(t < 0) or np.any(t > 1):
        raise ValueError("kernel arguments must lie in [0, 1]")
    if kernel.kind == "brownian":
        out = np.minimum(s, t)
    elif kernel.kind == "fbm":
        h2 = 2.0 * kernel.hurst
        out = 0.5 * (s**h2 + t**h2 - np.abs(t - s) ** h2)
    else:
        s, t = np.broadcast_arrays(s, t)
        out = _bilinear(kernel.table_times, kernel.table_values, s, t)
    return out if out.ndim else float(out)


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
    def _plain_factor(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(mask of the nodes with positive variance, lower Cholesky factor of
        their block, or None if that factorization fails); no jitter."""
        diag = np.diag(self.entries)
        scale = max(float(np.max(diag, initial=0.0)), 1.0)
        active = diag > _ZERO_VAR_TOL * scale
        block = self.entries[np.ix_(active, active)]
        if block.size == 0:
            return active, np.zeros((0, 0))
        try:
            return active, np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return active, None

    @cached_property
    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(mask of the nodes with positive variance, lower Cholesky factor of
        their block), computed on first use and kept.  Only if the plain
        factorization fails is the block's diagonal jittered and refactored."""
        active, chol = self._plain_factor
        if chol is not None:
            return active, chol
        block = self.entries[np.ix_(active, active)]
        jitter = _JITTER * float(np.mean(np.diag(block)))
        try:
            return active, np.linalg.cholesky(block + jitter * np.eye(block.shape[0]))
        except np.linalg.LinAlgError as err:
            raise DataError("covariance factorization failed after jitter retry") from err


def cov_matrix(kernel: CovKernel, grid: TimeGrid) -> CovMatrix:
    """Evaluate a kernel on a grid and check positive semidefiniteness.

    Two routes decide.  If the plain Cholesky factorization of the
    positive-variance block succeeds and every zero-variance row is exactly
    zero, the matrix is accepted without an eigenvalue pass, and the factor
    is kept for sampling.  A successful factorization is the exact factor of
    a matrix within a backward error of order n u ||R|| of the block (u the
    unit roundoff; Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3), so the smallest eigenvalue is at least about minus that:
    6e-14 ||R|| at n = 512, far inside the gate's ``_PSD_TOL`` (1e-10)
    times max(||R||, 1).  Otherwise ``eigvalsh`` decides: DataError when the
    smallest eigenvalue is below -1e-10 times max(largest eigenvalue, 1)
    (table kernels can be arbitrarily bad; the analytic ones cannot).  A
    matrix that passes this gate but cannot be factored even with jitter
    fails only when something samples from it.
    """
    t = grid.times
    entries = kernel_eval(kernel, t[:, None], t[None, :])
    entries = 0.5 * (entries + entries.T)
    r = CovMatrix(grid, entries)
    active, chol = r._plain_factor
    if chol is not None and not np.any(entries[~active]):
        return r
    w = np.linalg.eigvalsh(entries)
    scale = max(float(w[-1]), 0.0)
    if float(w[0]) < -_PSD_TOL * max(scale, 1.0):
        raise DataError(f"covariance is not PSD: min eigenvalue {w[0]:.3e}")
    return r


def draw_normals(seed: int, count: int, shape: tuple[int, ...], first: int = 0) -> np.ndarray:
    """Standard normals of draws first..first+count-1, shape (count,) + shape.

    Draw k comes from its own generator ``np.random.default_rng([seed, k])``.
    """
    out = np.empty((count,) + shape)
    for k in range(count):
        out[k] = np.random.default_rng([seed, first + k]).standard_normal(shape)
    return out


def sample_values(r: CovMatrix, dim: int, count: int, seed: int, first: int = 0) -> np.ndarray:
    """Stacked draws first..first+count-1, shape (count, dim, n_nodes).

    Components are independent; draw indices address substreams, so a chunked
    caller reproduces one big call exactly.
    """
    active, chol = r.factor
    n = r.grid.n_nodes
    out = np.zeros((count, dim, n))
    n_active = int(np.count_nonzero(active))
    if n_active == 0 or count == 0:
        return out
    z = draw_normals(seed, count, (dim, n_active), first)
    # A slice write is several times faster than a mask write; the active
    # nodes are contiguous for Brownian motion and fbm (all but node 0).
    idx = np.flatnonzero(active)
    cols = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] + 1 == n_active else active
    out[:, :, cols] = (z.reshape(count * dim, n_active) @ chol.T).reshape(
        count, dim, n_active
    )
    return out


def sample(r: CovMatrix, dim: int, count: int, seed: int) -> list[SamplePath]:
    """Draw paths with d iid components from the exact grid law."""
    if dim < 1 or count < 0:
        raise ValueError("need dim >= 1 and count >= 0")
    values = sample_values(r, dim, count, seed)
    return [SamplePath(r.grid, values[k]) for k in range(count)]
