"""Karhunen-Loeve decomposition on a grid and mode-truncated lift formulas.

A grid covariance factors as R = sum_k lambda_k phi_k phi_k^T with the phi_k
orthonormal over nodes; h_k = sqrt(lambda_k) phi_k are the scaled modes and a
path component x decomposes as x = sum_k Z_k h_k with standardized
coefficients Z_k = <phi_k, x> / sqrt(lambda_k).  Keeping an index set A and
discarding its complement gives the projected path; the modules here provide
the algebra needed to compare lifted projections against the conditional law
of the full lift.  Every path component is an iid copy of one covariance, so
one basis serves all d components:

* ``level2_double_sum`` rebuilds a degree-2 signature entry of the projected
  lift from KL coefficients and pairwise mode integrals (a route independent
  of the path-level lift).
* ``level3_correction`` evaluates the degree-3 defect between the conditional
  expectation of the full lift and the lift of the projection.  For grid
  processes the defect lies in the span of the brackets [e_i, [e_i, e_j]] and
  its coefficient is

      (1/12) (x^j_t - x^j_s) * rect(Rc; [s,t] x [s,t])
      - (1/2) int_s^t rect(Rc; [u,t] x [s,u]) dx^j_u,

  where Rc is the residual covariance (modes outside A), the same for every
  component i.
  The integrand is piecewise quadratic on the grid because mode products are
  bilinear on cells, so the Simpson rule used here is exact.
* ``conditional_log_mc`` estimates the conditional expectation by Monte
  Carlo: residuals are drawn exactly as sum_{k not in A} xi_k h_k with xi iid
  standard normal, added to the projected path, lifted, and averaged in log
  coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .gaussian_process import CovMatrix, DataError, draw_normals
from .path_lift import SamplePath, TimeGrid, signature_at, young_integral_quadratic
from .tensor_group import LieElement, bracket_iij_tensor, log_levels, zero

__all__ = [
    "KLBasis",
    "IndexSet",
    "kl_decompose",
    "coefficients",
    "project",
    "partial_cov",
    "level2_double_sum",
    "level3_correction",
    "conditional_log_mc",
]


@dataclass(frozen=True, eq=False)
class KLBasis:
    """Eigenpairs of a grid covariance, eigenvalues descending and positive."""

    grid_times: np.ndarray
    eigenvalues: np.ndarray
    phi: np.ndarray

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def h(self) -> np.ndarray:
        """Scaled modes h_k = sqrt(lambda_k) phi_k, one row per mode, computed
        on first use and kept."""
        return np.sqrt(self.eigenvalues)[:, None] * self.phi


@dataclass(frozen=True)
class IndexSet:
    """Sorted set of mode indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if any(i < 0 for i in idx) or len(set(idx)) != len(idx):
            raise ValueError("indices must be distinct and non-negative")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def prefix(cls, m: int) -> "IndexSet":
        return cls(tuple(range(m)))

    @classmethod
    def of(cls, items: Iterable[int]) -> "IndexSet":
        return cls(tuple(items))

    def complement(self, rank: int) -> "IndexSet":
        """The indices in 0..rank-1 that are not in this set."""
        keep = np.ones(rank, dtype=bool)
        mine = self.as_array()
        keep[mine[mine < rank]] = False
        return IndexSet(tuple(np.flatnonzero(keep).tolist()))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=int)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices


def kl_decompose(r: CovMatrix) -> KLBasis:
    """The KL basis of a covariance: the modes ``CovMatrix.modes`` keeps
    (eigenvalues above 1e-10 times the largest), shared with its sampler."""
    lam, phi = r.modes
    return KLBasis(r.grid.times, lam, phi)


def _check_modes(basis: KLBasis, a: IndexSet) -> None:
    if len(a) and a.indices[-1] >= basis.rank:
        raise ValueError(f"mode index {a.indices[-1]} outside rank {basis.rank}")


def coefficients(values: np.ndarray, basis: KLBasis) -> np.ndarray:
    """Standardized KL coefficients of one path component's node values."""
    values = np.asarray(values, dtype=float)
    if values.shape != (basis.phi.shape[1],):
        raise ValueError("values must be one component over the basis grid")
    return (basis.phi @ values) / np.sqrt(basis.eigenvalues)


def project(x: SamplePath, basis: KLBasis, a: IndexSet) -> SamplePath:
    """Keep only the modes in ``a`` of each component.

    Computed as sum_{k in a} phi_k <phi_k, x>; the sqrt(lambda) factors of the
    coefficient/mode pairing cancel algebraically, and orthonormality of the
    phi makes repeated projection exact.
    """
    _check_modes(basis, a)
    sel = basis.phi[a.as_array()]
    out = np.zeros_like(x.values)
    for c, v in enumerate(x.values):
        out[c] = sel.T @ (sel @ v)
    return SamplePath(x.grid, out)


def partial_cov(basis: KLBasis, a: IndexSet) -> CovMatrix:
    """Covariance sum_{k in a} h_k h_k^T of the selected modes.

    PSD by construction, so no eigenvalue check is run.
    """
    _check_modes(basis, a)
    h = basis.h[a.as_array()]
    return CovMatrix(TimeGrid(basis.grid_times), h.T @ h)


def level2_double_sum(
    basis: KLBasis,
    coeffs: np.ndarray,
    a: IndexSet,
    t_node: int,
    i: int,
    j: int,
) -> float:
    """Degree-2 entry (i, j) at a node of the lifted mode-truncated path,
    assembled coefficient-wise.

    Evaluates sum_{k,l in a} Z^i_k Z^j_l int_0^t (h_k - h_k(0)) dh_l
    with the exact trapezoid value of each piecewise-linear pair integral.
    Dual route to lifting the projected path; kept separate on purpose.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    _check_modes(basis, a)
    if not 0 <= t_node < basis.phi.shape[1]:
        raise ValueError("t_node outside the grid")
    sel = a.as_array()
    h = basis.h[sel]
    # Per-segment trapezoid of (h_k - h_k(0)) against dh_l, summed to t_node.
    mids = 0.5 * (h[:, : t_node] + h[:, 1 : t_node + 1]) - h[:, :1]
    dh = np.diff(h[:, : t_node + 1], axis=1)
    pair_integrals = mids @ dh.T
    zi = coeffs[i, sel]
    zj = coeffs[j, sel]
    return float(zi @ pair_integrals @ zj)


def _rect_integrand(
    row_t: np.ndarray, row_s: np.ndarray, diag: np.ndarray, off: np.ndarray, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Node and midpoint values of u -> rect(rc; [u,t] x [s,u]) on [s, t], from
    the entries of a symmetric rc it reads: rows t and s, the diagonal and the
    first off-diagonal.

    Midpoints use the bilinear cell structure of grid covariances:
    rc(mid, v) is the average of the two straddling node values, and
    rc(mid, mid) the average of the four cell corners.
    """
    f_nodes = row_t - row_t[s] - diag + row_s
    diag_mid = 0.25 * (diag[:-1] + off + off + diag[1:])
    f_mids = (
        0.5 * (row_t[:-1] + row_t[1:])
        - row_t[s]
        - diag_mid
        + 0.5 * (row_s[:-1] + row_s[1:])
    )
    return f_nodes, f_mids


def _residual_rect_integrand(
    rc: np.ndarray, s: int, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_rect_integrand`` on a whole residual covariance matrix."""
    return _rect_integrand(rc[t], rc[:, s], np.diagonal(rc), np.diagonal(rc, 1), s)


def level3_correction(
    basis: KLBasis,
    a: IndexSet,
    x_a: SamplePath,
    s: int,
    t: int,
) -> LieElement:
    """Degree-3 gap between the conditional mean of the full lift over nodes
    s..t and the lift of the mode-truncated path.

    ``x_a`` must lie in the span of the kept modes.  The result is the bracket
    combination described in the module docstring; degrees 1 and 2 vanish.
    The residual covariance entries it reads come straight from the residual
    modes, in O(rank * n), once for all components.
    """
    d = x_a.dim
    if not 0 <= s <= t < x_a.grid.n_nodes:
        raise ValueError("need grid nodes 0 <= s <= t")
    h = basis.h[a.complement(basis.rank).as_array()]
    row_t, row_s = h[:, [t, s]].T @ h
    diag = np.einsum("kn,kn->n", h, h)
    off = np.einsum("kn,kn->n", h[:, :-1], h[:, 1:])
    f_nodes, f_mids = _rect_integrand(row_t, row_s, diag, off, s)
    rect_st = row_t[t] - row_t[s] - row_s[t] + row_s[s]
    coeffs = [
        (x_a.values[j, t] - x_a.values[j, s]) * rect_st / 12.0
        - 0.5 * young_integral_quadratic(f_nodes, f_mids, x_a, j, s, t)
        for j in range(d)
    ]
    cube = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            if j != i:
                cube += coeffs[j] * bracket_iij_tensor(i, j, d).levels[3]
    return LieElement(d, 3, zero(d, 3).levels[:3] + (cube,))


def conditional_log_mc(
    basis: KLBasis,
    a: IndexSet,
    x_a: SamplePath,
    s: int,
    t: int,
    count: int,
    seed: int,
) -> tuple[LieElement, tuple[np.ndarray, ...]]:
    """Monte Carlo conditional mean of the log-lift increment over nodes s..t
    given the kept modes.

    Residuals are drawn exactly in the eigenbasis (no factorization): draw k
    uses ``np.random.default_rng([seed, k])`` with shape (d, residual modes).
    Returns the mean log as a Lie element together with per-coordinate
    standard errors for degrees 1..3.
    """
    d = x_a.dim
    if not 0 <= s <= t < x_a.grid.n_nodes:
        raise ValueError("need grid nodes 0 <= s <= t")
    if count < 2:
        raise DataError("need at least two draws for a standard error")
    _check_modes(basis, a)
    res_h = basis.h[a.complement(basis.rank).as_array(), s : t + 1]
    window = x_a.values[:, s : t + 1]

    xi = draw_normals(seed, count, (d, res_h.shape[0]))
    values = np.broadcast_to(window, (count,) + window.shape).copy()
    for c in range(d):
        values[:, c] += xi[:, c] @ res_h

    lifted = signature_at(values, 3, [t - s])
    logs = log_levels([lv[:, 0] for lv in lifted])

    mean_levels = [np.mean(lv, axis=0) for lv in logs]
    mean_levels[0] = np.zeros(())
    scale = 1.0 / np.sqrt(count)
    stderr = tuple(np.std(lv, axis=0, ddof=1) * scale for lv in logs[1:])
    return LieElement(d, 3, tuple(mean_levels)), stderr
