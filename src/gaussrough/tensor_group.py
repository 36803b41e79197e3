"""Truncated tensor algebra over R^d and the step-N free nilpotent group, N <= 3.

Elements live in T = R + R^d + (R^d)^2 + (R^d)^3, truncated at the chosen
depth.  Group elements have scalar part 1, Lie elements scalar part 0; exp and
log are the (finite) truncated power series and are exact inverses of each
other on these sets.  The homogeneous norm used throughout is the symmetrized
max norm

    ||g|| = max_k max(|pi_k(g)|, |pi_k(g^{-1})|)^(1/k),

which is equivalent to the Carnot-Caratheodory norm and exactly computable.
The induced left-invariant distance is dist(g, h) = ||g^{-1} h||.  The public
per-element API takes the inverse by the general Neumann series, so it also
serves elements that were never checked to be group-like.  The hot paths
(``variation_metrics.reduce_pair_dists``, ``experiments.run_uniform_modulus``)
work on increments of lifted paths, which are group-like: there the inverse
is, level by level, a signed index reversal of g, so the symmetrized norm
equals the plain max norm max_k |pi_k(g)|^(1/k) and they use that.  Its one
copy is ``max_level_norm``, on levels stored tensor axis first, the layout in
which ``reduce_pair_dists`` builds its quotients; ``group_norm_levels`` moves
batch-first levels into that layout, as views where they are contiguous.  It
takes each norm from plain squares and redoes with power-of-two scaling only
the entries whose squares may overflow or underflow, so the common case pays
for no scaling.

The public API wraps single elements in frozen dataclasses.  Under it lies
the package's internal batch layer, shared between modules but not exported:
level-stacked elements, one array per degree with any leading batch axes
(level k has shape ``batch + (d,)*k``).  This module contributes
``check_depth``, ``log_levels``, ``hom_norm_levels``, ``group_norm_levels``
(the plain norm) and ``max_level_norm`` (the plain norm, tensor axis first:
level k as ``(d**k,) + batch``); ``path_lift`` (``signature_at``, at every
node or a few), ``gaussian_process`` and ``variation_metrics`` name their
parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TensorElement",
    "GroupElement",
    "LieElement",
    "mul",
    "exp",
    "log",
    "inverse",
    "increment",
    "dilate",
    "hom_norm",
    "dist",
    "bracket_iij_tensor",
    "shuffle_defect",
    "is_group_like",
    "unit",
    "zero",
    "identity",
    "lie_from_vector",
    "max_abs_diff",
]

MAX_DEPTH = 3


def check_depth(depth: int) -> None:
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")


def _unit_levels(dim: int, depth: int) -> list[np.ndarray]:
    levels = [np.ones(())]
    for k in range(1, depth + 1):
        levels.append(np.zeros((dim,) * k))
    return levels


def _mul_levels(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> list[np.ndarray]:
    # (a b)_k = sum_p a_p (x) b_{k-p}.  a_p gains k-p trailing axes and b_{k-p}
    # gains p axes ahead of its own, so each outer product is one broadcast
    # multiply over the shared leading batch axes.
    def outer(p: int, q: int) -> np.ndarray:
        head = np.asarray(a[p])[(Ellipsis,) + (None,) * q]
        return head * np.expand_dims(b[q], tuple(range(-p - q, -q)))

    out = []
    for k in range(len(a)):
        acc = outer(0, k)
        for p in range(1, k + 1):
            acc = acc + outer(p, k - p)
        out.append(acc)
    return out


def _series(u: Sequence[np.ndarray], coeffs: Sequence[float]) -> list[np.ndarray]:
    # sum_j coeffs[j] u^j, truncated at u's depth: u^j of a scalar-free u
    # starts at degree j, so the later terms vanish.
    acc = [coeffs[1] * lv for lv in u]
    acc[0] = acc[0] + coeffs[0]
    power = u
    for c in coeffs[2 : len(u)]:
        power = _mul_levels(power, u)
        acc = [s + c * lv for s, lv in zip(acc, power)]
    return acc


def _strip_scalar(g: Sequence[np.ndarray]) -> list[np.ndarray]:
    return [np.zeros_like(np.asarray(g[0]))] + [np.asarray(lv) for lv in g[1:]]


def log_levels(g: Sequence[np.ndarray]) -> list[np.ndarray]:
    """log(1 + u) = u - u^2/2 + u^3/3 with u = g - 1; exact at this depth."""
    return _series(_strip_scalar(g), (0.0, 1.0, -0.5, 1.0 / 3.0))


def _inv_levels(g: Sequence[np.ndarray]) -> list[np.ndarray]:
    # (1 + u)^{-1} = 1 - u + u^2 - u^3; identical to exp(-log g) at this depth.
    return _series(_strip_scalar(g), (1.0, -1.0, 1.0, -1.0))


def max_level_norm(z: Sequence[np.ndarray]) -> np.ndarray:
    """max_k |z_k|^(1/k) over levels 1..depth stored tensor axis first,
    level k as ``(d**k,) + batch``; batch-shaped.

    Each level's norm comes from the squares of its coordinates.  A square
    above the float range makes its entry infinite, and below a norm of
    2^-170 a level-3 square can be subnormal or 0; only those entries are
    redone, with each level divided by the power of two of its largest
    coordinate and the norm multiplied back.  Both steps are exact, so an
    entry whose squares are normal has the same bits either way.
    """

    def norm(lv: np.ndarray) -> np.ndarray:
        return np.sqrt(np.sum(lv * lv, axis=0))

    def scaled_norm(lv: np.ndarray) -> np.ndarray:
        exp = np.frexp(np.max(np.abs(lv), axis=0))[1]
        return np.ldexp(norm(np.ldexp(lv, -exp)), exp)

    def max_root(levels: Sequence[np.ndarray], level_norm) -> np.ndarray:
        out = np.zeros(levels[0].shape[1:])
        for k, lv in enumerate(levels, start=1):
            np.maximum(out, level_norm(lv) ** (1.0 / k), out=out)
        return out

    with np.errstate(over="ignore"):
        dist = max_root(z, norm)
        bad = ~np.isfinite(dist) | (dist < 2.0**-170)
        if bad.any():
            dist[bad] = max_root([lv[:, bad] for lv in z], scaled_norm)
    return dist


def group_norm_levels(g: Sequence[np.ndarray]) -> np.ndarray:
    """Plain max norm max_k |pi_k(g)|^(1/k) of level-stacked elements,
    batch-shaped; equal to ``hom_norm_levels`` on group-like elements."""
    batch, d = np.shape(g[1])[:-1], np.shape(g[1])[-1]
    # Views keep the tensor axis innermost in memory, so numpy sums each level
    # in the order of a reduction over trailing tensor axes.
    levels = enumerate(g[1:], start=1)
    return max_level_norm([np.moveaxis(np.reshape(lv, batch + (d**k,)), -1, 0) for k, lv in levels])


def hom_norm_levels(g: Sequence[np.ndarray]) -> np.ndarray:
    """Symmetrized homogeneous norm of level-stacked elements, batch-shaped."""
    return np.maximum(group_norm_levels(g), group_norm_levels(_inv_levels(g)))


def _dilate_levels(lam: float, g: Sequence[np.ndarray]) -> list[np.ndarray]:
    return [(lam**k) * np.asarray(lv) for k, lv in enumerate(g)]


@dataclass(frozen=True, eq=False)
class TensorElement:
    """Element of the depth-truncated tensor algebra.

    ``levels[k]`` is the degree-k component with shape ``(dim,)*k``; the
    scalar part is a 0-d array.
    """

    dim: int
    depth: int
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        check_depth(self.depth)
        if len(self.levels) != self.depth + 1:
            raise ValueError("levels must have one entry per degree 0..depth")
        norm = []
        for k, lv in enumerate(self.levels):
            arr = np.asarray(lv, dtype=float)
            if arr.shape != (self.dim,) * k:
                raise ValueError(f"level {k} must have shape {(self.dim,) * k}")
            norm.append(arr)
        object.__setattr__(self, "levels", tuple(norm))

    @property
    def scalar(self) -> float:
        return float(self.levels[0])


class GroupElement(TensorElement):
    """Group-like element: scalar part 1; shuffle identities hold for lifts."""

    def __post_init__(self):
        super().__post_init__()
        if abs(float(self.levels[0]) - 1.0) > 1e-12:
            raise ValueError("group element must have scalar part 1")


class LieElement(TensorElement):
    """Lie element: scalar part 0 and antisymmetric degree-2 part."""

    def __post_init__(self):
        super().__post_init__()
        if abs(float(self.levels[0])) > 1e-12:
            raise ValueError("Lie element must have scalar part 0")
        if self.depth >= 2:
            # Relative to the level's homogeneous scale: the largest level-2
            # coordinate or the square of the largest level-1 coordinate.
            m = self.levels[2]
            top1 = np.max(np.abs(self.levels[1]), initial=0.0)
            scale = max(np.max(np.abs(m), initial=0.0), top1 * top1)
            if np.max(np.abs(m + m.T), initial=0.0) > 1e-9 * scale:
                raise ValueError("Lie element must have antisymmetric level 2")


def _check_compatible(a: TensorElement, b: TensorElement) -> None:
    if a.dim != b.dim or a.depth != b.depth:
        raise ValueError(
            f"incompatible elements: dim/depth ({a.dim},{a.depth}) vs ({b.dim},{b.depth})"
        )


def unit(dim: int, depth: int) -> TensorElement:
    """Multiplicative unit 1 of the tensor algebra."""
    return TensorElement(dim, depth, tuple(_unit_levels(dim, depth)))


def zero(dim: int, depth: int) -> TensorElement:
    lv = _unit_levels(dim, depth)
    lv[0] = np.zeros(())
    return TensorElement(dim, depth, tuple(lv))


def identity(dim: int, depth: int) -> GroupElement:
    """Group identity e (same underlying tensor as ``unit``)."""
    return GroupElement(dim, depth, tuple(_unit_levels(dim, depth)))


def lie_from_vector(vec: np.ndarray, depth: int = MAX_DEPTH) -> LieElement:
    """Degree-1 Lie element with the given coordinates."""
    vec = np.asarray(vec, dtype=float)
    lv = _unit_levels(vec.shape[0], depth)
    lv[0] = np.zeros(())
    lv[1] = vec
    return LieElement(vec.shape[0], depth, tuple(lv))


def mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Truncated tensor product a (x) b.

    The product of two group elements is again a group element and the result
    is typed accordingly.
    """
    _check_compatible(a, b)
    out = _mul_levels(a.levels, b.levels)
    cls = GroupElement if isinstance(a, GroupElement) and isinstance(b, GroupElement) else TensorElement
    return cls(a.dim, a.depth, tuple(out))


def exp(l: TensorElement) -> GroupElement:
    """Truncated exponential; requires scalar part 0."""
    if abs(l.scalar) > 1e-12:
        raise ValueError("exp requires scalar part 0")
    return GroupElement(l.dim, l.depth, tuple(_series(l.levels, (1.0, 1.0, 0.5, 1.0 / 6.0))))


def log(g: TensorElement) -> LieElement:
    """Truncated logarithm; requires scalar part 1."""
    if abs(g.scalar - 1.0) > 1e-12:
        raise ValueError("log requires scalar part 1")
    return LieElement(g.dim, g.depth, tuple(log_levels(g.levels)))


def inverse(g: GroupElement) -> GroupElement:
    """Group inverse via the truncated Neumann series (equals exp(-log g))."""
    if abs(g.scalar - 1.0) > 1e-12:
        raise ValueError("inverse requires scalar part 1")
    return GroupElement(g.dim, g.depth, tuple(_inv_levels(g.levels)))


def increment(g: GroupElement, h: GroupElement) -> GroupElement:
    """Left increment g^{-1} (x) h."""
    _check_compatible(g, h)
    return GroupElement(g.dim, g.depth, tuple(_mul_levels(_inv_levels(g.levels), h.levels)))


def dilate(lam: float, g: GroupElement) -> GroupElement:
    """Dilation: scales the degree-k part by lam^k.  dilate(0, g) is e."""
    return GroupElement(g.dim, g.depth, tuple(_dilate_levels(float(lam), g.levels)))


def hom_norm(g: GroupElement) -> float:
    """Symmetrized homogeneous max norm of g."""
    return float(hom_norm_levels(g.levels))


def dist(g: GroupElement, h: GroupElement) -> float:
    """Left-invariant homogeneous distance ||g^{-1} h||."""
    _check_compatible(g, h)
    return float(hom_norm_levels(_mul_levels(_inv_levels(g.levels), h.levels)))


def bracket_iij_tensor(i: int, j: int, dim: int) -> LieElement:
    """Iterated bracket [e_i, [e_i, e_j]] as a depth-3 Lie element.

    Its degree-3 part has +1 at (i,i,j), -2 at (i,j,i), +1 at (j,i,i); all
    other entries and all lower degrees vanish.  Requires i != j.
    """
    if i == j:
        raise ValueError("bracket [e_i,[e_i,e_j]] requires i != j")
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError("component index out of range")
    lv = _unit_levels(dim, 3)
    lv[0] = np.zeros(())
    cube = np.zeros((dim, dim, dim))
    cube[i, i, j] = 1.0
    cube[i, j, i] = -2.0
    cube[j, i, i] = 1.0
    lv[3] = cube
    return LieElement(dim, 3, tuple(lv))


def _shuffle_checks(g: TensorElement) -> list[tuple[float, float]]:
    """(defect, scale) per shuffle identity of degree 2 and 3 that g carries.

    The scale is the larger of the identity's two sides' sizes, in largest
    absolute coordinates: |pi_2| or |pi_1|^2, and |pi_3| or |pi_1| |pi_2|.
    """
    top = [float(np.max(np.abs(lv), initial=0.0)) for lv in g.levels]
    v = g.levels[1]
    sides = []  # (one side, the other side, scale) per identity
    if g.depth >= 2:
        m = g.levels[2]
        sides.append((m + m.T, np.outer(v, v), max(top[2], top[1] ** 2)))
    if g.depth >= 3:
        c = g.levels[3]
        rhs = c + c.transpose(1, 0, 2) + c.transpose(2, 0, 1)
        sides.append((np.einsum("i,jk->ijk", v, m), rhs, max(top[3], top[1] * top[2])))
    return [(float(np.max(np.abs(a - b), initial=0.0)), scale) for a, b, scale in sides]


def shuffle_defect(g: TensorElement) -> float:
    """Largest violation of the degree-2 and degree-3 shuffle identities.

    For group-like g these are pi_2[i,j] + pi_2[j,i] = pi_1[i] pi_1[j] and
    pi_1[i] pi_2[j,k] = pi_3[i,j,k] + pi_3[j,i,k] + pi_3[j,k,i]; together they
    cut out exactly the group-like set at this depth.
    """
    return max([0.0] + [defect for defect, _ in _shuffle_checks(g)])


def is_group_like(g: TensorElement, tol: float = 1e-9) -> bool:
    """Scalar part 1 within tol, and each shuffle defect at most tol times
    the scale of its identity (see ``_shuffle_checks``), so the answer does
    not depend on the units of the path."""
    return abs(g.scalar - 1.0) <= tol and all(
        defect <= tol * scale for defect, scale in _shuffle_checks(g)
    )


def max_abs_diff(a: TensorElement, b: TensorElement) -> float:
    """Largest entrywise difference across all levels."""
    _check_compatible(a, b)
    return max(float(np.max(np.abs(x - y), initial=0.0)) for x, y in zip(a.levels, b.levels))
