"""Metric-derived numerical tension field via finite differences.

The oracle never looks at a symbolic operator rule.  It evaluates the
divergence form

    tau f = sum_ij g^ij d_i d_j f  +  sum_i (1/sqrt|g|) sum_j d_j(g^ij sqrt|g|) d_i f

with second-order central differences for the derivatives of f and
independent central differences for the derivatives of the metric
coefficient matrix B = g^-1 sqrt|g|, then Richardson-extrapolates over a
configurable number of halved step sizes.  Complex-valued functions are
differenced through their real and imaginary parts (the stencils are
linear, so complex arithmetic does exactly that).

All sample points of a sweep are differenced together, every Richardson
level in one pass.  One array holds the full stencil of every point: the
centre once, +-h e_i of every level, then the four corners +-h e_i +-h e_j of
each i < j of every level.  f is evaluated once on it, and B comes from one
metric call at the 1 + 2 dim levels metric points of every stencil: for
dim <= 3 (every chart of the paper) det and g^-1 = adj(g) / det are taken in
closed form from the cofactors of the numeric metric entries, above that
from one batched np.linalg det/inv.  The stencil is built once per dimension
and level count.  Points go through in chunks of at most CHUNK_POINTS
point-levels, which bounds the temporaries of a sweep of any size.  A
function that is not an Expr is called once per stencil point.

This is the second, independent route to the tension field: under the
metric-derived operator convention the symbolic tau must agree with the
oracle at every admissible point.  On the conformal charts the pointwise
ratios |sym| / |fd| of the same sweep expose the factor-4 mismatch of the
printed operator convention as a deliberate sentinel rather than a bug.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import Expr
from .errors import DomainError, UsageError
from .geometries import Geometry

ChartPoint = tuple[float, ...]
PointFunction = Callable[[ChartPoint], complex]

CHUNK_POINTS = 256
ABS_FLOOR = 1e-9  # below this magnitude a value counts as zero in a ratio


@dataclass(frozen=True)
class OracleConfig:
    """Finite-difference settings.

    step    -- base step size h.
    levels  -- Richardson levels over h, h/2, ... (1 = plain stencil).
               The finest step step/2**(levels-1) must still change 1.0,
               and levels is at most 512 (the Richardson factor
               4**(levels-1) must be a float).
    rel_tol -- residual tolerance, relative with a unit floor:
               |sym - fd| / max(1, |sym|) <= rel_tol.
    samples -- points drawn per sweep, at sample_points' default margin.
    seed    -- RNG seed for point sampling.
    """

    step: float = 1e-3
    levels: int = 2
    rel_tol: float = 1e-6
    samples: int = 100
    seed: int = 0

    def __post_init__(self):
        # chained comparisons are false for NaN, so NaN and inf are rejected
        if not (0 < self.step < math.inf and 0 < self.rel_tol < math.inf) or self.levels < 1:
            raise UsageError("oracle configuration out of range")
        if self.levels > 512 or 1.0 + math.ldexp(self.step, 1 - self.levels) == 1.0:
            raise UsageError("finest oracle step step/2**(levels-1) is out of range")
        if self.samples < 1:
            raise UsageError("oracle needs at least one sample point")


# Cyclic successors n = (i+1) % 3 and a = (i+2) % 3 of each 3x3 index: the
# cofactor is C_ij = g[n_i, n_j] g[a_i, a_j] - g[n_i, a_j] g[a_i, n_j].
_N = np.array([1, 2, 0])
_A = np.array([2, 0, 1])
_SIGNS_2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _adjugate(g: np.ndarray) -> np.ndarray:
    """adj(g)_ij = C_ji of (..., dim, dim) matrices with dim <= 3."""
    dim = g.shape[-1]
    if dim == 1:
        return np.ones_like(g)
    if dim == 2:  # [[d, -b], [-c, a]]
        return np.swapaxes(g[..., ::-1, ::-1], -1, -2) * _SIGNS_2
    # the row index varies along the last axis and the column index along
    # the other, so each gather is already transposed
    return (
        g[..., _N, _N[:, None]] * g[..., _A, _A[:, None]]
        - g[..., _N, _A[:, None]] * g[..., _A, _N[:, None]]
    )


def _metric_coefficients(
    geometry: Geometry, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(g^-1, sqrt|g|) at points (..., dim).

    Up to dim 3, det and g^-1 = adj(g) / det come from the cofactors of the
    metric entries, and the metric must pass Sylvester's criterion (every
    leading principal minor positive); above that they come from one batched
    LAPACK det and inv, with every leading minor a batched LAPACK det too.
    Every entry enters the cofactor det, so a NaN or inf entry makes it
    non-finite and the guard sees it before any division.
    """
    g = geometry.metric(points)
    dim = g.shape[-1]
    closed_form = dim <= 3
    if closed_form:
        adj = _adjugate(g)
        det = (g[..., 0, :] * adj[..., :, 0]).sum(axis=-1)
        # Sylvester's criterion: the leading minors g00 and, at dim 3, the
        # upper-left 2x2 one (the cofactor adj_22) are positive as well
        lead = np.minimum(g[..., 0, 0], adj[..., 2, 2]) if dim == 3 else g[..., 0, 0]
        positive = (det > 0.0) & (lead > 0.0)
    else:
        minors = [np.linalg.det(g[..., :k, :k]) for k in range(1, dim + 1)]
        det, positive = minors[-1], np.all(np.greater(minors, 0.0), axis=0)
    if not (positive & np.isfinite(det)).all():
        raise DomainError("metric is not positive definite here")
    inv = adj / det[..., None, None] if closed_form else np.linalg.inv(g)
    return inv, np.sqrt(det)


@functools.cache
def _stencil(dim: int, levels: int) -> tuple[np.ndarray, ...]:
    """(offsets, scales, iu, ju), built once per (dim, levels) and read-only.

    offsets are the stencil rows in units of the base step: the centre, then
    +-e_i of every level, then the four corners of each pair i < j of every
    level, level k scaled by scales[k] = 2**-k.  The first 1 + 2 dim levels
    rows are the metric points; iu, ju index the pairs in corner-row order.
    """
    e = np.eye(dim)
    iu, ju = np.triu_indices(dim, 1)
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    corners = [si * e[i] + sj * e[j] for i, j in zip(iu, ju) for si, sj in signs]
    scales = np.ldexp(1.0, -np.arange(levels))[:, None]
    axial = (scales[:, None] * np.vstack([e, -e])).reshape(-1, dim)
    mixed = (scales[:, None] * np.reshape(corners, (-1, dim))).reshape(-1, dim)
    offsets = np.vstack([np.zeros((1, dim)), axial, mixed])
    for array in (offsets, scales, iu, ju):
        array.setflags(write=False)
    return offsets, scales, iu, ju


def _fd_tensions(
    geometry: Geometry, f: Expr | PointFunction, points: np.ndarray, config: OracleConfig
) -> np.ndarray:
    """Richardson-extrapolated stencil tension at each row of ``points``, every
    level of a chunk of at most CHUNK_POINTS point-levels from one stencil pass."""
    geometry.check_point(points, 2.0 * config.step)
    dim, levels = points.shape[1], config.levels
    offsets, scales, iu, ju = _stencil(dim, levels)
    h, axis_rows, axes = config.step * scales, 1 + 2 * dim * levels, np.arange(dim)
    out = np.empty(len(points), dtype=complex)
    size = max(1, CHUNK_POINTS // levels)
    with np.errstate(all="ignore"):
        for start in range(0, len(points), size):
            # repeated rows plus the offsets: the add runs over whole stencils
            X = np.repeat(points[start : start + size], len(offsets), axis=0)
            X = X.reshape(-1, *offsets.shape) + config.step * offsets
            if isinstance(f, Expr):
                F = f.evaluate(X)
            else:  # one call per stencil point
                F = np.array([[f(tuple(x)) for x in row] for row in X], dtype=complex)
            n = len(F)
            plus, minus = F[:, 1:axis_rows].reshape(n, levels, 2, dim).transpose(2, 0, 1, 3)
            second = np.empty((n, levels, dim, dim), dtype=complex)
            second[:, :, axes, axes] = (plus - 2.0 * F[:, :1, None] + minus) / (h * h)
            c = F[:, axis_rows:].reshape(n, levels, len(iu), 4)
            mixed = (c[..., 0] - c[..., 1] - c[..., 2] + c[..., 3]) / (4.0 * h * h)
            second[:, :, iu, ju] = second[:, :, ju, iu] = mixed
            inv, root = _metric_coefficients(geometry, X[:, :axis_rows])
            B = (inv * root[..., None, None])[:, 1:].reshape(n, levels, 2, dim, dim, dim)
            # (d_j B)^ij from the +-h e_j neighbours, summed over j
            div = np.einsum("nljij->nli", B[:, :, 0] - B[:, :, 1]) / (2.0 * h)
            grad = (plus - minus) / (2.0 * h)
            principal = np.einsum("nij,nlij->nl", inv[:, 0], second)
            tau = principal + np.einsum("nli,nli->nl", div / root[:, :1, None], grad)
            # Richardson table for an O(h^2) base stencil with step ratio 2,
            # one column of the table per pass over the level axis.
            table = tau.T
            for j in range(1, levels):
                factor = 4.0**j
                table = (factor * table[1:] - table[:-1]) / (factor - 1.0)
            out[start : start + size] = table[0]
    return out


def fd_tension(
    geometry: Geometry,
    f: Expr | PointFunction,
    point: Sequence[float],
    config: OracleConfig = OracleConfig(),
) -> complex:
    """Central-difference tension of f (an Expr or a point function) at a point."""
    points = np.asarray(point, dtype=float).reshape(1, -1)
    return complex(_fd_tensions(geometry, f, points, config)[0])


def sample_points(
    geometry: Geometry, count: int, rng: np.random.Generator, margin: float = 0.05
) -> np.ndarray:
    """(count, dim) uniform draws from the safe box, rejecting near-boundary points.

    Each batch draws exactly the rows still missing, so the points and the
    generator's final state are those of drawing one coordinate at a time.
    """
    lo, hi = np.array(geometry.sample_box, dtype=float).T
    batches = [np.empty((0, len(lo)))]
    accepted = drawn = 0
    while accepted < count:
        if drawn >= 1000 * count:
            raise DomainError(f"cannot sample {count} points in the {geometry.name} chart")
        batch = rng.uniform(lo, hi, size=(count - accepted, len(lo)))
        drawn += len(batch)
        batches.append(batch[geometry.contains(batch, margin)])
        accepted += len(batches[-1])
    return np.concatenate(batches)


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of the symbolic tension against the finite-difference oracle."""

    points: int
    max_abs: float
    max_rel: float
    worst_point: ChartPoint | None
    rel_tol: float
    ratios: tuple[float, ...]

    @property
    def within_tolerance(self) -> bool:
        return self.max_rel <= self.rel_tol

    @property
    def paper_sentinel_holds(self) -> bool:
        """At least one ratio, and each within 1e-4 of 4 (NaN fails)."""
        return bool(self.ratios) and all(abs(r - 4.0) < 1e-4 for r in self.ratios)


def cross_validate(
    geometry: Geometry,
    f: Expr,
    config: OracleConfig = OracleConfig(),
    symbolic_tension: Expr | None = None,
) -> ResidualReport:
    """Compare evaluate(tension(f)) against the oracle at sampled points.

    ``symbolic_tension`` may supply a precomputed chain entry, so iterated
    orders are validated one finite-difference layer at a time (the oracle
    is never nested).  Residuals are relative with a unit floor; a
    non-finite one counts as inf, so it fails the report.  The worst point
    is the first that reaches the largest residual, None when all are 0.
    ``ratios`` are |sym| / |fd| wherever neither is below ABS_FLOOR, NaN kept:
    the convention sentinel, 4 on the conformal charts under the printed
    operator convention and 1 under the metric-derived one.
    """
    sym = symbolic_tension if symbolic_tension is not None else geometry.tension(f)
    rng = np.random.default_rng(config.seed)
    points = sample_points(geometry, config.samples, rng)
    s = sym.evaluate(points)
    fd = _fd_tensions(geometry, f, points, config)
    err = np.abs(s - fd)
    err[np.isnan(err)] = math.inf
    s, fd = np.abs(s), np.abs(fd)
    rel = err / np.maximum(1.0, s)
    keep = ~((fd < ABS_FLOOR) | (s < ABS_FLOOR))  # NaN is kept
    worst = int(np.argmax(rel))
    return ResidualReport(
        points=len(points),
        max_abs=float(err.max()),
        max_rel=float(rel[worst]),
        worst_point=tuple(float(c) for c in points[worst]) if rel[worst] > 0 else None,
        rel_tol=config.rel_tol,
        ratios=tuple((s[keep] / fd[keep]).tolist()),
    )


def validate_chain(
    geometry: Geometry,
    chain: Sequence[Expr],
    config: OracleConfig = OracleConfig(),
) -> list[ResidualReport]:
    """Oracle residuals for every step of an iterated-tension chain.

    Step k compares one finite-difference layer applied to the evaluated
    symbolic chain entry k-1 against chain entry k; stencils are never
    nested.
    """
    return [
        cross_validate(geometry, chain[k - 1], config, symbolic_tension=chain[k])
        for k in range(1, len(chain))
    ]
