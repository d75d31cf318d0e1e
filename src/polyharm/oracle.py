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

This is the second, independent route to the tension field: under the
metric-derived operator convention the symbolic tau must agree with the
oracle at every admissible point, and on the conformal charts it exposes
the factor-4 mismatch of the printed operator convention as a deliberate
sentinel rather than a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import Expr
from .errors import DomainError, UsageError
from .geometries import Geometry

ChartPoint = tuple[float, ...]
PointFunction = Callable[[ChartPoint], complex]


@dataclass(frozen=True)
class OracleConfig:
    """Finite-difference settings.

    step          -- base step size h.
    levels        -- Richardson levels over h, h/2, ... (1 = plain stencil).
    rel_tol       -- residual tolerance, relative with a unit floor:
                     |sym - fd| / max(1, |sym|) <= rel_tol.
    abs_floor     -- below this magnitude a value counts as zero.
    samples       -- points drawn per cross-validation sweep.
    seed          -- RNG seed for point sampling.
    domain_margin -- distance kept from chart boundaries when sampling.
    """

    step: float = 1e-3
    levels: int = 2
    rel_tol: float = 1e-6
    abs_floor: float = 1e-9
    samples: int = 100
    seed: int = 0
    domain_margin: float = 0.05

    def __post_init__(self):
        # chained comparisons are false for NaN, so NaN and inf are rejected
        if not (0 < self.step < math.inf and 0 < self.rel_tol < math.inf) or self.levels < 1:
            raise UsageError("oracle configuration out of range")
        if self.samples < 1:
            raise UsageError("oracle needs at least one sample point")


def metric_at(geometry: Geometry, point: Sequence[float]) -> np.ndarray:
    """Metric matrix in chart coordinates; raises on domain violations."""
    geometry.check_point(point)
    return np.array(geometry.metric(point), dtype=float)


def _metric_coefficients(geometry: Geometry, point: ChartPoint) -> tuple[np.ndarray, float]:
    """(B, sqrt|g|) with B = g^-1 sqrt|g| at a point."""
    g = np.array(geometry.metric(point), dtype=float)
    det = float(np.linalg.det(g))
    if det <= 0.0:
        raise DomainError("metric is not positive definite here")
    root = math.sqrt(det)
    inv = np.linalg.inv(g)
    return inv * root, root


def _fd_tension_single(
    geometry: Geometry, f: PointFunction, point: ChartPoint, h: float
) -> complex:
    """One expanded divergence-form stencil evaluation at step h."""
    dim = len(point)
    p = np.array(point, dtype=float)

    def shifted(deltas: dict[int, float]) -> ChartPoint:
        q = p.copy()
        for i, d in deltas.items():
            q[i] += d
        return tuple(q)

    f0 = f(tuple(p))
    plus = [f(shifted({i: h})) for i in range(dim)]
    minus = [f(shifted({i: -h})) for i in range(dim)]

    grad = [(plus[i] - minus[i]) / (2.0 * h) for i in range(dim)]
    second = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        second[i, i] = (plus[i] - 2.0 * f0 + minus[i]) / (h * h)
        for j in range(i + 1, dim):
            mixed = (
                f(shifted({i: h, j: h}))
                - f(shifted({i: h, j: -h}))
                - f(shifted({i: -h, j: h}))
                + f(shifted({i: -h, j: -h}))
            ) / (4.0 * h * h)
            second[i, j] = mixed
            second[j, i] = mixed

    coeff, root = _metric_coefficients(geometry, tuple(p))
    inv = coeff / root

    principal = complex(0.0)
    for i in range(dim):
        for j in range(dim):
            principal += inv[i, j] * second[i, j]

    drift = complex(0.0)
    for i in range(dim):
        div = 0.0
        for j in range(dim):
            bp, _ = _metric_coefficients(geometry, shifted({j: h}))
            bm, _ = _metric_coefficients(geometry, shifted({j: -h}))
            div += (bp[i, j] - bm[i, j]) / (2.0 * h)
        drift += (div / root) * grad[i]

    return principal + drift


def fd_tension(
    geometry: Geometry,
    f: PointFunction,
    point: Sequence[float],
    config: OracleConfig = OracleConfig(),
) -> complex:
    """Richardson-extrapolated central-difference tension field at a point."""
    slack = 2.0 * config.step
    geometry.check_point(point, slack)
    point = tuple(float(c) for c in point)
    # Richardson table for an O(h^2) base stencil with step ratio 2.
    table = [
        _fd_tension_single(geometry, f, point, config.step / (2.0**i))
        for i in range(config.levels)
    ]
    for j in range(1, config.levels):
        factor = 4.0**j
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0)
            for i in range(len(table) - 1)
        ]
    return table[0]


def sample_points(
    geometry: Geometry, count: int, rng: np.random.Generator, margin: float = 0.05
) -> list[ChartPoint]:
    """Uniform draws from the geometry's safe box, rejecting near-boundary points."""
    points: list[ChartPoint] = []
    box = geometry.sample_box
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise DomainError(f"cannot sample {count} points in the {geometry.name} chart")
        p = tuple(rng.uniform(lo, hi) for lo, hi in box)
        if geometry.contains(p, margin):
            points.append(p)
    return points


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of the symbolic tension against the finite-difference oracle."""

    geometry: str
    expression: str
    points: int
    max_abs: float
    max_rel: float
    worst_point: ChartPoint | None
    rel_tol: float

    @property
    def within_tolerance(self) -> bool:
        return self.max_rel <= self.rel_tol


def residual(sym: complex, fd: complex) -> tuple[float, float]:
    """(absolute, relative-with-unit-floor) residual of one comparison."""
    err = abs(sym - fd)
    return err, err / max(1.0, abs(sym))


def cross_validate(
    geometry: Geometry,
    f: Expr,
    config: OracleConfig = OracleConfig(),
    symbolic_tension: Expr | None = None,
) -> ResidualReport:
    """Compare evaluate(tension(f)) against the oracle at sampled points.

    ``symbolic_tension`` may supply a precomputed chain entry, so iterated
    orders are validated one finite-difference layer at a time (the oracle
    is never nested).
    """
    sym = symbolic_tension if symbolic_tension is not None else geometry.tension(f)
    rng = np.random.default_rng(config.seed)
    points = sample_points(geometry, config.samples, rng, config.domain_margin)
    max_abs = 0.0
    max_rel = 0.0
    worst: ChartPoint | None = None
    for p in points:
        fd = fd_tension(geometry, f.evaluate, p, config)
        s = sym.evaluate(p)
        err, rel = residual(s, fd)
        if not math.isfinite(rel):  # NaN would compare false below and pass
            rel = math.inf
        if rel > max_rel:
            max_rel = rel
            worst = p
        max_abs = max(max_abs, err)
    return ResidualReport(
        geometry=geometry.name,
        expression=str(f),
        points=len(points),
        max_abs=max_abs,
        max_rel=max_rel,
        worst_point=worst,
        rel_tol=config.rel_tol,
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


def conformal_factor_ratio(
    geometry: Geometry,
    f: Expr,
    config: OracleConfig = OracleConfig(),
    count: int = 20,
) -> list[float]:
    """Pointwise symbolic/oracle ratios (the operator-convention sentinel).

    On the conformal charts under the printed operator convention, these
    ratios sit at 4; under the metric-derived convention they sit at 1.
    Points where either side is below the absolute floor are skipped.
    """
    sym = geometry.tension(f)
    rng = np.random.default_rng(config.seed)
    points = sample_points(geometry, count, rng, config.domain_margin)
    ratios = []
    for p in points:
        fd = fd_tension(geometry, f.evaluate, p, config)
        s = sym.evaluate(p)
        if abs(fd) < config.abs_floor or abs(s) < config.abs_floor:
            continue
        ratios.append(abs(s) / abs(fd))
    return ratios
