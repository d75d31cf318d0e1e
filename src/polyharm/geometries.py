"""Model geometries with exact tension and conformality operators.

Each geometry bundles a chart algebra (AtomSet), the symbolic tension
field tau (the Laplace-Beltrami operator on complex-valued functions), the
symbolic conformality operator kappa(f, h) = g(grad f, grad h), a numeric
metric evaluator for the finite-difference oracle, and a domain predicate.

Operator rules in chart coordinates (x, y, t):

    sol   tau f = E(-2) f_xx + E(2) f_yy + f_tt
    nil   tau f = f_xx + f_yy + 2x f_yt + (1 + x^2) f_tt
    sl2   tau f = y^2 (f_xx + f_yy) + 2 f_tt - 2y f_xt

and on conformal surfaces, with u = z*zb and s = -1 (disc) or +1
(punctured sphere),

    tau f = c (1 + s u)^2 f_zzb        c = 1 (metric) or 4 (paper)

The kappa rules for nil and sl2 are not usually written out; they follow
from kappa = sum g^ij f_i h_j with the inverse metrics

    nil  g^-1 = [[1,0,0],[0,1,x],[0,x,1+x^2]]
    sl2  g^-1 = [[y^2,0,-y],[0,y^2,0],[-y,0,2]]

which gives

    nil   kappa = f_x h_x + f_y h_y + x (f_y h_t + f_t h_y) + (1+x^2) f_t h_t
    sl2   kappa = y^2 (f_x h_x + f_y h_y) - y (f_x h_t + f_t h_x) + 2 f_t h_t

Two operator conventions exist for the conformal surfaces because the
printed conformal factor of the operator (4(1 -+ u)^2) is four times the
factor the printed metric 4/(1 -+ rho)^2 (dx^2 + dy^2) produces.  The
default is the metric-derived factor, which is what the numerical oracle
validates; the "paper" flag reproduces the printed operator.  Properness
orders agree under both, which the test suite asserts.

Product charts add the factor operators: tau = tau_1 + tau_2 and
kappa = kappa_1 + kappa_2, acting on the disjoint union of the factor
variables.  Cross-factor kappa of separable functions vanishes by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AtomSet, Expr, LOG_DISC, LOG_SPHERE, merge_atom_sets
from .errors import DomainError, UsageError
from .rationals import GaussianRational

Box = tuple[tuple[float, float], ...]

CONVENTIONS = ("metric", "paper")


def _matrix(points: np.ndarray, rows) -> np.ndarray:
    """(..., n, n) metric array from n rows of per-point entries (arrays over
    the points of shape (..., dim), or constants)."""
    shape = points.shape[:-1]
    entries = [np.broadcast_to(entry, shape) for row in rows for entry in row]
    return np.stack(entries, axis=-1).reshape(shape + (len(rows), len(rows)))


class Geometry:
    """A chart with symbolic operators and a numeric metric.

    ``metric`` and ``contains`` take one point or an array of points of
    shape (..., dim) and answer per point: a (..., dim, dim) metric array
    and a (...) boolean array.
    """

    name: str
    atoms: AtomSet
    sample_box: Box

    def tension(self, f: Expr) -> Expr:
        raise NotImplementedError

    def conformality(self, f: Expr, h: Expr) -> Expr:
        raise NotImplementedError

    def metric(self, point) -> np.ndarray:
        raise NotImplementedError

    def contains(self, point, slack: float = 0.0) -> np.ndarray:
        return np.ones(np.shape(point)[:-1], dtype=bool)

    def check_point(self, point, slack: float = 0.0) -> None:
        """Raise unless every point lies in the chart, ``slack`` inside its boundary."""
        dim = len(self.atoms.variables)
        P = np.asarray(point, dtype=float)
        if P.shape[-1:] != (dim,):
            raise UsageError(f"{self.name} expects {dim} coordinates")
        inside = np.ravel(self.contains(P, slack))
        if not inside.all():
            bad = P.reshape(-1, dim)[np.argmin(inside)]
            raise DomainError(
                f"point {tuple(float(c) for c in bad)} is outside the {self.name} chart"
            )

    def _require(self, f: Expr) -> None:
        if not f.atoms.contains(self.atoms):
            raise UsageError(f"expression does not live in the {self.name} algebra")

    def __repr__(self) -> str:
        return f"<Geometry {self.name}>"


class SolGeometry(Geometry):
    def __init__(self):
        self.name = "sol"
        self.atoms = AtomSet(("x", "y", "t"), exp_var="t")
        self.sample_box = ((-1.0, 1.0),) * 3

    def tension(self, f: Expr) -> Expr:
        self._require(f)
        a = f.atoms
        return (
            Expr.exponential(a, -2) * f.differentiate("x").differentiate("x")
            + Expr.exponential(a, 2) * f.differentiate("y").differentiate("y")
            + f.differentiate("t").differentiate("t")
        )

    def conformality(self, f: Expr, h: Expr) -> Expr:
        self._require(f)
        self._require(h)
        a = f.atoms
        return (
            Expr.exponential(a, -2) * f.differentiate("x") * h.differentiate("x")
            + Expr.exponential(a, 2) * f.differentiate("y") * h.differentiate("y")
            + f.differentiate("t") * h.differentiate("t")
        )

    def metric(self, point) -> np.ndarray:
        P = np.asarray(point, dtype=float)
        t = P[..., 2]
        return _matrix(
            P,
            (
                (np.exp(2 * t), 0.0, 0.0),
                (0.0, np.exp(-2 * t), 0.0),
                (0.0, 0.0, 1.0),
            ),
        )


class NilGeometry(Geometry):
    def __init__(self):
        self.name = "nil"
        self.atoms = AtomSet(("x", "y", "t"))
        self.sample_box = ((-1.0, 1.0),) * 3

    def tension(self, f: Expr) -> Expr:
        self._require(f)
        a = f.atoms
        x = Expr.variable(a, "x")
        one_xx = Expr.constant(a, 1) + x * x
        return (
            f.differentiate("x").differentiate("x")
            + f.differentiate("y").differentiate("y")
            + 2 * (x * f.differentiate("y").differentiate("t"))
            + one_xx * f.differentiate("t").differentiate("t")
        )

    def conformality(self, f: Expr, h: Expr) -> Expr:
        self._require(f)
        self._require(h)
        a = f.atoms
        x = Expr.variable(a, "x")
        one_xx = Expr.constant(a, 1) + x * x
        fx, fy, ft = (f.differentiate(v) for v in ("x", "y", "t"))
        hx, hy, ht = (h.differentiate(v) for v in ("x", "y", "t"))
        return fx * hx + fy * hy + x * (fy * ht + ft * hy) + one_xx * (ft * ht)

    def metric(self, point) -> np.ndarray:
        P = np.asarray(point, dtype=float)
        x = P[..., 0]
        return _matrix(P, ((1.0, 0.0, 0.0), (0.0, 1.0 + x * x, -x), (0.0, -x, 1.0)))


class Sl2Geometry(Geometry):
    def __init__(self):
        self.name = "sl2"
        self.atoms = AtomSet(("x", "y", "t"))
        self.sample_box = ((-1.0, 1.0), (0.5, 2.0), (-1.0, 1.0))

    def tension(self, f: Expr) -> Expr:
        self._require(f)
        a = f.atoms
        y2 = Expr.variable(a, "y", 2)
        y = Expr.variable(a, "y")
        return (
            y2
            * (
                f.differentiate("x").differentiate("x")
                + f.differentiate("y").differentiate("y")
            )
            + 2 * f.differentiate("t").differentiate("t")
            - 2 * (y * f.differentiate("x").differentiate("t"))
        )

    def conformality(self, f: Expr, h: Expr) -> Expr:
        self._require(f)
        self._require(h)
        a = f.atoms
        y2 = Expr.variable(a, "y", 2)
        y = Expr.variable(a, "y")
        fx, fy, ft = (f.differentiate(v) for v in ("x", "y", "t"))
        hx, hy, ht = (h.differentiate(v) for v in ("x", "y", "t"))
        return y2 * (fx * hx + fy * hy) - y * (fx * ht + ft * hx) + 2 * (ft * ht)

    def metric(self, point) -> np.ndarray:
        P = np.asarray(point, dtype=float)
        y = P[..., 1]
        if (y <= 0.0).any():
            raise DomainError("sl2 chart needs y > 0")
        return _matrix(
            P,
            (
                (2.0 / y**2, 0.0, 1.0 / y),
                (0.0, 1.0 / y**2, 0.0),
                (1.0 / y, 0.0, 1.0),
            ),
        )

    def contains(self, point, slack: float = 0.0) -> np.ndarray:
        return np.asarray(point, dtype=float)[..., 1] - slack > 0.0


class ConformalSurface(Geometry):
    """Hyperbolic disc (sign -1) or punctured sphere (sign +1) chart.

    The numeric metric is always 4/(1 + sign*rho)^2 (dx^2 + dy^2); the
    ``convention`` flag only scales the symbolic operator factor.
    """

    def __init__(self, sign: int, convention: str = "metric"):
        if convention not in CONVENTIONS:
            raise UsageError(f"unknown convention {convention!r}")
        self.sign = sign
        self.convention = convention
        self.factor = 4 if convention == "paper" else 1
        if sign == -1:
            self.name = "h2"
            log_kind = LOG_DISC
        elif sign == 1:
            self.name = "s2p"
            log_kind = LOG_SPHERE
        else:
            raise UsageError("sign must be -1 or +1")
        self.atoms = AtomSet(
            ("z", "zb"), log_kind=log_kind, conformal=("z", "zb")
        )
        self.sample_box = ((-0.9, 0.9), (-0.9, 0.9))

    def _u(self, atoms: AtomSet) -> Expr:
        z, zb = atoms.conformal
        return Expr.variable(atoms, z) * Expr.variable(atoms, zb)

    def tension(self, f: Expr) -> Expr:
        self._require(f)
        a = f.atoms
        z, zb = a.conformal
        poly, logcoeff = f.split_log()
        u = self._u(a)
        square = Expr.constant(a, 1) + (2 * self.sign) * u + u * u
        result = self.factor * (
            square * poly.differentiate(z).differentiate(zb)
        )
        if not logcoeff.is_zero():
            # tau(L) = sign * c: the log atom is polyharmonic seed material.
            result = result + (self.sign * self.factor) * logcoeff
        return result

    def conformality(self, f: Expr, h: Expr) -> Expr:
        self._require(f)
        self._require(h)
        a = f.atoms
        z, zb = a.conformal
        half = GaussianRational.coerce(self.factor) / 2
        u = self._u(a)
        one = Expr.constant(a, 1)
        lin = one + self.sign * u
        square = lin * lin
        fp, fa = f.split_log()
        hp, ha = h.split_log()
        zvar = Expr.variable(a, z)
        zbvar = Expr.variable(a, zb)

        result = half * (
            square
            * (
                fp.differentiate(z) * hp.differentiate(zb)
                + fp.differentiate(zb) * hp.differentiate(z)
            )
        )
        if not fa.is_zero():
            result = result + (self.sign * half) * (
                lin * fa * (zbvar * hp.differentiate(zb) + zvar * hp.differentiate(z))
            )
        if not ha.is_zero():
            result = result + (self.sign * half) * (
                lin * ha * (zbvar * fp.differentiate(zb) + zvar * fp.differentiate(z))
            )
        if not fa.is_zero() and not ha.is_zero():
            result = result + self.factor * (u * fa * ha)
        return result

    def metric(self, point) -> np.ndarray:
        P = np.asarray(point, dtype=float)
        x, y = P[..., 0], P[..., 1]
        denom = 1.0 + self.sign * (x * x + y * y)
        if (denom <= 0.0).any():
            raise DomainError("point outside the conformal chart")
        lam = 4.0 / denom**2
        return _matrix(P, ((lam, 0.0), (0.0, lam)))

    def contains(self, point, slack: float = 0.0) -> np.ndarray:
        if self.sign == 1:
            return super().contains(point, slack)
        P = np.asarray(point, dtype=float)
        return np.hypot(P[..., 0], P[..., 1]) + slack < 1.0


class Line(Geometry):
    """Flat line factor; the chart variable is configurable (default t)."""

    def __init__(self, var: str = "t"):
        self.var = var
        self.name = "line" if var == "t" else f"line[{var}]"
        self.atoms = AtomSet((var,))
        self.sample_box = ((-1.0, 1.0),)

    def tension(self, f: Expr) -> Expr:
        self._require(f)
        return f.differentiate(self.var).differentiate(self.var)

    def conformality(self, f: Expr, h: Expr) -> Expr:
        self._require(f)
        self._require(h)
        return f.differentiate(self.var) * h.differentiate(self.var)

    def metric(self, point) -> np.ndarray:
        return _matrix(np.asarray(point, dtype=float), ((1.0,),))


class ProductGeometry(Geometry):
    """Riemannian product: operators are the sums of the factor operators."""

    def __init__(self, first: Geometry, second: Geometry, name: str | None = None):
        self.first = first
        self.second = second
        self.atoms = merge_atom_sets(first.atoms, second.atoms)
        self.name = name or f"{first.name}x{second.name}"
        self.sample_box = first.sample_box + second.sample_box

    def tension(self, f: Expr) -> Expr:
        self._require(f)
        return self.first.tension(f) + self.second.tension(f)

    def conformality(self, f: Expr, h: Expr) -> Expr:
        self._require(f)
        self._require(h)
        return self.first.conformality(f, h) + self.second.conformality(f, h)

    def metric(self, point) -> np.ndarray:
        P = np.asarray(point, dtype=float)
        n1 = len(self.first.atoms.variables)
        n = len(self.atoms.variables)
        g = np.zeros(P.shape[:-1] + (n, n))
        g[..., :n1, :n1] = self.first.metric(P[..., :n1])
        g[..., n1:, n1:] = self.second.metric(P[..., n1:])
        return g

    def contains(self, point, slack: float = 0.0) -> np.ndarray:
        P = np.asarray(point, dtype=float)
        n1 = len(self.first.atoms.variables)
        inside = self.first.contains(P[..., :n1], slack)
        return inside & self.second.contains(P[..., n1:], slack)


def product(first: Geometry, second: Geometry, name: str | None = None) -> ProductGeometry:
    return ProductGeometry(first, second, name)


# -- iterated tension and properness classification -------------------------


@dataclass(frozen=True)
class VerificationReport:
    """The chain f, tau f, ..., with the determined properness order.

    order == r >= 1 means tau^r f = 0 and tau^(r-1) f != 0 (r = 1 harmonic,
    r = 2 biharmonic).  order == 0 marks the zero function.  order is None
    when no power up to the bound vanished ("exceeds bound").
    """

    expr: Expr
    chain: tuple[Expr, ...]
    order: int | None
    bound: int
    zero_input: bool = False
    residuals: object = None

    @property
    def exceeds_bound(self) -> bool:
        return self.order is None

    def describe(self) -> str:
        if self.zero_input:
            return "zero function"
        if self.order is None:
            return f"order exceeds bound {self.bound}"
        names = {1: "harmonic", 2: "biharmonic"}
        label = names.get(self.order, f"{self.order}-harmonic")
        return f"proper {label} (order {self.order})"


def iterated_tension(geometry: Geometry, f: Expr, r: int) -> list[Expr]:
    """[f, tau f, ..., tau^r f]."""
    if r < 1:
        raise UsageError("iteration count must be at least 1")
    chain = [f]
    for _ in range(r):
        chain.append(geometry.tension(chain[-1]))
    return chain


def classify(geometry: Geometry, f: Expr, r_max: int = 8) -> VerificationReport:
    """Smallest r <= r_max with tau^r f = 0, or "exceeds bound"."""
    if r_max < 1:
        raise UsageError("the properness bound must be at least 1")
    if f.is_zero():
        return VerificationReport(f, (f,), 0, r_max, zero_input=True)
    chain = [f]
    for k in range(1, r_max + 1):
        chain.append(geometry.tension(chain[-1]))
        if chain[-1].is_zero():
            return VerificationReport(f, tuple(chain), k, r_max)
    return VerificationReport(f, tuple(chain), None, r_max)


def product_tension_binomial(
    first: Geometry, f1: Expr, second: Geometry, f2: Expr, n: int
) -> Expr:
    """sum_k C(n,k) tau^(n-k)(f1) * tau^k(f2), computed on the factors.

    For separable f1, f2 this equals tau^n(f1*f2) on the product geometry.
    """
    if n < 1:
        raise UsageError("n must be at least 1")
    chain1 = iterated_tension(first, f1, n)
    chain2 = iterated_tension(second, f2, n)
    total = None
    for k in range(n + 1):
        piece = math.comb(n, k) * (chain1[n - k] * chain2[k])
        total = piece if total is None else total + piece
    return total


# -- registry ----------------------------------------------------------------


def sol() -> SolGeometry:
    return SolGeometry()


def nil() -> NilGeometry:
    return NilGeometry()


def sl2() -> Sl2Geometry:
    return Sl2Geometry()


def hyperbolic_disc(convention: str = "metric") -> ConformalSurface:
    return ConformalSurface(-1, convention)


def punctured_sphere(convention: str = "metric") -> ConformalSurface:
    return ConformalSurface(1, convention)


def line(var: str = "t") -> Line:
    return Line(var)


def disc_times_line(convention: str = "metric") -> ProductGeometry:
    return ProductGeometry(hyperbolic_disc(convention), Line("t"), name="h2xr")


def sphere_times_line(convention: str = "metric") -> ProductGeometry:
    return ProductGeometry(punctured_sphere(convention), Line("t"), name="s2pxr")


_BASE_IDS = ("sol", "nil", "sl2", "h2", "s2p", "h2xr", "s2pxr", "line")


def by_id(geometry_id: str, convention: str = "metric") -> Geometry:
    """Build a geometry from its stable id.

    Ids: sol, nil, sl2, h2, s2p, h2xr, s2pxr, line, product:<id>x<id>.
    When both product factors are lines the factors are renamed to the
    chart variables s and t.
    """
    if convention not in CONVENTIONS:
        raise UsageError(f"unknown convention {convention!r}")
    if geometry_id.startswith("product:"):
        spec = geometry_id[len("product:") :]
        left, sep, right = spec.partition("x")
        if not sep or left not in _BASE_IDS or right not in _BASE_IDS:
            raise UsageError(f"malformed product geometry id {geometry_id!r}")
        if left == "line" and right == "line":
            return ProductGeometry(Line("s"), Line("t"), name="linexline")
        g1 = by_id(left, convention)
        g2 = by_id(right, convention)
        return ProductGeometry(g1, g2)
    builders = {
        "sol": sol,
        "nil": nil,
        "sl2": sl2,
        "h2": lambda: hyperbolic_disc(convention),
        "s2p": lambda: punctured_sphere(convention),
        "h2xr": lambda: disc_times_line(convention),
        "s2pxr": lambda: sphere_times_line(convention),
        "line": line,
    }
    try:
        return builders[geometry_id]()
    except KeyError:
        raise UsageError(f"unknown geometry id {geometry_id!r}") from None
