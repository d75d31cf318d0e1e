"""Model geometries with exact tension and conformality operators.

Each geometry bundles a chart algebra (AtomSet), an operator table that
drives both the symbolic tension field tau (the Laplace-Beltrami operator on
complex-valued functions) and the symbolic conformality operator
kappa(f, h) = g(grad f, grad h), a numeric metric evaluator for the
finite-difference oracle, and a domain predicate.

Operator rules in chart coordinates (x, y, t):

    sol   tau f = E(-2) f_xx + E(2) f_yy + f_tt
    nil   tau f = f_xx + f_yy + 2x f_yt + (1 + x^2) f_tt
    sl2   tau f = y^2 (f_xx + f_yy) + 2 f_tt - 2y f_xt

and on conformal surfaces, with u = z*zb and s = -1 (disc) or +1
(punctured sphere),

    tau f = c (1 + s u)^2 f_zzb        c = 1 (metric) or 4 (paper)

Each line is a chart's table, the only description of its operators.  An
entry (c, powers, weight, i, j) reads c * prod v^p * E(weight) * d_i d_j, so
the entries list the inverse metric: one with i == j is g^ii, one with
i != j stands for g^ij + g^ji.  Once per atom set the entries are grouped
by (i, j), scaled to Gaussian-integer numerators over one table denominator
(so only int literals enter the source), and compiled into one generated
Python function, in which each group emits at most three terms with integer
multipliers per term.  tau runs on Gaussian-integer numerators over one
common denominator and reduces each output to normal form once, closure-
checked unless the table proves it (``Geometry._tension_map``, tau's one
body, over columns of terms: one column is an Expr in ``tension``, a whole
ansatz basis is one call per power in ``families``).
kappa = sum g^ij f_i h_j reads the unscaled groups: it forms f_i h_j (and
f_j h_i off the diagonal) once per group, and each entry adds c m f_i h_i on
the diagonal and c m (f_i h_j + f_j h_i) / 2 off it.  Entries on the
conformal pair act on the log-free part of f; the log atom L follows the
closed-form rule of its surface, tau(L) = s c, with its own kappa terms.
Adding a chart means adding one table, one ``metric`` and one ``_CHARTS`` entry.

Two operator conventions exist for the conformal surfaces because the
printed conformal factor of the operator (4(1 -+ u)^2) is four times the
factor the printed metric 4/(1 -+ rho)^2 (dx^2 + dy^2) produces.  The
default is the metric-derived factor, which is what the numerical oracle
validates; the "paper" flag reproduces the printed operator.  Properness
orders agree under both, which the test suite asserts.

A product chart concatenates the factor tables, so tau = tau_1 + tau_2 and
kappa = kappa_1 + kappa_2 on the disjoint union of the factor variables,
and takes the log rule of its one log-bearing factor.  Cross-factor kappa
of separable functions vanishes by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import floordiv
from typing import TYPE_CHECKING

from .algebra import AtomSet, Expr, LOG_DISC, LOG_SPHERE, Term, _validated, merge_atom_sets
from .algebra import _LOG_DERIVATIVE_REFUSED
from .errors import ClosureError, DomainError, UsageError
from .rationals import GaussianRational, _make, _reduced

if TYPE_CHECKING:
    import numpy as np

Box = tuple[tuple[float, float], ...]

CONVENTIONS = ("metric", "paper")


def _matrix(points: np.ndarray, rows) -> np.ndarray:
    """(..., n, n) metric array from n rows of per-point entries (arrays over
    the points of shape (..., dim), or constants)."""
    import numpy as np
    g = np.empty(np.shape(points)[:-1] + (len(rows), len(rows)))
    for a, b in np.ndindex(g.shape[-2:]):
        g[..., a, b] = rows[a][b]
    return g


def _first_partials(f: Expr, free: Expr):
    """v -> d_v e, each taken once, with e = f, or the log-free part ``free``
    of f for a partial in the conformal pair."""
    conformal = f.atoms.conformal or ()
    return functools.cache(lambda v: (free if v in conformal else f).differentiate(v))


@functools.cache
def _compiled(source: str):
    """An emitter's code object, shared by every chart that generates the same source."""
    return compile(source, "<tension>", "exec")


def _emitter(dim: int, groups: tuple, log_rule, scale: int):
    """The numerators of ``Geometry._tension_map`` over ``dim`` variables as one
    generated function ``emit(columns, D)``: one pass over the terms (a + b i) / D
    of each (col, raw) pair of ``columns`` adds (a + b i) m (p + q i) into a
    [real, imaginary] slot per key (col, logp, w, powers) for each table
    coefficient (p + q i) / ``scale`` of ``groups`` and ``log_rule``.  The
    table is scaled once, so only int literals enter the source."""
    def times(name: str, k: int) -> list[str]:
        return [] if not k else [name if k == 1 else f"-{name}" if k == -1 else f"{name} * {k}"]

    def add(pad: str, key: str, a: str, b: str, c) -> list[str]:
        c = GaussianRational.coerce(c)
        p, q = c.a * (scale // c.d), c.b * (scale // c.d)
        re, im = " + ".join(times(a, p) + times(b, -q)), " + ".join(times(a, q) + times(b, p))
        return [f"{pad}k = {key}", f"{pad}v = get(k)", f"{pad}if v is None: out[k] = [{re}, {im}]",
                f"{pad}else: v[0] += {re}; v[1] += {im}"] if p or q else []

    def plus(name: str, value: int) -> str:
        return f"{name} + {value}" if value else name

    p, body = [f"p{v}" for v in range(dim)], []
    for vi, vj, same, i_exp, j_exp, i_conf, j_conf, entries in groups:
        pad = " " * (16 if j_conf else 12)
        if j_conf:
            body.append("            if not logp:")
        elif i_conf:
            body.append(f"{pad}if logp and ({p[vj]}{' or w' * j_exp}): raise ClosureError(REFUSED)")
        outs = [(f"{p[vj]} * ({p[vi]} - 1)" if same else f"{p[vj]} * {p[vi]}", 0)]
        if j_exp:
            outs += [(f"2 * {p[vi]} * w", 1), ("w * w", 3)] if same else [(f"{p[vi]} * w", 1)]
        elif i_exp:
            outs.append((f"{p[vj]} * w", 2))
        for m, k in outs:
            body += [f"{pad}m = {m}", f"{pad}if m:", f"{pad}    am, bm = a * m, b * m"]
            for c, we, shifts in entries:
                powers = "".join(plus(v, s) + ", " for v, s in zip(p, shifts[k]))
                powers = f"({powers})" if any(shifts[k]) else "powers"
                body += add(pad + "    ", f"(col, logp, {plus('w', we)}, {powers})", "am", "bm", c)
    if log_rule is not None:
        body += ["            if logp:"] + add(" " * 16, "(col, 0, w, powers)", "a", "b",
                                               log_rule.log_tension)
    source = "\n".join(["def emit(columns, D):\n    out = {}\n    get = out.get",
                        "    for col, raw in columns:", "        for c, powers, w, logp in raw:",
                        "            s = floordiv(D, c.d)\n            a, b = c.a * s, c.b * s",
                        f"            {', '.join(p)}, = powers", *body, "    return out\n"])
    names = {"ClosureError": ClosureError, "REFUSED": _LOG_DERIVATIVE_REFUSED, "floordiv": floordiv}
    exec(_compiled(source), names)
    return names["emit"]


class Geometry:
    """A chart with an operator table and a numeric metric.

    ``table`` holds the entries (c, powers, weight, i, j) of tau described in
    the module docstring, with ``powers`` a name -> exponent mapping.
    ``log_rule`` is the conformal surface whose log rule applies, or None.
    ``metric`` and ``contains`` take one point or an array of points of
    shape (..., dim) and answer per point: a (..., dim, dim) metric array
    and a (...) boolean array.
    """

    log_rule: "ConformalSurface | None" = None

    def __init__(self, name: str, atoms: AtomSet, sample_box: Box, table: tuple):
        self.name = name
        self.atoms = atoms
        self.sample_box = sample_box
        self.table = table
        self._kernels: dict[AtomSet, tuple] = {}

    def _kernel(self, atoms: AtomSet) -> tuple:
        """The table compiled for ``atoms``: the groups, one (i, j, i == j, i/j
        is the exp variable, i/j is in the conformal pair, entries) per (i, j)
        pair, each entry (c, weight, shifts) with shifts[k] its exponents less
        the units that output k of ``_tension_map`` lowers (so shifts[3] is the
        entry's exponent tuple over ``atoms``); ``scale``, the lcm of the
        denominators of the table's coefficients and ``log_tension``; tau's
        emission generated by ``_emitter`` from the groups scaled by it; and
        ``closed``: no entry has a negative exponent, or a weight when ``atoms``
        has no E, so no log-free output of a valid input leaves the algebra."""
        kernel = self._kernels.get(atoms)
        if kernel is None:
            groups, conformal = {}, atoms.conformal or ()
            for c, powers, w, i, j in self.table:
                p, vi, vj = atoms.exponents(powers), atoms.index(i), atoms.index(j)
                group = groups.setdefault((i, j), (vi, vj, vi == vj, i == atoms.exp_var,
                                                   j == atoms.exp_var, i in conformal,
                                                   j in conformal, []))
                group[-1].append((c, w, tuple(tuple(e - low.count(k) for k, e in enumerate(p))
                                              for low in ((vi, vj), (vi,), (vj,), ()))))
            groups = tuple(groups.values())
            coeffs = [e[0] for e in self.table] + [r.log_tension for r in [self.log_rule] if r]
            scale = math.lcm(*(GaussianRational.coerce(c).d for c in coeffs))
            emit = _emitter(len(atoms.variables), groups, self.log_rule, scale)
            closed = all(min(e[2][3], default=0) >= 0 and (atoms.exp_var or not e[1])
                         for *_, entries in groups for e in entries)
            kernel = self._kernels[atoms] = (groups, scale, emit, closed)
        return kernel

    def tension(self, f: Expr) -> Expr:
        """tau f: ``_tension_map`` of the one column ``f.terms`` sorted into terms."""
        self._require(f)
        tau = sorted(self._tension_map(f.atoms, ((0, f.terms),)).items(), reverse=True)
        return Expr(f.atoms, tuple([Term(c, p, w, logp) for (_, logp, w, p), c in tau]))

    def _tension_map(self, atoms: AtomSet, columns) -> dict:
        """tau of the sum of the terms of each (col, terms) pair of ``columns``, as
        one map {(col, logp, w, powers): coefficient}, each nonzero, in normal
        form and closure-checked.  For t = c v^a E(w) L^p, d_i d_j t has at most
        three terms with integer multipliers m (k = 0..3):
            0: a_j (a_i - [i = j]) t / (v_i v_j)
            1: (1 + [i = j]) a_i w t / v_i   when j is the exp variable
            2: a_j w t / v_j                 when only i is
            3: w^2 t                         when both are
        Each is emitted once per entry of the group, shifted by its powers and
        weight.  Log terms skip groups with j in the conformal pair (those act
        on the log-free part) and leave the algebra through a conformal i when
        d_j of them is nonzero; the log rule adds ``log_tension`` A per A L.  With
        all terms over their common denominator D (the lcm over every column, so
        ``columns`` is read twice: no iterator), ``_emitter``'s function sums
        Gaussian-integer numerators over D * scale; each sum is reduced once.
        Under a ``closed`` table only log-bearing outputs are closure-checked:
        they may pick up powers of the conformal pair from an entry.  Every
        column is emitted before any output is checked, so a refusal inside the
        emission (of any column) wins over a failed check; checks run in column order."""
        _, scale, emit, closed = self._kernel(atoms)
        D = math.lcm(*[t[0].d for _, terms in columns for t in terms])
        tau, DL = {}, D * scale
        for key, (a, b) in emit(columns, D).items():
            if a or b:
                if key[1] or not closed:
                    _validated(atoms, (None, key[3], key[2], key[1]))
                tau[key] = _make(a, b, 1) if DL == 1 else _reduced(a, b, DL)
        return tau

    def conformality(self, f: Expr, h: Expr) -> Expr:
        self._require(f)
        self._require(h)
        (fp, fa), (hp, ha) = f.split_log(), h.split_log()
        df = _first_partials(f, fp)
        dh = _first_partials(h, hp)
        names = f.atoms.variables
        parts = []
        for vi, vj, same, *_, entries in self._kernel(f.atoms)[0]:
            i, j = names[vi], names[vj]
            pairs = ((i, j),) if same else ((i, j), (j, i))
            products = [(df(a) * dh(b)).terms for a, b in pairs]
            for c, w, shifts in entries:
                scale = c if same else GaussianRational.coerce(c) / 2
                parts.extend((scale, shifts[3], w, terms) for terms in products)
        if self.log_rule is not None:
            parts.extend(self.log_rule.log_conformality_parts(f.atoms, fa, ha, df, dh))
        return Expr.combine(f.atoms, parts)

    def contains(self, point, slack: float = 0.0) -> np.ndarray:
        import numpy as np
        return np.ones(np.shape(point)[:-1], dtype=bool)

    def check_point(self, point, slack: float = 0.0) -> None:
        """Raise unless every point lies in the chart, ``slack`` inside its boundary."""
        import numpy as np
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
        super().__init__(
            "sol",
            AtomSet(("x", "y", "t"), exp_var="t"),
            ((-1.0, 1.0),) * 3,
            (
                (1, {}, -2, "x", "x"),
                (1, {}, 2, "y", "y"),
                (1, {}, 0, "t", "t"),
            ),
        )

    def metric(self, point) -> np.ndarray:
        import numpy as np
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
        super().__init__(
            "nil",
            AtomSet(("x", "y", "t")),
            ((-1.0, 1.0),) * 3,
            (
                (1, {}, 0, "x", "x"),
                (1, {}, 0, "y", "y"),
                (2, {"x": 1}, 0, "y", "t"),
                (1, {}, 0, "t", "t"),
                (1, {"x": 2}, 0, "t", "t"),
            ),
        )

    def metric(self, point) -> np.ndarray:
        import numpy as np
        P = np.asarray(point, dtype=float)
        x = P[..., 0]
        return _matrix(P, ((1.0, 0.0, 0.0), (0.0, 1.0 + x * x, -x), (0.0, -x, 1.0)))


class Sl2Geometry(Geometry):
    def __init__(self):
        super().__init__(
            "sl2",
            AtomSet(("x", "y", "t")),
            ((-1.0, 1.0), (0.5, 2.0), (-1.0, 1.0)),
            (
                (1, {"y": 2}, 0, "x", "x"),
                (1, {"y": 2}, 0, "y", "y"),
                (2, {}, 0, "t", "t"),
                (-2, {"y": 1}, 0, "x", "t"),
            ),
        )

    def metric(self, point) -> np.ndarray:
        import numpy as np
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
        import numpy as np
        return np.asarray(point, dtype=float)[..., 1] - slack > 0.0


class ConformalSurface(Geometry):
    """Hyperbolic disc (sign -1) or punctured sphere (sign +1) chart.

    The numeric metric is always 4/(1 + sign*rho)^2 (dx^2 + dy^2); the
    ``convention`` flag only scales the symbolic operator factor.
    """

    def __init__(self, sign: int, convention: str):
        name, log_kind = ("h2", LOG_DISC) if sign == -1 else ("s2p", LOG_SPHERE)
        self.sign = sign
        self.factor = 4 if convention == "paper" else 1
        self.log_tension = sign * self.factor  # tau(A L) = s c A for A free of z, zb
        c = self.factor
        super().__init__(
            name,
            AtomSet(("z", "zb"), log_kind=log_kind, conformal=("z", "zb")),
            ((-0.9, 0.9), (-0.9, 0.9)),
            (
                (c, {}, 0, "z", "zb"),
                (2 * sign * c, {"z": 1, "zb": 1}, 0, "z", "zb"),
                (c, {"z": 2, "zb": 2}, 0, "z", "zb"),
            ),
        )

    @property
    def log_rule(self) -> "ConformalSurface":
        # a property, not an attribute holding self: that would make every
        # surface a reference cycle left to the cyclic garbage collector
        return self

    def log_conformality_parts(self, atoms: AtomSet, fa, ha, df, dh) -> list:
        """The L-bearing kappa terms of f = fp + fa L and h = hp + ha L:

            (s c / 2) (1 + s u) sum_v v (fa hp_v + ha fp_v)  +  c u fa ha

        over v in (z, zb); ``fa``/``ha`` are None when absent and ``df``/``dh``
        give the partials of the log-free parts."""
        s, half = self.sign, GaussianRational.coerce(self.factor) / 2
        parts = []
        for a, d in ((fa, dh), (ha, df)):
            if a is None:
                continue
            for v, w in (("z", "zb"), ("zb", "z")):
                a_dv = (a * d(v)).terms
                parts.append((s * half, atoms.exponents({v: 1}), 0, a_dv))
                parts.append((half, atoms.exponents({v: 2, w: 1}), 0, a_dv))
        if fa is not None and ha is not None:
            parts.append((self.factor, atoms.exponents({"z": 1, "zb": 1}), 0, (fa * ha).terms))
        return parts

    def metric(self, point) -> np.ndarray:
        import numpy as np
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
        import numpy as np
        P = np.asarray(point, dtype=float)
        return np.hypot(P[..., 0], P[..., 1]) + slack < 1.0


class Line(Geometry):
    """Flat line factor; the chart variable is configurable (default t)."""

    def __init__(self, var: str = "t"):
        super().__init__(
            "line" if var == "t" else f"line[{var}]",
            AtomSet((var,)),
            ((-1.0, 1.0),),
            ((1, {}, 0, var, var),),
        )

    def metric(self, point) -> np.ndarray:
        return _matrix(point, ((1.0,),))


class ProductGeometry(Geometry):
    """Riemannian product: the factor tables side by side, and the log rule
    of the log-bearing factor."""

    def __init__(self, first: Geometry, second: Geometry, name: str | None = None):
        super().__init__(
            name or f"{first.name}x{second.name}",
            merge_atom_sets(first.atoms, second.atoms),
            first.sample_box + second.sample_box,
            first.table + second.table,
        )
        self.first = first
        self.second = second
        self.log_rule = first.log_rule or second.log_rule

    def metric(self, point) -> np.ndarray:
        import numpy as np
        P = np.asarray(point, dtype=float)
        n1 = len(self.first.atoms.variables)
        n = len(self.atoms.variables)
        g = np.zeros(P.shape[:-1] + (n, n))
        g[..., :n1, :n1] = self.first.metric(P[..., :n1])
        g[..., n1:, n1:] = self.second.metric(P[..., n1:])
        return g

    def contains(self, point, slack: float = 0.0) -> np.ndarray:
        import numpy as np
        P = np.asarray(point, dtype=float)
        n1 = len(self.first.atoms.variables)
        inside = self.first.contains(P[..., :n1], slack)
        return inside & self.second.contains(P[..., n1:], slack)


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

    def describe(self) -> str:
        if self.order == 0:
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


R_MAX = 8  # default properness bound of classify and everything built on it


def classify(geometry: Geometry, f: Expr, r_max: int = R_MAX) -> VerificationReport:
    """Smallest r <= r_max with tau^r f = 0, or "exceeds bound"."""
    if r_max < 1:
        raise UsageError("the properness bound must be at least 1")
    if f.is_zero():
        return VerificationReport(f, (f,), 0, r_max)
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
    return Expr.sum(f1.atoms, [math.comb(n, k) * (chain1[n - k] * chain2[k]) for k in range(n + 1)])


# -- registry ----------------------------------------------------------------

# sol() and nil() are by_id("sol") and by_id("nil"), kept for perfbench/tests


def sol() -> SolGeometry:
    return SolGeometry()


def nil() -> NilGeometry:
    return NilGeometry()


# id -> the chart under a convention; the only list of chart ids
_CHARTS = {
    "sol": lambda convention: SolGeometry(),
    "nil": lambda convention: NilGeometry(),
    "sl2": lambda convention: Sl2Geometry(),
    "h2": lambda convention: ConformalSurface(-1, convention),
    "s2p": lambda convention: ConformalSurface(1, convention),
    "h2xr": lambda convention: ProductGeometry(ConformalSurface(-1, convention), Line(), "h2xr"),
    "s2pxr": lambda convention: ProductGeometry(ConformalSurface(1, convention), Line(), "s2pxr"),
    "line": lambda convention: Line(),
}


def product(first: Geometry, second: Geometry) -> ProductGeometry:
    """first x second, with the factors of line x line renamed to s and t."""
    if first.name == second.name == "line":
        return ProductGeometry(Line("s"), Line("t"), name="linexline")
    return ProductGeometry(first, second)


def by_id(geometry_id: str, convention: str = "metric") -> Geometry:
    """Build a geometry from its stable id under ``convention``.

    Ids: the keys of ``_CHARTS``, and product:<id>x<id> over two of them.
    When both product factors are lines the factors are renamed to the
    chart variables s and t.
    """
    if convention not in CONVENTIONS:
        raise UsageError(f"unknown convention {convention!r}")
    if geometry_id.startswith("product:"):
        spec = geometry_id[len("product:") :]
        left, sep, right = spec.partition("x")
        if not sep or left not in _CHARTS or right not in _CHARTS:
            raise UsageError(f"malformed product geometry id {geometry_id!r}")
        return product(_CHARTS[left](convention), _CHARTS[right](convention))
    build = _CHARTS.get(geometry_id)
    if build is None:
        raise UsageError(f"unknown geometry id {geometry_id!r}")
    return build(convention)
