"""Model geometries with exact tension operators.

Each geometry is one ``Geometry`` built from data: a chart algebra
(AtomSet), an operator table that drives the symbolic tension field tau
(the Laplace-Beltrami operator on complex-valued functions), the metric's
rows for the finite-difference oracle, and a domain predicate.

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
ansatz basis is one call per power in ``families``).  Entries on the
conformal pair act on the log-free part of f; the log atom L follows the
closed-form rule of its surface, tau(L) = s c, stored as the number
``log_tension``.  Adding a chart means adding one ``_CHARTS`` entry, which
holds its algebra, sample box, table, metric rows and domain; the conformal
surfaces and the line come from two small factories.

Two operator conventions exist for the conformal surfaces because the
printed conformal factor of the operator (4(1 -+ u)^2) is four times the
factor the printed metric 4/(1 -+ rho)^2 (dx^2 + dy^2) produces.  The
default is the metric-derived factor, which is what the numerical oracle
validates; the "paper" flag reproduces the printed operator.  Properness
orders agree under both, which the test suite asserts.

A product chart concatenates the factor tables, so tau = tau_1 + tau_2 on
the disjoint union of the factor variables, puts the factor metrics block
by block, meets the factor domains, and takes the log rule of its one
log-bearing factor.
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


@functools.cache
def _compiled(source: str):
    """An emitter's code object, shared by every chart that generates the same source."""
    return compile(source, "<tension>", "exec")


def _emitter(dim: int, groups: tuple, log_tension, scale: int):
    """The numerators of ``Geometry._tension_map`` over ``dim`` variables as one
    generated function ``emit(columns, D)``: one pass over the terms (a + b i) / D
    of each (col, raw) pair of ``columns`` adds (a + b i) m (p + q i) into a
    [real, imaginary] slot per key (col, logp, w, powers) for each table
    coefficient (p + q i) / ``scale`` of ``groups`` and ``log_tension``.  The
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
    if log_tension is not None:
        body += ["            if logp:"] + add(" " * 16, "(col, 0, w, powers)", "a", "b", log_tension)
    source = "\n".join(["def emit(columns, D):\n    out = {}\n    get = out.get",
                        "    for col, raw in columns:", "        for c, powers, w, logp in raw:",
                        "            s = floordiv(D, c.d)\n            a, b = c.a * s, c.b * s",
                        f"            {', '.join(p)}, = powers", *body, "    return out\n"])
    names = {"ClosureError": ClosureError, "REFUSED": _LOG_DERIVATIVE_REFUSED, "floordiv": floordiv}
    exec(_compiled(source), names)
    return names["emit"]


class Geometry:
    """A chart: an algebra, an operator table, a numeric metric and a domain.

    ``table`` holds the entries (c, powers, weight, i, j) of tau described in
    the module docstring, with ``powers`` a name -> exponent mapping.  From
    numpy and the coordinate arrays P[..., k] of the points P,
    ``rows(np, *coords)`` gives the metric's rows (arrays or constants) and
    ``inside(np, slack, *coords)`` whether each point lies ``slack`` inside
    the chart; ``inside`` None is all of R^n.  ``log_tension`` is s c, the
    value of tau(L), or None when the chart has no log atom.  ``metric`` and
    ``contains`` take one point or an array of points of shape (..., dim) and
    answer per point: a (..., dim, dim) metric array and a (...) boolean array.
    """

    def __init__(self, name: str, atoms: AtomSet, sample_box: Box, table: tuple,
                 rows=None, inside=None, log_tension: int | None = None):
        self.name = name
        self.atoms = atoms
        self.sample_box = sample_box
        self.table = table
        self.rows = rows
        self.inside = inside
        self.log_tension = log_tension
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
            coeffs = [e[0] for e in self.table] + [self.log_tension or 0]
            scale = math.lcm(*(GaussianRational.coerce(c).d for c in coeffs))
            emit = _emitter(len(atoms.variables), groups, self.log_tension, scale)
            closed = all(min(e[2][3], default=0) >= 0 and (atoms.exp_var or not e[1])
                         for *_, entries in groups for e in entries)
            kernel = self._kernels[atoms] = (groups, scale, emit, closed)
        return kernel

    def tension(self, f: Expr) -> Expr:
        """tau f: ``_tension_map`` of the one column ``f.terms``, its keys sorted and
        each Term built by ``tuple.__new__``.  The entry point perfbench spans as
        ``geometries.tension``."""
        self._require(f)
        tau = self._tension_map(f.atoms, ((0, f.terms),))
        return Expr(f.atoms, tuple([tuple.__new__(Term, (tau[k], k[3], k[2], k[1]))
                                    for k in sorted(tau, reverse=True)]))

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

    def metric(self, point) -> np.ndarray:
        """The metric at each point; a point outside the chart is refused."""
        import numpy as np
        P = np.asarray(point, dtype=float)
        if self.inside is not None:
            self.check_point(P)
        rows = self.rows(np, *[P[..., k] for k in range(P.shape[-1])])
        g = np.empty(P.shape[:-1] + (len(rows), len(rows)))
        for a, b in np.ndindex(g.shape[-2:]):
            g[..., a, b] = rows[a][b]
        return g

    def contains(self, point, slack: float = 0.0) -> np.ndarray:
        import numpy as np
        P = np.asarray(point, dtype=float)
        if self.inside is None:
            return np.ones(P.shape[:-1], dtype=bool)
        return self.inside(np, slack, *[P[..., k] for k in range(P.shape[-1])])

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


class ProductGeometry(Geometry):
    """Riemannian product: the factor tables, metric rows and domains side by
    side, and the log rule of the log-bearing factor."""

    def __init__(self, first: Geometry, second: Geometry, name: str | None = None):
        n1, n2 = len(first.atoms.variables), len(second.atoms.variables)

        def rows(np, *c):
            return (*(r + (0.0,) * n2 for r in first.rows(np, *c[:n1])),
                    *((0.0,) * n1 + r for r in second.rows(np, *c[n1:])))

        def inside(np, slack, *c):
            parts = [g.inside(np, slack, *p) for g, p in ((first, c[:n1]), (second, c[n1:])) if g.inside]
            return parts[0] if len(parts) == 1 else parts[0] & parts[1]

        super().__init__(
            name or f"{first.name}x{second.name}",
            merge_atom_sets(first.atoms, second.atoms),
            first.sample_box + second.sample_box,
            first.table + second.table,
            rows,
            inside if first.inside or second.inside else None,
            first.log_tension or second.log_tension,
        )
        self.first = first
        self.second = second


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


def _surface(sign: int, convention: str) -> Geometry:
    """Hyperbolic disc (sign -1) or punctured sphere (sign +1) chart.

    The numeric metric is always 4/(1 + sign*rho)^2 (dx^2 + dy^2); the
    ``convention`` flag only scales the symbolic operator factor c, and the
    log rule is tau(A L) = s c A for A free of z, zb.
    """
    c = 4 if convention == "paper" else 1

    def rows(np, x, y):
        lam = 4.0 / (1.0 + sign * (x * x + y * y)) ** 2
        return (lam, 0.0), (0.0, lam)

    return Geometry(
        "h2" if sign == -1 else "s2p",
        AtomSet(("z", "zb"), log_kind=LOG_DISC if sign == -1 else LOG_SPHERE, conformal=("z", "zb")),
        ((-0.9, 0.9), (-0.9, 0.9)),
        (
            (c, {}, 0, "z", "zb"),
            (2 * sign * c, {"z": 1, "zb": 1}, 0, "z", "zb"),
            (c, {"z": 2, "zb": 2}, 0, "z", "zb"),
        ),
        rows,
        (lambda np, slack, x, y: np.hypot(x, y) + slack < 1.0) if sign == -1 else None,
        sign * c,
    )


def _line(var: str = "t") -> Geometry:
    """Flat line factor; the chart variable is configurable (default t)."""
    return Geometry("line" if var == "t" else f"line[{var}]", AtomSet((var,)), ((-1.0, 1.0),),
                    ((1, {}, 0, var, var),), lambda np, v: ((1.0,),))


# id -> the chart under a convention; the only list of chart ids, and each
# chart's one home: algebra, sample box, operator table, metric rows, domain
_CHARTS = {
    "sol": lambda convention: Geometry(
        "sol",
        AtomSet(("x", "y", "t"), exp_var="t"),
        ((-1.0, 1.0),) * 3,
        (
            (1, {}, -2, "x", "x"),
            (1, {}, 2, "y", "y"),
            (1, {}, 0, "t", "t"),
        ),
        lambda np, x, y, t: (
            (np.exp(2 * t), 0.0, 0.0),
            (0.0, np.exp(-2 * t), 0.0),
            (0.0, 0.0, 1.0),
        ),
    ),
    "nil": lambda convention: Geometry(
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
        lambda np, x, y, t: (
            (1.0, 0.0, 0.0),
            (0.0, 1.0 + x * x, -x),
            (0.0, -x, 1.0),
        ),
    ),
    "sl2": lambda convention: Geometry(
        "sl2",
        AtomSet(("x", "y", "t")),
        ((-1.0, 1.0), (0.5, 2.0), (-1.0, 1.0)),
        (
            (1, {"y": 2}, 0, "x", "x"),
            (1, {"y": 2}, 0, "y", "y"),
            (2, {}, 0, "t", "t"),
            (-2, {"y": 1}, 0, "x", "t"),
        ),
        lambda np, x, y, t: (
            (2.0 / y**2, 0.0, 1.0 / y),
            (0.0, 1.0 / y**2, 0.0),
            (1.0 / y, 0.0, 1.0),
        ),
        lambda np, slack, x, y, t: y - slack > 0.0,
    ),
    "h2": lambda convention: _surface(-1, convention),
    "s2p": lambda convention: _surface(1, convention),
    "h2xr": lambda convention: ProductGeometry(_surface(-1, convention), _line(), "h2xr"),
    "s2pxr": lambda convention: ProductGeometry(_surface(1, convention), _line(), "s2pxr"),
    "line": lambda convention: _line(),
}


# sol() and nil() are by_id("sol") and by_id("nil"), kept for perfbench/tests
def sol() -> Geometry:
    return by_id("sol")


def nil() -> Geometry:
    return by_id("nil")


def product(first: Geometry, second: Geometry) -> ProductGeometry:
    """first x second, with the factors of line x line renamed to s and t."""
    if first.name == second.name == "line":
        return ProductGeometry(_line("s"), _line("t"), name="linexline")
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
