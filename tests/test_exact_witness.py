"""An exact, metric-only witness for tau on the model charts.

Each chart's metric is written once below, in sympy, as the line element of
the chart's definition; no operator table is read.  The Laplace-Beltrami
operator

    tau f = |g|^-1/2 d_i (|g|^1/2 g^ij d_j f)

is derived from it and compared exactly, with no tolerance, with every step
of the chains polyharm prints.  The printed text is read back into sympy, so
the printer is checked as well.  A second test keeps the sympy metric equal
to ``Geometry.metric``, so the two copies cannot drift apart.

The conformal surfaces are written in z = u + i v, with the log atoms
log1m = log(1 - |z|^2) and log1p = log(1 + |z|^2), and a product chart's line
element is the sum of its factors'.  Under the paper convention tau is four
times the surface Laplacian, which is the Laplacian of a quarter of the
surface metric.

sympy is a test dependency only; this module is never skipped, because a
skipped witness would pass vacuously.
"""

import itertools
import random
import re

import numpy as np
import pytest
import sympy as sp

from polyharm.families import FAMILIES
from polyharm.geometries import by_id, iterated_tension
from polyharm.parser import parse
from polyharm.verify import random_nonzero_expr

x, t, s, u, v = sp.symbols("x t s u v", real=True)
y = sp.Symbol("y", positive=True)  # the sl2 chart is the half space y > 0
dx, dy, dt, ds, du, dv = sp.symbols("dx dy dt ds du dv")
RHO2 = u**2 + v**2
NAMES = {"x": x, "y": y, "t": t, "s": s, "z": u + sp.I * v, "zb": u - sp.I * v,
         "log1m": sp.log(1 - RHO2), "log1p": sp.log(1 + RHO2)}


def _surface(sign: int, convention: str):
    """The disc (sign -1) or punctured sphere (+1): 4 |dz|^2 / (1 + sign |z|^2)^2."""
    return (4 if convention == "metric" else 1) * (du**2 + dv**2) / (1 + sign * RHO2) ** 2


def _line_element(gid: str, convention: str = "metric") -> tuple:
    """(coordinates in chart-variable order, their differentials, line element)."""
    charts = {
        "sol": ((x, y, t), sp.exp(2 * t) * dx**2 + sp.exp(-2 * t) * dy**2 + dt**2),
        "nil": ((x, y, t), dx**2 + dy**2 + (dt - x * dy) ** 2),
        "sl2": ((x, y, t), (dx**2 + dy**2) / y**2 + (dt + dx / y) ** 2),
        "h2": ((u, v), _surface(-1, convention)),
        "s2p": ((u, v), _surface(1, convention)),
    }
    charts["h2xr"] = ((u, v, t), charts["h2"][1] + dt**2)
    charts["s2pxr"] = ((u, v, t), charts["s2p"][1] + dt**2)
    charts["product:nilxh2"] = ((x, y, t, u, v), charts["nil"][1] + charts["h2"][1])
    charts["product:linexline"] = ((s, t), ds**2 + dt**2)
    charts["product:solxh2"] = ((x, y, t, u, v), charts["sol"][1] + charts["h2"][1])
    charts["product:linexs2p"] = ((t, u, v), dt**2 + charts["s2p"][1])
    coords, element = charts[gid]
    return coords, [sp.Symbol(f"d{c}") for c in coords], element


def _metric(gid: str, convention: str = "metric") -> sp.Matrix:
    _, differentials, element = _line_element(gid, convention)
    return sp.hessian(element, differentials) / 2


def _laplace_beltrami(gid: str, convention: str):
    coords = _line_element(gid)[0]
    g = _metric(gid, convention)
    root = sp.sqrt(sp.factor(g.det()))
    flux = (root * g.inv()).applyfunc(sp.cancel)  # |g|^1/2 g^ij
    n = len(coords)

    def tau(f):
        grad = [sp.diff(f, c) for c in coords]
        div = sum(sp.diff(sum(flux[i, j] * grad[j] for j in range(n)), coords[i]) for i in range(n))
        return div / root

    return tau


def _from_printed(text: str) -> sp.Expr:
    """sympy's reading of a printed expression of any chart above."""
    text = re.sub(r"E\((-?[0-9]+)\)", r"exp((\1)*t)", text)
    text = re.sub(r"([0-9]+(?:/[0-9]+)?)i", r"(\1)*I", text)
    return sp.sympify(text.replace("^", "**"), locals=NAMES)


# (chart, convention): the charts with a log rule under both conventions
CASES = [(gid, "metric") for gid in ("nil", "sl2", "sol", "h2", "s2p", "h2xr", "s2pxr",
                                     "product:nilxh2", "product:linexline",
                                     "product:solxh2", "product:linexs2p")]
CASES += [(gid, "paper") for gid in ("h2", "s2p", "h2xr", "s2pxr",
                                     "product:solxh2", "product:linexs2p")]


def _inputs(gid: str, convention: str) -> list:
    """Seeded random expressions, one draw of every family on the chart (under
    the metric convention) and, on a chart with a log atom, one fixed
    log-bearing expression."""
    g = by_id(gid, convention)
    rng = random.Random(f"witness-{gid}" + ("" if convention == "metric" else f"-{convention}"))
    weights = (-2, 0, 1, 2) if g.atoms.exp_var else (0,)
    # the conformal pair makes sympy's side slow: fewer and smaller inputs there,
    # and one draw where E meets it (each draw there costs sympy up to 2 s)
    count, max_power = (3, 3) if g.atoms.conformal is None else (2, 2)
    count = 1 if g.atoms.conformal and g.atoms.exp_var else count
    inputs = [random_nonzero_expr(rng, g.atoms, max_terms=3, max_power=max_power,
                                  weights=weights, allow_log=g.atoms.log_kind is not None)
              for _ in range(count)]
    for d in FAMILIES.values():
        if d.geometry_id == gid and convention == "metric":
            inputs.append(d.build(convention, **d.draw(rng))[1])
    log = g.atoms.log_kind
    if log:  # a log term with and without a t factor, beside a polynomial
        t_log = f" + t^2*{log}" if "t" in g.atoms.variables else ""
        inputs.append(parse(f"(2/3-1i)*{log}{t_log} - z*zb^2", g.atoms))
    return inputs


@pytest.mark.parametrize("gid, convention", [
    pytest.param(gid, convention, id=gid if convention == "metric" else f"{gid}-{convention}")
    for gid, convention in CASES])
def test_printed_tension_chain_is_the_metric_laplacian(gid, convention):
    tau = _laplace_beltrami(gid, convention)
    g = by_id(gid, convention)
    for f in _inputs(gid, convention):
        printed = [str(e) for e in iterated_tension(g, f, 2)]
        for k in range(2):
            step = sp.together(tau(sp.expand(_from_printed(printed[k]))) - _from_printed(printed[k + 1]))
            assert sp.expand(sp.numer(step)) == 0, (gid, convention, k, printed[k])


def test_printed_forms_read_back_term_by_term():
    # the reader above must see every printed coefficient and atom
    f = _from_printed("(1/2-3/4i)*x^2*E(-2) - 5i*y*t + 7/3")
    c = sp.Rational(1, 2) - sp.Rational(3, 4) * sp.I
    assert sp.expand(f - (c * x**2 * sp.exp(-2 * t) - 5 * sp.I * y * t + sp.Rational(7, 3))) == 0
    f = _from_printed("2*z*zb^2 - 1/3i*t*log1m + s*log1p")
    z, zb = u + sp.I * v, u - sp.I * v
    want = 2 * z * zb**2 - sp.I / 3 * t * sp.log(1 - RHO2) + s * sp.log(1 + RHO2)
    assert sp.expand(f - want) == 0


@pytest.mark.parametrize("gid", [gid for gid, convention in CASES if convention == "metric"])
def test_sympy_metric_is_the_chart_metric(gid):
    g = by_id(gid)
    coords = _line_element(gid)[0]
    rng = random.Random(f"metric-{gid}")
    points = ([rng.uniform(lo, hi) for lo, hi in g.sample_box] for _ in iter(int, 1))
    for point in itertools.islice((p for p in points if g.contains(p)), 5):
        exact = np.array(_metric(gid).subs(dict(zip(coords, point))).evalf(), dtype=float)
        assert np.allclose(exact, g.metric(point), rtol=1e-13, atol=0.0)
