"""An exact, metric-only witness for tau on sol, nil and sl2.

Each chart's metric is written once below, in sympy, as the line element of
the chart's definition; no operator table is read.  The Laplace-Beltrami
operator

    tau f = |g|^-1/2 d_i (|g|^1/2 g^ij d_j f)

is derived from it and compared exactly, with no tolerance, with every step
of the chains polyharm prints.  The printed text is read back into sympy, so
the printer is checked as well.  A second test keeps the sympy metric equal
to ``Geometry.metric``, so the two copies cannot drift apart.

sympy is a test dependency only; this module is never skipped, because a
skipped witness would pass vacuously.
"""

import random
import re

import numpy as np
import pytest
import sympy as sp

from polyharm.families import FAMILIES
from polyharm.geometries import by_id, iterated_tension
from polyharm.verify import random_nonzero_expr

x, t = sp.symbols("x t", real=True)
y = sp.Symbol("y", positive=True)  # the sl2 chart is the half space y > 0
COORDS = (x, y, t)
dx, dy, dt = sp.symbols("dx dy dt")

LINE_ELEMENTS = {
    "sol": sp.exp(2 * t) * dx**2 + sp.exp(-2 * t) * dy**2 + dt**2,
    "nil": dx**2 + dy**2 + (dt - x * dy) ** 2,
    "sl2": (dx**2 + dy**2) / y**2 + (dt + dx / y) ** 2,
}
CHARTS = sorted(LINE_ELEMENTS)


def _metric(gid: str) -> sp.Matrix:
    return sp.hessian(LINE_ELEMENTS[gid], (dx, dy, dt)) / 2


def _laplace_beltrami(gid: str):
    g = _metric(gid)
    root = sp.sqrt(sp.cancel(g.det()))
    flux = (root * g.inv()).applyfunc(sp.cancel)  # |g|^1/2 g^ij

    def tau(f):
        grad = [sp.diff(f, v) for v in COORDS]
        div = sum(sp.diff(sum(flux[i, j] * grad[j] for j in range(3)), COORDS[i]) for i in range(3))
        return sp.expand(div / root)

    return tau


def _from_printed(text: str) -> sp.Expr:
    """sympy's reading of a printed sol/nil/sl2 expression."""
    text = re.sub(r"E\((-?[0-9]+)\)", r"exp((\1)*t)", text)
    text = re.sub(r"([0-9]+(?:/[0-9]+)?)i", r"(\1)*I", text)
    return sp.sympify(text.replace("^", "**"), locals={"x": x, "y": y, "t": t})


def _inputs(gid: str) -> list:
    """Seeded random expressions and one draw of every family on the chart."""
    g = by_id(gid)
    rng = random.Random(f"witness-{gid}")
    weights = (-2, 0, 1, 2) if g.atoms.exp_var else (0,)
    inputs = [random_nonzero_expr(rng, g.atoms, max_terms=3, max_power=3, weights=weights)
              for _ in range(3)]
    for d in FAMILIES.values():
        if d.geometry_id == gid:
            inputs.append(d.build("metric", **d.draw(rng))[1])
    return inputs


@pytest.mark.parametrize("gid", CHARTS)
def test_printed_tension_chain_is_the_metric_laplacian(gid):
    tau = _laplace_beltrami(gid)
    g = by_id(gid)
    for f in _inputs(gid):
        printed = [str(e) for e in iterated_tension(g, f, 2)]
        for k in range(2):
            step = sp.expand(tau(_from_printed(printed[k])) - _from_printed(printed[k + 1]))
            assert step == 0, (gid, k, printed[k])


def test_printed_forms_read_back_term_by_term():
    # the reader above must see every printed coefficient and atom
    f = _from_printed("(1/2-3/4i)*x^2*E(-2) - 5i*y*t + 7/3")
    c = sp.Rational(1, 2) - sp.Rational(3, 4) * sp.I
    assert sp.expand(f - (c * x**2 * sp.exp(-2 * t) - 5 * sp.I * y * t + sp.Rational(7, 3))) == 0


@pytest.mark.parametrize("gid", CHARTS)
def test_sympy_metric_is_the_chart_metric(gid):
    g = by_id(gid)
    rng = random.Random(f"metric-{gid}")
    for _ in range(5):
        point = [rng.uniform(lo, hi) for lo, hi in g.sample_box]
        exact = np.array(_metric(gid).subs(dict(zip(COORDS, point))).evalf(), dtype=float)
        assert np.allclose(exact, g.metric(point), rtol=1e-13, atol=0.0)
