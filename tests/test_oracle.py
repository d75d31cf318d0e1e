import collections
import math
import re
import runpy
import statistics
from pathlib import Path

import numpy as np
import pytest

from polyharm.algebra import Expr
from polyharm.errors import DomainError, UsageError
from polyharm.families import log_biharmonic, nil_biharmonic12
from polyharm.geometries import (
    by_id,
    iterated_tension,
)
from polyharm import oracle
from polyharm.oracle import (
    CHUNK_POINTS,
    OracleConfig,
    _fd_tensions,
    _metric_coefficients,
    cross_validate,
    fd_tension,
    sample_points,
)
from polyharm.parser import parse

from conftest import conformality


# -- metric evaluation -----------------------------------------------------------


def metric_at(geometry, point):
    """Metric matrices at chart points; raises outside the chart."""
    geometry.check_point(point)
    return geometry.metric(point)


def test_sol_metric_at_origin_is_euclidean():
    m = metric_at(by_id("sol"), (0.4, -0.7, 0.0))
    assert np.allclose(m, np.eye(3))


def test_nil_metric_matches_expanded_form():
    m = metric_at(by_id("nil"), (2.0, 0.3, -0.5))
    assert np.allclose(m, [[1, 0, 0], [0, 5, -2], [0, -2, 1]])
    assert np.linalg.det(m) == pytest.approx(1.0)


def test_sl2_metric_matches_expanded_form():
    m = metric_at(by_id("sl2"), (0.1, 1.0, 0.2))
    assert np.allclose(m, [[2, 0, 1], [0, 1, 0], [1, 0, 1]])
    assert np.linalg.det(m) == pytest.approx(1.0)


def test_metric_determinant_closed_forms():
    rng = np.random.default_rng(5)
    for p in sample_points(by_id("nil"), 20, rng):
        assert np.linalg.det(metric_at(by_id("nil"), p)) == pytest.approx(1.0)
    for p in sample_points(by_id("sl2"), 20, rng):
        det = np.linalg.det(metric_at(by_id("sl2"), p))
        assert det == pytest.approx(1.0 / p[1] ** 4)


def test_metric_positive_definite_everywhere_sampled():
    rng = np.random.default_rng(6)
    for gid in ("sol", "nil", "sl2", "h2", "s2p", "h2xr", "s2pxr", "line"):
        g = by_id(gid)
        for p in sample_points(g, 10, rng):
            eigenvalues = np.linalg.eigvalsh(metric_at(g, p))
            assert np.all(eigenvalues > 0)


def test_metric_domain_violation():
    with pytest.raises(DomainError):
        metric_at(by_id("h2"), (1.1, 0.0))
    with pytest.raises(DomainError):
        metric_at(by_id("sl2"), (0.0, -1.0, 0.0))
    # on an array of points the first point outside the chart is named
    with pytest.raises(DomainError, match=r"\(1\.1, 0\.0\)"):
        metric_at(by_id("h2"), [(0.1, 0.0), (1.1, 0.0), (0.0, 1.2)])


@pytest.mark.parametrize("gid, outside", [
    ("sl2", (0.3, 0.0, 0.1)), ("sl2", (0.3, -2.0, 0.1)), ("h2", (1.0, 0.0)),
    ("h2", (0.8, -0.7)), ("h2xr", (0.0, -1.0, 0.5)), ("product:h2xsl2", (0.1, 0.2, 0.3, -1.0, 0.5)),
])
def test_metric_itself_refuses_a_point_outside_its_chart(gid, outside):
    # Geometry.metric with no check_point before it: sl2 needs y > 0, the disc |z| < 1
    g = by_id(gid)
    with pytest.raises(DomainError, match=re.escape(f"point {tuple(map(float, outside))} is outside")):
        g.metric(outside)
    inside = sample_points(g, 3, np.random.default_rng(8))
    with pytest.raises(DomainError):
        g.metric(np.vstack([inside, outside]))
    assert g.metric(inside).shape == inside.shape + inside.shape[-1:]


@pytest.mark.parametrize("gid", ["s2p", "sol", "nil", "line", "s2pxr"])
def test_metric_refuses_no_finite_point_of_an_unbounded_chart(gid):
    g = by_id(gid)
    dim = len(g.atoms.variables)
    points = np.vstack([np.zeros(dim), np.eye(dim), -np.eye(dim),
                        np.random.default_rng(9).uniform(-30.0, 30.0, (50, dim))])
    assert np.isfinite(g.metric(points)).all()


@pytest.mark.parametrize(
    "gid", ["sol", "nil", "sl2", "h2", "s2p", "h2xr", "s2pxr", "line", "product:nilxh2"]
)
def test_metric_on_point_arrays_stacks_single_points(gid):
    g = by_id(gid)
    points = sample_points(g, 12, np.random.default_rng(3))
    stacked = np.stack([metric_at(g, p) for p in points])
    assert np.array_equal(metric_at(g, points), stacked)
    dim = points.shape[1]
    grid = metric_at(g, points.reshape(3, 4, dim))
    assert np.array_equal(grid, stacked.reshape(3, 4, dim, dim))


def test_metric_coefficients_match_linalg():
    # the cofactor closed form (dim <= 3) and the LAPACK fallback above it
    # (product:nilxh2, dim 5) against a direct inverse and determinant, on a
    # flat batch and on a (3, 4, dim) grid of points
    rng = np.random.default_rng(71)
    gids = ("sol", "nil", "sl2", "h2", "s2p", "h2xr", "s2pxr", "line",
            "product:nilxh2", "product:linexline")
    for g in map(by_id, gids):
        points = sample_points(g, 60, rng)
        for batch in (points, points[:12].reshape(3, 4, -1)):
            inv, root = _metric_coefficients(g, batch)
            m = g.metric(batch)
            assert inv.shape == m.shape and root.shape == m.shape[:-2], g.name
            assert np.allclose(inv, np.linalg.inv(m), rtol=1e-12, atol=1e-12), g.name
            assert np.allclose(root, np.sqrt(np.linalg.det(m)), rtol=1e-12, atol=1e-12), g.name


def _defective_metric(kind: str, dim: int) -> np.ndarray:
    m = np.eye(dim)
    if kind == "det<0":
        m[0, 1] = m[1, 0] = 2.0  # the block [[1, 2], [2, 1]] has det -3
    elif kind == "det=0":
        m[0, 1] = m[1, 0] = 1.0
    elif kind == "nan":
        m[0, -1] = m[-1, 0] = math.nan
    else:
        m[-1, -1] = math.inf
    return m


@pytest.mark.parametrize("kind", ["det<0", "det=0", "nan", "inf"])
@pytest.mark.parametrize("gid", ["h2", "sol", "product:nilxh2"])
def test_metric_guard_refuses_a_defective_metric(gid, kind):
    # a stub metric that is the same defective matrix at every point, at
    # dim 2 and 3 (closed form) and dim 5 (LAPACK)
    g = by_id(gid)
    dim = len(g.sample_box)
    bad = _defective_metric(kind, dim)
    g.metric = lambda points: np.broadcast_to(bad, np.shape(points)[:-1] + (dim, dim))
    f = parse("1", g.atoms)
    point = sample_points(g, 1, np.random.default_rng(72))[0]
    with pytest.raises(DomainError, match="^metric is not positive definite here$"):
        fd_tension(g, f, point)
    with pytest.raises(DomainError, match="^metric is not positive definite here$"):
        cross_validate(g, f, OracleConfig(samples=5))


@pytest.mark.parametrize(
    "gid, diagonal",
    [("h2", (-1.0, -1.0)), ("sol", (-1.0, -1.0, 1.0)), ("sol", (1.0, -1.0, -1.0)),
     ("product:nilxh2", (-1.0, -1.0, 1.0, 1.0, 1.0)),
     ("product:solxs2p", (1.0, -1.0, -1.0, 1.0, 1.0))],
)
def test_metric_guard_refuses_an_indefinite_metric(gid, diagonal):
    # det > 0 in every case: the guard needs g00 > 0 (diag(-1, -1, ...)) and
    # the upper-left 2x2 minor > 0 (diag(1, -1, -1, ...)) to refuse them, at
    # dim 5 through the LAPACK path as well as at dim 2 and 3
    g = by_id(gid)
    dim = len(diagonal)
    bad = np.diag(diagonal)
    assert np.linalg.det(bad) > 0
    g.metric = lambda points: np.broadcast_to(bad, np.shape(points)[:-1] + (dim, dim))
    f = parse("x^2 + t^2" if gid == "sol" else "z*zb", g.atoms)
    point = sample_points(g, 1, np.random.default_rng(73))[0]
    with pytest.raises(DomainError, match="^metric is not positive definite here$"):
        fd_tension(g, f, point)
    with pytest.raises(DomainError, match="^metric is not positive definite here$"):
        cross_validate(g, f, OracleConfig(samples=5))


# -- fd_tension -------------------------------------------------------------------


def test_fd_tension_of_harmonic_is_near_zero():
    g = by_id("sol")
    f = parse("2*x^2 - E(-2)", g.atoms)
    rng = np.random.default_rng(7)
    for p in sample_points(g, 10, rng):
        assert abs(fd_tension(g, f.evaluate, p)) < 1e-6


def test_fd_tension_on_flat_line():
    g = by_id("line")
    f = parse("t^2", g.atoms)
    for t in (-0.5, 0.0, 0.7):
        assert fd_tension(g, f.evaluate, (t,)) == pytest.approx(2.0, abs=1e-7)


def test_fd_tension_detects_metric_convention_on_disc():
    # (1 - z zb)^2 d2/dz dzb of -log(1 - z zb) is exactly 1: the oracle sees
    # the metric-derived operator, not the printed factor 4
    g = by_id("h2", "metric")
    f = -parse("log1m", g.atoms)
    value = fd_tension(g, f.evaluate, (0.3, 0.0))
    assert value.real == pytest.approx(1.0, abs=1e-6)
    assert abs(value.real - 4.0) > 2.9


def test_fd_tension_handles_complex_values():
    g = by_id("sol")
    f = parse("(1+2i)*x^2*t", g.atoms)
    sym = g.tension(f)
    p = (0.3, -0.2, 0.4)
    fd = fd_tension(g, f.evaluate, p)
    assert fd == pytest.approx(sym.evaluate(p), abs=1e-7)


def test_fd_tension_accepts_user_supplied_evaluators():
    # transcendental inputs live outside the term algebra but the oracle
    # only needs a point evaluator: exp(x+iy) is harmonic on nil
    import cmath

    g = by_id("nil")

    def f(p):
        return cmath.exp(complex(p[0], p[1])) + 2.0 * p[2]

    rng = np.random.default_rng(11)
    for p in sample_points(g, 10, rng):
        assert abs(fd_tension(g, f, p)) < 1e-6


def test_fd_tension_respects_stencil_domain():
    g = by_id("h2")
    f = parse("z*zb", g.atoms)
    with pytest.raises(DomainError):
        fd_tension(g, f.evaluate, (0.9999, 0.0))


def test_low_degree_polynomials_are_differenced_exactly():
    # degree <= 2 per variable means zero truncation error for the
    # second-order stencils; only roundoff remains at any step size
    g = by_id("sol")
    f = parse("x^2*y^2*t^2", g.atoms)
    sym = g.tension(f)
    for p in ((0.3, -0.4, 0.2), (0.9, 0.1, -0.8)):
        coarse = fd_tension(g, f.evaluate, p, OracleConfig(step=5e-2, levels=1))
        assert coarse == pytest.approx(sym.evaluate(p), abs=1e-9)


def test_convergence_is_second_order_before_extrapolation():
    # halving h divides the plain central-difference error by about 4 once
    # the input has nonvanishing fourth derivatives
    g = by_id("sol")
    f = parse("x^4*y^2*t^4 + y^2*E(2)", g.atoms)
    sym = g.tension(f)
    rng = np.random.default_rng(8)
    ratios = []
    for p in sample_points(g, 20, rng):
        exact = sym.evaluate(p)
        coarse = fd_tension(g, f.evaluate, p, OracleConfig(step=2e-2, levels=1))
        fine = fd_tension(g, f.evaluate, p, OracleConfig(step=1e-2, levels=1))
        if abs(fine - exact) > 1e-10:
            ratios.append(abs(coarse - exact) / abs(fine - exact))
    assert len(ratios) >= 10
    assert 3.2 < statistics.median(ratios) < 4.8


# -- one stencil pass against the per-level reference ------------------------------


def _per_level_stencil_tension(geometry, f, points, h):
    """The replaced per-level stencil: one evaluate and one metric call at step h."""
    n, dim = points.shape
    e = np.eye(dim)
    iu, ju = np.triu_indices(dim, 1)
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    corners = [si * e[i] + sj * e[j] for i, j in zip(iu, ju) for si, sj in signs]
    offsets = np.vstack([np.zeros((1, dim)), e, -e] + corners)
    X = points[:, None, :] + h * offsets
    if isinstance(f, Expr):
        F = f.evaluate(X)
    else:
        F = np.array([[f(tuple(x)) for x in row] for row in X], dtype=complex)
    f0, plus, minus = F[:, :1], F[:, 1 : 1 + dim], F[:, 1 + dim : 1 + 2 * dim]
    second = np.empty((n, dim, dim), dtype=complex)
    axes = np.arange(dim)
    second[:, axes, axes] = (plus - 2.0 * f0 + minus) / (h * h)
    c = F[:, 1 + 2 * dim :].reshape(n, len(iu), 4)
    mixed = (c[..., 0] - c[..., 1] - c[..., 2] + c[..., 3]) / (4.0 * h * h)
    second[:, iu, ju] = second[:, ju, iu] = mixed
    inv, root = _metric_coefficients(geometry, X[:, : 1 + 2 * dim])
    B = inv * root[..., None, None]
    div = np.einsum("njij->ni", B[:, 1 : 1 + dim] - B[:, 1 + dim :]) / (2.0 * h)
    grad = (plus - minus) / (2.0 * h)
    principal = np.einsum("nij,nij->n", inv[:, 0], second)
    return principal + np.einsum("ni,ni->n", div / root[:, :1], grad)


def _per_level_fd_tensions(geometry, f, points, config):
    """The replaced sweep: one stencil per Richardson level and chunk of
    CHUNK_POINTS points, then the Richardson table.  Kept as the reference."""
    out = np.empty(len(points), dtype=complex)
    with np.errstate(all="ignore"):
        for start in range(0, len(points), CHUNK_POINTS):
            chunk = points[start : start + CHUNK_POINTS]
            table = [
                _per_level_stencil_tension(geometry, f, chunk, config.step / 2.0**i)
                for i in range(config.levels)
            ]
            for j in range(1, config.levels):
                factor = 4.0**j
                table = [
                    (factor * table[i + 1] - table[i]) / (factor - 1.0)
                    for i in range(len(table) - 1)
                ]
            out[start : start + CHUNK_POINTS] = table[0]
    return out


# One expression per chart with every atom the chart has, so the exponential,
# log and mixed-stencil rows all enter; product:nilxh2 (dim 5) takes the
# LAPACK branch of the metric and line (dim 1) has no corner rows.
ONE_PASS_CHARTS = {
    "sol": "x^3*y*E(2) + (1+2i)/3*x*y*t^2 - 5/7*E(-1)",
    "nil": "y^2*t + (2-3i)/5*x^3*t - x*y",
    "sl2": "x*t^2 - 3/4*y^3 + 2i*x*y*t",
    "h2": "(1+1i)/2*z^3*zb^2 + 3*log1m",
    "s2p": "z*zb^2 - 2/3*log1p",
    "h2xr": "t*log1m + (1-2i)/3*z*zb*t^2",
    "s2pxr": "log1p*t^2 + z^2*zb*t",
    "line": "t^5 - 1/3*t^2 + 7i",
    "product:nilxh2": "x*z*zb + 1/2*t^2*z",
}


def _point_function(p):
    # a cheap polynomial point function, so the per-point path stays fast
    return complex(sum((k + 1) * c**3 for k, c in enumerate(p)), p[0] * p[-1])


@pytest.mark.parametrize("gid", sorted(ONE_PASS_CHARTS))
def test_one_pass_matches_the_per_level_reference(gid):
    # levels 5 at 300 points spans six chunks of 51 points; the values
    # agree exactly (1e-13 relative leaves room for another einsum order)
    g = by_id(gid)
    expr = parse(ONE_PASS_CHARTS[gid], g.atoms)
    rng = np.random.default_rng(sum(map(ord, gid)))
    for count in (1, 100, 300):
        points = sample_points(g, count, rng)
        for levels in (1, 2, 3, 5):
            config = OracleConfig(levels=levels)
            for f in (expr, _point_function):
                got = _fd_tensions(g, f, points, config)
                want = _per_level_fd_tensions(g, f, points, config)
                assert np.allclose(got, want, rtol=1e-13, atol=0.0), (gid, count, levels)


def test_one_pass_evaluates_and_builds_the_metric_once_per_chunk(monkeypatch):
    g = by_id("nil")
    f = parse("y^2*t + x^3*t - x*y", g.atoms)
    calls = collections.Counter()
    evaluate, metric = Expr.evaluate, oracle._metric_coefficients

    def counted_evaluate(self, point):
        calls["evaluate f" if self is f else "evaluate other"] += 1
        return evaluate(self, point)

    def counted_metric(geometry, points):
        calls["metric"] += 1
        return metric(geometry, points)

    monkeypatch.setattr(Expr, "evaluate", counted_evaluate)
    monkeypatch.setattr(oracle, "_metric_coefficients", counted_metric)
    points = sample_points(g, 300, np.random.default_rng(4))
    # a chunk holds CHUNK_POINTS // levels points: 2, 3 and 6 chunks
    for levels, chunks in ((1, 2), (2, 3), (5, 6)):
        calls.clear()
        _fd_tensions(g, f, points, OracleConfig(levels=levels))
        assert calls == {"evaluate f": chunks, "metric": chunks}, levels
    # a default 100-point sweep is one chunk: one evaluate of f, one of its
    # tension, and one metric call
    calls.clear()
    cross_validate(g, f, OracleConfig())
    assert calls == {"evaluate f": 1, "evaluate other": 1, "metric": 1}


# -- cross validation ---------------------------------------------------------------


def test_cross_validate_sol_battery_member():
    g = by_id("sol")
    report = cross_validate(g, parse("x^3*y*E(2)", g.atoms), OracleConfig(samples=40))
    assert report.within_tolerance
    assert report.points == 40


def test_cross_validate_fails_on_a_nan_residual(monkeypatch):
    # NaN at the third (and the fifth) point of the batched oracle result:
    # the report fails, and the worst point is the first one with NaN
    import polyharm.oracle as oracle_module

    exact = oracle_module._fd_tensions
    sampled = []

    def nan_at_third_point(geometry, f, points, config):
        sampled.append(points)
        values = exact(geometry, f, points, config)
        values[[2, 4]] = math.nan
        return values

    monkeypatch.setattr(oracle_module, "_fd_tensions", nan_at_third_point)
    g = by_id("line")
    report = cross_validate(g, parse("t^2", g.atoms), OracleConfig(samples=5))
    assert not report.within_tolerance
    assert report.worst_point == tuple(sampled[0][2])
    # the NaN points stay in the sentinel ratios, so they cannot pass it
    assert len(report.ratios) == 5
    assert [math.isnan(r) for r in report.ratios] == [False, False, True, False, True]


def test_cross_validate_constant():
    g = by_id("nil")
    report = cross_validate(g, parse("1", g.atoms), OracleConfig(samples=10))
    assert report.max_abs <= 1e-9
    # every stencil difference of a constant is exactly 0, so no point is worst
    assert report.max_rel == 0.0 and report.worst_point is None


def test_cross_validate_nil_family_tension_pointwise():
    g = by_id("nil")
    f = nil_biharmonic12([1] * 12)
    chain = iterated_tension(g, f, 1)
    report = cross_validate(g, f, OracleConfig(samples=30), symbolic_tension=chain[1])
    assert report.within_tolerance


def test_cross_validate_iterated_layer():
    # second-order check applies one finite-difference layer to the symbolic
    # first tension field, never a nested stencil
    g = by_id("sol")
    f = parse("t^4 + x^2*t^2", g.atoms)
    chain = iterated_tension(g, f, 2)
    report = cross_validate(
        g, chain[1], OracleConfig(samples=20), symbolic_tension=chain[2]
    )
    assert report.within_tolerance


def test_cross_validate_log_expression_on_product():
    g = by_id("h2xr")
    f = parse("t^2*log1m + z*t", g.atoms)
    report = cross_validate(g, f, OracleConfig(samples=30))
    assert report.within_tolerance


def test_conformal_sentinel_ratio_under_paper_convention():
    g = by_id("h2", "paper")
    ratios = cross_validate(g, parse("z*zb", g.atoms), OracleConfig(samples=20)).ratios
    assert len(ratios) == 20
    assert all(abs(r - 4.0) < 1e-4 for r in ratios)
    # and the log function shows the same factor
    ratios = cross_validate(g, log_biharmonic(g), OracleConfig(samples=20)).ratios
    assert all(abs(r - 4.0) < 1e-4 for r in ratios)


def test_metric_convention_has_unit_ratio():
    g = by_id("h2", "metric")
    report = cross_validate(g, parse("z*zb", g.atoms), OracleConfig(samples=10))
    assert len(report.ratios) == 10
    assert all(abs(r - 1.0) < 1e-6 for r in report.ratios)


def _fd_conformality(geometry, f, h, point, step=1e-4):
    # g^ij d_i f d_j h with central-difference gradients: an independent
    # numeric route to the conformality operator
    g = np.array(geometry.metric(point), dtype=float)
    inv = np.linalg.inv(g)
    dim = len(point)

    def grad(expr):
        out = []
        for i in range(dim):
            plus = list(point)
            minus = list(point)
            plus[i] += step
            minus[i] -= step
            out.append(
                (expr.evaluate(tuple(plus)) - expr.evaluate(tuple(minus)))
                / (2.0 * step)
            )
        return out

    gf, gh = grad(f), grad(h)
    return sum(
        inv[i][j] * gf[i] * gh[j] for i in range(dim) for j in range(dim)
    )


def test_conformality_matches_numeric_gradient_pairing():
    # validates kappa as read from each operator table (diagonal and
    # off-diagonal entries, conformal pair, product tables) directly against
    # the metric, independently of the symbolic tension field
    import random

    from polyharm.verify import random_expr

    rng = random.Random(42)
    oracle_rng = np.random.default_rng(43)
    gids = ("sol", "nil", "sl2", "line", "h2", "s2p", "h2xr", "s2pxr", "product:nilxh2")
    for g in map(by_id, gids):
        weights = (-2, 0, 2) if g.name == "sol" else (0,)
        for _ in range(5):
            f = random_expr(rng, g.atoms, max_terms=2, weights=weights)
            h = random_expr(rng, g.atoms, max_terms=2, weights=weights)
            sym = conformality(g, f, h)
            for p in sample_points(g, 5, oracle_rng):
                numeric = _fd_conformality(g, f, h, p)
                assert abs(sym.evaluate(p) - numeric) <= 1e-5 * (
                    1 + abs(numeric)
                ), g.name


@pytest.mark.parametrize(
    "gid", ["sol", "nil", "sl2", "h2", "s2p", "h2xr", "s2pxr", "line", "product:nilxh2"]
)
def test_operator_table_is_the_inverse_metric(gid):
    # the symbolic table and the numeric metric are written independently;
    # this compares the two and derives neither from the other
    g = by_id(gid)
    names = g.atoms.variables
    conformal = set(g.atoms.conformal or ())
    for p in sample_points(g, 12, np.random.default_rng(61)):
        inverse = np.zeros((len(names), len(names)), dtype=complex)
        for c, powers, weight, i, j in g.table:
            m = Expr.monomial(g.atoms, c, powers, weight).evaluate(p)
            a, b = names.index(i), names.index(j)
            if {i, j} == conformal:
                # m d_z d_zb = (m / 4) (d_x^2 + d_y^2)
                inverse[a, a] += m / 4
                inverse[b, b] += m / 4
            elif a == b:
                inverse[a, a] += m
            else:
                inverse[a, b] += m / 2
                inverse[b, a] += m / 2
        assert np.allclose(inverse, np.linalg.inv(g.metric(p)), rtol=1e-12, atol=1e-12)


def test_conformality_of_log_pairs_matches_numeric_pairing():
    # kappa on log-bearing inputs cannot be cross-checked through the
    # product rule (the product leaves the algebra), so check it directly
    g = by_id("h2xr")
    atoms = g.atoms
    t = parse("t", atoms)
    log = parse("log1m", atoms)
    z2zb = parse("z^2*zb", atoms)
    pairs = [
        (t * log, log),          # kappa(t L, L) = t * z * zb
        (t * t * log, z2zb + t), # log x polynomial piece
        (log, z2zb),
    ]
    rng = np.random.default_rng(44)
    for f, h in pairs:
        sym = conformality(g, f, h)
        for p in sample_points(g, 8, rng):
            numeric = _fd_conformality(g, f, h, p)
            assert abs(sym.evaluate(p) - numeric) <= 1e-5 * (1 + abs(numeric))
    # and the closed form of the pure log pairing on the disc
    disc = by_id("h2")
    sym = conformality(disc, parse("log1m", disc.atoms), parse("log1m", disc.atoms))
    assert sym == parse("z*zb", disc.atoms)


def test_oracle_config_validation():
    with pytest.raises(UsageError):
        OracleConfig(step=-1.0)
    with pytest.raises(UsageError):
        OracleConfig(levels=0)
    for bad in ({"step": math.nan}, {"step": math.inf}, {"rel_tol": math.nan}, {"samples": 0}):
        with pytest.raises(UsageError):
            OracleConfig(**bad)
    # the finest step step/2**(levels-1) must still change 1.0, and the
    # Richardson factor 4**(levels-1) must be a float
    for bad in ({"step": 1e-300}, {"levels": 45}, {"levels": 80}, {"step": 1e300, "levels": 600}):
        with pytest.raises(UsageError):
            OracleConfig(**bad)
    assert OracleConfig(levels=44).levels == 44


@pytest.mark.parametrize(
    "gid, margin", [("sol", 0.05), ("sl2", 1.0), ("h2", 0.3), ("h2xr", 0.3), ("line", 0.05)]
)
def test_sample_points_match_scalar_draws(gid, margin):
    # batched draws with rejection give the points, and leave the generator
    # in the state, of drawing one coordinate at a time
    g = by_id(gid)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        points = sample_points(g, 40, rng, margin)
        ref_rng = np.random.default_rng(seed)
        reference = []
        while len(reference) < 40:
            p = tuple(ref_rng.uniform(lo, hi) for lo, hi in g.sample_box)
            if g.contains(p, margin):
                reference.append(p)
        assert np.array_equal(points, np.array(reference))
        assert rng.uniform() == ref_rng.uniform()


def test_sample_points_respect_domain_margin():
    rng = np.random.default_rng(9)
    for p in sample_points(by_id("h2"), 50, rng, margin=0.05):
        assert math.hypot(*p) < 0.95
    for p in sample_points(by_id("sl2"), 50, rng, margin=0.05):
        assert p[1] > 0.05


def test_oracle_sweep_script_runs_both_sections(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "oracle_sweep.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "sol    x^3*y*E(2)" in out
    assert "chain validation" in out and "nil f2     order=2  tau^1:" in out
    assert out.splitlines()[-1].startswith("worst battery residual: ")
