import math
import statistics

import numpy as np
import pytest

from polyharm.errors import DomainError, UsageError
from polyharm.families import log_biharmonic, nil_biharmonic12
from polyharm.geometries import (
    by_id,
    disc_times_line,
    hyperbolic_disc,
    iterated_tension,
    line,
    nil,
    sl2,
    sol,
)
from polyharm.oracle import (
    OracleConfig,
    conformal_factor_ratio,
    cross_validate,
    fd_tension,
    metric_at,
    sample_points,
)
from polyharm.parser import parse


# -- metric evaluation -----------------------------------------------------------


def test_sol_metric_at_origin_is_euclidean():
    m = metric_at(sol(), (0.4, -0.7, 0.0))
    assert np.allclose(m, np.eye(3))


def test_nil_metric_matches_expanded_form():
    m = metric_at(nil(), (2.0, 0.3, -0.5))
    assert np.allclose(m, [[1, 0, 0], [0, 5, -2], [0, -2, 1]])
    assert np.linalg.det(m) == pytest.approx(1.0)


def test_sl2_metric_matches_expanded_form():
    m = metric_at(sl2(), (0.1, 1.0, 0.2))
    assert np.allclose(m, [[2, 0, 1], [0, 1, 0], [1, 0, 1]])
    assert np.linalg.det(m) == pytest.approx(1.0)


def test_metric_determinant_closed_forms():
    rng = np.random.default_rng(5)
    for p in sample_points(nil(), 20, rng):
        assert np.linalg.det(metric_at(nil(), p)) == pytest.approx(1.0)
    for p in sample_points(sl2(), 20, rng):
        det = np.linalg.det(metric_at(sl2(), p))
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
        metric_at(hyperbolic_disc(), (1.1, 0.0))
    with pytest.raises(DomainError):
        metric_at(sl2(), (0.0, -1.0, 0.0))


# -- fd_tension -------------------------------------------------------------------


def test_fd_tension_of_harmonic_is_near_zero():
    g = sol()
    f = parse("2*x^2 - E(-2)", g.atoms)
    rng = np.random.default_rng(7)
    for p in sample_points(g, 10, rng):
        assert abs(fd_tension(g, f.evaluate, p)) < 1e-6


def test_fd_tension_on_flat_line():
    g = line()
    f = parse("t^2", g.atoms)
    for t in (-0.5, 0.0, 0.7):
        assert fd_tension(g, f.evaluate, (t,)) == pytest.approx(2.0, abs=1e-7)


def test_fd_tension_detects_metric_convention_on_disc():
    # (1 - z zb)^2 d2/dz dzb of -log(1 - z zb) is exactly 1: the oracle sees
    # the metric-derived operator, not the printed factor 4
    g = hyperbolic_disc("metric")
    f = -parse("log1m", g.atoms)
    value = fd_tension(g, f.evaluate, (0.3, 0.0))
    assert value.real == pytest.approx(1.0, abs=1e-6)
    assert abs(value.real - 4.0) > 2.9


def test_fd_tension_handles_complex_values():
    g = sol()
    f = parse("(1+2i)*x^2*t", g.atoms)
    sym = g.tension(f)
    p = (0.3, -0.2, 0.4)
    fd = fd_tension(g, f.evaluate, p)
    assert fd == pytest.approx(sym.evaluate(p), abs=1e-7)


def test_fd_tension_accepts_user_supplied_evaluators():
    # transcendental inputs live outside the term algebra but the oracle
    # only needs a point evaluator: exp(x+iy) is harmonic on nil
    import cmath

    g = nil()

    def f(p):
        return cmath.exp(complex(p[0], p[1])) + 2.0 * p[2]

    rng = np.random.default_rng(11)
    for p in sample_points(g, 10, rng):
        assert abs(fd_tension(g, f, p)) < 1e-6


def test_fd_tension_respects_stencil_domain():
    g = hyperbolic_disc()
    f = parse("z*zb", g.atoms)
    with pytest.raises(DomainError):
        fd_tension(g, f.evaluate, (0.9999, 0.0))


def test_low_degree_polynomials_are_differenced_exactly():
    # degree <= 2 per variable means zero truncation error for the
    # second-order stencils; only roundoff remains at any step size
    g = sol()
    f = parse("x^2*y^2*t^2", g.atoms)
    sym = g.tension(f)
    for p in ((0.3, -0.4, 0.2), (0.9, 0.1, -0.8)):
        coarse = fd_tension(g, f.evaluate, p, OracleConfig(step=5e-2, levels=1))
        assert coarse == pytest.approx(sym.evaluate(p), abs=1e-9)


def test_convergence_is_second_order_before_extrapolation():
    # halving h divides the plain central-difference error by about 4 once
    # the input has nonvanishing fourth derivatives
    g = sol()
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


# -- cross validation ---------------------------------------------------------------


def test_cross_validate_sol_battery_member():
    g = sol()
    report = cross_validate(g, parse("x^3*y*E(2)", g.atoms), OracleConfig(samples=40))
    assert report.within_tolerance
    assert report.points == 40


def test_cross_validate_fails_on_a_nan_residual(monkeypatch):
    import polyharm.oracle as oracle_module

    exact = oracle_module.fd_tension
    points = []

    def nan_at_third_point(geometry, f, point, config):
        points.append(point)
        return math.nan if len(points) == 3 else exact(geometry, f, point, config)

    monkeypatch.setattr(oracle_module, "fd_tension", nan_at_third_point)
    g = line()
    report = cross_validate(g, parse("t^2", g.atoms), OracleConfig(samples=5))
    assert not report.within_tolerance
    assert report.worst_point == points[2]


def test_cross_validate_constant():
    g = nil()
    report = cross_validate(g, parse("1", g.atoms), OracleConfig(samples=10))
    assert report.max_abs <= 1e-9


def test_cross_validate_nil_family_tension_pointwise():
    g = nil()
    f = nil_biharmonic12([1] * 12)
    chain = iterated_tension(g, f, 1)
    report = cross_validate(g, f, OracleConfig(samples=30), symbolic_tension=chain[1])
    assert report.within_tolerance


def test_cross_validate_iterated_layer():
    # second-order check applies one finite-difference layer to the symbolic
    # first tension field, never a nested stencil
    g = sol()
    f = parse("t^4 + x^2*t^2", g.atoms)
    chain = iterated_tension(g, f, 2)
    report = cross_validate(
        g, chain[1], OracleConfig(samples=20), symbolic_tension=chain[2]
    )
    assert report.within_tolerance


def test_cross_validate_log_expression_on_product():
    g = disc_times_line()
    f = parse("t^2*log1m + z*t", g.atoms)
    report = cross_validate(g, f, OracleConfig(samples=30))
    assert report.within_tolerance


def test_conformal_sentinel_ratio_under_paper_convention():
    g = hyperbolic_disc("paper")
    ratios = conformal_factor_ratio(g, parse("z*zb", g.atoms), count=20)
    assert len(ratios) == 20
    assert all(abs(r - 4.0) < 1e-4 for r in ratios)
    # and the log function shows the same factor
    ratios = conformal_factor_ratio(g, log_biharmonic(g), count=20)
    assert all(abs(r - 4.0) < 1e-4 for r in ratios)


def test_metric_convention_has_unit_ratio():
    g = hyperbolic_disc("metric")
    ratios = conformal_factor_ratio(g, parse("z*zb", g.atoms), count=10)
    assert all(abs(r - 1.0) < 1e-6 for r in ratios)


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
    # validates the derived nil and sl2 conformality rules directly against
    # the metric, independently of the symbolic tension field
    import random

    from polyharm.verify import random_expr

    rng = random.Random(42)
    oracle_rng = np.random.default_rng(43)
    for g in (sol(), nil(), sl2()):
        weights = (-2, 0, 2) if g.name == "sol" else (0,)
        for _ in range(5):
            f = random_expr(rng, g.atoms, max_terms=2, weights=weights)
            h = random_expr(rng, g.atoms, max_terms=2, weights=weights)
            sym = g.conformality(f, h)
            for p in sample_points(g, 5, oracle_rng):
                numeric = _fd_conformality(g, f, h, p)
                assert abs(sym.evaluate(p) - numeric) <= 1e-5 * (
                    1 + abs(numeric)
                ), g.name


def test_conformality_of_log_pairs_matches_numeric_pairing():
    # kappa on log-bearing inputs cannot be cross-checked through the
    # product rule (the product leaves the algebra), so check it directly
    g = disc_times_line()
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
        sym = g.conformality(f, h)
        for p in sample_points(g, 8, rng):
            numeric = _fd_conformality(g, f, h, p)
            assert abs(sym.evaluate(p) - numeric) <= 1e-5 * (1 + abs(numeric))
    # and the closed form of the pure log pairing on the disc
    disc = hyperbolic_disc()
    sym = disc.conformality(parse("log1m", disc.atoms), parse("log1m", disc.atoms))
    assert sym == parse("z*zb", disc.atoms)


def test_oracle_config_validation():
    with pytest.raises(UsageError):
        OracleConfig(step=-1.0)
    with pytest.raises(UsageError):
        OracleConfig(levels=0)
    for bad in ({"step": math.nan}, {"step": math.inf}, {"rel_tol": math.nan}, {"samples": 0}):
        with pytest.raises(UsageError):
            OracleConfig(**bad)


def test_sample_points_respect_domain_margin():
    rng = np.random.default_rng(9)
    for p in sample_points(hyperbolic_disc(), 50, rng, margin=0.05):
        assert math.hypot(*p) < 0.95
    for p in sample_points(sl2(), 50, rng, margin=0.05):
        assert p[1] > 0.05
