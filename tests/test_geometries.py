import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm.algebra import LOG_DISC, AtomSet, Expr
from polyharm.errors import ClosureError, UsageError
from polyharm.families import (
    log_biharmonic,
    nil_biharmonic12,
    sol_axis_family,
    sol_h2h3,
    sol_tower,
)
from polyharm.geometries import (
    _CHARTS,
    CONVENTIONS,
    Geometry,
    ProductGeometry,
    by_id,
    classify,
    iterated_tension,
    nil,
    product_tension_binomial,
    sol,
    _first_partials,
)
from polyharm.parser import parse
from polyharm.rationals import GaussianRational
from polyharm.verify import random_expr, random_nonzero_scalar, random_scalar

def _random_pair(rng, geometry, **kwargs):
    f = random_expr(rng, geometry.atoms, **kwargs)
    h = random_expr(rng, geometry.atoms, **kwargs)
    return f, h


def _geometry_cases():
    return [
        (by_id("sol"), {"weights": (-2, -1, 0, 1, 2)}),
        (by_id("nil"), {}),
        (by_id("sl2"), {}),
        (by_id("h2"), {}),
        (by_id("s2p"), {}),
        (by_id("h2xr"), {}),
        (by_id("s2pxr"), {}),
        (by_id("line"), {}),
        (by_id("product:linexline"), {}),
    ]


# -- tension examples ----------------------------------------------------------


def test_sol_tension_kills_harmonic_family():
    g = by_id("sol")
    assert g.tension(parse("2*x^2 - E(-2)", g.atoms)).is_zero()
    assert g.tension(parse("2*x^3 - 3*x*E(-2)", g.atoms)).is_zero()


def test_sol_tension_of_constant():
    g = by_id("sol")
    assert g.tension(Expr.constant(g.atoms, 7)).is_zero()


def test_nil_tension_of_y2t():
    g = by_id("nil")
    b11 = random_nonzero_scalar(random.Random(3))
    f = b11 * parse("y^2*t", g.atoms)
    assert g.tension(f) == 2 * (b11 * parse("t + 2*x*y", g.atoms))


def test_sl2_tension_of_xt2():
    g = by_id("sl2")
    b3 = random_nonzero_scalar(random.Random(4))
    f = b3 * parse("x*t^2", g.atoms)
    assert g.tension(f) == 4 * (b3 * parse("x - y*t", g.atoms))


def test_disc_tension_of_log_under_both_conventions():
    paper = by_id("h2", "paper")
    f = -Expr.log(paper.atoms)
    assert paper.tension(f) == Expr.constant(paper.atoms, 4)
    metric = by_id("h2", "metric")
    assert metric.tension(-Expr.log(metric.atoms)) == Expr.constant(metric.atoms, 1)


def test_sphere_tension_of_log_under_both_conventions():
    paper = by_id("s2p", "paper")
    f = Expr.log(paper.atoms)
    assert paper.tension(f) == Expr.constant(paper.atoms, 4)


# -- conformality examples -------------------------------------------------------


def test_sol_conformality_of_tower_prefactor_vanishes():
    g = by_id("sol")
    f1 = parse("1 + 2*x + 3*y + 4*x*y", g.atoms)
    for r in (1, 2, 5):
        tr = Expr.monomial(g.atoms, 1, {"t": r})
        assert g.conformality(tr, f1).is_zero()


def test_sol_conformality_of_h2_h3_pair():
    g = by_id("sol")
    rng = random.Random(11)
    for _ in range(10):
        a2, a3 = random_scalar(rng), random_scalar(rng)
        b2, b3 = random_scalar(rng), random_scalar(rng)
        if (a2.is_zero() and a3.is_zero()) or (b2.is_zero() and b3.is_zero()):
            continue
        h2 = a2 * sol_axis_family(2, "x", g) + a3 * sol_axis_family(3, "x", g)
        h3 = b2 * sol_axis_family(2, "y", g) + b3 * sol_axis_family(3, "y", g)
        x = Expr.variable(g.atoms, "x")
        y = Expr.variable(g.atoms, "y")
        expected = -4 * (
            (Expr.constant(g.atoms, a2) + 3 * (a3 * x))
            * (Expr.constant(g.atoms, b2) + 3 * (b3 * y))
        )
        assert g.conformality(h2, h3) == expected


def test_conformality_with_constant_vanishes():
    rng = random.Random(5)
    for geometry, kwargs in _geometry_cases():
        f = random_expr(rng, geometry.atoms, **kwargs)
        one = Expr.constant(geometry.atoms, 1)
        assert geometry.conformality(f, one).is_zero()


def test_disc_line_conformality_log_cases():
    g = by_id("h2xr")
    atoms = g.atoms
    t = Expr.variable(atoms, "t")
    log = Expr.log(atoms)
    assert g.conformality(log, t).is_zero()
    # kappa(t*L, L) = t * kappa(L, L) = c * t * z * zb  (metric: c = 1)
    u = Expr.variable(atoms, "z") * Expr.variable(atoms, "zb")
    assert g.conformality(t * log, log) == t * u


# -- iterated tension and classification -------------------------------------------


def test_iterated_tension_of_product_family():
    g = by_id("sol")
    h = sol_h2h3(1, 1, 1, 1)
    chain = iterated_tension(g, h, 2)
    assert chain[1] == g.tension(h)
    assert not chain[1].is_zero()
    assert chain[2].is_zero()


def test_iterated_tension_of_harmonic_is_all_zero():
    g = by_id("sol")
    chain = iterated_tension(g, parse("2*x^2 - E(-2)", g.atoms), 4)
    assert all(e.is_zero() for e in chain[1:])


def test_iterated_tension_of_t_fourth():
    g = by_id("sol")
    chain = iterated_tension(g, parse("t^4", g.atoms), 3)
    assert [str(e) for e in chain] == ["t^4", "12*t^2", "24", "0"]


def test_classify_nil_family_with_unit_parameters():
    g = by_id("nil")
    report = classify(g, nil_biharmonic12([1] * 12))
    assert report.order == 2


def test_classify_zero_function():
    g = by_id("sol")
    report = classify(g, Expr.zero(g.atoms))
    assert report.order == 0
    assert report.chain == (report.expr,)
    assert report.describe() == "zero function"


def test_classify_shifted_tower():
    g = by_id("sol")
    f = sol_tower(2, [1, 2, 3, 4], [5, 6, 7, 8])
    report = classify(g, f)
    assert report.order == 2
    f1 = parse("1 + 2*x + 3*y + 4*x*y", g.atoms)
    f2 = parse("5 + 6*x + 7*y + 8*x*y", g.atoms)
    t = Expr.variable(g.atoms, "t")
    assert report.chain[1] == 2 * f1 + 6 * (t * f2)


def test_classify_exceeds_bound():
    g = by_id("sol")
    report = classify(g, parse("x^2*y^2", g.atoms), r_max=3)
    assert report.order is None


def test_classify_respects_definition_edges():
    g = by_id("sol")
    report = classify(g, parse("t^4", g.atoms))
    assert report.order == 3
    assert report.chain[report.order].is_zero()
    assert not report.chain[report.order - 1].is_zero()


# -- products ------------------------------------------------------------------------


def test_disc_times_line_matches_builtin_product_chart():
    rng = random.Random(12)
    g = by_id("h2xr")
    pieces = ProductGeometry(by_id("h2"), by_id("line"))
    for _ in range(20):
        f = random_expr(rng, g.atoms, allow_log=True)
        assert pieces.tension(f) == g.tension(f)


def test_flat_plane_tension():
    g = by_id("product:linexline")
    f = parse("s^2*t + t^3", g.atoms)
    assert g.tension(f) == parse("2*t + 6*t", g.atoms)


# -- the chart catalogue ---------------------------------------------------------------


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("gid", list(_CHARTS))
def test_every_catalogue_id_builds_its_named_chart(gid, convention):
    assert by_id(gid, convention).name == gid


@pytest.mark.parametrize("gid", list(_CHARTS))
def test_by_id_rejects_an_unknown_convention(gid):
    with pytest.raises(UsageError, match="unknown convention"):
        by_id(gid, "bogus")


def test_every_product_id_builds_or_is_a_usage_error():
    built = set()
    for left in _CHARTS:
        for right in _CHARTS:
            try:
                g = by_id(f"product:{left}x{right}")
            except UsageError:
                continue
            assert isinstance(g, ProductGeometry)
            built.add((left, right))
    assert ("nil", "h2") in built and ("line", "line") in built
    assert ("h2", "h2") not in built  # the factors share z and zb


def test_readme_geometry_ids_are_the_catalogue():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme.split("`--geometry` ids:", 1)[1].split("`product:", 1)[0]
    assert re.findall(r"`(\w+)`", listing) == list(_CHARTS)


def test_sol_and_nil_factories_build_the_catalogue_charts():
    for factory, gid in ((sol, "sol"), (nil, "nil")):
        g = factory()
        assert (g.name, g.table) == (gid, by_id(gid).table)


def test_product_rejects_variable_collision():
    with pytest.raises(UsageError):
        ProductGeometry(by_id("line"), by_id("line"))


def test_cross_factor_conformality_vanishes_on_separable_pairs():
    rng = random.Random(13)
    g = by_id("h2xr")
    for _ in range(25):
        f1 = random_expr(rng, g.atoms, variables=("z", "zb"))
        f2 = random_expr(rng, g.atoms, variables=("t",))
        assert g.conformality(f1, f2).is_zero()


def test_binomial_expansion_n1_is_the_product_rule():
    rng = random.Random(14)
    g = by_id("h2xr")
    for _ in range(10):
        f1 = random_expr(rng, g.atoms, variables=("z", "zb"))
        f2 = random_expr(rng, g.atoms, variables=("t",))
        lhs = g.tension(f1 * f2)
        rhs = product_tension_binomial(g.first, f1, g.second, f2, 1)
        assert lhs == rhs
        assert rhs == g.first.tension(f1) * f2 + f1 * g.second.tension(f2)


def test_binomial_expansion_biharmonic_pair():
    g = by_id("product:linexline")
    f1 = parse("s^3 + s", g.atoms)
    f2 = parse("t^2 - 1", g.atoms)
    tau2 = product_tension_binomial(g.first, f1, g.second, f2, 2)
    expected = 2 * (g.first.tension(f1) * g.second.tension(f2))
    assert tau2 == expected
    assert not tau2.is_zero()
    assert product_tension_binomial(g.first, f1, g.second, f2, 3).is_zero()
    assert classify(g, f1 * f2).order == 3


def test_binomial_expansion_matches_direct_iteration_up_to_4():
    rng = random.Random(15)
    for gid in ("product:linexline", "h2xr"):
        g = by_id(gid)
        first_vars = g.first.atoms.variables
        second_vars = g.second.atoms.variables
        for _ in range(15):
            f1 = random_expr(rng, g.atoms, variables=first_vars, allow_log=(gid == "h2xr"))
            f2 = random_expr(rng, g.atoms, variables=second_vars)
            chain = iterated_tension(g, f1 * f2, 4)
            for n in range(1, 5):
                assert chain[n] == product_tension_binomial(
                    g.first, f1, g.second, f2, n
                )


# -- operator laws -----------------------------------------------------------------


def test_product_rule_on_every_geometry():
    rng = random.Random(16)
    for geometry, kwargs in _geometry_cases():
        for _ in range(15):
            f, h = _random_pair(rng, geometry, **kwargs)
            lhs = geometry.tension(f * h)
            rhs = (
                geometry.tension(f) * h
                + 2 * geometry.conformality(f, h)
                + f * geometry.tension(h)
            )
            assert lhs == rhs, geometry.name


def test_product_rule_with_log_factor():
    g = by_id("h2xr")
    atoms = g.atoms
    t = Expr.variable(atoms, "t")
    log = Expr.log(atoms)
    f = t * t * log  # t^2 L
    h = t
    lhs = g.tension(f * h)
    rhs = g.tension(f) * h + 2 * g.conformality(f, h) + f * g.tension(h)
    assert lhs == rhs


def test_tension_is_linear():
    rng = random.Random(17)
    for geometry, kwargs in _geometry_cases():
        f, h = _random_pair(rng, geometry, **kwargs)
        alpha, beta = random_scalar(rng), random_scalar(rng)
        assert geometry.tension(alpha * f + beta * h) == alpha * geometry.tension(
            f
        ) + beta * geometry.tension(h)


def test_conformality_is_symmetric_and_bilinear():
    rng = random.Random(18)
    for geometry, kwargs in _geometry_cases():
        f, h = _random_pair(rng, geometry, **kwargs)
        k = random_expr(rng, geometry.atoms, **kwargs)
        alpha = random_scalar(rng)
        assert geometry.conformality(f, h) == geometry.conformality(h, f)
        assert geometry.conformality(alpha * f + k, h) == alpha * geometry.conformality(
            f, h
        ) + geometry.conformality(k, h)


def test_operator_rejects_foreign_algebra():
    g = by_id("sol")
    with pytest.raises(UsageError):
        g.tension(parse("z", by_id("h2").atoms))


# -- convention covariance ------------------------------------------------------------


def test_paper_convention_is_four_times_metric_on_surface():
    rng = random.Random(19)
    paper = by_id("h2", "paper")
    metric = by_id("h2", "metric")
    for _ in range(15):
        f = random_expr(rng, metric.atoms, allow_log=True)
        assert paper.tension(f) == 4 * metric.tension(f)


def test_paper_convention_z_part_scaling_on_product():
    rng = random.Random(20)
    paper = by_id("h2xr", "paper")
    metric = by_id("h2xr", "metric")
    for _ in range(15):
        f = random_expr(rng, metric.atoms, allow_log=True)
        z_part = metric.first.tension(f)
        t_part = metric.second.tension(f)
        assert metric.tension(f) == z_part + t_part
        assert paper.tension(f) == 4 * z_part + t_part


def test_conformal_log_orders_agree_under_both_conventions():
    for gid in ("h2", "s2p"):
        orders = set()
        for convention in ("metric", "paper"):
            g = by_id(gid, convention)
            orders.add(classify(g, log_biharmonic(g)).order)
        assert orders == {2}


# -- raw partials against the per-partial reference ---------------------------------


def _reference_tension(g, f):
    """tau f with every first and second partial canonicalised as an Expr
    before one Expr.combine, as tension was computed before raw partials."""
    g._require(f)
    free, logc = f.split_log()
    conformal = f.atoms.conformal or ()
    first, second, parts = {}, {}, []
    for c, p, weight, i, j in g.table:
        powers = f.atoms.exponents(p)
        if (i, j) not in second:
            if j not in first:
                first[j] = (free if j in conformal else f).differentiate(j)
            second[i, j] = first[j].differentiate(i)
        parts.append((c, powers, weight, second[i, j].terms))
    if logc is not None and g.log_rule is not None:
        rule = g.log_rule
        parts.append((rule.sign * rule.factor, (0,) * len(f.atoms.variables), 0, logc.terms))
    return Expr.combine(f.atoms, parts)


def _tension_outcome(tension, g, f):
    try:
        return ("ok", tension(g, f))
    except ClosureError as exc:
        return (ClosureError, str(exc))


# sol, nil and sl2 also act on a chart where (x, y) is a conformal pair with a
# log atom, where a mixed partial of a log term leaves the algebra
_XY_LOG = AtomSet(("x", "y", "t"), exp_var="t", log_kind=LOG_DISC, conformal=("x", "y"))
_TENSION_CASES = [(gid, "metric", None) for gid in (*_CHARTS, "product:nilxh2",
                                                     "product:solxs2p", "product:linexline")]
_TENSION_CASES += [(gid, "paper", None) for gid in ("h2", "s2p", "h2xr", "s2pxr")]
_TENSION_CASES += [(gid, "metric", _XY_LOG) for gid in ("sol", "nil", "sl2")]


@settings(max_examples=150)
@given(st.sampled_from(_TENSION_CASES), st.randoms(use_true_random=False))
def test_raw_partial_tension_matches_per_partial_reference(case, rng):
    gid, convention, atoms = case
    g = by_id(gid, convention)
    atoms = atoms or g.atoms
    f = random_expr(rng, atoms, max_terms=4, max_power=3,
                    weights=(-2, -1, 0, 1, 2) if atoms.exp_var else (0,),
                    allow_log=atoms.log_kind is not None)
    got = _tension_outcome(type(g).tension, g, f)
    assert got == _tension_outcome(_reference_tension, g, f)


def _reference_conformality(g, f, h):
    """kappa(f, h) with the first-partial products formed once per table
    entry, as conformality was computed before it read the compiled groups."""
    g._require(f)
    g._require(h)
    (fp, fa), (hp, ha) = f.split_log(), h.split_log()
    df = _first_partials(f, fp)
    dh = _first_partials(h, hp)
    parts = []
    for c, p, weight, i, j in g.table:
        powers = f.atoms.exponents(p)
        if i == j:
            parts.append((c, powers, weight, (df(i) * dh(i)).terms))
        else:
            half = GaussianRational.coerce(c) / 2
            parts.append((half, powers, weight, (df(i) * dh(j)).terms))
            parts.append((half, powers, weight, (df(j) * dh(i)).terms))
    if g.log_rule is not None:
        parts.extend(g.log_rule.log_conformality_parts(f.atoms, fa, ha, df, dh))
    return Expr.combine(f.atoms, parts)


def _kappa_outcome(kappa, g, f, h):
    try:
        return ("ok", kappa(g, f, h))
    except ClosureError as exc:
        return (ClosureError, str(exc))


_CONFORMALITY_CASES = [(gid, convention, None) for gid in (*_CHARTS, "product:nilxh2",
                       "product:solxs2p", "product:linexline") for convention in CONVENTIONS]
_CONFORMALITY_CASES += [(gid, "metric", _XY_LOG) for gid in ("sol", "nil", "sl2")]


@settings(max_examples=200)
@given(st.sampled_from(_CONFORMALITY_CASES), st.randoms(use_true_random=False))
def test_conformality_matches_the_per_entry_reference(case, rng):
    gid, convention, atoms = case
    g = by_id(gid, convention)
    atoms = atoms or g.atoms
    f, h = (random_expr(rng, atoms, max_terms=4, max_power=3,
                        weights=(-2, -1, 0, 1, 2) if atoms.exp_var else (0,),
                        allow_log=atoms.log_kind is not None) for _ in range(2))
    got = _kappa_outcome(type(g).conformality, g, f, h)
    assert got == _kappa_outcome(_reference_conformality, g, f, h)


@pytest.mark.parametrize("gid", ["h2", "s2p", "h2xr", "s2pxr", "product:nilxh2"])
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_conformality_of_log_pairs_matches_the_per_entry_reference(gid, convention):
    g = by_id(gid, convention)
    log = g.atoms.log_kind
    texts = [log, f"2*{log} + z*zb^2", f"z^2 - 1/3*{log}"]
    if "t" in g.atoms.variables:
        texts += [f"t*{log}", f"t^2*{log} - z*t", f"(1+1i)*t*{log} + {log}"]
    for f, h in ((parse(a, g.atoms), parse(b, g.atoms)) for a in texts for b in texts):
        got = _kappa_outcome(type(g).conformality, g, f, h)
        assert got == _kappa_outcome(_reference_conformality, g, f, h)
    if "t" in g.atoms.variables:  # kappa(t L, t L) carries L^2
        with pytest.raises(ClosureError, match="log atom squared"):
            g.conformality(parse(f"t*{log}", g.atoms), parse(f"t*{log}", g.atoms))


def test_raw_partial_tension_raises_the_reference_closure_errors():
    # nil's y-t and sl2's x-t entries differentiate d_t(t^2 L) = 2t L in y or x
    f = parse("t^2*log1m", _XY_LOG)
    for g in (by_id("nil"), by_id("sl2")):
        for tension in (_reference_tension, type(g).tension):
            with pytest.raises(ClosureError, match="handled by the geometry operators"):
                tension(g, f)


# -- the per-term kernel's branches ---------------------------------------------------


@pytest.mark.parametrize("g", [by_id("nil"), by_id("sl2")], ids=["nil", "sl2"])
def test_log_term_leaves_a_mixed_entry_only_when_its_t_partial_is_nonzero(g):
    # nil's y-t and sl2's x-t entries take d_t first: d_t(log1m) = 0 stays in
    # the algebra, d_t(t L) = L and d_t(E(1) L) = E(1) L do not
    f = parse("log1m", _XY_LOG)
    assert g.tension(f) == _reference_tension(g, f)
    for text in ("t*log1m", "E(1)*log1m", "t^2*E(1)*log1m"):
        with pytest.raises(ClosureError, match="handled by the geometry operators"):
            g.tension(parse(text, _XY_LOG))


def _sol_t_part(k, w):
    """(k(k-1) t^(k-2) + 2kw t^(k-1) + w^2 t^k) E(w), written out by hand."""
    text = f"{w * w}*t^{k}*E({w})"
    if k >= 1:
        text += f" + ({2 * k * w})*t^{k - 1}*E({w})"
    if k >= 2:
        text += f" + {k * (k - 1)}*t^{k - 2}*E({w})"
    return text


@pytest.mark.parametrize("w", [-3, -2, -1, 1, 2, 3])
@pytest.mark.parametrize("k", range(5))
def test_sol_tension_of_t_power_times_exponential(k, w):
    g = by_id("sol")
    assert g.tension(parse(f"t^{k}*E({w})", g.atoms)) == parse(_sol_t_part(k, w), g.atoms)


@pytest.mark.parametrize("a, b, k, w", [(2, 3, 1, -1), (3, 2, 2, 2), (4, 0, 3, 1),
                                        (0, 5, 0, -3), (1, 1, 4, 2), (2, 2, 2, 0)])
def test_sol_tension_of_xy_monomial_times_exponential(a, b, k, w):
    g = by_id("sol")
    x_part = f"{a * (a - 1)}*x^{max(a - 2, 0)}*y^{b}*t^{k}*E({w - 2})"
    y_part = f"{b * (b - 1)}*x^{a}*y^{max(b - 2, 0)}*t^{k}*E({w + 2})"
    t_part = f"x^{a}*y^{b}*({_sol_t_part(k, w)})"
    expected = parse(f"{x_part} + {y_part} + {t_part}", g.atoms)
    assert g.tension(parse(f"x^{a}*y^{b}*t^{k}*E({w})", g.atoms)) == expected


@pytest.mark.parametrize("a, b, k, w", [(2, 3, 1, -1), (1, 2, 3, 2), (3, 1, 0, 3), (0, 2, 2, -2)])
def test_mixed_entries_on_an_exponential_t_match_the_written_operators(a, b, k, w):
    # nil's y-t and sl2's x-t entries with j = t the exp variable: d_t lowers
    # t and multiplies by w, then d_y or d_x lowers y or x
    atoms = AtomSet(("x", "y", "t"), exp_var="t")
    f = parse(f"x^{a}*y^{b}*t^{k}*E({w})", atoms)
    x, y, one_x2 = (parse(text, atoms) for text in ("x", "y", "1 + x^2"))

    def d(u, v):
        return f.differentiate(v).differentiate(u)

    assert by_id("nil").tension(f) == d("x", "x") + d("y", "y") + 2 * x * d("y", "t") + one_x2 * d("t", "t")
    assert by_id("sl2").tension(f) == y * y * (d("x", "x") + d("y", "y")) + 2 * d("t", "t") - 2 * y * d("x", "t")
    # no chart lists t first in a mixed entry; a probe table does
    probe = Geometry("probe", atoms, ((-1.0, 1.0),) * 3, ((3, {"x": 1}, 1, "t", "y"),))
    assert probe.tension(f) == 3 * x * parse("E(1)", atoms) * d("t", "y")


@settings(max_examples=20)
@given(st.randoms(use_true_random=False))
@pytest.mark.parametrize("case", _TENSION_CASES,
                         ids=lambda c: f"{c[0]}-{c[1]}" + ("-xylog" if c[2] else ""))
def test_tension_matches_the_reference_at_higher_degree(case, rng):
    gid, convention, atoms = case
    g = by_id(gid, convention)
    atoms = atoms or g.atoms
    f = random_expr(rng, atoms, max_terms=8, max_power=6,
                    weights=range(-3, 4) if atoms.exp_var else (0,),
                    allow_log=atoms.log_kind is not None)
    assert _tension_outcome(type(g).tension, g, f) == _tension_outcome(_reference_tension, g, f)
