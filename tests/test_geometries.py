import itertools
import math
import random
import re
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyharm.geometries as geometries_module
from polyharm.algebra import (
    _LOG_DERIVATIVE_REFUSED, LOG_DISC, AtomSet, Expr, Term, _canonical, _validated,
)
from polyharm.errors import ClosureError, UsageError
from polyharm.families import (
    AnsatzSystem,
    generate_kernel,
    log_biharmonic,
    nil_biharmonic12,
    sol_axis_basis,
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
)
from polyharm.linalg import ExactMatrix, nullspace
from polyharm.parser import parse
from polyharm.rationals import ONE, GaussianRational
from polyharm.verify import random_expr, random_nonzero_scalar, random_scalar

from conftest import combine, conformality, first_partials, log_conformality_parts, split_log

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
        assert conformality(g, tr, f1).is_zero()


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
        assert conformality(g, h2, h3) == expected


def test_conformality_with_constant_vanishes():
    rng = random.Random(5)
    for geometry, kwargs in _geometry_cases():
        f = random_expr(rng, geometry.atoms, **kwargs)
        one = Expr.constant(geometry.atoms, 1)
        assert conformality(geometry, f, one).is_zero()


def test_disc_line_conformality_log_cases():
    g = by_id("h2xr")
    atoms = g.atoms
    t = Expr.variable(atoms, "t")
    log = Expr.log(atoms)
    assert conformality(g, log, t).is_zero()
    # kappa(t*L, L) = t * kappa(L, L) = c * t * z * zb  (metric: c = 1)
    u = Expr.variable(atoms, "z") * Expr.variable(atoms, "zb")
    assert conformality(g, t * log, log) == t * u


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
        assert conformality(g, f1, f2).is_zero()


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
                + 2 * conformality(geometry, f, h)
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
    rhs = g.tension(f) * h + 2 * conformality(g, f, h) + f * g.tension(h)
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
        assert conformality(geometry, f, h) == conformality(geometry, h, f)
        assert conformality(geometry, alpha * f + k, h) == alpha * conformality(
            geometry, f, h
        ) + conformality(geometry, k, h)


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
    before one combine, as tension was computed before raw partials."""
    g._require(f)
    free, logc = split_log(f)
    conformal = f.atoms.conformal or ()
    first, second, parts = {}, {}, []
    for c, p, weight, i, j in g.table:
        powers = f.atoms.exponents(p)
        if (i, j) not in second:
            if j not in first:
                first[j] = (free if j in conformal else f).differentiate(j)
            second[i, j] = first[j].differentiate(i)
        parts.append((c, powers, weight, second[i, j].terms))
    if logc is not None and g.log_tension is not None:
        parts.append((g.log_tension, (0,) * len(f.atoms.variables), 0, logc.terms))
    return combine(f.atoms, parts)


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
    assert got[0] != "ok" or all(type(t) is Term for t in got[1].terms)


def _generic_raw_tension(g, atoms, terms):
    """tau's raw terms by the generic loop over the compiled groups, as tau
    was emitted before its emission was generated: the reference."""
    raw = []
    for i, j, same, i_exp, j_exp, i_conf, j_conf, entries in g._kernel(atoms)[0]:
        for coeff, powers, w, logp in terms:
            if logp and j_conf:
                continue
            a_i, a_j = powers[i], powers[j]
            if logp and i_conf and (a_j or j_exp and w):
                raise ClosureError(_LOG_DERIVATIVE_REFUSED)
            outs = [(a_j * (a_i - same), 0)]
            if w and j_exp:
                outs.append(((1 + same) * a_i * w, 1))
                if same:
                    outs.append((w * w, 3))
            elif w and i_exp:
                outs.append((a_j * w, 2))
            for m, k in outs:
                if m:
                    for c, we, shifts in entries:
                        raw.append((coeff * (m * c), tuple(map(add, powers, shifts[k])),
                                    w + we, logp))
    if g.log_tension is not None:
        s = g.log_tension
        raw.extend((coeff * s, powers, w, 0) for coeff, powers, w, logp in terms if logp)
    return raw


def _reference_map(g, atoms, terms):
    """tau's {signature: coefficient} map, merged from the generic loop's raw
    terms by the closure-checked canonicalisation."""
    canonical = _canonical(atoms, _generic_raw_tension(g, atoms, terms), check=True)
    return {t.signature(): t.coeff for t in canonical}


def _one_column_map(g, atoms, terms):
    """tau's map of the one column ``terms``, keyed by signature."""
    return {key[1:]: c for key, c in g._tension_map(atoms, ((0, terms),)).items()}


def _map_outcome(tau, g, atoms, terms):
    """The map with each coefficient's type, or the ClosureError text."""
    try:
        return {key: (type(c), c) for key, c in tau(g, atoms, terms).items()}
    except ClosureError as exc:
        return (ClosureError, str(exc))


def _assert_normal_form(tau):
    for c in tau.values():
        assert type(c) is GaussianRational and c
        assert c.d > 0 and math.gcd(c.a, c.b, c.d) == 1, (c.a, c.b, c.d)


@settings(max_examples=300)
@given(st.sampled_from(_TENSION_CASES), st.randoms(use_true_random=False))
def test_generated_emission_matches_the_generic_loop(case, rng):
    gid, convention, atoms = case
    g = by_id(gid, convention)
    atoms = atoms or g.atoms
    f = random_expr(rng, atoms, max_terms=6, max_power=4,
                    weights=(-2, -1, 0, 1, 2) if atoms.exp_var else (0,),
                    allow_log=atoms.log_kind is not None)
    got = _map_outcome(_one_column_map, g, atoms, f.terms)
    assert got == _map_outcome(_reference_map, g, atoms, f.terms)


# coprime denominators whose product has more than 64 bits
_BIG_DENOMINATORS = (2**61 - 1, 10**9 + 7, 998244353, 3**20, 2**31)


@settings(max_examples=200)
@given(st.sampled_from(_TENSION_CASES), st.randoms(use_true_random=False))
def test_tension_map_is_in_normal_form_over_large_coprime_denominators(case, rng):
    gid, convention, atoms = case
    g = by_id(gid, convention)
    atoms = atoms or g.atoms
    f = random_expr(rng, atoms, max_terms=6, max_power=4,
                    weights=(-2, -1, 0, 1, 2) if atoms.exp_var else (0,),
                    allow_log=atoms.log_kind is not None)
    terms = [(c * GaussianRational(Fraction(rng.randint(-9, 9) or 1, rng.choice(_BIG_DENOMINATORS)),
                                   rng.choice((0, Fraction(1, rng.choice(_BIG_DENOMINATORS))))),
              p, w, logp) for c, p, w, logp in f.terms]
    got = _map_outcome(_one_column_map, g, atoms, terms)
    assert got == _map_outcome(_reference_map, g, atoms, terms)
    if type(got) is dict:
        _assert_normal_form(_one_column_map(g, atoms, terms))


@pytest.mark.parametrize("gid, convention, text, want", [
    # harmonic inputs over large denominators: every numerator sum cancels
    ("nil", "metric", "1/2305843009213693951*x^2 - 1/2305843009213693951*y^2", "0"),
    ("sol", "metric", "(1/998244353+1/7i)*x*y - 1/1000000007*t", "0"),
    ("h2", "paper", "1/3486784401*z^5 + (2/1000000007-1i)*zb^3", "0"),
    ("product:linexline", "metric", "1/2147483648*s*t - 3/1000000007*s", "0"),
    # partial cancellation: the sums reduce to smaller denominators
    ("nil", "metric", "1/6*x^2 + 1/3*y^2 + 1/3*t^2", "2/3*x^2 + 5/3"),
    ("h2", "metric", "1/6*z*zb + 1/3*log1m", "1/6*z^2*zb^2 - 1/3*z*zb - 1/6"),
    ("s2p", "paper", "(1/4+1/4i)*log1p", "(1+1i)"),
])
def test_tension_map_reduces_cancelling_sums(gid, convention, text, want):
    g = by_id(gid, convention)
    f = parse(text, g.atoms)
    tau = _one_column_map(g, g.atoms, f.terms)
    _assert_normal_form(tau)
    assert tau == _reference_map(g, g.atoms, f.terms)
    assert str(g.tension(f)) == want


def test_generated_emission_scales_a_user_table_to_integer_numerators(monkeypatch):
    sources = []
    compiled = geometries_module._compiled
    monkeypatch.setattr(geometries_module, "_compiled",
                        lambda source: sources.append(source) or compiled(source))
    atoms = AtomSet(("x", "y", "t"), exp_var="t")
    half, gauss = Fraction(1, 2), GaussianRational(Fraction(2, 3), -1)
    user = Geometry("user", atoms, ((-1.0, 1.0),) * 3,
                    ((half, {}, 0, "x", "x"), (gauss, {"x": 1}, -1, "y", "t"),
                     (2, {"y": 2}, 0, "t", "t")))
    f = parse("x^3*y^2*t^2*E(2) + (1/3+2i)*x*y*E(-1) + t^3", atoms)
    tau = _one_column_map(user, atoms, f.terms)
    assert tau == _reference_map(user, atoms, f.terms)
    _assert_normal_form(tau)
    assert user._kernel(atoms)[1] == 6  # the table denominator: 1/2 and (2/3 - i)
    x, y = (parse(v, atoms) for v in ("x", "y"))

    def d(u, v):
        return f.differentiate(v).differentiate(u)

    e = parse("E(-1)", atoms)
    assert user.tension(f) == half * d("x", "x") + gauss * x * e * d("y", "t") + 2 * y * y * d("t", "t")
    [source] = sources
    assert "/" not in source and "Fraction" not in source and "Gaussian" not in source
    assert "* 3" in source and "* -6" in source  # 1/2 = 3/6 and (2/3 - i) = (4 - 6i)/6


def _merged_rows(atoms, columns):
    """The raw terms of the columns merged by signature: one row {column: value}
    per signature with a nonzero value, sorted, each signature validated once;
    the ansatz rows as they were built from raw tension columns."""
    merged = {}
    for j, raw in enumerate(columns):
        for coeff, powers, weight, logp in raw:
            if coeff:
                row = merged.setdefault((logp, weight, powers), {})
                row[j] = row[j] + coeff if j in row else coeff
    rows = []
    for logp, weight, powers in sorted(merged):
        row = {j: c for j, c in merged[logp, weight, powers].items() if c}
        if row:
            _validated(atoms, Term(None, powers, weight, logp))
            rows.append(row)
    return ExactMatrix(len(rows), len(columns), tuple(rows))


@pytest.mark.parametrize("gid, convention", [("nil", "metric"), ("sl2", "metric"),
                                             ("h2xr", "paper"), ("s2pxr", "metric"),
                                             ("product:nilxh2", "metric"), ("sol", "metric")])
@pytest.mark.parametrize("order", [1, 2])
def test_ansatz_rows_are_the_merged_rows_of_the_reference(gid, convention, order):
    g = by_id(gid, convention)
    atoms, rng = g.atoms, random.Random(f"ansatz-rows-{gid}-{order}")
    log = atoms.log_kind
    signatures = {(0, rng.choice((-2, 0, 3)) if atoms.exp_var else 0,
                   tuple(rng.randint(0, 3) for _ in atoms.variables)) for _ in range(14)}
    if log:
        signatures |= {(1, 0, tuple(k if v == "t" else 0 for v in atoms.variables))
                       for k in range(3)}
    basis = [Expr(atoms, (Term(random_nonzero_scalar(rng) / rng.choice((1, 3, 10**9 + 7)),
                               powers, w, logp),)) for logp, w, powers in sorted(signatures)]
    system = AnsatzSystem.build(g, basis, order)
    images, matrices = [b.terms for b in system.basis], []
    for _ in range(order):
        matrices.append(_merged_rows(atoms, [_generic_raw_tension(g, atoms, c) for c in images]))
        images = [_canonical(atoms, _generic_raw_tension(g, atoms, c), check=True) for c in images]
    for got, want in ((system.matrix, matrices[0]), (system.order_matrix, matrices[-1])):
        assert (got.rows, got.cols, got.row_maps) == (want.rows, want.cols, want.row_maps)
    assert system.matrix.rows > 0


# -- tau over columns: one map for many term lists ------------------------------------


def _columns_outcome(g, atoms, columns):
    """The column-tagged map with each coefficient's type, or the ClosureError text."""
    try:
        return {key: (type(c), c) for key, c in g._tension_map(atoms, columns).items()}
    except ClosureError as exc:
        return (ClosureError, str(exc))


def _reference_columns(g, atoms, columns):
    """``_reference_map`` of each column, tagged by its column, with the error
    precedence of one emission over every column: a refusal inside the generic
    loop of any column wins over a failed closure check, and among either kind
    the first column in the order given wins."""
    tagged, refused, failed = {}, None, None
    for col, terms in columns:
        try:
            raw = _generic_raw_tension(g, atoms, terms)
        except ClosureError as exc:
            refused = refused or str(exc)
            continue
        try:
            canonical = _canonical(atoms, raw, check=True)
        except ClosureError as exc:
            failed = failed or str(exc)
            continue
        tagged.update({(col, *t.signature()): (type(t.coeff), t.coeff) for t in canonical})
    return (ClosureError, refused or failed) if refused or failed else tagged


@settings(max_examples=150)
@given(st.sampled_from(_TENSION_CASES), st.randoms(use_true_random=False))
def test_column_tagged_map_is_the_reference_map_of_each_column(case, rng):
    gid, convention, atoms = case
    g = by_id(gid, convention)
    atoms = atoms or g.atoms
    options = dict(max_terms=4, max_power=3, allow_log=atoms.log_kind is not None,
                   weights=(-2, -1, 0, 1, 2) if atoms.exp_var else (0,))
    shared, columns = random_expr(rng, atoms, **options), []
    # distinct tags in any order; a column is empty, a multiple of one shared
    # expression (so columns share output signatures) or its own draw
    for col in rng.sample(range(12), rng.randint(1, 6)):
        kind = rng.choice(("empty", "shared", "own"))
        f = (Expr.zero(atoms) if kind == "empty" else random_scalar(rng) * shared
             if kind == "shared" else random_expr(rng, atoms, **options))
        scale = GaussianRational(Fraction(1, rng.choice((1, 3, *_BIG_DENOMINATORS))))
        columns.append((col, [(c * scale, p, w, logp) for c, p, w, logp in f.terms]))
    got = _columns_outcome(g, atoms, columns)
    assert got == _reference_columns(g, atoms, columns)
    if type(got) is dict:
        _assert_normal_form(g._tension_map(atoms, columns))


# atoms with a conformal pair and a log atom but no E; the table is not closed:
# its x-t entry refuses t L inside the emission, and after it the check refuses
# tau(t^2) = 2 t^-1 (the t^-1 t-t entry) and tau(y^2) = 2 E(1) (the E(1) y-y entry)
_NO_E_LOG = AtomSet(("x", "y", "t"), log_kind=LOG_DISC, conformal=("x", "y"))
_TWO_CHECKS = ((1, {}, 0, "x", "t"), (1, {"t": -1}, 0, "t", "t"), (1, {}, 1, "y", "y"))


@pytest.mark.parametrize("texts, message", [
    (("t^2",), "negative variable powers"),
    (("y^2",), "no exponential atom"),
    (("t*log1m",), "handled by the geometry operators"),
    # checks run in the order the columns are given, whatever their tags
    (("t^2", "y^2"), "negative variable powers"),
    (("y^2", "t^2"), "no exponential atom"),
    # a refusal inside the emission of a later column wins over an earlier check
    (("t^2", "t*log1m"), "handled by the geometry operators"),
    (("y^2", "x", "t^2", "t*log1m"), "handled by the geometry operators"),
])
def test_a_refusal_in_the_emission_wins_over_any_columns_failed_check(texts, message):
    user = Geometry("user", _NO_E_LOG, ((-1.0, 1.0),) * 3, _TWO_CHECKS)
    assert user._kernel(_NO_E_LOG)[3] is False
    columns = [(len(texts) - k, parse(text, _NO_E_LOG).terms) for k, text in enumerate(texts)]
    got = _columns_outcome(user, _NO_E_LOG, columns)
    assert got == _reference_columns(user, _NO_E_LOG, columns)
    assert got[0] is ClosureError and message in got[1]


def _per_column_system(g, basis, order):
    """(sorted basis, matrix, order_matrix) with one tension map per basis image
    and its rows merged afterwards: the ansatz system as it was built before
    one map took the whole basis."""
    ordered = sorted(basis, key=lambda b: min(t.signature() for t in b.terms))
    images, matrices = [b.terms for b in ordered], []
    for _ in range(order):
        taus = [_one_column_map(g, g.atoms, c) for c in images]
        rows = {}
        for j, tau in enumerate(taus):
            for key, c in tau.items():
                rows.setdefault(key, {})[j] = c
        matrices.append(ExactMatrix(len(rows), len(taus), tuple(rows[k] for k in sorted(rows))))
        images = [[(c, p, w, logp) for (logp, w, p), c in tau.items()] for tau in taus]
    return tuple(ordered), matrices[0], matrices[-1]


def _per_member_kernel(system):
    """The kernel with each member re-verified alone, one tension map per
    member and power: generate_kernel before its members shared a map."""
    atoms, kernel = system.basis[0].atoms, []
    for v in nullspace(system.order_matrix):
        f = Expr(atoms, _canonical(atoms, [(t.coeff * c, t.powers, t.weight, t.logp)
                                           for j, c in v.items() for t in system.basis[j].terms]))
        image = f.terms
        for _ in range(system.order):
            tau = _one_column_map(system.geometry, atoms, image)
            image = [(c, p, w, logp) for (logp, w, p), c in tau.items()]
        if image:
            raise AssertionError("kernel member failed exact re-verification")
        kernel.append(f)
    return kernel


def _assert_system_is_the_per_column_reference(g, basis, order):
    system = AnsatzSystem.build(g, basis, order)
    ordered, matrix, power = _per_column_system(g, basis, order)
    assert system.basis == ordered
    for got, want in ((system.matrix, matrix), (system.order_matrix, power)):
        assert (got.rows, got.cols, got.row_maps) == (want.rows, want.cols, want.row_maps)
    assert generate_kernel(system) == _per_member_kernel(system)


@pytest.mark.parametrize("gid", ["nil", "sl2", "h2xr"])
@pytest.mark.parametrize("order", [1, 2])
def test_monomial_ansatz_systems_are_the_per_column_reference(gid, order):
    g = by_id(gid)
    for degree in range(7):
        basis = [Expr.monomial(g.atoms, 1, dict(zip(g.atoms.variables, powers)))
                 for powers in itertools.product(range(degree + 1), repeat=len(g.atoms.variables))
                 if sum(powers) <= degree]
        _assert_system_is_the_per_column_reference(g, basis, order)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_sol_axis_systems_are_the_per_column_reference(axis):
    g = by_id("sol")
    for n in range(2, 49):
        _assert_system_is_the_per_column_reference(g, sol_axis_basis(n, axis, g), 1)


def test_every_catalogue_table_is_proven_closed_on_its_test_atom_sets():
    for gid, convention, atoms in _TENSION_CASES:
        g = by_id(gid, convention)
        assert g._kernel(atoms or g.atoms)[3] is True, (gid, atoms)


@pytest.mark.parametrize("table, atoms, text, message", [
    # an entry of exponent -1: tau(y^2) = 2/x
    (((1, {}, 0, "x", "x"), (1, {"x": -1}, 0, "y", "y")), AtomSet(("x", "y")), "y^2 + x^3",
     "negative variable powers"),
    # a weight entry on an atom set without an exponential atom
    (((1, {}, 1, "x", "x"), (1, {}, 0, "y", "y")), AtomSet(("x", "y")), "y^2 + x^2*y",
     "no exponential atom"),
    # sol's table, whose E(-2) and E(2) entries need the exponential atom t
    (by_id("sol").table, AtomSet(("x", "y", "t")), "t^2 + x^2", "no exponential atom"),
])
def test_a_table_not_proven_closed_checks_every_output(table, atoms, text, message):
    user = Geometry("user", atoms, ((-1.0, 1.0),) * len(atoms.variables), table)
    assert user._kernel(atoms)[3] is False
    f = parse(text, atoms)
    got = _map_outcome(_one_column_map, user, atoms, f.terms)
    assert got == _map_outcome(_reference_map, user, atoms, f.terms)
    assert got[0] is ClosureError and message in got[1]


# a closed table whose t-t entry carries the conformal x: tau(t^2 L) = 2 x L leaves
# the algebra with no mixed entry refusing first (nil's x^2 t-t entry on _XY_LOG
# is always preceded by its y-t refusal), so only the log-output check catches it
_X_ON_TT = ((1, {}, 0, "x", "x"), (1, {}, 0, "y", "y"), (1, {"x": 1}, 0, "t", "t"),
            (1, {}, -1, "t", "t"))


@settings(max_examples=100)
@given(st.randoms(use_true_random=False))
def test_log_outputs_of_a_closed_table_are_closure_checked(rng):
    user = Geometry("user", _XY_LOG, ((-1.0, 1.0),) * 3, _X_ON_TT)
    assert user._kernel(_XY_LOG)[3] is True
    f = random_expr(rng, _XY_LOG, max_terms=4, max_power=3, weights=(-1, 0, 1), allow_log=True)
    got = _map_outcome(_one_column_map, user, _XY_LOG, f.terms)
    assert got == _map_outcome(_reference_map, user, _XY_LOG, f.terms)
    f = parse("x^2 + t^2*log1m", _XY_LOG)
    with pytest.raises(ClosureError, match="log-bearing terms may not carry powers"):
        _one_column_map(user, _XY_LOG, f.terms)


def test_rebuilt_charts_reuse_the_compiled_emission():
    f = parse("x^2*y*t^3 + y^4", by_id("nil").atoms)
    first = by_id("nil")
    assert first._kernels == {}  # nothing is compiled before the first tau
    want = first.tension(f)
    before = geometries_module._compiled.cache_info()
    again = by_id("nil")
    assert again.tension(f) == want
    after = geometries_module._compiled.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def _reference_conformality(g, f, h):
    """kappa(f, h) with the first-partial products formed once per table
    entry, as ``conformality`` was computed before it read the compiled groups."""
    g._require(f)
    g._require(h)
    (fp, fa), (hp, ha) = split_log(f), split_log(h)
    df = first_partials(f, fp)
    dh = first_partials(h, hp)
    parts = []
    for c, p, weight, i, j in g.table:
        powers = f.atoms.exponents(p)
        if i == j:
            parts.append((c, powers, weight, (df(i) * dh(i)).terms))
        else:
            half = GaussianRational.coerce(c) / 2
            parts.append((half, powers, weight, (df(i) * dh(j)).terms))
            parts.append((half, powers, weight, (df(j) * dh(i)).terms))
    if g.log_tension is not None:
        parts.extend(log_conformality_parts(g.log_tension, f.atoms, fa, ha, df, dh))
    return combine(f.atoms, parts)


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
    got = _kappa_outcome(conformality, g, f, h)
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
        got = _kappa_outcome(conformality, g, f, h)
        assert got == _kappa_outcome(_reference_conformality, g, f, h)
    if "t" in g.atoms.variables:  # kappa(t L, t L) carries L^2
        with pytest.raises(ClosureError, match="log atom squared"):
            conformality(g, parse(f"t*{log}", g.atoms), parse(f"t*{log}", g.atoms))


# -- the reference kappa's building blocks: combine and split_log -------------------


DISC_LINE = by_id("h2xr").atoms


def test_combine_keeps_the_closure_check():
    z = DISC_LINE.exponents({"z": 1})
    with pytest.raises(ClosureError, match="conformal pair"):
        combine(DISC_LINE, [(1, z, 0, Expr.log(DISC_LINE).terms)])
    unchecked = Expr(DISC_LINE, (Term(ONE, (0, 0, 0), 0, 2),))  # built past every check
    with pytest.raises(ClosureError, match="log atom squared"):
        combine(DISC_LINE, [(1, (0, 0, 0), 0, unchecked.terms)])


def test_split_log_matches_the_checked_canonical_form():
    # split_log skips the closure check: its log part equals the checked one
    for gid in ("sol", "nil", "h2", "h2xr", "s2pxr"):
        atoms = by_id(gid).atoms
        rng = random.Random(f"gated-{gid}")
        weights = (-2, 0, 1) if atoms.exp_var else (0,)
        for _ in range(15):  # pairs, as the gated operations of test_algebra.py draw them
            a, _ = (random_expr(rng, atoms, max_terms=4, weights=weights,
                                allow_log=atoms.log_kind is not None) for _ in range(2))
            got, want = (
                split_log(a)[1] or Expr.zero(atoms),
                Expr(atoms, _canonical(atoms, [t._replace(logp=0) for t in a.terms if t.logp],
                                       check=True)),
            )
            assert got == want
            assert all(_validated(atoms, t) for t in got.terms)


def test_split_log_keeps_the_canonical_order():
    f = parse("t^2*log1m - 2*t*log1m + z^2*zb - 3", DISC_LINE)
    assert split_log(f) == (parse("z^2*zb - 3", DISC_LINE), parse("t^2 - 2*t", DISC_LINE))


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
