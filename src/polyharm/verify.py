"""Built-in regression suite over the toolkit's reference identities.

Every identity the toolkit is supposed to reproduce -- the harmonic axis
families on sol, the exact ansatz matrices, the reference tension
expansions on nil and sl2, the product binomial formula, the conformal log
functions under both operator conventions, and the oracle agreement -- is
registered here as an exact check with a stable id.  The command line
surface runs the whole list and reports one status per identity.

The randomized family checks draw their parameters from the registry
(``families.FAMILIES``: sampler, admissibility predicate, claimed order)
and share one classification body.

Statuses:

    pass               the identity holds exactly
    expected-mismatch  a deliberate sentinel (printed-convention factor 4)
    exceeds-bound      a classification reached the properness bound (seen
                       with a lowered --r-max; counts as a failure)
    fail               anything else, including a check with no case
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import AtomSet, Expr
from .errors import UsageError
from .families import (
    AnsatzSystem,
    FamilyDescriptor,
    conformal_harmonic_part,
    generate_kernel,
    log_biharmonic,
    nil_biharmonic12,
    primitive_normalized,
    random_nonzero_scalar,
    random_scalar,
    sl2_biharmonic6,
    sol_axis_basis,
    sol_axis_family,
    sol_tower_literal,
    FAMILIES,
)
from .geometries import (
    R_MAX,
    Geometry,
    ProductGeometry,
    by_id,
    classify,
    iterated_tension,
    product_tension_binomial,
)
from .linalg import ExactMatrix, primitive_rows
from .parser import parse

TRIALS = 20  # draws of the h2h3, separable and binomial-lemma checks


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # pass | fail | expected-mismatch | exceeds-bound
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "expected-mismatch")


def _result(check_id: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(check_id, "pass" if ok else "fail", detail)


def random_expr(
    rng: random.Random,
    atoms: AtomSet,
    variables: Sequence[str] | None = None,
    max_terms: int = 3,
    max_power: int = 2,
    weights: Sequence[int] = (0,),
    allow_log: bool = False,
) -> Expr:
    """Random canonical expression over a variable subset of a chart algebra."""
    names = list(variables if variables is not None else atoms.variables)
    total = Expr.zero(atoms)
    for _ in range(rng.randint(1, max_terms)):
        logp = 1 if allow_log and rng.random() < 0.3 else 0
        powers = {}
        for v in names:
            if logp and atoms.conformal and v in atoms.conformal:
                continue
            powers[v] = rng.randint(0, max_power)
        total = total + Expr.monomial(
            atoms,
            random_scalar(rng),
            powers,
            weight=rng.choice(list(weights)),
            log=logp,
        )
    return total


def random_nonzero_expr(rng: random.Random, atoms: AtomSet, **kwargs) -> Expr:
    while True:
        e = random_expr(rng, atoms, **kwargs)
        if not e.is_zero():
            return e


# -- reference data -----------------------------------------------------------

AXIS_FAMILY_TEXT = {
    2: "2*x^2 - E(-2)",
    3: "2*x^3 - 3*x*E(-2)",
    4: "8*x^4 - 24*x^2*E(-2) + 3*E(-4)",
    5: "8*x^5 - 40*x^3*E(-2) + 15*x*E(-4)",
    6: "16*x^6 - 120*x^4*E(-2) + 90*x^2*E(-4) - 5*E(-6)",
    7: "16*x^7 - 168*x^5*E(-2) + 210*x^3*E(-4) - 35*x*E(-6)",
}

ANSATZ_MATRIX_TEXT = {
    2: [[2, 0, 1], [0, 1, 0]],
    3: [[9, 0, 2, 0], [0, 2, 0, 3], [0, 0, 1, 0]],
}

NIL_F2_TENSION_TEXT = (
    "2",
    "2",
    "2*x",
    "6*x",
    "2*y",
    "2*t",
    "2*x",
    "6*y",
    "6*x*y",
    "6*x*y",
    "2*t + 4*x*y",
    "6*x*t",
)

SL2_F2_TENSION_TEXT = (
    "-2*y",
    "4",
    "4*x - 4*y*t",
    "4*y",
    "12*t",
    "12*y*t",
)


# -- individual checks ---------------------------------------------------------


def _check_sol_axis(ctx) -> list[CheckResult]:
    g = by_id("sol")
    out = []
    for n, text in AXIS_FAMILY_TEXT.items():
        f = sol_axis_family(n, "x", g)
        expected = parse(text, g.atoms)
        ok = f == expected and g.tension(f).is_zero()
        out.append(_result(f"sol/axis-harmonic-n{n}", ok, str(f)))
    return out


def _check_sol_ansatz(ctx) -> list[CheckResult]:
    g = by_id("sol")
    out = []
    for n, rows in ANSATZ_MATRIX_TEXT.items():
        system = AnsatzSystem.build(g, sol_axis_basis(n, "x", g))
        out.append(
            _result(
                f"sol/ansatz-matrix-n{n}",
                primitive_rows(system.matrix) == primitive_rows(ExactMatrix.from_rows(rows)),
                f"{system.matrix.rows}x{system.matrix.cols} tension matrix",
            )
        )
    for n, text in AXIS_FAMILY_TEXT.items():
        kernel = generate_kernel(AnsatzSystem.build(g, sol_axis_basis(n, "x", g)))
        ok = len(kernel) == 1 and primitive_normalized(kernel[0]) == parse(text, g.atoms)
        out.append(_result(f"sol/ansatz-kernel-n{n}", ok))
    return out


Case = tuple[Geometry, Expr, int]  # (chart, function, claimed properness order)


def _case(family: FamilyDescriptor, params: dict, convention: str = "metric") -> Case:
    return (*family.build(convention, **params), family.claimed_order(params))


def _classification_check(
    check_id: str, cases: Sequence[Case], r_max: int, detail: str = ""
) -> CheckResult:
    """Classify every case under ``r_max``: the first case that reaches the
    bound makes the check ``exceeds-bound``; a wrong order, or no case at
    all, makes it ``fail``."""
    if not cases:
        return _result(check_id, False, "no cases")
    for k, (geometry, f, want) in enumerate(cases):
        report = classify(geometry, f, r_max)
        if report.order != want:
            status = "exceeds-bound" if report.order is None else "fail"
            why = f"case {k}: {report.describe()}, want order {want}"
            return CheckResult(check_id, status, why)
    return _result(check_id, True, detail)


def _check_sol_mixed(ctx) -> list[CheckResult]:
    family = FAMILIES["sol.mixed"]
    rng = random.Random(ctx.seed + 1)
    return [
        _classification_check(
            f"sol/mixed-harmonic-n{n}",
            [_case(family, family.draw(rng, n=n)) for _ in range(10)],
            ctx.r_max,
        )
        for n in (2, 3)
    ]


def _sol_h2h3_expected_tension(atoms, a2, a3, b2, b3) -> Expr:
    x = Expr.variable(atoms, "x")
    y = Expr.variable(atoms, "y")
    left = Expr.constant(atoms, a2) + 3 * (a3 * x)
    right = Expr.constant(atoms, b2) + 3 * (b3 * y)
    return -8 * (left * right)


def _check_sol_h2h3(ctx) -> list[CheckResult]:
    family = FAMILIES["sol.h2h3"]
    rng = random.Random(ctx.seed + 2)
    draws = [family.draw(rng) for _ in range(TRIALS)]
    cases = [_case(family, params) for params in draws]
    formula = all(
        g.tension(f) == _sol_h2h3_expected_tension(g.atoms, **params)
        for (g, f, _), params in zip(cases, draws)
    )
    return [
        _result("sol/h2h3-tension-formula", formula),
        _classification_check("sol/h2h3-biharmonic", cases, ctx.r_max),
    ]


def _check_sol_towers(ctx) -> list[CheckResult]:
    tower = FAMILIES["sol.tower"]
    rng = random.Random(ctx.seed + 3)
    shifted = [_case(tower, tower.draw(rng, r=r)) for r in range(1, 6)]
    literal = [tower.draw(rng, r=r) for r in range(1, 5)]
    g = by_id("sol")
    return [
        _classification_check("sol/tower-order", shifted, ctx.r_max),
        _classification_check(
            "sol/tower-literal-order",
            [(g, sol_tower_literal(p["r"], p["a"], p["b"], g), p["r"] + 1) for p in literal],
            ctx.r_max,
        ),
    ]


def _check_nil_sl2(ctx) -> list[CheckResult]:
    out = []
    for g, offset, polynomial, texts in (
        (by_id("nil"), 4, nil_biharmonic12, NIL_F2_TENSION_TEXT),
        (by_id("sl2"), 5, sl2_biharmonic6, SL2_F2_TENSION_TEXT),
    ):
        rng = random.Random(ctx.seed + offset)
        harmonic = FAMILIES[f"{g.name}.f1"]
        f1_cases = [_case(harmonic, harmonic.draw(rng)) for _ in range(10)]
        ok_expand = True
        ok_second = True
        for i, text in enumerate(texts):
            basis_vector = [0] * len(texts)
            basis_vector[i] = 1
            chain = iterated_tension(g, polynomial(basis_vector), 2)
            ok_expand = ok_expand and chain[1] == parse(text, g.atoms)
            ok_second = ok_second and chain[2].is_zero()
        out += [
            _classification_check(f"{g.name}/harmonic", f1_cases, ctx.r_max),
            _result(f"{g.name}/biharmonic-expansion", ok_expand),
            _result(f"{g.name}/biharmonic-vanishing-second", ok_second),
        ]
    return out


def _separable_pair(rng: random.Random, geometry: ProductGeometry, allow_log: bool):
    first_vars = geometry.first.atoms.variables
    second_vars = geometry.second.atoms.variables
    f1 = random_nonzero_expr(
        rng, geometry.atoms, variables=first_vars, allow_log=allow_log
    )
    f2 = random_nonzero_expr(rng, geometry.atoms, variables=second_vars)
    return f1, f2


def binomial_lemma_check(
    geometry: ProductGeometry,
    n_max: int = 4,
    trials: int = 25,
    seed: int = 0,
    allow_log: bool = False,
) -> CheckResult:
    """tau^n(f1 f2) on the product equals the binomial expansion, exactly."""
    if n_max > 4:
        raise UsageError("the binomial check is capped at n = 4 for cost")
    if trials < 1:
        raise UsageError("the binomial check needs at least one trial")
    check_id = f"product/binomial-lemma-{geometry.name}"
    rng = random.Random(seed)
    for trial in range(trials):
        f1, f2 = _separable_pair(rng, geometry, allow_log)
        product_chain = iterated_tension(geometry, f1 * f2, n_max)
        for n in range(1, n_max + 1):
            expansion = product_tension_binomial(
                geometry.first, f1, geometry.second, f2, n
            )
            if product_chain[n] != expansion:
                detail = f"counterexample at trial {trial}, n={n}: f1={f1}, f2={f2}"
                return _result(check_id, False, detail)
    return _result(check_id, True, f"{trials} trials")


def _biharmonic_line_poly(rng: random.Random, atoms, var: str) -> Expr:
    coeffs = [random_scalar(rng) for _ in range(4)]
    if coeffs[2].is_zero() and coeffs[3].is_zero():
        coeffs[3] = random_nonzero_scalar(rng)
    return Expr.sum(atoms, [Expr.monomial(atoms, c, {var: k}) for k, c in enumerate(coeffs)])


def biharmonic_product_remark_check(
    geometry: ProductGeometry, trials: int, seed: int, r_max: int = R_MAX
) -> CheckResult:
    """biharmonic x biharmonic: tau^2 = 2 tau(f1) tau(f2) != 0 and tau^3 = 0,
    with the factor proper biharmonic and the product proper 3-harmonic
    under ``r_max``."""
    check_id = f"product/biharmonic-times-biharmonic-{geometry.name}"
    rng = random.Random(seed)
    atoms = geometry.atoms
    cases = []
    for trial in range(trials):
        if geometry.first.atoms.log_kind is not None:
            scale = random_nonzero_scalar(rng)
            hol, antihol = ([random_scalar(rng) for _ in range(rng.randint(1, 3))] for _ in "zb")
            f1 = scale * log_biharmonic(geometry) + conformal_harmonic_part(atoms, hol, antihol)
        else:
            f1 = _biharmonic_line_poly(
                rng, atoms, geometry.first.atoms.variables[0]
            )
        f2 = _biharmonic_line_poly(rng, atoms, geometry.second.atoms.variables[0])
        chain = iterated_tension(geometry, f1 * f2, 3)
        expected = 2 * (
            geometry.first.tension(f1) * geometry.second.tension(f2)
        )
        if chain[2] != expected or chain[2].is_zero() or not chain[3].is_zero():
            return _result(check_id, False, f"counterexample at trial {trial}")
        cases += [(geometry.first, f1, 2), (geometry, f1 * f2, 3)]
    return _classification_check(check_id, cases, r_max, f"{trials} trials")


def harmonic_times_r_check(trials: int, seed: int, r_max: int) -> CheckResult:
    """harmonic x proper r-harmonic is proper r-harmonic on the product."""
    rng = random.Random(seed)
    geometry = by_id("h2xr")
    atoms = geometry.atoms
    separable = FAMILIES["h2r.separable"]
    cases = []
    for _ in range(trials):
        # the nonzero conformal harmonic factor of a separable draw, times
        # t^(2r-1) or t^(2r-2), which is proper r-harmonic on the line
        params = separable.draw(rng)
        f1 = conformal_harmonic_part(atoms, params["hol"], params["antihol"])
        r = rng.randint(1, 4)
        f2 = Expr.monomial(atoms, 1, {"t": 2 * r - 1 - rng.randint(0, 1)})
        cases += [(geometry.second, f2, r), (geometry, f1 * f2, r)]
    return _classification_check(
        "product/harmonic-times-r-harmonic", cases, r_max, f"{trials} trials"
    )


def _check_products(ctx) -> list[CheckResult]:
    plane = by_id("product:linexline")
    disc_line = by_id("h2xr")
    out = [
        binomial_lemma_check(plane, 4, TRIALS, ctx.seed + 6),
        binomial_lemma_check(disc_line, 4, TRIALS, ctx.seed + 7, allow_log=True),
        biharmonic_product_remark_check(plane, 10, ctx.seed + 8, ctx.r_max),
        biharmonic_product_remark_check(disc_line, 10, ctx.seed + 9, ctx.r_max),
        harmonic_times_r_check(15, ctx.seed + 10, ctx.r_max),
    ]
    # assembling the disc x line operator from factors reproduces the
    # standalone product-chart operator
    rng = random.Random(ctx.seed + 11)
    ok = True
    for _ in range(10):
        f = random_expr(rng, disc_line.atoms, allow_log=True)
        direct = disc_line.tension(f)
        split = disc_line.first.tension(f) + disc_line.second.tension(f)
        ok = ok and direct == split
    out.append(_result("product/disc-line-assembly", ok))
    return out


def _check_separable_corollaries(ctx) -> list[CheckResult]:
    rng = random.Random(ctx.seed + 12)
    out = []
    for prefix in ("h2r", "s2r"):
        separable, logxp = FAMILIES[f"{prefix}.separable"], FAMILIES[f"{prefix}.logxp"]
        label = separable.geometry_id
        for convention in ctx.conventions:
            for check_id, family, count in (
                (f"{label}/separable-biharmonic[{convention}]", separable, TRIALS),
                (f"{label}/log-times-affine[{convention}]", logxp, 5),
            ):
                cases = [_case(family, family.draw(rng), convention) for _ in range(count)]
                out.append(_classification_check(check_id, cases, ctx.r_max))
    return out


def _check_log_functions(ctx) -> list[CheckResult]:
    out = []
    biharmonic = "proper biharmonic (order 2)"
    for label in ("h2", "s2p"):
        for convention in ctx.conventions:
            g = by_id(label, convention)
            f = log_biharmonic(g)
            check_id = f"{label}/log-biharmonic[{convention}]"
            out.append(_classification_check(check_id, [(g, f, 2)], ctx.r_max, biharmonic))
            if convention == "paper":
                tension = g.tension(f)
                ok = tension == Expr.constant(g.atoms, 4)
                out.append(_result(f"{label}/log-tension-constant", ok, str(tension)))
    return out


def _check_oracle(ctx) -> list[CheckResult]:
    from .oracle import OracleConfig, cross_validate  # loads numpy
    out = []
    cfg = OracleConfig(samples=20, seed=ctx.seed)
    if "metric" in ctx.conventions:
        for check_id, g, text in (
            ("oracle/sol-agreement", by_id("sol"), "x^3*y*E(2)"),
            ("oracle/h2xr-agreement[metric]", by_id("h2xr", "metric"), "z^2*zb*t + t^3"),
        ):
            report = cross_validate(g, parse(text, g.atoms), cfg)
            out.append(_result(check_id, report.within_tolerance, f"max_rel={report.max_rel:.3e}"))
    if "paper" in ctx.conventions:
        g = by_id("h2", "paper")
        ok = cross_validate(g, parse("z*zb", g.atoms), cfg).paper_sentinel_holds
        out.append(
            CheckResult(
                "oracle/conformal-convention-sentinel",
                "expected-mismatch" if ok else "fail",
                "printed operator is 4x the metric-derived oracle",
            )
        )
    return out


@dataclass(frozen=True)
class SuiteContext:
    conventions: tuple[str, ...] = ("metric", "paper")
    r_max: int = R_MAX
    seed: int = 7
    oracle: bool = True


_CHECK_GROUPS: tuple[Callable, ...] = (
    _check_sol_axis,
    _check_sol_ansatz,
    _check_sol_mixed,
    _check_sol_h2h3,
    _check_sol_towers,
    _check_nil_sl2,
    _check_products,
    _check_separable_corollaries,
    _check_log_functions,
)


def run_suite(ctx: SuiteContext = SuiteContext()) -> list[CheckResult]:
    results: list[CheckResult] = []
    for group in _CHECK_GROUPS:
        results.extend(group(ctx))
    if ctx.oracle:
        results.extend(_check_oracle(ctx))
    return results


def lemma_report(n_max: int, trials: int, seed: int) -> list[CheckResult]:
    """The product-formula property check reachable from the command line."""
    plane = by_id("product:linexline")
    disc_line = by_id("h2xr")
    return [
        binomial_lemma_check(plane, n_max, trials, seed),
        binomial_lemma_check(disc_line, n_max, trials, seed + 1, allow_log=True),
        biharmonic_product_remark_check(plane, max(5, trials // 5), seed + 2),
        biharmonic_product_remark_check(disc_line, max(5, trials // 5), seed + 3),
    ]
