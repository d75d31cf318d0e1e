"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Every symbolic criterion is exact (expression equality in the
canonical algebra, no tolerances); the two numerical criteria carry their
stated tolerances.  Each criterion also asserts its runtime budget.
"""

import random
import time
from contextlib import contextmanager

from polyharm.algebra import Expr
from polyharm.families import (
    AnsatzSystem,
    generate_kernel,
    log_biharmonic,
    nil_biharmonic12,
    primitive_normalized,
    separable_product,
    sl2_biharmonic6,
    sol_axis_basis,
    sol_axis_family,
    sol_h2h3,
    sol_tower,
    sol_tower_literal,
)
from polyharm.geometries import (
    by_id,
    classify,
    iterated_tension,
    product_tension_binomial,
)
from polyharm.linalg import ExactMatrix, primitive_rows
from polyharm.oracle import OracleConfig, cross_validate
from polyharm.parser import parse
from polyharm.rationals import GaussianRational
from polyharm.verify import (
    AXIS_FAMILY_TEXT,
    ANSATZ_MATRIX_TEXT,
    NIL_F2_TENSION_TEXT,
    SL2_F2_TENSION_TEXT,
    random_expr,
    random_nonzero_scalar,
    random_scalar,
)


@contextmanager
def criterion(number: int, budget_seconds: float, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number:02d} PASS  ({elapsed:.2f}s <= {budget_seconds}s)  {description}")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_01_sol_exact_harmonicity():
    with criterion(1, 1.0, "exact harmonicity of the six printed sol axis families"):
        g = by_id("sol")
        for n, text in AXIS_FAMILY_TEXT.items():
            f = parse(text, g.atoms)
            assert g.tension(f).is_zero()
            assert sol_axis_family(n, "x", g) == f
        assert g.tension(parse("2*x^2 - E(-2)", g.atoms)).is_zero()
        assert g.tension(parse("2*x^3 - 3*x*E(-2)", g.atoms)).is_zero()


def test_criterion_02_ansatz_generator():
    with criterion(2, 1.0, "ansatz matrices match printed systems; kernels 1-dim"):
        g = by_id("sol")
        for n, rows in ANSATZ_MATRIX_TEXT.items():
            system = AnsatzSystem.build(g, sol_axis_basis(n, "x", g))
            assert primitive_rows(system.matrix) == primitive_rows(ExactMatrix.from_rows(rows))
        for n in range(2, 8):
            system = AnsatzSystem.build(g, sol_axis_basis(n, "x", g))
            kernel = generate_kernel(system)
            assert len(kernel) == 1
            assert primitive_normalized(kernel[0]) == parse(
                AXIS_FAMILY_TEXT[n], g.atoms
            )


def test_criterion_03_sol_product_family():
    with criterion(3, 5.0, "tau(h2 h3) = -8(a2+3a3 x)(b2+3b3 y), tau^2 = 0, 50 draws"):
        g = by_id("sol")
        rng = random.Random(101)
        x = Expr.variable(g.atoms, "x")
        y = Expr.variable(g.atoms, "y")
        done = 0
        while done < 50:
            a2, a3 = random_scalar(rng), random_scalar(rng)
            b2, b3 = random_scalar(rng), random_scalar(rng)
            if (a2.is_zero() and a3.is_zero()) or (b2.is_zero() and b3.is_zero()):
                continue
            h = sol_h2h3(a2, a3, b2, b3)
            chain = iterated_tension(g, h, 2)
            expected = -8 * (
                (Expr.constant(g.atoms, a2) + 3 * (a3 * x))
                * (Expr.constant(g.atoms, b2) + 3 * (b3 * y))
            )
            assert chain[1] == expected
            assert chain[2].is_zero()
            done += 1


def test_criterion_04_nil_family():
    with criterion(4, 1.0, "nil 12-term tension expansion and tau^2 = 0"):
        g = by_id("nil")
        for i, text in enumerate(NIL_F2_TENSION_TEXT):
            basis_vector = [0] * 12
            basis_vector[i] = 1
            f = nil_biharmonic12(basis_vector)
            chain = iterated_tension(g, f, 2)
            assert chain[1] == parse(text, g.atoms)
            assert chain[2].is_zero()


def test_criterion_05_sl2_family():
    with criterion(5, 1.0, "sl2 6-term tension expansion and tau^2 = 0"):
        g = by_id("sl2")
        for i, text in enumerate(SL2_F2_TENSION_TEXT):
            basis_vector = [0] * 6
            basis_vector[i] = 1
            f = sl2_biharmonic6(basis_vector)
            chain = iterated_tension(g, f, 2)
            assert chain[1] == parse(text, g.atoms)
            assert chain[2].is_zero()


def test_criterion_06_binomial_formula():
    with criterion(6, 10.0, "tau^n of separable products vs binomial expansion, n <= 4"):
        rng = random.Random(202)
        for gid in ("product:linexline", "h2xr"):
            g = by_id(gid)
            first_vars = g.first.atoms.variables
            second_vars = g.second.atoms.variables
            for _ in range(100):
                f1 = random_expr(
                    rng,
                    g.atoms,
                    variables=first_vars,
                    max_terms=2,
                    allow_log=(gid == "h2xr"),
                )
                f2 = random_expr(rng, g.atoms, variables=second_vars, max_terms=2)
                chain = iterated_tension(g, f1 * f2, 4)
                for n in range(1, 5):
                    assert chain[n] == product_tension_binomial(
                        g.first, f1, g.second, f2, n
                    )


def test_criterion_07_biharmonic_times_biharmonic():
    with criterion(7, 5.0, "biharmonic x biharmonic has order exactly 3"):
        rng = random.Random(303)
        g = by_id("product:linexline")

        def cubic(var):
            coeffs = [random_scalar(rng) for _ in range(4)]
            if coeffs[2].is_zero() and coeffs[3].is_zero():
                coeffs[3] = random_nonzero_scalar(rng)
            total = Expr.zero(g.atoms)
            for k, c in enumerate(coeffs):
                total = total + c * Expr.monomial(g.atoms, 1, {var: k})
            return total

        for _ in range(25):
            f1, f2 = cubic("s"), cubic("t")
            chain = iterated_tension(g, f1 * f2, 3)
            expected = 2 * (g.first.tension(f1) * g.second.tension(f2))
            assert chain[2] == expected
            assert not chain[2].is_zero()
            assert chain[3].is_zero()
            assert classify(g, f1 * f2).order == 3

        # the same on the disc x line with the log function as one factor
        gd = by_id("h2xr")
        f1 = log_biharmonic(gd) + Expr.monomial(gd.atoms, 1, {"z": 2})
        f2 = parse("t^3 - t", gd.atoms)
        chain = iterated_tension(gd, f1 * f2, 3)
        assert chain[2] == 2 * (gd.first.tension(f1) * gd.second.tension(f2))
        assert not chain[2].is_zero()
        assert chain[3].is_zero()


def test_criterion_08_log_functions_both_conventions():
    with criterion(8, 1.0, "log functions classify as biharmonic under both conventions"):
        for convention in ("metric", "paper"):
            disc = by_id("h2", convention)
            f = log_biharmonic(disc)  # -log(1 - z zb)
            assert classify(disc, f).order == 2
            sphere = by_id("s2p", convention)
            f = log_biharmonic(sphere)  # log(1 + z zb)
            assert classify(sphere, f).order == 2
        paper_disc = by_id("h2", "paper")
        assert paper_disc.tension(log_biharmonic(paper_disc)) == Expr.constant(
            paper_disc.atoms, 4
        )


def test_criterion_09_product_corollaries():
    with criterion(9, 5.0, "separable and log-times-affine families have order 2"):
        rng = random.Random(404)
        for gid in ("h2xr", "s2pxr"):
            g = by_id(gid)
            for _ in range(20):
                hol = [random_scalar(rng) for _ in range(rng.randint(1, 3))]
                antihol = [random_scalar(rng) for _ in range(rng.randint(0, 3))]
                width = max(len(hol), len(antihol))
                hol += [GaussianRational.coerce(0)] * (width - len(hol))
                antihol += [GaussianRational.coerce(0)] * (width - len(antihol))
                merged = [hol[0] + antihol[0]] + hol[1:] + antihol[1:]
                if all(v.is_zero() for v in merged):
                    hol[0] = random_nonzero_scalar(rng)
                p = [random_scalar(rng) for _ in range(4)]
                if p[2].is_zero() and p[3].is_zero():
                    p[2] = random_nonzero_scalar(rng)
                F = separable_product(g, hol, antihol, p)
                assert classify(g, F).order == 2

            for _ in range(20):
                alpha = random_nonzero_scalar(rng)
                affine = [random_scalar(rng), random_scalar(rng)]
                if all(v.is_zero() for v in affine):
                    affine[0] = GaussianRational.coerce(1)
                biharmonic_on_surface = alpha * log_biharmonic(g)
                for k in range(rng.randint(0, 2) + 1):
                    biharmonic_on_surface = biharmonic_on_surface + random_scalar(
                        rng
                    ) * Expr.monomial(g.atoms, 1, {"z": k})
                tvar = Expr.variable(g.atoms, "t")
                F = biharmonic_on_surface * (
                    Expr.constant(g.atoms, affine[0]) + affine[1] * tvar
                )
                assert classify(g, F).order == 2


def test_criterion_10_tower_indexing():
    with criterion(10, 5.0, "tower orders: shifted index r, literal index r+1"):
        g = by_id("sol")
        rng = random.Random(505)
        for r in range(1, 6):
            a = [random_scalar(rng) for _ in range(4)]
            b = [random_scalar(rng) for _ in range(4)]
            if all(v.is_zero() for v in a + b):
                a[0] = GaussianRational.coerce(1)
            assert classify(g, sol_tower(r, a, b)).order == r
        for r in range(1, 5):
            a = [random_scalar(rng) for _ in range(4)]
            b = [random_scalar(rng) for _ in range(4)]
            if all(v.is_zero() for v in a + b):
                b[1] = GaussianRational.coerce(1)
            assert classify(g, sol_tower_literal(r, a, b)).order == r + 1


ORACLE_BATTERY = {
    "sol": ("x^3*y*E(2)", "2*x^2 - E(-2)", "x*y*t^2", "y^2*E(-1)", "t^4 + x*y"),
    "nil": ("x^2*y*t", "y^2*t", "x^3*t", "x*y^3", "t^2 + x^2"),
    "sl2": ("x*t^2", "y*t^3", "x^2*y^2", "y^3*t", "x*y*t"),
    "h2xr": ("z^2*zb*t", "z*zb", "t^3*z", "-log1m", "z^2*zb^2 + t^2"),
    "s2pxr": ("z*zb*t^2", "z^2*zb", "t^3 + z", "log1p", "t*log1p"),
}


def test_criterion_11_oracle_agreement():
    with criterion(11, 30.0, "symbolic tau vs finite differences <= 1e-6 everywhere"):
        config = OracleConfig(samples=100, seed=606)
        for gid, battery in ORACLE_BATTERY.items():
            g = by_id(gid, "metric")
            for text in battery:
                report = cross_validate(g, parse(text, g.atoms), config)
                assert report.points == 100
                assert report.max_rel <= 1e-6, (gid, text, report.max_rel)


def test_criterion_12_convention_sentinel():
    with criterion(12, 5.0, "printed-convention factor is 4 within 1e-4 at 20 points"):
        g = by_id("h2", "paper")
        for text in ("z*zb", "z^2*zb^2"):
            config = OracleConfig(samples=20, seed=707)
            ratios = cross_validate(g, parse(text, g.atoms), config).ratios
            assert len(ratios) == 20
            for r in ratios:
                assert abs(r - 4.0) <= 1e-4
