import hashlib
import random
from itertools import product as cartesian

import pytest

from polyharm.algebra import Expr
from polyharm.errors import UsageError
from polyharm.families import (
    FAMILIES,
    AnsatzSystem,
    generate_kernel,
    log_biharmonic,
    nil_biharmonic12,
    nil_f2_proper,
    nil_harmonic,
    primitive_normalized,
    product_r_harmonic,
    separable_product,
    sl2_biharmonic6,
    sl2_f2_proper,
    sl2_harmonic,
    sol_axis_basis,
    sol_axis_family,
    sol_h2h3,
    sol_mixed_harmonic,
    sol_tower,
    sol_tower_literal,
)
from polyharm.geometries import (
    by_id,
    classify,
    disc_times_line,
    hyperbolic_disc,
    iterated_tension,
    line,
    nil,
    product,
    sl2,
    sol,
)
from polyharm.parser import parse
from polyharm.rationals import GaussianRational
from polyharm.verify import AXIS_FAMILY_TEXT, random_scalar


# -- ansatz kernels -----------------------------------------------------------


def test_kernel_of_degree_two_basis():
    g = sol()
    basis = [parse(t, g.atoms) for t in ("x^2", "x*E(-1)", "E(-2)")]
    system = AnsatzSystem.build(g, basis)
    kernel = generate_kernel(system)
    assert len(kernel) == 1
    assert primitive_normalized(kernel[0]) == parse("2*x^2 - E(-2)", g.atoms)


def test_kernel_of_degree_four_basis_up_to_scale():
    g = sol()
    basis = sol_axis_basis(4, "x", g)
    kernel = generate_kernel(AnsatzSystem.build(g, basis))
    assert len(kernel) == 1
    assert primitive_normalized(kernel[0]) == parse(
        "8*x^4 - 24*x^2*E(-2) + 3*E(-4)", g.atoms
    )


def test_kernel_of_constant_basis():
    g = nil()
    kernel = generate_kernel(AnsatzSystem.build(g, [Expr.constant(g.atoms, 1)]))
    assert len(kernel) == 1
    assert kernel[0] == Expr.constant(g.atoms, 1)


def test_kernel_for_higher_order():
    g = sol()
    basis = [parse(t, g.atoms) for t in ("t^2", "t", "1", "x")]
    system = AnsatzSystem.build(g, basis, order=2)
    kernel = generate_kernel(system)
    # tau^2 kills the whole span
    assert len(kernel) == 4
    harmonic_kernel = generate_kernel(AnsatzSystem.build(g, basis, order=1))
    assert len(harmonic_kernel) == 3


def test_ansatz_matrix_shape_and_first_power():
    g = sol()
    system = AnsatzSystem.build(g, sol_axis_basis(3, "x", g))
    assert system.matrix.rows == 3
    assert system.matrix.cols == 4
    assert system.order_matrix is system.matrix


def _monomial_basis(g, degree):
    names = g.atoms.variables
    return [
        Expr.monomial(g.atoms, 1, dict(zip(names, powers)))
        for powers in cartesian(range(degree + 1), repeat=len(names))
        if sum(powers) <= degree
    ]


# sha256 of the printed kernels below.  The RREF of a matrix with a fixed
# column order is unique, so any correct elimination reproduces it.
GOLDEN_KERNEL_DIGEST = "f88415a8cca578a03da5512cf291972c01b152e0ef7f11ff41921ffabacc7857"


def test_golden_kernels_are_unchanged():
    systems = [
        (gid, _monomial_basis(by_id(gid), degree), 2)
        for gid, degree in (("nil", 8), ("sl2", 8), ("h2xr", 6))
    ]
    systems += [("sol", sol_axis_basis(48, axis, sol()), 1) for axis in ("x", "y")]
    lines = []
    dims = {}
    for gid, basis, order in systems:
        kernel = generate_kernel(AnsatzSystem.build(by_id(gid), basis, order=order))
        dims[gid] = len(kernel)
        lines.append(f"{gid} {len(basis)} {order}")
        lines += [str(f) for f in kernel]
    assert dims["nil"] == 81 and dims["sol"] == 1
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_KERNEL_DIGEST


# -- sol axis families ----------------------------------------------------------


def test_axis_families_match_reference_text():
    g = sol()
    for n, text in AXIS_FAMILY_TEXT.items():
        assert sol_axis_family(n, "x", g) == parse(text, g.atoms)


def test_axis_family_y_axis_low_degrees():
    g = sol()
    assert sol_axis_family(2, "y", g) == parse("2*y^2 - E(2)", g.atoms)
    assert sol_axis_family(3, "y", g) == parse("2*y^3 - 3*y*E(2)", g.atoms)


def test_axis_families_are_harmonic_beyond_printed_range():
    g = sol()
    for n in range(2, 13):
        for axis in ("x", "y"):
            assert g.tension(sol_axis_family(n, axis, g)).is_zero()


def test_axis_family_mirror_symmetry():
    # (x <-> y, t -> -t) sends the x family to the y family exactly
    g = sol()
    ix, iy = g.atoms.index("x"), g.atoms.index("y")
    for n in range(2, 9):
        fx = sol_axis_family(n, "x", g)
        mirrored = Expr.zero(g.atoms)
        for term in fx.terms:
            powers = list(term.powers)
            powers[ix], powers[iy] = powers[iy], powers[ix]
            mirrored = mirrored + Expr.monomial(
                g.atoms,
                term.coeff,
                dict(zip(g.atoms.variables, powers)),
                weight=-term.weight,
            )
        assert mirrored == sol_axis_family(n, "y", g)


def test_axis_family_rejects_degenerate_input():
    with pytest.raises(UsageError):
        sol_axis_family(1, "x")
    with pytest.raises(UsageError):
        sol_axis_family(3, "q")


# -- sol towers -------------------------------------------------------------------


def test_tower_r1_is_harmonic():
    g = sol()
    f = sol_tower(1, [1, 2, 3, 4], [4, 3, 2, 1])
    assert g.tension(f).is_zero()


def test_tower_degenerate_parameters():
    g = sol()
    f = sol_tower(2, [1, 0, 0, 0], [0, 0, 0, 0])
    assert f == parse("t^2", g.atoms)
    chain = iterated_tension(g, f, 2)
    assert str(chain[1]) == "2"
    assert chain[2].is_zero()


def test_tower_order_three_chain():
    g = sol()
    f = sol_tower(3, [1, 0, 0, 0], [1, 0, 0, 0])  # t^4 + t^5
    report = classify(g, f)
    assert report.order == 3
    assert report.chain[1] == parse("12*t^2 + 20*t^3", g.atoms)


def test_tower_rejects_all_zero_parameters():
    with pytest.raises(UsageError):
        sol_tower(2, [0, 0, 0, 0], [0, 0, 0, 0])


def test_tower_index_shift_against_literal_variant():
    g = sol()
    rng = random.Random(1)
    a = [random_scalar(rng) for _ in range(4)]
    a[0] = GaussianRational.coerce(1)
    b = [random_scalar(rng) for _ in range(4)]
    for r in range(1, 5):
        assert classify(g, sol_tower(r, a, b)).order == r
        assert classify(g, sol_tower_literal(r, a, b)).order == r + 1
    # the r = 0 literal tower is plain harmonic
    assert classify(g, sol_tower_literal(0, a, b)).order == 1


# -- sol mixed and product families -----------------------------------------------


def test_mixed_harmonic_examples():
    g = sol()
    f = sol_mixed_harmonic(2, 1, 1, 1, 1, 1, 1)
    expected = parse("(1 + y)*(2*x^2 - E(-2)) + (1 + x)*(2*y^2 - E(2))", g.atoms)
    assert f == expected
    assert g.tension(f).is_zero()

    f = sol_mixed_harmonic(3, 2, 3, 1, 0, 1, 0)
    expected = parse("2*(2*x^3 - 3*x*E(-2)) + 3*(2*y^3 - 3*y*E(2))", g.atoms)
    assert f == expected
    assert g.tension(f).is_zero()


def test_mixed_harmonic_reduces_to_axis_member():
    g = sol()
    f = sol_mixed_harmonic(2, 1, 0, 1, 0, 1, 0)
    # b = 0 is fine as long as (a, b) != (0, 0)
    with pytest.raises(UsageError):
        sol_mixed_harmonic(2, 0, 0, 1, 0, 1, 0)
    assert f == sol_axis_family(2, "x", g)


def test_h2h3_specializations():
    g = sol()
    assert g.tension(sol_h2h3(1, 0, 1, 0)) == Expr.constant(g.atoms, -8)
    assert g.tension(sol_h2h3(0, 1, 0, 1)) == parse("-72*x*y", g.atoms)


def test_h2h3_is_proper_biharmonic_for_random_parameters(rng):
    g = sol()
    for _ in range(25):
        a2, a3 = random_scalar(rng), random_scalar(rng)
        b2, b3 = random_scalar(rng), random_scalar(rng)
        if (a2.is_zero() and a3.is_zero()) or (b2.is_zero() and b3.is_zero()):
            continue
        assert classify(g, sol_h2h3(a2, a3, b2, b3)).order == 2


# -- nil families --------------------------------------------------------------------


def test_nil_harmonic_linear_part():
    g = nil()
    f = nil_harmonic([1, 1])
    assert f == parse("t + x*t", g.atoms)
    assert g.tension(f).is_zero()


def test_nil_harmonic_cubic_holomorphic_part():
    g = nil()
    f = nil_harmonic([0, 0], hol=[0, 0, 0, 1])  # (x + iy)^3
    assert g.tension(f).is_zero()
    assert f == parse("x^3 + 3i*x^2*y - 3*x*y^2 - 1i*y^3", g.atoms)


def test_nil_harmonic_constant():
    g = nil()
    assert g.tension(nil_harmonic([0, 0], hol=[1])).is_zero()


def test_nil_biharmonic_unit_vectors():
    g = nil()
    e11 = [0] * 12
    e11[10] = 1
    f = nil_biharmonic12(e11)
    assert g.tension(f) == parse("2*t + 4*x*y", g.atoms)
    assert classify(g, f).order == 2

    e12 = [0] * 12
    e12[11] = 1
    f = nil_biharmonic12(e12)
    assert g.tension(f) == parse("6*x*t", g.atoms)
    assert classify(g, f).order == 2


def test_nil_biharmonic_cancellation_is_only_harmonic():
    g = nil()
    b = [1, -1] + [0] * 10
    f = nil_biharmonic12(b)
    assert not nil_f2_proper(b)
    assert classify(g, f).order == 1


# -- sl2 families ----------------------------------------------------------------------


def test_sl2_harmonic_members():
    g = sl2()
    assert sl2_harmonic([0, 1]) == parse("y*t", g.atoms)
    assert g.tension(sl2_harmonic([0, 1])).is_zero()
    assert g.tension(sl2_harmonic([0, 0], hol=[0, 0, 1])).is_zero()
    assert g.tension(sl2_harmonic([0, 0], hol=[2], antihol=[3])).is_zero()


def test_sl2_biharmonic_unit_vectors():
    g = sl2()
    f = sl2_biharmonic6([0, 0, 1, 0, 0, 0])
    assert g.tension(f) == parse("4*x - 4*y*t", g.atoms)
    assert classify(g, f).order == 2
    f = sl2_biharmonic6([0, 1, 0, 0, 0, 0])
    assert g.tension(f) == Expr.constant(g.atoms, 4)
    assert classify(g, f).order == 2


def test_sl2_biharmonic_cancellation_is_only_harmonic():
    g = sl2()
    b = [2, 0, 0, 1, 0, 0]
    assert not sl2_f2_proper(b)
    assert classify(g, sl2_biharmonic6(b)).order == 1


# -- conformal product families ----------------------------------------------------------


def test_separable_product_cubic():
    g = disc_times_line()
    F = separable_product(g, [0, 1], [], [0, 0, 0, 1])  # z * t^3
    chain = iterated_tension(g, F, 2)
    assert chain[1] == parse("6*z*t", g.atoms)
    assert chain[2].is_zero()


def test_separable_product_affine_poly_is_harmonic():
    g = disc_times_line()
    F = separable_product(g, [0, 1], [], [1, 1])  # z * (1 + t)
    assert classify(g, F).order == 1


def test_separable_product_quadratic_is_biharmonic():
    g = disc_times_line()
    F = separable_product(g, [0, 0, 1], [0, 1], [0, 0, 1])  # (z^2 + zb) t^2
    assert classify(g, F).order == 2


def test_log_biharmonic_surfaces_and_products():
    disc = hyperbolic_disc("paper")
    f = log_biharmonic(disc)
    assert disc.tension(f) == Expr.constant(disc.atoms, 4)
    assert classify(disc, f).order == 2

    g = disc_times_line("paper")
    f = log_biharmonic(g, [0, 1])  # -L * t
    chain = iterated_tension(g, f, 2)
    assert chain[1] == parse("4*t", g.atoms)
    assert chain[2].is_zero()


def test_log_biharmonic_rejects_affine_factor_off_product():
    with pytest.raises(UsageError):
        log_biharmonic(hyperbolic_disc(), [1, 0])


# -- generic products -----------------------------------------------------------------------


def test_product_r_harmonic_orders():
    g = disc_times_line()
    f1 = parse("z", g.atoms)
    f2 = parse("t^3", g.atoms)
    F = product_r_harmonic(g, f1, f2)
    report = classify(g, F)
    assert report.order == 2
    # below the vanishing order the chain is f1 * tau^k(f2)
    f2_chain = iterated_tension(g.second, f2, 2)
    for k in range(report.order):
        assert report.chain[k] == f1 * f2_chain[k]

    one = Expr.constant(g.atoms, 1)
    assert classify(g, product_r_harmonic(g, one, f2)).order == 2

    f2_deep = parse("t^5", g.atoms)
    assert classify(g, product_r_harmonic(g, f1, f2_deep)).order == 3


def test_product_r_harmonic_rejects_biharmonic_first_factor():
    g = product(line("s"), line("t"))
    f1 = parse("s^2", g.atoms)
    f2 = parse("t^2", g.atoms)
    with pytest.raises(UsageError):
        product_r_harmonic(g, f1, f2)
    # direct classification shows the product is triharmonic instead
    assert classify(g, f1 * f2).order == 3


# -- descriptor registry ----------------------------------------------------------------------


def test_registry_lists_every_family():
    assert set(FAMILIES) == {
        "sol.tower",
        "sol.axis",
        "sol.mixed",
        "sol.h2h3",
        "nil.f1",
        "nil.f2",
        "sl2.f1",
        "sl2.f2",
        "h2r.separable",
        "s2r.separable",
        "h2r.logxp",
        "s2r.logxp",
    }


@pytest.mark.parametrize("family_id", sorted(FAMILIES))
def test_descriptor_claims_hold_on_random_draws(family_id):
    descriptor = FAMILIES[family_id]
    rng = random.Random(sum(map(ord, family_id)))
    checked = 0
    while checked < 50:
        params = descriptor.sample(rng)
        if not descriptor.admissible(params):
            continue
        geometry, f = descriptor.build("metric", **params)
        report = classify(geometry, f)
        assert report.order == descriptor.claimed_order(params), (family_id, params)
        checked += 1


def test_descriptor_inadmissible_draws_drop_order():
    # the two documented cancellation examples
    geometry, f = FAMILIES["nil.f2"].build("metric", b=[1, -1] + [0] * 10)
    assert classify(geometry, f).order == 1
    geometry, f = FAMILIES["sl2.f2"].build("metric", b=[2, 0, 0, 1, 0, 0])
    assert classify(geometry, f).order == 1
