import dataclasses
import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import families
from polyharm.algebra import LOG_DISC, AtomSet, Expr, merge_atom_sets
from polyharm.errors import ClosureError, UsageError
from polyharm.families import (
    FAMILIES,
    AnsatzSystem,
    generate_kernel,
    log_biharmonic,
    nil_biharmonic12,
    nil_harmonic,
    plane_harmonic_part,
    primitive_normalized,
    product_r_harmonic,
    separable_product,
    sl2_biharmonic6,
    sl2_harmonic,
    sol_axis_basis,
    sol_axis_family,
    sol_h2h3,
    sol_mixed_harmonic,
    sol_tower,
    sol_tower_literal,
)
from polyharm.geometries import (
    Geometry,
    ProductGeometry,
    by_id,
    classify,
    iterated_tension,
    product_tension_binomial,
)
from polyharm.linalg import ExactMatrix, nullspace, rank
from polyharm.parser import parse
from polyharm.rationals import GaussianRational
from polyharm.verify import AXIS_FAMILY_TEXT, random_nonzero_expr, random_scalar

from test_contract_digest import _script as contract_digest_script


# -- ansatz kernels -----------------------------------------------------------


def test_kernel_of_degree_two_basis():
    g = by_id("sol")
    basis = [parse(t, g.atoms) for t in ("x^2", "x*E(-1)", "E(-2)")]
    system = AnsatzSystem.build(g, basis)
    kernel = generate_kernel(system)
    assert len(kernel) == 1
    assert primitive_normalized(kernel[0]) == parse("2*x^2 - E(-2)", g.atoms)


def test_kernel_of_degree_four_basis_up_to_scale():
    g = by_id("sol")
    basis = sol_axis_basis(4, "x", g)
    kernel = generate_kernel(AnsatzSystem.build(g, basis))
    assert len(kernel) == 1
    assert primitive_normalized(kernel[0]) == parse(
        "8*x^4 - 24*x^2*E(-2) + 3*E(-4)", g.atoms
    )


def test_kernel_of_constant_basis():
    g = by_id("nil")
    kernel = generate_kernel(AnsatzSystem.build(g, [Expr.constant(g.atoms, 1)]))
    assert len(kernel) == 1
    assert kernel[0] == Expr.constant(g.atoms, 1)


def test_basis_whose_images_all_vanish_has_an_empty_matrix():
    g = by_id("sol")
    basis = [parse(t, g.atoms) for t in ("(1+1i)*x", "2i*y - 1/3*x*y", "-4*t")]
    system = AnsatzSystem.build(g, basis)
    assert (system.matrix.rows, system.matrix.cols) == (0, 3)
    assert system.order_matrix is system.matrix
    assert sorted(map(str, system.basis)) == sorted(map(str, basis))
    assert generate_kernel(system) == list(system.basis)


def test_kernel_for_higher_order():
    g = by_id("sol")
    basis = [parse(t, g.atoms) for t in ("t^2", "t", "1", "x")]
    system = AnsatzSystem.build(g, basis, order=2)
    kernel = generate_kernel(system)
    # tau^2 kills the whole span
    assert len(kernel) == 4
    harmonic_kernel = generate_kernel(AnsatzSystem.build(g, basis, order=1))
    assert len(harmonic_kernel) == 3


def test_ansatz_matrix_shape_and_first_power():
    g = by_id("sol")
    system = AnsatzSystem.build(g, sol_axis_basis(3, "x", g))
    assert system.matrix.rows == 3
    assert system.matrix.cols == 4
    assert system.order_matrix is system.matrix


@pytest.mark.parametrize("texts", [("x", "2*x"), ("x", "x", "y^2"), ("x + y", "2*x + 2*y", "t")])
def test_linearly_dependent_basis_is_a_usage_error(texts):
    g = by_id("nil")
    basis = [parse(t, g.atoms) for t in texts]
    with pytest.raises(UsageError, match="^ansatz basis is linearly dependent$"):
        AnsatzSystem.build(g, basis)


def test_independent_basis_with_a_shared_leading_term_is_accepted():
    # x + y and x + 2*y share their smallest term y, so only the rank decides
    g = by_id("nil")
    basis = [parse(t, g.atoms) for t in ("x + y", "x + 2*y", "x^2")]
    system = AnsatzSystem.build(g, basis)
    assert len(system.basis) == 3
    assert len(generate_kernel(system)) == 2


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
    systems += [("sol", sol_axis_basis(48, axis, by_id("sol")), 1) for axis in ("x", "y")]
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


# -- kernel orders from the re-verification --------------------------------------


def test_kernel_orders_are_classify_orders_on_the_golden_and_digest_systems():
    # the order printed under a bound is checked in test_cli, where it is cut
    systems = [
        AnsatzSystem.build(by_id(gid), _monomial_basis(by_id(gid), degree), order=2)
        for gid, degree in (("nil", 8), ("sl2", 8), ("h2xr", 6))
    ]
    systems += [AnsatzSystem.build(by_id("sol"), sol_axis_basis(48, axis), order=1)
                for axis in ("x", "y")]
    for gid, text in contract_digest_script().ANSATZ_LEVELS:  # the digest's -r 3 bases
        g = by_id(gid)
        systems.append(AnsatzSystem.build(g, [parse(b, g.atoms) for b in text.split(",")], 3))
    for system in systems:
        kernel, orders = families._kernel_orders(system)
        assert kernel == generate_kernel(system)
        assert orders == [classify(system.geometry, f).order for f in kernel]


# -- ansatz matrices against the per-image reference ----------------------------


def _reference_operator_matrix(images):
    """Rows of the matrix with one column per canonical image Expr and one row
    per signature occurring in them, in sorted order (the per-image build)."""
    columns = [{t.signature(): t.coeff for t in img.terms} for img in images]
    signatures = sorted({sig for col in columns for sig in col})
    return [{j: col[sig] for j, col in enumerate(columns) if sig in col} for sig in signatures]


def _reference_system(g, basis, order):
    """(sorted basis, matrix rows, order_matrix rows) from geometry.tension per
    basis element and iterated_tension per image."""
    ordered = sorted(basis, key=lambda b: min(t.signature() for t in b.terms))
    rows = _reference_operator_matrix(ordered)
    if rank(ExactMatrix(len(rows), len(ordered), tuple(rows))) < len(ordered):
        raise UsageError("ansatz basis is linearly dependent")
    first = [g.tension(b) for b in ordered]
    power = first if order == 1 else [iterated_tension(g, img, order - 1)[-1] for img in first]
    return ordered, _reference_operator_matrix(first), _reference_operator_matrix(power)


def _built_system(g, basis, order):
    system = AnsatzSystem.build(g, basis, order=order)
    return system.basis, list(system.matrix.row_maps), list(system.order_matrix.row_maps)


def _system_outcome(build, g, basis, order):
    try:
        ordered, matrix, power = build(g, basis, order)
        return ("ok", [str(b) for b in ordered], matrix, power)
    except (UsageError, ClosureError) as exc:
        return (type(exc), str(exc))


# sol, nil and sl2 also act on the chart where (x, y) is a conformal pair with a
# log atom, where the emission of tau refuses a mixed partial of a log term; and
# an entry z d_t d_t takes t^2 L to 2 z L, which only the closure check refuses
_XY_LOG = AtomSet(("x", "y", "t"), exp_var="t", log_kind=LOG_DISC, conformal=("x", "y"))
_Z_SHIFT = Geometry("z-shift", by_id("h2xr").atoms, ((-0.5, 0.5),) * 3,
                    ((1, {"z": 1}, 0, "t", "t"),))
_ANSATZ_CASES = [(gid, by_id(gid), None) for gid in ("sol", "nil", "sl2", "h2xr", "s2pxr",
                                                     "product:nilxh2")]
_ANSATZ_CASES += [(f"{gid} paper", by_id(gid, "paper"), None) for gid in ("h2xr", "s2pxr")]
_ANSATZ_CASES += [(f"{gid} on _XY_LOG", by_id(gid), _XY_LOG) for gid in ("sol", "nil", "sl2")]
_ANSATZ_CASES += [("z-shift", _Z_SHIFT, None)]


@settings(max_examples=150)
@given(st.sampled_from(_ANSATZ_CASES), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_ansatz_rows_match_the_per_image_reference(case, order, seed):
    _, g, atoms = case
    rng = random.Random(seed)
    atoms = atoms or g.atoms
    basis = [
        random_nonzero_expr(rng, atoms, max_terms=3, max_power=3,
                            weights=(-2, -1, 0, 1, 2) if atoms.exp_var else (0,),
                            allow_log=atoms.log_kind is not None)
        for _ in range(rng.randint(1, 5))
    ]
    tie = rng.choice([None, "scaled", "sum"])  # a shared leading signature, or none
    if tie == "scaled":
        basis.append(random_scalar(rng) * basis[0] if rng.random() < 0.5 else 2 * basis[-1])
    elif tie == "sum" and len(basis) > 1:
        basis.append(basis[0] + basis[1])
    basis = [b for b in basis if not b.is_zero()]
    got = _system_outcome(_built_system, g, basis, order)
    assert got == _system_outcome(_reference_system, g, basis, order)


def test_basis_mixing_chart_algebras_is_a_usage_error():
    g = by_id("nil")
    basis = [parse("x", g.atoms), parse("y", _XY_LOG)]
    with pytest.raises(UsageError, match="^operands live in different chart algebras$"):
        generate_kernel(AnsatzSystem.build(g, basis))


@pytest.mark.parametrize("order", [1, 2])
def test_kernel_members_are_re_verified_from_their_own_terms(monkeypatch, order):
    # E(-2) - 1/2 x^2 spans the kernel; a member perturbed off it is not
    # annihilated by tau^order, which only the re-verification can see
    g = by_id("sol")
    system = AnsatzSystem.build(g, [parse(t, g.atoms) for t in ("x^2", "x*E(-1)", "E(-2)")],
                                order=order)
    (v,) = nullspace(system.order_matrix)
    perturbed = {j: c + 1 if j == min(v) else c for j, c in v.items()}
    monkeypatch.setattr(families, "nullspace", lambda m: [perturbed])
    with pytest.raises(AssertionError, match="^kernel member failed exact re-verification$"):
        generate_kernel(system)


# -- sol axis families ----------------------------------------------------------


def test_axis_families_match_reference_text():
    g = by_id("sol")
    for n, text in AXIS_FAMILY_TEXT.items():
        assert sol_axis_family(n, "x", g) == parse(text, g.atoms)


def test_axis_family_y_axis_low_degrees():
    g = by_id("sol")
    assert sol_axis_family(2, "y", g) == parse("2*y^2 - E(2)", g.atoms)
    assert sol_axis_family(3, "y", g) == parse("2*y^3 - 3*y*E(2)", g.atoms)


def test_axis_families_are_harmonic_beyond_printed_range():
    g = by_id("sol")
    for n in range(2, 13):
        for axis in ("x", "y"):
            assert g.tension(sol_axis_family(n, axis, g)).is_zero()


def test_axis_family_mirror_symmetry():
    # (x <-> y, t -> -t) sends the x family to the y family exactly
    g = by_id("sol")
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
    g = by_id("sol")
    f = sol_tower(1, [1, 2, 3, 4], [4, 3, 2, 1])
    assert g.tension(f).is_zero()


def test_tower_degenerate_parameters():
    g = by_id("sol")
    f = sol_tower(2, [1, 0, 0, 0], [0, 0, 0, 0])
    assert f == parse("t^2", g.atoms)
    chain = iterated_tension(g, f, 2)
    assert str(chain[1]) == "2"
    assert chain[2].is_zero()


def test_tower_order_three_chain():
    g = by_id("sol")
    f = sol_tower(3, [1, 0, 0, 0], [1, 0, 0, 0])  # t^4 + t^5
    report = classify(g, f)
    assert report.order == 3
    assert report.chain[1] == parse("12*t^2 + 20*t^3", g.atoms)


def test_tower_rejects_all_zero_parameters():
    with pytest.raises(UsageError):
        sol_tower(2, [0, 0, 0, 0], [0, 0, 0, 0])


def test_tower_index_shift_against_literal_variant():
    g = by_id("sol")
    rng = random.Random(1)
    a = [random_scalar(rng) for _ in range(4)]
    a[0] = GaussianRational.coerce(1)
    b = [random_scalar(rng) for _ in range(4)]
    for r in range(1, 5):
        assert classify(g, sol_tower(r, a, b)).order == r
        assert classify(g, sol_tower_literal(r, a, b)).order == r + 1
    # the r = 0 literal tower is plain harmonic
    assert classify(g, sol_tower_literal(0, a, b)).order == 1


_SOL, _LINE = by_id("sol"), by_id("line")
_ONE_SOL, _ONE_LINE = Expr.constant(_SOL.atoms, 1), Expr.constant(_LINE.atoms, 1)
_H2XR, _LINE_X_LINE = by_id("h2xr"), by_id("product:linexline")


@pytest.mark.parametrize("call, message", [
    (lambda: iterated_tension(_SOL, _ONE_SOL, 0), "iteration count must be at least 1"),
    (lambda: product_tension_binomial(_LINE, _ONE_LINE, _LINE, _ONE_LINE, 0),
     "n must be at least 1"),
    (lambda: nil_biharmonic12([1, 2]), "the nil family takes 12 parameters"),
    (lambda: sl2_biharmonic6([1] * 5), "the sl2 family takes 6 parameters"),
    (lambda: sol_tower(0, [1, 0, 0, 0], [0] * 4), "tower order must be at least 1"),
    (lambda: sol_tower_literal(-1, [1, 0, 0, 0], [0] * 4), "tower index must be non-negative"),
    (lambda: ExactMatrix.from_rows([]), "matrix needs at least one row"),
    (lambda: by_id("sl2").check_point((0.1, 0.5)), "sl2 expects 3 coordinates"),
    (lambda: merge_atom_sets(_SOL.atoms, AtomSet(("s",), exp_var="s")),
     "at most one exponential atom per product chart"),
    (lambda: _SOL.tension(parse("x*y", by_id("nil").atoms)),
     "expression does not live in the sol algebra"),
    (lambda: by_id("s2p").tension(parse("log1m", by_id("h2").atoms)),
     "expression does not live in the s2p algebra"),
    (lambda: sol_mixed_harmonic(4, 1, 1, 1, 1, 1, 1),
     "the mixed harmonic family is stated for n = 2 and 3"),
    (lambda: sol_h2h3(0, 0, 1, 1), "each factor of the product family needs a nonzero pair"),
    (lambda: separable_product(_H2XR, [], [], [1]), "the conformal factor must be nonzero"),
    (lambda: separable_product(_H2XR, [1], [], [0, 0]), "the polynomial factor must be nonzero"),
    (lambda: log_biharmonic(_SOL), "this geometry has no log atom"),
    (lambda: log_biharmonic(_H2XR, [0, 0]), "the affine factor must be nonzero"),
    (lambda: product_r_harmonic(_LINE_X_LINE, parse("s", _LINE_X_LINE.atoms),
                                parse("t^20", _LINE_X_LINE.atoms)),
     "second factor must have a finite properness order, got order exceeds bound 8"),
    (lambda: classify(_SOL, _ONE_SOL, 0), "the properness bound must be at least 1"),
    (lambda: AtomSet(("x", "x")), "duplicate chart variables"),
    (lambda: AtomSet(("x", "y"), log_kind=LOG_DISC), "a log atom needs a conformal pair"),
    (lambda: AtomSet(("x", "y"), conformal=("x", "z")),
     "conformal pair must consist of chart variables"),
    (lambda: merge_atom_sets(_H2XR.first.atoms, AtomSet(("u", "v"), log_kind=LOG_DISC,
                                                        conformal=("u", "v"))),
     "at most one log atom per product chart"),
    (lambda: Expr.sum(_SOL.atoms, [_ONE_SOL, _ONE_LINE]),
     "operands live in different chart algebras"),
], ids=["iterated_tension", "product_tension_binomial", "nil_biharmonic12",
        "sl2_biharmonic6", "sol_tower", "sol_tower_literal", "from_rows", "check_point",
        "merge_atom_sets", "tension_without_E", "tension_with_another_log",
        "sol_mixed_harmonic", "sol_h2h3", "separable_product_zero_conformal_part",
        "separable_product_zero_polynomial", "log_biharmonic_without_a_log_atom",
        "log_biharmonic_zero_affine_factor", "product_r_harmonic_unbounded_second_factor",
        "classify_bound", "atom_set_duplicate_variables", "atom_set_log_without_conformal_pair",
        "atom_set_conformal_pair_outside", "merge_atom_sets_two_logs", "expr_sum_two_algebras"])
def test_api_usage_guards_refuse_with_their_message(call, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call()


# -- sol mixed and product families -----------------------------------------------


def test_mixed_harmonic_examples():
    g = by_id("sol")
    f = sol_mixed_harmonic(2, 1, 1, 1, 1, 1, 1)
    expected = parse("(1 + y)*(2*x^2 - E(-2)) + (1 + x)*(2*y^2 - E(2))", g.atoms)
    assert f == expected
    assert g.tension(f).is_zero()

    f = sol_mixed_harmonic(3, 2, 3, 1, 0, 1, 0)
    expected = parse("2*(2*x^3 - 3*x*E(-2)) + 3*(2*y^3 - 3*y*E(2))", g.atoms)
    assert f == expected
    assert g.tension(f).is_zero()


def test_mixed_harmonic_reduces_to_axis_member():
    g = by_id("sol")
    f = sol_mixed_harmonic(2, 1, 0, 1, 0, 1, 0)
    # b = 0 is fine as long as (a, b) != (0, 0)
    with pytest.raises(UsageError):
        sol_mixed_harmonic(2, 0, 0, 1, 0, 1, 0)
    assert f == sol_axis_family(2, "x", g)


def test_h2h3_specializations():
    g = by_id("sol")
    assert g.tension(sol_h2h3(1, 0, 1, 0)) == Expr.constant(g.atoms, -8)
    assert g.tension(sol_h2h3(0, 1, 0, 1)) == parse("-72*x*y", g.atoms)


def test_h2h3_is_proper_biharmonic_for_random_parameters(rng):
    g = by_id("sol")
    for _ in range(25):
        a2, a3 = random_scalar(rng), random_scalar(rng)
        b2, b3 = random_scalar(rng), random_scalar(rng)
        if (a2.is_zero() and a3.is_zero()) or (b2.is_zero() and b3.is_zero()):
            continue
        assert classify(g, sol_h2h3(a2, a3, b2, b3)).order == 2


# -- nil families --------------------------------------------------------------------


def test_nil_harmonic_linear_part():
    g = by_id("nil")
    f = nil_harmonic([1, 1])
    assert f == parse("t + x*t", g.atoms)
    assert g.tension(f).is_zero()


def test_nil_harmonic_cubic_holomorphic_part():
    g = by_id("nil")
    f = nil_harmonic([0, 0], hol=[0, 0, 0, 1])  # (x + iy)^3
    assert g.tension(f).is_zero()
    assert f == parse("x^3 + 3i*x^2*y - 3*x*y^2 - 1i*y^3", g.atoms)


def test_nil_harmonic_constant():
    g = by_id("nil")
    assert g.tension(nil_harmonic([0, 0], hol=[1])).is_zero()


def _running_sum_plane_harmonic_part(atoms, hol, antihol):
    """The replaced body of plane_harmonic_part: one re-canonicalisation of
    the growing sum per coefficient.  Kept as the reference."""
    i = GaussianRational(0, 1)
    x = Expr.variable(atoms, "x")
    y = Expr.variable(atoms, "y")
    zplus = x + i * y
    zminus = x - i * y
    total = Expr.zero(atoms)
    for coeffs, base in ((hol, zplus), (antihol, zminus)):
        power = Expr.constant(atoms, 1)
        for c in coeffs:
            total = total + GaussianRational.coerce(c) * power
            power = power * base
    return total


def test_plane_harmonic_part_matches_running_sum():
    rng = random.Random(20261018)
    cases = [([], []), ([1], [-1]), ([0, 1], [0, -1]), ([2, 0, 3], [])]
    for _ in range(40):
        # small draws with zeros and cancelling constants, and a few long lists
        size = 12 if rng.random() < 0.8 else 30
        cases.append(tuple(
            [random_scalar(rng) if rng.random() < 0.8 else 0 for _ in range(rng.randint(0, size))]
            for _ in range(2)
        ))
    for g in (by_id("nil"), by_id("sl2")):
        for hol, antihol in cases:
            got = plane_harmonic_part(g.atoms, hol, antihol)
            want = _running_sum_plane_harmonic_part(g.atoms, hol, antihol)
            assert got.terms == want.terms, (hol, antihol)


def test_nil_biharmonic_unit_vectors():
    g = by_id("nil")
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
    g = by_id("nil")
    b = [1, -1] + [0] * 10
    f = nil_biharmonic12(b)
    assert not FAMILIES["nil.f2"].admissible({"b": b})
    assert classify(g, f).order == 1


# -- sl2 families ----------------------------------------------------------------------


def test_sl2_harmonic_members():
    g = by_id("sl2")
    assert sl2_harmonic([0, 1]) == parse("y*t", g.atoms)
    assert g.tension(sl2_harmonic([0, 1])).is_zero()
    assert g.tension(sl2_harmonic([0, 0], hol=[0, 0, 1])).is_zero()
    assert g.tension(sl2_harmonic([0, 0], hol=[2], antihol=[3])).is_zero()


def test_sl2_biharmonic_unit_vectors():
    g = by_id("sl2")
    f = sl2_biharmonic6([0, 0, 1, 0, 0, 0])
    assert g.tension(f) == parse("4*x - 4*y*t", g.atoms)
    assert classify(g, f).order == 2
    f = sl2_biharmonic6([0, 1, 0, 0, 0, 0])
    assert g.tension(f) == Expr.constant(g.atoms, 4)
    assert classify(g, f).order == 2


def test_sl2_biharmonic_cancellation_is_only_harmonic():
    g = by_id("sl2")
    b = [2, 0, 0, 1, 0, 0]
    assert not FAMILIES["sl2.f2"].admissible({"b": b})
    assert classify(g, sl2_biharmonic6(b)).order == 1


# -- f2 admissibility against hand-written conditions -------------------------------
# The two predicates below were worked out by hand from the nil and sl2 tables
# (the conditions under which tau of the family vanishes).  The families read
# admissibility from tau itself; these stay here as an independent reference.


def _nil_f2_proper(b):
    b = [GaussianRational.coerce(v) for v in b]
    conditions = [
        b[0] + b[1],
        b[2] + 3 * b[3] + b[6],
        b[4] + 3 * b[7],
        b[5] + b[10],
        3 * b[8] + 3 * b[9] + 2 * b[10],
        b[11],
    ]
    return any(not c.is_zero() for c in conditions)


def _onto_nil_cancellation(b):
    """b moved onto the set where every condition of _nil_f2_proper vanishes."""
    b = [GaussianRational.coerce(v) for v in b]
    b[0], b[2], b[4], b[5] = -b[1], -3 * b[3] - b[6], -3 * b[7], -b[10]
    b[8], b[11] = -b[9] - 2 * b[10] / 3, 0
    return b


def _sl2_f2_proper(b):
    b = [GaussianRational.coerce(v) for v in b]
    conditions = [b[1], b[2], b[4], b[5], b[0] - 2 * b[3]]
    return any(not c.is_zero() for c in conditions)


def _onto_sl2_cancellation(b):
    """b moved onto the set where every condition of _sl2_f2_proper vanishes."""
    b3 = GaussianRational.coerce(b[3])
    return [2 * b3, 0, 0, b3, 0, 0]


_F2_REFERENCES = {
    "nil": (families.NIL_F2_MONOMIALS, _nil_f2_proper, _onto_nil_cancellation, 6),
    "sl2": (families.SL2_F2_MONOMIALS, _sl2_f2_proper, _onto_sl2_cancellation, 1),
}


@pytest.mark.parametrize("chart", ["nil", "sl2"])
def test_f2_admissibility_from_tau_equals_the_hand_written_conditions(chart):
    monomials, proper, onto, kernel_dim = _F2_REFERENCES[chart]
    admissible = FAMILIES[f"{chart}.f2"].admissible
    g = by_id(chart)
    basis = [Expr.monomial(g.atoms, 1, m) for m in monomials]
    # every vector of tau's kernel on the f2 span is inadmissible under both
    kernel = generate_kernel(AnsatzSystem.build(g, basis))
    assert len(kernel) == kernel_dim
    for f in kernel:
        coeffs = {t.signature(): t.coeff for t in f.terms}
        b = [coeffs.get(m.terms[0].signature(), 0) for m in basis]
        assert not admissible({"b": b}) and not proper(b), b
    assert not admissible({"b": [0] * len(monomials)})
    # seeded draws, about half of them moved onto the cancellation set
    rng = random.Random(20240)
    inadmissible = 0
    for _ in range(1000):
        b = [random_scalar(rng) for _ in monomials]
        if rng.random() < 0.5:
            b = onto(b)
        assert admissible({"b": b}) == proper(b), b
        inadmissible += not proper(b)
    assert inadmissible > 300


# -- conformal product families ----------------------------------------------------------


def test_separable_product_cubic():
    g = by_id("h2xr")
    F = separable_product(g, [0, 1], [], [0, 0, 0, 1])  # z * t^3
    chain = iterated_tension(g, F, 2)
    assert chain[1] == parse("6*z*t", g.atoms)
    assert chain[2].is_zero()


def test_separable_product_affine_poly_is_harmonic():
    g = by_id("h2xr")
    F = separable_product(g, [0, 1], [], [1, 1])  # z * (1 + t)
    assert classify(g, F).order == 1


def test_separable_product_quadratic_is_biharmonic():
    g = by_id("h2xr")
    F = separable_product(g, [0, 0, 1], [0, 1], [0, 0, 1])  # (z^2 + zb) t^2
    assert classify(g, F).order == 2


def test_log_biharmonic_surfaces_and_products():
    disc = by_id("h2", "paper")
    f = log_biharmonic(disc)
    assert disc.tension(f) == Expr.constant(disc.atoms, 4)
    assert classify(disc, f).order == 2

    g = by_id("h2xr", "paper")
    f = log_biharmonic(g, [0, 1])  # -L * t
    chain = iterated_tension(g, f, 2)
    assert chain[1] == parse("4*t", g.atoms)
    assert chain[2].is_zero()


def test_log_biharmonic_rejects_affine_factor_off_product():
    with pytest.raises(UsageError):
        log_biharmonic(by_id("h2"), [1, 0])


# -- generic products -----------------------------------------------------------------------


def test_product_r_harmonic_orders():
    g = by_id("h2xr")
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
    g = by_id("product:linexline")
    f1 = parse("s^2", g.atoms)
    f2 = parse("t^2", g.atoms)
    with pytest.raises(UsageError):
        product_r_harmonic(g, f1, f2)
    # direct classification shows the product is triharmonic instead
    assert classify(g, f1 * f2).order == 3


@pytest.mark.parametrize("gid, f1, f2, which", [
    ("product:linexline", "t", "t^3", "first"),  # a power of the other factor
    ("product:linexline", "s", "s*t^3", "second"),
    ("product:solxh2", "x", "t*z", "second"),
    ("product:h2xsol", "E(1)*z", "t", "first"),  # a weight where the factor has no E
    ("product:solxh2", "x", "E(-1)*z", "second"),
    ("product:solxh2", "x*log1m", "zb", "first"),  # a log atom where the factor has none
    ("product:h2xsol", "z", "t*log1m", "second"),
])
def test_product_r_harmonic_refuses_a_factor_outside_its_own_atoms(gid, f1, f2, which):
    g = by_id(gid)
    with pytest.raises(UsageError, match=f"^{which} factor expression uses a symbol of the other"):
        product_r_harmonic(g, parse(f1, g.atoms), parse(f2, g.atoms))


# -- seeded sampler -----------------------------------------------------------------------------


def _reference_rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def _reference_random_scalar(rng):
    """families.random_scalar as it was drawn through Fractions."""
    re = _reference_rand_fraction(rng)
    im = _reference_rand_fraction(rng) if rng.random() < 0.3 else Fraction(0)
    return GaussianRational(re, im)


def test_random_scalar_matches_the_fraction_reference():
    rng, ref = random.Random("scalar-True"), random.Random("scalar-True")
    values = []
    for _ in range(500):
        values.append(random_scalar(rng))
        assert values[-1] == _reference_random_scalar(ref)
        assert rng.getstate() == ref.getstate()
    assert any(v.b for v in values)


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
    for _ in range(50):
        params = descriptor.draw(rng)
        geometry, f = descriptor.build("metric", **params)
        report = classify(geometry, f)
        assert report.order == descriptor.claimed_order(params), (family_id, params)


def test_descriptor_draw_is_admissible_and_keeps_fixed_parameters():
    rng = random.Random(3)
    for family_id, fixed in (("sol.tower", {"r": 5}), ("sol.mixed", {"n": 3})):
        descriptor = FAMILIES[family_id]
        for _ in range(20):
            params = descriptor.draw(rng, **fixed)
            assert params.items() >= fixed.items()
            assert descriptor.admissible(params)
    # h2h3 samples each scalar freely, so a pair vanishes about once in 160
    # samples; draw never returns one
    h2h3 = FAMILIES["sol.h2h3"]
    assert all(h2h3.admissible(h2h3.draw(rng)) for _ in range(400))


@pytest.mark.parametrize("chart", ["nil", "sl2"])
def test_f1_cancelling_constant_terms_are_inadmissible(chart):
    descriptor = FAMILIES[f"{chart}.f1"]
    # hol and antihol overlap at the constant term, so 1 + (-1) builds zero
    zero = {"a": [0, 0], "hol": [1], "antihol": [-1]}
    assert not descriptor.admissible(zero)
    with pytest.raises(UsageError):
        descriptor.build("metric", **zero)
    nonzero = [
        {"a": [0, 0], "hol": [1], "antihol": [1]},
        {"a": [0, 0], "hol": [1, 0], "antihol": [-1, 2]},
        {"a": [0, 3], "hol": [1], "antihol": [-1]},
        {"a": [0, 0], "hol": [0, 0, 1], "antihol": []},
    ]
    for params in nonzero:
        assert descriptor.admissible(params), params
        assert not descriptor.build("metric", **params)[1].is_zero(), params
    # draw redraws past the zero function however often the sampler yields it
    samples = iter([zero, zero, nonzero[0]])
    rigged = dataclasses.replace(descriptor, sample=lambda rng: next(samples))
    params = rigged.draw(random.Random(0))
    assert params == nonzero[0] and not rigged.build("metric", **params)[1].is_zero()


def test_readme_family_table_matches_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 6:
            for family_id in re.findall(r"`([a-z0-9]+\.[a-z0-9]+)`", cells[0]):
                stated[family_id] = (cells[3], cells[4])
    for family_id, descriptor in FAMILIES.items():
        schema = descriptor.schema
        default = schema.defaults.get("params")
        want = (str(schema.width), f"`{default}`" if default else "none")
        assert stated[family_id] == want, family_id


def test_descriptor_inadmissible_draws_drop_order():
    # the two documented cancellation examples
    geometry, f = FAMILIES["nil.f2"].build("metric", b=[1, -1] + [0] * 10)
    assert classify(geometry, f).order == 1
    geometry, f = FAMILIES["sl2.f2"].build("metric", b=[2, 0, 0, 1, 0, 0])
    assert classify(geometry, f).order == 1
