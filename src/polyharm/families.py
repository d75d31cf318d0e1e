"""Constructors for the explicit polyharmonic function families.

Each family is a closed-form expression with exact scalar parameters whose
properness order can be re-verified by :func:`polyharm.geometries.classify`.
Nonzero parameters are necessary but not sufficient for the claimed order:
some families contain measure-zero parameter sets where the first tension
field cancels (their descriptors carry explicit admissibility predicates),
so callers should always re-classify rather than trust the label.

The ansatz machinery turns a finite list of candidate terms into the exact
matrix of the tension operator restricted to their span; harmonic (or
r-harmonic) members are its kernel, computed over the Gaussian rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import AtomSet, Expr
from .errors import UsageError
from .geometries import (
    Geometry,
    ProductGeometry,
    classify,
    disc_times_line,
    iterated_tension,
    nil,
    sl2,
    sol,
    sphere_times_line,
)
from .linalg import ExactMatrix, nullspace, primitive_real_scale
from .rationals import GaussianRational, ScalarLike

Params = Sequence[ScalarLike]


def _coerce_all(values: Params) -> list[GaussianRational]:
    return [GaussianRational.coerce(v) for v in values]


def _all_zero(values: Params) -> bool:
    return all(GaussianRational.coerce(v).is_zero() for v in values)


# -- ansatz systems ----------------------------------------------------------


def _leading_signature(e: Expr):
    if e.is_zero():
        raise UsageError("zero expression in ansatz basis")
    return min(t.signature() for t in e.terms)


def _operator_matrix(images: Sequence[Expr]) -> tuple[ExactMatrix, tuple]:
    columns = [img.coefficients() for img in images]
    signatures = sorted({sig for col in columns for sig in col})
    zero = GaussianRational.coerce(0)
    rows = [[col.get(sig, zero) for col in columns] for sig in signatures]
    if not rows:  # all images vanish: the 0 x n matrix, every vector in kernel
        rows = [[zero for _ in images]]
        signatures = [None]
    return ExactMatrix.from_rows(rows), tuple(signatures)


@dataclass(frozen=True)
class AnsatzSystem:
    """Tension restricted to the span of a finite term basis, as a matrix.

    ``matrix`` is the first-power tension map (columns indexed by the
    sorted basis, rows by ``image_signatures``); ``order_matrix`` is the
    map for tau^order, which generate_kernel inverts.  Construction fails
    with a closure error if tau leaves the algebra on any basis element,
    so existence of the system certifies closure.
    """

    geometry: Geometry
    basis: tuple[Expr, ...]
    image_signatures: tuple
    matrix: ExactMatrix
    order: int
    order_matrix: ExactMatrix

    @staticmethod
    def build(geometry: Geometry, basis: Sequence[Expr], order: int = 1) -> "AnsatzSystem":
        if order < 1:
            raise UsageError("ansatz order must be at least 1")
        if not basis:
            raise UsageError("empty ansatz basis")
        ordered = tuple(sorted(basis, key=_leading_signature))
        first_images = [geometry.tension(b) for b in ordered]
        matrix, signatures = _operator_matrix(first_images)
        if order == 1:
            order_matrix = matrix
        else:
            power_images = [
                iterated_tension(geometry, img, order - 1)[-1] for img in first_images
            ]
            order_matrix, _ = _operator_matrix(power_images)
        return AnsatzSystem(geometry, ordered, signatures, matrix, order, order_matrix)


def primitive_normalized(f: Expr) -> Expr:
    """Rescale to coprime integer coefficients with positive leading term.

    Falls back to making the leading coefficient 1 when coefficients are
    not all real.  Display-level normalization; scaling never changes a
    properness order.
    """
    if f.is_zero():
        return f
    coeffs = [t.coeff for t in f.terms]
    try:
        scale = GaussianRational(primitive_real_scale(coeffs))
        if (coeffs[0] * scale).re < 0:
            scale = -scale
    except UsageError:
        scale = GaussianRational.coerce(1) / coeffs[0]
    return scale * f


def generate_kernel(system: AnsatzSystem) -> list[Expr]:
    """Exact basis of {f in span(basis) : tau^order f = 0}."""
    vectors = nullspace(system.order_matrix)
    kernel = []
    for v in vectors:
        f = Expr.sum(system.geometry.atoms, [b.scale(c) for c, b in zip(v, system.basis)])
        check = iterated_tension(system.geometry, f, system.order)[-1]
        if not check.is_zero():
            raise AssertionError("kernel member failed exact re-verification")
        kernel.append(f)
    return kernel


# -- sol families ------------------------------------------------------------


def sol_axis_basis(n: int, axis: str = "x", geometry: Geometry | None = None) -> list[Expr]:
    """Candidate terms v^k E(-+(n-k)) for the degree-n axis family."""
    if n < 2:
        raise UsageError("axis families start at degree 2")
    if axis not in ("x", "y"):
        raise UsageError("axis must be 'x' or 'y'")
    g = geometry or sol()
    sign = -1 if axis == "x" else 1
    return [
        Expr.monomial(g.atoms, 1, {axis: k}, weight=sign * (n - k))
        for k in range(n + 1)
    ]


def sol_axis_family(n: int, axis: str = "x", geometry: Geometry | None = None) -> Expr:
    """The unique harmonic combination of the axis basis, scaled to the
    primitive integer coefficient vector with positive leading v^n term."""
    g = geometry or sol()
    basis = sol_axis_basis(n, axis, g)
    system = AnsatzSystem.build(g, basis, order=1)
    kernel = generate_kernel(system)
    if len(kernel) != 1:
        raise AssertionError(f"axis ansatz kernel has dimension {len(kernel)} != 1")
    f = kernel[0]
    coeffs = [t.coeff for t in f.terms]
    scale = GaussianRational(primitive_real_scale(coeffs))
    idx = g.atoms.index(axis)
    leading = next(t.coeff for t in f.terms if t.powers[idx] == n)
    if (leading * scale).re < 0:
        scale = -scale
    return scale * f


def _sol_affine(atoms: AtomSet, c: Params) -> Expr:
    a1, a2, a3, a4 = _coerce_all(c)
    return (
        Expr.constant(atoms, a1)
        + a2 * Expr.variable(atoms, "x")
        + a3 * Expr.variable(atoms, "y")
        + a4 * Expr.monomial(atoms, 1, {"x": 1, "y": 1})
    )


def sol_tower(r: int, a: Params, b: Params, geometry: Geometry | None = None) -> Expr:
    """t^(2(r-1)) f1 + t^(2r-1) f2 with harmonic xy-affine f1, f2.

    Proper r-harmonic for every nonzero (a, b); note the index is shifted
    by one against the t^(2r), t^(2r+1) variant (see sol_tower_literal).
    """
    if r < 1:
        raise UsageError("tower order must be at least 1")
    if _all_zero(list(a) + list(b)):
        raise UsageError("tower parameters must not all vanish")
    g = geometry or sol()
    t_even = Expr.monomial(g.atoms, 1, {"t": 2 * (r - 1)})
    t_odd = Expr.monomial(g.atoms, 1, {"t": 2 * r - 1})
    return t_even * _sol_affine(g.atoms, a) + t_odd * _sol_affine(g.atoms, b)


def sol_tower_literal(r: int, a: Params, b: Params, geometry: Geometry | None = None) -> Expr:
    """t^(2r) f1 + t^(2r+1) f2; proper (r+1)-harmonic for nonzero (a, b)."""
    if r < 0:
        raise UsageError("tower index must be non-negative")
    if _all_zero(list(a) + list(b)):
        raise UsageError("tower parameters must not all vanish")
    g = geometry or sol()
    t_even = Expr.monomial(g.atoms, 1, {"t": 2 * r})
    t_odd = Expr.monomial(g.atoms, 1, {"t": 2 * r + 1})
    return t_even * _sol_affine(g.atoms, a) + t_odd * _sol_affine(g.atoms, b)


def sol_mixed_harmonic(
    n: int,
    a: ScalarLike,
    b: ScalarLike,
    alpha: ScalarLike,
    beta: ScalarLike,
    gamma: ScalarLike,
    delta: ScalarLike,
    geometry: Geometry | None = None,
) -> Expr:
    """a (alpha + beta y) f_nx + b (gamma + delta x) f_ny, harmonic for n = 2, 3."""
    if n not in (2, 3):
        raise UsageError("the mixed harmonic family is stated for n = 2 and 3")
    if _all_zero([a, b]) or _all_zero([alpha, beta]) or _all_zero([gamma, delta]):
        raise UsageError("degenerate parameters for the mixed harmonic family")
    g = geometry or sol()
    atoms = g.atoms
    fx = sol_axis_family(n, "x", g)
    fy = sol_axis_family(n, "y", g)
    left = Expr.constant(atoms, alpha) + GaussianRational.coerce(beta) * Expr.variable(atoms, "y")
    right = Expr.constant(atoms, gamma) + GaussianRational.coerce(delta) * Expr.variable(atoms, "x")
    return GaussianRational.coerce(a) * (left * fx) + GaussianRational.coerce(b) * (right * fy)


def sol_h2h3(
    a2: ScalarLike,
    a3: ScalarLike,
    b2: ScalarLike,
    b3: ScalarLike,
    geometry: Geometry | None = None,
) -> Expr:
    """Product of the degree-2/3 x-harmonic and y-harmonic combinations.

    tau(h2 h3) = -8 (a2 + 3 a3 x)(b2 + 3 b3 y) and tau^2 = 0.
    """
    if _all_zero([a2, a3]) or _all_zero([b2, b3]):
        raise UsageError("each factor of the product family needs a nonzero pair")
    g = geometry or sol()
    h2 = GaussianRational.coerce(a2) * sol_axis_family(2, "x", g) + GaussianRational.coerce(
        a3
    ) * sol_axis_family(3, "x", g)
    h3 = GaussianRational.coerce(b2) * sol_axis_family(2, "y", g) + GaussianRational.coerce(
        b3
    ) * sol_axis_family(3, "y", g)
    return h2 * h3


# -- nil and sl2 families -----------------------------------------------------


def plane_harmonic_part(atoms: AtomSet, hol: Params, antihol: Params) -> Expr:
    """hol(x + iy) + antihol(x - iy) with polynomial coefficient lists."""
    i = GaussianRational.of(0, 1)
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


def nil_harmonic(
    a: Params, hol: Params = (), antihol: Params = (), geometry: Geometry | None = None
) -> Expr:
    """hol(x+iy) + antihol(x-iy) + a1 t + a2 x t, harmonic on nil."""
    if _all_zero(list(a) + list(hol) + list(antihol)):
        raise UsageError("nil harmonic family needs a nonzero parameter")
    g = geometry or nil()
    a1, a2 = _coerce_all(a)
    return (
        plane_harmonic_part(g.atoms, hol, antihol)
        + a1 * Expr.variable(g.atoms, "t")
        + a2 * Expr.monomial(g.atoms, 1, {"x": 1, "t": 1})
    )


NIL_F2_MONOMIALS: tuple[dict[str, int], ...] = (
    {"x": 2},
    {"y": 2},
    {"y": 1, "t": 1},
    {"x": 3},
    {"x": 2, "y": 1},
    {"x": 2, "t": 1},
    {"x": 1, "y": 2},
    {"y": 3},
    {"x": 3, "y": 1},
    {"x": 1, "y": 3},
    {"y": 2, "t": 1},
    {"x": 3, "t": 1},
)


def nil_biharmonic12(b: Params, geometry: Geometry | None = None) -> Expr:
    """The 12-parameter polynomial family with tau^2 = 0 on nil."""
    if len(b) != 12:
        raise UsageError("the nil family takes 12 parameters")
    if _all_zero(b):
        raise UsageError("parameters must not all vanish")
    g = geometry or nil()
    terms = zip(_coerce_all(b), NIL_F2_MONOMIALS)
    return Expr.sum(g.atoms, [Expr.monomial(g.atoms, c, p) for c, p in terms])


def nil_f2_proper(b: Params) -> bool:
    """Exact predicate: the first tension field of nil_biharmonic12 is nonzero."""
    b = _coerce_all(b)
    conditions = [
        b[0] + b[1],
        b[2] + 3 * b[3] + b[6],
        b[4] + 3 * b[7],
        b[5] + b[10],
        3 * b[8] + 3 * b[9] + 2 * b[10],
        b[11],
    ]
    return any(not c.is_zero() for c in conditions)


def sl2_harmonic(
    a: Params, hol: Params = (), antihol: Params = (), geometry: Geometry | None = None
) -> Expr:
    """hol(x+iy) + antihol(x-iy) + a1 t + a2 y t, harmonic on sl2."""
    if _all_zero(list(a) + list(hol) + list(antihol)):
        raise UsageError("sl2 harmonic family needs a nonzero parameter")
    g = geometry or sl2()
    a1, a2 = _coerce_all(a)
    return (
        plane_harmonic_part(g.atoms, hol, antihol)
        + a1 * Expr.variable(g.atoms, "t")
        + a2 * Expr.monomial(g.atoms, 1, {"y": 1, "t": 1})
    )


SL2_F2_MONOMIALS: tuple[dict[str, int], ...] = (
    {"x": 1, "t": 1},
    {"t": 2},
    {"x": 1, "t": 2},
    {"y": 1, "t": 2},
    {"t": 3},
    {"y": 1, "t": 3},
)


def sl2_biharmonic6(b: Params, geometry: Geometry | None = None) -> Expr:
    """The 6-parameter polynomial family with tau^2 = 0 on sl2."""
    if len(b) != 6:
        raise UsageError("the sl2 family takes 6 parameters")
    if _all_zero(b):
        raise UsageError("parameters must not all vanish")
    g = geometry or sl2()
    terms = zip(_coerce_all(b), SL2_F2_MONOMIALS)
    return Expr.sum(g.atoms, [Expr.monomial(g.atoms, c, p) for c, p in terms])


def sl2_f2_proper(b: Params) -> bool:
    """Exact predicate: the first tension field of sl2_biharmonic6 is nonzero."""
    b = _coerce_all(b)
    conditions = [b[1], b[2], b[4], b[5], b[0] - 2 * b[3]]
    return any(not c.is_zero() for c in conditions)


# -- conformal product families ----------------------------------------------


def conformal_harmonic_part(atoms: AtomSet, hol: Params, antihol: Params) -> Expr:
    """hol(z) + antihol(zb) as polynomial coefficient lists."""
    z, zb = atoms.conformal
    return Expr.sum(atoms, [
        Expr.monomial(atoms, c, {name: k})
        for coeffs, name in ((hol, z), (antihol, zb))
        for k, c in enumerate(coeffs)
    ])


def separable_product(
    geometry: ProductGeometry, hol: Params, antihol: Params, p: Params
) -> Expr:
    """(hol(z) + antihol(zb)) * p(t) on a conformal-surface x line product.

    Proper biharmonic when p has a nonzero degree-2 or 3 coefficient and the
    conformal part is nonzero; harmonic when p is affine (flagged by
    classification, not an error).
    """
    atoms = geometry.atoms
    zpart = conformal_harmonic_part(atoms, hol, antihol)
    if zpart.is_zero():
        raise UsageError("the conformal factor must be nonzero")
    if _all_zero(p):
        raise UsageError("the polynomial factor must be nonzero")
    tname = geometry.second.atoms.variables[0]
    poly = Expr.sum(atoms, [Expr.monomial(atoms, c, {tname: k}) for k, c in enumerate(p)])
    return zpart * poly


def log_biharmonic(geometry: Geometry, p: Params | None = None) -> Expr:
    """-log(1 - z zb) on the disc, +log(1 + z zb) on the punctured sphere,
    optionally times an affine a0 + a1 t on the product chart."""
    atoms = geometry.atoms
    if atoms.log_kind is None:
        raise UsageError("this geometry has no log atom")
    base = Expr.log(atoms)
    if atoms.log_kind == "log1m":
        base = -base
    if p is None:
        return base
    if _all_zero(p):
        raise UsageError("the affine factor must be nonzero")
    if not isinstance(geometry, ProductGeometry):
        raise UsageError("an affine factor needs a product chart")
    a0, a1 = _coerce_all(p)
    tname = geometry.second.atoms.variables[0]
    affine = Expr.constant(atoms, a0) + a1 * Expr.variable(atoms, tname)
    return base * affine


def product_r_harmonic(
    geometry: ProductGeometry, f1: Expr, f2: Expr, r_max: int = 8
) -> Expr:
    """f1 * f2 for harmonic f1 on the first factor and r-harmonic f2 on the
    second; the product is proper r-harmonic on the product chart."""
    report1 = classify(geometry.first, f1, r_max)
    if report1.order != 1:
        raise UsageError(
            f"first factor must be proper harmonic, got {report1.describe()}"
        )
    report2 = classify(geometry.second, f2, r_max)
    if report2.order is None or report2.order < 1:
        raise UsageError(
            f"second factor must have a finite properness order, got {report2.describe()}"
        )
    return f1 * f2


# -- family registry -----------------------------------------------------------


@dataclass(frozen=True)
class FamilyDescriptor:
    """A named family: how to build it, when parameters are admissible,
    and the properness order the construction claims."""

    family_id: str
    description: str
    build: Callable[..., tuple[Geometry, Expr]]  # (convention, **params)
    claimed_order: Callable[[dict], int]
    sample: Callable[[random.Random], dict]
    admissible: Callable[[dict], bool]


def _rand_fraction(rng: random.Random, lo: int = -6, hi: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def _rand_scalar(rng: random.Random, complex_ok: bool = True) -> GaussianRational:
    re = _rand_fraction(rng)
    im = _rand_fraction(rng) if complex_ok and rng.random() < 0.3 else Fraction(0)
    return GaussianRational(re, im)


def _rand_vector(rng: random.Random, k: int, nonzero: bool = True) -> list[GaussianRational]:
    while True:
        v = [_rand_scalar(rng) for _ in range(k)]
        if not nonzero or not _all_zero(v):
            return v


def _rand_nonzero(rng: random.Random) -> GaussianRational:
    while True:
        v = _rand_scalar(rng)
        if not v.is_zero():
            return v


def _descriptors() -> dict[str, FamilyDescriptor]:
    items = [
        FamilyDescriptor(
            "sol.tower",
            "t-power tower over harmonic xy-affine parts on sol",
            lambda convention, r, a, b: (sol(), sol_tower(r, a, b)),
            lambda params: params["r"],
            lambda rng: {
                "r": rng.randint(1, 4),
                "a": _rand_vector(rng, 4, nonzero=False),
                "b": _rand_vector(rng, 4, nonzero=False),
            },
            lambda params: not _all_zero(list(params["a"]) + list(params["b"])),
        ),
        FamilyDescriptor(
            "sol.axis",
            "degree-n single-axis harmonic family on sol",
            lambda convention, n, axis: (sol(), sol_axis_family(n, axis)),
            lambda params: 1,
            lambda rng: {"n": rng.randint(2, 9), "axis": rng.choice(["x", "y"])},
            lambda params: True,
        ),
        FamilyDescriptor(
            "sol.mixed",
            "mixed two-axis harmonic combination on sol",
            lambda convention, n, a, b, alpha, beta, gamma, delta: (
                sol(),
                sol_mixed_harmonic(n, a, b, alpha, beta, gamma, delta),
            ),
            lambda params: 1,
            lambda rng: {
                "n": rng.choice([2, 3]),
                "a": _rand_nonzero(rng),
                "b": _rand_nonzero(rng),
                "alpha": _rand_nonzero(rng),
                "beta": _rand_scalar(rng),
                "gamma": _rand_nonzero(rng),
                "delta": _rand_scalar(rng),
            },
            lambda params: True,
        ),
        FamilyDescriptor(
            "sol.h2h3",
            "biharmonic product of x- and y-harmonic combinations on sol",
            lambda convention, a2, a3, b2, b3: (sol(), sol_h2h3(a2, a3, b2, b3)),
            lambda params: 2,
            lambda rng: {
                "a2": _rand_scalar(rng),
                "a3": _rand_scalar(rng),
                "b2": _rand_scalar(rng),
                "b3": _rand_scalar(rng),
            },
            lambda params: not _all_zero([params["a2"], params["a3"]])
            and not _all_zero([params["b2"], params["b3"]]),
        ),
        FamilyDescriptor(
            "nil.f1",
            "harmonic family on nil with holomorphic parts",
            lambda convention, a, hol, antihol: (
                nil(),
                nil_harmonic(a, hol, antihol),
            ),
            lambda params: 1,
            lambda rng: {
                "a": _rand_vector(rng, 2, nonzero=False),
                "hol": _rand_vector(rng, rng.randint(0, 4), nonzero=False),
                "antihol": _rand_vector(rng, rng.randint(0, 4), nonzero=False),
            },
            lambda params: not _all_zero(
                list(params["a"]) + list(params["hol"]) + list(params["antihol"])
            ),
        ),
        FamilyDescriptor(
            "nil.f2",
            "12-parameter biharmonic polynomial family on nil",
            lambda convention, b: (nil(), nil_biharmonic12(b)),
            lambda params: 2,
            lambda rng: {"b": _rand_vector(rng, 12)},
            lambda params: nil_f2_proper(params["b"]),
        ),
        FamilyDescriptor(
            "sl2.f1",
            "harmonic family on sl2 with holomorphic parts",
            lambda convention, a, hol, antihol: (
                sl2(),
                sl2_harmonic(a, hol, antihol),
            ),
            lambda params: 1,
            lambda rng: {
                "a": _rand_vector(rng, 2, nonzero=False),
                "hol": _rand_vector(rng, rng.randint(0, 4), nonzero=False),
                "antihol": _rand_vector(rng, rng.randint(0, 4), nonzero=False),
            },
            lambda params: not _all_zero(
                list(params["a"]) + list(params["hol"]) + list(params["antihol"])
            ),
        ),
        FamilyDescriptor(
            "sl2.f2",
            "6-parameter biharmonic polynomial family on sl2",
            lambda convention, b: (sl2(), sl2_biharmonic6(b)),
            lambda params: 2,
            lambda rng: {"b": _rand_vector(rng, 6)},
            lambda params: sl2_f2_proper(params["b"]),
        ),
        FamilyDescriptor(
            "h2r.separable",
            "(hol(z) + antihol(zb)) * cubic(t) on the disc x line",
            lambda convention, hol, antihol, p: (
                disc_times_line(convention),
                separable_product(disc_times_line(convention), hol, antihol, p),
            ),
            lambda params: 2,
            lambda rng: _sample_separable(rng),
            _admissible_separable,
        ),
        FamilyDescriptor(
            "s2r.separable",
            "(hol(z) + antihol(zb)) * cubic(t) on the punctured sphere x line",
            lambda convention, hol, antihol, p: (
                sphere_times_line(convention),
                separable_product(sphere_times_line(convention), hol, antihol, p),
            ),
            lambda params: 2,
            lambda rng: _sample_separable(rng),
            _admissible_separable,
        ),
        FamilyDescriptor(
            "h2r.logxp",
            "-log(1 - z zb) times an affine factor on the disc x line",
            lambda convention, p: (
                disc_times_line(convention),
                log_biharmonic(disc_times_line(convention), p),
            ),
            lambda params: 2,
            lambda rng: {"p": _rand_vector(rng, 2)},
            lambda params: not _all_zero(params["p"]),
        ),
        FamilyDescriptor(
            "s2r.logxp",
            "log(1 + z zb) times an affine factor on the punctured sphere x line",
            lambda convention, p: (
                sphere_times_line(convention),
                log_biharmonic(sphere_times_line(convention), p),
            ),
            lambda params: 2,
            lambda rng: {"p": _rand_vector(rng, 2)},
            lambda params: not _all_zero(params["p"]),
        ),
    ]
    return {d.family_id: d for d in items}


def _sample_separable(rng: random.Random) -> dict:
    hol = _rand_vector(rng, rng.randint(0, 3), nonzero=False)
    antihol = _rand_vector(rng, rng.randint(0, 3), nonzero=False)
    if _all_zero(list(hol) + list(antihol)):
        hol = [_rand_nonzero(rng)]
    p = [_rand_scalar(rng), _rand_scalar(rng), _rand_scalar(rng), _rand_scalar(rng)]
    if _all_zero(p[2:]):
        p[2] = _rand_nonzero(rng)
    return {"hol": hol, "antihol": antihol, "p": p}


def _admissible_separable(params: dict) -> bool:
    if _all_zero(params["p"][2:]):
        return False
    # the conformal part must not cancel between hol and antihol (the two
    # lists overlap at the constant term)
    hol, antihol = list(params["hol"]), list(params["antihol"])
    width = max(len(hol), len(antihol), 1)
    hol += [0] * (width - len(hol))
    antihol += [0] * (width - len(antihol))
    combined = [GaussianRational.coerce(hol[0]) + GaussianRational.coerce(antihol[0])]
    combined += [GaussianRational.coerce(c) for c in hol[1:]]
    combined += [GaussianRational.coerce(c) for c in antihol[1:]]
    return not _all_zero(combined)


FAMILIES: dict[str, FamilyDescriptor] = _descriptors()
