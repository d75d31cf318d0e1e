"""Constructors for the explicit polyharmonic function families.

Each family is a closed-form expression with exact scalar parameters whose
properness order can be re-verified by :func:`polyharm.geometries.classify`.
Nonzero parameters are necessary but not sufficient for the claimed order:
some families contain measure-zero parameter sets where the first tension
field cancels (descriptors carry admissibility predicates; nil.f2's and sl2.f2's
read tau f != 0 from the tension map), so callers should re-classify anyway.
``product.generic`` is no descriptor: a descriptor names one ``by_id`` chart,
but this family's chart is built from ``--g1``/``--g2`` at run time (by
``geometries.product``, as for a ``product:`` id), and a factor such as
``h2xr`` has no product id, which splits at its first ``x``.

The ansatz machinery turns a finite list of candidate terms into the exact
matrix of the tension operator restricted to their span; harmonic (or
r-harmonic) members are its kernel, computed over the Gaussian rationals.
Each power of tau is one call of the geometry's tension map (on Gaussian-integer
numerators, reduced once, closure-checked) over the whole basis, each image a
tagged column, grouped straight into sorted sparse rows.  The kernel members are
re-verified together, one call per power, each from its own terms and column.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

from .algebra import AtomSet, Expr, _canonical
from .errors import UsageError
from .geometries import R_MAX, Geometry, ProductGeometry, by_id, classify
from .linalg import ExactMatrix, nullspace, primitive_scale, rank
from .rationals import GaussianRational, I, ONE, ScalarLike

Params = Sequence[ScalarLike]


def _coerce_all(values: Params) -> list[GaussianRational]:
    return [GaussianRational.coerce(v) for v in values]


def _all_zero(values: Params) -> bool:
    return all(GaussianRational.coerce(v).is_zero() for v in values)


# -- ansatz systems ----------------------------------------------------------


def _leading_signature(e: Expr):
    if e.is_zero():
        raise UsageError("zero expression in ansatz basis")
    return e.terms[-1].signature()  # the least: canonical terms sort in descending order


def _rows(tagged: dict, cols: int) -> ExactMatrix:
    """The matrix with entry c in column j of the row of signature s for each
    (j, *s): c of ``tagged``: one row ``{column: value}`` per signature, sorted."""
    rows: dict[tuple, dict] = {}
    for key, c in tagged.items():
        rows.setdefault(key[1:], {})[key[0]] = c
    return ExactMatrix(len(rows), cols, tuple([rows[k] for k in sorted(rows)]))


def _images(tagged: dict) -> dict:
    """The terms of each column of a column-tagged tension map, by column."""
    images: dict[int, list] = {}
    for (j, logp, w, p), c in tagged.items():
        images.setdefault(j, []).append((c, p, w, logp))
    return images


def _dependent(ordered: Sequence[Expr], leads: Sequence[tuple]) -> bool:
    """Whether a basis sorted by leading signature (``leads``) is linearly dependent.

    Distinct leading signatures make it independent (in a vanishing
    combination, the smallest leading signature of a member with a nonzero
    coefficient occurs in no other such member); only a tie needs the rank.
    """
    if all(a != b for a, b in zip(leads, leads[1:])):
        return False
    tagged = {(j, *t.signature()): t.coeff for j, b in enumerate(ordered) for t in b.terms}
    return rank(_rows(tagged, len(ordered))) < len(leads)


@dataclass(frozen=True)
class AnsatzSystem:
    """Tension restricted to the span of a finite term basis, as a matrix.

    ``matrix`` is the first-power tension map (columns indexed by the
    sorted basis, rows by the sorted term signatures of the images, so no
    rows when every image vanishes); ``order_matrix`` is the map for
    tau^order, which generate_kernel inverts.  Each power's rows come from one
    tension map over the previous power's images as columns, no Expr between.
    Construction fails with a closure error if tau leaves the algebra on
    any basis element, so existence of the system certifies closure.
    """

    geometry: Geometry
    basis: tuple[Expr, ...]
    matrix: ExactMatrix
    order: int
    order_matrix: ExactMatrix

    @staticmethod
    def build(geometry: Geometry, basis: Sequence[Expr], order: int = 1) -> "AnsatzSystem":
        if order < 1:
            raise UsageError("ansatz order must be at least 1")
        if not basis:
            raise UsageError("empty ansatz basis")
        keyed = sorted(((_leading_signature(b), b) for b in basis), key=itemgetter(0))
        ordered = tuple(b for _, b in keyed)
        atoms = ordered[0].atoms
        if any(b.atoms != atoms for b in ordered):
            raise UsageError("operands live in different chart algebras")
        if _dependent(ordered, [lead for lead, _ in keyed]):
            raise UsageError("ansatz basis is linearly dependent")
        geometry._require(ordered[0])
        tau = geometry._tension_map(atoms, list(enumerate(b.terms for b in ordered)))
        matrix = _rows(tau, len(ordered))
        for _ in range(order - 1):  # no images are formed after the last power
            tau = geometry._tension_map(atoms, _images(tau).items())
        return AnsatzSystem(geometry, ordered, matrix, order,
                            matrix if order == 1 else _rows(tau, len(ordered)))


def primitive_normalized(f: Expr) -> Expr:
    """Rescale to coprime integer coefficients with positive leading term.

    Falls back to making the leading coefficient 1 when coefficients are
    not all real (see :func:`primitive_scale`).  Display-level
    normalization; scaling never changes a properness order.
    """
    coeffs = [t.coeff for t in f.terms]
    return primitive_scale(coeffs, coeffs[0]) * f if coeffs else f


def generate_kernel(system: AnsatzSystem) -> list[Expr]:
    """Exact basis of {f in span(basis) : tau^order f = 0}.  Each member is
    re-verified from its own terms, not from the matrix: tau^order f, through the
    geometry's closure-checked exact tension map, must vanish.  All members go
    through one map per power, each under its own column tag, so no member's
    image mixes with another's.  Not via ``classify``: its per-step Expr,
    _require and report cost 4 % of ansatz ops/s."""
    return _kernel_orders(system)[0]


def _kernel_orders(system: AnsatzSystem) -> tuple[list[Expr], list[int]]:
    """generate_kernel's members with their properness orders: the power at
    which a member's column leaves the re-verification's map."""
    atoms, basis = system.basis[0].atoms, system.basis
    kernel = [basis[next(iter(v))] if len(v) == 1 else  # {j: 1} (leading entry 1) is basis[j]
              Expr(atoms, _canonical(atoms, [(c if t.coeff is ONE else t.coeff * c, *t[1:])
                                             for j, c in v.items() for t in basis[j].terms]))
              for v in nullspace(system.order_matrix)]
    images, orders = dict(enumerate(f.terms for f in kernel)), [0] * len(kernel)
    for k in range(1, system.order + 1):
        columns = images.keys()
        images = _images(system.geometry._tension_map(atoms, images.items()))
        for j in columns - images.keys():
            orders[j] = k
    if images:
        raise AssertionError("kernel member failed exact re-verification")
    return kernel, orders


# -- sol families ------------------------------------------------------------


def sol_axis_basis(n: int, axis: str = "x", geometry: Geometry | None = None) -> list[Expr]:
    """Candidate terms v^k E(-+(n-k)) for the degree-n axis family."""
    if n < 2:
        raise UsageError("axis families start at degree 2")
    if axis not in ("x", "y"):
        raise UsageError("axis must be 'x' or 'y'")
    g = geometry or by_id("sol")
    sign = -1 if axis == "x" else 1
    return [
        Expr.monomial(g.atoms, 1, {axis: k}, weight=sign * (n - k))
        for k in range(n + 1)
    ]


def sol_axis_family(n: int, axis: str = "x", geometry: Geometry | None = None) -> Expr:
    """The unique harmonic combination of the axis basis, scaled to the
    primitive integer coefficient vector with positive leading v^n term."""
    g = geometry or by_id("sol")
    basis = sol_axis_basis(n, axis, g)
    system = AnsatzSystem.build(g, basis, order=1)
    kernel = generate_kernel(system)
    if len(kernel) != 1:
        raise AssertionError(f"axis ansatz kernel has dimension {len(kernel)} != 1")
    f = kernel[0]
    idx = g.atoms.index(axis)
    leading = next(t.coeff for t in f.terms if t.powers[idx] == n)
    return primitive_scale([t.coeff for t in f.terms], leading) * f


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
    return sol_tower_literal(r - 1, a, b, geometry)


def sol_tower_literal(r: int, a: Params, b: Params, geometry: Geometry | None = None) -> Expr:
    """t^(2r) f1 + t^(2r+1) f2; proper (r+1)-harmonic for nonzero (a, b)."""
    if r < 0:
        raise UsageError("tower index must be non-negative")
    if _all_zero(list(a) + list(b)):
        raise UsageError("tower parameters must not all vanish")
    g = geometry or by_id("sol")
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
    g = geometry or by_id("sol")
    atoms = g.atoms
    fx = sol_axis_family(n, "x", g)
    fy = sol_axis_family(n, "y", g)
    left = Expr.constant(atoms, alpha) + beta * Expr.variable(atoms, "y")
    right = Expr.constant(atoms, gamma) + delta * Expr.variable(atoms, "x")
    return a * (left * fx) + b * (right * fy)


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
    g = geometry or by_id("sol")
    h2 = a2 * sol_axis_family(2, "x", g) + a3 * sol_axis_family(3, "x", g)
    h3 = b2 * sol_axis_family(2, "y", g) + b3 * sol_axis_family(3, "y", g)
    return h2 * h3


# -- nil and sl2 families -----------------------------------------------------


def plane_harmonic_part(atoms: AtomSet, hol: Params, antihol: Params) -> Expr:
    """hol(x + iy) + antihol(x - iy) with polynomial coefficient lists."""
    x = Expr.variable(atoms, "x")
    y = Expr.variable(atoms, "y")
    terms = []
    for coeffs, base in ((hol, x + I * y), (antihol, x - I * y)):
        power = Expr.constant(atoms, 1)
        for c in coeffs:
            terms.append(c * power)
            power = power * base
    return Expr.sum(atoms, terms)


def _f1_harmonic(
    chart: str, mixed: str, a: Params, hol: Params, antihol: Params, geometry: Geometry | None
) -> Expr:
    """hol(x+iy) + antihol(x-iy) + a1 t + a2 (mixed) t on the nil or sl2 chart."""
    if not _admissible_f1({"a": a, "hol": hol, "antihol": antihol}):
        raise UsageError(f"{chart} harmonic family needs a nonzero parameter")
    g = geometry or by_id(chart)
    a1, a2 = _coerce_all(a)
    return (
        plane_harmonic_part(g.atoms, hol, antihol)
        + a1 * Expr.variable(g.atoms, "t")
        + a2 * Expr.monomial(g.atoms, 1, {mixed: 1, "t": 1})
    )


def _f2_polynomial(
    chart: str, monomials: Sequence[dict[str, int]], b: Params, geometry: Geometry | None
) -> Expr:
    """sum b_k * monomials[k] on the nil or sl2 chart."""
    if len(b) != len(monomials):
        raise UsageError(f"the {chart} family takes {len(monomials)} parameters")
    if _all_zero(b):
        raise UsageError("parameters must not all vanish")
    g = geometry or by_id(chart)
    terms = zip(_coerce_all(b), monomials)
    return Expr.sum(g.atoms, [Expr.monomial(g.atoms, c, p) for c, p in terms])


def nil_harmonic(
    a: Params, hol: Params = (), antihol: Params = (), geometry: Geometry | None = None
) -> Expr:
    """hol(x+iy) + antihol(x-iy) + a1 t + a2 x t, harmonic on nil."""
    return _f1_harmonic("nil", "x", a, hol, antihol, geometry)


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
    return _f2_polynomial("nil", NIL_F2_MONOMIALS, b, geometry)


def sl2_harmonic(
    a: Params, hol: Params = (), antihol: Params = (), geometry: Geometry | None = None
) -> Expr:
    """hol(x+iy) + antihol(x-iy) + a1 t + a2 y t, harmonic on sl2."""
    return _f1_harmonic("sl2", "y", a, hol, antihol, geometry)


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
    return _f2_polynomial("sl2", SL2_F2_MONOMIALS, b, geometry)


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
    geometry: ProductGeometry, f1: Expr, f2: Expr, r_max: int = R_MAX
) -> Expr:
    """f1 * f2 for harmonic f1 on the first factor and r-harmonic f2 on the
    second; the product is proper r-harmonic on the product chart.  Each of
    f1 and f2 may use only its own factor's variables, weight and log atom."""
    for which, own, f in (("first", geometry.first.atoms, f1),
                          ("second", geometry.second.atoms, f2)):
        outside = [k for k, v in enumerate(f.atoms.variables) if v not in own.variables]
        if any(any(t.powers[k] for k in outside) or t.weight and not own.exp_var
               or t.logp and not own.log_kind for t in f.terms):
            raise UsageError(f"{which} factor expression uses a symbol of the other factor")
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
class ParamSchema:
    """How ``generate <id>`` reads its flags into build parameters.

    ``reads`` names the flags taken, in the order they are read, out of
    ``params``, ``n``, ``axis``, ``r``, ``hol`` and ``antihol``.  ``split``
    cuts the zero-padded ``--params`` list into named parameters in order:
    a bare name takes one scalar, ``(name, k)`` a list of ``k``; the total
    is the ``--params`` width.  ``defaults`` holds the text used for an
    empty ``--params`` or ``--hol``.
    """

    reads: tuple[str, ...] = ("params",)
    split: tuple = ()
    defaults: dict[str, str] = field(default_factory=dict, hash=False)

    @property
    def width(self) -> int:
        return sum(1 if isinstance(s, str) else s[1] for s in self.split)

    def named(self, values: Sequence) -> dict:
        """The ``--params`` list, padded to ``width``, as named parameters."""
        params, k = {}, 0
        for entry in self.split:
            if isinstance(entry, str):
                params[entry] = values[k]
                k += 1
            else:
                name, size = entry
                params[name] = list(values[k : k + size])
                k += size
        return params


@dataclass(frozen=True)
class FamilyDescriptor:
    """A named family: its chart, builder and ``generate`` parameter schema,
    when parameters are admissible, and the properness order the
    construction claims.  This registry is the one place a family is
    declared."""

    family_id: str
    description: str
    geometry_id: str  # the chart, built by geometries.by_id
    family: Callable[..., Expr]  # (**params, geometry=chart)
    schema: ParamSchema
    claimed_order: Callable[[dict], int]
    sample: Callable[[random.Random], dict]
    admissible: Callable[[dict], bool]

    def build(self, convention: str, **params) -> tuple[Geometry, Expr]:
        geometry = by_id(self.geometry_id, convention)
        return geometry, self.family(geometry=geometry, **params)

    def draw(self, rng: random.Random, **fixed) -> dict:
        """Sampled parameters, ``fixed`` overriding, redrawn until admissible."""
        while True:
            params = {**self.sample(rng), **fixed}
            if self.admissible(params):
                return params


def _rand_part(rng: random.Random) -> GaussianRational:
    return GaussianRational.coerce(rng.randint(-6, 6)) / rng.randint(1, 3)


def random_scalar(rng: random.Random) -> GaussianRational:
    """Seeded scalar with parts in {-6..6}/{1,2,3}; complex with probability 0.3."""
    re = _rand_part(rng)
    return re + _rand_part(rng) * I if rng.random() < 0.3 else re


def _rand_vector(rng: random.Random, k: int, nonzero: bool = True) -> list[GaussianRational]:
    while True:
        v = [random_scalar(rng) for _ in range(k)]
        if not nonzero or not _all_zero(v):
            return v


def random_nonzero_scalar(rng: random.Random) -> GaussianRational:
    while True:
        v = random_scalar(rng)
        if not v.is_zero():
            return v


def _sample_f1(rng: random.Random) -> dict:
    return {
        "a": _rand_vector(rng, 2, nonzero=False),
        "hol": _rand_vector(rng, rng.randint(0, 4), nonzero=False),
        "antihol": _rand_vector(rng, rng.randint(0, 4), nonzero=False),
    }


def _sample_separable(rng: random.Random) -> dict:
    hol = _rand_vector(rng, rng.randint(0, 3), nonzero=False)
    antihol = _rand_vector(rng, rng.randint(0, 3), nonzero=False)
    if _all_zero(list(hol) + list(antihol)):
        hol = [random_nonzero_scalar(rng)]
    p = [random_scalar(rng), random_scalar(rng), random_scalar(rng), random_scalar(rng)]
    if _all_zero(p[2:]):
        p[2] = random_nonzero_scalar(rng)
    return {"hol": hol, "antihol": antihol, "p": p}


def _plane_part_vanishes(hol: Params, antihol: Params) -> bool:
    """Whether hol(w) + antihol(wb) is zero: the two lists overlap at the
    constant term, so it cancels between them."""
    hol, antihol = list(hol) or [0], list(antihol) or [0]
    constant = GaussianRational.coerce(hol[0]) + GaussianRational.coerce(antihol[0])
    return _all_zero([constant] + hol[1:] + antihol[1:])


def _admissible_separable(params: dict) -> bool:
    return not _all_zero(params["p"][2:]) and not _plane_part_vanishes(
        params["hol"], params["antihol"]
    )


def _admissible_f1(params: dict) -> bool:
    return not _all_zero(params["a"]) or not _plane_part_vanishes(
        params["hol"], params["antihol"]
    )


def _f1_f2_families(chart, harmonic, polynomial, size) -> list[FamilyDescriptor]:
    """The harmonic f1 and the polynomial biharmonic f2 family of nil or sl2;
    f2 is admissible when its first tension field, read from tau, is nonzero."""
    g = by_id(chart)
    return [
        FamilyDescriptor(
            f"{chart}.f1",
            f"harmonic family on {chart} with holomorphic parts",
            chart,
            harmonic,
            ParamSchema(("params", "hol", "antihol"), (("a", 2),), {"params": "1"}),
            lambda params: 1,
            _sample_f1,
            _admissible_f1,
        ),
        FamilyDescriptor(
            f"{chart}.f2",
            f"{size}-parameter biharmonic polynomial family on {chart}",
            chart,
            polynomial,
            ParamSchema(split=(("b", size),), defaults={"params": "1"}),
            lambda params: 2,
            lambda rng: {"b": _rand_vector(rng, size)},
            lambda params: not _all_zero(params["b"])
            and not g.tension(polynomial(params["b"], g)).is_zero(),
        ),
    ]


def _surface_families(prefix, chart, surface, log_text) -> list[FamilyDescriptor]:
    """The separable and the log-times-affine family of one conformal surface x line."""
    return [
        FamilyDescriptor(
            f"{prefix}.separable",
            f"(hol(z) + antihol(zb)) * cubic(t) on the {surface} x line",
            chart,
            separable_product,
            ParamSchema(("hol", "antihol", "params"), (("p", 4),), {"params": "0,0,1", "hol": "1"}),
            lambda params: 2,
            _sample_separable,
            _admissible_separable,
        ),
        FamilyDescriptor(
            f"{prefix}.logxp",
            f"{log_text} times an affine factor on the {surface} x line",
            chart,
            log_biharmonic,
            ParamSchema(split=(("p", 2),), defaults={"params": "1"}),
            lambda params: 2,
            lambda rng: {"p": _rand_vector(rng, 2)},
            lambda params: not _all_zero(params["p"]),
        ),
    ]


def _descriptors() -> dict[str, FamilyDescriptor]:
    items = [
        FamilyDescriptor(
            "sol.tower",
            "t-power tower over harmonic xy-affine parts on sol",
            "sol",
            sol_tower,
            ParamSchema(("params", "r"), (("a", 4), ("b", 4)), {"params": "1"}),
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
            "sol",
            sol_axis_family,
            ParamSchema(("n", "axis")),
            lambda params: 1,
            lambda rng: {"n": rng.randint(2, 9), "axis": rng.choice(["x", "y"])},
            lambda params: True,
        ),
        FamilyDescriptor(
            "sol.mixed",
            "mixed two-axis harmonic combination on sol",
            "sol",
            sol_mixed_harmonic,
            ParamSchema(
                ("n", "params"),
                ("a", "b", "alpha", "beta", "gamma", "delta"),
                {"params": "1,1,1,0,1,0"},
            ),
            lambda params: 1,
            lambda rng: {
                "n": rng.choice([2, 3]),
                "a": random_nonzero_scalar(rng),
                "b": random_nonzero_scalar(rng),
                "alpha": random_nonzero_scalar(rng),
                "beta": random_scalar(rng),
                "gamma": random_nonzero_scalar(rng),
                "delta": random_scalar(rng),
            },
            lambda params: True,
        ),
        FamilyDescriptor(
            "sol.h2h3",
            "biharmonic product of x- and y-harmonic combinations on sol",
            "sol",
            sol_h2h3,
            ParamSchema(split=("a2", "a3", "b2", "b3"), defaults={"params": "1,1,1,1"}),
            lambda params: 2,
            lambda rng: {k: random_scalar(rng) for k in ("a2", "a3", "b2", "b3")},
            lambda params: not _all_zero([params["a2"], params["a3"]])
            and not _all_zero([params["b2"], params["b3"]]),
        ),
        *_f1_f2_families("nil", nil_harmonic, nil_biharmonic12, 12),
        *_f1_f2_families("sl2", sl2_harmonic, sl2_biharmonic6, 6),
        *_surface_families("h2r", "h2xr", "disc", "-log(1 - z zb)"),
        *_surface_families("s2r", "s2pxr", "punctured sphere", "log(1 + z zb)"),
    ]
    return {d.family_id: d for d in items}


FAMILIES: dict[str, FamilyDescriptor] = _descriptors()
