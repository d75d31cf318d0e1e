"""Seeded input generators, timed operations and correctness checks.

Three workloads feed generated text to the public API of ``polyharm``:

* ``classify`` -- parse, ``classify(r_max=8)`` and print every chain entry;
* ``ansatz``   -- parse a monomial basis, ``AnsatzSystem.build``,
  ``generate_kernel`` and print the kernel;
* ``oracle``   -- parse and run one default ``cross_validate`` sweep.

Inputs come in *rounds*: a round holds one input from each stratum of the
workload (one draw per family, one arbitrary polynomial per geometry, one
sweep per geometry, one system per basis shape) in a seeded order.  A run
replays rounds until its time is up, so every run sees the same mix and
runs differ only in the drawn values.  The generators use their own
``random.Random`` and never the program's samplers, so the inputs of a seed
stay the same when the program changes.

Everything here is plain functions over plain data: ``make_round`` builds
inputs (untimed), ``run_op`` is the timed operation and ``check_op`` the
untimed check.  The program is reached only through the ``polyharm``
package attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as cartesian

import numpy as np

import polyharm as ph

CLASSIFY_R_MAX = 8

CLASSIFY_GEOMETRIES = ("sol", "nil", "sl2", "h2xr", "s2pxr")
ORACLE_GEOMETRIES = ("sol", "nil", "sl2", "h2xr", "s2pxr", "h2", "s2p")
ANSATZ_GEOMETRIES = ("nil", "sl2", "h2xr", "sol")

WORKLOAD_GEOMETRIES = {
    "classify": CLASSIFY_GEOMETRIES,
    "ansatz": ANSATZ_GEOMETRIES,
    "oracle": ORACLE_GEOMETRIES,
}

# Chart variables and atoms, written out here rather than read from the
# program so the generated text does not follow a change in the program.
_VARIABLES = {
    "sol": ("x", "y", "t"),
    "nil": ("x", "y", "t"),
    "sl2": ("x", "y", "t"),
    "h2xr": ("z", "zb", "t"),
    "s2pxr": ("z", "zb", "t"),
    "h2": ("z", "zb"),
    "s2p": ("z", "zb"),
}
_LOG_ATOM = {"h2xr": "log1m", "s2pxr": "log1p", "h2": "log1m", "s2p": "log1p"}

# Ansatz systems of one round, as (geometry, degree, order r): full
# monomial bases of total degree <= d on nil and sl2 (block-sparse: about
# 3 % fill, many independent column blocks) and on h2xr, plus
# one single-axis sol basis (one banded block, 1-dimensional kernel) per
# narrow length stratum.  The costliest systems (degree 8, nil degree 7
# at r = 1 and sl2 degree 7) are left out so that a run holds three whole
# rounds.  A round has an odd number of systems (25), so with three rounds
# both the median and the tail (the 11th largest) fall on the middle copy
# of one system rather than between two systems.
ANSATZ_SHAPES = (
    [("nil", d, r) for d in (4, 5, 6) for r in (1, 2)]
    + [("nil", 7, 2)]
    + [("sl2", d, r) for d in (4, 5, 6) for r in (1, 2)]
    + [("h2xr", d, r) for d in (3, 4, 5, 6) for r in (1, 2)]
)
SOL_AXIS_STRATA = ((16, 18), (26, 28), (36, 38), (46, 48))


@dataclass(frozen=True)
class ClassifyQuery:
    geometry: str
    text: str
    family: str | None  # registry family id, or None for an arbitrary polynomial
    expected_order: int | None  # the descriptor's claimed order


@dataclass(frozen=True)
class AnsatzQuery:
    geometry: str
    basis: tuple[str, ...]
    order: int


@dataclass(frozen=True)
class OracleQuery:
    geometry: str
    text: str
    sample_seed: int


# -- scalar and polynomial text -------------------------------------------------


def _fraction(rng: random.Random, lo: int = -6, hi: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def _scalar(rng: random.Random) -> ph.GaussianRational:
    re = _fraction(rng)
    im = _fraction(rng) if rng.random() < 0.3 else Fraction(0)
    return ph.GaussianRational(re, im)


def _nonzero(rng: random.Random) -> ph.GaussianRational:
    while True:
        v = _scalar(rng)
        if not v.is_zero():
            return v


def _vector(rng: random.Random, k: int) -> list[ph.GaussianRational]:
    return [_scalar(rng) for _ in range(k)]


def _coefficient_text(rng: random.Random) -> str:
    """A nonzero magnitude literal, e.g. ``3/2``, ``2i`` or ``(1-3/2i)``."""
    while True:
        re, im = _fraction(rng, 0, 6), _fraction(rng, -6, 6)
        kind = rng.random()
        if kind < 0.7 and re:
            return str(re)
        if kind < 0.8 and im:
            return f"{abs(im)}i"
        if re and im:
            return f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"


def _monomial_text(names: tuple[str, ...], powers: tuple[int, ...]) -> str:
    factors = [n if p == 1 else f"{n}^{p}" for n, p in zip(names, powers) if p]
    return "*".join(factors) or "1"


def random_polynomial(
    rng: random.Random, geometry: str, max_degree: int, n_terms: int, log_ok: bool
) -> str:
    """Seeded polynomial text: ``n_terms`` distinct terms of total degree
    <= ``max_degree``; E(m) weights |m| <= 2 on sol; on the conformal
    charts an optional log atom times a power of t (log-bearing terms carry
    no powers of z, zb)."""
    names = _VARIABLES[geometry]
    seen: set[tuple] = set()
    terms: list[str] = []
    while len(terms) < n_terms:
        if log_ok and geometry in _LOG_ATOM and rng.random() < 0.15:
            tpow = rng.randint(0, 1) if "t" in names else 0
            key = ("log", tpow)
            body = _LOG_ATOM[geometry] + (f"*t^{tpow}" if tpow else "")
        else:
            degree = rng.randint(0, max_degree)
            powers = [0] * len(names)
            for _ in range(degree):
                powers[rng.randrange(len(names))] += 1
            weight = rng.randint(-2, 2) if geometry == "sol" else 0
            key = (tuple(powers), weight)
            body = _monomial_text(names, tuple(powers))
            if weight:
                body = f"E({weight})" if body == "1" else f"{body}*E({weight})"
        if key in seen:
            continue
        seen.add(key)
        coeff = _coefficient_text(rng)
        term = body if coeff == "1" else f"{coeff}*{body}"
        negative = rng.random() < 0.4
        if terms:
            terms.append((" - " if negative else " + ") + term)
        else:
            terms.append(("-" if negative else "") + term)
    return "".join(terms)


# -- classify ---------------------------------------------------------------------


def _separable_params(rng: random.Random) -> dict:
    hol = _vector(rng, rng.randint(0, 3))
    antihol = _vector(rng, rng.randint(0, 3))
    if all(c.is_zero() for c in hol + antihol):
        hol = [_nonzero(rng)]
    p = _vector(rng, 4)
    if p[2].is_zero() and p[3].is_zero():
        p[2] = _nonzero(rng)
    return {"hol": hol, "antihol": antihol, "p": p}


def _f1_params(rng: random.Random) -> dict:
    return {
        "a": _vector(rng, 2),
        "hol": _vector(rng, rng.randint(0, 4)),
        "antihol": _vector(rng, rng.randint(0, 4)),
    }


# Parameter draws per registry family, with the registry's own ranges.
FAMILY_PARAMS = {
    "sol.tower": lambda rng: {"r": rng.randint(1, 4), "a": _vector(rng, 4), "b": _vector(rng, 4)},
    "sol.axis": lambda rng: {"n": rng.randint(2, 9), "axis": rng.choice(["x", "y"])},
    "sol.mixed": lambda rng: {
        "n": rng.choice([2, 3]),
        "a": _nonzero(rng),
        "b": _nonzero(rng),
        "alpha": _nonzero(rng),
        "beta": _scalar(rng),
        "gamma": _nonzero(rng),
        "delta": _scalar(rng),
    },
    "sol.h2h3": lambda rng: {k: _scalar(rng) for k in ("a2", "a3", "b2", "b3")},
    "nil.f1": _f1_params,
    "nil.f2": lambda rng: {"b": _vector(rng, 12)},
    "sl2.f1": _f1_params,
    "sl2.f2": lambda rng: {"b": _vector(rng, 6)},
    "h2r.separable": _separable_params,
    "s2r.separable": _separable_params,
    "h2r.logxp": lambda rng: {"p": _vector(rng, 2)},
    "s2r.logxp": lambda rng: {"p": _vector(rng, 2)},
}


def family_draw(rng: random.Random, family_id: str) -> tuple[dict, ClassifyQuery]:
    """One admissible draw of a registry family, as (params, query)."""
    descriptor = ph.FAMILIES[family_id]
    while True:
        params = FAMILY_PARAMS[family_id](rng)
        if descriptor.admissible(params):
            break
    geometry, f = descriptor.build("metric", **params)
    query = ClassifyQuery(geometry.name, str(f), family_id, descriptor.claimed_order(params))
    return params, query


CLASSIFY_MAX_TERMS = 10


def classify_round(rng: random.Random, index: int) -> list[ClassifyQuery]:
    """One draw of every registry family plus one arbitrary polynomial
    (degree <= 4) per geometry, shuffled.

    The arbitrary polynomial of geometry k has (k + index) mod 10 + 1
    terms, so every ten rounds pair each geometry once with each count from
    1 to 10.  Their chains grow with the term count and make the tail, so a
    drawn count would move the tail from seed to seed.
    """
    queries = [family_draw(rng, fid)[1] for fid in sorted(FAMILY_PARAMS)]
    queries += [
        ClassifyQuery(
            g,
            random_polynomial(rng, g, 4, (k + index) % CLASSIFY_MAX_TERMS + 1, log_ok=False),
            None,
            None,
        )
        for k, g in enumerate(CLASSIFY_GEOMETRIES)
    ]
    rng.shuffle(queries)
    return queries


def run_classify(geometries: dict, q: ClassifyQuery):
    g = geometries[q.geometry]
    report = ph.classify(g, ph.parse(q.text, g.atoms), CLASSIFY_R_MAX)
    return report, [str(e) for e in report.chain]


def check_classify(geometries: dict, q: ClassifyQuery, output) -> list[str]:
    report, lines = output
    problems = []
    if q.expected_order is not None and report.order != q.expected_order:
        problems.append(f"order {report.order} != claimed {q.expected_order}")
    atoms = geometries[q.geometry].atoms
    for k, (entry, line) in enumerate(zip(report.chain, lines)):
        if ph.parse(line, atoms) != entry:
            problems.append(f"chain entry {k} does not re-parse to itself")
    return problems


# -- ansatz -----------------------------------------------------------------------


def monomial_basis(geometry: str, degree: int) -> list[str]:
    names = _VARIABLES[geometry]
    return [
        _monomial_text(names, powers)
        for powers in cartesian(range(degree + 1), repeat=len(names))
        if sum(powers) <= degree
    ]


def sol_axis_basis(n: int, axis: str) -> list[str]:
    """The terms v^k E(-+(n-k)), k = 0..n, of the degree-n axis ansatz."""
    sign = -1 if axis == "x" else 1
    basis = []
    for k in range(n + 1):
        factors = [_monomial_text((axis,), (k,))] if k else []
        if k < n:
            factors.append(f"E({sign * (n - k)})")
        basis.append("*".join(factors))
    return basis


def ansatz_round(rng: random.Random, index: int) -> list[AnsatzQuery]:
    """Every shape of ANSATZ_SHAPES and one sol axis basis per length
    stratum, each basis listed in shuffled order, the systems shuffled."""
    shapes = [(g, monomial_basis(g, d), r) for g, d, r in ANSATZ_SHAPES]
    shapes += [("sol", sol_axis_basis(rng.randint(lo, hi), rng.choice("xy")), 1)
               for lo, hi in SOL_AXIS_STRATA]
    queries = []
    for g, basis, r in shapes:
        rng.shuffle(basis)
        queries.append(AnsatzQuery(g, tuple(basis), r))
    rng.shuffle(queries)
    return queries


def run_ansatz(geometries: dict, q: AnsatzQuery):
    g = geometries[q.geometry]
    basis = [ph.parse(text, g.atoms) for text in q.basis]
    system = ph.AnsatzSystem.build(g, basis, order=q.order)
    kernel = ph.generate_kernel(system)
    return system, [str(f) for f in kernel]


def float_kernel_dimension(matrix) -> int:
    """cols - rank, the rank taken in floating point by numpy.

    Rows and then columns are scaled to unit max-norm first.  That leaves
    the rank unchanged and is needed: the sol axis matrices at n = 48 have
    a singular-value ratio of 1e-15 as built (numpy then reports rank 47
    of 48) and 1e-12 after scaling, against numpy's cut-off of 1e-14.
    """
    dense = np.array(
        [[complex(matrix.at(i, j)) for j in range(matrix.cols)] for i in range(matrix.rows)]
    )
    for axis in (1, 0):
        scale = np.abs(dense).max(axis=axis, keepdims=True)
        dense = dense / np.where(scale > 0, scale, 1.0)
    return matrix.cols - int(np.linalg.matrix_rank(dense))


def check_ansatz(geometries: dict, q: AnsatzQuery, output) -> list[str]:
    system, lines = output
    problems = []
    expected = float_kernel_dimension(system.order_matrix)
    if len(lines) != expected:
        problems.append(f"kernel dimension {len(lines)} != numpy cols - rank {expected}")
    g = geometries[q.geometry]
    for line in lines:
        f = ph.parse(line, g.atoms)
        if f.is_zero() or not ph.iterated_tension(g, f, q.order)[-1].is_zero():
            problems.append(f"kernel member {line!r} is not a nonzero solution")
    return problems


# -- oracle -----------------------------------------------------------------------

# The program's default settings, written out so that a change of the
# defaults does not change the benchmark: 100 samples, step 1e-3, two
# Richardson levels, relative tolerance 1e-6.
ORACLE_CONFIG = ph.OracleConfig(step=1e-3, levels=2, rel_tol=1e-6, samples=100)


ORACLE_MAX_TERMS = 6


def oracle_round(rng: random.Random, index: int) -> list[OracleQuery]:
    """One sweep per geometry: degree <= 4, log atoms on the conformal
    charts, E(+-1), E(+-2) weights only on sol.

    A sweep costs about in proportion to its term count, so the term count
    of geometry k in round ``index`` is (k + index) mod 6 + 1 rather than a
    draw: every six rounds pair each geometry once with each count from 1
    to 6, and the costliest sweeps (which set the tail) are the same from
    seed to seed.
    """
    queries = [
        OracleQuery(
            g,
            random_polynomial(rng, g, 4, (k + index) % ORACLE_MAX_TERMS + 1, log_ok=True),
            rng.randrange(2**31),
        )
        for k, g in enumerate(ORACLE_GEOMETRIES)
    ]
    rng.shuffle(queries)
    return queries


def run_oracle(geometries: dict, q: OracleQuery):
    g = geometries[q.geometry]
    config = replace(ORACLE_CONFIG, seed=q.sample_seed)
    return ph.cross_validate(g, ph.parse(q.text, g.atoms), config)


def check_oracle(geometries: dict, q: OracleQuery, report) -> list[str]:
    # Blind spot: cross_validate keeps the worst residual with `rel > max_rel`,
    # which never holds for NaN, so a NaN residual at a single point is
    # dropped and the sweep still reports a finite max_rel.  This check
    # cannot see that case until the oracle counts non-finite residuals as
    # failures itself.
    problems = []
    if report.points != ORACLE_CONFIG.samples:
        problems.append(f"{report.points} points != {ORACLE_CONFIG.samples} samples")
    if not math.isfinite(report.max_rel) or report.max_rel > ORACLE_CONFIG.rel_tol:
        problems.append(f"max_rel {report.max_rel} outside rel_tol {ORACLE_CONFIG.rel_tol}")
    return problems


# -- registry -----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_round: object  # (random.Random, round index) -> list of queries
    run_op: object  # (geometries, query) -> output
    check_op: object  # (geometries, query, output) -> list of problems


WORKLOADS = {
    "classify": Workload(classify_round, run_classify, check_classify),
    "ansatz": Workload(ansatz_round, run_ansatz, check_ansatz),
    "oracle": Workload(oracle_round, run_oracle, check_oracle),
}


def build_geometries(workload: str) -> dict:
    return {g: ph.by_id(g) for g in WORKLOAD_GEOMETRIES[workload]}
