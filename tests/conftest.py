import functools
import os
import random
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import polyharm
from polyharm.algebra import Expr, Term, _canonical
from polyharm.rationals import GaussianRational

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture
def rng():
    return random.Random(20240817)


def fractions(max_num=30, max_den=12):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def gaussian_rationals():
    return st.builds(GaussianRational, fractions(), fractions())


def nonzero_gaussian_rationals():
    return gaussian_rationals().filter(lambda q: not q.is_zero())


def subprocess_env() -> dict:
    """The environment of a child interpreter that imports this polyharm."""
    src = str(Path(polyharm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


# -- kappa, the conformality operator: the tests' reference calculus -------------


def split_log(e: Expr) -> tuple[Expr, Expr | None]:
    """(log-free part P, stripped log coefficient A) with e = P + A*L; A is
    None when no term carries L.  Both parts keep the canonical order:
    stripping L maps the sorted signatures (1, w, p) onto the sorted (0, w, p)."""
    if not any(t.logp for t in e.terms):
        return e, None
    poly = tuple(t for t in e.terms if not t.logp)
    stripped = tuple(Term(t.coeff, t.powers, t.weight) for t in e.terms if t.logp)
    return Expr(e.atoms, poly), Expr(e.atoms, stripped)


def combine(atoms, parts) -> Expr:
    """sum of c * m * terms over parts (c, powers, weight, terms) in one
    closure-checked canonicalisation, with m = prod v^p * E(weight),
    ``powers`` an exponent tuple over ``atoms.variables`` and ``terms`` a
    sequence of terms of ``atoms``, canonical or raw."""
    raw = [(t.coeff * c, tuple(map(add, t.powers, powers)), t.weight + weight, t.logp)
           for c, powers, weight, terms in parts for t in terms]
    return Expr(atoms, _canonical(atoms, raw, check=True))


def first_partials(f: Expr, free: Expr):
    """v -> d_v e, each taken once, with e = f, or the log-free part ``free``
    of f for a partial in the conformal pair."""
    conformal = f.atoms.conformal or ()
    return functools.cache(lambda v: (free if v in conformal else f).differentiate(v))


def log_conformality_parts(log_tension, atoms, fa, ha, df, dh) -> list:
    """The L-bearing kappa terms of f = fp + fa L and h = hp + ha L on a
    conformal surface with ``log_tension`` s c (sign s, factor c, u = z*zb):

        (s c / 2) (1 + s u) sum_v v (fa hp_v + ha fp_v)  +  c u fa ha

    over v in (z, zb); ``fa``/``ha`` are None when absent and ``df``/``dh``
    give the partials of the log-free parts."""
    s, c = (1 if log_tension > 0 else -1), abs(log_tension)
    half = GaussianRational.coerce(c) / 2
    parts = []
    for a, d in ((fa, dh), (ha, df)):
        if a is None:
            continue
        for v, w in (("z", "zb"), ("zb", "z")):
            a_dv = (a * d(v)).terms
            parts.append((s * half, atoms.exponents({v: 1}), 0, a_dv))
            parts.append((half, atoms.exponents({v: 2, w: 1}), 0, a_dv))
    if fa is not None and ha is not None:
        parts.append((c, atoms.exponents({"z": 1, "zb": 1}), 0, (fa * ha).terms))
    return parts


def conformality(g, f: Expr, h: Expr) -> Expr:
    """kappa(f, h) = g(grad f, grad h) = sum g^ij f_i h_j on the chart ``g``.

    It reads the groups of ``g``'s compiled table: f_i h_j (and f_j h_i off
    the diagonal) is formed once per group, and each entry adds c m f_i h_i
    on the diagonal and c m (f_i h_j + f_j h_i) / 2 off it.  Entries on the
    conformal pair act on the log-free parts, and the log atom adds the terms
    of ``log_conformality_parts``.  On a product chart kappa = kappa_1 +
    kappa_2, so cross-factor kappa of separable functions vanishes.  With
    tau, kappa gives the product rule tau(fh) = tau(f) h + 2 kappa(f, h) +
    f tau(h)."""
    g._require(f)
    g._require(h)
    (fp, fa), (hp, ha) = split_log(f), split_log(h)
    df = first_partials(f, fp)
    dh = first_partials(h, hp)
    names = f.atoms.variables
    parts = []
    for vi, vj, same, *_, entries in g._kernel(f.atoms)[0]:
        i, j = names[vi], names[vj]
        pairs = ((i, j),) if same else ((i, j), (j, i))
        products = [(df(a) * dh(b)).terms for a, b in pairs]
        for c, w, shifts in entries:
            scale = c if same else GaussianRational.coerce(c) / 2
            parts.extend((scale, shifts[3], w, terms) for terms in products)
    if g.log_tension is not None:
        parts.extend(log_conformality_parts(g.log_tension, f.atoms, fa, ha, df, dh))
    return combine(f.atoms, parts)
