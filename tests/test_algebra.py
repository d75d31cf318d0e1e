import dataclasses
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyharm
from polyharm.algebra import (
    LOG_DISC, AtomSet, Expr, Term, _canonical, _validated, merge_atom_sets,
)
from polyharm.errors import ClosureError, DomainError, UsageError
from polyharm.geometries import _CHARTS, by_id
from polyharm.oracle import sample_points
from polyharm.parser import parse
from polyharm.rationals import ONE, ZERO, GaussianRational
from polyharm.verify import random_expr

from conftest import fractions, gaussian_rationals, subprocess_env

SOL = by_id("sol").atoms
DISC = by_id("h2").atoms
DISC_LINE = by_id("h2xr").atoms


def sol_exprs(max_terms=4):
    term = st.tuples(
        gaussian_rationals(),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.integers(-3, 3),
    )

    def build(terms):
        total = Expr.zero(SOL)
        for coeff, (px, py, pt), w in terms:
            total = total + Expr.monomial(
                SOL, coeff, {"x": px, "y": py, "t": pt}, weight=w
            )
        return total

    return st.builds(build, st.lists(term, min_size=0, max_size=max_terms))


# -- add ---------------------------------------------------------------------


def test_add_cancels_to_canonical_zero():
    x2 = Expr.monomial(SOL, 1, {"x": 2})
    assert (x2 + (-x2)).is_zero()
    assert (x2 - x2) == Expr.zero(SOL)


def test_add_builds_harmonic_combination():
    f = 2 * Expr.monomial(SOL, 1, {"x": 2}) + (-1) * Expr.monomial(SOL, 1, weight=-2)
    assert f == parse("2*x^2 - E(-2)", SOL)


@settings(max_examples=80)
@given(sol_exprs(), sol_exprs())
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=60)
@given(sol_exprs(), sol_exprs(), sol_exprs())
def test_canonical_form_under_reassociation(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a + b) * c == a * c + b * c


def test_add_rejects_atom_set_mismatch():
    with pytest.raises(UsageError):
        Expr.variable(SOL, "x") + Expr.variable(DISC, "z")


# -- multiply ------------------------------------------------------------------


def test_multiply_identity():
    f = parse("2*x^2 - E(-2)", SOL)
    assert Expr.constant(SOL, 1) * f == f


def test_multiply_merges_exponential_weights():
    f = parse("2*x^2 - E(-2)", SOL)
    h = parse("2*y^2 - E(2)", SOL)
    assert f * h == parse("4*x^2*y^2 - 2*x^2*E(2) - 2*y^2*E(-2) + 1", SOL)


def test_multiply_tower_prefactor_distributes():
    f1 = parse("1 + x + y + x*y", SOL)
    t4 = Expr.monomial(SOL, 1, {"t": 4})
    assert t4 * f1 == parse("t^4 + x*t^4 + y*t^4 + x*y*t^4", SOL)


@settings(max_examples=60)
@given(sol_exprs(max_terms=3), sol_exprs(max_terms=3))
def test_multiply_commutes(a, b):
    assert a * b == b * a


# -- closure rules --------------------------------------------------------------


def test_log_squared_is_refused():
    log = Expr.log(DISC)
    with pytest.raises(ClosureError):
        log * log


def test_log_times_conformal_power_is_refused():
    log = Expr.log(DISC_LINE)
    z = Expr.variable(DISC_LINE, "z")
    with pytest.raises(ClosureError):
        z * log


def test_log_times_line_power_is_allowed():
    log = Expr.log(DISC_LINE)
    t = Expr.variable(DISC_LINE, "t")
    f = t * log
    assert str(f) == "t*log1m"


def test_log_derivative_in_conformal_direction_is_refused():
    f = Expr.variable(DISC_LINE, "t") * Expr.log(DISC_LINE)
    with pytest.raises(ClosureError):
        f.differentiate("z")
    assert f.differentiate("t") == Expr.log(DISC_LINE)


def test_constructors_keep_the_closure_check():
    nil = by_id("nil").atoms
    for build in (
        lambda: Expr.monomial(SOL, 1, {"x": -1}),
        lambda: Expr.monomial(nil, 1, weight=1),
        lambda: Expr.monomial(nil, 1, {"x": 1}, weight=1),
        lambda: Expr.log(SOL),
        lambda: Expr.monomial(DISC_LINE, 1, {"z": 1, "t": 2}, log=1),
        lambda: Expr.monomial(DISC, 1, log=2),
    ):
        with pytest.raises(ClosureError):
            build()
    # a one-term input skips the merge; a zero-coefficient twin sends it through it
    for atoms, term in [(SOL, (ONE, (-1, 0, 0), 0, 0)), (nil, (ONE, (1, 0, 0), 1, 0)),
                        (SOL, (ONE, (0, 0, 0), 0, 1)), (DISC_LINE, (ONE, (1, 0, 2), 0, 1)),
                        (DISC, (ONE, (0, 0), 0, 2))]:
        errors = []
        for raw in ([term], [term, (ZERO, *term[1:])]):
            with pytest.raises(ClosureError) as err:
                _canonical(atoms, raw, check=True)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
    for atoms, term in [(SOL, (ZERO, (1, 0, 0), 0, 0)), (SOL, (-ONE / 3, (1, 0, 3), -2, 0)),
                        (DISC_LINE, Term(ONE, (0, 0, 2), 0, 1)), (nil, (ONE, (0, 0, 0), 0, 0))]:
        for check in (False, True):
            got = _canonical(atoms, [term], check)
            assert got == _canonical(atoms, [term, (ZERO, *term[1:])], check)
            assert got == (() if not term[0] else (term,))
            assert all(type(t) is Term for t in got)


# -- atom set hashing ------------------------------------------------------------


_ATOM_SETS = [
    ("AtomSet(('x', 'y', 't'), exp_var='t')", AtomSet(("x", "y", "t"), exp_var="t")),
    ("AtomSet(('z', 'zb', 't'), log_kind='log1m', conformal=('z', 'zb'))",
     AtomSet(("z", "zb", "t"), log_kind=LOG_DISC, conformal=("z", "zb"))),
]


def test_equal_atom_sets_built_apart_hash_alike():
    for _, atoms in _ATOM_SETS:
        again = AtomSet(*(getattr(atoms, f.name) for f in dataclasses.fields(AtomSet)))
        assert again is not atoms and again == atoms and hash(again) == hash(atoms)
        assert {atoms: 1}[again] == 1
    assert by_id("h2xr").atoms == DISC_LINE and hash(by_id("h2xr").atoms) == hash(DISC_LINE)
    assert hash(SOL) != hash(dataclasses.replace(SOL, exp_var=None))


def test_dataclass_replace_builds_a_checked_atom_set_with_its_own_hash():
    plain = dataclasses.replace(SOL, exp_var=None)
    assert plain == AtomSet(("x", "y", "t")) and hash(plain) == hash(AtomSet(("x", "y", "t")))
    assert dataclasses.replace(plain, exp_var="t") == SOL
    with pytest.raises(UsageError, match="exponential base variable"):
        dataclasses.replace(SOL, exp_var="w")


def _in_child(code: str, seed: int, stdin: bytes = b"") -> bytes:
    env = dict(subprocess_env(), PYTHONHASHSEED=str(seed))
    return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          env=env, check=True, timeout=60).stdout


def test_a_pickled_atom_set_hashes_afresh_in_a_process_with_another_hash_seed():
    # a str hash differs between processes, so a stored hash must not travel
    for text, atoms in _ATOM_SETS:
        data = _in_child(f"import pickle, sys\nfrom polyharm.algebra import AtomSet\n"
                         f"sys.stdout.buffer.write(pickle.dumps({text}))", seed=1)
        assert pickle.loads(data) == atoms
        out = _in_child(f"import pickle, sys\nfrom polyharm.algebra import AtomSet\n"
                        f"atoms, fresh = pickle.loads(sys.stdin.buffer.read()), {text}\n"
                        f"print(atoms == fresh, hash(atoms) == hash(fresh), {{fresh: 1}}[atoms])",
                        seed=2, stdin=data)
        assert out.split() == [b"True", b"True", b"1"]


def test_term_is_a_named_tuple_with_the_same_fields():
    t = Term(ONE, (1, 0, 2))
    assert isinstance(t, tuple) and Term is polyharm.Term
    assert Term._fields == ("coeff", "powers", "weight", "logp")
    assert Term._field_defaults == {"weight": 0, "logp": 0}
    assert t.signature() == (0, 0, (1, 0, 2))
    assert Term(ONE, (0,), -2, 1).signature() == (1, -2, (0,))


def _checked(atoms, raw):
    """What an operation returned when every canonicalisation checked closure."""
    return Expr(atoms, _canonical(atoms, raw, check=True))


def _random_pairs(gid):
    atoms = by_id(gid).atoms
    rng = random.Random(f"gated-{gid}")
    weights = (-2, 0, 1) if atoms.exp_var else (0,)
    for _ in range(15):
        a, b = (
            random_expr(rng, atoms, max_terms=4, weights=weights,
                        allow_log=atoms.log_kind is not None)
            for _ in range(2)
        )
        yield atoms, a, b


def _derivative_pair(atoms, f, idx):
    raw = []  # the power rule, and E(m)' = m E(m) in the exponential variable
    for c, powers, weight, logp in f.terms:
        if powers[idx]:
            lowered = powers[:idx] + (powers[idx] - 1,) + powers[idx + 1:]
            raw.append((c * powers[idx], lowered, weight, logp))
        if weight and atoms.exp_var == atoms.variables[idx]:
            raw.append((c * weight, powers, weight, logp))
    return f.differentiate(atoms.variables[idx]), _checked(atoms, raw)


# Operations that skip the closure check: the output equals the checked one.
GATED = {
    "add": lambda atoms, a, b: (a + b, _checked(atoms, a.terms + b.terms)),
    "sum": lambda atoms, a, b: (
        Expr.sum(atoms, [a, b, -a]), _checked(atoms, a.terms + b.terms + (-a).terms)
    ),
    "scale": lambda atoms, a, b: (
        a.scale(3), _checked(atoms, [t._replace(coeff=t.coeff * 3) for t in a.terms])
    ),
    "neg": lambda atoms, a, b: (
        -a, _checked(atoms, [t._replace(coeff=-t.coeff) for t in a.terms])
    ),
    # in t where the chart has t (log terms included), else of the log-free part
    "differentiate": lambda atoms, a, b: _derivative_pair(
        atoms,
        a if "t" in atoms.variables else Expr(atoms, tuple(t for t in a.terms if not t.logp)),
        len(atoms.variables) - 1,
    ),
}


@pytest.mark.parametrize("op", sorted(GATED))
def test_unchecked_operations_match_the_checked_canonical_form(op):
    for gid in ("sol", "nil", "h2", "h2xr", "s2pxr"):
        for atoms, a, b in _random_pairs(gid):
            got, want = GATED[op](atoms, a, b)
            assert got == want
            assert all(_validated(atoms, t) for t in got.terms)


# -- differentiate ----------------------------------------------------------------


def test_exponential_derivative_carries_weight():
    e = Expr.monomial(SOL, 1, weight=-2)
    assert e.differentiate("t") == -2 * e


def test_polynomial_derivative():
    f = parse("2*x^3 - 3*x*E(-2)", SOL)
    assert f.differentiate("x") == parse("6*x^2 - 3*E(-2)", SOL)


def test_wirtinger_power_rule():
    f = Expr.monomial(DISC, 1, {"z": 2, "zb": 3})
    assert f.differentiate("zb") == Expr.monomial(DISC, 3, {"z": 2, "zb": 2})


@settings(max_examples=60)
@given(sol_exprs())
def test_mixed_partials_commute(f):
    for u, v in (("x", "y"), ("x", "t"), ("y", "t")):
        assert f.differentiate(u).differentiate(v) == f.differentiate(v).differentiate(u)


def test_unknown_variable_is_usage_error():
    with pytest.raises(UsageError):
        Expr.variable(SOL, "x").differentiate("z")


# -- evaluate ----------------------------------------------------------------------


def test_evaluate_zero():
    assert Expr.zero(SOL).evaluate((0.3, -0.2, 0.9)) == 0


def test_evaluate_harmonic_combination():
    f = parse("2*x^2 - E(-2)", SOL)
    assert f.evaluate((1.0, 0.0, 0.0)) == pytest.approx(1.0)


def test_evaluate_log_atom():
    f = -Expr.log(DISC)
    assert f.evaluate((0.5, 0.0)).real == pytest.approx(-math.log(0.75), abs=1e-15)
    assert f.evaluate((0.5, 0.0)).real == pytest.approx(0.2876820724, abs=1e-9)


def test_evaluate_conformal_pair_from_real_coordinates():
    f = Expr.variable(DISC, "z") * Expr.variable(DISC, "zb")
    assert f.evaluate((0.3, 0.4)) == pytest.approx(0.25)
    g = Expr.variable(DISC, "z")
    assert g.evaluate((0.3, 0.4)) == pytest.approx(0.3 + 0.4j)


def test_evaluate_domain_error_outside_disc():
    f = Expr.variable(DISC, "z")
    with pytest.raises(DomainError):
        f.evaluate((1.2, 0.0))


def _scalar_evaluate(f, point):
    """Pure-Python term-by-term evaluation at one point: the reference for
    the array evaluator."""
    atoms = f.atoms
    values = {v: complex(p) for v, p in zip(atoms.variables, point)}
    rho2 = 0.0
    if atoms.conformal is not None:
        z, zb = atoms.conformal
        x, y = float(point[atoms.index(z)]), float(point[atoms.index(zb)])
        values[z], values[zb] = complex(x, y), complex(x, -y)
        rho2 = x**2 + y**2
    total = 0j
    for t in f.terms:
        v = complex(t.coeff)
        for name, p in zip(atoms.variables, t.powers):
            if p:
                v *= values[name] ** p
        if t.weight:
            v *= math.exp(t.weight * values[atoms.exp_var].real)
        if t.logp:
            v *= math.log(1.0 - rho2 if atoms.log_kind == LOG_DISC else 1.0 + rho2)
        total += v
    return total


@pytest.mark.parametrize("gid", ["sol", "nil", "sl2", "h2", "s2p", "h2xr", "s2pxr", "line"])
def test_array_evaluate_matches_scalar_reference(gid):
    g = by_id(gid)
    rng = random.Random(gid)
    weights = (-3, -2, -1, 0, 1, 2, 3) if g.atoms.exp_var else (0,)
    points = sample_points(g, 25, np.random.default_rng(12))
    for _ in range(12):
        f = random_expr(
            rng, g.atoms, max_terms=5, max_power=4, weights=weights,
            allow_log=g.atoms.log_kind is not None,
        )
        values = f.evaluate(points)
        assert values.shape == (25,)
        for p, value in zip(points, values):
            ref = _scalar_evaluate(f, p)
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))
            assert f.evaluate(tuple(p)) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def _evaluate_per_term(f, points):
    """Expr.evaluate as it was, raising every power of every term anew.  It
    uses ``**`` as evaluate does: numpy's ``z ** 2`` squares a complex z,
    which can differ from ``np.power(z, 2)`` in the last bit."""
    P = np.asarray(points, dtype=float)
    atoms = f.atoms
    values = atoms.symbol_values(P)
    total = np.zeros(P.shape[:-1], dtype=complex)
    with np.errstate(all="ignore"):
        for t in f.terms:
            v = complex(t.coeff)
            for k, p in enumerate(t.powers):
                if p:
                    v = v * values[k] ** p
            if t.weight:
                v = v * np.exp(t.weight * P[..., atoms.index(atoms.exp_var)])
            if t.logp:
                v = v * atoms.log_value(P)
            total += v
    return total


@pytest.mark.parametrize("gid", ["sol", "nil", "sl2", "h2", "s2p", "h2xr", "s2pxr", "line"])
def test_evaluate_shares_raised_powers_bit_for_bit(gid):
    g = by_id(gid)
    rng = random.Random(f"powers-{gid}")
    weights = (-2, -1, 0, 1, 2) if g.atoms.exp_var else (0,)
    points = sample_points(g, 40, np.random.default_rng(7))
    for _ in range(12):
        f = random_expr(rng, g.atoms, max_terms=6, max_power=4, weights=weights,
                        allow_log=g.atoms.log_kind is not None)
        assert np.array_equal(f.evaluate(points), _evaluate_per_term(f, points))


def test_evaluate_overflow_is_domain_error():
    f = parse("E(2000)", SOL)
    assert f.evaluate((0.0, 0.0, 0.1)) == pytest.approx(math.exp(200.0))
    with pytest.raises(DomainError):
        f.evaluate((0.0, 0.0, 0.5))
    with pytest.raises(DomainError):
        f.evaluate([(0.0, 0.0, 0.1), (0.0, 0.0, 0.5)])


@settings(max_examples=60)
@given(sol_exprs(max_terms=3), sol_exprs(max_terms=3))
def test_evaluate_is_a_ring_homomorphism_up_to_rounding(a, b):
    p = (0.37, -0.61, 0.23)
    lhs = (a * b).evaluate(p)
    rhs = a.evaluate(p) * b.evaluate(p)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


# -- printing ----------------------------------------------------------------------


def _reference_str(e: Expr) -> str:
    """``Expr.__str__`` as a loop over the variables, term by term: the reference
    for the generated per-chart printer."""
    if not e.terms:
        return "0"
    pieces = []
    for i, t in enumerate(e.terms):
        factors = []
        for name, p in zip(e.atoms.variables, t.powers):
            if p == 1:
                factors.append(name)
            elif p > 1:
                factors.append(f"{name}^{p}")
        if t.weight:
            factors.append(f"E({t.weight})")
        if t.logp:
            factors.append(e.atoms.log_kind)
        sign, body = t.coeff.signed_text()
        if factors:
            body = "*".join(factors) if body == "1" else body + "*" + "*".join(factors)
        pieces.append(("-" if sign else "") + body if i == 0 else (" - " if sign else " + ") + body)
    return "".join(pieces)


_PRINT_CASES = [(gid, "metric") for gid in (*_CHARTS, "product:nilxh2", "product:solxs2p",
                                              "product:linexline")]
_PRINT_CASES += [(gid, "paper") for gid in ("h2", "s2p", "h2xr", "s2pxr")]
_LONG = st.integers(10**300, 10**320)  # over 300 digits
_COEFFICIENTS = st.one_of(
    gaussian_rationals(),  # negative, fractional and complex values, and zero
    st.builds(GaussianRational, st.just(0), fractions()),  # pure imaginary
    st.builds(GaussianRational, st.one_of(_LONG, _LONG.map(lambda n: -n))),
    st.builds(lambda n, d: GaussianRational(Fraction(n, d)), _LONG, st.integers(2, 10**40)),
    st.builds(GaussianRational, _LONG, st.one_of(fractions(), _LONG)),
)


@settings(max_examples=200)
@given(st.sampled_from(_PRINT_CASES), st.randoms(use_true_random=False), st.data())
def test_generated_printer_matches_the_reference(case, rng, data):
    atoms = by_id(*case).atoms
    f = random_expr(rng, atoms, max_terms=6, max_power=3,
                    weights=(-3, -1, 0, 1, 2) if atoms.exp_var else (0,),
                    allow_log=atoms.log_kind is not None)
    coeffs = data.draw(st.lists(_COEFFICIENTS, min_size=len(f.terms), max_size=len(f.terms)))
    f = Expr(atoms, tuple(t._replace(coeff=c) for t, c in zip(f.terms, coeffs) if c))
    assert str(f) == _reference_str(f)
    assert str(Expr.zero(atoms)) == "0"


def test_a_coefficient_over_the_digit_limit_is_refused_at_printing():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert str(Expr.monomial(SOL, 10**299 - 1, {"x": 1})) == "9" * 299 + "*x"
        big = 10**699  # 700 digits
        for coeff in (big, -big, Fraction(big + 1, 3), GaussianRational(big, 1)):
            with pytest.raises(UsageError) as err:
                str(Expr.monomial(SOL, coeff, {"x": 1}, weight=2))
            assert str(err.value) == "coefficient has too many digits to print"
    finally:
        sys.set_int_max_str_digits(limit)


# -- is_zero -------------------------------------------------------------------------


def test_is_zero_detects_cancellation():
    f = Expr.monomial(SOL, 1, {"x": 2}) - Expr.monomial(SOL, 1, {"x": 2})
    assert f.is_zero()


def test_is_zero_on_tension_of_harmonic():
    g = by_id("sol")
    assert g.tension(parse("2*x^2 - E(-2)", SOL)).is_zero()


def test_is_zero_has_no_tolerance():
    tiny = Expr.monomial(SOL, GaussianRational(1, 0) / 10**9, {"x": 1})
    assert not tiny.is_zero()


# -- atom sets -----------------------------------------------------------------------


def test_merge_atom_sets_rejects_collisions():
    with pytest.raises(UsageError):
        merge_atom_sets(SOL, AtomSet(("t",)))


def test_merge_atom_sets_carries_features():
    merged = merge_atom_sets(DISC, AtomSet(("t",)))
    assert merged.variables == ("z", "zb", "t")
    assert merged.log_kind == "log1m"
    assert merged.conformal == ("z", "zb")
