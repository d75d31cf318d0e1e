from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm.algebra import Expr
from polyharm.errors import ParseError, UsageError
from polyharm.geometries import by_id, disc_times_line, sol
from polyharm.parser import MAX_DEPTH, parse, parse_scalar
from polyharm.rationals import GaussianRational

from conftest import gaussian_rationals

SOL = sol().atoms
DISC_LINE = disc_times_line().atoms


def test_parse_harmonic_combination():
    f = parse("2*x^2 - E(-2)", SOL)
    assert f == 2 * Expr.monomial(SOL, 1, {"x": 2}) - Expr.exponential(SOL, -2)


def test_parse_zero():
    assert parse("0", SOL).is_zero()


def test_parse_complex_coefficient_term():
    f = parse("(1+2i)/3 * z*zb*t", DISC_LINE)
    assert len(f.terms) == 1
    term = f.terms[0]
    assert term.coeff == GaussianRational(Fraction(1, 3), Fraction(2, 3))
    assert term.powers == (1, 1, 1)


def test_parse_leading_minus_and_log():
    f = parse("-log1m * t", DISC_LINE)
    assert f == -(Expr.variable(DISC_LINE, "t") * Expr.log(DISC_LINE))


def test_parse_pure_imaginary_literal():
    f = parse("1i*x", SOL)
    assert f.terms[0].coeff == GaussianRational.of(0, 1)
    assert parse_scalar("3/2i") == GaussianRational.of(0, Fraction(3, 2))


def test_parse_parenthesised_subexpression():
    assert parse("(1 + x)*(1 - x)", SOL) == parse("1 - x^2", SOL)


def test_parse_power_of_exponential_atom():
    assert parse("E(-1)^2", SOL) == Expr.exponential(SOL, -2)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("2*x^", SOL)
    assert err.value.position == 4


def test_unknown_atom_for_chart():
    with pytest.raises(ParseError):
        parse("z", SOL)
    with pytest.raises(ParseError):
        parse("E(2)", DISC_LINE)
    with pytest.raises(ParseError):
        parse("log1p", DISC_LINE)


def test_log_squared_rejected_at_parse_time():
    with pytest.raises(ParseError):
        parse("log1m^2", DISC_LINE)


def test_bare_imaginary_unit_is_rejected():
    with pytest.raises(ParseError):
        parse("i*x", SOL)


def test_trailing_garbage_is_rejected():
    with pytest.raises(ParseError):
        parse("x 2", SOL)


def test_juxtaposition_is_not_multiplication():
    with pytest.raises(ParseError):
        parse("2x", SOL)


def sol_exprs():
    term = st.tuples(
        gaussian_rationals(),
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
        st.integers(-3, 3),
    )

    def build(terms):
        total = Expr.zero(SOL)
        for coeff, (px, py, pt), w in terms:
            total = total + Expr.monomial(
                SOL, coeff, {"x": px, "y": py, "t": pt}, weight=w
            )
        return total

    return st.builds(build, st.lists(term, min_size=0, max_size=4))


def disc_line_exprs():
    term = st.tuples(
        gaussian_rationals(),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3)),
        st.booleans(),
    )

    def build(terms):
        total = Expr.zero(DISC_LINE)
        for coeff, (pz, pzb, pt), logp in terms:
            powers = {"t": pt} if logp else {"z": pz, "zb": pzb, "t": pt}
            total = total + Expr.monomial(
                DISC_LINE, coeff, powers, log=1 if logp else 0
            )
        return total

    return st.builds(build, st.lists(term, min_size=0, max_size=4))


@settings(max_examples=150)
@given(sol_exprs())
def test_print_parse_round_trip_sol(f):
    assert parse(str(f), SOL) == f


@settings(max_examples=150)
@given(disc_line_exprs())
def test_print_parse_round_trip_disc_line(f):
    assert parse(str(f), DISC_LINE) == f


def test_round_trip_on_every_chart():
    cases = {
        "sol": "2*x^2 - E(-2) + 1i*y",
        "nil": "x^3*t - 2*y",
        "sl2": "x*t^2 + y*t^3",
        "h2": "z^2*zb - log1m",
        "s2p": "z*zb + log1p",
        "h2xr": "-t*log1m + z*t",
        "s2pxr": "t^2*log1p + zb",
        "line": "t^3 - t",
        "product:linexline": "s^2*t - 3*s",
    }
    for gid, text in cases.items():
        atoms = by_id(gid).atoms
        f = parse(text, atoms)
        assert parse(str(f), atoms) == f


# -- budgets, powers by squaring and single-pass sums ------------------------------


@settings(max_examples=60)
@given(sol_exprs(), st.integers(0, 9))
def test_power_matches_repeated_multiplication(f, n):
    expected = Expr.constant(SOL, 1)
    for _ in range(n):
        expected = expected * f
    assert parse(f"({f})^{n}", SOL) == expected


@settings(max_examples=60)
@given(st.lists(st.tuples(st.booleans(), sol_exprs()), min_size=1, max_size=8))
def test_sum_matches_running_sum(pieces):
    text = ""
    expected = Expr.zero(SOL)
    for i, (minus, f) in enumerate(pieces):
        text += ("-" if minus else "" if i == 0 else "+") + f"({f})"
        expected = expected - f if minus else expected + f
    assert parse(text, SOL) == expected


def test_parenthesis_depth_limit():
    assert parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, SOL) == parse("x", SOL)
    with pytest.raises(ParseError) as err:
        parse("(" * 3000 + "x" + ")" * 3000, SOL)
    assert err.value.position == MAX_DEPTH


def test_power_budgets():
    assert parse("x^100000000", SOL) == Expr.variable(SOL, "x", 100000000)
    assert len(parse("(x+y+t)^20", SOL).terms) == 231
    for text in ("(x+y+t)^200", "2^100000000", "(1/3*x)^3000"):
        with pytest.raises(UsageError):
            parse(text, SOL)


def test_overlong_integer_literal_is_parse_error():
    with pytest.raises(ParseError):
        parse("1" * 5000 + "*x", SOL)


def test_scalar_sign_chain_is_not_recursive():
    assert parse_scalar("-" * 3001 + "2") == GaussianRational.coerce(-2)
    assert parse_scalar("-" * 3000 + "(1+2i)") == GaussianRational.of(1, 2)
