import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyharm.parser as parser_module
from polyharm.algebra import LOG_DISC, LOG_SPHERE, AtomSet, Expr, Term, _validated
from polyharm.errors import ClosureError, ParseError, UsageError
from polyharm.families import FAMILIES
from polyharm.geometries import _CHARTS, by_id
from polyharm.parser import MAX_DEPTH, MAX_POWER_TERM_PRODUCTS, _power, parse, parse_scalar
from polyharm.rationals import GaussianRational, I
from polyharm.verify import random_expr

from conftest import gaussian_rationals

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SOL = by_id("sol").atoms
DISC_LINE = by_id("h2xr").atoms


def test_parse_harmonic_combination():
    f = parse("2*x^2 - E(-2)", SOL)
    assert f == 2 * Expr.monomial(SOL, 1, {"x": 2}) - Expr.monomial(SOL, 1, weight=-2)


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
    assert f.terms[0].coeff == GaussianRational(0, 1)
    assert parse_scalar("3/2i") == GaussianRational(0, Fraction(3, 2))


def test_parse_parenthesised_subexpression():
    assert parse("(1 + x)*(1 - x)", SOL) == parse("1 - x^2", SOL)


def test_parse_power_of_exponential_atom():
    assert parse("E(-1)^2", SOL) == Expr.monomial(SOL, 1, weight=-2)


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


def test_a_literal_over_a_lowered_digit_limit_is_too_long():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert parse("9" * 299 + "*x^9999", SOL) == Expr.monomial(SOL, 10**299 - 1, {"x": 9999})
        for text, position in (("9" * 700, 0), ("x*" + "9" * 700 + "i", 2), ("x^" + "9" * 700, 2)):
            with pytest.raises(ParseError) as err:
                parse(text, SOL)
            assert str(err.value) == f"integer literal too long (at position {position})"
    finally:
        sys.set_int_max_str_digits(limit)


def test_scalar_sign_chain_is_not_recursive():
    assert parse_scalar("-" * 3001 + "2") == GaussianRational.coerce(-2)
    assert parse_scalar("-" * 3000 + "(1+2i)") == GaussianRational(1, 2)


# -- the raw-term parser against the Expr-building reference -----------------------


def _reference_tokenize(src):
    """Character-loop reference tokenizer with the same token tuples; on ASCII
    text it agrees with the parser's regular expression."""
    tokens, i, n = [], 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit() or ch.isalpha():
            j = i + 1
            if ch.isdigit():
                while j < n and src[j].isdigit():
                    j += 1
            else:
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
            tokens.append(("NUM" if ch.isdigit() else "NAME", src[i:j], i))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _ReferenceParser:
    """The grammar token by token, with every atom an Expr and every '*' an
    Expr product."""

    def __init__(self, src, atoms):
        self.tokens = _reference_tokenize(src)
        self.pos = 0
        self.depth = 0
        self.atoms = atoms

    # token helpers

    def peek(self):
        return self.tokens[self.pos]

    def accept_op(self, text):
        if self.tokens[self.pos][0] == text:
            self.pos += 1
            return True
        return False

    def expect_op(self, text):
        if not self.accept_op(text):
            raise ParseError(f"expected {text!r}", self.peek()[2])

    def expect_uint(self):
        kind, text, pos = self.peek()
        if kind != "NUM":
            raise ParseError("expected an unsigned integer", pos)
        self.pos += 1
        try:
            return int(text)
        except ValueError:  # more digits than Python converts
            raise ParseError("integer literal too long", pos) from None

    def expect_int(self):
        neg = self.accept_op("-")
        return -self.expect_uint() if neg else self.expect_uint()

    def expect_denominator(self):
        den = self.expect_uint()
        if den == 0:
            raise ParseError("zero denominator", self.peek()[2])
        return den

    def expect_end(self):
        kind, text, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected trailing input {text!r}", pos)

    # the literal path as it was, through Fractions

    def parse_unsigned_rational(self):
        num = self.expect_uint()
        return Fraction(num, self.expect_denominator()) if self.accept_op("/") else Fraction(num)

    def try_complex_paren_literal(self):
        saved = self.pos
        try:
            self.expect_op("(")
            neg = self.accept_op("-")
            real = -self.parse_unsigned_rational() if neg else self.parse_unsigned_rational()
            kind, _, pos = self.peek()
            if kind != "+" and kind != "-":
                raise ParseError("expected '+' or '-'", pos)
            self.pos += 1
            im = self.parse_unsigned_rational()
            if self.peek()[:2] != ("NAME", "i"):
                raise ParseError("expected 'i'", self.peek()[2])
            self.pos += 1
            self.expect_op(")")
        except ParseError:
            self.pos = saved
            return None
        value = GaussianRational(real, im if kind == "+" else -im)
        if self.accept_op("/"):
            value = value / self.expect_denominator()
        return value

    def parse_scalar_literal(self):
        negate = False
        while self.accept_op("-"):
            negate = not negate
        kind, _, pos = self.peek()
        if kind == "(":
            value = self.try_complex_paren_literal()
            if value is None:
                raise ParseError("expected a complex literal", pos)
        elif kind == "NUM":
            value = GaussianRational(self.parse_unsigned_rational())
            if self.peek()[:2] == ("NAME", "i"):
                self.pos += 1
                value = value * I
        else:
            raise ParseError("expected a number", pos)
        return -value if negate else value

    def parse_expr(self):
        negate = self.accept_op("-")
        first = self.parse_term()
        parts = [-first if negate else first]
        while self.peek()[0] in ("+", "-"):
            op = self.peek()[0]
            self.pos += 1
            rhs = self.parse_term()
            parts.append(-rhs if op == "-" else rhs)
        return parts[0] if len(parts) == 1 else Expr.sum(self.atoms, parts)

    def parse_term(self):
        result = self.parse_factor()
        while self.accept_op("*"):
            result = result * self.parse_factor()
        return result

    def parse_factor(self):
        base = self.parse_base()
        if self.accept_op("^"):
            exp_pos = self.peek()[2]
            power = self.expect_uint()
            if base._has_log() and power >= 2:
                raise ParseError("log atom squared", exp_pos)
            return _power(base, power)
        return base

    def parse_base(self):
        kind, _, pos = self.peek()
        if kind == "NAME":
            return self.parse_name()
        if kind == "NUM":
            return Expr.constant(self.atoms, self.parse_scalar_literal())
        if kind == "(":
            literal = self.try_complex_paren_literal()
            if literal is not None:
                return Expr.constant(self.atoms, literal)
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.depth += 1
            self.expect_op("(")
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a variable, literal or '('", pos)

    def parse_name(self):
        _, name, pos = self.peek()
        self.pos += 1
        if name == "E":
            if self.atoms.exp_var is None:
                raise ParseError("unknown atom 'E' for this chart", pos)
            self.expect_op("(")
            weight = self.expect_int()
            self.expect_op(")")
            return Expr.monomial(self.atoms, 1, weight=weight)
        if name in (LOG_DISC, LOG_SPHERE):
            if self.atoms.log_kind != name:
                raise ParseError(f"unknown atom {name!r} for this chart", pos)
            return Expr.log(self.atoms)
        if name == "i":
            raise ParseError("write the imaginary unit as '1i'", pos)
        if name in self.atoms.variables:
            return Expr.variable(self.atoms, name)
        raise ParseError(f"unknown atom {name!r} for this chart", pos)


def _outcome(parse_fn, text, atoms):
    try:
        return ("ok", parse_fn(text, atoms))
    except (ParseError, ClosureError, UsageError) as exc:
        return (type(exc), str(exc), getattr(exc, "position", None))


def _reference_parse(text, atoms):
    parser = _ReferenceParser(text, atoms)
    result = parser.parse_expr()
    parser.expect_end()
    return result


_PIECES = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|[-+*/^()]")
_INSERTS = ("*0", "*log1m", "*log1p", "^2", "^0", "(", ")", "-", "*z", "*t", "*E(1)",
            "*(x+y)", "1i", "/", "/0", "*(1+2i)/3", " ")


def _mutations(rng, text, count):
    pieces = _PIECES.findall(text)
    out = []
    for _ in range(count):
        k = rng.randrange(len(pieces))
        kind = rng.randrange(3)
        if kind == 0:
            mutated = pieces[:k] + pieces[k + 1:]
        elif kind == 1:
            mutated = pieces[:k + 1] + pieces[k:]
        else:
            mutated = pieces[:k] + [rng.choice(_INSERTS)] + pieces[k:]
        out.append(rng.choice(("", " ")).join(mutated))
    return out


def _respaced(rng, text):
    """text with a random run of spaces, tabs and newlines (or none) around
    every token."""
    spaces = ("", "", " ", "\t", "\n", "   ", " \t\n ")
    return rng.choice(spaces) + "".join(p + rng.choice(spaces) for p in _PIECES.findall(text))


def _benchmark_texts(rng, gid):
    """The texts the benchmark's generators feed the parser on this chart."""
    if gid not in workloads.WORKLOAD_GEOMETRIES["oracle"]:
        return []
    texts = [workloads.random_polynomial(rng, gid, 4, n, log_ok)
             for n in (1, 3, 6) for log_ok in (False, True)]
    texts += rng.sample(workloads.monomial_basis(gid, 3), 6)
    if gid == "sol":
        texts += workloads.sol_axis_basis(5, "x") + workloads.sol_axis_basis(4, "y")
    return texts


CHART_IDS = ["sol", "nil", "sl2", "h2", "s2p", "h2xr", "s2pxr", "line"]


def _reference_cases(gid):
    """Printed forms of the chart, respaced and mutated: valid inputs and
    every kind of error the scanner reports."""
    atoms = by_id(gid).atoms
    rng = random.Random(f"parser-{gid}")
    weights = (-2, -1, 0, 1, 2) if atoms.exp_var else (0,)
    texts = []
    for _ in range(25):
        f = random_expr(rng, atoms, max_terms=4, max_power=3, weights=weights,
                        allow_log=atoms.log_kind is not None)
        texts.append(str(f))
    for d in FAMILIES.values():
        if d.geometry_id == gid:
            texts.extend(str(d.build("metric", **d.sample(rng))[1]) for _ in range(3))
    texts += [f"({a})*({b})^2 - {c}" for a, b, c in zip(texts, texts[1:], texts[2:])][:10]
    texts += _benchmark_texts(rng, gid)
    texts += ["0/5", "007", "(0+0i)/3", "(-1/2-3/4i)/6", "1/0", "9" * 4301,
              "E( - 3 )*x", "( 1/2 - 3/4 i )/5", "E(\t-\n3\t)^ 2", "(\n1 /2-3/ 4\ti )\t/ 5*t"]
    # the bounds of the one-int() reads: 4-digit atom exponents, literals under 300 digits
    v = atoms.variables[0]
    texts += [f"{v}^0", f"{v}^007", f"{v}^9999", f"{v}^10000", f"{v}^" + "9" * 4301,
              "8" * 299, "7" * 300, "9" * (sys.get_int_max_str_digits() + 1),
              "0", "0i", "007i", "E(-0)", f"-0*{v}"]
    cases = []
    for text in texts:
        cases += [text, _respaced(rng, text)]
        cases.extend(_mutations(rng, text, 6))
    return cases


@pytest.mark.parametrize("gid", CHART_IDS)
def test_raw_term_parser_matches_expr_reference(gid):
    atoms = by_id(gid).atoms
    outcomes = {"ok": 0, "error": 0}
    for text in _reference_cases(gid):
        got, want = _outcome(parse, text, atoms), _outcome(_reference_parse, text, atoms)
        assert got == want, text
        outcomes["ok" if got[0] == "ok" else "error"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def _is_atom_product(text, atoms):
    """Whether parse takes its atom-product path for text."""
    return parser_module._atom_product(atoms).fullmatch(text + "*") is not None


def _scanned(text, atoms):
    """parse with its atom-product path switched off: the factor scanner alone."""
    with mock.patch.object(parser_module, "_atom_product", lambda atoms: re.compile("(?!)")):
        return parse(text, atoms)


def _unvalidated_final_terms(text, atoms):
    """The nonzero terms that parse hands to its final _canonical call and
    that fail the closure rules; parse's own check is left in place."""
    handed = []
    canonical = parser_module._canonical

    def recording(atoms, raw, check=False):
        if sys._getframe(1).f_code is parse.__code__:
            handed.append(list(raw))
        return canonical(atoms, raw, check)

    with mock.patch.object(parser_module, "_canonical", recording):
        try:
            parse(text, atoms)
            # an atom product is built straight away, with no _canonical call
            assert len(handed) == (not _is_atom_product(text, atoms)), \
                "a scanned parse must end with one _canonical call"
        except (ParseError, ClosureError, UsageError):
            pass
    bad = []
    for term in (t for raw in handed for t in raw):  # raw terms are plain tuples
        try:
            if term[0]:
                _validated(atoms, term)
        except ClosureError:
            bad.append(term)
    return bad


@given(st.sampled_from(CHART_IDS), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_parse_validates_every_term_before_its_final_check(gid, rng):
    # the fold check: each term was validated where its product folded, so
    # the closing _canonical(..., check=True) of parse finds nothing new
    atoms = by_id(gid).atoms
    weights = (-2, 0, 3) if atoms.exp_var else (0,)
    text = str(random_expr(rng, atoms, max_terms=4, max_power=3, weights=weights,
                           allow_log=atoms.log_kind is not None))
    cases = [text, _respaced(rng, text), *_mutations(rng, text, 4)]
    if atoms.log_kind is not None:  # log atoms moved onto conformal powers or squared
        log, v = atoms.log_kind, rng.choice(atoms.conformal)
        cases += [text.replace(log, f"{log}*{v}^2"), text.replace(log, f"{v}*{log}"),
                  f"{log}*({text})", f"({text})*{log}*0 + {log}*{log}"]
    for case in cases:
        assert _unvalidated_final_terms(case, atoms) == [], case


@pytest.mark.parametrize("gid", ["h2", "s2p", "h2xr", "s2pxr"])
def test_closure_errors_are_raised_before_the_final_check(gid):
    # the charts with a log atom: the others' reference cases raise no ClosureError
    atoms = by_id(gid).atoms
    closure_cases = [text for text in _reference_cases(gid)
                     if _outcome(parse, text, atoms)[0] is ClosureError]
    assert len(closure_cases) >= 10
    for text in closure_cases:
        assert _unvalidated_final_terms(text, atoms) == [], text


def test_closure_error_is_raised_at_the_breaking_factor():
    for text, message in [
        ("log1m*z*log1m", "conformal pair"),
        ("log1m*log1m*0", "log atom squared"),
        ("log1m*log1m*)", "log atom squared"),
        ("z*log1m", "conformal pair"),
    ]:
        with pytest.raises(ClosureError, match=message):
            parse(text, DISC_LINE)
    assert parse("0*log1m*log1m", DISC_LINE).is_zero()
    assert parse("(0*log1m*log1m)^2*z", DISC_LINE).is_zero()
    with pytest.raises(ParseError) as err:
        parse("log1m^2*0", DISC_LINE)
    assert err.value.position == 6


def test_non_ascii_digits_and_letters_are_unexpected_characters():
    for text, position in (("x^²", 2), ("x^٣", 2), ("é", 0), ("x*é", 2), ("xé", 1)):
        with pytest.raises(ParseError) as err:
            parse(text, SOL)
        bad = text[position]
        assert str(err.value) == f"unexpected character {bad!r} (at position {position})"


def test_zero_denominator_of_a_complex_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="zero denominator"):
        parse("(1+2i)/0*x", SOL)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_scalar("(1+2i)/0")


def test_products_share_one_term_budget():
    f = parse("(x+y+t)^10", SOL)
    assert parse("(x+y+t)^10*(x+y+t)^10", SOL) == f * f == parse("(x+y+t)^20", SOL)
    # 231 * 231 term products: refused before any is formed
    with pytest.raises(UsageError, match=f"more than {MAX_POWER_TERM_PRODUCTS} term products"):
        parse("(x+y+t)^20*(x+y+t)^20", SOL)
    # the products of one parse add up: 4,356 + 15,246 + 32,736 term products
    with pytest.raises(UsageError):
        parse("*".join(["(x+y+t)^10"] * 4), SOL)


def test_parse_scans_nested_sums_without_reentering_parse(monkeypatch):
    calls = []
    original = parser_module.parse

    def counted(src, atoms):
        calls.append(src)
        return original(src, atoms)

    monkeypatch.setattr(parser_module, "parse", counted)
    text = "(x+y)^2*(1+2i)/3 - (t)"
    f = parser_module.parse(text, SOL)
    assert calls == [text]
    x, y, t = (Expr.variable(SOL, v) for v in ("x", "y", "t"))
    assert f == (x + y) * (x + y) * GaussianRational(Fraction(1, 3), Fraction(2, 3)) - t


# -- the atom-product path against the scanner ----------------------------------------

ATOM_PATH_CHARTS = sorted(_CHARTS) + ["product:nilxh2", "product:linexline"]
_NEAR_MISS_NAMES = ("E", "i", "q", "xy", LOG_DISC, LOG_SPHERE, "1", "0")


@st.composite
def _atom_products(draw):
    """(chart id, text): an atom product of the chart in its order, or a near miss."""
    gid = draw(st.sampled_from(ATOM_PATH_CHARTS))
    atoms = by_id(gid).atoms
    exponent = st.one_of(st.just(""), st.just("^0"), st.from_regex(r"\^[0-9]{1,2}", fullmatch=True),
                         st.from_regex(r"\^[0-9]{3,4}", fullmatch=True),
                         st.from_regex(r"\^[0-9]{5}", fullmatch=True))
    factors = [v + draw(exponent) for v in atoms.variables if draw(st.booleans())]
    if draw(st.integers(0, 1 if atoms.exp_var else 5)) == 0:  # E(m), also on a chart without E
        factors.append(draw(st.from_regex(r"E\(-?[0-9]{1,5}\)", fullmatch=True)))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(("shuffle", "repeat", "repeat", "insert", "power")))
        if edit == "shuffle":
            factors = draw(st.permutations(factors))
        elif edit == "repeat" and factors:
            factors.insert(draw(st.integers(0, len(factors))), draw(st.sampled_from(factors)))
        elif edit == "insert":
            name = draw(st.sampled_from(_NEAR_MISS_NAMES + atoms.variables))
            factors.insert(draw(st.integers(0, len(factors))), name + draw(exponent))
        elif edit == "power" and factors:
            factors[-1] += draw(exponent)
    text = "*".join(factors)
    ending = draw(st.sampled_from(("",) * 8 + ("*", "space", "prefix")))
    if ending == "space" and text:
        k = draw(st.integers(0, len(text)))
        text = text[:k] + " " + text[k:]
    elif ending == "prefix":
        text = "*" + text
    elif ending != "space":
        text += ending
    return gid, text


@given(_atom_products())
@settings(max_examples=250)
def test_atom_product_path_matches_the_scanner(case):
    gid, text = case
    atoms = by_id(gid).atoms
    for src in (text, text.split("*", 1)[0] + "*" + text):  # and with its first factor twice
        got, want = _outcome(parse, src, atoms), _outcome(_scanned, src, atoms)
        assert got == want, src
        if got[0] == "ok":
            assert all(type(t) is Term for t in got[1].terms), src


def test_atom_product_path_scope():
    nil, sol, line2 = (by_id(g).atoms for g in ("nil", "sol", "product:linexline"))
    taken = [(nil, "x"), (nil, "x^2*y*t^9999"), (nil, "y^0007*t"), (sol, "E(-3)"),
             (sol, "x^2*t*E(12)"), (sol, "y*E(-0)"), (line2, "s^2*t")]
    scanned = [(nil, ""), (nil, "1"), (nil, "x*x"), (nil, "y*x"), (nil, "x^10000"),
               (nil, "x *y"), (nil, "x*"), (nil, "E(1)"), (sol, "E(1)*x"), (sol, "E(12345)"),
               (sol, "E(+1)"), (DISC_LINE, "t*log1m"), (nil, "x*q"), (line2, "t*s"),
               (AtomSet(("x", "i")), "x"), (AtomSet(("x", "i")), "x*i")]
    for atoms, text in taken + scanned:
        assert _is_atom_product(text, atoms) == ((atoms, text) in taken), text
        assert _outcome(parse, text, atoms) == _outcome(_scanned, text, atoms)
    # the benchmark's ansatz texts: the monomial bases and sol axis bases
    for gid in ("nil", "sl2", "h2xr"):
        atoms = by_id(gid).atoms
        texts = workloads.monomial_basis(gid, 4)
        assert [t for t in texts if not _is_atom_product(t, atoms)] == ["1"]
    axis = workloads.sol_axis_basis(16, "x") + workloads.sol_axis_basis(17, "y")
    assert all(_is_atom_product(t, sol) for t in axis)
