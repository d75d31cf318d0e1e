"""Recursive-descent parser for the expression grammar.

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := base ['^' uint]
    base    := variable | 'E' '(' int ')' | 'log1m' | 'log1p'
             | literal | '(' expr ')'
    literal := rational ['i']
             | '(' rational ('+'|'-') rational 'i' ')' ['/' uint]
    rational:= ['-'] uint ['/' uint]

'E(m)' is exp(m*t) on charts with an exponential atom.  Whitespace is
insignificant; juxtaposition is not multiplication.  The sign inside a
plain rational literal is only accepted inside E(...) and inside the
parenthesised complex form; everywhere else '-' is the binary operator.
Parse of the canonical printed form is the identity.

Budgets keep every input to a clean error:

* parentheses nest at most ``MAX_DEPTH`` deep; a deeper '(' is a
  ParseError at its position;
* an integer literal has at most as many digits as Python converts
  (``sys.get_int_max_str_digits()``, 4300 by default), else ParseError;
* ``base ^ n`` is computed by binary exponentiation.  One power may spend
  at most ``MAX_POWER_TERM_PRODUCTS`` term-by-term products, and the
  coefficients it multiplies may reach at most ``MAX_POWER_COEFFICIENT_BITS``
  bits; going over either is a UsageError.  So ``x^100000000`` is cheap,
  while ``(x+y+t)^200`` and ``2^100000000`` are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AtomSet, Expr, LOG_DISC, LOG_SPHERE
from .errors import ParseError, UsageError
from .rationals import GaussianRational, I

MAX_DEPTH = 100
MAX_POWER_TERM_PRODUCTS = 50_000
MAX_POWER_COEFFICIENT_BITS = 4096


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM | NAME | OP | END
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(_Token("NUM", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str, atoms: AtomSet | None):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.atoms = atoms

    # -- token helpers -----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == text:
            self.pos += 1
            return True
        return False

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)
        self.pos += 1

    def expect_uint(self) -> int:
        tok = self.peek()
        if tok.kind != "NUM":
            raise ParseError("expected an unsigned integer", tok.pos)
        self.pos += 1
        try:
            return int(tok.text)
        except ValueError:  # more digits than Python converts
            raise ParseError("integer literal too long", tok.pos) from None

    def expect_int(self) -> int:
        neg = self.accept_op("-")
        return -self.expect_uint() if neg else self.expect_uint()

    # -- scalar literals ----------------------------------------------------

    def parse_unsigned_rational(self) -> Fraction:
        num = self.expect_uint()
        if self.accept_op("/"):
            den = self.expect_uint()
            if den == 0:
                raise ParseError("zero denominator", self.peek().pos)
            return Fraction(num, den)
        return Fraction(num)

    def parse_signed_rational(self) -> Fraction:
        neg = self.accept_op("-")
        value = self.parse_unsigned_rational()
        return -value if neg else value

    def try_complex_paren_literal(self) -> GaussianRational | None:
        """'(' rational ('+'|'-') rational 'i' ')' ['/' uint], or rollback."""
        saved = self.pos
        try:
            self.expect_op("(")
            re = self.parse_signed_rational()
            tok = self.peek()
            if tok.kind != "OP" or tok.text not in "+-":
                raise ParseError("expected '+' or '-'", tok.pos)
            self.pos += 1
            im = self.parse_unsigned_rational()
            if tok.text == "-":
                im = -im
            name = self.peek()
            if name.kind != "NAME" or name.text != "i":
                raise ParseError("expected 'i'", name.pos)
            self.pos += 1
            self.expect_op(")")
        except ParseError:
            self.pos = saved
            return None
        value = GaussianRational(re, im)
        if self.accept_op("/"):
            value = value / self.expect_uint()
        return value

    def parse_scalar_literal(self) -> GaussianRational:
        negate = False
        while self.accept_op("-"):
            negate = not negate
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "(":
            value = self.try_complex_paren_literal()
            if value is None:
                raise ParseError("expected a complex literal", tok.pos)
        elif tok.kind == "NUM":
            value = GaussianRational(self.parse_unsigned_rational())
            name = self.peek()
            if name.kind == "NAME" and name.text == "i":
                self.pos += 1
                value = value * I
        else:
            raise ParseError("expected a number", tok.pos)
        return -value if negate else value

    # -- grammar ------------------------------------------------------------

    def parse_expr(self) -> Expr:
        negate = self.accept_op("-")
        first = self.parse_term()
        parts = [-first if negate else first]
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.pos += 1
                rhs = self.parse_term()
                parts.append(-rhs if tok.text == "-" else rhs)
            elif len(parts) == 1:
                return parts[0]
            else:
                return Expr.sum(self.atoms, parts)

    def parse_term(self) -> Expr:
        result = self.parse_factor()
        while self.accept_op("*"):
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.accept_op("^"):
            exp_tok = self.peek()
            power = self.expect_uint()
            if base._has_log() and power >= 2:
                raise ParseError("log atom squared", exp_tok.pos)
            return _power(base, power)
        return base

    def parse_base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NAME":
            return self.parse_name()
        if tok.kind == "NUM":
            return Expr.constant(self.atoms, self.parse_scalar_literal())
        if tok.kind == "OP" and tok.text == "(":
            literal = self.try_complex_paren_literal()
            if literal is not None:
                return Expr.constant(self.atoms, literal)
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", tok.pos)
            self.depth += 1
            self.expect_op("(")
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a variable, literal or '('", tok.pos)

    def parse_name(self) -> Expr:
        tok = self.advance()
        name = tok.text
        if name == "E":
            if self.atoms.exp_var is None:
                raise ParseError("unknown atom 'E' for this chart", tok.pos)
            self.expect_op("(")
            weight = self.expect_int()
            self.expect_op(")")
            return Expr.exponential(self.atoms, weight)
        if name in (LOG_DISC, LOG_SPHERE):
            if self.atoms.log_kind != name:
                raise ParseError(f"unknown atom {name!r} for this chart", tok.pos)
            return Expr.log(self.atoms)
        if name == "i":
            raise ParseError("write the imaginary unit as '1i'", tok.pos)
        if name in self.atoms.variables:
            return Expr.variable(self.atoms, name)
        raise ParseError(f"unknown atom {name!r} for this chart", tok.pos)


def _power(base: Expr, n: int) -> Expr:
    """base^n by binary exponentiation, within the power budgets."""
    spent = 0

    def product(x: Expr, y: Expr) -> Expr:
        nonlocal spent
        spent += len(x.terms) * len(y.terms)
        if spent > MAX_POWER_TERM_PRODUCTS:
            raise UsageError(f"power needs more than {MAX_POWER_TERM_PRODUCTS} term products")
        if _coefficient_bits(x) + _coefficient_bits(y) > MAX_POWER_COEFFICIENT_BITS:
            raise UsageError(f"power has coefficients beyond {MAX_POWER_COEFFICIENT_BITS} bits")
        return x * y

    result = Expr.constant(base.atoms, 1)
    while n:
        if n & 1:
            result = product(result, base)
        n >>= 1
        if n:
            base = product(base, base)
    return result


def _coefficient_bits(e: Expr) -> int:
    """Bit length of the largest integer of the coefficient triples of e."""
    sizes = (max(abs(t.coeff.a), abs(t.coeff.b), t.coeff.d) for t in e.terms)
    return max(sizes, default=0).bit_length()


def parse(src: str, atoms: AtomSet) -> Expr:
    """Parse source text into a canonical Expr of the given chart algebra."""
    parser = _Parser(src, atoms)
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return result


def parse_scalar(src: str) -> GaussianRational:
    """Parse one exact scalar literal (used for family parameters)."""
    parser = _Parser(src, None)
    value = parser.parse_scalar_literal()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return value
