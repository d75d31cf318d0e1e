"""Recursive-descent parser for the expression grammar.

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := base ['^' uint]
    base    := variable | 'E' '(' int ')' | 'log1m' | 'log1p'
             | literal | '(' expr ')'
    literal := rational ['i']
             | '(' rational ('+'|'-') rational 'i' ')' ['/' uint]
    rational:= ['-'] uint ['/' uint]

A uint is [0-9]+ and a name [A-Za-z][A-Za-z0-9_]*, both ASCII; any other
non-space character is unexpected.  'E(m)' is exp(m*t) on charts with an
exponential atom.  Whitespace is insignificant;
juxtaposition is not multiplication.  The sign inside a plain rational
literal is only accepted inside E(...) and inside the parenthesised complex
form; everywhere else '-' is the binary operator.  Parse of the canonical
printed form is the identity.

A product of atoms, atom powers and literals is one raw Term (an Expr only
once a sum in parentheses, or a power of one or of a literal, enters it),
and a flat sum of products is canonicalised once.  A closure error is raised
at the factor that breaks a product: ``log1m*log1m*0`` is refused, while
``0*log1m*log1m`` is 0.

Budgets keep every input to a clean error:

* parentheses nest at most ``MAX_DEPTH`` deep; a deeper '(' is a
  ParseError at its position;
* an integer literal has at most as many digits as Python converts
  (``sys.get_int_max_str_digits()``, 4300 by default), else ParseError;
* ``base ^ n`` is computed by binary exponentiation.  One power may spend
  at most ``MAX_POWER_TERM_PRODUCTS`` term-by-term products, and the
  coefficients it multiplies may reach at most ``MAX_POWER_COEFFICIENT_BITS``
  bits; going over either is a UsageError.  So ``x^100000000`` is cheap,
  while ``(x+y+t)^200`` and ``2^100000000`` are refused;
* the '*' products that involve a sum spend at most
  ``MAX_POWER_TERM_PRODUCTS`` term-by-term products over the whole parse,
  else UsageError, so ``(x+y+t)^20*(x+y+t)^20`` (231 * 231) is refused.
"""

from __future__ import annotations

import re

from .algebra import AtomSet, Expr, LOG_DISC, LOG_SPHERE, Term, _canonical, _validated
from .errors import ParseError, UsageError
from .rationals import GaussianRational, I, ONE, ZERO

MAX_DEPTH = 100
MAX_POWER_TERM_PRODUCTS = 50_000
MAX_POWER_COEFFICIENT_BITS = 4096

# whitespace | uint | name | operator | any other character
_TOKEN = re.compile(r"\s+|([0-9]+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()])|(.)", re.DOTALL)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, kind NUM, NAME, END or the
    operator itself."""
    tokens = []
    for m in _TOKEN.finditer(src):
        group, text = m.lastindex, m.group()
        if group == 4:
            raise ParseError(f"unexpected character {text!r}", m.start())
        if group:
            tokens.append((("NUM", "NAME", text)[group - 1], text, m.start()))
    tokens.append(("END", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, atoms: AtomSet | None):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.atoms = atoms
        self.zeros = None if atoms is None else (0,) * len(atoms.variables)
        self.spent = 0  # term products of the Expr '*' operators of the whole parse

    # -- token helpers -----------------------------------------------------

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def accept_op(self, text: str) -> bool:
        if self.tokens[self.pos][0] == text:
            self.pos += 1
            return True
        return False

    def expect_op(self, text: str) -> None:
        if not self.accept_op(text):
            raise ParseError(f"expected {text!r}", self.peek()[2])

    def expect_uint(self) -> int:
        kind, text, pos = self.peek()
        if kind != "NUM":
            raise ParseError("expected an unsigned integer", pos)
        self.pos += 1
        try:
            return int(text)
        except ValueError:  # more digits than Python converts
            raise ParseError("integer literal too long", pos) from None

    def expect_int(self) -> int:
        neg = self.accept_op("-")
        return -self.expect_uint() if neg else self.expect_uint()

    def expect_denominator(self) -> int:
        den = self.expect_uint()
        if den == 0:
            raise ParseError("zero denominator", self.peek()[2])
        return den

    def expect_end(self) -> None:
        kind, text, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected trailing input {text!r}", pos)

    # -- scalar literals ----------------------------------------------------

    def parse_unsigned_rational(self) -> GaussianRational:
        num = GaussianRational.coerce(self.expect_uint())
        return num / self.expect_denominator() if self.accept_op("/") else num

    def try_complex_paren_literal(self) -> GaussianRational | None:
        """'(' rational ('+'|'-') rational 'i' ')' ['/' uint], or rollback."""
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
        value = real + im * I if kind == "+" else real - im * I
        if self.accept_op("/"):
            value = value / self.expect_denominator()
        return value

    def parse_scalar_literal(self) -> GaussianRational:
        negate = False
        while self.accept_op("-"):
            negate = not negate
        kind, _, pos = self.peek()
        if kind == "(":
            value = self.try_complex_paren_literal()
            if value is None:
                raise ParseError("expected a complex literal", pos)
        elif kind == "NUM":
            value = self.parse_unsigned_rational()
            if self.peek()[:2] == ("NAME", "i"):
                self.pos += 1
                value = value * I
        else:
            raise ParseError("expected a number", pos)
        return -value if negate else value

    # -- grammar ------------------------------------------------------------

    def parse_expr(self) -> list[Term]:
        """The raw terms of a sum, signs applied."""
        raw = []
        negate = self.accept_op("-")
        while True:
            product = self.parse_term()
            terms = (product,) if type(product) is Term else product.terms
            if negate:
                terms = [Term(-t.coeff, t.powers, t.weight, t.logp) for t in terms]
            raw.extend(terms)
            kind = self.peek()[0]
            if kind != "+" and kind != "-":
                return raw
            self.pos += 1
            negate = kind == "-"

    def parse_term(self) -> Term | Expr:
        product = self.parse_factor()
        while self.accept_op("*"):
            product = self.multiply(product, self.parse_factor())
        return product

    def multiply(self, a: Term | Expr, b: Term | Expr) -> Term | Expr:
        if type(a) is Term and type(b) is Term:
            c = a.coeff * b.coeff
            powers = tuple([p + q for p, q in zip(a.powers, b.powers)])
            t = Term(c, powers, a.weight + b.weight, a.logp + b.logp)
            return _validated(self.atoms, t) if c and t.logp else t
        a, b = (self.expr(f) for f in (a, b))
        self.spent += len(a.terms) * len(b.terms)
        if self.spent > MAX_POWER_TERM_PRODUCTS:
            raise UsageError(f"products need more than {MAX_POWER_TERM_PRODUCTS} term products")
        return self.lean(a * b)

    def expr(self, f: Term | Expr) -> Expr:
        return f if type(f) is Expr else Expr(self.atoms, _canonical(self.atoms, [f], check=True))

    def lean(self, e: Expr) -> Term | Expr:
        """e, or as a raw Term if it has at most one term."""
        if len(e.terms) > 1:
            return e
        return e.terms[0] if e.terms else Term(ZERO, self.zeros)

    def expect_exponent(self, has_log: bool) -> int:
        pos = self.peek()[2]
        n = self.expect_uint()
        if has_log and n >= 2:
            raise ParseError("log atom squared", pos)
        return n

    def parse_factor(self) -> Term | Expr:
        kind, _, pos = self.peek()
        atoms = self.atoms
        if kind == "NAME":
            atom = self.parse_name()
            if not self.accept_op("^"):
                return atom
            n = self.expect_exponent(atom.logp)
            # what binary exponentiation of one term would spend
            if n.bit_count() + n.bit_length() - 1 > MAX_POWER_TERM_PRODUCTS:
                raise UsageError(f"power needs more than {MAX_POWER_TERM_PRODUCTS} term products")
            return Term(ONE, tuple([p * n for p in atom.powers]), atom.weight * n, atom.logp * n)
        if kind == "NUM":
            literal = self.parse_scalar_literal()
        elif kind == "(":
            literal = self.try_complex_paren_literal()
        else:
            raise ParseError("expected a variable, literal or '('", pos)
        if literal is not None:
            base = Term(literal, self.zeros)
        else:
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.depth += 1
            self.pos += 1
            raw = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            base = raw[0] if len(raw) == 1 else self.lean(Expr(atoms, _canonical(atoms, raw)))
        if not self.accept_op("^"):
            return base
        base = self.expr(base)
        return self.lean(_power(base, self.expect_exponent(base._has_log())))

    def parse_name(self) -> Term:
        _, name, pos = self.peek()
        self.pos += 1
        atoms = self.atoms
        if name == "E" and atoms.exp_var is not None:
            self.expect_op("(")
            weight = self.expect_int()
            self.expect_op(")")
            return Term(ONE, self.zeros, weight)
        if name == atoms.log_kind:
            return Term(ONE, self.zeros, 0, 1)
        if name == "i":
            raise ParseError("write the imaginary unit as '1i'", pos)
        if name in atoms.variables and name not in ("E", LOG_DISC, LOG_SPHERE):
            powers = list(self.zeros)
            powers[atoms.variables.index(name)] = 1
            return Term(ONE, tuple(powers))
        raise ParseError(f"unknown atom {name!r} for this chart", pos)


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
    raw = parser.parse_expr()
    parser.expect_end()
    return Expr(atoms, _canonical(atoms, raw, check=True))


def parse_scalar(src: str) -> GaussianRational:
    """Parse one exact scalar literal (used for family parameters)."""
    parser = _Parser(src, None)
    value = parser.parse_scalar_literal()
    parser.expect_end()
    return value
