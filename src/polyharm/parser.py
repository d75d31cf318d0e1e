"""Factor-level scanner for the expression grammar.

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
exponential atom.  Whitespace is insignificant; juxtaposition is not
multiplication.  The sign inside a plain rational literal is only accepted
inside E(...) and inside the parenthesised complex form; everywhere else '-'
is the binary operator.  Parse of the canonical printed form is the identity.

An atom product, a text without spaces of chart variables in chart order,
each at most once with an optional '^n' of 1-4 digits, joined by '*' and
optionally ending in 'E(m)' (an optional '-' and 1-4 digits) on a chart with
E, is one match of a per-chart pattern and becomes its one Term.  Any other
text ('1', 'y*x', 'x*x', 'x^10000') is scanned.  After one search for
unexpected characters, each factor is one regex match at the scan position: an
atom or 'E(m)', a rational with its 'i', or a parenthesised complex literal,
with its '^n' and the operator after it.  It folds into the raw term (a plain
tuple) of its product: a variable adds its exponent at its slot in a map made
once per chart; an exponent of at most 4 digits, or a literal without '/'
under 300 digits, is one int(), any other literal one normalisation of its
(a, b, d) triple.  Any other '(' opens a sum, scanned by the same loop one
level down.  A product becomes an Expr only once a sum in parentheses, or a
power of one or of a literal, enters it, and a flat sum of products is
canonicalised once, unchecked.  Errors keep the class, message and token
position of the grammar.  A closure error is raised at the factor that breaks
a product: ``log1m*log1m*0`` is refused, ``0*log1m*log1m`` is 0.

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
  else UsageError, so ``(x+y+t)^20*(x+y+t)^20`` (231 * 231) is refused."""

from __future__ import annotations

import re
from functools import cache

from .algebra import AtomSet, Expr, LOG_DISC, LOG_SPHERE, Term, _canonical, _validated
from .errors import ParseError, UsageError
from .rationals import GaussianRational, ONE, ZERO, _make, _reduced

MAX_DEPTH = 100
MAX_POWER_TERM_PRODUCTS = 50_000
MAX_POWER_COEFFICIENT_BITS = 4096

# A non-space character outside the grammar, or a '_' that does not continue
# a name; the lookbehind is slow, so only a text with a '_' is searched for it.
_UNEXPECTED = re.compile(r"[^\sA-Za-z0-9_()*/^+\-]")
_UNEXPECTED_OR_UNDERSCORE = re.compile(_UNEXPECTED.pattern + r"|(?<![A-Za-z0-9_])[0-9]*_")
_WS = re.compile(r"\s*")
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|.")
_NEGATIONS = re.compile(r"(?:\s*-)*\s*")
_SIGN = re.compile(r"\s*(-?)")
# A factor's match ends with the space and the '*', '+' or '-' after it.  A
# uint after '/' or '^' is optional in the match, so that a missing one is
# reported at its position; a complex literal matches only with nonzero
# denominators, else it is read as a parenthesised sum.
_NUMBER = r"(?P<num>[0-9]+)(?:(?P<slash>\s*/\s*)(?P<den>[0-9]+)?)?(?P<i>\s*i(?![A-Za-z0-9_]))?"
_COMPLEX = (
    r"\(\s*(?P<rneg>-)?\s*(?P<rnum>[0-9]+)(?:\s*/\s*(?P<rden>0*[1-9][0-9]*))?"
    r"\s*(?P<op>[-+])\s*(?P<inum>[0-9]+)(?:\s*/\s*(?P<iden>0*[1-9][0-9]*))?\s*i\s*\)"
    r"(?:(?P<cslash>\s*/\s*)(?P<cden>[0-9]+)?)?"
)
_POWER = r"(?:(?P<caret>\s*\^\s*)(?P<exp>[0-9]+)?)?\s*(?P<then>[-+*]?)"
_FACTOR = re.compile(
    r"\s*(?:(?P<call>E\s*\(\s*(?P<eneg>-?)\s*)(?P<w>[0-9]+)?\s*(?P<close>\))?"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)|" + _NUMBER + r"|(?P<paren>\())" + _POWER
)
_COMPLEX_FACTOR = re.compile(_COMPLEX + _POWER)
_AFTER_GROUP = re.compile(_POWER)
_SCALAR = re.compile(f"(?:{_NUMBER}|{_COMPLEX})\\s*")
_RESERVED = ("E", "i", LOG_DISC, LOG_SPHERE)


@cache
def _slots(atoms: AtomSet) -> dict[str, int]:
    """The slot of each chart variable that the grammar reads as one."""
    return {name: k for k, name in enumerate(atoms.variables) if name not in _RESERVED}


@cache
def _atom_product(atoms: AtomSet) -> re.Pattern:
    """The chart's atom products, each factor then '*'; none on a chart with a reserved name."""
    factors = [f"(?:{re.escape(v)}(\\^[0-9]{{1,4}}|)\\*)?" if v in _slots(atoms) else "(?!)"
               for v in atoms.variables]
    weight = r"(?:E\((-?[0-9]{1,4})\)\*)?" if atoms.exp_var is not None else "()"
    return re.compile("".join(factors) + weight)


class _Scanner:
    """One parse of ``src``: its chart and the '*' budget of its products."""

    def __init__(self, src: str, atoms: AtomSet):
        self.src, self.atoms = src, atoms
        self.zeros = (0,) * len(atoms.variables)
        self.spent = 0  # term products of the Expr '*' operators of the whole parse

    def sum(self, pos: int, depth: int) -> tuple[list[tuple], int]:
        """The raw (coeff, powers, weight, logp) terms of the sum at pos, signs
        applied, and the position of the token after it."""
        src, atoms, zeros, slots = self.src, self.atoms, self.zeros, _slots(self.atoms)
        raw = []
        m = _SIGN.match(src, pos)
        then, pos = m.group(1), m.end()
        while True:
            negate = then == "-"
            # the product: Term(c, powers, weight, logp), or expr once a sum entered it
            c, powers, weight, logp, expr, first = ONE, list(zeros), 0, 0, None, True
            while True:
                if expr is not None:  # the raw Term holds this factor alone
                    c, powers, weight, logp = ONE, list(zeros), 0, 0
                f = None  # the factor, when it is not folded into the raw Term
                m = _FACTOR.match(src, pos)
                if m is None:
                    pos = _WS.match(src, pos).end()
                    raise ParseError("expected a variable, literal or '('", pos)
                pos = m.end()
                call, eneg, w, close, name, num, slash, den, i, paren, caret, exp, then = m.groups()
                if name is not None:
                    k = slots.get(name)
                    if k is not None:  # a power only adds (no budget); 4 digits convert at any limit
                        powers[k] += (1 if caret is None else int(exp) if exp and len(exp) < 5
                                      else _exponent(m, False))
                    elif name == atoms.log_kind:
                        logp += 1 if caret is None else _exponent(m, True)
                    elif name == "E" and atoms.exp_var is not None:
                        raise ParseError("expected '('", _WS.match(src, m.end("name")).end())
                    elif name == "i":
                        raise ParseError("write the imaginary unit as '1i'", m.start("name"))
                    else:
                        raise ParseError(f"unknown atom {name!r} for this chart", m.start("name"))
                elif call is not None:
                    if atoms.exp_var is None:
                        raise ParseError("unknown atom 'E' for this chart", m.start("call"))
                    k = _uint(m, "w", "call")
                    if close is None:
                        raise ParseError("expected ')'", _WS.match(src, m.end("w")).end())
                    n = 1 if caret is None else _exponent(m, False)
                    weight += (-k if eneg else k) * n
                else:
                    if num is not None:  # under 300 digits converts at any digit limit
                        a = int(num) if slash is None and len(num) < 300 else None
                        value = (_number(m, slash, i) if a is None
                                 else _make(a, 0, 1) if i is None else _make(0, a, 1))
                    else:
                        p = m.start("paren")
                        m = _COMPLEX_FACTOR.match(src, p)
                        value = None if m is None else _complex(m)
                        if value is not None:
                            pos, caret, then = m.end(), *m.group("caret", "then")
                    if value is None:
                        f, then, pos = self.group(p, depth)
                    elif caret is None:
                        c = value if c is ONE else c * value
                    else:
                        f = self.power(Term(value, zeros), m)
                if expr is not None and f is None:
                    f = Term(c, tuple(powers), weight, logp)
                if f is not None:
                    if expr is None and type(f) is Term:
                        c = f.coeff if c is ONE else c * f.coeff
                        powers = [p + q for p, q in zip(powers, f.powers)]
                        weight, logp = weight + f.weight, logp + f.logp
                    elif first:
                        expr = f
                    else:
                        a = Term(c, tuple(powers), weight, logp)
                        expr = self.multiply(a if expr is None else expr, f)
                if type(expr) is Term:
                    c, powers, weight, logp = expr.coeff, list(expr.powers), expr.weight, expr.logp
                    expr = None
                elif expr is None and logp and c:
                    _validated(atoms, Term(c, tuple(powers), weight, logp))
                first = False
                if then != "*":
                    break
            if expr is None:
                raw.append((-c if negate else c, tuple(powers), weight, logp))
            else:
                raw.extend((-expr if negate else expr).terms)
            if not then:
                return raw, pos

    def group(self, pos: int, depth: int) -> tuple[Term | Expr, str, int]:
        """The parenthesised sum at pos (a '(') with its '^n', the operator
        after it ('' if none) and the position after that."""
        if depth == MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
        raw, pos = self.sum(pos + 1, depth + 1)
        if not self.src.startswith(")", pos):
            raise ParseError("expected ')'", pos)
        base = (tuple.__new__(Term, raw[0]) if len(raw) == 1  # raw terms are plain tuples
                else self.lean(Expr(self.atoms, _canonical(self.atoms, raw))))
        m = _AFTER_GROUP.match(self.src, pos + 1)
        return self.power(base, m), m.group("then"), m.end()

    def power(self, base: Term | Expr, m: re.Match) -> Term | Expr:
        """A literal or parenthesised base raised to the '^n' of m, if any."""
        if m.group("caret") is None:
            return base
        base = self.expr(base)
        return self.lean(_power(base, _exponent(m, base._has_log())))

    def multiply(self, a: Term | Expr, b: Term | Expr) -> Term | Expr:
        """a * b where one of them is a sum, within the budget of the parse."""
        a, b = self.expr(a), self.expr(b)
        self.spent += len(a.terms) * len(b.terms)
        if self.spent > MAX_POWER_TERM_PRODUCTS:
            raise UsageError(f"products need more than {MAX_POWER_TERM_PRODUCTS} term products")
        return self.lean(a * b)

    def expr(self, f: Term | Expr) -> Expr:
        return f if type(f) is Expr else Expr(self.atoms, _canonical(self.atoms, [f], check=True))

    def lean(self, e: Expr) -> Term | Expr:
        """e, or as a raw Term if it has at most one term."""
        return e if len(e.terms) > 1 else e.terms[0] if e.terms else Term(ZERO, self.zeros)


def _uint(m: re.Match, group: str, after: str = "", denominator: bool = False) -> int:
    """The uint of ``group`` of m, an optional group that follows group ``after``."""
    text = m.group(group)
    if text is None:
        raise ParseError("expected an unsigned integer", m.end(after))
    try:
        n = int(text)
    except ValueError:  # more digits than Python converts
        raise ParseError("integer literal too long", m.start(group)) from None
    if denominator and n == 0:
        raise ParseError("zero denominator", _WS.match(m.string, m.end(group)).end())
    return n


def _exponent(m: re.Match, has_log: bool) -> int:
    """The n of the '^n' of m, which holds a '^'."""
    n = _uint(m, "exp", "caret")
    if has_log and n >= 2:
        raise ParseError("log atom squared", m.start("exp"))
    return n


def _number(m: re.Match, slash: str | None, i: str | None) -> GaussianRational:
    """The rational [i] literal of m; slash and i are the texts of its groups."""
    a = _uint(m, "num")
    d = 1 if slash is None else _uint(m, "den", "slash", True)
    return _reduced(a, 0, d) if i is None else _reduced(0, a, d)


def _complex(m: re.Match) -> GaussianRational | None:
    """The parenthesised complex literal of m; None when a part has too many
    digits to convert, and it is then read as a parenthesised sum."""
    rneg, rnum, rden, op, inum, iden, cslash = m.group(
        "rneg", "rnum", "rden", "op", "inum", "iden", "cslash")
    try:
        a, p, b, q = int(rnum), int(rden or 1), int(inum), int(iden or 1)
    except ValueError:
        return None
    k = 1 if cslash is None else _uint(m, "cden", "cslash", True)
    return _reduced((-a if rneg else a) * q, (-b if op == "-" else b) * p, p * q * k)


def _check_characters(src: str) -> None:
    m = (_UNEXPECTED_OR_UNDERSCORE if "_" in src else _UNEXPECTED).search(src)
    if m:
        raise ParseError(f"unexpected character {src[m.end() - 1]!r}", m.end() - 1)


def _expect_end(src: str, pos: int) -> None:
    if pos < len(src):
        raise ParseError(f"unexpected trailing input {_TOKEN.match(src, pos).group()!r}", pos)


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
    m = _atom_product(atoms).fullmatch(src + "*")
    if m:  # an atom product is its one Term, without a scan
        *exps, w = m.groups()  # each variable's '^n', '' or None if absent; E(m)'s weight or ''
        powers = tuple([0 if e is None else int(e[1:] or 1) for e in exps])
        return Expr(atoms, (tuple.__new__(Term, (ONE, powers, int(w or 0), 0)),))
    _check_characters(src)
    raw, pos = _Scanner(src, atoms).sum(0, 0)
    _expect_end(src, pos)
    return Expr(atoms, _canonical(atoms, raw))


def parse_scalar(src: str) -> GaussianRational:
    """Parse one exact scalar literal (used for family parameters)."""
    _check_characters(src)
    pos = _NEGATIONS.match(src).end()
    m = _SCALAR.match(src, pos)
    value = m and (_complex(m) if m.group("num") is None else _number(m, *m.group("slash", "i")))
    if value is None:
        raise ParseError("expected a complex literal" if src.startswith("(", pos)
                         else "expected a number", pos)
    _expect_end(src, m.end())
    return -value if src.count("-", 0, pos) % 2 else value
