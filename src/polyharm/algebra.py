"""Canonical term algebra over geometry-specific atom sets.

An :class:`Expr` is a finite sum of terms

    c * v1^a1 * ... * vk^ak * E(m) * L^p

where c is a GaussianRational, the v_i are the chart symbols of an
:class:`AtomSet`, ``E(m) = exp(m*t)`` carries one integer weight m per term
(only on charts that declare an exponential atom), and L is the single
logarithmic atom ``log(1 - z*zb)`` or ``log(1 + z*zb)`` with p in {0, 1}.

Terms live in a fixed total order (log power, exponential weight, variable
exponents, compared descending), like terms are merged and zero
coefficients dropped, so two Exprs are mathematically equal exactly when
they compare equal.  The empty sum is the unique representation of 0.

Closure rules enforced at construction time rather than approximated:

* a log atom never appears squared;
* a log-bearing term carries no powers of the conformal pair (z, zb) --
  only powers of the remaining variables (in practice: t).  Differentiating
  a log atom with respect to z or zb is refused at this layer; the geometry
  operators handle those derivatives in closed form.

The conjugate pair (z, zb) consists of independent symbols for
differentiation; reality is imposed only at evaluation time, where the two
real coordinates in their slots are read as the real and imaginary parts.

Atom sets, terms and expressions are immutable values and every operation
is a pure function, so they can be shared between threads freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ClosureError, DomainError, UsageError
from .rationals import GaussianRational, ScalarLike

LOG_DISC = "log1m"  # log(1 - z*zb), the hyperbolic disc atom
LOG_SPHERE = "log1p"  # log(1 + z*zb), the punctured sphere atom


@dataclass(frozen=True)
class AtomSet:
    """The symbols one chart algebra is allowed to use.

    variables -- ordered chart symbols; a point supplies one real per slot.
    exp_var   -- variable carrying integer exponential weights, or None.
    log_kind  -- LOG_DISC, LOG_SPHERE or None.
    conformal -- the (z, zb) pair evaluated from two real coordinates, or None.
    """

    variables: tuple[str, ...]
    exp_var: str | None = None
    log_kind: str | None = None
    conformal: tuple[str, str] | None = None

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise UsageError("duplicate chart variables")
        if self.exp_var is not None and self.exp_var not in self.variables:
            raise UsageError("exponential base variable must be a chart variable")
        if self.log_kind is not None and self.conformal is None:
            raise UsageError("a log atom needs a conformal pair")
        if self.conformal is not None:
            z, zb = self.conformal
            if z not in self.variables or zb not in self.variables:
                raise UsageError("conformal pair must consist of chart variables")

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UsageError(f"unknown variable {name!r} for this chart") from None

    def conformal_indices(self) -> tuple[int, int] | None:
        if self.conformal is None:
            return None
        return self.index(self.conformal[0]), self.index(self.conformal[1])

    def contains(self, other: "AtomSet") -> bool:
        """True when this atom set has every feature of ``other``."""
        if not set(other.variables) <= set(self.variables):
            return False
        if other.exp_var is not None and self.exp_var != other.exp_var:
            return False
        if other.log_kind is not None and self.log_kind != other.log_kind:
            return False
        if other.conformal is not None and self.conformal != other.conformal:
            return False
        return True

    def symbol_values(self, point: Sequence[float]) -> dict[str, complex]:
        """Map chart symbols to complex values at a real chart point."""
        if len(point) != len(self.variables):
            raise UsageError(
                f"expected {len(self.variables)} coordinates, got {len(point)}"
            )
        values = {v: complex(p) for v, p in zip(self.variables, point)}
        if self.conformal is not None:
            z, zb = self.conformal
            x = float(point[self.index(z)])
            y = float(point[self.index(zb)])
            values[z] = complex(x, y)
            values[zb] = complex(x, -y)
        return values

    def _conformal_radius2(self, point: Sequence[float]) -> float:
        iz, izb = self.conformal_indices()
        return float(point[iz]) ** 2 + float(point[izb]) ** 2

    def check_domain(self, point: Sequence[float]) -> None:
        if self.log_kind == LOG_DISC:
            if self._conformal_radius2(point) >= 1.0:
                raise DomainError("|z| >= 1 is outside the hyperbolic disc chart")

    def log_value(self, point: Sequence[float]) -> float:
        rho2 = self._conformal_radius2(point)
        if self.log_kind == LOG_DISC:
            if rho2 >= 1.0:
                raise DomainError("|z| >= 1 is outside the hyperbolic disc chart")
            return math.log(1.0 - rho2)
        if self.log_kind == LOG_SPHERE:
            return math.log(1.0 + rho2)
        raise UsageError("this chart has no log atom")


def merge_atom_sets(a: AtomSet, b: AtomSet) -> AtomSet:
    """Disjoint union of two atom sets (for product charts)."""
    clash = set(a.variables) & set(b.variables)
    if clash:
        raise UsageError(f"variable name collision in product chart: {sorted(clash)}")
    if a.exp_var is not None and b.exp_var is not None:
        raise UsageError("at most one exponential atom per product chart")
    if a.log_kind is not None and b.log_kind is not None:
        raise UsageError("at most one log atom per product chart")
    return AtomSet(
        variables=a.variables + b.variables,
        exp_var=a.exp_var or b.exp_var,
        log_kind=a.log_kind or b.log_kind,
        conformal=a.conformal or b.conformal,
    )


@dataclass(frozen=True)
class Term:
    coeff: GaussianRational
    powers: tuple[int, ...]
    weight: int = 0  # integer m of E(m)
    logp: int = 0  # 0 or 1

    def signature(self) -> tuple:
        return (self.logp, self.weight, self.powers)


def _validated(atoms: AtomSet, term: Term) -> Term:
    if any(p < 0 for p in term.powers):
        raise ClosureError("negative variable powers are outside the algebra")
    if term.weight != 0 and atoms.exp_var is None:
        raise ClosureError("this chart has no exponential atom")
    if term.logp:
        if atoms.log_kind is None:
            raise ClosureError("this chart has no log atom")
        if term.logp > 1:
            raise ClosureError("log atom squared is outside the algebra")
        iz, izb = atoms.conformal_indices()
        if term.powers[iz] or term.powers[izb]:
            raise ClosureError(
                "log-bearing terms may not carry powers of the conformal pair"
            )
    return term


def _canonical(atoms: AtomSet, raw: Iterable[Term]) -> tuple[Term, ...]:
    merged: dict[tuple, GaussianRational] = {}
    for t in raw:
        if t.coeff.is_zero():
            continue
        key = t.signature()
        acc = merged.get(key)
        merged[key] = t.coeff if acc is None else acc + t.coeff
    out = []
    for (logp, weight, powers), coeff in merged.items():
        if coeff.is_zero():
            continue
        out.append(_validated(atoms, Term(coeff, powers, weight, logp)))
    out.sort(key=Term.signature, reverse=True)
    return tuple(out)


@dataclass(frozen=True)
class Expr:
    atoms: AtomSet
    terms: tuple[Term, ...] = field(default_factory=tuple)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(atoms: AtomSet) -> "Expr":
        return Expr(atoms, ())

    @staticmethod
    def constant(atoms: AtomSet, value: ScalarLike) -> "Expr":
        c = GaussianRational.coerce(value)
        zeros = (0,) * len(atoms.variables)
        return Expr(atoms, _canonical(atoms, [Term(c, zeros)]))

    @staticmethod
    def variable(atoms: AtomSet, name: str, power: int = 1) -> "Expr":
        return Expr.monomial(atoms, 1, {name: power})

    @staticmethod
    def exponential(atoms: AtomSet, weight: int) -> "Expr":
        zeros = (0,) * len(atoms.variables)
        return Expr(
            atoms,
            _canonical(atoms, [Term(GaussianRational.coerce(1), zeros, weight)]),
        )

    @staticmethod
    def log(atoms: AtomSet) -> "Expr":
        zeros = (0,) * len(atoms.variables)
        return Expr(
            atoms,
            _canonical(atoms, [Term(GaussianRational.coerce(1), zeros, 0, 1)]),
        )

    @staticmethod
    def monomial(
        atoms: AtomSet,
        coeff: ScalarLike,
        powers: dict[str, int] | None = None,
        weight: int = 0,
        log: int = 0,
    ) -> "Expr":
        exps = [0] * len(atoms.variables)
        for name, p in (powers or {}).items():
            exps[atoms.index(name)] = p
        term = Term(GaussianRational.coerce(coeff), tuple(exps), weight, log)
        return Expr(atoms, _canonical(atoms, [term]))

    @staticmethod
    def sum(atoms: AtomSet, exprs: Iterable["Expr"]) -> "Expr":
        """Sum of many expressions in one canonicalisation pass."""
        raw = []
        for e in exprs:
            if e.atoms != atoms:
                raise UsageError("operands live in different chart algebras")
            raw.extend(e.terms)
        return Expr(atoms, _canonical(atoms, raw))

    # -- ring operations ---------------------------------------------------

    def _require_same_atoms(self, other: "Expr") -> None:
        if self.atoms != other.atoms:
            raise UsageError("operands live in different chart algebras")

    def __add__(self, other: "Expr") -> "Expr":
        if not isinstance(other, Expr):
            return NotImplemented
        self._require_same_atoms(other)
        return Expr(self.atoms, _canonical(self.atoms, self.terms + other.terms))

    def __sub__(self, other: "Expr") -> "Expr":
        if not isinstance(other, Expr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Expr":
        return Expr(
            self.atoms,
            tuple(Term(-t.coeff, t.powers, t.weight, t.logp) for t in self.terms),
        )

    def __mul__(self, other) -> "Expr":
        if isinstance(other, Expr):
            self._require_same_atoms(other)
            raw = []
            for a in self.terms:
                for b in other.terms:
                    raw.append(
                        Term(
                            a.coeff * b.coeff,
                            tuple(p + q for p, q in zip(a.powers, b.powers)),
                            a.weight + b.weight,
                            a.logp + b.logp,
                        )
                    )
            return Expr(self.atoms, _canonical(self.atoms, raw))
        return self.scale(other)

    def __rmul__(self, other) -> "Expr":
        return self.scale(other)

    def scale(self, value: ScalarLike) -> "Expr":
        c = GaussianRational.coerce(value)
        if c.is_zero():
            return Expr.zero(self.atoms)
        return Expr(
            self.atoms,
            tuple(Term(t.coeff * c, t.powers, t.weight, t.logp) for t in self.terms),
        )

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var: str) -> "Expr":
        """Exact partial derivative; z and zb are independent symbols."""
        idx = self.atoms.index(var)
        conf = self.atoms.conformal_indices()
        is_exp_var = self.atoms.exp_var == var
        raw = []
        for t in self.terms:
            if t.logp and conf is not None and idx in conf:
                raise ClosureError(
                    "derivative of a log atom in z or zb is handled by the "
                    "geometry operators, not the term algebra"
                )
            k = t.powers[idx]
            if k:
                lowered = list(t.powers)
                lowered[idx] = k - 1
                raw.append(Term(t.coeff * k, tuple(lowered), t.weight, t.logp))
            if is_exp_var and t.weight:
                raw.append(Term(t.coeff * t.weight, t.powers, t.weight, t.logp))
        return Expr(self.atoms, _canonical(self.atoms, raw))

    def evaluate(self, point: Sequence[float]) -> complex:
        """Floating complex value at a real chart point."""
        self.atoms.check_domain(point)
        values = self.atoms.symbol_values(point)
        log_val = self.atoms.log_value(point) if self._has_log() else 0.0
        exp_base = (
            values[self.atoms.exp_var].real if self.atoms.exp_var is not None else 0.0
        )
        total = 0j
        for t in self.terms:
            v = complex(t.coeff)
            for name, p in zip(self.atoms.variables, t.powers):
                if p:
                    v *= values[name] ** p
            if t.weight:
                v *= math.exp(t.weight * exp_base)
            if t.logp:
                v *= log_val
            total += v
        return total

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _has_log(self) -> bool:
        return any(t.logp for t in self.terms)

    def split_log(self) -> tuple["Expr", "Expr"]:
        """(log-free part P, stripped log coefficient A) with self = P + A*L."""
        poly = [t for t in self.terms if not t.logp]
        stripped = [
            Term(t.coeff, t.powers, t.weight, 0) for t in self.terms if t.logp
        ]
        return (
            Expr(self.atoms, _canonical(self.atoms, poly)),
            Expr(self.atoms, _canonical(self.atoms, stripped)),
        )

    def coefficients(self) -> dict[tuple, GaussianRational]:
        """Signature -> coefficient map (for assembling exact linear systems)."""
        return {t.signature(): t.coeff for t in self.terms}

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for i, t in enumerate(self.terms):
            sign, body = _format_term(self.atoms, t)
            if i == 0:
                pieces.append(("-" if sign else "") + body)
            else:
                pieces.append((" - " if sign else " + ") + body)
        return "".join(pieces)


def _format_rational(f: Fraction) -> str:
    return str(f)


def _format_coefficient(c: GaussianRational) -> tuple[bool, str]:
    """(negative sign extracted, magnitude text).

    Fully complex coefficients are parenthesised and never carry an outer
    sign, so the printed form always re-parses.
    """
    if c.im == 0:
        return c.re < 0, _format_rational(abs(c.re))
    if c.re == 0:
        return c.im < 0, f"{_format_rational(abs(c.im))}i"
    sign = "+" if c.im > 0 else "-"
    return False, f"({_format_rational(c.re)}{sign}{_format_rational(abs(c.im))}i)"


def _format_term(atoms: AtomSet, t: Term) -> tuple[bool, str]:
    factors = []
    for name, p in zip(atoms.variables, t.powers):
        if p == 1:
            factors.append(name)
        elif p > 1:
            factors.append(f"{name}^{p}")
    if t.weight:
        factors.append(f"E({t.weight})")
    if t.logp:
        factors.append(atoms.log_kind)
    negative, mag = _format_coefficient(t.coeff)
    if not factors:
        return negative, mag
    if mag == "1":
        return negative, "*".join(factors)
    return negative, mag + "*" + "*".join(factors)
