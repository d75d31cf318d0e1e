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

Printing writes the terms in that order, each as its coefficient (left out
when it is 1) and its factors ``v^p`` (``v`` for p = 1), ``E(m)`` and L, joined
by '*'; the text re-parses to the same Expr.  ``Expr.__str__`` stays the entry
point (perfbench spans it as ``algebra.print``) and calls one function per atom
set, generated at its first print by ``_printer`` with one ``if p_k:`` per
chart variable.  A coefficient with more digits than
``sys.get_int_max_str_digits()`` raises UsageError.

Atom sets, terms and expressions are immutable values and every operation
is a pure function, so they can be shared between threads freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import add
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import ClosureError, DomainError, UsageError
from .rationals import GaussianRational, ScalarLike, _ratio_text

if TYPE_CHECKING:
    import numpy as np

LOG_DISC = "log1m"  # log(1 - z*zb), the hyperbolic disc atom
LOG_SPHERE = "log1p"  # log(1 + z*zb), the punctured sphere atom
_LOG_DERIVATIVE_REFUSED = ("derivative of a log atom in z or zb is handled by the "
                           "geometry operators, not the term algebra")


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
        object.__setattr__(self, "_hash", hash(self.__reduce__()[1]))  # tau looks tables up by it

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # the fields alone: str hashes, so _hash, differ between processes
        return AtomSet, (self.variables, self.exp_var, self.log_kind, self.conformal)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UsageError(f"unknown variable {name!r} for this chart") from None

    def exponents(self, powers: dict[str, int]) -> tuple[int, ...]:
        """Exponent tuple over ``variables`` of a name -> power mapping."""
        exps = [0] * len(self.variables)
        for name, p in powers.items():
            exps[self.index(name)] = p
        return tuple(exps)

    def conformal_indices(self) -> tuple[int, int]:
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

    def symbol_values(self, points: np.ndarray) -> list[np.ndarray]:
        """Per-variable values at real chart points of shape (..., dim).

        Every slot reads its real coordinate, except the conformal pair:
        z = x + iy and zb = x - iy from the two real coordinates in its slots.
        """
        if points.shape[-1:] != (len(self.variables),):
            raise UsageError(
                f"expected {len(self.variables)} coordinates per point, got shape {points.shape}"
            )
        values = [points[..., k] for k in range(len(self.variables))]
        if self.conformal is not None:
            iz, izb = self.conformal_indices()
            x, y = values[iz], values[izb]
            values[iz] = x + 1j * y
            values[izb] = x - 1j * y
        return values

    def _conformal_radius2(self, points: np.ndarray) -> np.ndarray:
        iz, izb = self.conformal_indices()
        return points[..., iz] ** 2 + points[..., izb] ** 2

    def check_domain(self, points: np.ndarray) -> None:
        if self.log_kind == LOG_DISC and (self._conformal_radius2(points) >= 1.0).any():
            raise DomainError("|z| >= 1 is outside the hyperbolic disc chart")

    def log_value(self, points: np.ndarray) -> np.ndarray:
        import numpy as np
        rho2 = self._conformal_radius2(points)
        if self.log_kind == LOG_DISC:
            return np.log(1.0 - rho2)
        if self.log_kind == LOG_SPHERE:
            return np.log(1.0 + rho2)
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


class Term(NamedTuple):
    coeff: GaussianRational
    powers: tuple[int, ...]
    weight: int = 0  # integer m of E(m)
    logp: int = 0  # 0 or 1

    def signature(self) -> tuple:
        return (self.logp, self.weight, self.powers)


def _validated(atoms: AtomSet, term: Term) -> Term:
    """``term`` (or any (coeff, powers, weight, logp) tuple) if it is in the algebra."""
    _, powers, weight, logp = term
    if powers and min(powers) < 0:
        raise ClosureError("negative variable powers are outside the algebra")
    if weight != 0 and atoms.exp_var is None:
        raise ClosureError("this chart has no exponential atom")
    if logp:
        if atoms.log_kind is None:
            raise ClosureError("this chart has no log atom")
        if logp > 1:
            raise ClosureError("log atom squared is outside the algebra")
        iz, izb = atoms.conformal_indices()
        if powers[iz] or powers[izb]:
            raise ClosureError(
                "log-bearing terms may not carry powers of the conformal pair"
            )
    return term


def _canonical(atoms: AtomSet, raw: Sequence[Term], check: bool = False) -> tuple[Term, ...]:
    """Like terms merged, zeros dropped, sorted.  ``check`` validates the
    closure rules; operations whose output terms are valid by construction
    (sums, derivatives, scaling) skip it.  A single term skips the merge."""
    if len(raw) == 1:
        t = raw[0]
        return (tuple.__new__(Term, _validated(atoms, t) if check else t),) if t[0] else ()
    merged: dict[tuple, GaussianRational] = {}
    for coeff, powers, weight, logp in raw:
        if coeff:
            key = (logp, weight, powers)
            acc = merged.get(key)
            merged[key] = coeff if acc is None else acc + coeff
    if check:
        for (logp, weight, powers), c in merged.items():
            if c:
                _validated(atoms, (c, powers, weight, logp))
    # the keys are unique, so sorting the items never compares coefficients
    return tuple([tuple.__new__(Term, (c, powers, weight, logp))
                  for (logp, weight, powers), c in sorted(merged.items(), reverse=True) if c])


@dataclass(frozen=True)
class Expr:
    atoms: AtomSet
    terms: tuple[Term, ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(atoms: AtomSet) -> "Expr":
        return Expr(atoms, ())

    @staticmethod
    def constant(atoms: AtomSet, value: ScalarLike) -> "Expr":
        return Expr.monomial(atoms, value)

    @staticmethod
    def variable(atoms: AtomSet, name: str, power: int = 1) -> "Expr":
        return Expr.monomial(atoms, 1, {name: power})

    @staticmethod
    def log(atoms: AtomSet) -> "Expr":
        return Expr.monomial(atoms, 1, log=1)

    @staticmethod
    def monomial(
        atoms: AtomSet,
        coeff: ScalarLike,
        powers: dict[str, int] | None = None,
        weight: int = 0,
        log: int = 0,
    ) -> "Expr":
        term = Term(GaussianRational.coerce(coeff), atoms.exponents(powers or {}), weight, log)
        return Expr(atoms, _canonical(atoms, [term], check=True))

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
            raw = [
                (a.coeff * b.coeff, tuple(map(add, a.powers, b.powers)),
                 a.weight + b.weight, a.logp + b.logp)
                for a in self.terms
                for b in other.terms
            ]
            return Expr(self.atoms, _canonical(self.atoms, raw, check=True))
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
        """Exact partial derivative; z and zb are independent symbols.  A
        log-bearing term differentiated in z or zb raises ClosureError.
        Only the tests and perfbench's ``algebra.differentiate`` span use it."""
        atoms = self.atoms
        idx = atoms.index(var)
        log_refused = atoms.conformal is not None and var in atoms.conformal
        is_exp_var = atoms.exp_var == var
        raw = []
        for coeff, powers, weight, logp in self.terms:
            if logp and log_refused:
                raise ClosureError(_LOG_DERIVATIVE_REFUSED)
            k = powers[idx]
            if k:
                lowered = powers[:idx] + (k - 1,) + powers[idx + 1 :]
                raw.append(Term(coeff if k == 1 else coeff * k, lowered, weight, logp))
            if is_exp_var and weight:
                raw.append(Term(coeff * weight, powers, weight, logp))
        return Expr(atoms, _canonical(atoms, raw))

    def evaluate(self, point) -> complex | np.ndarray:
        """Floating complex value at a real chart point.

        ``point`` may also be an array of points of shape (..., dim); the
        values then come back as an array of shape (...), summed term by
        term over all points at once.  A value that is not finite (float
        overflow) raises DomainError, like a point outside the chart.
        """
        import numpy as np
        P = np.asarray(point, dtype=float)
        values = self.atoms.symbol_values(P)
        self.atoms.check_domain(P)
        total = np.zeros(P.shape[:-1], dtype=complex)
        raised = {}  # (k, p) -> values[k] ** p, shared by the terms of this call
        with np.errstate(all="ignore"):
            log_val = self.atoms.log_value(P) if self._has_log() else None
            if self.atoms.exp_var is not None:
                exp_base = P[..., self.atoms.index(self.atoms.exp_var)]
            for t in self.terms:
                try:
                    v = complex(t.coeff)
                except OverflowError:
                    raise DomainError("coefficient is too large for a float") from None
                for k, p in enumerate(t.powers):
                    if p:
                        if (k, p) not in raised:
                            raised[k, p] = values[k] if p == 1 else values[k] ** p
                        v = v * raised[k, p]
                if t.weight:
                    v = v * np.exp(t.weight * exp_base)
                if t.logp:
                    v = v * log_val
                total += v
        if not np.isfinite(total).all():
            raise DomainError("value is not finite here (float overflow)")
        return complex(total) if P.ndim == 1 else total

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _has_log(self) -> bool:
        return any(t.logp for t in self.terms)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return _printer(self.atoms)(self.terms) if self.terms else "0"


@cache
def _printer(atoms: AtomSet):
    """``show(terms)``, the text of a nonzero Expr over ``atoms``: one ``if p_k:``
    per chart variable with its name as a literal, and a real coefficient
    printed inline; the chart alone decides the function, never an input."""
    p = [f"p{k}" for k in range(len(atoms.variables))]
    factors = [f"if {pk}: f += {'*' + v!r} if {pk} == 1 else {'*' + v + '^'!r} + str({pk})"
               for pk, v in zip(p, atoms.variables)] + ["if w: f += '*E(' + str(w) + ')'"]
    if atoms.log_kind is not None:
        factors.append(f"if logp: f += {'*' + atoms.log_kind!r}")
    source = "\n".join([
        "def show(terms):", "    out = []", "    append = out.append", "    try:",
        "        for c, powers, w, logp in terms:", f"            {', '.join(p)}, = powers",
        "            f = ''", *("            " + line for line in factors),
        "            a, b, d = c.a, c.b, c.d", "            if b: negative, mag = c.signed_text()",
        "            else:", "                negative = a < 0", "                if negative: a = -a",
        "                mag = str(a) if d == 1 else _ratio_text(a, d)",
        "            append(' - ' if negative else ' + ')",
        "            append(f[1:] if f and mag == '1' else mag + f)",
        "    except ValueError:  # more digits than sys.get_int_max_str_digits()",
        "        raise UsageError('coefficient has too many digits to print') from None",
        "    out[0] = '-' if out[0] == ' - ' else ''", "    return ''.join(out)\n"])
    names = {"UsageError": UsageError, "_ratio_text": _ratio_text}
    exec(compile(source, "<printer>", "exec"), names)
    return names["show"]
