"""Sparse exact linear algebra over the Gaussian rationals.

Every reduction is one Gauss-Jordan elimination over dict-of-rows that
stores and touches only nonzero entries.  Pivot columns are taken left to
right; of the rows holding the column, the shortest becomes the pivot row
to keep fill-in low.  That choice cannot change the result: the reduced row
echelon form of a matrix is unique, so kernels are the same under any
pivot row order.  The arithmetic is exact, so there is no numerical pivot
selection.  Kernel basis vectors are normalized so that their first nonzero
entry is 1, which makes hand comparisons "equal up to one declared scale
factor".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import UsageError
from .rationals import GaussianRational, ONE, ZERO, ScalarLike

Vector = tuple[GaussianRational, ...]


@dataclass(frozen=True)
class ExactMatrix:
    rows: int
    cols: int
    entries: tuple[GaussianRational, ...]  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise UsageError("entry count does not match matrix shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[ScalarLike]]) -> "ExactMatrix":
        if not rows:
            raise UsageError("matrix needs at least one row")
        ncols = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise UsageError("ragged rows")
            flat.extend(GaussianRational.coerce(v) for v in row)
        return ExactMatrix(len(rows), ncols, tuple(flat))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def at(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def matvec(self, v: Sequence[ScalarLike]) -> Vector:
        if len(v) != self.cols:
            raise UsageError("vector length does not match column count")
        vv = [GaussianRational.coerce(x) for x in v]
        out = []
        for i in range(self.rows):
            acc = ZERO
            for j in range(self.cols):
                acc = acc + self.at(i, j) * vv[j]
            out.append(acc)
        return tuple(out)


def _eliminate(m: ExactMatrix) -> tuple[list[dict[int, GaussianRational]], tuple[int, ...]]:
    """The nonzero rows of the RREF of m as column -> entry maps, in pivot
    order, and the ascending pivot columns."""
    rows = [{j: v for j, v in enumerate(m.row(i)) if not v.is_zero()} for i in range(m.rows)]
    holders: dict[int, set[int]] = {}  # column -> rows with a nonzero entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    chosen: dict[int, int] = {}  # pivot row -> pivot column, in pivot order
    for col in range(m.cols):
        candidates = [r for r in holders.get(col, ()) if r not in chosen]
        if not candidates:
            continue
        p = min(candidates, key=lambda r: (len(rows[r]), r))  # shortest: least fill
        inv = ONE / rows[p][col]
        rows[p] = {j: v * inv for j, v in rows[p].items()}
        rest = [(j, v) for j, v in rows[p].items() if j != col]
        for r in holders[col] - {p}:
            row = rows[r]
            factor = row.pop(col)
            for j, v in rest:
                new = row.get(j, ZERO) - factor * v
                if new.is_zero():
                    del row[j]
                    holders[j].discard(r)
                else:
                    row[j] = new
                    holders.setdefault(j, set()).add(r)
        chosen[p] = col
        if len(chosen) == m.rows:
            break
    return [rows[p] for p in chosen], tuple(chosen.values())


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form (all m.rows rows, zero rows last) and the
    ascending list of pivot columns."""
    reduced, pivots = _eliminate(m)
    dense = [[row.get(j, ZERO) for j in range(m.cols)] for row in reduced]
    dense += [[ZERO] * m.cols for _ in range(m.rows - len(reduced))]
    return ExactMatrix.from_rows(dense), pivots


def rank(m: ExactMatrix) -> int:
    return len(_eliminate(m)[1])


def _normalize_leading(v: list[GaussianRational]) -> Vector:
    lead = next((x for x in v if not x.is_zero()), None)
    if lead is None:
        return tuple(v)
    inv = ONE / lead
    return tuple(x if x.is_zero() else x * inv for x in v)


def nullspace(m: ExactMatrix) -> list[Vector]:
    """Exact kernel basis; empty list for a trivial kernel.

    One basis vector per free column, each normalized to leading entry 1.
    """
    reduced, pivots = _eliminate(m)
    basis = []
    for free in sorted(set(range(m.cols)) - set(pivots)):
        v = [ZERO] * m.cols
        v[free] = ONE
        for row, pc in zip(reduced, pivots):
            if free in row:
                v[pc] = -row[free]
        basis.append(_normalize_leading(v))
    return basis


def solve(m: ExactMatrix, rhs: Sequence[ScalarLike]) -> Vector | None:
    """One exact solution of m x = rhs, or None when inconsistent."""
    if len(rhs) != m.rows:
        raise UsageError("right-hand side length does not match row count")
    augmented = ExactMatrix.from_rows(
        [list(m.row(i)) + [rhs[i]] for i in range(m.rows)]
    )
    reduced, pivots = _eliminate(augmented)
    if m.cols in pivots:  # pivot in the augmented column
        return None
    x = [ZERO] * m.cols
    for row, pc in zip(reduced, pivots):
        x[pc] = row.get(m.cols, ZERO)
    return tuple(x)


def primitive_real_scale(values: Iterable[GaussianRational]) -> Fraction:
    """Positive rational s such that s*values has coprime integer entries.

    Only defined for vectors of real rationals; used to print kernel vectors
    and ansatz matrix rows the way tables of integer coefficients are
    usually typeset.
    """
    fracs = []
    for v in values:
        if v.im != 0:
            raise UsageError("primitive scaling needs real rational entries")
        fracs.append(v.re)
    nonzero = [f for f in fracs if f != 0]
    if not nonzero:
        return Fraction(1)
    denom_lcm = 1
    for f in nonzero:
        denom_lcm = denom_lcm * f.denominator // math.gcd(denom_lcm, f.denominator)
    nums = [abs(int(f * denom_lcm)) for f in nonzero]
    g = 0
    for n in nums:
        g = math.gcd(g, n)
    return Fraction(denom_lcm, g)


def primitive_rows(m: ExactMatrix) -> list[list[GaussianRational]]:
    """Rows rescaled to coprime integers with positive first nonzero entry."""
    out = []
    for i in range(m.rows):
        row = list(m.row(i))
        try:
            s = primitive_real_scale(row)
            lead = next((x for x in row if not x.is_zero()), None)
            if lead is not None and lead.re * s < 0:
                s = -s
            out.append([x * s for x in row])
        except UsageError:
            out.append(list(_normalize_leading(row)))
    return out
