"""Sparse exact linear algebra over the Gaussian rationals.

An :class:`ExactMatrix` stores only its nonzero entries, as one
``{column: value}`` map per row, and may have no rows at all (the map of a
basis whose images all vanish).  Every reduction starts from copies of
those maps and touches only nonzero entries.  Forward elimination takes
pivot columns left to right: the shortest unchosen row holding the column
(least fill-in) is its pivot row, and the column is cleared from the other
unchosen rows.  Back-substitution, last pivot first, clears each pivot
column from the rows above, with a pivot row that by then holds only later
free columns; so a banded system costs O(n) row updates, not O(n^2).  The
pivot row choice cannot change the result: the reduced row echelon form of
a matrix is unique, so kernels are the same under any pivot row order.  The
arithmetic is exact, so there is no numerical pivot selection.  Kernel
basis vectors are ``{column: value}`` maps as well, normalized so that
their first nonzero entry is 1, which makes hand comparisons "equal up to
one declared scale factor".  For printing, :func:`primitive_scale` is the
one rule that scales a vector to coprime integers with a positive lead (or
to lead 1 when it is complex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .errors import UsageError
from .rationals import GaussianRational, ONE, ZERO, ScalarLike

Vector = tuple[GaussianRational, ...]
RowMap = dict[int, GaussianRational]


@dataclass(frozen=True, eq=False)
class ExactMatrix:
    """A rows x cols matrix; ``row_maps[i]`` maps the column of each nonzero
    entry of row i to its value.  The maps are shared, never mutated."""

    rows: int
    cols: int
    row_maps: tuple[RowMap, ...]

    def __post_init__(self):
        if len(self.row_maps) != self.rows or any(
            not 0 <= j < self.cols for m in self.row_maps for j in m
        ):
            raise UsageError("entry count does not match matrix shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[ScalarLike]]) -> "ExactMatrix":
        if not rows:
            raise UsageError("matrix needs at least one row")
        ncols = len(rows[0])
        maps = []
        for row in rows:
            if len(row) != ncols:
                raise UsageError("ragged rows")
            values = map(GaussianRational.coerce, row)
            maps.append({j: v for j, v in enumerate(values) if v})
        return ExactMatrix(len(rows), ncols, tuple(maps))

    # ``entries`` and ``at`` are dense reads for the benchmark (perfbench), which
    # counts nonzeros through ``entries`` and copies a matrix to floats with ``at``.
    @property
    def entries(self) -> tuple[GaussianRational, ...]:
        """All rows * cols entries, row-major."""
        return tuple(v for i in range(self.rows) for v in self.row(i))

    def at(self, i: int, j: int) -> GaussianRational:
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return self.row_maps[i].get(j, ZERO)

    def row(self, i: int) -> Vector:
        m = self.row_maps[i]
        return tuple(m.get(j, ZERO) for j in range(self.cols))


def _eliminate(m: ExactMatrix) -> tuple[list[RowMap], tuple[int, ...]]:
    """The nonzero rows of the RREF of m as column -> entry maps, in pivot
    order, and the ascending pivot columns."""
    rows = [dict(row) for row in m.row_maps]
    holders: dict[int, set[int]] = {}  # column -> unchosen rows with a nonzero entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    chosen: dict[int, int] = {}  # pivot row -> pivot column, in pivot order
    for col in range(m.cols):  # forward elimination
        if not holders.get(col):
            continue
        p = min(holders[col], key=lambda r: (len(rows[r]), r))  # shortest: least fill
        inv = ONE / rows[p][col]
        rows[p] = {j: v * inv for j, v in rows[p].items()}
        for j in rows[p]:
            holders[j].discard(p)
        _clear(rows, holders[col], col, rows[p], holders)
        chosen[p] = col
        if len(chosen) == m.rows:
            break
    above: dict[int, list[int]] = {col: [] for col in chosen.values()}  # pivot column -> rows above
    for q, own in chosen.items():
        for j in rows[q]:
            if j != own and j in above:
                above[j].append(q)
    for p, col in reversed(chosen.items()):  # back-substitution, last pivot first
        _clear(rows, above[col], col, rows[p])
    return [rows[p] for p in chosen], tuple(chosen.values())


def _clear(rows: list[RowMap], targets: Collection[int], col: int, pivot: RowMap, holders=None):
    """Subtract from each target row its entry at ``col`` times the pivot row,
    whose entry there is 1, and keep ``holders`` (column -> rows) current if given."""
    if not targets:
        return
    rest = [(j, v) for j, v in pivot.items() if j != col]
    for r in targets:
        row = rows[r]
        factor = row.pop(col)
        for j, v in rest:
            new = row.get(j, ZERO) - factor * v
            if new.is_zero():
                del row[j]
                if holders is not None:
                    holders[j].discard(r)
            else:
                row[j] = new
                if holders is not None:
                    holders.setdefault(j, set()).add(r)


def rank(m: ExactMatrix) -> int:
    return len(_eliminate(m)[1])


def nullspace(m: ExactMatrix) -> list[RowMap]:
    """Exact kernel basis as ``{column: value}`` maps; empty list for a
    trivial kernel.

    One basis vector per free column, each normalized to leading entry 1.
    """
    reduced, pivots = _eliminate(m)
    pivot_set = set(pivots)
    # free column -> nonzero entries of its kernel vector; an RREF row holds
    # its pivot and otherwise only free columns
    kernel = {j: {j: ONE} for j in range(m.cols) if j not in pivot_set}
    for row, pc in zip(reduced, pivots):
        for j, v in row.items():
            if j != pc:
                kernel[j][pc] = -v
    basis = []
    for entries in kernel.values():
        inv = ONE / entries[min(entries)]
        basis.append(entries if inv == ONE else {j: v * inv for j, v in entries.items()})
    return basis


def primitive_scale(values: Iterable[GaussianRational], lead: GaussianRational) -> GaussianRational:
    """The scale s that prints ``values`` the way tables of integer
    coefficients are usually typeset: when every value is real, s*values are
    coprime integers and s*lead is positive; when one is complex, s = 1/lead;
    when all are zero, s = 1."""
    values = [v for v in values if v]
    if not values:
        return ONE
    if any(v.b for v in values):
        return ONE / lead
    d = math.lcm(*(v.d for v in values))
    g = math.gcd(*(v.a * (d // v.d) for v in values))
    return GaussianRational.coerce(-d if lead.a < 0 else d) / g


def primitive_rows(m: ExactMatrix) -> list[list[GaussianRational]]:
    """Rows scaled by :func:`primitive_scale`, each led by its first nonzero entry."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        s = primitive_scale(row, next((x for x in row if x), ONE))
        out.append([x * s for x in row])
    return out
