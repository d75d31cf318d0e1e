"""Sparse exact linear algebra over the Gaussian rationals.

An :class:`ExactMatrix` stores only its nonzero entries, as one
``{column: value}`` map per row, and may have no rows at all (the map of a
basis whose images all vanish).  A reduction reads those maps once, into
``(a, b, d)`` integer triples in the normal form of ``rationals``, and
touches only nonzero entries: a product is subtracted with one gcd, and a
pivot ``(c + e i)/f`` is divided out as ``f (c - e i)/(c^2 + e^2)``.
Forward elimination takes pivot columns left to right: the shortest
unchosen row holding the column (least fill-in, then the lowest index) is
its pivot row, and the column is cleared from the other unchosen rows.
Back-substitution, last pivot first, clears each pivot column from the rows
above with its pivot row, which by then holds only later free columns; so
a banded system costs O(n) row updates, not O(n^2).  The RREF is unique,
so kernels do not depend on the pivot order.  Kernel basis vectors, the
only GaussianRationals a reduction makes, are ``{column: value}`` maps led
by 1.  :func:`primitive_scale` is the one rule that scales a vector for
printing, to coprime integers with a positive lead (or to lead 1 when it
is complex).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Collection, Iterable, Sequence

from .errors import UsageError
from .rationals import GaussianRational, ONE, ZERO, ScalarLike, _make

RowMap = dict[int, GaussianRational]
Triples = dict[int, tuple[int, int, int]]  # column -> (a, b, d) of the normal form


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
        if any(len(row) != ncols for row in rows):
            raise UsageError("ragged rows")
        values = (map(GaussianRational.coerce, row) for row in rows)
        maps = tuple({j: v for j, v in enumerate(row) if v} for row in values)
        return ExactMatrix(len(rows), ncols, maps)

    # ``entries`` and ``at`` are dense reads for the benchmark (perfbench), which
    # counts nonzeros through ``entries`` and copies a matrix to floats with ``at``.
    @property
    def entries(self) -> tuple[GaussianRational, ...]:
        """All rows * cols entries, row-major."""
        return tuple(m.get(j, ZERO) for m in self.row_maps for j in range(self.cols))

    def at(self, i: int, j: int) -> GaussianRational:
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return self.row_maps[i].get(j, ZERO)


def _eliminate(m: ExactMatrix) -> tuple[list[Triples], tuple[int, ...]]:
    """The nonzero rows of the RREF of m as column -> triple maps, in pivot
    order, and the ascending pivot columns."""
    rows = [{j: (v.a, v.b, v.d) for j, v in row.items()} for row in m.row_maps]
    holders: dict[int, set[int]] = {}  # column -> unchosen rows with a nonzero entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    chosen: dict[int, int] = {}  # pivot row -> pivot column, in pivot order
    for col in range(m.cols):  # forward elimination
        if not (h := holders.get(col)):
            continue
        p = next(iter(h)) if len(h) == 1 else min(h, key=lambda r: (len(rows[r]), r))
        rows[p] = _divided(rows[p], *rows[p][col])
        for j in rows[p]:
            holders[j].discard(p)
        _clear(rows, h, col, rows[p], holders)
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


def _divided(row: Triples, c: int, e: int, f: int) -> Triples:
    """row / ((c + e i)/f) = row * f (c - e i)/(c^2 + e^2), each entry reduced by one gcd."""
    if (c, e, f) == (1, 0, 1):
        return row
    p, q, r = f * c, -f * e, c * c + e * e
    out = {}
    for j, (a, b, d) in row.items():
        x, y, z = a * p - b * q, a * q + b * p, d * r
        g = gcd(x, y, z)
        out[j] = (x // g, y // g, z // g)
    return out


def _clear(rows: list[Triples], targets: Collection[int], col: int, pivot: Triples, holders=None):
    """Subtract from each target row its entry at ``col`` times the pivot row,
    whose entry there is 1, and keep ``holders`` (column -> rows) current if given."""
    if not targets:
        return
    rest = [(j, v) for j, v in pivot.items() if j != col]
    for r in targets:
        row = rows[r]
        fa, fb, fd = row.pop(col)
        for j, (va, vb, vd) in rest:
            a, b, d = row.get(j, (0, 0, 1))  # a/d - (fa + fb i)(va + vb i)/(fd vd), one gcd
            pd = fd * vd
            a, b = a * pd - (fa * va - fb * vb) * d, b * pd - (fa * vb + fb * va) * d
            if a or b:
                d *= pd
                g = gcd(a, b, d)
                row[j] = (a // g, b // g, d // g)
                if holders is not None:
                    holders[j].add(r)
            else:
                del row[j]
                if holders is not None:
                    holders[j].discard(r)


def rank(m: ExactMatrix) -> int:
    return len(_eliminate(m)[1])


def nullspace(m: ExactMatrix) -> list[RowMap]:
    """Exact kernel basis: one ``{column: value}`` map per free column, each
    normalized to leading entry 1; an empty list for a trivial kernel."""
    reduced, pivots = _eliminate(m)
    # free column -> nonzero entries of its kernel vector; an RREF row holds
    # its pivot and otherwise only free columns
    kernel = {j: {j: (1, 0, 1)} for j in sorted(set(range(m.cols)).difference(pivots))}
    for row, pc in zip(reduced, pivots):
        for j, (a, b, d) in row.items():
            if j != pc:
                kernel[j][pc] = (-a, -b, d)
    return [{j: _make(a, b, d) for j, (a, b, d) in _divided(v, *v[min(v)]).items()}
            for v in kernel.values()]


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
    d = lcm(*(v.d for v in values))
    g = gcd(*(v.a * (d // v.d) for v in values))
    return GaussianRational.coerce(-d if lead.a < 0 else d) / g


def primitive_rows(m: ExactMatrix) -> list[list[GaussianRational]]:
    """Rows scaled by :func:`primitive_scale`, each led by its first nonzero
    entry; only the nonzero entries are scaled, every other one is ZERO."""
    out = []
    for row in m.row_maps:
        s = primitive_scale(row.values(), row[min(row)] if row else ONE)
        dense = [ZERO] * m.cols
        for j, v in row.items():
            dense[j] = v * s
        out.append(dense)
    return out
