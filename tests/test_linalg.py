import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyharm.algebra import Expr
from polyharm.errors import UsageError
from polyharm.families import (
    AnsatzSystem,
    generate_kernel,
    primitive_normalized,
    sol_axis_basis,
    sol_axis_family,
)
from polyharm.geometries import by_id
from polyharm.linalg import (
    ExactMatrix,
    _eliminate,
    nullspace,
    primitive_rows,
    primitive_scale,
    rank,
)
from polyharm.rationals import ONE, ZERO, GaussianRational

from conftest import fractions, gaussian_rationals


def matrices(max_dim=4):
    def build(rows, cols, values):
        needed = rows * cols
        flat = (values * ((needed // len(values)) + 1))[:needed]
        return ExactMatrix.from_rows(
            [flat[r * cols : (r + 1) * cols] for r in range(rows)]
        )

    return st.builds(
        build,
        st.integers(1, max_dim),
        st.integers(1, max_dim),
        st.lists(fractions(max_num=6, max_den=3), min_size=1, max_size=16),
    )


@st.composite
def sparse_matrices(draw, max_rows=12, max_cols=16):
    """Mostly-zero matrices, large enough for elimination to create fill-in
    and to pick among several candidate pivot rows."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    values = st.one_of(
        fractions(max_num=6, max_den=3), gaussian_rationals()
    ).filter(lambda v: v != 0)
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
            values,
            max_size=rows * cols // 4,
        )
    )
    return ExactMatrix.from_rows(
        [[cells.get((r, c), 0) for c in range(cols)] for r in range(rows)]
    )


def identity(n):
    return ExactMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def row_maps(rows):
    """Dense rows as the sparse {column: value} maps an ExactMatrix stores."""
    return [{j: GaussianRational.coerce(v) for j, v in enumerate(row) if v} for row in rows]


def matvec(m, v):
    """m times the sparse vector v ({column: value})."""
    return tuple(sum((a * v.get(j, ZERO) for j, a in row.items()), ZERO) for row in m.row_maps)


def test_rref_identity_is_fixed_point():
    m = identity(2)
    assert _eliminate(m) == (list(m.row_maps), (0, 1))


def test_rref_printed_two_row_system():
    m = ExactMatrix.from_rows([[2, 0, 1], [0, 1, 0]])
    assert _eliminate(m) == (row_maps([[1, 0, Fraction(1, 2)], [0, 1, 0]]), (0, 1))


def test_rref_of_recorded_invertible_matrix_is_identity():
    # build an invertible matrix as a recorded product of elementary row
    # operations applied to the identity; its reduction must undo them all
    rng = random.Random(7)
    rows = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for _ in range(25):
        kind = rng.choice(["swap", "scale", "add"])
        i, j = rng.sample(range(4), 2)
        if kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "scale":
            c = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
            rows[i] = [c * v for v in rows[i]]
        else:
            c = Fraction(rng.randint(-3, 3))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    m = ExactMatrix.from_rows(rows)
    assert _eliminate(m) == (list(identity(4).row_maps), (0, 1, 2, 3))


@settings(max_examples=60)
@given(st.one_of(matrices(), sparse_matrices()))
def test_rref_is_idempotent(m):
    reduced, pivots = _eliminate(m)
    assert len(reduced) == len(pivots) <= m.rows
    for row, pc in zip(reduced, pivots):  # pivot 1, the row's first nonzero entry
        assert min(row) == pc and row[pc] == ONE
        assert all(v for v in row.values())
    again = _eliminate(ExactMatrix(len(reduced), m.cols, tuple(reduced)))
    assert again == (reduced, pivots)


def test_nullspace_printed_two_row_system():
    m = ExactMatrix.from_rows([[2, 0, 1], [0, 1, 0]])
    assert nullspace(m) == row_maps([[1, 0, -2]])


def test_nullspace_identity_is_trivial():
    assert nullspace(identity(3)) == []


def test_nullspace_of_a_matrix_with_no_rows_is_every_column():
    m = ExactMatrix(0, 3, ())
    assert _eliminate(m) == ([], ())
    assert rank(m) == 0
    assert nullspace(m) == list(identity(3).row_maps)


def test_nullspace_printed_three_row_system():
    m = ExactMatrix.from_rows([[9, 0, 2, 0], [0, 2, 0, 3], [0, 0, 1, 0]])
    # proportional to (0, -3/2, 0, 1), led by 1
    assert nullspace(m) == row_maps([[0, 1, 0, Fraction(-2, 3)]])


@settings(max_examples=60)
@given(st.one_of(matrices(), sparse_matrices()))
def test_nullspace_vectors_annihilate_and_rank_nullity(m):
    basis = nullspace(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert all(x for x in v.values()) and all(0 <= j < m.cols for j in v)
        assert matvec(m, v) == (ZERO,) * m.rows
        assert v[min(v)] == ONE


def test_primitive_rows():
    m = ExactMatrix.from_rows([[4, 0, 2], [0, Fraction(-1, 2), 0]])
    rows = primitive_rows(m)
    assert [v.re for v in rows[0]] == [2, 0, 1]
    assert [v.re for v in rows[1]] == [0, 1, 0]


# -- primitive scaling against the Fraction bodies it replaced -----------------------


def _reference_primitive_real_scale(values):
    """linalg.primitive_real_scale, which scaled through the Fraction parts."""
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


def _reference_normalize_leading(v):
    lead = next((x for x in v if not x.is_zero()), None)
    if lead is None:
        return tuple(v)
    inv = ONE / lead
    return tuple(x if x.is_zero() else x * inv for x in v)


def _reference_primitive_rows(m):
    out = []
    for i in range(m.rows):
        row = list(m.row(i))
        try:
            s = _reference_primitive_real_scale(row)
            lead = next((x for x in row if not x.is_zero()), None)
            if lead is not None and lead.re * s < 0:
                s = -s
            out.append([x * s for x in row])
        except UsageError:
            out.append(list(_reference_normalize_leading(row)))
    return out


def _reference_primitive_normalized(f):
    if f.is_zero():
        return f
    coeffs = [t.coeff for t in f.terms]
    try:
        scale = GaussianRational(_reference_primitive_real_scale(coeffs))
        if (coeffs[0] * scale).re < 0:
            scale = -scale
    except UsageError:
        scale = GaussianRational.coerce(1) / coeffs[0]
    return scale * f


def _reference_axis_scaled(f, axis, n):
    """The tail of families.sol_axis_family: primitive, positive v^n term."""
    coeffs = [t.coeff for t in f.terms]
    scale = GaussianRational(_reference_primitive_real_scale(coeffs))
    idx = f.atoms.index(axis)
    leading = next(t.coeff for t in f.terms if t.powers[idx] == n)
    if (leading * scale).re < 0:
        scale = -scale
    return scale * f


_BIG_PART = fractions(max_num=10**6, max_den=10**6)


@st.composite
def scaling_rows(draw, complex_ok=True):
    """Rows of up to 6 entries, each zero about a third of the time (so whole
    rows vanish too), real, or complex when ``complex_ok``; denominators up to
    10^6 and both signs, so leads are often negative."""
    part = st.one_of(_BIG_PART, fractions())
    value = st.one_of(st.just(Fraction(0)), part)
    if complex_ok and draw(st.booleans()):
        value = st.one_of(value, st.builds(GaussianRational, part, part))
    return [GaussianRational.coerce(v) for v in draw(st.lists(value, min_size=1, max_size=6))]


@settings(max_examples=300)
@given(st.integers(1, 4).flatmap(lambda cols: st.lists(
    scaling_rows().map(lambda row: (row * cols)[:cols]), min_size=1, max_size=5)))
def test_primitive_rows_match_the_fraction_reference(rows):
    m = ExactMatrix.from_rows(rows)
    assert primitive_rows(m) == _reference_primitive_rows(m)


def _x_polynomial(row):
    """sum row[k] x^k on sol: one term per nonzero entry, so the canonical
    first term is the highest power."""
    atoms = by_id("sol").atoms
    return Expr.sum(atoms, [Expr.monomial(atoms, c, {"x": k}) for k, c in enumerate(row)])


@settings(max_examples=300)
@given(scaling_rows())
def test_primitive_normalized_matches_the_fraction_reference(row):
    f = _x_polynomial(row)
    assert primitive_normalized(f) == _reference_primitive_normalized(f)


@settings(max_examples=300)
@given(scaling_rows(complex_ok=False), st.integers(0, 5))
def test_primitive_scale_with_any_lead_matches_the_axis_reference(row, k):
    # sol_axis_family leads with its v^n term, which is not the first term
    f = _x_polynomial(row)
    assume(not f.is_zero())
    n = f.terms[k % len(f.terms)].powers[0]
    lead = next(t.coeff for t in f.terms if t.powers[0] == n)
    got = primitive_scale([t.coeff for t in f.terms], lead) * f
    assert got == _reference_axis_scaled(f, "x", n)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("n", range(2, 8))
def test_sol_axis_family_matches_the_fraction_reference(n, axis):
    g = by_id("sol")
    kernel = generate_kernel(AnsatzSystem.build(g, sol_axis_basis(n, axis, g)))
    assert sol_axis_family(n, axis, g) == _reference_axis_scaled(kernel[0], axis, n)


# -- sparse storage against a dense reference ---------------------------------------


@st.composite
def dense_rows(draw, max_rows=6, max_cols=7):
    """Dense row lists with complex entries, about half zeros, and some rows
    and columns forced to zero."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    value = st.one_of(st.just(0), fractions(max_num=4, max_den=3), gaussian_rationals())
    return [
        [0 if r in zero_rows or c in zero_cols else draw(value) for c in range(cols)]
        for r in range(rows)
    ]


def _dense_rref(rows):
    """Textbook Gauss-Jordan on dense lists: (RREF rows, pivot columns)."""
    a = [[GaussianRational.coerce(v) for v in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(a[0])):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = GaussianRational.coerce(1) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def _dense_nullspace(rows):
    reduced, pivots = _dense_rref(rows)
    cols = len(rows[0])
    zero, one = GaussianRational.coerce(0), GaussianRational.coerce(1)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [zero] * cols
        v[free] = one
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[free]
        lead = next(x for x in v if x)
        basis.append(tuple(x / lead for x in v))
    return basis


@settings(max_examples=80)
@given(dense_rows())
def test_sparse_matrix_matches_its_dense_rows(rows):
    m = ExactMatrix.from_rows(rows)
    dense = [[GaussianRational.coerce(v) for v in row] for row in rows]
    assert (m.rows, m.cols) == (len(rows), len(rows[0]))
    assert m.entries == tuple(v for row in dense for v in row)
    assert all(m.row(i) == tuple(dense[i]) for i in range(m.rows))
    assert all(m.at(i, j) == dense[i][j] for i in range(m.rows) for j in range(m.cols))
    assert all(len(row_map) == sum(1 for v in dense[i] if v)
               for i, row_map in enumerate(m.row_maps))


@settings(max_examples=80)
@given(dense_rows())
def test_sparse_reductions_match_dense_gauss_jordan(rows):
    m = ExactMatrix.from_rows(rows)
    reduced, pivots = _dense_rref(rows)
    assert _eliminate(m) == (row_maps(reduced[: len(pivots)]), pivots)
    assert rank(m) == len(pivots)
    assert nullspace(m) == row_maps(_dense_nullspace(rows))


# -- two-phase elimination against the Gauss-Jordan body it replaced ----------------


def _reference_eliminate(m):
    """linalg._eliminate as one Gauss-Jordan elimination, which clears each
    pivot column from every other row as soon as the pivot is chosen (the
    same pivot rule: the shortest unchosen row holding the column, then the
    lowest index)."""
    rows = [dict(row) for row in m.row_maps]
    holders = {}  # column -> rows with a nonzero entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    chosen = {}  # pivot row -> pivot column, in pivot order
    for col in range(m.cols):
        candidates = [r for r in holders.get(col, ()) if r not in chosen]
        if not candidates:
            continue
        p = min(candidates, key=lambda r: (len(rows[r]), r))
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


@st.composite
def wide_sparse_matrices(draw):
    """Up to 30 x 40 and possibly without rows, at a drawn density: fractional
    and complex entries, some columns forced to zero, and some rows that are
    combinations of others, so that elimination leaves zero rows."""
    rows, cols = draw(st.integers(0, 30)), draw(st.integers(1, 40))
    density, rng = draw(st.floats(0.02, 0.4)), random.Random(draw(st.integers(0, 2**32)))
    zero_cols = set(rng.sample(range(cols), rng.randint(0, cols // 3)))

    def value():
        re = Fraction(rng.choice([-6, -3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
        return GaussianRational(re, Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                if rng.random() < 0.3 else 0)

    maps = [{c: value() for c in range(cols) if c not in zero_cols and rng.random() < density}
            for _ in range(rows)]
    for _ in range(rng.randint(0, 4) if rows else 0):
        a, b, k = rng.randrange(rows), rng.randrange(rows), value()
        row = dict(maps[a])
        for j, v in maps[b].items():
            row[j] = row.get(j, ZERO) + k * v
        maps.append({j: v for j, v in row.items() if v})
    return ExactMatrix(len(maps), cols, tuple(maps))


@settings(max_examples=200)
@given(wide_sparse_matrices())
def test_elimination_matches_gauss_jordan_on_sparse_matrices(m):
    assert _eliminate(m) == _reference_eliminate(m)


def test_elimination_matches_gauss_jordan_on_every_sol_axis_system():
    g = by_id("sol")
    for n, axis in itertools.product(range(2, 49), "xy"):
        m = AnsatzSystem.build(g, sol_axis_basis(n, axis, g)).matrix
        assert _eliminate(m) == _reference_eliminate(m), (n, axis)


@pytest.mark.parametrize("gid", ["nil", "sl2", "h2xr"])
@pytest.mark.parametrize("order", [1, 2])
def test_elimination_matches_gauss_jordan_on_monomial_ansatz_systems(gid, order):
    g = by_id(gid)
    for degree in range(7):
        basis = [Expr.monomial(g.atoms, 1, dict(zip(g.atoms.variables, powers)))
                 for powers in itertools.product(range(degree + 1), repeat=len(g.atoms.variables))
                 if sum(powers) <= degree]
        system = AnsatzSystem.build(g, basis, order)
        for m in (system.matrix, system.order_matrix):
            assert _eliminate(m) == _reference_eliminate(m), degree


def test_wrong_entry_count_is_a_usage_error():
    one = GaussianRational.coerce(1)
    for rows, cols, row_maps in [(2, 2, ({0: one},)), (1, 2, ({2: one},)), (1, 2, ({-1: one},))]:
        with pytest.raises(UsageError, match="entry count"):
            ExactMatrix(rows, cols, row_maps)
    with pytest.raises(UsageError, match="ragged"):
        ExactMatrix.from_rows([[1, 2], [3]])
