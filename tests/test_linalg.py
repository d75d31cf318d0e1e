import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm.errors import UsageError
from polyharm.linalg import (
    ExactMatrix,
    nullspace,
    primitive_rows,
    rank,
    rref,
    solve,
)
from polyharm.rationals import GaussianRational

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


def test_rref_identity_is_fixed_point():
    m = ExactMatrix.identity(2)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == (0, 1)


def test_rref_printed_two_row_system():
    m = ExactMatrix.from_rows([[2, 0, 1], [0, 1, 0]])
    reduced, pivots = rref(m)
    assert reduced == ExactMatrix.from_rows([[1, 0, Fraction(1, 2)], [0, 1, 0]])
    assert pivots == (0, 1)


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
    reduced, pivots = rref(m)
    assert reduced == ExactMatrix.identity(4)
    assert pivots == (0, 1, 2, 3)


@settings(max_examples=60)
@given(st.one_of(matrices(), sparse_matrices()))
def test_rref_is_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots
    assert reduced.rows == m.rows
    zero_row = (GaussianRational.coerce(0),) * m.cols
    assert all(reduced.row(i) == zero_row for i in range(len(pivots), m.rows))


def test_nullspace_printed_two_row_system():
    m = ExactMatrix.from_rows([[2, 0, 1], [0, 1, 0]])
    basis = nullspace(m)
    assert len(basis) == 1
    assert basis[0] == tuple(
        GaussianRational.coerce(v) for v in (1, 0, -2)
    )


def test_nullspace_identity_is_trivial():
    assert nullspace(ExactMatrix.identity(3)) == []


def test_nullspace_printed_three_row_system():
    m = ExactMatrix.from_rows([[9, 0, 2, 0], [0, 2, 0, 3], [0, 0, 1, 0]])
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    # proportional to (0, -3/2, 0, 1)
    want = [Fraction(0), Fraction(-3, 2), Fraction(0), Fraction(1)]
    scale = v[3] / GaussianRational.coerce(want[3])
    assert all(v[i] == scale * GaussianRational.coerce(want[i]) for i in range(4))


@settings(max_examples=60)
@given(st.one_of(matrices(), sparse_matrices()))
def test_nullspace_vectors_annihilate_and_rank_nullity(m):
    basis = nullspace(m)
    assert rank(m) + len(basis) == m.cols
    zero = tuple(GaussianRational.coerce(0) for _ in range(m.rows))
    for v in basis:
        assert m.matvec(v) == zero
        lead = next(x for x in v if not x.is_zero())
        assert lead == GaussianRational.coerce(1)


def test_solve_identity_and_homogeneous():
    m = ExactMatrix.identity(3)
    assert solve(m, [1, 2, 3]) == tuple(
        GaussianRational.coerce(v) for v in (1, 2, 3)
    )
    m = ExactMatrix.from_rows([[2, 0, 1], [0, 1, 0]])
    assert solve(m, [0, 0]) == tuple(GaussianRational.coerce(0) for _ in range(3))


@settings(max_examples=40)
@given(matrices(), st.lists(fractions(max_num=5, max_den=2), min_size=4, max_size=4))
def test_solve_consistent_system_by_substitution(m, xs):
    x = [GaussianRational(v) for v in xs[: m.cols]]
    x += [GaussianRational.coerce(0)] * (m.cols - len(x))
    rhs = m.matvec(x)
    got = solve(m, rhs)
    assert got is not None
    assert m.matvec(got) == rhs


def test_solve_inconsistent_returns_marker():
    m = ExactMatrix.from_rows([[1, 0], [1, 0]])
    assert solve(m, [1, 2]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(UsageError):
        solve(ExactMatrix.identity(2), [1, 2, 3])


def test_primitive_rows():
    m = ExactMatrix.from_rows([[4, 0, 2], [0, Fraction(-1, 2), 0]])
    rows = primitive_rows(m)
    assert [v.re for v in rows[0]] == [2, 0, 1]
    assert [v.re for v in rows[1]] == [0, 1, 0]
