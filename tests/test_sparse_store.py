"""The sparse-row store of :class:`~bihom.linalg.Matrix` against the dense
matrix it replaced (the ``dense_*`` references in ``oracles.py``).

A matrix built from sparse rows and one built from the same dense entries
must agree on every operation, and on ``==``, ``hash``, ``repr`` and
``to_json``.  The builders keep only the sparse rows: the dense entries are
made when they are first read, and every entry is a ``Fraction``.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bihom.linalg import (
    LinAlgError,
    Matrix,
    SingularMatrixError,
    block_diag,
    inverse,
    linear_combination,
)

from oracles import (
    dense_add,
    dense_apply,
    dense_col,
    dense_inverse,
    dense_is_zero,
    dense_kron,
    dense_matmul,
    dense_scale,
    dense_sub,
    dense_transpose,
)

Q = Fraction

values = st.sampled_from([Q(0)] * 4 + [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])
sizes = st.integers(0, 4)


def grids(rows: int, cols: int):
    """``rows`` x ``cols`` lists of rationals, mostly zeros."""
    return st.lists(st.lists(values, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def both(grid: list[list[Fraction]], cols: int) -> tuple[Matrix, Matrix]:
    """The matrix of ``grid`` built from its dense rows, and built from
    sparse rows that hold integers for its integral entries and some
    explicit zeros."""
    sparse = [{j: int(x) if x.denominator == 1 else x
               for j, x in enumerate(row) if x or j % 2} for row in grid]
    return Matrix.from_rows(grid, cols=cols), Matrix.from_sparse(sparse, cols)


def all_fractions(m: Matrix) -> bool:
    return all(type(x) is Fraction for row in m.entries for x in row)


def same(m: Matrix, ref: Matrix) -> None:
    """``m`` is ``ref`` in every observable way."""
    assert m == ref and not m != ref
    assert hash(m) == hash(ref)
    assert repr(m) == repr(ref)
    assert str(m) == str(ref)
    assert m.to_json() == ref.to_json()
    assert all_fractions(m)


@st.composite
def pairs(draw, rows=None, cols=None):
    """``(dense, sparse)`` builds of one drawn matrix."""
    rows = draw(sizes) if rows is None else rows
    cols = draw(sizes) if cols is None else cols
    return both(draw(grids(rows, cols)), cols)


class TestSparseAgainstDense:
    @given(pairs())
    def test_queries(self, pair):
        dense, sparse = pair
        same(sparse, dense)
        assert sparse.sparse_rows == dense.sparse_rows
        assert sparse.sparse_cols == dense.sparse_cols
        assert sparse.is_zero == dense.is_zero == dense_is_zero(dense)
        identity = dense.is_square and dense.entries == tuple(
            tuple(Q(int(i == j)) for j in range(dense.cols))
            for i in range(dense.rows))
        assert sparse.is_identity == dense.is_identity == identity
        for j in range(dense.cols):
            col = dense_col(dense, j)
            assert sparse.col(j) == dense.col(j) == col
            assert all(type(x) is Fraction for x in sparse.col(j))
        for i in range(dense.rows):
            assert sparse.row(i) == dense.row(i)
            for j in range(dense.cols):
                assert sparse[i, j] == dense[i, j]

    @given(st.data())
    def test_sums_scale_and_transpose(self, data):
        rows, cols = data.draw(sizes), data.draw(sizes)
        left, right = data.draw(pairs(rows, cols)), data.draw(pairs(rows, cols))
        c = data.draw(values)
        for a, b in itertools.product(left, right):
            same(a + b, dense_add(left[0], right[0]))
            same(a - b, dense_sub(left[0], right[0]))
        for a in left:
            same(a.scale(c), dense_scale(left[0], c))
            same(c * a, dense_scale(left[0], c))
            same(-a, dense_scale(left[0], -1))
            same(a.transpose(), dense_transpose(left[0]))
            assert a.transpose().sparse_cols == a.sparse_rows

    @given(st.data())
    def test_products(self, data):
        r, k, c = data.draw(sizes), data.draw(sizes), data.draw(sizes)
        left, right = data.draw(pairs(r, k)), data.draw(pairs(k, c))
        v = data.draw(st.lists(values, min_size=k, max_size=k))
        integral = [int(x) if x.denominator == 1 else x for x in v]
        for a, b in itertools.product(left, right):
            same(a @ b, dense_matmul(left[0], right[0]))
            same(a.kron(b), dense_kron(left[0], right[0]))
        for a in left:
            for vector in (v, integral):
                image = a.apply(vector)
                assert image == dense_apply(left[0], v)
                assert all(type(x) is Fraction for x in image)

    @given(st.data())
    def test_square_operations(self, data):
        n = data.draw(sizes)
        first, second = data.draw(pairs(n, n)), data.draw(pairs(n, n))
        coeffs = [data.draw(values), data.draw(values)]
        ref, other = first[0], second[0]
        expected_inverse = dense_inverse(ref)
        combination = dense_add(dense_scale(ref, coeffs[0]),
                                dense_scale(other, coeffs[1]))
        stacked = Matrix.from_rows(
            [list(row) + [Q(0)] * n for row in ref.entries]
            + [[Q(0)] * n + list(row) for row in other.entries], cols=2 * n)
        for a, b in itertools.product(first, second):
            power = Matrix.identity(n)
            for k in range(4):
                same(a.power(k), power)
                power = dense_matmul(power, ref)
            if expected_inverse is None:
                with pytest.raises(SingularMatrixError):
                    inverse(a)
            else:
                same(inverse(a), expected_inverse)
                same(a.power(-1), expected_inverse)
            if n:
                same(linear_combination([a, b], coeffs), combination)
            same(block_diag(a, b), stacked)

    def test_integer_dense_entries_come_out_as_fractions(self):
        a = Matrix(2, 2, ((1, 0), (0, 2)))
        assert a.sparse_rows == ({0: Q(1)}, {1: Q(2)})
        assert all(type(x) is Fraction
                   for row in a.sparse_rows for x in row.values())
        for m in (a @ a, a + a, a - a, a.kron(a), a.transpose(), -a):
            assert all_fractions(m)
        assert a.col(1) == (Q(0), Q(2)) and type(a.col(1)[1]) is Fraction


class TestLazyEntries:
    @staticmethod
    def built() -> list[Matrix]:
        a = Matrix.from_sparse([{0: 1}, {0: 2, 1: Q(1, 2)}], 2)
        return [a, a @ a, a + a, a - a, -a, a.scale(3), 3 * a, a.transpose(),
                a.kron(a), a.power(3), a.power(-2), inverse(a),
                Matrix.identity(2), Matrix.zeros(2, 3), Matrix.diagonal([1, 2]),
                linear_combination([a, a], [Q(1), Q(2)]), block_diag(a, a)]

    def test_builders_hold_no_entries_until_read(self):
        for m in self.built():
            assert "entries" not in vars(m)
            entries = m.entries
            assert vars(m)["entries"] is entries and m.entries is entries
            assert all_fractions(m)

    def test_queries_and_products_do_not_read_entries(self):
        a, b = Matrix.from_sparse([{1: Q(3)}, {}], 2), Matrix.identity(2)
        assert a @ b == a and a != b and not a.is_zero and not a.is_identity
        assert a.col(1) == (Q(3), Q(0)) and a.apply((0, 1)) == (Q(3), Q(0))
        assert a.sparse_cols == ({}, {0: Q(3)})
        for m in (a, b):
            assert "entries" not in vars(m)

    def test_from_sparse_makes_integers_fractions(self):
        m = Matrix.from_sparse([{0: 2, 1: 0}, {1: "-3/2"}], 2)
        assert m.sparse_rows == ({0: Q(2)}, {1: Q(-3, 2)})
        assert all(type(x) is Fraction
                   for row in m.sparse_rows for x in row.values())
        assert m.entries == ((Q(2), Q(0)), (Q(0), Q(-3, 2)))
        assert all_fractions(m)

    def test_from_sparse_rejects_floats(self):
        with pytest.raises(ValueError):
            Matrix.from_sparse([{0: 0.5}], 1)

    def test_dense_builders_keep_their_validation(self):
        with pytest.raises(LinAlgError, match="ragged rows"):
            Matrix(2, 2, ((Q(1), Q(0)), (Q(1),)))
        with pytest.raises(LinAlgError, match="explicit column count"):
            Matrix.from_rows([[1, 2]], cols=3)
        with pytest.raises(ValueError, match="array of rows"):
            Matrix.from_json([1, 2])
        with pytest.raises(ValueError, match="not a rational literal"):
            Matrix.from_json([["x"]])

    def test_sparse_rows_are_cached(self):
        m = Matrix.from_rows([[0, 1], [2, 0]])
        assert m.sparse_rows is m.sparse_rows
        assert m.sparse_cols is m.sparse_cols
        assert m.sparse_cols == ({1: Q(2)}, {0: Q(1)})
