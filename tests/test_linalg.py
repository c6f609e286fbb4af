import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bihom.algebra import BilinearProduct
from bihom.linalg import (
    InconsistentSystemError,
    LinAlgError,
    Matrix,
    SingularMatrixError,
    _axpy,
    _combination,
    _kernel,
    _row_product,
    _rref,
    as_rational,
    inverse,
    kernel_basis,
    rank,
    rational_from_json,
    rational_to_json,
    solve,
    try_solve,
)

from oracles import (
    dense_apply,
    dense_inverse,
    dense_kernel_basis,
    dense_matmul,
    dense_rank,
    dense_try_solve,
)

Q = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def mat(rows):
    return Matrix.from_rows(rows)


def small_matrix(rng, rows, cols, span=3):
    return mat([[Q(rng.randint(-span, span), rng.choice((1, 2)))
                 for _ in range(cols)] for _ in range(rows)])


@st.composite
def matrices(draw, square=False):
    """Matrices of up to 5 x 5, zero-size shapes included, drawn dense or
    with most entries zero."""
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 5))
    entry = draw(st.sampled_from(
        [rationals, st.one_of(st.just(Q(0)), st.just(Q(0)), rationals)]))
    return Matrix.from_rows(
        [draw(st.lists(entry, min_size=cols, max_size=cols))
         for _ in range(rows)], cols=cols)


class TestMatMul:
    def test_identity_absorbs(self):
        m = mat([[1, Q(1, 2)], [3, -2]])
        assert Matrix.identity(2) @ m == m
        assert m @ Matrix.identity(2) == m

    def test_inverse_scalars(self):
        assert mat([[Q(1, 2)]]) @ mat([[2]]) == mat([[1]])

    def test_matches_triple_sum_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            a = small_matrix(rng, 3, 3)
            b = small_matrix(rng, 3, 3)
            product = a @ b
            for i in range(3):
                for j in range(3):
                    expected = sum((a.entries[i][k] * b.entries[k][j]
                                    for k in range(3)), Q(0))
                    assert product.entries[i][j] == expected

    def test_dimension_mismatch(self):
        with pytest.raises(LinAlgError):
            mat([[1, 2]]) @ mat([[1, 2]])


def all_fractions(values) -> bool:
    return all(type(a) is Fraction for a in values)


@st.composite
def product_operands(draw):
    """``(a, b, v)`` with ``a @ b`` and ``b.apply(v)`` defined: shapes
    r x k and k x c with r, k, c in 0..5, each operand drawn dense or with
    most entries zero."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))

    def entries(count):
        entry = draw(st.sampled_from(
            [rationals, st.one_of(st.just(Q(0)), st.just(Q(0)), rationals)]))
        return draw(st.lists(entry, min_size=count, max_size=count))

    a = Matrix.from_rows([entries(k) for _ in range(r)], cols=k)
    b = Matrix.from_rows([entries(c) for _ in range(k)], cols=c)
    return a, b, tuple(entries(c))


@st.composite
def sparse_rows(draw):
    """Up to 5 sparse rows over up to 5 columns, zero-size shapes included;
    some entries are explicit zeros."""
    cols = draw(st.integers(0, 5))
    columns = st.integers(0, cols - 1) if cols else st.nothing()
    return draw(st.lists(st.dictionaries(columns, rationals), max_size=5)), cols


class TestFromSparse:
    @given(sparse_rows())
    def test_matches_dense_rows(self, drawn):
        rows, cols = drawn
        m = Matrix.from_sparse(rows, cols)
        dense = Matrix.from_rows(
            [[row.get(j, Q(0)) for j in range(cols)] for row in rows], cols=cols)
        assert m == dense
        assert m.sparse_rows == dense.sparse_rows == tuple(
            {j: x for j, x in enumerate(r) if x} for r in dense.entries)
        assert all_fractions(x for row in m.entries for x in row)


class TestSparseProducts:
    """The zero-skipping products equal the dense ``Fraction`` sums."""

    @given(product_operands())
    def test_matmul_matches_dense_oracle(self, operands):
        a, b, _ = operands
        product = a @ b
        assert product == dense_matmul(a, b)
        assert all_fractions(x for row in product.entries for x in row)

    @given(product_operands())
    def test_apply_matches_dense_oracle(self, operands):
        _, b, v = operands
        image = b.apply(v)
        assert image == dense_apply(b, v)
        assert all_fractions(image)

    @pytest.mark.parametrize("k", [0, 3])
    def test_zero_size_shapes(self, k):
        inner = Matrix.zeros(0, k) @ Matrix.zeros(k, 0)
        assert (inner.rows, inner.cols, inner.entries) == (0, 0, ())
        outer = Matrix.zeros(k, 0) @ Matrix.zeros(0, 4)
        assert outer == Matrix.zeros(k, 4)
        assert all_fractions(x for row in outer.entries for x in row)
        assert Matrix.zeros(k, 0).apply(()) == (Q(0),) * k

    def test_integer_entries_come_out_as_fractions(self):
        a = Matrix(2, 2, ((1, 0), (0, 2)))
        b = Matrix(2, 2, ((0, 3), (0, 0)))
        assert all_fractions(x for row in (a @ b).entries for x in row)
        assert all_fractions(a.apply((0, 5)))


class TestAxpy:
    """``_axpy``, the one accumulation of a scaled sparse row, and the
    kernels that accumulate through it.  Values from {-1, 1, 2, 1/2} make
    cancellation common."""

    values = st.sampled_from([Q(-1), Q(1), Q(2), Q(1, 2)])
    rows = st.dictionaries(st.integers(0, 4), values, max_size=5)

    @given(acc=rows, factor=values, other=rows)
    def test_matches_the_dense_sum_and_leaves_no_zero(self, acc, factor, other):
        expected = [acc.get(j, Q(0)) + factor * other.get(j, Q(0))
                    for j in range(5)]
        row = dict(acc)
        _axpy(row, factor, other)
        assert [row.get(j, Q(0)) for j in range(5)] == expected
        assert all(row.values()) and all_fractions(row.values())

    @given(row=rows, factor=values)
    def test_cancelling_a_multiple_empties_the_row(self, row, factor):
        acc = {j: factor * x for j, x in row.items()}
        _axpy(acc, -factor, row)
        assert acc == {}

    def test_kernels_return_zero_free_rows_on_cancelling_inputs(self):
        both = {0: Q(1), 1: Q(1)}
        assert Matrix.from_rows([[1, -1]]).sparse_apply(both) == {}
        m, minus_m = mat([[1, 2], [0, 3]]), mat([[-1, -2], [0, -3]])
        assert _combination([m, minus_m], both).sparse_rows == ({}, {})
        assert _row_product([both], [{0: Q(1)}, {0: Q(-1)}]) == [{}]
        # e_0 . e_0 = e_0 and e_0 . e_1 = -e_0
        p = BilinearProduct.from_sparse([{0: Q(1)}, {0: Q(-1)}, {}, {}], 2)
        assert p.sparse_value({0: Q(1)}, both) == {}


class TestKernel:
    def test_zero_matrix_full_kernel(self):
        basis = kernel_basis(Matrix.zeros(2, 3))
        assert len(basis) == 3

    def test_identity_trivial_kernel(self):
        assert kernel_basis(Matrix.identity(3)) == []

    def test_rank_one_plane(self):
        basis = kernel_basis(mat([[1, 1], [2, 2]]))
        assert len(basis) == 1
        v = basis[0]
        # proportional to (1, -1)
        assert v[0] == -v[1] != 0

    def test_kernel_vectors_annihilated_and_independent(self):
        rng = random.Random(11)
        for _ in range(20):
            m = small_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            basis = kernel_basis(m)
            for v in basis:
                assert not any(m.apply(v))
            if basis:
                stacked = Matrix.from_rows(list(zip(*basis)))
                assert rank(stacked) == len(basis)

    def test_free_columns_come_from_the_pivots(self):
        # x0 - x1 = 0: pivot 0, free 1, and both rows of K are {0: 1}, so
        # the free columns cannot be read back from K
        K, free = _kernel([{0: Q(1), 1: Q(-1)}], 2)
        assert free == [1]
        assert K.sparse_rows == ({0: 1}, {0: 1})

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                    min_size=1, max_size=4))
    def test_rank_nullity(self, rows):
        m = mat(rows)
        assert rank(m) + len(kernel_basis(m)) == m.cols


class TestInverseSolve:
    def test_inverse_of_diagonal(self):
        assert inverse(Matrix.diagonal([2, 3])) == Matrix.diagonal([Q(1, 2), Q(1, 3)])

    def test_rank_of_zero(self):
        assert rank(Matrix.zeros(3, 3)) == 0

    def test_inverse_two_sided(self):
        rng = random.Random(23)
        for _ in range(10):
            m = small_matrix(rng, 3, 3)
            if rank(m) < 3:
                continue
            minv = inverse(m)
            assert minv @ m == Matrix.identity(3)
            assert m @ minv == Matrix.identity(3)

    def test_singular_inverse_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(mat([[1, 1], [2, 2]]))
        with pytest.raises(LinAlgError):
            inverse(Matrix.zeros(2, 3))

    def test_solve_exact_residual(self):
        rng = random.Random(31)
        done = 0
        while done < 10:
            m = small_matrix(rng, 3, 3)
            if rank(m) < 3:
                continue
            rhs = tuple(Q(rng.randint(-4, 4)) for _ in range(3))
            x = solve(m, rhs)
            assert m.apply(x) == rhs
            done += 1

    def test_solve_inconsistent(self):
        with pytest.raises(InconsistentSystemError):
            solve(mat([[1, 1], [1, 1]]), (Q(0), Q(1)))
        assert try_solve(mat([[1, 1], [1, 1]]), (Q(0), Q(1))) is None

    def test_solve_underdetermined_returns_particular(self):
        m = mat([[1, 1]])
        x = solve(m, (Q(3),))
        assert m.apply(x) == (Q(3),)


class TestSparseCoreAgainstDenseOracle:
    """The sparse elimination reaches the unique reduced row echelon form,
    so it must agree exactly with dense Gauss-Jordan."""

    @given(matrices(), st.data())
    def test_rank_kernel_and_solve(self, m, data):
        assert rank(m) == dense_rank(m)
        assert kernel_basis(m) == dense_kernel_basis(m)
        if data.draw(st.booleans()):
            x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
            rhs = m.apply(tuple(x))
        else:
            rhs = tuple(data.draw(st.lists(rationals, min_size=m.rows,
                                           max_size=m.rows)))
        expected = dense_try_solve(m, rhs)
        assert try_solve(m, rhs) == expected
        if expected is None:
            with pytest.raises(InconsistentSystemError):
                solve(m, rhs)
        else:
            assert solve(m, rhs) == expected

    @given(matrices(square=True))
    def test_inverse(self, m):
        expected = dense_inverse(m)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                inverse(m)
        else:
            assert inverse(m) == expected


class TestExactArithmetic:
    @given(rationals, rationals, rationals)
    def test_field_identities(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    def test_power_and_kron(self):
        m = mat([[1, 1], [0, 1]])
        assert m.power(0) == Matrix.identity(2)
        assert m.power(3) == mat([[1, 3], [0, 1]])
        assert m.power(-1) == mat([[1, -1], [0, 1]])
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        k = a.kron(b)
        assert k.rows == k.cols == 4
        # (A kron B)[(i,j),(k,l)] = A[i][k] * B[j][l]
        for i in range(2):
            for j in range(2):
                for kk in range(2):
                    for ll in range(2):
                        assert k.entries[2 * i + j][2 * kk + ll] == \
                            a.entries[i][kk] * b.entries[j][ll]


class TestRationalJson:
    def test_round_trip(self):
        for q in (Q(0), Q(5), Q(-7), Q(1, 2), Q(-3, 4)):
            assert rational_from_json(rational_to_json(q)) == q

    def test_integer_encoding(self):
        assert rational_to_json(Q(4, 2)) == 2
        assert rational_to_json(Q(-3, 2)) == "-3/2"

    def test_string_parsing(self):
        assert rational_from_json("2/4") == Q(1, 2)
        assert rational_from_json("-7") == Q(-7)

    def test_rejects_garbage(self):
        for bad in ("1.5", "a/b", "1/2/3", 1.5, None, True):
            with pytest.raises(ValueError):
                rational_from_json(bad)

    def test_rejects_zero_denominator(self):
        for bad in ("1/0", "-3/00", "0/0"):
            with pytest.raises(ValueError):
                rational_from_json(bad)
            with pytest.raises(ValueError):
                as_rational(bad)
        assert rational_from_json("1/02") == Q(1, 2)

    def test_as_rational_rejects_floats(self):
        with pytest.raises(ValueError):
            as_rational(0.5)


class TestIntegerRows:
    """``_rref`` takes rows holding ``int`` entries, as the cochain complex
    builds them, and reduces them exactly: to the RREF of the same rows as
    ``Fraction``s, with no float anywhere."""

    rows = st.lists(st.dictionaries(st.integers(0, 5),
                                    st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                    max_size=5), min_size=1, max_size=6)

    @given(rows=rows, width=st.integers(0, 6))
    def test_matches_the_fraction_rref_without_floats(self, rows, width):
        assume(any(row[min(row)] not in (1, -1) for row in rows if row))
        expected = _rref([{j: Q(a) for j, a in row.items()} for row in rows],
                         width)
        reduced, pivots = _rref([dict(row) for row in rows], width)
        assert (reduced, pivots) == expected
        assert all(type(a) in (int, Fraction)
                   for row in reduced for a in row.values())
        assert all(row[p] == 1 for row, p in zip(reduced, pivots))
