"""The sparse table of :class:`~bihom.BilinearProduct` against the dense nest
it replaced (the ``dense_*`` references in ``oracles.py``).

A product built with :meth:`~bihom.BilinearProduct.from_sparse` and one
built from the same dense nest must agree on every operation, and on
``==``, ``hash``, ``repr`` and ``to_json``.  Each construction that builds
a structure tensor must write the document its dense reference writes, on
the catalog fixtures and on random inputs of dimension <= 3.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bihom import (
    BiHomPreLieAlgebra,
    BilinearProduct,
    Matrix,
    TwistPair,
    adjoint_rep,
    compatible_prelie_from_invertible_o,
    deformed_product,
    induced_lie_rep,
    induced_prelie_from_o,
    inverse,
    nijenhuis_trivial_deformation,
    rb_induced_prelie,
    semidirect_lie,
    semidirect_prelie,
    subadjacent,
    twist_rep,
)
from bihom.linalg import _sparse_vector
from bihom.representation import _semidirect_lie_raw, _semidirect_prelie_raw

from catalog import (
    dim2_nilpotent,
    dim3_graded,
    lie_rep_fixtures,
    nijenhuis_search,
    prelie_fixtures,
    prelie_rep_fixtures,
    rota_baxter_search,
    small_prelie_fixtures,
)
from oracles import (
    dense_compatible_product,
    dense_deformed_product,
    dense_left_matrices,
    dense_o_induced_product,
    dense_rb_induced_product,
    dense_right_matrices,
    dense_semidirect_lie_right,
    dense_semidirect_tensor,
    dense_subadjacent_tensor,
    dense_tensor_add,
    dense_tensor_is_zero,
    dense_tensor_scale,
    dense_tensor_sub,
    dense_twisted_product,
    dense_value,
)
from test_checker_oracles import (
    lie_reps,
    prelie_algebras,
    prelie_reps,
    twisting_data,
    twists,
    units,
)

Q = Fraction

values = st.sampled_from([Q(0)] * 4 + [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])
dims = st.integers(0, 3)


def _raw(x: Fraction):
    return int(x) if x.denominator == 1 else x


@st.composite
def nests(draw, n: int):
    flat = draw(st.lists(values, min_size=n ** 3, max_size=n ** 3))
    return [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
            for i in range(n)]


def both(nest) -> tuple[BilinearProduct, BilinearProduct]:
    """The product of ``nest`` built from the dense nest, and built from
    sparse rows that hold integers for its integral entries and some
    explicit zeros."""
    n = len(nest)
    rows = [{k: _raw(x) for k, x in enumerate(nest[i][j]) if x or k % 2}
            for i in range(n) for j in range(n)]
    return BilinearProduct.from_entries(nest), BilinearProduct.from_sparse(rows, n)


@st.composite
def pairs(draw, n=None):
    return both(draw(nests(draw(dims) if n is None else n)))


def all_fractions(p: BilinearProduct) -> bool:
    return (all(type(x) is Fraction for plane in p.c for v in plane for x in v)
            and all(type(x) is Fraction
                    for row in p.table.sparse_rows for x in row.values()))


def same(p: BilinearProduct, ref: BilinearProduct) -> None:
    """``p`` is ``ref`` in every observable way."""
    assert p == ref and not p != ref
    assert hash(p) == hash(ref)
    assert repr(p) == repr(ref)
    assert p.c == ref.c
    assert p.to_json() == ref.to_json()
    assert all_fractions(p)


def same_json(p: BilinearProduct, ref: BilinearProduct) -> None:
    assert p.to_json() == ref.to_json()
    assert all_fractions(p)


class TestSparseAgainstDense:
    @given(pairs())
    def test_queries(self, pair):
        dense, sparse = pair
        same(sparse, dense)
        assert sparse.table == dense.table
        assert sparse.is_zero == dense.is_zero == dense_tensor_is_zero(dense)
        n = dense.dim
        for i, j in itertools.product(range(n), repeat=2):
            assert sparse.basis_value(i, j) == dense.basis_value(i, j) \
                == tuple(dense.c[i][j])
        for p in pair:
            assert p.left_matrices() == dense_left_matrices(dense)
            assert p.right_matrices() == dense_right_matrices(dense)

    @given(st.data())
    def test_sums_and_scale(self, data):
        n = data.draw(dims)
        left, right = data.draw(pairs(n)), data.draw(pairs(n))
        c = data.draw(values)
        for a, b in itertools.product(left, right):
            same(a + b, dense_tensor_add(left[0], right[0]))
            same(a - b, dense_tensor_sub(left[0], right[0]))
        for a in left:
            same(a.scale(c), dense_tensor_scale(left[0], c))
            same(-a, dense_tensor_scale(left[0], -1))
            assert a.scale(c).is_zero == dense_tensor_is_zero(
                dense_tensor_scale(left[0], c))

    @given(st.data())
    def test_values(self, data):
        n = data.draw(dims)
        pair = data.draw(pairs(n))
        u, v = (data.draw(st.lists(values, min_size=n, max_size=n))
                for _ in range(2))
        expected = dense_value(pair[0], u, v)
        for p in pair:
            image = p.value(u, v)
            assert image == expected
            assert all(type(x) is Fraction for x in image)
            assert p.sparse_value(_sparse_vector(u), _sparse_vector(v)) \
                == _sparse_vector(expected)

    def test_from_sparse_checks_the_row_count(self):
        with pytest.raises(ValueError, match="not 2x2x2"):
            BilinearProduct.from_sparse([{}] * 3, 2)

    def test_zero_holds_no_nest_until_read(self):
        z = BilinearProduct.zero(2)
        assert "c" not in vars(z) and z.is_zero
        assert z == BilinearProduct.from_entries([[[0, 0]] * 2] * 2)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def conjugated(a: BiHomPreLieAlgebra, g: Matrix) -> BiHomPreLieAlgebra:
    """``a`` transported along the isomorphism ``g``."""
    ginv, n = inverse(g), a.dim
    cols = [ginv.col(i) for i in range(n)]
    product = BilinearProduct.from_entries(
        [[g.apply(a.product.value(cols[i], cols[j])) for j in range(n)]
         for i in range(n)])
    return BiHomPreLieAlgebra(product, TwistPair(g @ a.alpha @ ginv,
                                                 g @ a.beta @ ginv))


@st.composite
def changes_of_basis(draw, n: int) -> Matrix:
    """A unit lower-triangular matrix times a monomial one."""
    lower = Matrix.from_rows([[Q(1) if i == j else draw(values) if j < i
                               else Q(0) for j in range(n)] for i in range(n)])
    return lower @ draw(twists(n))


def left_rep(a: BiHomPreLieAlgebra):
    return induced_lie_rep(adjoint_rep(a), "l-only")


def check_o_products(a: BiHomPreLieAlgebra, c: Fraction) -> None:
    """The products that ``c Id``, an O-operator of the left representation
    of the sub-adjacent algebra, induces."""
    r, T = left_rep(a), Matrix.identity(a.dim).scale(c)
    same_json(induced_prelie_from_o(T, r).product, dense_o_induced_product(T, r))
    same_json(compatible_prelie_from_invertible_o(T, r).product,
              dense_compatible_product(T, r))


def twist_polynomial(a: BiHomPreLieAlgebra, x, y, z) -> Matrix:
    """``x Id + y alpha + z beta``, which commutes with both twists."""
    return (Matrix.identity(a.dim).scale(x) + a.alpha.scale(y)
            + a.beta.scale(z))


class TestConstructionsOnFixtures:
    def test_subadjacent(self):
        for _, a in prelie_fixtures():
            same_json(subadjacent(a).bracket,
                      dense_subadjacent_tensor(a.product, a.alpha, a.beta))

    def test_semidirect_products(self):
        for _, r in prelie_rep_fixtures():
            same_json(semidirect_prelie(r).product, dense_semidirect_tensor(
                r.algebra.product, r.vdim, r.L, r.R))
        for _, r in lie_rep_fixtures():
            same_json(semidirect_lie(r).bracket, dense_semidirect_tensor(
                r.algebra.bracket, r.vdim, r.rho, dense_semidirect_lie_right(r)))

    def test_twist_rep(self):
        # graded twists are multiplicative for these graded products
        for a in (dim2_nilpotent(), dim3_graded(1), dim3_graded(2)):
            alpha, beta = (Matrix.diagonal([Q(s) ** (k + 1) for k in range(a.dim)])
                           for s in (2, -3))
            out = twist_rep(adjoint_rep(a), alpha, beta, alpha, beta)
            same_json(out.algebra.product,
                      dense_twisted_product(a.product, alpha, beta))

    def test_deformed_products(self):
        for _, a in prelie_fixtures():
            for x, y, z in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, -1)):
                N = twist_polynomial(a, x, y, z)
                same_json(deformed_product(a, N),
                          dense_deformed_product(a.product, N))
        for _, a in small_prelie_fixtures():
            for N in nijenhuis_search(a):
                pi, _ = nijenhuis_trivial_deformation(a, N)
                same_json(pi, dense_deformed_product(a.product, N))

    def test_o_operator_products(self):
        for _, a in prelie_fixtures():
            for c in (Q(1), Q(-2), Q(1, 3)):
                check_o_products(a, c)

    def test_rota_baxter_products(self):
        for _, a in small_prelie_fixtures():
            g = subadjacent(a)
            for R in rota_baxter_search(g):
                same_json(rb_induced_prelie(R, g).product,
                          dense_rb_induced_product(R, g))


class TestConstructionsOnRandomInputs:
    @given(a=prelie_algebras())
    def test_subadjacent(self, a):
        same_json(subadjacent(a).bracket,
                  dense_subadjacent_tensor(a.product, a.alpha, a.beta))

    @given(r=prelie_reps())
    def test_semidirect_prelie(self, r):
        same_json(_semidirect_prelie_raw(r).product, dense_semidirect_tensor(
            r.algebra.product, r.vdim, r.L, r.R))

    @given(r=lie_reps())
    def test_semidirect_lie(self, r):
        same_json(_semidirect_lie_raw(r).bracket, dense_semidirect_tensor(
            r.algebra.bracket, r.vdim, r.rho, dense_semidirect_lie_right(r)))

    @given(args=twisting_data())
    def test_twist_rep(self, args):
        classical, alpha, beta, phi, psi = args
        try:
            out = twist_rep(*args)
        except ValueError:
            assume(False)
        same_json(out.algebra.product,
                  dense_twisted_product(classical.algebra.product, alpha, beta))

    @given(data=st.data())
    def test_deformed_product(self, data):
        # any N commutes with identity twists; diagonal twists commute with
        # a twist polynomial
        n = data.draw(st.integers(1, 3))
        product = BilinearProduct.from_entries(data.draw(nests(n)))
        if data.draw(st.booleans()):
            a = BiHomPreLieAlgebra.classical(product)
            N = Matrix.from_rows(
                [data.draw(st.lists(values, min_size=n, max_size=n))
                 for _ in range(n)])
        else:
            diagonals = [Matrix.diagonal(data.draw(
                st.lists(units, min_size=n, max_size=n))) for _ in range(2)]
            a = BiHomPreLieAlgebra(product, TwistPair(*diagonals))
            N = twist_polynomial(a, *(data.draw(values) for _ in range(3)))
        same_json(deformed_product(a, N), dense_deformed_product(product, N))

    @given(data=st.data())
    def test_o_operator_products(self, data):
        a = data.draw(st.sampled_from([a for _, a in prelie_fixtures()]))
        check_o_products(conjugated(a, data.draw(changes_of_basis(a.dim))),
                         data.draw(units))

    @given(data=st.data())
    def test_rota_baxter_products(self, data):
        a, R = data.draw(st.sampled_from(
            [(a, R) for _, a in small_prelie_fixtures()
             for R in rota_baxter_search(subadjacent(a))]))
        h = data.draw(changes_of_basis(a.dim))
        g = subadjacent(conjugated(a, h))
        R = h @ R @ inverse(h)
        same_json(rb_induced_prelie(R, g).product, dense_rb_induced_product(R, g))
