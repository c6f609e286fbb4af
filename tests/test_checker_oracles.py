"""The axiom checkers against their reference versions in ``oracles.py``.

Each checker shares one implementation per identity with the others (the
associator, the Jacobi sum, skew-symmetry, multiplicativity, twist
commutation, the rep-1 intertwinings, the morphism identity that the
O-operator, Rota-Baxter and Nijenhuis identities are read as).  Its report
must equal the one the reference computes with its own loops: the same
axiom names, indices, order and residuals.  Inputs are random tensors of
dimension <= 3 with diagonal or monomial twists, which mostly fail, next to
valid fixtures, some of them corrupted in one entry.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihom import (
    AxiomError,
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    BilinearProduct,
    LieRep,
    Matrix,
    PreLieRep,
    TwistPair,
    adjoint_lie_rep,
    adjoint_rep,
    check_bihom_lie,
    check_lie_linear_deformation,
    check_lie_rep,
    check_linear_deformation,
    check_nijenhuis_lie,
    check_nijenhuis_prelie,
    check_o_operator,
    check_prelie,
    check_prelie_rep,
    check_rota_baxter,
    deformed_product,
    push_deformation_to_lie,
    subadjacent,
    trivial_rep,
    twist_rep,
)

from catalog import (
    corrupted_lie_reps,
    corrupted_prelie_reps,
    dim1_idempotent,
    dim2_abelian,
    dim2_assoc,
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
    oracle_check_bihom_lie,
    oracle_check_lie_linear_deformation,
    oracle_check_lie_rep,
    oracle_check_linear_deformation,
    oracle_check_nijenhuis_lie,
    oracle_check_nijenhuis_prelie,
    oracle_check_o_operator,
    oracle_check_prelie,
    oracle_check_prelie_rep,
    oracle_check_rota_baxter,
    oracle_twist_rep_hypotheses,
)

Q = Fraction

entries = st.sampled_from([Q(0)] * 6 + [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2)])
units = st.sampled_from([Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(3)])


@lru_cache(maxsize=None)
def _valid_algebras() -> tuple[BiHomPreLieAlgebra, ...]:
    return tuple(a for _, a in prelie_fixtures())


@lru_cache(maxsize=None)
def _valid_prelie_reps() -> tuple[PreLieRep, ...]:
    return tuple(r for _, r in prelie_rep_fixtures() + corrupted_prelie_reps())


@lru_cache(maxsize=None)
def _valid_lie_reps() -> tuple[LieRep, ...]:
    return tuple(r for _, r in lie_rep_fixtures() + corrupted_lie_reps())


@st.composite
def twists(draw, n: int) -> Matrix:
    """A diagonal or monomial (permuted diagonal) invertible matrix."""
    scale = draw(st.lists(units, min_size=n, max_size=n))
    perm = draw(st.permutations(range(n))) if draw(st.booleans()) else range(n)
    rows = [[Q(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = scale[i]
    return Matrix.from_rows(rows)


def tensors(n: int):
    return st.lists(entries, min_size=n ** 3, max_size=n ** 3).map(
        lambda flat: BilinearProduct.from_entries(
            [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
             for i in range(n)]))


def matrices(n: int, m: int):
    return st.lists(entries, min_size=n * m, max_size=n * m).map(
        lambda flat: Matrix.from_rows([flat[i * m:(i + 1) * m] for i in range(n)]))


@st.composite
def bumped(draw, c: BilinearProduct) -> BilinearProduct:
    """The tensor c, or c with one structure constant changed."""
    if c.dim == 0 or draw(st.booleans()):
        return c
    i, j, k = (draw(st.integers(0, c.dim - 1)) for _ in range(3))
    rows = [[list(v) for v in plane] for plane in c.c]
    rows[i][j][k] += draw(units)
    return BilinearProduct.from_entries(rows)


@st.composite
def prelie_algebras(draw) -> BiHomPreLieAlgebra:
    if draw(st.booleans()):
        a = draw(st.sampled_from(_valid_algebras()))
        return BiHomPreLieAlgebra(draw(bumped(a.product)), a.twists)
    n = draw(st.integers(1, 3))
    return BiHomPreLieAlgebra(draw(tensors(n)),
                              TwistPair(draw(twists(n)), draw(twists(n))))


@st.composite
def lie_algebras(draw) -> BiHomLieAlgebra:
    if draw(st.booleans()):
        g = subadjacent(draw(st.sampled_from(_valid_algebras())))
        return BiHomLieAlgebra(draw(bumped(g.bracket)), g.twists)
    n = draw(st.integers(1, 3))
    return BiHomLieAlgebra(draw(tensors(n)),
                           TwistPair(draw(twists(n)), draw(twists(n))))


@st.composite
def deformations(draw, c: BilinearProduct):
    """Candidates for pi: zero, a multiple of c or a random tensor, each
    possibly bumped in one entry."""
    n = c.dim
    pi = draw(st.sampled_from(["zero", "multiple", "random"]))
    if pi == "zero":
        out = BilinearProduct.zero(n)
    elif pi == "multiple":
        out = c.scale(draw(units))
    else:
        out = draw(tensors(n))
    return draw(bumped(out))


def assert_same(report, reference) -> None:
    assert report.to_json() == reference.to_json()


class TestAlgebraCheckers:
    @given(a=prelie_algebras())
    def test_check_prelie(self, a):
        assert_same(check_prelie(a), oracle_check_prelie(a))

    @given(g=lie_algebras())
    def test_check_bihom_lie(self, g):
        assert_same(check_bihom_lie(g), oracle_check_bihom_lie(g))


class TestDeformationCheckers:
    @given(data=st.data())
    def test_check_linear_deformation(self, data):
        a = data.draw(prelie_algebras())
        pi = data.draw(deformations(a.product))
        assert_same(check_linear_deformation(a, pi),
                    oracle_check_linear_deformation(a, pi))

    @given(data=st.data())
    def test_check_linear_deformation_of_nijenhuis_images(self, data):
        # deformed products of twist-commuting operators pass on valid algebras
        a = data.draw(st.sampled_from(_valid_algebras()))
        pi = deformed_product(a, Matrix.identity(a.dim).scale(data.draw(units)))
        pi = data.draw(bumped(pi))
        assert_same(check_linear_deformation(a, pi),
                    oracle_check_linear_deformation(a, pi))

    @given(data=st.data())
    def test_check_lie_linear_deformation(self, data):
        g = data.draw(lie_algebras())
        pi = data.draw(deformations(g.bracket))
        assert_same(check_lie_linear_deformation(g, pi),
                    oracle_check_lie_linear_deformation(g, pi))

    @given(data=st.data())
    def test_check_lie_linear_deformation_of_pushed(self, data):
        a = data.draw(st.sampled_from(_valid_algebras()))
        pushed = push_deformation_to_lie(a, a.product.scale(data.draw(units)))
        g, pi = subadjacent(a), data.draw(bumped(pushed))
        assert_same(check_lie_linear_deformation(g, pi),
                    oracle_check_lie_linear_deformation(g, pi))


@st.composite
def prelie_reps(draw) -> PreLieRep:
    if draw(st.booleans()):
        return draw(st.sampled_from(_valid_prelie_reps()))
    a = draw(prelie_algebras())
    n, m = a.dim, draw(st.integers(1, 2))
    L = tuple(draw(matrices(m, m)) for _ in range(n))
    R = tuple(draw(matrices(m, m)) for _ in range(n))
    return PreLieRep(a, m, L, R, draw(twists(m)), draw(twists(m)))


@st.composite
def lie_reps(draw) -> LieRep:
    if draw(st.booleans()):
        return draw(st.sampled_from(_valid_lie_reps()))
    g = draw(lie_algebras())
    n, m = g.dim, draw(st.integers(1, 2))
    rho = tuple(draw(matrices(m, m)) for _ in range(n))
    return LieRep(g, m, rho, draw(twists(m)), draw(twists(m)))


def _graded(n: int, s: Fraction) -> Matrix:
    return Matrix.diagonal([s ** (k + 1) for k in range(n)])


@st.composite
def twisting_data(draw):
    """An untwisted representation and (alpha, beta, phi, psi): graded
    twists, under which the hypotheses hold for the graded fixtures, or
    random diagonal and monomial ones."""
    a = draw(st.sampled_from([dim1_idempotent(), dim2_abelian(), dim2_nilpotent(),
                              dim2_assoc(), dim3_graded(1), dim3_graded(2)]))
    rep = draw(st.sampled_from([adjoint_rep(a), trivial_rep(a)]))
    n, m = a.dim, rep.vdim
    if draw(st.booleans()):
        s, t = draw(units), draw(units)
        alpha, beta = _graded(n, s), _graded(n, t)
        if m == n and draw(st.booleans()):
            return rep, alpha, beta, alpha, beta
        return rep, alpha, beta, Matrix.identity(m), Matrix.identity(m)
    return (rep, draw(twists(n)), draw(twists(n)), draw(twists(m)),
            draw(twists(m)))


class TestRepresentationCheckers:
    @given(r=prelie_reps())
    def test_check_prelie_rep(self, r):
        assert_same(check_prelie_rep(r), oracle_check_prelie_rep(r))

    @given(r=lie_reps())
    def test_check_lie_rep(self, r):
        assert_same(check_lie_rep(r), oracle_check_lie_rep(r))

    @settings(max_examples=100)
    @given(args=twisting_data())
    def test_twist_rep_hypotheses(self, args):
        reference = oracle_twist_rep_hypotheses(*args)
        if reference.passed:
            assert check_prelie_rep(twist_rep(*args)).passed
        else:
            with pytest.raises(AxiomError) as info:
                twist_rep(*args)
            assert_same(info.value.report, reference)


@lru_cache(maxsize=None)
def _rota_baxter_found() -> dict:
    """The Rota-Baxter operators found on each small catalog BiHom-Lie
    algebra, under that algebra and under its adjoint representation."""
    found = {}
    for _, a in small_prelie_fixtures():
        g = subadjacent(a)
        found[g] = found[adjoint_lie_rep(g)] = rota_baxter_search(g)
    return found


@lru_cache(maxsize=None)
def _nijenhuis_found() -> dict:
    """The Nijenhuis operators found on each small catalog algebra, under it
    and under its sub-adjacent algebra."""
    found = {}
    for _, a in small_prelie_fixtures():
        found[a] = found[subadjacent(a)] = nijenhuis_search(a)
    return found


@st.composite
def operators(draw, rows: int, cols: int, found: tuple = ()) -> Matrix:
    """Zero, a multiple of the identity when square, one of the operators
    ``found`` by a search, each possibly changed in one entry, or a random
    matrix."""
    kinds = ["zero", "random"] + ["identity"] * (rows == cols) + ["found"] * bool(found)
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        return draw(matrices(rows, cols))
    m = (Matrix.zeros(rows, cols) if kind == "zero"
         else Matrix.identity(rows).scale(draw(units)) if kind == "identity"
         else draw(st.sampled_from(found)))
    if rows == 0 or cols == 0 or draw(st.booleans()):
        return m
    entries = [list(row) for row in m.entries]
    entries[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] += draw(units)
    return Matrix.from_rows(entries)


def _catalog_operators(rows: int, cols: int, found: tuple) -> list[Matrix]:
    """Zero, the identity and the shift ``e_(i+1) -> e_i`` when square, and
    the operators ``found`` by a search."""
    square = [Matrix.identity(rows), Matrix.from_rows(
        [[Q(j == i + 1) for j in range(rows)] for i in range(rows)])]
    return [Matrix.zeros(rows, cols), *square * (rows == cols), *found]


class TestOperatorCheckers:
    @given(data=st.data())
    def test_check_o_operator(self, data):
        r = data.draw(lie_reps())
        T = data.draw(operators(r.algebra.dim, r.vdim,
                                _rota_baxter_found().get(r, ())))
        assert_same(check_o_operator(T, r), oracle_check_o_operator(T, r))

    @given(data=st.data())
    def test_check_rota_baxter(self, data):
        g = data.draw(lie_algebras())
        R = data.draw(operators(g.dim, g.dim, _rota_baxter_found().get(g, ())))
        assert_same(check_rota_baxter(R, g), oracle_check_rota_baxter(R, g))

    @given(data=st.data())
    def test_check_nijenhuis_prelie(self, data):
        a = data.draw(prelie_algebras())
        N = data.draw(operators(a.dim, a.dim, _nijenhuis_found().get(a, ())))
        assert_same(check_nijenhuis_prelie(a, N),
                    oracle_check_nijenhuis_prelie(a, N))

    @given(data=st.data())
    def test_check_nijenhuis_lie(self, data):
        g = data.draw(lie_algebras())
        N = data.draw(operators(g.dim, g.dim, _nijenhuis_found().get(g, ())))
        assert_same(check_nijenhuis_lie(g, N), oracle_check_nijenhuis_lie(g, N))

    def test_catalog_operators_pass_and_fail(self):
        """The catalog operators on the catalog and its corrupted
        representations: each checker agrees with its reference, and meets
        both outcomes."""
        outcomes = {"o": set(), "rb": set(), "nij-prelie": set(),
                    "nij-lie": set()}

        def same(key, report, reference):
            assert_same(report, reference)
            outcomes[key].add(report.passed)

        for r in _valid_lie_reps():
            for T in _catalog_operators(r.algebra.dim, r.vdim,
                                        _rota_baxter_found().get(r, ())):
                same("o", check_o_operator(T, r), oracle_check_o_operator(T, r))
        for a in _valid_algebras():
            g = subadjacent(a)
            for R in _catalog_operators(g.dim, g.dim,
                                        _rota_baxter_found().get(g, ())):
                same("rb", check_rota_baxter(R, g), oracle_check_rota_baxter(R, g))
            for N in _catalog_operators(a.dim, a.dim,
                                        _nijenhuis_found().get(a, ())):
                same("nij-prelie", check_nijenhuis_prelie(a, N),
                     oracle_check_nijenhuis_prelie(a, N))
                same("nij-lie", check_nijenhuis_lie(g, N),
                     oracle_check_nijenhuis_lie(g, N))
        assert all(seen == {True, False} for seen in outcomes.values()), outcomes
