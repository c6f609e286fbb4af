"""The axiom checkers against their reference versions in ``oracles.py``.

Each checker shares one implementation per identity with the others (the
associator, the Jacobi sum, skew-symmetry, multiplicativity, twist
commutation, the rep-1 intertwinings).  Its report must equal the one the
reference computes with its own loops: the same axiom names, indices, order
and residuals.  Inputs are random tensors of dimension <= 3 with diagonal or
monomial twists, which mostly fail, next to valid fixtures, some of them
corrupted in one entry.
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
    adjoint_rep,
    check_bihom_lie,
    check_lie_linear_deformation,
    check_lie_rep,
    check_linear_deformation,
    check_prelie,
    check_prelie_rep,
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
    prelie_fixtures,
    prelie_rep_fixtures,
)
from oracles import (
    oracle_check_bihom_lie,
    oracle_check_lie_linear_deformation,
    oracle_check_lie_rep,
    oracle_check_linear_deformation,
    oracle_check_prelie,
    oracle_check_prelie_rep,
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
