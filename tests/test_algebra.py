import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bihom import (
    AxiomError,
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    BilinearProduct,
    Matrix,
    SingularMatrixError,
    TwistPair,
    adjoint_rep,
    check_bihom_lie,
    check_prelie,
    is_lie_morphism,
    is_prelie_morphism,
    semidirect_prelie,
    subadjacent,
)
from bihom.deformation import deformed_product
from bihom.documents import algebra_from_doc, algebra_to_doc

from catalog import (
    diag,
    dim1_idempotent,
    dim2_abelian,
    dim2_assoc,
    dim2_nilpotent,
    dim3_graded,
    dim3_heisenberg,
    nijenhuis_search,
    prelie_fixtures,
    random_product,
    tensor,
)
from oracles import dense_value

Q = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def product_and_vectors(draw):
    """A structure tensor of dimension 0..4 and two coordinate vectors,
    each drawn dense or with most entries zero."""
    n = draw(st.integers(0, 4))

    def entries(count):
        entry = draw(st.sampled_from(
            [rationals, st.one_of(st.just(Q(0)), st.just(Q(0)), rationals)]))
        return draw(st.lists(entry, min_size=count, max_size=count))

    flat = entries(n ** 3)
    product = BilinearProduct.from_entries(
        [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
         for i in range(n)])
    return product, tuple(entries(n)), tuple(entries(n))


class TestConstruction:
    def test_tensor_shape_enforced(self):
        with pytest.raises(ValueError):
            BilinearProduct(2, ((( Q(0),),),))

    def test_singular_twist_rejected(self):
        with pytest.raises(SingularMatrixError):
            TwistPair(Matrix.zeros(2, 2), Matrix.identity(2))

    def test_singular_beta_named(self):
        with pytest.raises(SingularMatrixError,
                           match="^twist map beta must be invertible$"):
            TwistPair(Matrix.identity(2), diag(1, 0))

    def test_twist_pair_eliminates_each_twist_once(self, monkeypatch,
                                                   eliminations):
        """The inverses that prove the twists invertible are the ones the
        sub-adjacent formula reads: two eliminations in all, no rank.  An
        identity twist is its own inverse and costs none, however the
        algebra is built."""
        import bihom.algebra
        import bihom.linalg

        inverses = []
        inverse = bihom.linalg.inverse

        def counted_inverse(m):
            inverses.append(m)
            return inverse(m)

        def no_rank(m):
            raise AssertionError("rank called")

        monkeypatch.setattr(bihom.algebra, "inverse", counted_inverse)
        monkeypatch.setattr(bihom.linalg, "rank", no_rank)
        alpha, beta = diag(2, 4, 8), Matrix.from_rows([[1, 0, 0], [1, 1, 0],
                                                       [0, 2, 1]])
        twists = TwistPair(alpha, beta)
        a = BiHomPreLieAlgebra(tensor(3, {(0, 0, 1): 1}), twists)
        subadjacent(a)
        assert inverses == [alpha, beta] and len(eliminations) == 2
        assert twists.alpha_inv @ alpha == Matrix.identity(3)
        assert twists.beta_inv @ beta == Matrix.identity(3)
        assert "alpha_inv" not in repr(twists)
        assert twists == TwistPair(alpha, beta)
        assert hash(twists) == hash(TwistPair(alpha, beta))

        inverses.clear()
        eliminations.clear()
        classical = BiHomPreLieAlgebra.classical(a.product)
        loaded = algebra_from_doc(algebra_to_doc(classical))
        for t in (TwistPair.identity(3), classical.twists, loaded.twists):
            assert t.alpha_inv == t.beta_inv == Matrix.identity(3)
        assert inverses == eliminations == []

    def test_products_of_another_kind_or_dimension(self):
        assert (BilinearProduct.zero(2) == 1) is False
        with pytest.raises(ValueError, match="^products live on spaces of "
                           "different dimension$"):
            BilinearProduct.zero(2) + BilinearProduct.zero(3)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BiHomPreLieAlgebra(BilinearProduct.zero(2), TwistPair.identity(3))

    def test_dim_zero_vacuous(self):
        empty = BiHomPreLieAlgebra(BilinearProduct.zero(0), TwistPair.identity(0))
        assert check_prelie(empty).passed
        assert check_bihom_lie(subadjacent(empty)).passed


class TestCheckPrelie:
    def test_dim1_idempotent_passes(self):
        assert check_prelie(dim1_idempotent()).passed

    def test_nilpotent_twisted_passes(self):
        assert check_prelie(dim2_nilpotent(2, 3)).passed

    def test_multiplicativity_failure_detected(self):
        # e1.e2 = e1, e2.e1 = -e1 with alpha = diag(1, 2) is not
        # alpha-multiplicative
        alg = BiHomPreLieAlgebra(
            tensor(2, {(0, 1, 0): 1, (1, 0, 0): -1}),
            TwistPair(diag(1, 2), Matrix.identity(2)))
        report = check_prelie(alg)
        assert not report.passed
        assert "alpha-multiplicative" in report.axioms()

    def test_commutation_failure_detected(self):
        a = Matrix.from_rows([[1, 1], [0, 1]])
        b = Matrix.from_rows([[1, 0], [1, 1]])
        report = check_prelie(BiHomPreLieAlgebra(BilinearProduct.zero(2),
                                                 TwistPair(a, b)))
        assert not report.passed
        assert "alpha-beta-commutation" in report.axioms()

    def test_all_fixtures_pass(self):
        for name, alg in prelie_fixtures():
            assert check_prelie(alg).passed, name

    def test_classical_reduction_matches_associator_oracle(self):
        # with identity twists the check is classical left-symmetry:
        # (x.y).z - x.(y.z) symmetric in x, y
        import random
        rng = random.Random(101)
        for _ in range(40):
            dim = rng.randint(1, 3)
            p = random_product(rng, dim, span=1)
            alg = BiHomPreLieAlgebra.classical(p)

            def assoc(x, y, z):
                def val(u, v):
                    return p.value(u, v)
                from oracles import basis_vector, vec_sub
                ex, ey, ez = (basis_vector(dim, x), basis_vector(dim, y),
                              basis_vector(dim, z))
                return vec_sub(val(val(ex, ey), ez), val(ex, val(ey, ez)))

            oracle_ok = all(
                assoc(x, y, z) == assoc(y, x, z)
                for x in range(dim) for y in range(dim) for z in range(dim))
            report = check_prelie(alg)
            ls_ok = "left-symmetry" not in report.axioms()
            assert oracle_ok == ls_ok


class TestCheckBiHomLie:
    def test_abelian_passes(self):
        g = BiHomLieAlgebra(BilinearProduct.zero(2),
                            TwistPair(diag(2, 3), diag(5, 7)))
        assert check_bihom_lie(g).passed

    def test_subadjacent_of_fixtures_passes(self):
        for name, alg in prelie_fixtures():
            assert check_bihom_lie(subadjacent(alg)).passed, name

    def test_symmetric_product_fails_skew(self):
        g = BiHomLieAlgebra(tensor(2, {(0, 1, 0): 1, (1, 0, 0): 1}),
                            TwistPair.identity(2))
        report = check_bihom_lie(g)
        assert not report.passed
        assert "skew-symmetry" in report.axioms()

    def test_jacobi_failure_detected(self):
        # bracket [e1,e2] = e1, [e1,e3] = e2, [e2,e3] = -e3 breaks Jacobi
        entries = {(0, 1, 0): 1, (1, 0, 0): -1,
                   (0, 2, 1): 1, (2, 0, 1): -1,
                   (1, 2, 2): -1, (2, 1, 2): 1}
        g = BiHomLieAlgebra(tensor(3, entries), TwistPair.identity(3))
        report = check_bihom_lie(g)
        assert not report.passed
        assert "jacobi" in report.axioms()


class TestSubadjacent:
    def test_dim1_commutative_gives_zero(self):
        assert subadjacent(dim1_idempotent()).bracket.is_zero

    def test_twisted_nilpotent_gives_zero(self):
        assert subadjacent(dim2_nilpotent(2, 3)).bracket.is_zero

    def test_identity_twists_give_commutator(self):
        alg = dim2_assoc()
        bracket = subadjacent(alg).bracket
        p = alg.product
        for i in range(2):
            for j in range(2):
                expected = tuple(a - b for a, b in
                                 zip(p.basis_value(i, j), p.basis_value(j, i)))
                assert bracket.basis_value(i, j) == expected

    def test_graded_twisted_bracket_value(self):
        # [e1,e2]_C = e1.e2 - (a^-1 b)(e2).(a b^-1)(e1) computed by hand
        g = dim3_graded(2, 2, 3)
        bracket = subadjacent(g).bracket
        assert bracket.basis_value(0, 1) == (Q(0), Q(0), Q(-2))
        assert bracket.basis_value(0, 0) == (Q(0), Q(0), Q(0))


class TestMorphisms:
    def test_identity_map_is_morphism(self):
        alg = dim2_nilpotent(2, 3)
        assert is_prelie_morphism(Matrix.identity(2), alg, alg).passed

    def test_zero_map_is_morphism(self):
        alg = dim2_assoc()
        assert is_prelie_morphism(Matrix.zeros(2, 2), alg, alg).passed

    def test_nijenhuis_map_is_morphism_from_deformed(self):
        alg = dim2_assoc()
        for mat in nijenhuis_search(alg)[:10]:
            deformed = BiHomPreLieAlgebra(deformed_product(alg, mat), alg.twists)
            assert is_prelie_morphism(mat, deformed, alg).passed

    def test_non_morphism_detected(self):
        alg = dim2_assoc()
        # f(e2) = e1 + e2 breaks f(e2.e1) = f(e2).f(e1)
        f = Matrix.from_rows([[1, 1], [0, 1]])
        report = is_prelie_morphism(f, alg, alg)
        assert not report.passed
        assert "product-compatibility" in report.axioms()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            is_prelie_morphism(Matrix.zeros(3, 3), dim2_assoc(), dim2_assoc())

    def test_subadjacent_naturality(self):
        # a pre-Lie morphism descends to the sub-adjacent Lie algebras
        alg = dim2_assoc()
        maps = [Matrix.identity(2), Matrix.zeros(2, 2)]
        for mat in nijenhuis_search(alg)[:10]:
            deformed = BiHomPreLieAlgebra(deformed_product(alg, mat), alg.twists)
            if is_prelie_morphism(mat, deformed, alg).passed:
                assert is_lie_morphism(mat, subadjacent(deformed),
                                       subadjacent(alg)).passed
        for f in maps:
            assert is_lie_morphism(f, subadjacent(alg), subadjacent(alg)).passed


class TestProductValue:
    @given(product_and_vectors())
    def test_matches_dense_oracle(self, drawn):
        product, u, v = drawn
        value = product.value(u, v)
        assert value == dense_value(product, u, v)
        assert all(type(a) is Fraction for a in value)


class TestSubadjacentKept:
    def test_kept_on_the_algebra_without_dense_fields(self):
        """The sub-adjacent algebra is built once and kept on its algebra,
        not found by hashing it, which would build the dense nest ``c`` and
        the dense ``entries`` of the table and of both twists."""
        six = semidirect_prelie(adjoint_rep(dim3_heisenberg()))
        a = algebra_from_doc(json.loads(json.dumps(algebra_to_doc(six))))
        g = subadjacent(a)
        assert subadjacent(a) is g
        assert g == subadjacent(six)
        assert "c" not in vars(a.product)
        for m in (a.product.table, a.alpha, a.beta):
            assert "entries" not in vars(m)


class TestAxiomReport:
    def test_passed_iff_no_violations(self):
        report = check_prelie(dim2_abelian())
        assert report.passed and bool(report) and report.violations == ()
        assert report.summary() == "all axioms hold"

    def test_residuals_are_exact(self):
        alg = BiHomPreLieAlgebra(
            tensor(2, {(0, 1, 0): 1, (1, 0, 0): -1}),
            TwistPair(diag(1, 2), Matrix.identity(2)))
        report = check_prelie(alg)
        for v in report.violations:
            assert any(x != 0 for x in v.residual)

    def test_json_shape(self):
        doc = check_prelie(dim2_abelian()).to_json()
        assert doc == {"passed": True, "violations": []}

    def test_axiom_error_keeps_its_report_through_pickle(self):
        report = check_prelie(BiHomPreLieAlgebra(
            tensor(2, {(0, 1, 0): 1, (1, 0, 0): -1}),
            TwistPair(diag(1, 2), Matrix.identity(2))))
        copy = pickle.loads(pickle.dumps(AxiomError("not pre-Lie", report)))
        assert (str(copy), copy.report) == ("not pre-Lie", report)
