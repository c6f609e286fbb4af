from fractions import Fraction

import pytest

from bihom import (
    AxiomError,
    BiHomPreLieAlgebra,
    BilinearProduct,
    Matrix,
    adjoint_rep,
    check_equivalence,
    check_lie_linear_deformation,
    check_linear_deformation,
    check_nijenhuis_lie,
    check_nijenhuis_prelie,
    check_prelie,
    cochain_from_bilinear,
    cochain_from_linear_map,
    coboundary,
    deformed_product,
    is_coboundary,
    is_cocycle,
    is_prelie_morphism,
    nijenhuis_trivial_deformation,
    push_deformation_to_lie,
    subadjacent,
)

from catalog import (
    diag,
    dim2_abelian,
    dim2_assoc,
    dim2_nilpotent,
    dim3_graded,
    nijenhuis_search,
    prelie_fixtures,
    tensor,
)

Q = Fraction


class TestCheckLinearDeformation:
    def test_zero_candidate_passes(self):
        for name, alg in prelie_fixtures():
            assert check_linear_deformation(alg, BilinearProduct.zero(alg.dim)).passed

    def test_product_itself_passes(self):
        for alg in (dim2_nilpotent(2, 3), dim2_assoc(), dim3_graded(2, 2, 3)):
            assert check_linear_deformation(alg, alg.product).passed

    def test_nijenhuis_image_passes(self):
        alg = dim2_assoc()
        for mat in nijenhuis_search(alg)[:12]:
            pi = deformed_product(alg, mat)
            assert check_linear_deformation(alg, pi).passed

    def test_equivariance_violation_reported_distinctly(self):
        alg = dim2_nilpotent(2, 3)
        pi = tensor(2, {(1, 1, 0): 1})  # not alpha-equivariant
        report = check_linear_deformation(alg, pi)
        assert not report.passed
        assert "pi-alpha-equivariance" in report.axioms()

    def test_cocycle_condition_failure_detected(self):
        alg = dim2_nilpotent()
        # pi(e2, e2) = e1 is equivariant (identity twists) but fails the
        # mixed cocycle condition
        pi = tensor(2, {(1, 1, 0): 1})
        report = check_linear_deformation(alg, pi)
        assert not report.passed
        assert "deformation-cocycle" in report.axioms()

    def test_deformed_algebra_valid_at_sample_parameters(self):
        # passing means P + t pi is a valid product for every t; spot-check
        # a few rational parameter values
        alg = dim2_assoc()
        mat = nijenhuis_search(alg)[5]
        pi = deformed_product(alg, mat)
        assert check_linear_deformation(alg, pi).passed
        for t in (Q(1), Q(-1), Q(7, 3)):
            deformed = BiHomPreLieAlgebra(alg.product + pi.scale(t), alg.twists)
            assert check_prelie(deformed).passed


class TestCocycleCrossCheck:
    def test_cocycle_condition_equals_degree_two_cocycle(self):
        # the t^1 condition holds iff pi is a 2-cocycle for the adjoint
        # representation
        candidates = []
        alg = dim2_nilpotent()
        for entries in ({(0, 0, 1): 1}, {(1, 1, 0): 1}, {(0, 1, 0): 1},
                        {(0, 0, 0): 1, (1, 1, 1): 2}):
            candidates.append((alg, tensor(2, entries)))
        twisted = dim2_nilpotent(2, 3)
        candidates.append((twisted, twisted.product))
        candidates.append((twisted, BilinearProduct.zero(2)))
        for algebra, pi in candidates:
            report = check_linear_deformation(algebra, pi)
            if any(v.axiom.startswith("pi-") for v in report.violations):
                continue  # not a cochain, cocycle comparison undefined
            cocycle_ok = "deformation-cocycle" not in report.axioms()
            rep = adjoint_rep(algebra)
            assert is_cocycle(cochain_from_bilinear(pi), algebra, rep) == cocycle_ok


class TestCheckEquivalence:
    def test_equal_deformations_via_zero(self):
        alg = dim2_assoc()
        pi = deformed_product(alg, nijenhuis_search(alg)[3])
        assert check_equivalence(alg, pi, pi, Matrix.zeros(2, 2)).passed

    def test_nijenhuis_gives_trivial_equivalence(self):
        alg = dim2_assoc()
        for mat in nijenhuis_search(alg)[:12]:
            pi = deformed_product(alg, mat)
            assert check_equivalence(alg, BilinearProduct.zero(2), pi, mat).passed

    def test_violating_operator_reported_with_pair(self):
        alg = dim2_assoc()
        pi = alg.product
        report = check_equivalence(alg, pi, pi, Matrix.identity(2))
        assert not report.passed
        assert "equivalence-cubic" in report.axioms()
        cubic = [v for v in report.violations if v.axiom == "equivalence-cubic"]
        assert all(len(v.indices) == 2 for v in cubic)


class TestNijenhuisPreLie:
    def test_scalar_multiples_of_identity(self):
        for lam in (Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2)):
            for name, alg in prelie_fixtures()[:8]:
                N = Matrix.identity(alg.dim).scale(lam)
                assert check_nijenhuis_prelie(alg, N).passed, (name, lam)

    def test_nilpotent_shift_is_nijenhuis(self):
        alg = dim2_nilpotent()
        N = Matrix.from_rows([[0, 0], [1, 0]])
        assert check_nijenhuis_prelie(alg, N).passed

    def test_projection_is_not_nijenhuis_here(self):
        alg = dim2_nilpotent()
        N = diag(1, 0)
        report = check_nijenhuis_prelie(alg, N)
        assert not report.passed
        assert "nijenhuis-identity" in report.axioms()
        assert (0, 0) in [v.indices for v in report.violations]

    def test_twist_commutation_reported(self):
        alg = dim2_nilpotent(2, 3)
        N = Matrix.from_rows([[0, 1], [0, 0]])
        report = check_nijenhuis_prelie(alg, N)
        assert "N-alpha-commutation" in report.axioms()


class TestDeformedProduct:
    def test_zero_operator_gives_zero(self):
        assert deformed_product(dim2_assoc(), Matrix.zeros(2, 2)).is_zero

    def test_identity_operator_reproduces_product(self):
        for name, alg in prelie_fixtures()[:8]:
            assert deformed_product(alg, Matrix.identity(alg.dim)) == alg.product

    def test_nilpotent_shift_gives_zero_product(self):
        alg = dim2_nilpotent()
        N = Matrix.from_rows([[0, 0], [1, 0]])
        assert deformed_product(alg, N).is_zero

    def test_non_commuting_operator_rejected(self):
        alg = dim2_nilpotent(2, 3)
        with pytest.raises(AxiomError):
            deformed_product(alg, Matrix.from_rows([[0, 1], [0, 0]]))

    def test_matches_degree_one_coboundary(self):
        # d^1 N as a bilinear map equals the deformed product *_N
        for alg in (dim2_nilpotent(), dim2_assoc(), dim2_nilpotent(2, 3),
                    dim3_graded(2, 2, 3)):
            rep = adjoint_rep(alg)
            for mat in (Matrix.identity(alg.dim),
                        Matrix.identity(alg.dim).scale(Q(-1, 2))):
                df = coboundary(cochain_from_linear_map(mat), alg, rep)
                assert df == cochain_from_bilinear(deformed_product(alg, mat))


class TestNijenhuisTrivialDeformation:
    def test_scalar_identity_rescales_product(self):
        alg = dim2_assoc()
        lam = Q(1, 2)
        candidate, report = nijenhuis_trivial_deformation(
            alg, Matrix.identity(2).scale(lam))
        assert report.passed
        assert candidate == alg.product.scale(lam)

    def test_nilpotent_shift_gives_zero_candidate(self):
        alg = dim2_nilpotent()
        N = Matrix.from_rows([[0, 0], [1, 0]])
        candidate, report = nijenhuis_trivial_deformation(alg, N)
        assert report.passed and candidate.is_zero

    def test_search_instances_satisfy_both_conclusions(self):
        alg = dim2_assoc()
        for mat in nijenhuis_search(alg)[:15]:
            candidate, report = nijenhuis_trivial_deformation(alg, mat)
            assert report.passed
            assert check_linear_deformation(alg, candidate).passed
            assert check_equivalence(alg, BilinearProduct.zero(2), candidate, mat).passed

    def test_non_nijenhuis_rejected(self):
        with pytest.raises(AxiomError):
            nijenhuis_trivial_deformation(dim2_nilpotent(), diag(1, 0))

    def test_corollary_deformed_algebra_and_morphism(self):
        alg = dim2_assoc()
        for mat in nijenhuis_search(alg)[:15]:
            deformed = BiHomPreLieAlgebra(deformed_product(alg, mat), alg.twists)
            assert check_prelie(deformed).passed
            assert is_prelie_morphism(mat, deformed, alg).passed


class TestPushToLie:
    def test_zero_pushes_to_zero(self):
        alg = dim2_assoc()
        assert push_deformation_to_lie(alg, BilinearProduct.zero(2)).is_zero

    def test_product_pushes_to_bracket(self):
        for alg in (dim2_assoc(), dim3_graded(2, 2, 3)):
            pushed = push_deformation_to_lie(alg, alg.product)
            assert pushed == subadjacent(alg).bracket

    def test_nijenhuis_deformations_push_down(self):
        alg = dim2_assoc()
        glie = subadjacent(alg)
        for mat in nijenhuis_search(alg)[:10]:
            pi = deformed_product(alg, mat)
            pushed = push_deformation_to_lie(alg, pi)
            assert check_lie_linear_deformation(glie, pushed).passed

    def test_invalid_input_rejected(self):
        alg = dim2_nilpotent()
        with pytest.raises(AxiomError):
            push_deformation_to_lie(alg, tensor(2, {(1, 1, 0): 1}))


class TestLieSide:
    def test_scalar_identity_is_lie_nijenhuis(self):
        glie = subadjacent(dim2_assoc())
        for lam in (Q(0), Q(1), Q(-2), Q(2, 3)):
            assert check_nijenhuis_lie(glie, Matrix.identity(2).scale(lam)).passed

    def test_descent_from_prelie(self):
        for alg in (dim2_assoc(), dim2_nilpotent(), dim2_nilpotent(2, 3)):
            glie = subadjacent(alg)
            for mat in nijenhuis_search(alg)[:12]:
                assert check_nijenhuis_lie(glie, mat).passed

    def test_generic_operator_fails_on_nonabelian(self):
        glie = subadjacent(dim3_graded(2))
        N = Matrix.from_rows([[-1, -1, -1], [-1, -1, -1], [-1, -1, -1]])
        report = check_nijenhuis_lie(glie, N)
        assert not report.passed
        assert "nijenhuis-identity" in report.axioms()

    def test_beta_commutation_reported_separately(self):
        # alpha = id so only the beta commutation can fail; the alpha-only
        # reading is recoverable by filtering this axiom
        alg = dim2_abelian(Matrix.identity(2), diag(2, 3))
        glie = subadjacent(alg)
        N = Matrix.from_rows([[0, 1], [0, 0]])
        report = check_nijenhuis_lie(glie, N)
        axioms = report.axioms()
        assert "N-beta-commutation" in axioms
        assert "N-alpha-commutation" not in axioms

    def test_zero_and_bracket_are_lie_deformations(self):
        for name, alg in prelie_fixtures()[:8]:
            glie = subadjacent(alg)
            assert check_lie_linear_deformation(glie, BilinearProduct.zero(glie.dim)).passed
            assert check_lie_linear_deformation(glie, glie.bracket).passed

    def test_skew_precondition_reported(self):
        glie = subadjacent(dim2_assoc())
        pi = tensor(2, {(0, 0, 0): 1})  # symmetric, not BiHom-skew
        report = check_lie_linear_deformation(glie, pi)
        assert not report.passed
        assert "pi-bihom-skew" in report.axioms()


class TestCohomologicalInterpretation:
    def test_equivalent_deformations_differ_by_coboundary(self):
        alg = dim2_assoc()
        rep = adjoint_rep(alg)
        for mat in nijenhuis_search(alg)[:10]:
            pi = deformed_product(alg, mat)
            assert check_equivalence(alg, BilinearProduct.zero(2), pi, mat).passed
            difference = cochain_from_bilinear(pi)  # pi - 0
            assert is_coboundary(difference, alg, rep)
