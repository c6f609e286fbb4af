from fractions import Fraction

import pytest

from bihom import (
    AxiomError,
    LieRep,
    Matrix,
    PreLieRep,
    SingularMatrixError,
    TwistPair,
    adjoint_lie_rep,
    adjoint_rep,
    check_bihom_lie,
    check_lie_rep,
    check_o_operator,
    check_prelie,
    check_prelie_rep,
    induced_lie_rep,
    induced_prelie_from_o,
    semidirect_lie,
    semidirect_prelie,
    subadjacent,
    tensor_rep,
    trivial_rep,
    twist_rep,
)
from bihom.documents import rep_from_doc, rep_to_doc
from bihom.representation import _semidirect_lie_raw, _semidirect_prelie_raw

from catalog import (
    corrupted_lie_reps,
    corrupted_prelie_reps,
    diag,
    dim1_idempotent,
    dim2_abelian,
    dim2_assoc,
    dim2_nilpotent,
    dim3_graded,
    prelie_fixtures,
    prelie_rep_fixtures,
)

Q = Fraction


class TestCheckPreLieRep:
    def test_adjoint_passes_everywhere(self):
        for name, alg in prelie_fixtures():
            assert check_prelie_rep(adjoint_rep(alg)).passed, name

    def test_trivial_passes(self):
        for name, alg in prelie_fixtures():
            assert check_prelie_rep(trivial_rep(alg)).passed, name

    def test_doubled_R_breaks_rep3(self):
        rep = adjoint_rep(dim2_assoc())
        bad = PreLieRep(rep.algebra, rep.vdim, rep.L,
                        tuple(m.scale(2) for m in rep.R), rep.phi, rep.psi)
        report = check_prelie_rep(bad)
        assert not report.passed
        assert "rep3" in report.axioms()

    def test_shape_validation(self):
        alg = dim2_abelian()
        with pytest.raises(ValueError):
            PreLieRep(alg, 2, (Matrix.zeros(2, 2),), (Matrix.zeros(2, 2),) * 2,
                      Matrix.identity(2), Matrix.identity(2))


class TestCheckLieRep:
    def test_adjoint_of_lie_fixtures(self):
        for name, alg in prelie_fixtures():
            glie = subadjacent(alg)
            assert check_lie_rep(adjoint_lie_rep(glie)).passed, name

    def test_zero_rep_passes(self):
        glie = subadjacent(dim2_assoc())
        zero = LieRep(glie, 2, (Matrix.zeros(2, 2),) * 2,
                      Matrix.identity(2), Matrix.identity(2))
        assert check_lie_rep(zero).passed

    def test_broken_rho_fails_rep3(self):
        glie = subadjacent(dim2_assoc())
        ad = adjoint_lie_rep(glie)
        bad = LieRep(glie, 2, tuple(m.scale(3) for m in ad.rho), ad.phi, ad.psi)
        report = check_lie_rep(bad)
        assert not report.passed
        assert "lie-rep-3" in report.axioms()


class TestAdjointTrivial:
    def test_dim1_idempotent_adjoint(self):
        rep = adjoint_rep(dim1_idempotent())
        assert rep.L == rep.R == (Matrix.from_rows([[1]]),)
        assert rep.phi == rep.psi == Matrix.identity(1)

    def test_nilpotent_adjoint_matrices(self):
        rep = adjoint_rep(dim2_nilpotent())
        e21 = Matrix.from_rows([[0, 0], [1, 0]])
        assert rep.L[0] == e21 and rep.R[0] == e21
        assert rep.L[1].is_zero and rep.R[1].is_zero

    def test_abelian_adjoint_zero(self):
        rep = adjoint_rep(dim2_abelian(diag(2, 3), diag(5, 7)))
        assert all(m.is_zero for m in rep.L + rep.R)

    def test_trivial_rep_shape(self):
        rep = trivial_rep(dim3_graded(2, 2, 3))
        assert rep.vdim == 1
        assert all(m.is_zero for m in rep.L + rep.R)
        assert rep.phi == rep.psi == Matrix.identity(1)


class TestSemidirectPreLie:
    def test_trivial_rep_gives_direct_sum(self):
        alg = dim2_nilpotent(2, 3)
        out = semidirect_prelie(trivial_rep(alg))
        assert out.dim == 3
        assert check_prelie(out).passed
        # algebra block is the original product, all mixed blocks vanish
        for i in range(2):
            for j in range(2):
                assert out.product.basis_value(i, j) == \
                    alg.product.basis_value(i, j) + (Q(0),)
        for i in range(3):
            assert out.product.basis_value(i, 2) == (Q(0),) * 3
            assert out.product.basis_value(2, i) == (Q(0),) * 3

    def test_adjoint_semidirect_passes(self):
        out = semidirect_prelie(adjoint_rep(dim2_nilpotent()))
        assert out.dim == 4
        assert check_prelie(out).passed

    def test_valid_reps_produce_valid_algebras(self):
        for name, rep in prelie_rep_fixtures()[:12]:
            assert check_prelie(semidirect_prelie(rep)).passed, name

    def test_corrupted_rep_rejected_and_raw_fails(self):
        for name, rep in corrupted_prelie_reps()[:8]:
            with pytest.raises(AxiomError):
                semidirect_prelie(rep)
            assert not check_prelie(_semidirect_prelie_raw(rep)).passed, name


class TestSemidirectLie:
    def test_zero_rep_gives_direct_sum(self):
        glie = subadjacent(dim2_assoc())
        zero = LieRep(glie, 1, (Matrix.zeros(1, 1),) * 2,
                      Matrix.identity(1), Matrix.identity(1))
        out = semidirect_lie(zero)
        assert out.dim == 3
        assert check_bihom_lie(out).passed
        for i in range(3):
            assert out.bracket.basis_value(i, 2) == (Q(0),) * 3
            assert out.bracket.basis_value(2, i) == (Q(0),) * 3

    def test_adjoint_semidirect_passes(self):
        for name, alg in prelie_fixtures()[:8]:
            glie = subadjacent(alg)
            out = semidirect_lie(adjoint_lie_rep(glie))
            assert check_bihom_lie(out).passed, name

    def test_corrupted_rep_rejected_and_raw_fails(self):
        for name, rep in corrupted_lie_reps()[:8]:
            with pytest.raises(AxiomError):
                semidirect_lie(rep)
            assert not check_bihom_lie(_semidirect_lie_raw(rep)).passed, name


class TestInducedLieRep:
    def test_identity_twists_give_l_minus_r(self):
        rep = adjoint_rep(dim2_assoc())
        full = induced_lie_rep(rep, "full")
        for i in range(2):
            assert full.rho[i] == rep.L[i] - rep.R[i]

    def test_twisted_nilpotent_full_variant_vanishes(self):
        rep = adjoint_rep(dim2_nilpotent(2, 3))
        full = induced_lie_rep(rep, "full")
        assert all(m.is_zero for m in full.rho)

    def test_both_variants_pass_on_fixtures(self):
        for name, alg in prelie_fixtures():
            rep = adjoint_rep(alg)
            for variant in ("l-only", "full"):
                out = induced_lie_rep(rep, variant)
                assert out.algebra == subadjacent(alg)
                assert check_lie_rep(out).passed, (name, variant)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            induced_lie_rep(adjoint_rep(dim2_assoc()), "both")


class TestTwistRep:
    def test_identity_twists_return_input(self):
        rep = adjoint_rep(dim2_nilpotent())
        eye = Matrix.identity(2)
        out = twist_rep(rep, eye, eye, eye, eye)
        assert out == rep

    def test_nilpotent_twisting(self):
        rep = adjoint_rep(dim2_nilpotent())
        out = twist_rep(rep, diag(2, 4), diag(3, 9), diag(2, 4), diag(3, 9))
        assert check_prelie_rep(out).passed
        # twisted product e1 * e1 = alpha(e1).beta(e1) = 6 e2
        assert out.algebra.product.basis_value(0, 0) == (Q(0), Q(6))

    def test_non_multiplicative_alpha_rejected(self):
        rep = adjoint_rep(dim2_nilpotent())
        with pytest.raises(AxiomError) as exc:
            twist_rep(rep, diag(2, 5), diag(3, 9), diag(2, 5), diag(3, 9))
        assert "alpha-multiplicative" in exc.value.report.axioms()

    def test_requires_untwisted_input(self):
        rep = adjoint_rep(dim2_nilpotent(2, 3))
        eye = Matrix.identity(2)
        with pytest.raises(ValueError):
            twist_rep(rep, eye, eye, eye, eye)


class TestTensorRep:
    def test_trivial_tensor_trivial_is_trivial(self):
        alg = dim2_nilpotent(2, 3)
        tv = trivial_rep(alg)
        out = tensor_rep(tv, tv)
        assert out.vdim == 1
        assert all(m.is_zero for m in out.L + out.R)
        assert out.phi == out.psi == Matrix.identity(1)

    def test_adjoint_tensor_trivial_matches_adjoint(self):
        alg = dim2_nilpotent(2, 3)
        ad, tv = adjoint_rep(alg), trivial_rep(alg)
        out = tensor_rep(ad, tv)
        assert out.vdim == 2
        assert out.L == ad.L and out.R == ad.R
        assert check_prelie_rep(out).passed

    def test_adjoint_tensor_adjoint_passes(self):
        for alg in (dim2_nilpotent(), dim2_nilpotent(2, 3), dim2_assoc(),
                    dim3_graded(2, 2, 3)):
            ad = adjoint_rep(alg)
            out = tensor_rep(ad, ad)
            assert out.vdim == alg.dim ** 2
            assert check_prelie_rep(out).passed

    def test_algebra_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tensor_rep(adjoint_rep(dim2_assoc()), adjoint_rep(dim2_nilpotent()))


class TestCarrierTwists:
    """A representation of a regular algebra is regular: the constructors
    prove phi and psi invertible and keep their inverses."""

    @pytest.mark.parametrize("kind", ["prelie", "lie"])
    @pytest.mark.parametrize("zeroed", [["phi"], ["psi"], ["phi", "psi"]],
                             ids=["phi", "psi", "both"])
    def test_singular_carrier_twist_named(self, kind, zeroed):
        a = dim2_nilpotent(2, 3)
        r = adjoint_rep(a) if kind == "prelie" else adjoint_lie_rep(subadjacent(a))
        twists = {"phi": r.phi, "psi": r.psi}
        twists.update(dict.fromkeys(zeroed, Matrix.zeros(2, 2)))
        actions = (r.L, r.R) if kind == "prelie" else (r.rho,)
        with pytest.raises(SingularMatrixError,
                           match=f"^carrier twist {zeroed[0]} must be invertible$"):
            type(r)(r.algebra, r.vdim, *actions, twists["phi"], twists["psi"])

    def test_kept_inverses_invert(self):
        """Every inverse a construction hands over inverts its twist: the
        carrier twists of the built representations, and the twists of the
        semidirect products, of the O-operator's induced algebra and of an
        identity pair."""
        for _, r in prelie_rep_fixtures():
            ad = adjoint_rep(r.algebra)
            built = [r, induced_lie_rep(r), induced_lie_rep(r, "l-only"),
                     tensor_rep(r, ad), tensor_rep(ad, r)]
            for out in built:
                eye = Matrix.identity(out.vdim)
                assert out.phi @ out.phi_inv == out.psi @ out.psi_inv == eye
            lie = induced_lie_rep(r)
            pairs = [semidirect_prelie(r).twists, semidirect_lie(lie).twists,
                     induced_prelie_from_o(Matrix.zeros(r.algebra.dim, r.vdim),
                                           lie).twists,
                     TwistPair.identity(r.vdim)]
            for t in pairs:
                eye = Matrix.identity(t.dim)
                assert t.alpha @ t.alpha_inv == t.beta @ t.beta_inv == eye

    def test_kept_inverses_are_not_fields(self):
        r = tensor_rep(*[adjoint_rep(dim2_nilpotent(2, 3))] * 2)
        lie = induced_lie_rep(r)
        assert lie == LieRep(lie.algebra, lie.vdim, lie.rho, lie.phi, lie.psi)
        assert r == PreLieRep(r.algebra, r.vdim, r.L, r.R, r.phi, r.psi)
        assert "phi_inv" not in repr(r) and hash(r) == hash(
            PreLieRep(r.algebra, r.vdim, r.L, r.R, r.phi, r.psi))
        kept = semidirect_prelie(r).twists  # built from known inverses
        proved = TwistPair(kept.alpha, kept.beta)
        assert kept == proved and hash(kept) == hash(proved)
        assert repr(kept) == repr(proved) and "alpha_inv" not in repr(kept)

    def test_each_carrier_twist_eliminated_once(self, eliminations):
        """Standard representations cost no elimination; a loaded one whose
        twists are not the algebra's costs one per carrier twist; the
        constructions over it read the kept inverses, so none of them
        eliminates a matrix, the semidirect products' block twists
        included."""
        a = dim2_nilpotent(2, 3)
        ad = adjoint_rep(a)
        t = tensor_rep(ad, ad)  # carrier twists alpha (x) alpha, beta (x) beta
        pre_doc, lie_doc = rep_to_doc(t), rep_to_doc(induced_lie_rep(t))
        g = subadjacent(a)
        m = t.vdim
        eliminations.clear()
        adjoint_rep(a), trivial_rep(a), adjoint_lie_rep(g)
        assert eliminations == []

        r, lie = rep_from_doc(pre_doc), rep_from_doc(lie_doc)
        # alpha, beta of each algebra, then phi, psi of each carrier
        assert eliminations == [(2, 2), (2, 2), (m, m), (m, m)] * 2
        eliminations.clear()

        induced_lie_rep(r), induced_lie_rep(r, "l-only"), tensor_rep(r, r)
        assert check_o_operator(Matrix.zeros(2, m), lie).passed
        semidirect_prelie(r), semidirect_lie(lie)
        induced_prelie_from_o(Matrix.zeros(2, m), lie)
        assert eliminations == []
