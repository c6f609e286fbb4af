import ast
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from bihom import (
    AxiomError,
    AxiomReport,
    BiHomLieAlgebra,
    BilinearProduct,
    LieRep,
    Matrix,
    SingularMatrixError,
    TwistPair,
    Violation,
    adjoint_lie_rep,
    adjoint_rep,
    check_bihom_lie,
    check_o_operator,
    check_prelie,
    check_rota_baxter,
    compatible_prelie_from_invertible_o,
    induced_lie_rep,
    induced_prelie_from_o,
    induced_prelie_on_image,
    is_lie_morphism,
    rb_induced_prelie,
    subadjacent,
)
from bihom import deformation, operators

from catalog import (
    diag,
    dim2_abelian,
    dim2_assoc,
    dim2_nilpotent,
    dim3_graded,
    prelie_fixtures,
    rota_baxter_search,
)

Q = Fraction


def left_rep(alg):
    """Left-multiplication representation of the sub-adjacent algebra."""
    return induced_lie_rep(adjoint_rep(alg), "l-only")


class TestCheckOOperator:
    def test_identity_is_o_operator_for_left_rep(self):
        for name, alg in prelie_fixtures():
            rep = left_rep(alg)
            assert check_o_operator(Matrix.identity(alg.dim), rep).passed, name

    def test_zero_passes(self):
        rep = left_rep(dim2_assoc())
        assert check_o_operator(Matrix.zeros(2, 2), rep).passed

    def test_generic_operator_fails_on_nonabelian(self):
        rep = left_rep(dim3_graded(2))
        bad = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        report = check_o_operator(bad, rep)
        assert not report.passed
        assert "o-operator-identity" in report.axioms()

    def test_intertwining_reported_separately(self):
        alg = dim2_nilpotent(2, 3)
        rep = left_rep(alg)
        # breaks T phi = alpha T but not the (here trivial) bracket identity
        skew = Matrix.from_rows([[0, 1], [1, 0]])
        report = check_o_operator(skew, rep)
        axioms = report.axioms()
        assert "T-phi-intertwining" in axioms
        assert "T-psi-intertwining" in axioms

    def test_operator_wrapper_shape_checked(self):
        rep = left_rep(dim2_assoc())
        with pytest.raises(ValueError):
            check_o_operator(Matrix.zeros(3, 2), rep)
        assert check_o_operator(Matrix.identity(2), rep).passed

    def test_identity_fails_for_lie_adjoint_on_nonabelian(self):
        # BiHom-skew-symmetry doubles the right side for rho = ad, so the
        # identity map is not an O-operator there
        glie = subadjacent(dim2_assoc())
        report = check_o_operator(Matrix.identity(2), adjoint_lie_rep(glie))
        assert not report.passed


class TestInducedPreLie:
    def test_identity_recovers_product(self):
        for name, alg in prelie_fixtures()[:8]:
            rep = left_rep(alg)
            out = induced_prelie_from_o(Matrix.identity(alg.dim), rep)
            assert out.product == alg.product, name
            assert subadjacent(out).bracket == subadjacent(alg).bracket

    def test_zero_operator_gives_zero_product(self):
        rep = left_rep(dim2_assoc())
        out = induced_prelie_from_o(Matrix.zeros(2, 2), rep)
        assert out.product.is_zero

    def test_abelian_gives_zero_product(self):
        rep = left_rep(dim2_abelian(diag(2, 3), diag(5, 7)))
        out = induced_prelie_from_o(Matrix.identity(2), rep)
        assert out.product.is_zero

    def test_morphism_property_holds(self):
        alg = dim3_graded(2, 2, 3)
        rep = left_rep(alg)
        out = induced_prelie_from_o(Matrix.identity(3), rep)
        assert is_lie_morphism(Matrix.identity(3), subadjacent(out),
                               rep.algebra).passed

    def test_invalid_operator_rejected(self):
        rep = left_rep(dim3_graded(2))
        bad = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        with pytest.raises(AxiomError):
            induced_prelie_from_o(bad, rep)


@pytest.mark.parametrize("checker, what", [
    ("check_prelie", "O-operator induced a non-pre-Lie product"),
])
def test_failed_self_check_is_an_internal_defect(monkeypatch, checker, what):
    failing = AxiomReport((Violation("injected", (0, 1), (Q(1), Q(0))),))
    monkeypatch.setattr(operators, checker, lambda *args: failing)
    with pytest.raises(RuntimeError) as info:
        induced_prelie_from_o(Matrix.identity(2), left_rep(dim2_assoc()))
    assert str(info.value).startswith(
        f"internal defect: {what}\n1 violation(s):\nviolation: ")


def test_incompatible_bracket_is_an_internal_defect(monkeypatch):
    """The compatible structure's sub-adjacent bracket is asserted equal to
    the ambient one; a differing bracket is an internal defect."""
    monkeypatch.setattr(operators, "subadjacent", lambda out: SimpleNamespace(
        bracket=subadjacent(out).bracket.scale(2)))
    with pytest.raises(RuntimeError, match="^internal defect: induced product "
                       "is not compatible"):
        compatible_prelie_from_invertible_o(Matrix.identity(2),
                                            left_rep(dim2_assoc()))


class TestInducedOnImage:
    def test_identity_matches_from_o(self):
        rep = left_rep(dim2_assoc())
        eye = Matrix.identity(2)
        assert induced_prelie_on_image(eye, rep) == \
            induced_prelie_from_o(eye, rep)

    def test_scaled_identity_gives_isomorphic_copy(self):
        from bihom import is_prelie_morphism
        rep = left_rep(dim2_assoc())
        out1 = induced_prelie_on_image(Matrix.identity(2), rep)
        out2 = induced_prelie_on_image(Matrix.identity(2).scale(2), rep)
        assert out2.product == out1.product.scale(2)
        # conjugation oracle: x -> 2x intertwines the two structures
        assert is_prelie_morphism(Matrix.identity(2).scale(2), out2, out1).passed

    def test_rank_deficient_rejected(self):
        rep = left_rep(dim2_abelian())
        with pytest.raises(ValueError):
            induced_prelie_on_image(Matrix.zeros(2, 2), rep)


class TestRotaBaxter:
    def test_zero_passes(self):
        glie = subadjacent(dim2_assoc())
        assert check_rota_baxter(Matrix.zeros(2, 2), glie).passed

    def test_abelian_any_commuting_operator_passes(self):
        glie = subadjacent(dim2_abelian(diag(2, 3), diag(5, 7)))
        assert check_rota_baxter(diag(4, 9), glie).passed

    def test_identity_fails_on_nonabelian(self):
        glie = subadjacent(dim2_assoc())
        report = check_rota_baxter(Matrix.identity(2), glie)
        assert not report.passed
        assert "rota-baxter-identity" in report.axioms()

    def test_search_finds_shift_operator(self):
        glie = subadjacent(dim2_assoc())
        found = rota_baxter_search(glie)
        assert Matrix.from_rows([[0, 1], [0, 0]]) in found

    def test_twist_commutation_reported(self):
        glie = subadjacent(dim2_nilpotent(2, 3))
        skew = Matrix.from_rows([[0, 1], [1, 0]])
        report = check_rota_baxter(skew, glie)
        assert "R-alpha-commutation" in report.axioms()


class TestRBInduced:
    def test_zero_gives_zero_product(self):
        glie = subadjacent(dim2_assoc())
        assert rb_induced_prelie(Matrix.zeros(2, 2), glie).product.is_zero

    def test_search_results_induce_valid_products(self):
        glie = subadjacent(dim2_assoc())
        for mat in rota_baxter_search(glie):
            out = rb_induced_prelie(mat, glie)
            assert check_prelie(out).passed

    def test_matches_o_operator_specialisation(self):
        glie = subadjacent(dim2_assoc())
        ad = adjoint_lie_rep(glie)
        for mat in rota_baxter_search(glie):
            assert check_o_operator(mat, ad).passed
            rb = rb_induced_prelie(mat, glie)
            via_o = induced_prelie_from_o(mat, ad)
            assert rb.product == via_o.product

    def test_invalid_rejected(self):
        glie = subadjacent(dim2_assoc())
        with pytest.raises(AxiomError):
            rb_induced_prelie(Matrix.identity(2), glie)


class TestCompatibleFromInvertible:
    def test_identity_round_trip(self):
        for name, alg in prelie_fixtures()[:8]:
            rep = left_rep(alg)
            out = compatible_prelie_from_invertible_o(Matrix.identity(alg.dim), rep)
            assert out.product == alg.product, name
            assert subadjacent(out).bracket == rep.algebra.bracket

    def test_abelian_gives_zero(self):
        rep = left_rep(dim2_abelian(diag(2, 3), diag(5, 7)))
        out = compatible_prelie_from_invertible_o(Matrix.identity(2), rep)
        assert out.product.is_zero

    def test_singular_operator_rejected(self):
        for alg in (dim2_assoc(), dim2_nilpotent(2, 3)):
            with pytest.raises(SingularMatrixError,
                               match="^O-operator T must be invertible$"):
                compatible_prelie_from_invertible_o(Matrix.zeros(2, 2),
                                                    left_rep(alg))

    def test_invertible_non_o_operator_rejected_before_construction(self):
        glie = subadjacent(dim2_assoc())
        with pytest.raises(AxiomError):
            compatible_prelie_from_invertible_o(Matrix.identity(2),
                                                adjoint_lie_rep(glie))

    def test_valid_bihom_lie_output_context(self):
        alg = dim3_graded(2, 2, 3)
        rep = left_rep(alg)
        out = compatible_prelie_from_invertible_o(Matrix.identity(3), rep)
        assert check_prelie(out).passed
        assert check_bihom_lie(subadjacent(out)).passed


class TestDimZeroAlgebra:
    """Over a dim-0 BiHom-Lie algebra the zero map from a dim-2 carrier is
    the only operator; its induced product is the zero product on V."""

    g0 = BiHomLieAlgebra(BilinearProduct.zero(0), TwistPair.identity(0))

    def test_zero_o_operator_induces_the_zero_product(self):
        r = LieRep(self.g0, 2, (), Matrix.identity(2), Matrix.diagonal([2, 3]))
        assert check_o_operator(Matrix.zeros(0, 2), r).passed
        out = induced_prelie_from_o(Matrix.zeros(0, 2), r)
        assert out.dim == 2 and out.product.is_zero
        assert (out.alpha, out.beta) == (r.phi, r.psi)

    def test_rota_baxter(self):
        assert check_rota_baxter(Matrix.zeros(0, 0), self.g0).passed
        assert rb_induced_prelie(Matrix.zeros(0, 0), self.g0).dim == 0


# ---------------------------------------------------------------------------
# each operator identity is checked by the one morphism pair loop
# ---------------------------------------------------------------------------

def _is_range_loop(node: ast.AST) -> bool:
    return (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "range")


def pair_loop_checks(source: str) -> list[str]:
    """The functions of ``source`` in which a ``col.check`` call sits inside
    two nested ``for ... in range(...)`` loops."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        inner_loops = (inner for outer in ast.walk(fn) if _is_range_loop(outer)
                       for inner in ast.walk(outer)
                       if inner is not outer and _is_range_loop(inner))
        if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
               and call.func.attr == "check"
               and isinstance(call.func.value, ast.Name)
               and call.func.value.id == "col"
               for inner in inner_loops for call in ast.walk(inner)):
            found.append(fn.name)
    return found


def test_operator_identities_have_no_pair_loop_of_their_own():
    """In operators.py and deformation.py only ``check_equivalence``, whose
    three interleaved identities fix the violation order, writes its own
    ordered-pair loop; every other identity goes through
    ``algebra._map_violations``."""
    assert pair_loop_checks(
        "def f(col):\n"
        "    for i in range(n):\n"
        "        for j in range(n):\n"
        "            col.check('a', (i, j), r, n)\n"
        "def g(col):\n"
        "    for i in range(n):\n"
        "        col.check('a', (i,), r, n)\n") == ["f"]
    found = {module.__name__: pair_loop_checks(Path(module.__file__).read_text())
             for module in (operators, deformation)}
    assert found == {"bihom.operators": [],
                     "bihom.deformation": ["check_equivalence"]}
