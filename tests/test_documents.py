from fractions import Fraction

import pytest

from bihom import (
    BiHomLieAlgebra,
    Matrix,
    adjoint_lie_rep,
    adjoint_rep,
    subadjacent,
)
from bihom.cohomology import Cochain
from bihom.deformation import DeformationCandidate
from bihom.documents import (
    MAX_REFERENCE_DEPTH,
    DocumentError,
    algebra_from_doc,
    algebra_to_doc,
    cochain_from_doc,
    cochain_to_doc,
    deformation_from_doc,
    deformation_to_doc,
    dump_json,
    load_algebra,
    load_json,
    load_representation,
    nijenhuis_from_doc,
    nijenhuis_to_doc,
    operator_from_doc,
    rep_from_doc,
    rep_to_doc,
    twists_from_doc,
)

from catalog import dim2_nilpotent, dim3_graded

Q = Fraction


class TestAlgebraDocs:
    def test_round_trip_prelie(self):
        alg = dim2_nilpotent(Q(1, 2), 3)
        doc = algebra_to_doc(alg)
        assert algebra_from_doc(doc) == alg

    def test_round_trip_lie(self):
        glie = subadjacent(dim3_graded(2, 2, 3))
        doc = algebra_to_doc(glie)
        restored = algebra_from_doc(doc)
        assert isinstance(restored, BiHomLieAlgebra)
        assert restored == glie

    def test_rationals_encode_as_ints_or_strings(self):
        doc = algebra_to_doc(dim2_nilpotent(Q(1, 2), 3))
        assert doc["alpha"][0][0] == "1/2"
        assert doc["beta"][0][0] == 3

    def test_missing_tensor_rejected(self):
        with pytest.raises(DocumentError):
            algebra_from_doc({"dim": 1, "alpha": [[1]], "beta": [[1]]})

    def test_both_tensors_rejected(self):
        with pytest.raises(DocumentError):
            algebra_from_doc({"dim": 1, "product": [[[0]]],
                              "bracket": [[[0]]], "alpha": [[1]],
                              "beta": [[1]]})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DocumentError):
            algebra_from_doc({"dim": 2, "product": [[[0]]],
                              "alpha": [[1, 0], [0, 1]],
                              "beta": [[1, 0], [0, 1]]})

    def test_bad_rational_literal_rejected(self):
        with pytest.raises(DocumentError):
            algebra_from_doc({"dim": 1, "product": [[["0.5"]]],
                              "alpha": [[1]], "beta": [[1]]})

    def test_file_round_trip(self, tmp_path):
        alg = dim2_nilpotent(2, 3)
        path = tmp_path / "algebra.json"
        dump_json(path, algebra_to_doc(alg))
        assert load_algebra(path) == alg

    def test_invalid_json_has_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 1,\n  "product": [[[0]],\n}')
        with pytest.raises(DocumentError) as exc:
            load_json(path)
        assert "line" in str(exc.value)


class TestRepresentationDocs:
    def test_round_trip_prelie_rep(self):
        rep = adjoint_rep(dim2_nilpotent(2, 3))
        doc = rep_to_doc(rep)
        assert rep_from_doc(doc) == rep

    def test_round_trip_lie_rep(self):
        rep = adjoint_lie_rep(subadjacent(dim2_nilpotent(2, 3)))
        doc = rep_to_doc(rep)
        assert rep_from_doc(doc) == rep

    def test_algebra_as_path_reference(self, tmp_path):
        rep = adjoint_rep(dim2_nilpotent(2, 3))
        dump_json(tmp_path / "algebra.json", algebra_to_doc(rep.algebra))
        doc = rep_to_doc(rep)
        doc["algebra"] = "algebra.json"
        dump_json(tmp_path / "rep.json", doc)
        assert load_representation(tmp_path / "rep.json") == rep

    def test_rho_requires_bracket_algebra(self):
        rep = adjoint_rep(dim2_nilpotent())
        doc = rep_to_doc(rep)
        doc["rho"] = doc.pop("L")
        del doc["R"]
        with pytest.raises(DocumentError):
            rep_from_doc(doc)

    def test_wrong_action_count_rejected(self):
        rep = adjoint_rep(dim2_nilpotent())
        doc = rep_to_doc(rep)
        doc["L"] = doc["L"][:1]
        with pytest.raises(DocumentError):
            rep_from_doc(doc)


class TestOperatorAndDeformationDocs:
    def test_operator_with_embedded_representation(self):
        rep = adjoint_lie_rep(subadjacent(dim2_nilpotent(2, 3)))
        doc = {"matrix": Matrix.identity(2).to_json(),
               "representation": rep_to_doc(rep)}
        matrix, context = operator_from_doc(doc)
        assert matrix == Matrix.identity(2)
        assert context == rep

    def test_operator_with_embedded_algebra(self):
        glie = subadjacent(dim2_nilpotent(2, 3))
        doc = {"matrix": Matrix.zeros(2, 2).to_json(),
               "algebra": algebra_to_doc(glie)}
        matrix, context = operator_from_doc(doc)
        assert context == glie

    def test_bare_operator(self):
        matrix, context = operator_from_doc({"matrix": [[1, 0], [0, 1]]})
        assert context is None

    def test_operator_with_path_reference(self, tmp_path):
        rep = adjoint_lie_rep(subadjacent(dim2_nilpotent(2, 3)))
        dump_json(tmp_path / "rep.json", rep_to_doc(rep))
        doc = {"matrix": Matrix.identity(2).to_json(),
               "representation": "rep.json"}
        matrix, context = operator_from_doc(doc, tmp_path)
        assert context == rep

    def test_deformation_round_trip(self):
        alg = dim2_nilpotent(2, 3)
        candidate = DeformationCandidate(alg.product)
        doc = deformation_to_doc(candidate)
        assert deformation_from_doc(doc) == candidate

    def test_nijenhuis_round_trip(self):
        n = Matrix.from_rows([[0, Q(1, 3)], [1, 0]])
        assert nijenhuis_from_doc(nijenhuis_to_doc(n)) == n

    def test_twists_doc(self):
        doc = {"alpha": [[2, 0], [0, 4]], "beta": [[3, 0], [0, 9]],
               "phi": [[1, 0], [0, 1]], "psi": [[1, 0], [0, 1]]}
        alpha, beta, phi, psi = twists_from_doc(doc)
        assert alpha == Matrix.diagonal([2, 4])
        assert psi == Matrix.identity(2)


class TestPathReferenceChains:
    def test_chain_of_references_is_followed(self, tmp_path):
        alg = dim2_nilpotent(2, 3)
        dump_json(tmp_path / "alg.json", algebra_to_doc(alg))
        (tmp_path / "link.json").write_text('"alg.json"')
        assert algebra_from_doc("link.json", tmp_path) == alg

    def test_self_reference_is_a_document_error(self, tmp_path):
        (tmp_path / "loop.json").write_text('"loop.json"')
        with pytest.raises(DocumentError, match="reference cycle"):
            algebra_from_doc("loop.json", tmp_path)
        with pytest.raises(DocumentError, match="reference cycle"):
            rep_from_doc("loop.json", tmp_path)
        with pytest.raises(DocumentError, match="reference cycle"):
            operator_from_doc({"matrix": [[1]], "representation": "loop.json"},
                              tmp_path)

    def test_two_file_cycle_is_a_document_error(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.json").write_text('"sub/../b.json"')
        (tmp_path / "b.json").write_text('"a.json"')
        with pytest.raises(DocumentError, match="reference cycle"):
            load_algebra(tmp_path / "a.json")

    def test_overlong_chain_is_a_document_error(self, tmp_path):
        for i in range(MAX_REFERENCE_DEPTH + 1):
            (tmp_path / f"{i}.json").write_text(f'"{i + 1}.json"')
        with pytest.raises(DocumentError, match="chained path references"):
            algebra_from_doc("0.json", tmp_path)


class TestCochainDocs:
    def test_round_trip(self):
        f = Cochain.from_map(2, 2, 2,
                             lambda idx: (Q(idx[0]), Q(idx[1], 2)))
        doc = cochain_to_doc(f)
        assert cochain_from_doc(doc, 2, 2) == f

    def test_wrong_shape_rejected(self):
        f = Cochain.zero(1, 2, 2)
        doc = cochain_to_doc(f)
        with pytest.raises(DocumentError):
            cochain_from_doc(doc, 3, 2)
