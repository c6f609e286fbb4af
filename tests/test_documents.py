import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihom import (
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    BilinearProduct,
    Matrix,
    PreLieRep,
    SingularMatrixError,
    TwistPair,
    adjoint_lie_rep,
    adjoint_rep,
    subadjacent,
)
from bihom.cohomology import Cochain
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
from bihom.linalg import rational_from_json

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

    @pytest.mark.parametrize("tensor", [[1], [[1]], [["1"]], [[{"0": 1}]],
                                        [[[1]], 1]])
    def test_tensor_must_be_an_array_at_every_level(self, tensor):
        # a string at the vector level used to be read character by character
        with pytest.raises(DocumentError, match=r"algebra\.product"):
            algebra_from_doc({"dim": 1, "product": tensor,
                              "alpha": [[1]], "beta": [[1]]})
        with pytest.raises(DocumentError, match=r"deformation\.pi"):
            deformation_from_doc({"pi": tensor})

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

    def test_dim_zero_round_trip(self):
        # ``[]`` carries no width: the expected shape supplies it
        empty = BiHomPreLieAlgebra(BilinearProduct.zero(0), TwistPair.identity(0))
        doc = algebra_to_doc(empty)
        assert doc == {"dim": 0, "product": [], "alpha": [], "beta": []}
        assert algebra_from_doc(doc) == empty
        zero = Matrix.zeros(0, 0)
        line = BiHomPreLieAlgebra(BilinearProduct.zero(1), TwistPair.identity(1))
        for rep in (adjoint_rep(empty),
                    PreLieRep(line, 0, (zero,), (zero,), zero, zero)):
            assert rep_from_doc(rep_to_doc(rep)) == rep

    def test_empty_matrix_of_nonzero_dim_rejected(self):
        with pytest.raises(DocumentError,
                           match=r"algebra\.alpha: expected a 1x1 matrix, "
                                 r"got 0x1"):
            algebra_from_doc({"dim": 1, "product": [[[0]]], "alpha": [],
                              "beta": [[1]]})

    def test_wrong_width_message_unchanged(self):
        with pytest.raises(DocumentError,
                           match=r"algebra\.alpha: expected a 2x2 matrix, "
                                 r"got 1x3"):
            algebra_from_doc({"dim": 2, "product": [[[0, 0], [0, 0]]] * 2,
                              "alpha": [[1, 0, 0]], "beta": [[1, 0], [0, 1]]})

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
        candidate = alg.product
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

    def test_unresolvable_reference_is_a_document_error(self, tmp_path):
        (tmp_path / "a.json").symlink_to("b.json")
        (tmp_path / "b.json").symlink_to("a.json")
        (tmp_path / "latin1.json").write_bytes(b'"\xe9"')
        for doc in ("a.json", "nul\x00.json", "latin1.json"):
            with pytest.raises(DocumentError):
                algebra_from_doc(doc, tmp_path)

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

    def test_boolean_degree_rejected(self):
        with pytest.raises(DocumentError, match="degree must be an integer"):
            cochain_from_doc({"degree": True, "tensor": [[0], [0]]}, 2, 1)

    def test_tensor_that_is_not_skew_rejected(self):
        # t[i][j] = -t[j][i] and t[i][i] = 0: every one-entry edit breaks it
        t = cochain_to_doc(Cochain(3, 2, 1, (Q(1), Q(-2))))["tensor"]
        for i, j, k in itertools.product(range(2), repeat=3):
            edited = [[[list(v) for v in row] for row in plane] for plane in t]
            edited[i][j][k][0] += 1
            with pytest.raises(DocumentError, match="skew-symmetry"):
                cochain_from_doc({"degree": 3, "tensor": edited}, 2, 1)


# ---------------------------------------------------------------------------
# fuzzing: every loader returns or raises DocumentError
# ---------------------------------------------------------------------------

KEYS = ["dim", "product", "bracket", "alpha", "beta", "algebra", "vdim", "L",
        "R", "rho", "phi", "psi", "matrix", "representation", "pi", "N",
        "degree", "tensor"]
FILES = ["alg.json", "rep.json", "loop.json", "bad.json", "missing.json",
         "symlink-loop.json", "latin1.json", "nul\x00.json", "."]

scalars = (st.none() | st.booleans() | st.integers(-2, 3)
           | st.floats(allow_nan=False) | st.text(max_size=3)
           | st.sampled_from(["1/2", "-3/4", "1/0", "x", *FILES]))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2),
                                     inner, max_size=4)),
    max_leaves=24)


def _valid_docs() -> dict[str, tuple[str, object]]:
    """Valid documents by kind, each with the loader that reads it."""
    alg = dim2_nilpotent(2, 3)
    glie = subadjacent(alg)
    return {
        "algebra": ("algebra", algebra_to_doc(alg)),
        "lie-algebra": ("algebra", algebra_to_doc(glie)),
        "rep": ("rep", rep_to_doc(adjoint_rep(alg))),
        "lie-rep": ("rep", {**rep_to_doc(adjoint_lie_rep(glie)),
                            "algebra": "alg.json"}),
        "operator": ("operator", {"matrix": Matrix.identity(2).to_json(),
                                  "representation": "rep.json"}),
        "deformation": ("deformation", deformation_to_doc(alg.product)),
        "nijenhuis": ("nijenhuis", nijenhuis_to_doc(Matrix.identity(2))),
        "twists": ("twists", {"alpha": [[1, 0], [0, 1]], "beta": [[2, 0], [0, 4]],
                              "phi": [[1]], "psi": [[1]]}),
        "cochain": ("cochain", cochain_to_doc(Cochain.zero(2, 2, 1))),
        # skew in its first two indices, so most one-entry edits are not
        "cochain-3": ("cochain", cochain_to_doc(Cochain(3, 2, 1, (Q(1), Q(-2))))),
    }


LOADERS = {
    "algebra": lambda doc, base: algebra_from_doc(doc, base),
    "rep": lambda doc, base: rep_from_doc(doc, base),
    "operator": lambda doc, base: operator_from_doc(doc, base),
    "deformation": lambda doc, base: deformation_from_doc(doc),
    "nijenhuis": lambda doc, base: nijenhuis_from_doc(doc),
    "twists": lambda doc, base: twists_from_doc(doc),
    "cochain": lambda doc, base: cochain_from_doc(doc, 2, 1),
}


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


rational_literals = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/4", "5/3"])


def _rational(node) -> Fraction | None:
    """The value of a rational leaf of a document, else None."""
    try:
        return rational_from_json(node)
    except ValueError:
        return None


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _replaced(node, path, value, delete=False):
    """A copy of ``node`` with the entry at ``path`` replaced (or removed)."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    out = dict(node) if isinstance(node, dict) else list(node)
    if delete and not rest:
        del out[head]
    else:
        out[head] = _replaced(node[head], rest, value, delete)
    return out


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A directory of referenced documents: valid, cyclic and malformed."""
    root = tmp_path_factory.mktemp("refs")
    docs = _valid_docs()
    dump_json(root / "alg.json", docs["lie-algebra"][1])
    dump_json(root / "rep.json", docs["lie-rep"][1])
    (root / "loop.json").write_text('"loop.json"')
    (root / "bad.json").write_text("{not json")
    (root / "symlink-loop.json").symlink_to("symlink-loop.json")
    (root / "latin1.json").write_bytes(b'"\xe9"')
    return root


def _decoded(node):
    if isinstance(node, list):
        return [_decoded(child) for child in node]
    return rational_from_json(node)


def _loads_or_document_error(loader: str, doc, base) -> None:
    try:
        out = LOADERS[loader](doc, base)
    except DocumentError:
        return
    except SingularMatrixError:
        # a well-formed document with a singular twist map: the documented
        # semantic error of the algebra constructors
        return
    if loader == "cochain":
        # a cochain keeps the values of a skew tensor only, so one that
        # loads writes back every value it was read from
        assert (_decoded(cochain_to_doc(out)["tensor"])
                == _decoded(doc["tensor"]))


class TestLoaderFuzz:
    @settings(max_examples=300)
    @given(loader=st.sampled_from(sorted(LOADERS)), doc=json_values)
    def test_random_json(self, base, loader, doc):
        _loads_or_document_error(loader, doc, base)

    @settings(max_examples=300)
    @given(kind=st.sampled_from(sorted(_valid_docs())), data=st.data())
    def test_near_valid_documents(self, base, kind, data):
        """One or two entries of a valid document replaced or removed; a
        rational leaf may instead become another rational, which keeps the
        shape, so the checks behind it (a cochain's skew-symmetry) run."""
        loader, doc = _valid_docs()[kind]
        for _ in range(data.draw(st.integers(1, 2))):
            paths = list(_paths(doc))
            leaves = [path for path in paths
                      if _rational(_at(doc, path)) is not None]
            if leaves and data.draw(st.booleans()):
                path = data.draw(st.sampled_from(leaves))
                old = _rational(_at(doc, path))
                doc = _replaced(doc, path, data.draw(rational_literals.filter(
                    lambda x: _rational(x) != old)))
                continue
            path = data.draw(st.sampled_from(paths))
            delete = bool(path) and data.draw(st.booleans())
            doc = _replaced(doc, path, None if delete else data.draw(json_values),
                            delete)
        _loads_or_document_error(loader, doc, base)
