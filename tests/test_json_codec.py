"""The sparse JSON codec of :class:`~bihom.linalg.Matrix` and
:class:`~bihom.algebra.BilinearProduct` against the dense one it replaced
(``dense_matrix_from_json`` and its relatives in ``oracles.py``).

Decoding a document must give a value equal to the dense decoder's, with
the same hash and the same ``to_json``, without building the dense
``entries`` or ``c``; a malformed document must raise the dense decoder's
exception, of the same type and with the same message.  Every leaf is
decoded before any shape is checked, so a bad literal is reported ahead of
a ragged row.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bihom.algebra import BilinearProduct
from bihom.linalg import Matrix

from oracles import (
    dense_matrix_from_json,
    dense_matrix_to_json,
    dense_tensor_from_json,
    dense_tensor_to_json,
)

BIG = 10 ** 30

leaves = st.one_of(
    st.just(0),
    st.integers(-BIG, BIG),
    st.builds("{}/{}".format, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.sampled_from(["0", "-0/3", "0/7", "+0", " 0 ", "-6/3", "7"]),
)

bad_leaves = st.one_of(
    st.booleans(),
    st.floats(),
    st.sampled_from(["1/0", "x", "1.5", "", "1/-2", "--1", "1/2/3"]),
    st.none(),
    # fresh objects: corrupted() may assign into a drawn list
    st.builds(lambda: [1]),
    st.builds(dict),
)


def outcome(decode, *args):
    """What ``decode(*args)`` returns, or the type and message of the
    ValueError it raises."""
    try:
        return decode(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def matrix_docs(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    row = st.lists(leaves, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows)), cols


@st.composite
def tensor_docs(draw):
    n = draw(st.integers(0, 3))

    def cube(depth):
        inner = leaves if depth == 0 else cube(depth - 1)
        return st.lists(inner, min_size=n, max_size=n)

    return draw(cube(2))


def check_matrix(doc, cols=None) -> None:
    got = outcome(Matrix.from_json, doc, cols)
    want = outcome(dense_matrix_from_json, doc, cols)
    if not isinstance(want, Matrix):
        assert got == want
        return
    assert "entries" not in vars(got)
    assert got.to_json() == dense_matrix_to_json(want)
    assert "entries" not in vars(got)
    assert got == want and hash(got) == hash(want)
    assert got.entries == want.entries


def check_tensor(doc) -> None:
    got = outcome(BilinearProduct.from_json, doc)
    want = outcome(dense_tensor_from_json, doc)
    if not isinstance(want, BilinearProduct):
        assert got == want
        return
    assert "c" not in vars(got) and "entries" not in vars(got.table)
    assert got.to_json() == dense_tensor_to_json(want)
    assert "c" not in vars(got) and "entries" not in vars(got.table)
    assert got == want and hash(got) == hash(want)
    assert got.c == want.c


@given(matrix_docs(), st.sampled_from([None, 0, 1]))
def test_matrix_matches_dense_codec(doc_and_width, shift):
    doc, width = doc_and_width
    check_matrix(doc, None if shift is None else width + shift)


@given(tensor_docs())
def test_tensor_matches_dense_codec(doc):
    check_tensor(doc)


@st.composite
def corrupted(draw, docs):
    """A document with up to three corruptions: a leaf replaced by a bad
    one, or, at a random depth, an array lengthened or shortened by one or
    replaced by a leaf."""
    doc = draw(docs)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["leaf", "longer", "shorter", "flat"]))
        path, node = [], doc
        while isinstance(node, list) and node and (
                kind == "leaf" or draw(st.booleans())):
            path.append(draw(st.integers(0, len(node) - 1)))
            node = node[path[-1]]
        if kind == "longer" and isinstance(node, list):
            new = node + [draw(leaves)]
        elif kind == "shorter" and isinstance(node, list) and node:
            new = node[:-1]
        elif kind == "flat":
            new = draw(leaves)
        else:
            new = draw(bad_leaves)
        if not path:
            doc = new
            continue
        parent = doc
        for i in path[:-1]:
            parent = parent[i]
        parent[path[-1]] = new
    return doc


@given(corrupted(matrix_docs().map(lambda dw: dw[0])),
       st.one_of(st.none(), st.integers(0, 4)))
def test_malformed_matrix_fails_as_dense_codec(doc, cols):
    check_matrix(doc, cols)


@given(corrupted(tensor_docs()))
def test_malformed_tensor_fails_as_dense_codec(doc):
    check_tensor(doc)


@pytest.mark.parametrize("doc, cols", [
    ([], None),
    ([], 3),
    ([[]], None),
    ([[]], 2),
    ([[1, 2]], 3),
    ([[1, 2], [3]], None),
    ([[1, 2], [3]], 2),
    ([[1, "x"], [3]], 2),
    ([[1, 2], [True]], None),
    ([[0.5, 0]], None),
    ([[0], [1, 2, 3]], 5),
    ([[1], 2], None),
    ("[[1]]", None),
    ({"rows": []}, None),
], ids=lambda v: repr(v)[:30])
def test_matrix_edge_cases(doc, cols):
    check_matrix(doc, cols)


@pytest.mark.parametrize("doc", [
    [],
    [[]],
    [[[]]],
    [[[1]], [[2]]],
    [[[1, 0], [0, 1]], [[0, 0]]],
    [[["x", 0], [0]], [[0, 0], [0, 0]]],
    [[[0, 0], [0, 0]], [[0, 0], [0, 1.0]]],
    [[[False]]],
    [[1]],
    [[[1]], 2],
    "[[[1]]]",
], ids=lambda v: repr(v)[:30])
def test_tensor_edge_cases(doc):
    check_tensor(doc)
