"""Every public entry point that turns dense values into exact ones applies
one rule, :func:`~bihom.linalg.as_rational`: ``Fraction``, ``int`` and
``"p/q"`` strings are read exactly, and anything else, a float or a
boolean above all, raises ValueError, as the JSON loader does.  The direct
constructors of ``Matrix``, ``BilinearProduct`` and ``Cochain`` store what
they are given, so they take only ``Fraction`` and ``int`` entries.  The
dense evaluators also check vector lengths, as :meth:`Matrix.apply` does,
instead of failing inside the arithmetic or padding a short vector with
zeros."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bihom import (
    BiHomPreLieAlgebra,
    BilinearProduct,
    Cochain,
    Matrix,
    adjoint_rep,
    cochain_space,
)
from bihom import cli, linalg
from bihom.linalg import as_rational

from oracles import ANCHORED_DEGREES, ANCHORED_RATIONAL

Q = Fraction


def line() -> BiHomPreLieAlgebra:
    """The one-dimensional algebra with e . e = e."""
    return BiHomPreLieAlgebra.classical(BilinearProduct.from_entries([[[1]]]))


def plane() -> BiHomPreLieAlgebra:
    return BiHomPreLieAlgebra.classical(BilinearProduct.zero(2))


def plane_cochain(degree: int) -> Cochain:
    a = plane()
    return cochain_space(a, adjoint_rep(a), degree).basis[0]


@pytest.mark.parametrize("make", [
    lambda: Matrix.identity(2).apply([Q(1, 2), 0.5]),
    lambda: Matrix(1, 1, ((0.1,),)),
    lambda: Matrix.from_sparse([{0: 0.0}], 1),
    lambda: BilinearProduct(1, (((0.25,),),)),
    lambda: line().product.value([0.5], [3]),
    lambda: adjoint_rep(line()).L_of([0.25]),
    lambda: cochain_space(line(), adjoint_rep(line()), 1).combine([0.5]),
    lambda: Cochain(1, 1, 1, (0.5,)),
    lambda: plane_cochain(1).value([[0.5, 0]]),
], ids=["apply", "Matrix", "from_sparse_zero", "BilinearProduct", "value",
        "L_of", "combine", "Cochain", "cochain_value"])
def test_floats_are_refused(make):
    with pytest.raises(ValueError, match="exact rational"):
        make()


def test_rational_strings_are_read_exactly():
    assert Matrix.identity(1).apply(["1/2"]) == (Q(1, 2),)
    assert line().product.value(["1/2"], ["-3"]) == (Q(-3, 2),)
    assert Matrix.from_rows([["1/2", 0]]).sparse_rows == ({0: Q(1, 2)},)


def test_zero_strings_leave_no_stored_zero():
    assert Matrix.from_sparse([{0: "0", 1: "0/5"}], 2).sparse_rows == ({},)
    assert Matrix.from_rows([["0"]]).sparse_rows == ({},)


@pytest.mark.parametrize("make", [
    lambda: Matrix(1, 2, (("1/2", 0),)),
    lambda: Matrix(1, 1, ((True,),)),
    lambda: BilinearProduct(1, ((("1/2",),),)),
    lambda: BilinearProduct(1, (((False,),),)),
    lambda: Cochain(1, 1, 1, ("1/2",)),
], ids=["Matrix_str", "Matrix_bool", "BilinearProduct_str",
        "BilinearProduct_bool", "Cochain_str"])
def test_direct_constructors_take_fractions_and_ints_only(make):
    with pytest.raises(ValueError, match="expected a Fraction or an int"):
        make()


def test_direct_int_entries_hash_and_encode_as_fractions():
    m, f = Matrix(1, 2, ((3, 0),)), Matrix.from_rows([[Q(3), Q(0)]])
    assert m == f and hash(m) == hash(f)
    assert m.to_json() == f.to_json() == [[3, 0]]
    p = BilinearProduct(1, (((2,),),))
    assert p == BilinearProduct.from_entries([[[Q(2)]]])
    assert p.to_json() == [[[2]]]


@pytest.mark.parametrize("make", [
    lambda: as_rational(True),
    lambda: Matrix.identity(1).apply([True]),
    lambda: Matrix.from_rows([[True, False]]),
    lambda: Matrix.diagonal([False]),
    lambda: Matrix.identity(1).scale(True),
    lambda: line().product.value([True], [1]),
], ids=["as_rational", "apply", "from_rows", "diagonal", "scale", "value"])
def test_booleans_are_refused(make):
    with pytest.raises(ValueError, match="exact rational"):
        make()


@pytest.mark.parametrize("make, named", [
    (lambda: as_rational([0] * 100000), "an array"),
    (lambda: as_rational("1/" + "x" * 100000), "a 100002-character string"),
    (lambda: Matrix.from_rows([[{"k": "v" * 100000}]]), "an object"),
    (lambda: Matrix(1, 1, (("x" * 100000,),)), "a 100000-character string"),
], ids=["as_rational_list", "as_rational_str", "from_rows", "Matrix"])
def test_refused_values_are_named_briefly(make, named):
    """A refused value is named by its type, a string by its length and
    first characters, never echoed whole."""
    with pytest.raises(ValueError, match=named) as exc:
        make()
    assert len(str(exc.value)) < 120


@pytest.mark.parametrize("make", [
    lambda: plane().product.value([1, 0, 1], [1, 0]),
    lambda: plane().product.value([1, 0], [1]),
    lambda: plane_cochain(1).value([[1, 0, 1]]),
    lambda: plane_cochain(1).value([[1]]),
    lambda: plane_cochain(2).value([[1], [1, 0]]),
    lambda: Matrix.identity(2).apply([1]),
], ids=["product_long", "product_short", "cochain_long", "cochain_short",
        "cochain_short_head", "matrix_apply"])
def test_vector_lengths_are_checked(make):
    with pytest.raises(ValueError, match="vector length"):
        make()


@given(st.text(alphabet="0123456789+-/. \t\n\u0663x", max_size=10))
def test_literals_match_as_the_anchored_regexes_did(text):
    # as_rational strips its input, so it accepts what the anchored regex
    # did; a degree range no longer passes with a final newline, which the
    # anchor's ``$`` let through
    try:
        as_rational(text)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == bool(ANCHORED_RATIONAL.match(text.strip()))
    assert bool(re.fullmatch(linalg._RATIONAL, text.strip())) == accepted
    ours, anchored = re.fullmatch(cli._DEGREES, text), ANCHORED_DEGREES.match(text)
    whole = anchored is not None and anchored.end() == len(text)
    assert (ours is not None) == whole
    if whole:
        assert ours.groups() == anchored.groups()
