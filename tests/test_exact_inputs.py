"""Every public entry point that turns dense values into exact ones applies
one rule, :func:`~bihom.linalg.as_rational`: ``Fraction``, ``int`` and
``"p/q"`` strings are read exactly, and anything else, a float above all,
raises ValueError.  The dense evaluators also check vector lengths, as
:meth:`Matrix.apply` does, instead of failing inside the arithmetic or
padding a short vector with zeros."""

from fractions import Fraction

import pytest

from bihom import (
    BiHomPreLieAlgebra,
    BilinearProduct,
    Cochain,
    Matrix,
    adjoint_rep,
    cochain_space,
)

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
    assert Matrix(1, 2, (("1/2", 0),)).sparse_rows == ({0: Q(1, 2)},)


def test_zero_strings_leave_no_stored_zero():
    assert Matrix.from_sparse([{0: "0", 1: "0/5"}], 2).sparse_rows == ({},)
    assert Matrix(1, 1, (("0",),)).sparse_rows == ({},)


@pytest.mark.parametrize("make", [
    lambda: plane().product.value([1, 0, 1], [1, 0]),
    lambda: plane().product.value([1, 0], [1]),
    lambda: plane_cochain(1).value([[1, 0, 1]]),
    lambda: plane_cochain(1).value([[1]]),
    lambda: plane_cochain(2).value([[1], [1, 0]]),
], ids=["product_long", "product_short", "cochain_long", "cochain_short",
        "cochain_short_head"])
def test_vector_lengths_are_checked(make):
    with pytest.raises(ValueError, match="vector length"):
        make()
