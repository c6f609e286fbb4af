"""The free-coordinate store of :class:`~bihom.cohomology.Cochain` against
the tensor-stored cochain it replaced (``DenseCochain`` in ``oracles.py``).

A cochain read from a skew tensor must agree with the tensor on the value
at every basis tuple, on multilinear evaluation, on ``is_zero``, on the
tensor view and on its JSON document, and must come back unchanged from
that document.  A tensor that is not skew in its first n-1 indices is
refused when it is read.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bihom import Cochain

from oracles import DenseCochain, _canonical_sign

Q = Fraction

rationals = st.sampled_from([Q(0)] * 3 + [Q(1), Q(-1), Q(1, 2), Q(3)])
SKEW = "not a cochain: fails skew-symmetry in the leading arguments"


@st.composite
def skew_tensors(draw, least: tuple[int, int, int] = (1, 0, 0)
                 ) -> DenseCochain:
    """A tensor skew in its first n-1 indices, from random values on the
    tuples with a strictly increasing head: degree n in 1..4, adim in 0..3
    and vdim in 0..2, each at least ``least``."""
    n, adim, vdim = (draw(st.integers(lo, hi))
                     for lo, hi in zip(least, (4, 3, 2)))
    free = {}
    for head in itertools.combinations(range(adim), n - 1):
        for last in range(adim):
            free[head + (last,)] = tuple(draw(rationals) for _ in range(vdim))

    def get(idx):
        sign, canon = _canonical_sign(idx)
        if canon is None:
            return (Q(0),) * vdim
        return tuple(sign * x for x in free[canon])

    return DenseCochain.from_map(n, adim, vdim, get)


def _tuples(ref: DenseCochain):
    return itertools.product(range(ref.adim), repeat=ref.degree)


class TestAgainstTensorStore:
    @given(ref=skew_tensors(), data=st.data())
    def test_same_cochain(self, ref, data):
        f = Cochain.from_map(ref.degree, ref.adim, ref.vdim, ref.at)
        assert all(f.at(idx) == ref.at(idx) for idx in _tuples(ref))
        assert f.tensor == ref.tensor
        assert f.is_zero == ref.is_zero
        assert (f == Cochain.zero(ref.degree, ref.adim, ref.vdim)) == ref.is_zero
        for _ in range(3):
            args = [tuple(data.draw(rationals) for _ in range(ref.adim))
                    for _ in range(ref.degree)]
            assert f.value(args) == ref.value(args)
        doc = f.to_json()
        assert doc == ref.to_json()
        assert Cochain.from_json(doc, ref.adim, ref.vdim) == f
        assert DenseCochain.from_json(doc, ref.adim, ref.vdim) == ref

    # below degree 3 every tuple has a strictly increasing head
    @given(ref=skew_tensors(least=(3, 1, 1)), data=st.data())
    def test_tensor_that_is_not_skew_is_refused(self, ref, data):
        moved = [idx for idx in _tuples(ref) if _canonical_sign(idx)[1] != idx]
        bumped = data.draw(st.sampled_from(moved))
        k = data.draw(st.integers(0, ref.vdim - 1))

        def get(idx):
            value = ref.at(idx)
            if idx != bumped:
                return value
            return value[:k] + (value[k] + 1,) + value[k + 1:]

        with pytest.raises(ValueError, match=SKEW):
            Cochain.from_map(ref.degree, ref.adim, ref.vdim, get)
        doc = DenseCochain.from_map(ref.degree, ref.adim, ref.vdim, get).to_json()
        with pytest.raises(ValueError, match=SKEW):
            Cochain.from_json(doc, ref.adim, ref.vdim)


def test_huge_degree_over_no_tuples_is_cheap():
    # adim 0 has no basis tuples at any degree; adim 1 gives a tensor of
    # depth n, so a shallow document is refused for its shape
    f = Cochain.from_json({"degree": 10 ** 18, "tensor": []}, 0, 1)
    assert f.coords == () and f.is_zero and f.to_json()["tensor"] == []
    with pytest.raises(ValueError, match="nested array"):
        Cochain.from_json({"degree": 10 ** 18, "tensor": [[[0]]]}, 1, 1)
    assert Cochain.zero(10 ** 18, 1, 1).coords == ()
