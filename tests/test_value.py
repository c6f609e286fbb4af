"""The :class:`~bihom.linalg.Value` base against the frozen dataclasses it
replaces (``FROZEN_TWINS`` in ``oracles.py``): the same fields, the same
construction and ``__post_init__`` errors, the same ``==``, ``hash`` and
``repr``, and instances that cannot be changed but still cache.  A cold
``import bihom.cli`` must load neither ``dataclasses`` nor ``inspect``.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import make_dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bihom
from bihom import (
    AxiomReport,
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    BilinearProduct,
    Cochain,
    CohomologyReport,
    LieRep,
    Matrix,
    PreLieRep,
    TwistPair,
    Violation,
    subadjacent,
)
from bihom.linalg import Value

from catalog import lie_rep_fixtures, prelie_fixtures, prelie_rep_fixtures
from oracles import FROZEN_TWINS, VALUE_FIELDS

Q = Fraction

rationals = st.sampled_from([Q(0)] * 3 + [Q(1), Q(-1), Q(1, 2), Q(3)])


@lru_cache(maxsize=None)
def _algebras() -> tuple[BiHomPreLieAlgebra, ...]:
    return tuple(a for _, a in prelie_fixtures())


@lru_cache(maxsize=None)
def _prelie_reps() -> tuple[PreLieRep, ...]:
    return tuple(r for _, r in prelie_rep_fixtures())


@lru_cache(maxsize=None)
def _lie_reps() -> tuple[LieRep, ...]:
    return tuple(r for _, r in lie_rep_fixtures())


def grids(rows: int, cols: int):
    """``rows`` x ``cols`` nested tuples of rationals."""
    return st.tuples(*[st.tuples(*[rationals] * cols)] * rows)


def nested(depth: int, adim: int, vdim: int):
    """A cochain tensor: ``depth`` levels of ``adim`` over ``vdim`` values."""
    if depth == 0:
        return st.tuples(*[rationals] * vdim)
    return st.tuples(*[nested(depth - 1, adim, vdim)] * adim)


def off_by(draw, x: int) -> int:
    """x, or sometimes x + 1, which the value type's checks reject."""
    return x + draw(st.sampled_from([0, 0, 0, 1]))


@st.composite
def squares(draw, n: int) -> Matrix:
    if draw(st.booleans()):
        return Matrix.identity(n)
    return Matrix(n, n, draw(grids(n, n)))


@st.composite
def matrix_args(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = draw(grids(rows, cols))
    return (draw(st.sampled_from([rows, rows, rows + 1, -1])),
            off_by(draw, cols), entries)


@st.composite
def product_args(draw):
    n = draw(st.integers(0, 2))
    return off_by(draw, n), draw(st.tuples(*[grids(n, n)] * n))


@st.composite
def twist_args(draw):
    n = draw(st.integers(0, 2))
    return draw(squares(n)), draw(squares(off_by(draw, n)))


@st.composite
def prelie_algebra_args(draw):
    a, b = draw(st.sampled_from(_algebras())), draw(st.sampled_from(_algebras()))
    return a.product, b.twists


@st.composite
def lie_algebra_args(draw):
    g = subadjacent(draw(st.sampled_from(_algebras())))
    return g.bracket, draw(st.sampled_from(_algebras())).twists


@st.composite
def violation_args(draw):
    return (draw(st.sampled_from(["left-symmetry", "jacobi", ""])),
            draw(st.lists(st.integers(0, 3), max_size=3).map(tuple)),
            draw(st.lists(rationals, max_size=3).map(tuple)))


@st.composite
def report_args(draw):
    return (tuple(Violation(*args) for args in
                  draw(st.lists(violation_args(), max_size=2))),)


@st.composite
def rep_args(draw, reps):
    r = draw(st.sampled_from(reps()))
    args = [getattr(r, name) for name in VALUE_FIELDS[type(r)]]
    args[1] = off_by(draw, r.vdim)
    return tuple(args)


@st.composite
def cochain_args(draw):
    degree, adim, vdim = (draw(st.integers(0, 2)), draw(st.integers(0, 2)),
                          draw(st.integers(0, 2)))
    return (degree, off_by(draw, adim), vdim,
            draw(nested(degree, adim, vdim)))


@st.composite
def report_dims_args(draw):
    degree, z, b = (draw(st.integers(1, 3)), draw(st.integers(0, 4)),
                    draw(st.integers(0, 4)))
    return degree, z, b, draw(st.sampled_from([z - b, z - b, z - b + 1]))


ARGS = {
    Matrix: matrix_args(),
    BilinearProduct: product_args(),
    TwistPair: twist_args(),
    BiHomPreLieAlgebra: prelie_algebra_args(),
    BiHomLieAlgebra: lie_algebra_args(),
    Violation: violation_args(),
    AxiomReport: report_args(),
    PreLieRep: rep_args(_prelie_reps),
    LieRep: rep_args(_lie_reps),
    Cochain: cochain_args(),
    CohomologyReport: report_dims_args(),
}

cases = st.one_of(*[st.tuples(st.just(cls), args) for cls, args in ARGS.items()])


def outcome(make):
    """``(result, None)``, or ``(None, (type, message))`` if ``make`` raises."""
    try:
        return make(), None
    except Exception as exc:  # any error: the two sides must raise the same
        return None, (type(exc), str(exc))


class TestAgainstFrozenDataclass:
    def test_every_value_type_has_a_twin(self):
        assert {cls for cls in Value.__subclasses__()
                if cls.__module__.startswith("bihom.")} == set(VALUE_FIELDS)

    @pytest.mark.parametrize("cls", list(VALUE_FIELDS),
                             ids=lambda cls: cls.__name__)
    def test_fields_are_the_annotations_in_order(self, cls):
        assert cls._fields == VALUE_FIELDS[cls]

    @given(case=cases)
    def test_construction_repr_and_hash(self, case):
        cls, args = case
        twin = FROZEN_TWINS[cls]
        value, error = outcome(lambda: cls(*args))
        ref, ref_error = outcome(lambda: twin(*args))
        assert error == ref_error
        if error is not None:
            return
        assert repr(value) == repr(ref)
        assert outcome(lambda: hash(value)) == outcome(lambda: hash(ref))
        keywords = dict(reversed(list(zip(VALUE_FIELDS[cls], args))))
        assert cls(**keywords) == value
        assert cls(*args[:1], **dict(list(keywords.items())[:-1])) == value

    @given(data=st.data())
    def test_equality(self, data):
        cls, args = data.draw(cases)
        other = data.draw(ARGS[cls])
        mixed = tuple(data.draw(st.sampled_from([x, y]))
                      for x, y in zip(args, other))
        twin = FROZEN_TWINS[cls]
        value, error = outcome(lambda: cls(*args))
        if error is not None:
            return
        for right in (args, other, mixed):
            right_value, error = outcome(lambda: cls(*right))
            if error is None:
                expected = twin(*args), twin(*right)
                assert (value == right_value) == (expected[0] == expected[1])
                assert (value != right_value) == (expected[0] != expected[1])
        assert value == cls(*args)
        assert value.__eq__(twin(*args)) is NotImplemented
        assert value != twin(*args)
        assert value.__eq__(args) is NotImplemented

    def test_subclass_keeps_fields_and_compares_by_exact_class(self):
        class Tagged(Matrix):
            pass

        m, t = Matrix.identity(1), Tagged(1, 1, ((Q(1),),))
        assert Tagged._fields == Matrix._fields
        assert repr(t).endswith(
            ".Tagged(rows=1, cols=1, entries=((Fraction(1, 1),),))")
        assert m.__eq__(t) is NotImplemented and m != t
        assert t == Tagged(rows=1, cols=1, entries=((Q(1),),))


class TestConstruction:
    @pytest.mark.parametrize("make", [
        lambda: Matrix(1, 1),
        lambda: Matrix(1, 1, ((Q(1),),), 4),
        lambda: Matrix(1, 1, ((Q(1),),), shape=2),
        lambda: Matrix(1, 1, ((Q(1),),), rows=1),
        lambda: CohomologyReport(degree=1, dimZ=0, dimB=0),
    ])
    def test_bad_arguments_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("cls, args, error", [
        (Matrix, (-1, 0, ()), "matrix dimensions must be nonnegative"),
        (Matrix, (2, 0, ((),)), "row count does not match entries"),
        (BilinearProduct, (1, ()), "structure tensor is not 1x1x1"),
        (TwistPair, (Matrix.zeros(1, 1), Matrix.identity(1)),
         "twist map alpha must be invertible"),
        (CohomologyReport, (1, 1, 2, -1), "inconsistent cohomology dimensions"),
        (Cochain, (0, 1, 1, (Q(0),)), "cochains have degree >= 1"),
    ])
    def test_post_init_errors_unchanged(self, cls, args, error):
        (_, got), (_, expected) = (outcome(lambda: make(*args))
                                   for make in (cls, FROZEN_TWINS[cls]))
        assert got == expected
        assert issubclass(got[0], ValueError) and got[1] == error


class TestFrozen:
    @pytest.fixture(params=list(VALUE_FIELDS), ids=lambda cls: cls.__name__)
    def value(self, request):
        samples = {
            Matrix: Matrix.identity(2),
            BilinearProduct: BilinearProduct.zero(1),
            TwistPair: TwistPair.identity(1),
            BiHomPreLieAlgebra: _algebras()[0],
            BiHomLieAlgebra: subadjacent(_algebras()[0]),
            Violation: Violation("jacobi", (0,), (Q(1),)),
            AxiomReport: AxiomReport(()),
            PreLieRep: _prelie_reps()[0],
            LieRep: _lie_reps()[0],
            Cochain: Cochain.zero(1, 1, 1),
            CohomologyReport: CohomologyReport(1, 1, 0, 1),
        }
        return samples[request.param]

    def test_assignment_and_deletion_raise(self, value):
        for name in type(value)._fields + ("extra",):
            before = getattr(value, name, None)
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name, None) is before

    def test_matrix_sparse_rows_cache(self):
        m = Matrix.from_rows([[0, 1], [0, 0]])
        assert "sparse_rows" not in vars(m)
        rows = m.sparse_rows
        assert rows == ({1: Q(1)}, {})
        assert m.sparse_rows is rows and vars(m)["sparse_rows"] is rows
        assert m == Matrix.from_rows([[0, 1], [0, 0]])
        assert repr(m) == repr(Matrix.from_rows([[0, 1], [0, 0]]))

    def test_from_sparse_keeps_its_rows(self):
        m = Matrix.from_sparse([{1: Q(2), 0: Q(0)}, {}], 2)
        assert vars(m)["sparse_rows"] == ({1: Q(2)}, {})
        assert m.sparse_rows is vars(m)["sparse_rows"]
        assert m == Matrix.from_rows([[0, 2], [0, 0]])

    def test_product_terms_cache(self):
        p = BilinearProduct.from_entries([[[0, 1], [0, 0]], [[0, 0], [2, 0]]])
        assert "terms" not in vars(p)
        terms = p.terms
        assert terms[0][0] == ((1, Q(1)),) and terms[1][1] == ((0, Q(2)),)
        assert p.terms is terms and vars(p)["terms"] is terms
        assert hash(p) == hash(FROZEN_TWINS[BilinearProduct](p.dim, p.c))


def test_instances_are_no_larger_than_the_dataclass():
    # fields set one by one stay in the instance's compact storage; two
    # new classes, so that no earlier instance has changed either's layout
    class Pair(Value):
        left: object
        right: object

    twin = make_dataclass("Pair", ["left", "right"], frozen=True)

    def traced_bytes(cls):
        [cls(1, 2) for _ in range(10)]
        tracemalloc.start()
        kept = [cls(1, 2) for _ in range(1000)]
        used = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert len(kept) == 1000
        return used

    assert traced_bytes(Pair) <= 1.05 * traced_bytes(twin)


def test_cold_import_loads_no_dataclasses_or_inspect():
    # -S keeps site-packages hooks out of what is measured
    code = ("import bihom.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(bihom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
