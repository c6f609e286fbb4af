"""The one scalar rule of :mod:`bihom.linalg`: a sparse row holds an
``int`` exactly where a value is integral and a ``Fraction`` elsewhere,
and every dense view holds ``Fraction`` entries.

The property runs every builder and kernel of sparse rows on the catalog
algebras and on the bench's conjugates of them (``_monomial`` scales by
1/2, so its conjugates mix both classes); the AST tests keep the rule
owned by ``linalg``.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import bihom
from bihom import (BilinearProduct, Cochain, Matrix, adjoint_rep, inverse,
                   trivial_rep)
from bihom.cohomology import CochainSpace
from bihom.linalg import _row_product, _rref, _sparse, linear_combination

from catalog import prelie_fixtures
from oracles import held_by_rule
import workloads

Q = Fraction


def rows_held_by_rule(rows) -> bool:
    return held_by_rule(a for row in rows for a in row.values())


def dense_fractions(m: Matrix) -> bool:
    return (all(type(a) is Fraction for row in m.entries for a in row)
            and all(type(a) is Fraction for j in range(m.cols)
                    for a in m.col(j)))


def spellings(m: Matrix) -> list[Matrix]:
    """``m`` rebuilt from sparse rows that spell each entry as a
    ``Fraction``, as a ``"p/q"`` string and as an ``int`` where integral,
    and from its JSON form and a JSON form of ``"p/q"`` literals only."""
    rows = m.sparse_rows
    return [Matrix.from_sparse([{j: Q(a) for j, a in r.items()} for r in rows],
                               m.cols),
            Matrix.from_sparse([{j: f"{Q(a).numerator}/{Q(a).denominator}"
                                 for j, a in r.items()} for r in rows], m.cols),
            Matrix.from_sparse([{j: int(a) if Q(a).denominator == 1 else a
                                 for j, a in r.items()} for r in rows], m.cols),
            Matrix.from_json(m.to_json(), m.cols),
            Matrix.from_json([[f"{a.numerator}/{a.denominator}" for a in row]
                              for row in m.entries], m.cols)]


algebras = st.tuples(
    st.sampled_from(prelie_fixtures()),
    st.sampled_from([None, workloads._monomial, workloads._unipotent]),
    st.integers(0, 2 ** 16),
)


@settings(max_examples=30)
@given(algebras)
def test_builders_and_kernels_hold_rows_by_the_rule(drawn):
    (name, alg), change, seed = drawn
    if change is not None:
        alg = workloads.conjugate(alg, change(random.Random(seed), alg.dim))
    alpha, beta, table = alg.alpha, alg.beta, alg.product.table
    half = [Q(1, 2) if i % 2 else i + 1 for i in range(alg.dim)]
    matrices = [alpha, beta, table, *spellings(alpha), *spellings(table),
                alpha.scale(Q(1, 2)), alpha.scale(2), alpha.scale(Q(4, 2)),
                alpha.scale("3/2"), Q(2, 3) * alpha, alpha @ beta,
                alpha + beta, alpha - beta, -alpha, alpha.kron(beta),
                alpha.power(3), alpha.power(-2), inverse(beta),
                alpha.transpose(),
                linear_combination(alg.product.left_matrices(), half)]
    for m in matrices:
        assert rows_held_by_rule(m.sparse_rows), name
        assert dense_fractions(m), name
    reduced, _ = _rref(_sparse(alpha @ alpha.scale(Q(1, 2)) - beta), alg.dim)
    assert rows_held_by_rule(reduced)
    assert rows_held_by_rule(_row_product(table.sparse_rows,
                                          alpha.scale(Q(1, 3)).sparse_rows))
    product = BilinearProduct.from_json(alg.product.to_json())
    assert rows_held_by_rule(product.table.sparse_rows)
    u = dict(enumerate(half))
    assert held_by_rule(alg.product.sparse_value(u, u).values())
    assert all(type(a) is Fraction for a in alg.product.value(half, half))
    for rep in (adjoint_rep(alg), trivial_rep(alg)):
        for n in (1, 2):
            space = CochainSpace(alg, rep, n)
            for table in space.tables.values():
                for rows in table:
                    assert rows_held_by_rule(rows), (name, n)
            assert rows_held_by_rule(space.equivariance), (name, n)
            assert rows_held_by_rule(space.kernel.sparse_rows), (name, n)
            assert rows_held_by_rule(space.coboundary), (name, n)
            assert all(type(a) is Fraction for f in space.basis
                       for a in f.coords)


def test_equal_values_print_and_read_alike():
    """A value built from ``int`` entries is the value built from the
    equal ``Fraction`` entries: equal, with equal hash and repr, and
    dense views of the same class."""
    m, ref = Matrix(1, 2, ((1, Q(1, 2)),)), Matrix.from_rows([[1, Q(1, 2)]])
    assert m == ref and hash(m) == hash(ref) and repr(m) == repr(ref)
    assert type(m[0, 0]) is Fraction and dense_fractions(m)
    assert m.sparse_rows == ({0: 1, 1: Q(1, 2)},)
    assert rows_held_by_rule(m.sparse_rows)
    p, pref = (BilinearProduct(1, (((1,),),)),
               BilinearProduct.from_entries([[[Q(1)]]]))
    assert p == pref and hash(p) == hash(pref) and repr(p) == repr(pref)
    assert type(p.c[0][0][0]) is Fraction
    assert type(p.basis_value(0, 0)[0]) is Fraction
    f, fref = Cochain(1, 1, 1, (1,)), Cochain(1, 1, 1, (Q(1),))
    assert f == fref and hash(f) == hash(fref) and repr(f) == repr(fref)
    assert type(f.coords[0]) is Fraction


# ---------------------------------------------------------------------------
# linalg owns the rule
# ---------------------------------------------------------------------------

def fraction_calls(source: str) -> list[int]:
    """The lines of ``source`` that call ``Fraction`` or
    ``fractions.Fraction``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and (
                      isinstance(node.func, ast.Name)
                      and node.func.id == "Fraction"
                      or isinstance(node.func, ast.Attribute)
                      and node.func.attr == "Fraction"))


def scalar_reads(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that read ``.numerator`` or ``.denominator``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("numerator", "denominator"))


def test_only_linalg_makes_a_fraction():
    assert fraction_calls("x = Fraction(1)\ny: Fraction\n"
                          "z = fractions.Fraction(2)\n") == [1, 3]
    package = Path(bihom.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 1 and package / "linalg.py" in modules
    leaks = {path.name: fraction_calls(path.read_text()) for path in modules
             if path.name != "linalg.py"}
    assert not any(leaks.values()), leaks


def test_cohomology_converts_no_scalar():
    """The one class test of ``cohomology`` is the four-sum's inline rule,
    in ``CochainSpace._evaluate``; no other code of the module reads a
    scalar's numerator or denominator."""
    tree = ast.parse((Path(bihom.__file__).parent / "cohomology.py").read_text())
    evaluate = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_evaluate"]
    assert len(evaluate) == 1
    inline = scalar_reads(evaluate[0])
    assert inline and scalar_reads(tree) == inline
