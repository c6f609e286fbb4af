"""Structure-constant models of BiHom-pre-Lie and BiHom-Lie algebras.

A BiHom-pre-Lie (BiHom-left-symmetric) algebra is a vector space with a
bilinear product ``.`` and two commuting invertible multiplicative twist maps
``alpha, beta`` such that the twisted associator

    (beta(x) . alpha(y)) . beta(z)  -  alpha beta(x) . (alpha(y) . z)

is symmetric in x and y.  A BiHom-Lie algebra carries a bracket with
BiHom-skew-symmetry ``[beta(x), alpha(y)] = -[beta(y), alpha(x)]`` and the
twisted cyclic Jacobi identity

    sum over cyclic (x, y, z) of  [beta^2(x), [beta(y), alpha(z)]]  =  0.

Every pre-Lie product induces a BiHom-Lie bracket (its sub-adjacent algebra)

    [x, y] = x . y - (alpha^-1 beta)(y) . (alpha beta^-1)(x).

A structure tensor is stored sparse, as one matrix whose row ``i * dim + j``
holds the nonzero coordinates of ``e_i . e_j``; the checkers and every
construction of a tensor work on those rows and on the sparse columns of
the twists.  Dense tuples appear only at the public API: the nest ``c``,
``value``, ``basis_value``, a violation's residual and the JSON form.

All axiom checks run over basis tuples only; the identities are multilinear,
so this is exhaustive.  Checks are exact: a report passes iff every residual
vector is identically zero.  Invertibility of the twist maps is enforced at
construction time (the derived constructions need the inverses); everything
else, including commutation of the twists, is reported by the checkers so
that defective input data yields a diagnosis rather than an exception.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from typing import Sequence

from .linalg import (
    Matrix,
    Row,
    SingularMatrixError,
    Value,
    _Lazy,
    _dense_vector,
    _row_add,
    _row_sub,
    _sparse_vector,
    as_vector,
    inverse,
    rank,
    rational_from_json,
    rational_to_json,
)

__all__ = [
    "BilinearProduct",
    "TwistPair",
    "BiHomPreLieAlgebra",
    "BiHomLieAlgebra",
    "Violation",
    "AxiomReport",
    "AxiomError",
    "check_prelie",
    "check_bihom_lie",
    "subadjacent",
    "is_prelie_morphism",
    "is_lie_morphism",
]


class BilinearProduct(Value):
    """Rank-3 structure-constant tensor: ``e_i * e_j = sum_k c[i][j][k] e_k``.

    Stored as one ``dim^2 x dim`` :class:`~bihom.linalg.Matrix`,
    :attr:`table`, whose row ``i * dim + j`` holds the nonzero coordinates
    of ``e_i * e_j``.  :meth:`from_sparse` and the arithmetic keep only that
    table; the dense nest :attr:`c` is built on first read, unless it was
    given to the constructor, :meth:`from_entries` or :meth:`from_json`,
    which validate it.  ``==`` compares the tables, so neither side is made
    dense; ``hash`` and ``repr`` are those of the fields ``(dim, c)``.
    """

    dim: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self) -> None:
        n = self.dim
        if len(self.c) != n or any(
                len(plane) != n or any(len(v) != n for v in plane)
                for plane in self.c):
            raise ValueError(f"structure tensor is not {n}x{n}x{n}")

    @_Lazy
    def c(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        n, entries = self.dim, self.table.entries
        return tuple(entries[i * n:(i + 1) * n] for i in range(n))

    @_Lazy
    def table(self) -> Matrix:
        """The ``dim^2 x dim`` matrix whose row ``i * dim + j`` is
        ``e_i * e_j``."""
        n = self.dim
        return Matrix(n * n, n, tuple(v for plane in self.c for v in plane))

    @classmethod
    def _wrap(cls, table: Matrix) -> "BilinearProduct":
        """The product whose table is ``table``, taken as it is."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", table.cols)
        object.__setattr__(p, "table", table)
        return p

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[Sequence]]) -> "BilinearProduct":
        return cls(len(entries), tuple(tuple(as_vector(vec) for vec in plane)
                                       for plane in entries))

    @classmethod
    def from_sparse(cls, rows: Sequence[Row], dim: int) -> "BilinearProduct":
        """The product with ``e_i * e_j`` the sparse row ``rows[i * dim + j]``
        (indices below ``dim``), kept without zero entries and with every
        entry a ``Fraction``, as :meth:`Matrix.from_sparse` keeps them."""
        if len(rows) != dim * dim:
            raise ValueError(f"structure tensor is not {dim}x{dim}x{dim}")
        return cls._wrap(Matrix.from_sparse(rows, dim))

    @classmethod
    def zero(cls, dim: int) -> "BilinearProduct":
        return cls._wrap(Matrix.zeros(dim * dim, dim))

    def basis_value(self, i: int, j: int) -> tuple[Fraction, ...]:
        return _dense_vector(self.table.sparse_rows[i * self.dim + j], self.dim)

    def value(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Bilinear extension to dense coordinate vectors: the dense form of
        :meth:`sparse_value`."""
        return _dense_vector(self.sparse_value(_sparse_vector(u),
                                               _sparse_vector(v)), self.dim)

    def sparse_value(self, u: Row, v: Row) -> Row:
        """Bilinear extension to sparse coordinate vectors (no zero
        entries), without zero entries; the cost follows the nonzero
        coordinates and structure constants."""
        rows, n = self.table.sparse_rows, self.dim
        acc: Row = {}
        for i, a in u.items():
            base = i * n
            for j, b in v.items():
                row = rows[base + j]
                if row:
                    coeff = a * b
                    for k, val in row.items():
                        if k in acc:
                            acc[k] += coeff * val
                        else:
                            acc[k] = coeff * val
        return {k: x for k, x in acc.items() if x}

    def left_matrices(self) -> tuple[Matrix, ...]:
        """Matrix of ``y -> e_i * y`` for each basis index i."""
        rows, n = self.table.sparse_rows, self.dim
        return tuple(Matrix.from_sparse(rows[i * n:(i + 1) * n], n).transpose()
                     for i in range(n))

    def right_matrices(self) -> tuple[Matrix, ...]:
        """Matrix of ``y -> y * e_i`` for each basis index i."""
        rows, n = self.table.sparse_rows, self.dim
        return tuple(Matrix.from_sparse(rows[i::n], n).transpose()
                     for i in range(n))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.table == other.table

    __hash__ = Value.__hash__

    def __add__(self, other: "BilinearProduct") -> "BilinearProduct":
        self._same_dim(other)
        return BilinearProduct._wrap(self.table + other.table)

    def __sub__(self, other: "BilinearProduct") -> "BilinearProduct":
        self._same_dim(other)
        return BilinearProduct._wrap(self.table - other.table)

    def scale(self, q: int | str | Fraction) -> "BilinearProduct":
        return BilinearProduct._wrap(self.table.scale(q))

    def __neg__(self) -> "BilinearProduct":
        return BilinearProduct._wrap(-self.table)

    @property
    def is_zero(self) -> bool:
        return self.table.is_zero

    def _same_dim(self, other: "BilinearProduct") -> None:
        if self.dim != other.dim:
            raise ValueError("products live on spaces of different dimension")

    def to_json(self) -> list:
        return [[[rational_to_json(a) for a in vec] for vec in plane]
                for plane in self.c]

    @classmethod
    def from_json(cls, data: object) -> "BilinearProduct":
        if not (isinstance(data, list) and all(
                isinstance(plane, list) and all(isinstance(vec, list) for vec in plane)
                for plane in data)):
            raise ValueError("structure tensor JSON must be a nested array")
        return cls(len(data), tuple(
            tuple(tuple(map(rational_from_json, vec)) for vec in plane)
            for plane in data))


class TwistPair(Value):
    """The pair (alpha, beta) of twist maps of a BiHom structure.

    Both maps must be invertible (checked here, since the sub-adjacent
    bracket and the induced representations take their inverses).  They are
    also required to commute, but a non-commuting pair is representable so
    the axiom checkers can name the violation.
    """

    alpha: Matrix
    beta: Matrix

    def __post_init__(self) -> None:
        if not (self.alpha.is_square and self.beta.is_square):
            raise ValueError("twist maps must be square matrices")
        if self.alpha.rows != self.beta.rows:
            raise ValueError("twist maps must act on the same space")
        for name, m in (("alpha", self.alpha), ("beta", self.beta)):
            if rank(m) != m.rows:
                raise SingularMatrixError(f"twist map {name} must be invertible")

    @classmethod
    def identity(cls, n: int) -> "TwistPair":
        eye = Matrix.identity(n)
        return cls(eye, eye)

    @property
    def dim(self) -> int:
        return self.alpha.rows

    @property
    def commute(self) -> bool:
        return self.alpha @ self.beta == self.beta @ self.alpha

    @_Lazy
    def alpha_inv(self) -> Matrix:
        return inverse(self.alpha)

    @_Lazy
    def beta_inv(self) -> Matrix:
        return inverse(self.beta)


class BiHomPreLieAlgebra(Value):
    """Dimension-n BiHom-pre-Lie algebra: product tensor plus twist pair."""

    product: BilinearProduct
    twists: TwistPair

    def __post_init__(self) -> None:
        if self.product.dim != self.twists.dim:
            raise ValueError("product tensor and twist maps disagree on dimension")

    @classmethod
    def classical(cls, product: BilinearProduct) -> "BiHomPreLieAlgebra":
        """Untwisted special case: alpha = beta = identity."""
        return cls(product, TwistPair.identity(product.dim))

    @property
    def dim(self) -> int:
        return self.product.dim

    @property
    def alpha(self) -> Matrix:
        return self.twists.alpha

    @property
    def beta(self) -> Matrix:
        return self.twists.beta


class BiHomLieAlgebra(Value):
    """Dimension-n BiHom-Lie algebra: bracket tensor plus twist pair."""

    bracket: BilinearProduct
    twists: TwistPair

    def __post_init__(self) -> None:
        if self.bracket.dim != self.twists.dim:
            raise ValueError("bracket tensor and twist maps disagree on dimension")

    @classmethod
    def classical(cls, bracket: BilinearProduct) -> "BiHomLieAlgebra":
        return cls(bracket, TwistPair.identity(bracket.dim))

    @property
    def dim(self) -> int:
        return self.bracket.dim

    @property
    def alpha(self) -> Matrix:
        return self.twists.alpha

    @property
    def beta(self) -> Matrix:
        return self.twists.beta


# ---------------------------------------------------------------------------
# axiom reports
# ---------------------------------------------------------------------------

class Violation(Value):
    """One violated axiom instance: which identity, at which basis indices,
    and the (exactly computed) residual that should have been zero."""

    axiom: str
    indices: tuple[int, ...]
    residual: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "indices": list(self.indices),
            "residual": [rational_to_json(a) for a in self.residual],
        }


class AxiomReport(Value):
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed

    def axioms(self) -> tuple[str, ...]:
        return tuple(v.axiom for v in self.violations)

    def summary(self) -> str:
        if self.passed:
            return "all axioms hold"
        lines = [f"{len(self.violations)} violation(s):"]
        for v in self.violations:
            at = ",".join(str(i + 1) for i in v.indices)
            lines.append(f"  {v.axiom} at basis ({at})")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [v.to_json() for v in self.violations],
        }


class AxiomError(ValueError):
    """Raised when an operation is handed data that fails a required check."""

    def __init__(self, message: str, report: AxiomReport | None = None):
        super().__init__(message)
        self.report = report


def merge_reports(*reports: AxiomReport) -> AxiomReport:
    violations: list[Violation] = []
    for r in reports:
        violations.extend(r.violations)
    return AxiomReport(tuple(violations))


class _Collector:
    """Accumulates violations; an empty residual is discarded."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []

    def check(self, axiom: str, indices: tuple[int, ...], residual: Row,
              dim: int) -> None:
        """Records the sparse ``residual`` (no zero entries) unless it is
        empty; a violation carries it as a dense vector of length dim."""
        if residual:
            self.violations.append(
                Violation(axiom, indices, _dense_vector(residual, dim)))

    def check_matrix(self, axiom: str, indices: tuple[int, ...], m: Matrix) -> None:
        if not m.is_zero:
            flat = tuple(a for row in m.entries for a in row)
            self.violations.append(Violation(axiom, indices, flat))

    def check_commute(self, axiom: str, a: Matrix, b: Matrix) -> None:
        """Reports the commutator ``a b - b a`` unless it vanishes."""
        self.check_matrix(axiom, (), a @ b - b @ a)

    def flag(self, axiom: str, indices: tuple[int, ...] = ()) -> None:
        self.violations.append(Violation(axiom, indices, ()))

    def report(self) -> AxiomReport:
        return AxiomReport(tuple(self.violations))


# ---------------------------------------------------------------------------
# one implementation per identity, shared by every checker
# ---------------------------------------------------------------------------

def _twist_violations(col: _Collector, twists: TwistPair) -> None:
    col.check_commute("alpha-beta-commutation", twists.alpha, twists.beta)
    # unreachable through the constructor, kept for defence in depth
    if rank(twists.alpha) != twists.dim:
        col.flag("alpha-invertible")
    if rank(twists.beta) != twists.dim:
        col.flag("beta-invertible")


def _operator_commutation(col: _Collector, name: str, mat: Matrix,
                          twists: TwistPair) -> None:
    """``{name}-alpha-commutation`` and ``{name}-beta-commutation`` of an
    operator on the algebra with these twists."""
    col.check_commute(f"{name}-alpha-commutation", mat, twists.alpha)
    col.check_commute(f"{name}-beta-commutation", mat, twists.beta)


def _map_violations(col: _Collector, axiom: str, f: Matrix,
                    P: BilinearProduct, P2: BilinearProduct) -> None:
    """``f(e_i . e_j) - f(e_i) . f(e_j)`` on every ordered basis pair, for a
    linear map f from the space of the product P to that of P2."""
    n = P.dim
    rows, fcol = P.table.sparse_rows, f.sparse_cols
    for i in range(n):
        for j in range(n):
            col.check(axiom, (i, j),
                      _row_sub(f.sparse_apply(rows[i * n + j]),
                               P2.sparse_value(fcol[i], fcol[j])), P2.dim)


def _multiplicativity_violations(col: _Collector, P: BilinearProduct,
                                 alpha: Matrix, beta: Matrix, axiom: str) -> None:
    """Both twists are multiplicative for P; ``axiom.format(name)`` names the
    identity of the twist ``name`` ("alpha" or "beta")."""
    for name, m in (("alpha", alpha), ("beta", beta)):
        _map_violations(col, axiom.format(name), m, P, P)


_Terms = Sequence[tuple[BilinearProduct, BilinearProduct]]


def _inner_products(checks: Sequence[tuple[str, _Terms]]) -> dict[int, BilinearProduct]:
    return {id(inner): inner for _, terms in checks for _, inner in terms}


def _left_symmetry_violations(col: _Collector, twists: TwistPair,
                              checks: Sequence[tuple[str, _Terms]]) -> None:
    """Symmetry in (x, y) of twisted associators on basis triples.

    For each ``(axiom, terms)`` of ``checks`` the residual at ``(i, j, k)``,
    ``i < j``, is the sum over the ``(outer, inner)`` pairs of ``terms`` of
    ``A(i, j, k) - A(j, i, k)``, where

        A(x, y, z) = outer(inner(beta x, alpha y), beta z)
                     - outer(alpha beta x, inner(alpha y, z)).

    With ``[(P, P)]`` this is the left symmetry of P; ``[(P, pi), (pi, P)]``
    and ``[(pi, pi)]`` are the t^1 and t^2 coefficients for ``P + t pi``.
    The residual is antisymmetric in (x, y), hence i < j; the checks of a
    triple are reported together, in the order given.
    """
    n = twists.dim
    acol, bcol = twists.alpha.sparse_cols, twists.beta.sparse_cols
    abcol = (twists.alpha @ twists.beta).sparse_cols
    basis = Matrix.identity(n).sparse_rows
    inners = _inner_products(checks)
    # inner(alpha e_y, e_k), which does not depend on x
    right = {q: [[Q.sparse_value(acol[y], e) for e in basis] for y in range(n)]
             for q, Q in inners.items()}
    for i in range(n):
        for j in range(i + 1, n):
            # inner(beta e_i, alpha e_j) - inner(beta e_j, alpha e_i), which
            # does not depend on k; the outer product is bilinear
            left = {q: _row_sub(Q.sparse_value(bcol[i], acol[j]),
                                Q.sparse_value(bcol[j], acol[i]))
                    for q, Q in inners.items()}
            for k in range(n):
                for axiom, terms in checks:
                    col.check(axiom, (i, j, k), reduce(_row_add, [
                        _row_sub(P.sparse_value(left[id(Q)], bcol[k]),
                                 _row_sub(P.sparse_value(abcol[i], right[id(Q)][j][k]),
                                          P.sparse_value(abcol[j], right[id(Q)][i][k])))
                        for P, Q in terms]), n)


def _skew_violations(col: _Collector, axiom: str, B: BilinearProduct,
                     twists: TwistPair) -> None:
    """BiHom-skew-symmetry ``B(beta x, alpha y) + B(beta y, alpha x) = 0`` on
    basis pairs ``i <= j`` (the diagonal forces ``B(beta x, alpha x) = 0``)."""
    n = B.dim
    acol, bcol = twists.alpha.sparse_cols, twists.beta.sparse_cols
    for i in range(n):
        for j in range(i, n):
            col.check(axiom, (i, j), _row_add(B.sparse_value(bcol[i], acol[j]),
                                              B.sparse_value(bcol[j], acol[i])), n)


def _jacobi_violations(col: _Collector, twists: TwistPair,
                       checks: Sequence[tuple[str, _Terms]]) -> None:
    """Twisted cyclic Jacobi sums on basis triples.

    For each ``(axiom, terms)`` of ``checks`` the residual at ``(i, j, k)``
    is the sum over the ``(outer, inner)`` pairs of ``terms`` of

        sum over cyclic (x, y, z) of outer(beta^2 x, inner(beta y, alpha z)).

    With ``[(B, B)]`` this is the BiHom-Jacobi identity of B;
    ``[(B, pi), (pi, B)]`` and ``[(pi, pi)]`` are the t^1 and t^2
    coefficients for ``B + t pi``.  The sum is invariant under cyclic
    rotation, so each orbit is reported once, smallest index first.
    """
    n = twists.dim
    acol, bcol = twists.alpha.sparse_cols, twists.beta.sparse_cols
    b2col = (twists.beta @ twists.beta).sparse_cols
    # inner(beta e_y, alpha e_z) for every pair, computed once
    inner = {q: [[Q.sparse_value(bcol[y], acol[z]) for z in range(n)]
                 for y in range(n)]
             for q, Q in _inner_products(checks).items()}
    for i in range(n):
        for j in range(i, n):
            for k in range(i, n):
                cyclic = ((i, j, k), (j, k, i), (k, i, j))
                for axiom, terms in checks:
                    col.check(axiom, (i, j, k), reduce(_row_add, [
                        P.sparse_value(b2col[x], inner[id(Q)][y][z])
                        for P, Q in terms for x, y, z in cyclic]), n)


def _subadjacent_tensor(c: BilinearProduct, twists: TwistPair) -> BilinearProduct:
    """``c(x, y) - c(alpha^-1 beta y, alpha beta^-1 x)`` on basis pairs."""
    n, rows = c.dim, c.table.sparse_rows
    ainv_b = (twists.alpha_inv @ twists.beta).sparse_cols
    a_binv = (twists.alpha @ twists.beta_inv).sparse_cols
    return BilinearProduct.from_sparse(
        [_row_sub(rows[i * n + j], c.sparse_value(ainv_b[j], a_binv[i]))
         for i in range(n) for j in range(n)], n)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_prelie(a: BiHomPreLieAlgebra) -> AxiomReport:
    """Verify every BiHom-pre-Lie axiom on all basis tuples.

    Checks, in order: alpha/beta commute and are invertible, both are
    multiplicative for the product, and the twisted associator
    ``(beta(x).alpha(y)).beta(z) - alpha beta(x).(alpha(y).z)`` is symmetric
    under x <-> y.  The symmetry residual is antisymmetric in (x, y), so
    pairs are reported once, for i < j.
    """
    col = _Collector()
    _twist_violations(col, a.twists)
    _multiplicativity_violations(col, a.product, a.alpha, a.beta,
                                 "{}-multiplicative")
    _left_symmetry_violations(col, a.twists,
                              [("left-symmetry", [(a.product, a.product)])])
    return col.report()


def check_bihom_lie(g: BiHomLieAlgebra) -> AxiomReport:
    """Verify the BiHom-Lie axioms on all basis tuples.

    Checks twist commutation/invertibility, that alpha and beta are bracket
    morphisms, BiHom-skew-symmetry (including the diagonal pairs, where it
    forces ``[beta(x), alpha(x)] = 0``), and the cyclic BiHom-Jacobi
    identity.  The Jacobi sum is invariant under cyclic rotation, so each
    orbit is reported once (smallest index first).
    """
    col = _Collector()
    _twist_violations(col, g.twists)
    _multiplicativity_violations(col, g.bracket, g.alpha, g.beta,
                                 "{}-bracket-morphism")
    _skew_violations(col, "skew-symmetry", g.bracket, g.twists)
    _jacobi_violations(col, g.twists, [("jacobi", [(g.bracket, g.bracket)])])
    return col.report()


# Distinct algebras whose sub-adjacent algebra is kept; a long-lived process
# that meets more drops the least recently used.
SUBADJACENT_CACHE_SIZE = 64


@lru_cache(maxsize=SUBADJACENT_CACHE_SIZE)
def subadjacent(a: BiHomPreLieAlgebra) -> BiHomLieAlgebra:
    """Sub-adjacent BiHom-Lie algebra: the twisted commutator bracket
    ``[x, y] = x.y - (alpha^-1 beta)(y).(alpha beta^-1)(x)`` with the same
    twist maps.  For a valid pre-Lie algebra the result satisfies all the
    BiHom-Lie axioms; with identity twists it is the ordinary commutator.
    """
    return BiHomLieAlgebra(_subadjacent_tensor(a.product, a.twists), a.twists)


def _morphism_violations(f: Matrix, product: BilinearProduct,
                         product2: BilinearProduct, twists: TwistPair,
                         twists2: TwistPair) -> AxiomReport:
    n = product.dim
    if f.cols != n or f.rows != product2.dim:
        raise ValueError(
            f"morphism matrix must be {product2.dim}x{n}, got {f.rows}x{f.cols}")
    col = _Collector()
    _map_violations(col, "product-compatibility", f, product, product2)
    col.check_matrix("alpha-intertwining", (),
                     f @ twists.alpha - twists2.alpha @ f)
    col.check_matrix("beta-intertwining", (),
                     f @ twists.beta - twists2.beta @ f)
    return col.report()


def is_prelie_morphism(f: Matrix, a: BiHomPreLieAlgebra,
                       a2: BiHomPreLieAlgebra) -> AxiomReport:
    """Does f satisfy ``f(x.y) = f(x).f(y)`` and intertwine the twists?"""
    return _morphism_violations(f, a.product, a2.product, a.twists, a2.twists)


def is_lie_morphism(f: Matrix, g: BiHomLieAlgebra,
                    g2: BiHomLieAlgebra) -> AxiomReport:
    """Does f satisfy ``f[x,y] = [f(x),f(y)]`` and intertwine the twists?"""
    return _morphism_violations(f, g.bracket, g2.bracket, g.twists, g2.twists)
