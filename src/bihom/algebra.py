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
holds the nonzero coordinates of ``e_i . e_j``; only :class:`BilinearProduct`
reads that layout.  Every other module builds a tensor pair by pair with
:meth:`BilinearProduct.from_pairs` and reads it with
:meth:`BilinearProduct.pair`, and the checkers work on those sparse rows and
on the sparse columns of the twists.  Dense tuples appear only at the public
API: the nest ``c``, ``value``, ``basis_value``, a violation's residual and
the JSON form.

All axiom checks run over basis tuples only; the identities are multilinear,
so this is exhaustive.  Checks are exact: a report passes iff every residual
vector is identically zero.  Every twist is proved invertible where it is
built, by one rule that keeps its inverse: an identity is its own, a twist
equal to a kept one reuses its inverse, any other is eliminated once.  All
else, twist commutation included, is reported by the checkers, not raised.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Sequence

from .linalg import (
    Matrix,
    Row,
    SingularMatrixError,
    Value,
    _Lazy,
    _axpy,
    _dense_vector,
    _json_entries,
    _json_row,
    _require_exact,
    _require_shape,
    _row_add,
    _row_sub,
    _sparse_vector,
    as_vector,
    inverse,
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


def _require_cube(nest: Sequence[Sequence[Sequence]], n: int) -> None:
    """ValueError unless ``nest`` is an ``n x n x n`` nest."""
    if len(nest) != n or any(len(plane) != n or any(len(v) != n for v in plane)
                             for plane in nest):
        raise ValueError(f"structure tensor is not {n}x{n}x{n}")


class BilinearProduct(Value):
    """Rank-3 structure-constant tensor: ``e_i * e_j = sum_k c[i][j][k] e_k``.

    Stored as one ``dim^2 x dim`` :class:`~bihom.linalg.Matrix`,
    :attr:`table`, whose row ``i * dim + j`` holds the nonzero coordinates
    of ``e_i * e_j``.  :meth:`from_sparse`, :meth:`from_json`,
    :meth:`to_json` and the arithmetic keep or read only that table; the
    dense nest :attr:`c` is built on first read, unless it was given to the
    constructor or :meth:`from_entries`, which validate it.  ``==``
    compares the tables, so neither side is made dense; ``hash`` and
    ``repr`` are those of the fields ``(dim, c)``.
    """

    dim: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self) -> None:
        _require_cube(self.c, self.dim)
        for plane in self.c:
            for v in plane:
                _require_exact(v)

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
    def from_pairs(cls, dim: int,
                   value: Callable[[int, int], Row]) -> "BilinearProduct":
        """The product with ``e_i * e_j`` the sparse row ``value(i, j)``, kept
        as :meth:`from_sparse` keeps it."""
        return cls.from_sparse([value(i, j) for i in range(dim)
                                for j in range(dim)], dim)

    @classmethod
    def zero(cls, dim: int) -> "BilinearProduct":
        return cls._wrap(Matrix.zeros(dim * dim, dim))

    def pair(self, i: int, j: int) -> Row:
        """``e_i * e_j`` as a sparse row without zero entries: the sparse form
        of :meth:`basis_value`, shared with the table, so not to be changed."""
        return self.table.sparse_rows[i * self.dim + j]

    def basis_value(self, i: int, j: int) -> tuple[Fraction, ...]:
        return _dense_vector(self.pair(i, j), self.dim)

    def value(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Bilinear extension to dense coordinate vectors: the dense form of
        :meth:`sparse_value`."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("vector length does not match the dimension")
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
                    _axpy(acc, a * b, row)
        return acc

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
        """The nest ``c`` as JSON arrays, written from the table's sparse
        rows: ``0`` for every absent entry."""
        rows, n = self.table.sparse_rows, self.dim
        return [[_json_row(rows[i * n + j], n) for j in range(n)]
                for i in range(n)]

    @classmethod
    def from_json(cls, data: object) -> "BilinearProduct":
        """The product of a JSON nest ``c[i][j][k]``, decoded straight into
        the table's sparse rows by :func:`~bihom.linalg._json_entries`.
        Every entry is decoded before the shape is checked, as
        :meth:`Matrix.from_json` does."""
        if not (isinstance(data, list) and all(
                isinstance(plane, list) and all(isinstance(vec, list) for vec in plane)
                for plane in data)):
            raise ValueError("structure tensor JSON must be a nested array")
        rows = tuple(_json_entries(vec) for plane in data for vec in plane)
        _require_cube(data, len(data))
        return cls._wrap(Matrix._wrap(rows, len(data)))


def _twist_inverse(m: Matrix, what: str, known: TwistPair | None = None) -> Matrix:
    """The inverse of ``m`` by the one rule for twists: an identity is its
    own, a twist equal to one of ``known`` reuses that one's kept inverse, and
    any other is eliminated once, raising "<what> must be invertible"."""
    try:
        return (m if m.is_identity
                else known.alpha_inv if known and m == known.alpha
                else known.beta_inv if known and m == known.beta else inverse(m))
    except SingularMatrixError:
        raise SingularMatrixError(f"{what} must be invertible") from None


def _with_inverses(cls, fields: tuple, **inverses: Matrix):
    """``cls(*fields)`` taken as it is, with the inverses of its twists by
    keyword, for a construction that knows them and shapes its fields."""
    v = object.__new__(cls)
    vars(v).update(zip(cls._fields, fields), **inverses)
    return v


class TwistPair(Value):
    """The pair (alpha, beta) of twist maps of a BiHom structure.

    Both maps must be invertible: :func:`_twist_inverse` proves it here and
    the pair keeps ``alpha_inv`` and ``beta_inv`` (not fields) for the
    sub-adjacent bracket and the induced representations.  The maps must also
    commute, but a non-commuting pair is representable so the checkers name it.
    """

    alpha: Matrix
    beta: Matrix

    def __post_init__(self) -> None:
        if not (self.alpha.is_square and self.beta.is_square):
            raise ValueError("twist maps must be square matrices")
        if self.alpha.rows != self.beta.rows:
            raise ValueError("twist maps must act on the same space")
        vars(self).update(alpha_inv=_twist_inverse(self.alpha, "twist map alpha"),
                          beta_inv=_twist_inverse(self.beta, "twist map beta"))

    @classmethod
    def identity(cls, n: int) -> "TwistPair":
        eye = Matrix.identity(n)
        return cls(eye, eye)

    @property
    def dim(self) -> int:
        return self.alpha.rows


class _TwistedAlgebra:
    """What the two BiHom algebras share: ``dim``, ``alpha`` and ``beta``,
    read off the twist pair, and :meth:`classical`, which pairs a tensor (the
    first field) with identity twists."""

    @classmethod
    def classical(cls, tensor: BilinearProduct):
        """Untwisted special case: alpha = beta = identity."""
        return cls(tensor, TwistPair.identity(tensor.dim))

    @property
    def dim(self) -> int:
        return self.twists.dim

    @property
    def alpha(self) -> Matrix:
        return self.twists.alpha

    @property
    def beta(self) -> Matrix:
        return self.twists.beta


class BiHomPreLieAlgebra(_TwistedAlgebra, Value):
    """Dimension-n BiHom-pre-Lie algebra: product tensor plus twist pair."""

    product: BilinearProduct
    twists: TwistPair

    def __post_init__(self) -> None:
        if self.product.dim != self.twists.dim:
            raise ValueError("product tensor and twist maps disagree on dimension")

    @_Lazy
    def subadjacent(self) -> "BiHomLieAlgebra":
        """The algebra of :func:`subadjacent`, built once per algebra on
        first read and kept; not a field, so ``==``, ``hash`` and ``repr``
        do not see it."""
        return BiHomLieAlgebra(_subadjacent_tensor(self.product, self.twists),
                               self.twists)


class BiHomLieAlgebra(_TwistedAlgebra, Value):
    """Dimension-n BiHom-Lie algebra: bracket tensor plus twist pair."""

    bracket: BilinearProduct
    twists: TwistPair

    def __post_init__(self) -> None:
        if self.bracket.dim != self.twists.dim:
            raise ValueError("bracket tensor and twist maps disagree on dimension")


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

    def lines(self) -> list[str]:
        """One line ``violation: <axiom>`` per violation, followed by
        `` at basis (i,j,...)`` (1-based) when it has indices."""
        lines = []
        for v in self.violations:
            at = ",".join(str(i + 1) for i in v.indices)
            lines.append(f"violation: {v.axiom} at basis ({at})" if v.indices
                         else f"violation: {v.axiom}")
        return lines

    def summary(self) -> str:
        if self.passed:
            return "all axioms hold"
        return "\n".join([f"{len(self.violations)} violation(s):", *self.lines()])

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [v.to_json() for v in self.violations],
        }


class AxiomError(ValueError):
    """Raised when an operation is handed data that fails a required check;
    ``report`` is that check's report."""

    def __init__(self, message: str, report: AxiomReport):
        super().__init__(message)
        self.report = report

    def __reduce__(self):  # pickle passes the report, which is required
        return self.__class__, (str(self), self.report)


def _require_passed(report: AxiomReport, message: str) -> None:
    """Raise :class:`AxiomError` with ``message`` unless ``report`` passed."""
    if not report.passed:
        raise AxiomError(message, report)


def _assert_passed(report: AxiomReport, what: str) -> None:
    """Raise an internal-defect ``RuntimeError`` naming ``what`` unless
    ``report``, of an identity the library asserts of its own result, passed."""
    if not report.passed:
        raise RuntimeError(f"internal defect: {what}\n{report.summary()}")


def merge_reports(*reports: AxiomReport) -> AxiomReport:
    violations: list[Violation] = []
    for r in reports:
        violations.extend(r.violations)
    return AxiomReport(tuple(violations))


def _prefixed(report: AxiomReport, prefix: str) -> AxiomReport:
    return AxiomReport(tuple(
        Violation(f"{prefix}{v.axiom}", v.indices, v.residual)
        for v in report.violations))


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

    def report(self) -> AxiomReport:
        return AxiomReport(tuple(self.violations))


# ---------------------------------------------------------------------------
# one implementation per identity, shared by every checker
# ---------------------------------------------------------------------------

def _twist_violations(col: _Collector, twists: TwistPair) -> None:
    """Twist commutation; a :class:`TwistPair` is invertible by construction."""
    col.check_commute("alpha-beta-commutation", twists.alpha, twists.beta)


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
    n, fcol = P.dim, f.sparse_cols
    for i in range(n):
        for j in range(n):
            col.check(axiom, (i, j),
                      _row_sub(f.sparse_apply(P.pair(i, j)),
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
    inners = _inner_products(checks)
    # inner(alpha e_y, e_k), which does not depend on x
    right = {q: [[Q.sparse_value(acol[y], {k: 1}) for k in range(n)]
                 for y in range(n)]
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
    ainv_b = (twists.alpha_inv @ twists.beta).sparse_cols
    a_binv = (twists.alpha @ twists.beta_inv).sparse_cols
    return BilinearProduct.from_pairs(c.dim, lambda i, j: _row_sub(
        c.pair(i, j), c.sparse_value(ainv_b[j], a_binv[i])))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_prelie(a: BiHomPreLieAlgebra) -> AxiomReport:
    """Verify every BiHom-pre-Lie axiom on all basis tuples.

    Checks, in order: alpha/beta commute, both are multiplicative for the
    product, and the twisted associator
    ``(beta(x).alpha(y)).beta(z) - alpha beta(x).(alpha(y).z)`` is symmetric
    under x <-> y.  The symmetry residual is antisymmetric in (x, y), so
    pairs are reported once, for i < j.  Invertibility of the twists is not
    re-checked: :class:`TwistPair` refuses a singular twist.
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

    Checks twist commutation (:class:`TwistPair` has proved invertibility),
    that alpha and beta are bracket morphisms, BiHom-skew-symmetry (with the
    diagonal pairs, where it forces ``[beta(x), alpha(x)] = 0``), and the
    cyclic BiHom-Jacobi identity.  The Jacobi sum is invariant under cyclic
    rotation, so each orbit is reported once (smallest index first).
    """
    col = _Collector()
    _twist_violations(col, g.twists)
    _multiplicativity_violations(col, g.bracket, g.alpha, g.beta,
                                 "{}-bracket-morphism")
    _skew_violations(col, "skew-symmetry", g.bracket, g.twists)
    _jacobi_violations(col, g.twists, [("jacobi", [(g.bracket, g.bracket)])])
    return col.report()


# Stores and hashes nothing (the algebra keeps its own): kept only for the
# call counter that the benchmark reads through cache_info().
@lru_cache(maxsize=0)
def subadjacent(a: BiHomPreLieAlgebra) -> BiHomLieAlgebra:
    """Sub-adjacent BiHom-Lie algebra: the twisted commutator bracket
    ``[x, y] = x.y - (alpha^-1 beta)(y).(alpha beta^-1)(x)`` with the same
    twist maps, built once per algebra and kept on it.  For a valid pre-Lie
    algebra the result satisfies all the BiHom-Lie axioms; with identity
    twists it is the ordinary commutator.
    """
    return a.subadjacent


def _morphism_violations(f: Matrix, product: BilinearProduct,
                         product2: BilinearProduct, twists: TwistPair,
                         twists2: TwistPair) -> AxiomReport:
    _require_shape(f, product2.dim, product.dim, "morphism matrix")
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
