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

All axiom checks run over basis tuples only; the identities are multilinear,
so this is exhaustive.  Checks are exact: a report passes iff every residual
vector is identically zero.  Invertibility of the twist maps is enforced at
construction time (the derived constructions need the inverses); everything
else, including commutation of the twists, is reported by the checkers so
that defective input data yields a diagnosis rather than an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .linalg import (
    Matrix,
    SingularMatrixError,
    as_rational,
    basis_vector,
    inverse,
    nonzero_items,
    rank,
    rational_from_json,
    rational_to_json,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vector,
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


@dataclass(frozen=True)
class BilinearProduct:
    """Rank-3 structure-constant tensor: ``e_i * e_j = sum_k c[i][j][k] e_k``."""

    dim: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self) -> None:
        n = self.dim
        if len(self.c) != n or any(
                len(plane) != n or any(len(v) != n for v in plane)
                for plane in self.c):
            raise ValueError(f"structure tensor is not {n}x{n}x{n}")

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[Sequence]]) -> "BilinearProduct":
        n = len(entries)
        return cls(n, tuple(
            tuple(tuple(as_rational(a) for a in vec) for vec in plane)
            for plane in entries))

    @classmethod
    def zero(cls, dim: int) -> "BilinearProduct":
        z = zero_vector(dim)
        return cls(dim, tuple(tuple(z for _ in range(dim)) for _ in range(dim)))

    def basis_value(self, i: int, j: int) -> tuple[Fraction, ...]:
        return self.c[i][j]

    @cached_property
    def terms(self) -> tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]:
        """Sparse view of the tensor: ``terms[i][j]`` holds the pairs
        ``(k, c[i][j][k])`` with a nonzero coefficient."""
        return tuple(
            tuple(tuple((k, a) for k, a in enumerate(vec) if a) for vec in plane)
            for plane in self.c)

    def value(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Bilinear extension to coordinate vectors; the cost follows the
        nonzero coordinates and structure constants."""
        acc = list(zero_vector(self.dim))
        for i, a in nonzero_items(u):
            plane = self.terms[i]
            for j, b in nonzero_items(v):
                if plane[j]:
                    coeff = a * b
                    for k, val in plane[j]:
                        acc[k] += coeff * val
        return tuple(acc)

    def left_matrices(self) -> tuple[Matrix, ...]:
        """Matrix of ``y -> e_i * y`` for each basis index i."""
        n = self.dim
        return tuple(
            Matrix(n, n, tuple(
                tuple(self.c[i][j][k] for j in range(n)) for k in range(n)))
            for i in range(n))

    def right_matrices(self) -> tuple[Matrix, ...]:
        """Matrix of ``y -> y * e_i`` for each basis index i."""
        n = self.dim
        return tuple(
            Matrix(n, n, tuple(
                tuple(self.c[j][i][k] for j in range(n)) for k in range(n)))
            for i in range(n))

    def __add__(self, other: "BilinearProduct") -> "BilinearProduct":
        self._same_dim(other)
        return BilinearProduct(self.dim, tuple(
            tuple(vec_add(self.c[i][j], other.c[i][j]) for j in range(self.dim))
            for i in range(self.dim)))

    def __sub__(self, other: "BilinearProduct") -> "BilinearProduct":
        self._same_dim(other)
        return BilinearProduct(self.dim, tuple(
            tuple(vec_sub(self.c[i][j], other.c[i][j]) for j in range(self.dim))
            for i in range(self.dim)))

    def scale(self, q: int | str | Fraction) -> "BilinearProduct":
        r = as_rational(q)
        return BilinearProduct(self.dim, tuple(
            tuple(vec_scale(r, self.c[i][j]) for j in range(self.dim))
            for i in range(self.dim)))

    def __neg__(self) -> "BilinearProduct":
        return self.scale(-1)

    @property
    def is_zero(self) -> bool:
        return all(vec_is_zero(self.c[i][j])
                   for i in range(self.dim) for j in range(self.dim))

    def _same_dim(self, other: "BilinearProduct") -> None:
        if self.dim != other.dim:
            raise ValueError("products live on spaces of different dimension")

    def to_json(self) -> list:
        return [[[rational_to_json(a) for a in vec] for vec in plane]
                for plane in self.c]

    @classmethod
    def from_json(cls, data: object) -> "BilinearProduct":
        if not isinstance(data, list):
            raise ValueError("structure tensor JSON must be a nested array")
        return cls.from_entries(
            [[[rational_from_json(a) for a in vec] for vec in plane]
             for plane in data])


@dataclass(frozen=True)
class TwistPair:
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

    @cached_property
    def alpha_inv(self) -> Matrix:
        return inverse(self.alpha)

    @cached_property
    def beta_inv(self) -> Matrix:
        return inverse(self.beta)


@dataclass(frozen=True)
class BiHomPreLieAlgebra:
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


@dataclass(frozen=True)
class BiHomLieAlgebra:
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

@dataclass(frozen=True)
class Violation:
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


@dataclass(frozen=True)
class AxiomReport:
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
    """Accumulates violations; a residual of all zeros is discarded."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []

    def check(self, axiom: str, indices: tuple[int, ...],
              residual: Sequence[Fraction]) -> None:
        if not vec_is_zero(residual):
            self.violations.append(Violation(axiom, indices, tuple(residual)))

    def check_matrix(self, axiom: str, indices: tuple[int, ...], m: Matrix) -> None:
        if not m.is_zero:
            flat = tuple(a for row in m.entries for a in row)
            self.violations.append(Violation(axiom, indices, flat))

    def flag(self, axiom: str, indices: tuple[int, ...] = ()) -> None:
        self.violations.append(Violation(axiom, indices, ()))

    def report(self) -> AxiomReport:
        return AxiomReport(tuple(self.violations))


def _twist_violations(col: _Collector, twists: TwistPair) -> None:
    col.check_matrix("alpha-beta-commutation", (),
                     twists.alpha @ twists.beta - twists.beta @ twists.alpha)
    # unreachable through the constructor, kept for defence in depth
    if rank(twists.alpha) != twists.dim:
        col.flag("alpha-invertible")
    if rank(twists.beta) != twists.dim:
        col.flag("beta-invertible")


def _multiplicativity_violations(col: _Collector, product: BilinearProduct,
                                 twists: TwistPair, kind: str) -> None:
    n = product.dim
    for name, m in (("alpha", twists.alpha), ("beta", twists.beta)):
        cols = [m.col(j) for j in range(n)]
        for i in range(n):
            for j in range(n):
                lhs = m.apply(product.basis_value(i, j))
                rhs = product.value(cols[i], cols[j])
                col.check(f"{name}-{kind}", (i, j), vec_sub(lhs, rhs))


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
    _multiplicativity_violations(col, a.product, a.twists, "multiplicative")
    n = a.dim
    P = a.product
    alpha, beta = a.alpha, a.beta
    ab = alpha @ beta
    acol = [alpha.col(i) for i in range(n)]
    bcol = [beta.col(i) for i in range(n)]
    abcol = [ab.col(i) for i in range(n)]

    def associator(x: int, y: int, z: int) -> tuple[Fraction, ...]:
        left = P.value(P.value(bcol[x], acol[y]), bcol[z])
        right = P.value(abcol[x], P.value(acol[y], basis_vector(n, z)))
        return vec_sub(left, right)

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                col.check("left-symmetry", (i, j, k),
                          vec_sub(associator(i, j, k), associator(j, i, k)))
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
    _multiplicativity_violations(col, g.bracket, g.twists, "bracket-morphism")
    n = g.dim
    B = g.bracket
    alpha, beta = g.alpha, g.beta
    acol = [alpha.col(i) for i in range(n)]
    bcol = [beta.col(i) for i in range(n)]
    b2 = beta @ beta
    b2col = [b2.col(i) for i in range(n)]

    for i in range(n):
        for j in range(i, n):
            residual = vec_add(B.value(bcol[i], acol[j]), B.value(bcol[j], acol[i]))
            col.check("skew-symmetry", (i, j), residual)

    def jacobi(x: int, y: int, z: int) -> tuple[Fraction, ...]:
        total = zero_vector(n)
        for p, q, s in ((x, y, z), (y, z, x), (z, x, y)):
            total = vec_add(total, B.value(b2col[p], B.value(bcol[q], acol[s])))
        return total

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i <= j and i <= k:
                    col.check("jacobi", (i, j, k), jacobi(i, j, k))
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
    n = a.dim
    ainv_b = a.twists.alpha_inv @ a.beta
    a_binv = a.alpha @ a.twists.beta_inv
    c = a.product
    entries = tuple(
        tuple(vec_sub(c.basis_value(i, j),
                      c.value(ainv_b.col(j), a_binv.col(i)))
              for j in range(n))
        for i in range(n))
    return BiHomLieAlgebra(BilinearProduct(n, entries), a.twists)


def _morphism_violations(f: Matrix, product: BilinearProduct,
                         product2: BilinearProduct, twists: TwistPair,
                         twists2: TwistPair) -> AxiomReport:
    col = _Collector()
    n = product.dim
    if f.cols != n or f.rows != product2.dim:
        raise ValueError(
            f"morphism matrix must be {product2.dim}x{n}, got {f.rows}x{f.cols}")
    fcol = [f.col(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = f.apply(product.basis_value(i, j))
            rhs = product2.value(fcol[i], fcol[j])
            col.check("product-compatibility", (i, j), vec_sub(lhs, rhs))
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
