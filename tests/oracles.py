"""Reference implementations that the library is compared against.

* A dense ``Fraction`` Gauss-Jordan elimination with ``rank``,
  ``kernel_basis``, ``try_solve`` and ``inverse`` on plain nested lists.  It
  is the elimination the library used before its sparse core; the reduced
  row echelon form is unique, so both must return the same results.
* The dense products the library used before it skipped zero entries:
  ``Matrix @ Matrix`` and ``Matrix.apply`` as full ``Fraction`` sums over
  every index, and ``BilinearProduct.value`` scanning every structure
  constant of each pair of nonzero coordinates.
* The rest of the dense ``Matrix`` the library had before it stored sparse
  rows: ``+``, ``-``, ``scale``, ``transpose``, ``kron``, ``is_zero`` and
  ``col``, each computed from the row-major ``entries``.
* The axiom checkers as they were before each identity got one shared
  implementation: ``check_prelie`` with its own associator,
  ``check_bihom_lie`` with its own Jacobi sum, the deformation checkers
  with their own t-expansions, the representation checkers evaluating
  every twisted action inside the loops, and the hypothesis checks of
  ``twist_rep``.  They must report the same violations, in the same order
  and with the same residuals.
* The structure tensor as the nest ``c`` the library stored before its
  sparse table: ``+``, ``-``, ``scale``, ``is_zero`` and the left and
  right multiplication matrices computed from ``c``, and the seven
  constructions that built a tensor entry by entry from dense columns (the
  sub-adjacent bracket, the semidirect products, the twisted product of
  ``twist_rep``, ``*_N``, and the products induced by O- and Rota-Baxter
  operators).
* The tensor-stored cochain, :class:`DenseCochain`: the
  :class:`~bihom.cohomology.Cochain` the library had before it stored the
  free coordinates, holding the full value tensor and evaluating it by
  products over every nonzero coordinate.
* The per-image cohomology pipeline: the cochain space solved as the
  kernel of the equivariance conditions at every basis tuple, the
  coboundary evaluated image by image on full value tensors, and every
  image expanded in the target basis by its own linear solve.  Its
  cochains are :class:`DenseCochain` instances, so it shares only the
  algebra data and the sub-adjacent bracket with the library's
  free-coordinate pipeline.
* ``dim Z^1`` with adjoint coefficients as the dimension of the
  derivations of A that commute with both twists, from one dense system
  over the entries of a linear map.
* The value types as ``@dataclass(frozen=True)`` declared them before
  their :class:`~bihom.linalg.Value` base: the same names, fields and
  ``__post_init__`` checks.
* The dense JSON codec the library had before it decoded and encoded
  documents straight to and from sparse rows: ``Matrix.from_json`` and
  ``BilinearProduct.from_json`` making every leaf a ``Fraction`` in a
  dense tuple and leaving the shape checks to the dense constructors, and
  the ``to_json`` of both written from the dense ``entries`` and ``c``.
* The four-sum's copying accumulation, :class:`CopyingCochainSpace`: the
  ``CochainSpace._evaluate`` the library had before it added each term at
  its offset in place, building a shifted copy of an ``outer`` row per
  term and adding it by ``_axpy``.
* The anchored regular expressions that read a rational literal and a
  ``--degrees`` range before both were matched whole by ``re.fullmatch``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import make_dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Sequence

from bihom import (AxiomReport, BiHomLieAlgebra, BiHomPreLieAlgebra,
                   BilinearProduct, LieRep, Matrix, PreLieRep, TwistPair,
                   Violation, subadjacent)
from bihom.cohomology import Cochain, CochainSpace, CohomologyReport
from bihom.linalg import (LinAlgError, Value, _axpy, rank, rational_from_json,
                          rational_to_json, zero_vector)

Q = Fraction


# ---------------------------------------------------------------------------
# dense vectors
# ---------------------------------------------------------------------------

def basis_vector(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Q(int(j == i)) for j in range(n))


def vec_add(u, v) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v) -> tuple[Fraction, ...]:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_is_zero(v) -> bool:
    return not any(v)


# ---------------------------------------------------------------------------
# dense elimination
# ---------------------------------------------------------------------------

def dense_rref(rows: list[list[Fraction]], width: int
               ) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form over the first ``width`` columns;
    returns (rows, pivot columns)."""
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_rank(m: Matrix) -> int:
    return len(dense_rref([list(row) for row in m.entries], m.cols)[1])


def dense_kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    reduced, pivots = dense_rref([list(row) for row in m.entries], m.cols)
    basis = []
    for j in range(m.cols):
        if j in pivots:
            continue
        v = [Q(0)] * m.cols
        v[j] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][j]
        basis.append(tuple(v))
    return basis


def dense_try_solve(m: Matrix, rhs) -> tuple[Fraction, ...] | None:
    rows = [list(row) + [Q(b)] for row, b in zip(m.entries, rhs)]
    reduced, pivots = dense_rref(rows, m.cols)
    if any(reduced[i][m.cols] != 0 for i in range(len(pivots), len(reduced))):
        return None
    x = [Q(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][m.cols]
    return tuple(x)


def dense_inverse(m: Matrix) -> Matrix | None:
    """The inverse of a square matrix, or None when it is singular."""
    n = m.rows
    rows = [list(m.entries[i]) + [Q(int(i == j)) for j in range(n)]
            for i in range(n)]
    reduced, pivots = dense_rref(rows, n)
    if len(pivots) != n:
        return None
    return Matrix(n, n, tuple(tuple(row[n:]) for row in reduced))


# ---------------------------------------------------------------------------
# dense products
# ---------------------------------------------------------------------------

def dense_matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = [b.col(j) for j in range(b.cols)]
    return Matrix(a.rows, b.cols, tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0))
              for col in cols)
        for row in a.entries))


def dense_apply(m: Matrix, v) -> tuple[Fraction, ...]:
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0))
                 for row in m.entries)


def dense_add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, tuple(
        vec_add(r, s) for r, s in zip(a.entries, b.entries, strict=True)))


def dense_sub(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, tuple(
        vec_sub(r, s) for r, s in zip(a.entries, b.entries, strict=True)))


def dense_scale(m: Matrix, c) -> Matrix:
    return Matrix(m.rows, m.cols,
                  tuple(tuple(Q(c) * a for a in row) for row in m.entries))


def dense_col(m: Matrix, j: int) -> tuple[Fraction, ...]:
    return tuple(row[j] for row in m.entries)


def dense_transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows,
                  tuple(dense_col(m, j) for j in range(m.cols)))


def dense_kron(a: Matrix, b: Matrix) -> Matrix:
    entries = []
    for i in range(a.rows):
        for j in range(b.rows):
            row = []
            for k in range(a.cols):
                row.extend(a.entries[i][k] * x for x in b.entries[j])
            entries.append(tuple(row))
    return Matrix(a.rows * b.rows, a.cols * b.cols, tuple(entries))


def dense_is_zero(m: Matrix) -> bool:
    return not any(map(any, m.entries))


def dense_value(p, u, v) -> tuple[Fraction, ...]:
    """``p.value(u, v)`` for a :class:`~bihom.BilinearProduct` ``p``."""
    acc = [Q(0)] * p.dim
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            coeff = a * b
            for k, val in enumerate(p.c[i][j]):
                if val:
                    acc[k] += coeff * val
    return tuple(acc)


# ---------------------------------------------------------------------------
# axiom checkers, one loop per identity and per checker
# ---------------------------------------------------------------------------

class _Collector:
    def __init__(self) -> None:
        self.violations: list[Violation] = []

    def check(self, axiom, indices, residual) -> None:
        if any(residual):
            self.violations.append(Violation(axiom, indices, tuple(residual)))

    def check_matrix(self, axiom, indices, m: Matrix) -> None:
        if not m.is_zero:
            flat = tuple(a for row in m.entries for a in row)
            self.violations.append(Violation(axiom, indices, flat))

    def flag(self, axiom, indices=()) -> None:
        self.violations.append(Violation(axiom, indices, ()))

    def report(self) -> AxiomReport:
        return AxiomReport(tuple(self.violations))


def _merged(*reports: AxiomReport) -> AxiomReport:
    return AxiomReport(tuple(v for r in reports for v in r.violations))


def _prefixed(report: AxiomReport, prefix: str) -> AxiomReport:
    return AxiomReport(tuple(Violation(f"{prefix}{v.axiom}", v.indices, v.residual)
                             for v in report.violations))


def _twist_violations(col, twists) -> None:
    col.check_matrix("alpha-beta-commutation", (),
                     twists.alpha @ twists.beta - twists.beta @ twists.alpha)
    if rank(twists.alpha) != twists.dim:
        col.flag("alpha-invertible")
    if rank(twists.beta) != twists.dim:
        col.flag("beta-invertible")


def _multiplicativity_violations(col, product, alpha, beta, axiom) -> None:
    n = product.dim
    for name, m in (("alpha", alpha), ("beta", beta)):
        cols = [m.col(j) for j in range(n)]
        for i in range(n):
            for j in range(n):
                lhs = m.apply(product.basis_value(i, j))
                rhs = product.value(cols[i], cols[j])
                col.check(axiom.format(name), (i, j), vec_sub(lhs, rhs))


def oracle_check_prelie(a) -> AxiomReport:
    col = _Collector()
    _twist_violations(col, a.twists)
    _multiplicativity_violations(col, a.product, a.alpha, a.beta,
                                 "{}-multiplicative")
    n = a.dim
    P = a.product
    ab = a.alpha @ a.beta
    acol = [a.alpha.col(i) for i in range(n)]
    bcol = [a.beta.col(i) for i in range(n)]
    abcol = [ab.col(i) for i in range(n)]

    def associator(x, y, z):
        left = P.value(P.value(bcol[x], acol[y]), bcol[z])
        right = P.value(abcol[x], P.value(acol[y], basis_vector(n, z)))
        return vec_sub(left, right)

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                col.check("left-symmetry", (i, j, k),
                          vec_sub(associator(i, j, k), associator(j, i, k)))
    return col.report()


def oracle_check_bihom_lie(g) -> AxiomReport:
    col = _Collector()
    _twist_violations(col, g.twists)
    _multiplicativity_violations(col, g.bracket, g.alpha, g.beta,
                                 "{}-bracket-morphism")
    n = g.dim
    B = g.bracket
    acol = [g.alpha.col(i) for i in range(n)]
    bcol = [g.beta.col(i) for i in range(n)]
    b2 = g.beta @ g.beta
    b2col = [b2.col(i) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            col.check("skew-symmetry", (i, j),
                      vec_add(B.value(bcol[i], acol[j]), B.value(bcol[j], acol[i])))

    def jacobi(x, y, z):
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


def oracle_check_linear_deformation(a, pi) -> AxiomReport:
    col = _Collector()
    _multiplicativity_violations(col, pi, a.alpha, a.beta, "pi-{}-equivariance")
    n = a.dim
    ab = a.alpha @ a.beta
    acol = [a.alpha.col(i) for i in range(n)]
    bcol = [a.beta.col(i) for i in range(n)]
    abcol = [ab.col(i) for i in range(n)]

    def ls_expr(P, Q, x, y, z):
        left = P.value(Q.value(bcol[x], acol[y]), bcol[z])
        right = P.value(abcol[x], Q.value(acol[y], basis_vector(n, z)))
        return vec_sub(left, right)

    P = a.product

    def t1(x, y, z):
        return vec_add(ls_expr(P, pi, x, y, z), ls_expr(pi, P, x, y, z))

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                col.check("deformation-cocycle", (i, j, k),
                          vec_sub(t1(i, j, k), t1(j, i, k)))
                col.check("deformation-square", (i, j, k),
                          vec_sub(ls_expr(pi, pi, i, j, k),
                                  ls_expr(pi, pi, j, i, k)))
    return _merged(_prefixed(oracle_check_prelie(a), "base:"), col.report())


def oracle_check_lie_linear_deformation(g, pi) -> AxiomReport:
    col = _Collector()
    _multiplicativity_violations(col, pi, g.alpha, g.beta, "pi-{}-equivariance")
    n = g.dim
    acol = [g.alpha.col(i) for i in range(n)]
    bcol = [g.beta.col(i) for i in range(n)]
    b2 = g.beta @ g.beta
    b2col = [b2.col(i) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            col.check("pi-bihom-skew", (i, j),
                      vec_add(pi.value(bcol[i], acol[j]), pi.value(bcol[j], acol[i])))

    def jac_expr(P, Q, x, y, z):
        total = zero_vector(n)
        for p, q, s in ((x, y, z), (y, z, x), (z, x, y)):
            total = vec_add(total, P.value(b2col[p], Q.value(bcol[q], acol[s])))
        return total

    B = g.bracket
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i <= j and i <= k:
                    mixed = vec_add(jac_expr(B, pi, i, j, k), jac_expr(pi, B, i, j, k))
                    col.check("lie-deformation-cocycle", (i, j, k), mixed)
                    col.check("lie-deformation-jacobi", (i, j, k),
                              jac_expr(pi, pi, i, j, k))
    return _merged(_prefixed(oracle_check_bihom_lie(g), "base:"), col.report())


def oracle_check_prelie_rep(r) -> AxiomReport:
    col = _Collector()
    a = r.algebra
    n, phi, psi = a.dim, r.phi, r.psi
    ab = a.alpha @ a.beta
    acol = [a.alpha.col(i) for i in range(n)]
    bcol = [a.beta.col(i) for i in range(n)]
    abcol = [ab.col(i) for i in range(n)]
    P = a.product

    col.check_matrix("phi-psi-commutation", (), phi @ psi - psi @ phi)
    for i in range(n):
        col.check_matrix("rep1-phi-L", (i,), phi @ r.L[i] - r.L_of(acol[i]) @ phi)
        col.check_matrix("rep1-psi-L", (i,), psi @ r.L[i] - r.L_of(bcol[i]) @ psi)
        col.check_matrix("rep1-phi-R", (i,), phi @ r.R[i] - r.R_of(acol[i]) @ phi)
        col.check_matrix("rep1-psi-R", (i,), psi @ r.R[i] - r.R_of(bcol[i]) @ psi)

    def rep2_half(x, y):
        return (r.L_of(P.value(bcol[x], acol[y])) @ psi
                - r.L_of(abcol[x]) @ r.L_of(acol[y]))

    for i in range(n):
        for j in range(i + 1, n):
            col.check_matrix("rep2", (i, j), rep2_half(i, j) - rep2_half(j, i))

    for i in range(n):
        for j in range(n):
            lhs = (r.R_of(bcol[i]) @ r.L_of(bcol[j]) @ phi
                   - r.L_of(abcol[j]) @ r.R[i] @ phi)
            rhs = (r.R_of(bcol[i]) @ r.R_of(acol[j]) @ psi
                   - r.R_of(P.value(acol[j], basis_vector(n, i))) @ phi @ psi)
            col.check_matrix("rep3", (i, j), lhs - rhs)
    return col.report()


def oracle_check_lie_rep(r) -> AxiomReport:
    col = _Collector()
    g = r.algebra
    n, phi, psi = g.dim, r.phi, r.psi
    ab = g.alpha @ g.beta
    acol = [g.alpha.col(i) for i in range(n)]
    bcol = [g.beta.col(i) for i in range(n)]
    abcol = [ab.col(i) for i in range(n)]
    B = g.bracket

    col.check_matrix("phi-psi-commutation", (), phi @ psi - psi @ phi)
    for i in range(n):
        col.check_matrix("lie-rep-1", (i,), r.rho_of(acol[i]) @ phi - phi @ r.rho[i])
        col.check_matrix("lie-rep-2", (i,), r.rho_of(bcol[i]) @ psi - psi @ r.rho[i])
    for i in range(n):
        for j in range(n):
            lhs = r.rho_of(B.value(bcol[i], basis_vector(n, j))) @ psi
            rhs = r.rho_of(abcol[i]) @ r.rho[j] - r.rho_of(bcol[j]) @ r.rho_of(acol[i])
            col.check_matrix("lie-rep-3", (i, j), lhs - rhs)
    return col.report()


def oracle_twist_rep_hypotheses(classical, alpha, beta, phi, psi) -> AxiomReport:
    """The hypotheses ``twist_rep`` checks before it builds anything."""
    a = classical.algebra
    n = a.dim
    col = _Collector()
    col.check_matrix("alpha-beta-commutation", (), alpha @ beta - beta @ alpha)
    col.check_matrix("phi-psi-commutation", (), phi @ psi - psi @ phi)
    acol = [alpha.col(i) for i in range(n)]
    bcol = [beta.col(i) for i in range(n)]
    _multiplicativity_violations(col, a.product, alpha, beta, "{}-multiplicative")
    for i in range(n):
        col.check_matrix("phi-L-intertwining", (i,),
                         phi @ classical.L[i] - classical.L_of(acol[i]) @ phi)
        col.check_matrix("psi-L-intertwining", (i,),
                         psi @ classical.L[i] - classical.L_of(bcol[i]) @ psi)
        col.check_matrix("phi-R-intertwining", (i,),
                         phi @ classical.R[i] - classical.R_of(acol[i]) @ phi)
        col.check_matrix("psi-R-intertwining", (i,),
                         psi @ classical.R[i] - classical.R_of(bcol[i]) @ psi)
    return col.report()


# ---------------------------------------------------------------------------
# the dense structure tensor and the constructions that built it
# ---------------------------------------------------------------------------

def _dense_product(n: int, get) -> BilinearProduct:
    """The product with ``e_i * e_j = get(i, j)``, a dense vector, given to
    the constructor as the nest ``c``."""
    return BilinearProduct(n, tuple(tuple(tuple(get(i, j)) for j in range(n))
                                    for i in range(n)))


def dense_tensor_add(p, q) -> BilinearProduct:
    return _dense_product(p.dim, lambda i, j: vec_add(p.c[i][j], q.c[i][j]))


def dense_tensor_sub(p, q) -> BilinearProduct:
    return _dense_product(p.dim, lambda i, j: vec_sub(p.c[i][j], q.c[i][j]))


def dense_tensor_scale(p, c) -> BilinearProduct:
    return _dense_product(p.dim,
                          lambda i, j: tuple(Q(c) * a for a in p.c[i][j]))


def dense_tensor_is_zero(p) -> bool:
    return all(vec_is_zero(v) for plane in p.c for v in plane)


def dense_left_matrices(p) -> tuple[Matrix, ...]:
    """The matrix of ``y -> e_i * y``: its column j is ``c[i][j]``."""
    n = p.dim
    return tuple(Matrix(n, n, tuple(tuple(p.c[i][j][k] for j in range(n))
                                    for k in range(n)))
                 for i in range(n))


def dense_right_matrices(p) -> tuple[Matrix, ...]:
    """The matrix of ``y -> y * e_i``: its column j is ``c[j][i]``."""
    n = p.dim
    return tuple(Matrix(n, n, tuple(tuple(p.c[j][i][k] for j in range(n))
                                    for k in range(n)))
                 for i in range(n))


def _dense_combination(mats, coeffs) -> Matrix:
    total = Matrix(mats[0].rows, mats[0].cols,
                   tuple(zero_vector(mats[0].cols) for _ in range(mats[0].rows)))
    for m, c in zip(mats, coeffs):
        total = dense_add(total, dense_scale(m, c))
    return total


def dense_subadjacent_tensor(p, alpha: Matrix, beta: Matrix) -> BilinearProduct:
    """``x.y - (alpha^-1 beta y).(alpha beta^-1 x)`` on basis pairs."""
    n = p.dim
    ainv_b = dense_matmul(dense_inverse(alpha), beta)
    a_binv = dense_matmul(alpha, dense_inverse(beta))
    return _dense_product(n, lambda i, j: vec_sub(
        p.c[i][j], dense_value(p, dense_col(ainv_b, j), dense_col(a_binv, i))))


def dense_semidirect_tensor(top, m: int, left, right) -> BilinearProduct:
    """``(x+u)(y+v) = top(x, y) + left(x) v + right(y) u`` on A + V, the
    algebra basis first."""
    n = top.dim
    N = n + m
    zero = Q(0)
    entries = [[(zero,) * N] * N for _ in range(N)]
    for i in range(n):
        for j in range(n):
            entries[i][j] = tuple(top.c[i][j]) + (zero,) * m
        for b in range(m):
            entries[i][n + b] = (zero,) * n + dense_col(left[i], b)
    for u in range(m):
        for j in range(n):
            entries[n + u][j] = (zero,) * n + dense_col(right[j], u)
    return BilinearProduct(N, tuple(tuple(row) for row in entries))


def dense_semidirect_lie_right(r) -> list[Matrix]:
    """``u -> -rho(alpha^-1 beta e_j) phi psi^-1 u`` for each basis index j."""
    g = r.algebra
    ainv_b = dense_matmul(dense_inverse(g.alpha), g.beta)
    phi_psinv = dense_matmul(r.phi, dense_inverse(r.psi))
    return [dense_scale(dense_matmul(
        _dense_combination(r.rho, dense_col(ainv_b, j)), phi_psinv), -1)
        for j in range(g.dim)]


def dense_twisted_product(p, alpha: Matrix, beta: Matrix) -> BilinearProduct:
    """``x * y = alpha(x).beta(y)``."""
    return _dense_product(p.dim, lambda i, j: dense_value(
        p, dense_col(alpha, i), dense_col(beta, j)))


def dense_deformed_product(p, N: Matrix) -> BilinearProduct:
    """``x *_N y = N(x).y + x.N(y) - N(x.y)``."""
    n = p.dim

    def get(i, j):
        e_i, e_j = basis_vector(n, i), basis_vector(n, j)
        return vec_sub(vec_add(dense_value(p, dense_col(N, i), e_j),
                               dense_value(p, e_i, dense_col(N, j))),
                       dense_apply(N, p.c[i][j]))

    return _dense_product(n, get)


def dense_o_induced_product(T: Matrix, r) -> BilinearProduct:
    """``u * v = rho(T(u)) v`` on the carrier."""
    return _dense_product(r.vdim, lambda u, v: dense_col(
        _dense_combination(r.rho, dense_col(T, u)), v))


def dense_rb_induced_product(R: Matrix, g) -> BilinearProduct:
    """``x * y = [R(x), y]``."""
    n = g.dim
    return _dense_product(n, lambda i, j: dense_value(
        g.bracket, dense_col(R, i), basis_vector(n, j)))


def dense_compatible_product(T: Matrix, r) -> BilinearProduct:
    """``x . y = T(rho(x) T^-1(y))``."""
    tinv = dense_inverse(T)
    return _dense_product(T.rows, lambda i, j: dense_apply(
        T, dense_col(dense_matmul(r.rho[i], tinv), j)))


# ---------------------------------------------------------------------------
# the tensor-stored cochain
# ---------------------------------------------------------------------------

def nonzero_items(v: Sequence[Fraction]) -> tuple[tuple[int, Fraction], ...]:
    """Sparse view of a vector: the (index, value) pairs with value != 0."""
    return tuple((i, a) for i, a in enumerate(v) if a)


def _nest(adim: int, depth: int,
          get: Callable[[tuple[int, ...]], tuple[Fraction, ...]]):
    def build(prefix: tuple[int, ...], d: int):
        if d == 0:
            return get(prefix)
        return tuple(build(prefix + (i,), d - 1) for i in range(adim))
    return build((), depth)


class DenseCochain(Value):
    """Degree-n multilinear map A^n -> V expanded on basis tuples."""

    degree: int
    adim: int
    vdim: int
    tensor: tuple

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("cochains have degree >= 1")

        def walk(node, depth: int) -> None:
            if depth == 0:
                if len(node) != self.vdim:
                    raise ValueError("cochain values must have carrier dimension")
                return
            if len(node) != self.adim:
                raise ValueError("cochain tensor does not match algebra dimension")
            for child in node:
                walk(child, depth - 1)

        walk(self.tensor, self.degree)

    @classmethod
    def zero(cls, degree: int, adim: int, vdim: int) -> "DenseCochain":
        return cls(degree, adim, vdim,
                   _nest(adim, degree, lambda _: zero_vector(vdim)))

    @classmethod
    def from_map(cls, degree: int, adim: int, vdim: int,
                 get: Callable[[tuple[int, ...]], Sequence[Fraction]]) -> "DenseCochain":
        return cls(degree, adim, vdim,
                   _nest(adim, degree, lambda idx: tuple(get(idx))))

    def at(self, idx: tuple[int, ...]) -> tuple[Fraction, ...]:
        node = self.tensor
        for i in idx:
            node = node[i]
        return node

    def value(self, args: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
        """Multilinear evaluation on coordinate vectors (sparsity-aware)."""
        if len(args) != self.degree:
            raise ValueError("argument count must equal the degree")
        acc = list(zero_vector(self.vdim))
        for pairs in itertools.product(*(nonzero_items(v) for v in args)):
            coeff = prod(c for _, c in pairs)
            for k, val in enumerate(self.at(tuple(i for i, _ in pairs))):
                acc[k] += coeff * val
        return tuple(acc)

    @property
    def is_zero(self) -> bool:
        return all(vec_is_zero(self.at(idx)) for idx in
                   itertools.product(range(self.adim), repeat=self.degree))

    def to_json(self) -> dict:
        def encode(node, depth: int):
            if depth == 0:
                return [rational_to_json(a) for a in node]
            return [encode(child, depth - 1) for child in node]
        return {"degree": self.degree, "tensor": encode(self.tensor, self.degree)}

    @classmethod
    def from_json(cls, data: dict, adim: int, vdim: int) -> "DenseCochain":
        degree = data["degree"]
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError("cochain degree must be an integer")

        def decode(node, depth: int):
            if not isinstance(node, list):
                raise ValueError("cochain tensor must be a nested array")
            if depth == 0:
                return tuple(rational_from_json(a) for a in node)
            return tuple(decode(child, depth - 1) for child in node)

        return cls(degree, adim, vdim, decode(data["tensor"], degree))


# ---------------------------------------------------------------------------
# per-image cohomology
# ---------------------------------------------------------------------------

def _canonical_sign(idx):
    head = list(idx[:-1])
    if len(set(head)) != len(head):
        return 0, None
    inversions = sum(1 for i in range(len(head)) for j in range(i + 1, len(head))
                     if head[i] > head[j])
    return (-1) ** inversions, tuple(sorted(head)) + (idx[-1],)


def oracle_cochain_basis(a, r, n) -> list[DenseCochain]:
    """A basis of C^n: the kernel of the equivariance conditions at every
    basis tuple, over the free coordinates of skew tensors."""
    adim, vdim = a.dim, r.vdim
    coords = [(head + (last,), k)
              for head in itertools.combinations(range(adim), n - 1)
              for last in range(adim) for k in range(vdim)]
    pos = {c: i for i, c in enumerate(coords)}
    rows = []
    for outer, inner in ((r.phi, a.alpha), (r.psi, a.beta)):
        for idx in itertools.product(range(adim), repeat=n):
            sign_l, canon_l = _canonical_sign(idx)
            for k in range(vdim):
                row = [Q(0)] * len(coords)
                if canon_l is not None:
                    for kk in range(vdim):
                        row[pos[(canon_l, kk)]] += sign_l * outer.entries[k][kk]
                for jdx in itertools.product(range(adim), repeat=n):
                    coeff = Q(1)
                    for i, j in zip(idx, jdx):
                        coeff *= inner.entries[j][i]
                    sign_r, canon_r = _canonical_sign(jdx)
                    if coeff and canon_r is not None:
                        row[pos[(canon_r, k)]] -= sign_r * coeff
                rows.append(row)
    kernel = dense_kernel_basis(Matrix(len(rows), len(coords), tuple(
        tuple(row) for row in rows)))

    def unpack(vec):
        def get(idx):
            sign, canon = _canonical_sign(idx)
            if canon is None:
                return (Q(0),) * vdim
            return tuple(sign * vec[pos[(canon, k)]] for k in range(vdim))
        return DenseCochain.from_map(n, adim, vdim, get)

    return [unpack(v) for v in kernel]


def oracle_coboundary(f: DenseCochain, a, r) -> DenseCochain:
    """The four-sum coboundary evaluated on the full value tensor of f."""
    n, adim, vdim = f.degree, a.dim, r.vdim
    alpha, beta = a.alpha, a.beta
    an1, bn1 = alpha.power(n - 1), beta.power(n - 1)
    ab = alpha @ beta
    e = [tuple(Q(int(i == j)) for j in range(adim)) for i in range(adim)]
    sub = subadjacent(a).bracket

    def image(X):
        total = [Q(0)] * vdim

        def add(vec, sign):
            for k, v in enumerate(vec):
                total[k] += sign * v

        last = X[n]
        for i0 in range(n):
            sign = (-1) ** i0
            head = [X[t] for t in range(n) if t != i0]
            lmat = r.L_of((an1 @ bn1).col(X[i0]))
            rmat = r.R_of(bn1.col(last))
            add(lmat.apply(f.value([alpha.col(x) for x in head] + [e[last]])),
                sign)
            add(rmat.apply(f.value([beta.col(x) for x in head]
                                   + [an1.col(X[i0])])), sign)
            add(f.value([ab.col(x) for x in head]
                        + [a.product.value(an1.col(X[i0]), e[last])]), -sign)
        for i0 in range(n):
            for j0 in range(i0 + 1, n):
                args = [sub.value(beta.col(X[i0]), alpha.col(X[j0]))]
                args += [ab.col(X[t]) for t in range(n) if t not in (i0, j0)]
                add(f.value(args + [beta.col(last)]), (-1) ** (i0 + j0))
        return tuple(total)

    return DenseCochain.from_map(n + 1, adim, vdim, image)


def _flatten(f: DenseCochain) -> tuple[Fraction, ...]:
    return tuple(x for idx in itertools.product(range(f.adim), repeat=f.degree)
                 for x in f.at(idx))


def oracle_coboundary_matrix(a, r, source, target) -> Matrix:
    """The coboundary in the given bases, one linear solve per image."""
    if not source:
        return Matrix.zeros(len(target), 0)
    images = [oracle_coboundary(g, a, r) for g in source]
    if not target:
        assert all(img.is_zero for img in images)
        return Matrix.zeros(0, len(source))
    flat = [_flatten(g) for g in target]
    basis = Matrix(len(flat[0]), len(flat), tuple(zip(*flat)))
    columns = []
    for img in images:
        coords = dense_try_solve(basis, _flatten(img))
        assert coords is not None, "image outside the cochain space"
        columns.append(coords)
    return Matrix(len(target), len(source), tuple(zip(*columns)))


def oracle_cohomology(a, r, degrees) -> list[tuple[int, int, int, int]]:
    """(degree, dim Z, dim B, dim H) for each degree."""
    top = max(degrees) + 1
    bases = {m: oracle_cochain_basis(a, r, m) for m in range(1, top + 1)}
    ranks = {m: dense_rank(oracle_coboundary_matrix(a, r, bases[m],
                                                    bases[m + 1]))
             for m in range(1, top)}
    out = []
    for m in degrees:
        dim_z = len(bases[m]) - ranks[m]
        dim_b = ranks[m - 1] if m > 1 else 0
        out.append((m, dim_z, dim_b, dim_z - dim_b))
    return out


def oracle_derivation_dim(a) -> int:
    """The dimension of the derivations D of A (``D(x.y) = D(x).y +
    x.D(y)``) with ``D alpha = alpha D`` and ``D beta = beta D``: with
    adjoint coefficients these are the 1-cocycles, as ``(d f)(x, y) =
    x.f(y) + f(x).y - f(x.y)``.  One dense system of ``dim^3 + 2 dim^2``
    rows over the ``dim^2`` entries ``D[k][j]`` (unknown ``k*dim + j``)."""
    n, c = a.dim, a.product.c
    rows = []
    for i, j, k in itertools.product(range(n), repeat=3):
        # the e_k component of D(e_i.e_j) - D(e_i).e_j - e_i.D(e_j)
        row = [Q(0)] * (n * n)
        for m in range(n):
            row[k * n + m] += c[i][j][m]
            row[m * n + i] -= c[m][j][k]
            row[m * n + j] -= c[i][m][k]
        rows.append(row)
    for twist in (a.alpha.entries, a.beta.entries):
        for k, j in itertools.product(range(n), repeat=2):
            # the (k, j) entry of D twist - twist D
            row = [Q(0)] * (n * n)
            for m in range(n):
                row[k * n + m] += twist[m][j]
                row[m * n + j] -= twist[k][m]
            rows.append(row)
    return n * n - len(dense_rref(rows, n * n)[1])


# ---------------------------------------------------------------------------
# the four-sum's copying accumulation
# ---------------------------------------------------------------------------

class CopyingCochainSpace(CochainSpace):
    """A :class:`~bihom.cohomology.CochainSpace` whose four-sum shifts a
    copy of each ``outer`` row to its offset and adds the copy by
    ``_axpy``.  ``touched`` collects the ids of the rows given a term, so a
    caller holding the rows can tell a row whose terms cancelled from one
    that got none."""

    def __init__(self, a, r, n) -> None:
        super().__init__(a, r, n)
        self.touched: set[int] = set()

    def _evaluate(self, rows, heads, last, outer, coeff) -> None:
        if not any(outer):
            return
        vdim, index = self.vdim, self.index
        for J, w in heads.items():
            for l, c in last.items():
                base = index[J + (l,)] * vdim
                x = coeff * w * c
                for row, entries in zip(rows, outer):
                    if entries:
                        self.touched.add(id(row))
                    _axpy(row, x, {base + kk: m for kk, m in entries.items()})


# ---------------------------------------------------------------------------
# the anchored matchers of a rational literal and a degree range
# ---------------------------------------------------------------------------

# ``$`` also matches before a final newline
ANCHORED_RATIONAL = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")
ANCHORED_DEGREES = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


# ---------------------------------------------------------------------------
# the value types as frozen dataclasses
# ---------------------------------------------------------------------------

# The fields of each value type, in declaration order.
VALUE_FIELDS = {
    Matrix: ("rows", "cols", "entries"),
    BilinearProduct: ("dim", "c"),
    TwistPair: ("alpha", "beta"),
    BiHomPreLieAlgebra: ("product", "twists"),
    BiHomLieAlgebra: ("bracket", "twists"),
    Violation: ("axiom", "indices", "residual"),
    AxiomReport: ("violations",),
    PreLieRep: ("algebra", "vdim", "L", "R", "phi", "psi"),
    LieRep: ("algebra", "vdim", "rho", "phi", "psi"),
    Cochain: ("degree", "adim", "vdim", "coords"),
    CohomologyReport: ("degree", "dimZ", "dimB", "dimH"),
}

# Each value type declared as a frozen dataclass of the same name, with
# the same fields and the same ``__post_init__`` checks.
FROZEN_TWINS = {
    cls: make_dataclass(cls.__name__, fields, frozen=True,
                        namespace={"__post_init__": cls.__post_init__})
    for cls, fields in VALUE_FIELDS.items()
}


# ---------------------------------------------------------------------------
# the dense JSON codec
# ---------------------------------------------------------------------------

def dense_matrix_from_json(data: object, cols: int | None = None) -> Matrix:
    """``Matrix.from_json`` through dense ``Fraction`` rows."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix JSON must be an array of rows")
    rows = [tuple(map(rational_from_json, row)) for row in data]
    if rows:
        width = len(rows[0])
    elif cols is not None:
        width = cols
    else:
        raise LinAlgError("cannot infer column count of an empty matrix")
    if cols is not None and rows and width != cols:
        raise LinAlgError("explicit column count does not match data")
    return Matrix(len(rows), width, tuple(rows))


def dense_matrix_to_json(m: Matrix) -> list:
    return [[rational_to_json(a) for a in row] for row in m.entries]


def dense_tensor_from_json(data: object) -> BilinearProduct:
    """``BilinearProduct.from_json`` through the dense nest ``c``."""
    if not (isinstance(data, list) and all(
            isinstance(plane, list) and all(isinstance(vec, list) for vec in plane)
            for plane in data)):
        raise ValueError("structure tensor JSON must be a nested array")
    return BilinearProduct(len(data), tuple(
        tuple(tuple(map(rational_from_json, vec)) for vec in plane)
        for plane in data))


def dense_tensor_to_json(p: BilinearProduct) -> list:
    return [[[rational_to_json(a) for a in vec] for vec in plane]
            for plane in p.c]
