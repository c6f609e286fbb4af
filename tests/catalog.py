"""Shared fixtures and independent oracles for the test suite.

Fixture algebras are hand-verified families:

* the one-dimensional idempotent algebra ``e.e = e``;
* abelian algebras with arbitrary commuting invertible twists;
* the two-step nilpotent plane ``e1.e1 = e2`` with twists
  ``diag(s, s^2), diag(t, t^2)``;
* the upper-triangular associative plane ``e1.e1 = e1, e1.e2 = e2`` and its
  twist by ``diag(1, p), diag(1, q)``;
* the graded family ``e1.e1 = e2, e1.e2 = e3, e2.e1 = g e3`` with twists
  ``diag(s, s^2, s^3), diag(t, t^2, t^3)`` (left-symmetric for every g, not
  associative unless g = 1);
* the dim-3 algebra ``e1.e2 = e3`` with grading-compatible twists.

The Nijenhuis and Rota-Baxter searches enumerate all matrices with entries
in {-1, 0, 1} (plus rational multiples of the identity elsewhere in the
tests) with a plain-integer fast path, then re-verify every survivor
through the library checkers.

The classical (identity-twist) coboundary oracles are written directly from
the untwisted formulas on raw nested lists and share no code with the
library implementation.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from bihom import (
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    BilinearProduct,
    LieRep,
    Matrix,
    PreLieRep,
    TwistPair,
    adjoint_lie_rep,
    adjoint_rep,
    check_lie_rep,
    check_nijenhuis_prelie,
    check_prelie,
    check_prelie_rep,
    check_rota_baxter,
    induced_lie_rep,
    subadjacent,
    tensor_rep,
    trivial_rep,
    twist_rep,
)

Q = Fraction


def tensor(dim: int, entries: dict) -> BilinearProduct:
    c = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in entries.items():
        c[i][j][k] = Q(v)
    return BilinearProduct.from_entries(c)


def diag(*values) -> Matrix:
    return Matrix.diagonal(values)


# ---------------------------------------------------------------------------
# algebra fixtures
# ---------------------------------------------------------------------------

def dim1_idempotent() -> BiHomPreLieAlgebra:
    return BiHomPreLieAlgebra.classical(tensor(1, {(0, 0, 0): 1}))


def dim2_abelian(alpha: Matrix | None = None,
                 beta: Matrix | None = None) -> BiHomPreLieAlgebra:
    twists = TwistPair(alpha or Matrix.identity(2), beta or Matrix.identity(2))
    return BiHomPreLieAlgebra(BilinearProduct.zero(2), twists)


def dim2_nilpotent(s=1, t=1) -> BiHomPreLieAlgebra:
    return BiHomPreLieAlgebra(
        tensor(2, {(0, 0, 1): 1}),
        TwistPair(diag(s, Q(s) ** 2), diag(t, Q(t) ** 2)))


def dim2_assoc() -> BiHomPreLieAlgebra:
    # e1 = E11, e2 = E12 inside 2x2 upper-triangular matrices
    return BiHomPreLieAlgebra.classical(tensor(2, {(0, 0, 0): 1, (0, 1, 1): 1}))


def yau_twist_algebra(a: BiHomPreLieAlgebra, alpha: Matrix,
                      beta: Matrix) -> BiHomPreLieAlgebra:
    """Twist an untwisted algebra: new product ``x * y = alpha(x).beta(y)``
    with twist pair (alpha, beta).  Callers supply commuting multiplicative
    invertible maps."""
    assert a.alpha.is_identity and a.beta.is_identity
    n = a.dim
    acol = [alpha.col(i) for i in range(n)]
    bcol = [beta.col(i) for i in range(n)]
    product = BilinearProduct(n, tuple(
        tuple(a.product.value(acol[i], bcol[j]) for j in range(n))
        for i in range(n)))
    return BiHomPreLieAlgebra(product, TwistPair(alpha, beta))


def dim2_assoc_twisted(p=2, q=3) -> BiHomPreLieAlgebra:
    return yau_twist_algebra(dim2_assoc(), diag(1, p), diag(1, q))


def dim3_graded(gamma, s=1, t=1) -> BiHomPreLieAlgebra:
    s, t = Q(s), Q(t)
    return BiHomPreLieAlgebra(
        tensor(3, {(0, 0, 1): 1, (0, 1, 2): 1, (1, 0, 2): gamma}),
        TwistPair(diag(s, s ** 2, s ** 3), diag(t, t ** 2, t ** 3)))


def dim3_heisenberg(a=1, b=1, c=1, d=1) -> BiHomPreLieAlgebra:
    a, b, c, d = Q(a), Q(b), Q(c), Q(d)
    return BiHomPreLieAlgebra(
        tensor(3, {(0, 1, 2): 1}),
        TwistPair(diag(a, b, a * b), diag(c, d, c * d)))


def dim3_graded_unipotent(gamma, b1=1, c1=0, b2=2, c2=5) -> BiHomPreLieAlgebra:
    """Graded product with non-diagonal (unipotent lower-triangular) twists.

    Maps of the form e1 -> e1 + b e2 + c e3, e2 -> e2 + b(1+gamma) e3,
    e3 -> e3 are multiplicative for the graded product and any two of them
    commute."""
    g = Q(gamma)

    def uni(b, c):
        return Matrix.from_rows([[1, 0, 0], [b, 1, 0], [c, Q(b) * (1 + g), 1]])

    return BiHomPreLieAlgebra(
        tensor(3, {(0, 0, 1): 1, (0, 1, 2): 1, (1, 0, 2): g}),
        TwistPair(uni(b1, c1), uni(b2, c2)))


def dim3_abelian_twisted() -> BiHomPreLieAlgebra:
    return BiHomPreLieAlgebra(
        BilinearProduct.zero(3),
        TwistPair(diag(1, 2, 3), diag(4, 5, 6)))


def prelie_fixtures() -> list[tuple[str, BiHomPreLieAlgebra]]:
    """Named valid BiHom-pre-Lie algebras spanning dims 1..3, identity and
    non-identity twists, abelian through non-associative."""
    shear = Matrix.from_rows([[1, 1], [0, 1]])
    fixtures = [
        ("dim1-idempotent", dim1_idempotent()),
        ("dim2-abelian-id", dim2_abelian()),
        ("dim2-abelian-diag", dim2_abelian(diag(2, 3), diag(5, 7))),
        ("dim2-abelian-shear", dim2_abelian(shear, Matrix.identity(2))),
        ("dim2-nilpotent-id", dim2_nilpotent()),
        ("dim2-nilpotent-twist", dim2_nilpotent(2, 3)),
        ("dim2-nilpotent-neg", dim2_nilpotent(-1, 2)),
        ("dim2-nilpotent-frac", dim2_nilpotent(Q(1, 2), 3)),
        ("dim2-assoc", dim2_assoc()),
        ("dim2-assoc-twist", dim2_assoc_twisted(2, 3)),
        ("dim2-assoc-twist-neg", dim2_assoc_twisted(-1, 2)),
        ("dim3-graded-1", dim3_graded(1)),
        ("dim3-graded-2", dim3_graded(2)),
        ("dim3-graded-2-twist", dim3_graded(2, 2, 3)),
        ("dim3-graded-neg-twist", dim3_graded(-1, 1, 2)),
        ("dim3-graded-unipotent", dim3_graded_unipotent(2)),
        ("dim3-graded-unipotent-yau",
         yau_twist_algebra(dim3_graded(Q(1, 2)),
                           dim3_graded_unipotent(Q(1, 2)).alpha,
                           dim3_graded_unipotent(Q(1, 2)).beta)),
        ("dim3-heisenberg-twist", dim3_heisenberg(2, 5, 3, 7)),
        ("dim3-abelian-twist", dim3_abelian_twisted()),
    ]
    for name, alg in fixtures:
        assert check_prelie(alg).passed, f"fixture {name} is invalid"
    return fixtures


def small_prelie_fixtures() -> list[tuple[str, BiHomPreLieAlgebra]]:
    return [(n, a) for n, a in prelie_fixtures() if a.dim <= 2]


def lie_fixtures() -> list[tuple[str, BiHomLieAlgebra]]:
    return [(f"sub({name})", subadjacent(alg)) for name, alg in prelie_fixtures()]


# ---------------------------------------------------------------------------
# representation fixtures
# ---------------------------------------------------------------------------

def prelie_rep_fixtures() -> list[tuple[str, PreLieRep]]:
    reps: list[tuple[str, PreLieRep]] = []
    for name, alg in prelie_fixtures():
        reps.append((f"adjoint({name})", adjoint_rep(alg)))
        reps.append((f"trivial({name})", trivial_rep(alg)))
    for name, alg in [("dim2-nilpotent-twist", dim2_nilpotent(2, 3)),
                      ("dim2-assoc", dim2_assoc()),
                      ("dim3-graded-2-twist", dim3_graded(2, 2, 3))]:
        ad, tr = adjoint_rep(alg), trivial_rep(alg)
        reps.append((f"adjoint(x)trivial({name})", tensor_rep(ad, tr)))
        reps.append((f"adjoint(x)adjoint({name})", tensor_rep(ad, ad)))
    twisted = twist_rep(adjoint_rep(dim2_nilpotent()), diag(2, 4), diag(3, 9),
                        diag(2, 4), diag(3, 9))
    reps.append(("twist-rep(dim2-nilpotent)", twisted))
    for name, rep in reps:
        assert check_prelie_rep(rep).passed, f"rep fixture {name} is invalid"
    return reps


def lie_rep_fixtures() -> list[tuple[str, LieRep]]:
    reps: list[tuple[str, LieRep]] = []
    for name, alg in prelie_fixtures():
        ad = adjoint_rep(alg)
        reps.append((f"l-only({name})", induced_lie_rep(ad, "l-only")))
        reps.append((f"full({name})", induced_lie_rep(ad, "full")))
    for name, glie in lie_fixtures()[:6]:
        reps.append((f"ad({name})", adjoint_lie_rep(glie)))
    for name, rep in reps:
        assert check_lie_rep(rep).passed, f"lie rep fixture {name} is invalid"
    return reps


def _bump(mat: Matrix, i: int, j: int, delta=1) -> Matrix:
    rows = [list(r) for r in mat.entries]
    rows[i][j] += Q(delta)
    return Matrix.from_rows(rows)


def corrupted_prelie_reps(minimum: int = 20) -> list[tuple[str, PreLieRep]]:
    """Representations corrupted so that check_prelie_rep provably fails."""
    out: list[tuple[str, PreLieRep]] = []
    for name, rep in prelie_rep_fixtures():
        candidates = []
        m = rep.vdim
        candidates.append(PreLieRep(rep.algebra, m, rep.L,
                                    tuple(x.scale(2) for x in rep.R),
                                    rep.phi, rep.psi))
        for i in range(min(2, rep.algebra.dim)):
            for (r, c) in ((0, 0), (m - 1, 0)):
                candidates.append(PreLieRep(
                    rep.algebra, m,
                    rep.L[:i] + (_bump(rep.L[i], r, c),) + rep.L[i + 1:],
                    rep.R, rep.phi, rep.psi))
                candidates.append(PreLieRep(
                    rep.algebra, m, rep.L,
                    rep.R[:i] + (_bump(rep.R[i], r, c),) + rep.R[i + 1:],
                    rep.phi, rep.psi))
        for idx, cand in enumerate(candidates):
            if not check_prelie_rep(cand).passed:
                out.append((f"corrupt[{idx}]({name})", cand))
        if len(out) >= minimum:
            break
    assert len(out) >= minimum
    return out[:max(minimum, 24)]


def corrupted_lie_reps(minimum: int = 20) -> list[tuple[str, LieRep]]:
    out: list[tuple[str, LieRep]] = []
    for name, rep in lie_rep_fixtures():
        m = rep.vdim
        candidates = [LieRep(rep.algebra, m,
                             tuple(x.scale(2) for x in rep.rho),
                             rep.phi, rep.psi)]
        for i in range(min(2, rep.algebra.dim)):
            for (r, c) in ((0, 0), (m - 1, m - 1)):
                candidates.append(LieRep(
                    rep.algebra, m,
                    rep.rho[:i] + (_bump(rep.rho[i], r, c),) + rep.rho[i + 1:],
                    rep.phi, rep.psi))
        for idx, cand in enumerate(candidates):
            if not check_lie_rep(cand).passed:
                out.append((f"corrupt[{idx}]({name})", cand))
        if len(out) >= minimum:
            break
    assert len(out) >= minimum
    return out[:max(minimum, 24)]


# ---------------------------------------------------------------------------
# exhaustive operator searches ({-1, 0, 1} entries, integer fast path)
# ---------------------------------------------------------------------------

def _raw_int(q: Fraction):
    return int(q) if q.denominator == 1 else q


def _raw_matrix(m: Matrix):
    return [[_raw_int(x) for x in row] for row in m.entries]


def _sparse_tensor(p: BilinearProduct):
    return [(i, j, k, _raw_int(v))
            for i in range(p.dim) for j in range(p.dim)
            for k, v in enumerate(p.c[i][j]) if v]


def _commutes(N, M, n: int) -> bool:
    for i in range(n):
        for j in range(n):
            if sum(N[i][k] * M[k][j] for k in range(n)) != \
               sum(M[i][k] * N[k][j] for k in range(n)):
                return False
    return True


def _search_sign_matrices(product: BilinearProduct, alpha: Matrix, beta: Matrix,
                          predicate) -> list[Matrix]:
    n = product.dim
    A = _raw_matrix(alpha)
    B = _raw_matrix(beta)
    nz = _sparse_tensor(product)
    cvec = [[[_raw_int(v) for v in product.c[i][j]] for j in range(n)]
            for i in range(n)]
    found = []
    for flat in itertools.product((-1, 0, 1), repeat=n * n):
        N = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if not _commutes(N, A, n) or not _commutes(N, B, n):
            continue
        if predicate(N, n, nz, cvec):
            found.append(Matrix.from_rows(N))
    return found


def _nijenhuis_predicate(N, n, nz, cvec) -> bool:
    ncol = [[N[r][i] for r in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            d = [0] * n
            for (p, q, k, v) in nz:
                if q == j:
                    d[k] += ncol[i][p] * v
                if p == i:
                    d[k] += ncol[j][q] * v
            for k in range(n):
                d[k] -= sum(N[k][r] * cvec[i][j][r] for r in range(n))
            lhs = [0] * n
            for (p, q, k, v) in nz:
                lhs[k] += ncol[i][p] * ncol[j][q] * v
            for k in range(n):
                if lhs[k] != sum(N[k][r] * d[r] for r in range(n)):
                    return False
    return True


def _rota_baxter_predicate(N, n, nz, cvec) -> bool:
    ncol = [[N[r][i] for r in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = [0] * n
            inner = [0] * n
            for (p, q, k, v) in nz:
                lhs[k] += ncol[i][p] * ncol[j][q] * v
                if q == j:
                    inner[k] += ncol[i][p] * v
                if p == i:
                    inner[k] += ncol[j][q] * v
            for k in range(n):
                if lhs[k] != sum(N[k][r] * inner[r] for r in range(n)):
                    return False
    return True


@lru_cache(maxsize=None)
def nijenhuis_search(a: BiHomPreLieAlgebra) -> tuple[Matrix, ...]:
    """All Nijenhuis operators on ``a`` with entries in {-1, 0, 1}, found by
    exhaustive enumeration and re-verified through the library checker."""
    found = _search_sign_matrices(a.product, a.alpha, a.beta,
                                  _nijenhuis_predicate)
    for mat in found:
        assert check_nijenhuis_prelie(a, mat).passed
    return tuple(found)


@lru_cache(maxsize=None)
def rota_baxter_search(g: BiHomLieAlgebra) -> tuple[Matrix, ...]:
    """All weight-0 Rota-Baxter operators on ``g`` with entries in
    {-1, 0, 1}."""
    found = _search_sign_matrices(g.bracket, g.alpha, g.beta,
                                  _rota_baxter_predicate)
    for mat in found:
        assert check_rota_baxter(mat, g).passed
    return tuple(found)


# ---------------------------------------------------------------------------
# classical (identity-twist) coboundary oracles on raw nested lists
# ---------------------------------------------------------------------------

def classical_d1(c, L, R, t):
    """Untwisted degree-1 coboundary:
    ``(df)(x, y) = L(x) f(y) + R(y) f(x) - f(x.y)`` on raw nested lists.

    c[i][j][k] are structure constants, L[i]/R[i] carrier matrices as nested
    lists, t[i][k] the cochain values.  Returns d[x][y][k].
    """
    n = len(c)
    m = len(t[0])
    out = [[[Q(0)] * m for _ in range(n)] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            for k in range(m):
                total = Q(0)
                for i in range(m):
                    total += L[x][k][i] * t[y][i]
                    total += R[y][k][i] * t[x][i]
                for r in range(n):
                    total -= c[x][y][r] * t[r][k]
                out[x][y][k] = total
    return out


def classical_d2(c, L, R, t):
    """Untwisted degree-2 coboundary on raw nested lists:

    (df)(x,y,z) = L(x) f(y,z) - L(y) f(x,z) + R(z) f(y,x) - R(z) f(x,y)
                  + f(x, y.z) - f(y, x.z) - f(x.y - y.x, z).
    """
    n = len(c)
    m = len(t[0][0])
    out = [[[[Q(0)] * m for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for k in range(m):
                    total = Q(0)
                    for i in range(m):
                        total += L[x][k][i] * t[y][z][i] - L[y][k][i] * t[x][z][i]
                        total += R[z][k][i] * (t[y][x][i] - t[x][y][i])
                    for r in range(n):
                        total += c[y][z][r] * t[x][r][k]
                        total -= c[x][z][r] * t[y][r][k]
                        total -= (c[x][y][r] - c[y][x][r]) * t[r][z][k]
                    out[x][y][z][k] = total
    return out


def random_rational(rng: random.Random, span: int = 2) -> Fraction:
    return Q(rng.randint(-span, span), rng.choice((1, 1, 1, 2)))


def random_matrix(rng: random.Random, rows: int, cols: int,
                  span: int = 2) -> Matrix:
    return Matrix.from_rows([[random_rational(rng, span) for _ in range(cols)]
                             for _ in range(rows)])


def random_product(rng: random.Random, dim: int, span: int = 2) -> BilinearProduct:
    return BilinearProduct.from_entries(
        [[[random_rational(rng, span) for _ in range(dim)]
          for _ in range(dim)] for _ in range(dim)])
