"""Representations of BiHom-pre-Lie and BiHom-Lie algebras.

A representation of a BiHom-pre-Lie algebra (A, ., alpha, beta) on a space V
with commuting twist maps (phi, psi) is a pair of action families L, R with

  (rep-1)  phi L(x) = L(alpha x) phi,   psi L(x) = L(beta x) psi,
           phi R(x) = R(alpha x) phi,   psi R(x) = R(beta x) psi;
  (rep-2)  L(beta(x).alpha(y)) psi - L(alpha beta x) L(alpha y)
           symmetric in x <-> y;
  (rep-3)  R(beta x) L(beta y) phi - L(alpha beta y) R(x) phi
             = R(beta x) R(alpha y) psi - R(alpha(y).x) phi psi.

A representation of a BiHom-Lie algebra is a single action family rho with

  (1)  rho(alpha x) phi = phi rho(x);
  (2)  rho(beta x) psi = psi rho(x);
  (3)  rho([beta x, y]) psi = rho(alpha beta x) rho(y) - rho(beta y) rho(alpha x).

Action families are stored as one carrier-sized matrix per algebra basis
vector and extended linearly.  The constructors validate shapes only, so
defective data can be represented and diagnosed by the check functions;
operations that need phi/psi inverses raise for singular twists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import (
    AxiomError,
    AxiomReport,
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    BilinearProduct,
    TwistPair,
    _Collector,
    _columns,
    _multiplicativity_violations,
    subadjacent,
)
from .linalg import (
    Matrix,
    Value,
    basis_vector,
    block_diag,
    inverse,
    linear_combination,
    vec_sub,
)

__all__ = [
    "PreLieRep",
    "LieRep",
    "check_prelie_rep",
    "check_lie_rep",
    "adjoint_rep",
    "adjoint_lie_rep",
    "trivial_rep",
    "semidirect_prelie",
    "semidirect_lie",
    "induced_lie_rep",
    "twist_rep",
    "tensor_rep",
]


def _check_action_family(name: str, mats: Sequence[Matrix], n: int, m: int) -> None:
    if len(mats) != n:
        raise ValueError(f"{name} must provide one matrix per algebra basis vector")
    for mat in mats:
        if mat.rows != m or mat.cols != m:
            raise ValueError(f"{name} matrices must be {m}x{m}")


def _check_carrier_twist(name: str, mat: Matrix, m: int) -> None:
    if mat.rows != m or mat.cols != m:
        raise ValueError(f"carrier twist {name} must be {m}x{m}")


class PreLieRep(Value):
    """Representation (V, L, R, phi, psi) of a BiHom-pre-Lie algebra.

    ``L[i]`` / ``R[i]`` are the actions of the i-th algebra basis vector on
    the carrier V of dimension ``vdim``.
    """

    algebra: BiHomPreLieAlgebra
    vdim: int
    L: tuple[Matrix, ...]
    R: tuple[Matrix, ...]
    phi: Matrix
    psi: Matrix

    def __post_init__(self) -> None:
        n = self.algebra.dim
        _check_action_family("L", self.L, n, self.vdim)
        _check_action_family("R", self.R, n, self.vdim)
        _check_carrier_twist("phi", self.phi, self.vdim)
        _check_carrier_twist("psi", self.psi, self.vdim)

    def L_of(self, v: Sequence[Fraction]) -> Matrix:
        """Action L(x) of the algebra element with coordinates v."""
        return linear_combination(self.L, tuple(v))

    def R_of(self, v: Sequence[Fraction]) -> Matrix:
        return linear_combination(self.R, tuple(v))


class LieRep(Value):
    """Representation (V, rho, phi, psi) of a BiHom-Lie algebra."""

    algebra: BiHomLieAlgebra
    vdim: int
    rho: tuple[Matrix, ...]
    phi: Matrix
    psi: Matrix

    def __post_init__(self) -> None:
        _check_action_family("rho", self.rho, self.algebra.dim, self.vdim)
        _check_carrier_twist("phi", self.phi, self.vdim)
        _check_carrier_twist("psi", self.psi, self.vdim)

    def rho_of(self, v: Sequence[Fraction]) -> Matrix:
        return linear_combination(self.rho, tuple(v))


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

def _twisted_actions(r: PreLieRep, alpha: Matrix, beta: Matrix
                     ) -> tuple[list[Matrix], list[Matrix], list[Matrix], list[Matrix]]:
    """``L(alpha e_i)``, ``L(beta e_i)``, ``R(alpha e_i)``, ``R(beta e_i)``
    for every basis index i, each computed once."""
    acol, bcol = _columns(alpha), _columns(beta)
    return ([r.L_of(x) for x in acol], [r.L_of(x) for x in bcol],
            [r.R_of(x) for x in acol], [r.R_of(x) for x in bcol])


def _intertwining_violations(col: _Collector, axiom: str, r: PreLieRep,
                             phi: Matrix, psi: Matrix, actions) -> None:
    """rep-1 on basis vectors: ``phi L(x) = L(alpha x) phi``,
    ``psi L(x) = L(beta x) psi`` and the same for R, with ``actions`` from
    :func:`_twisted_actions`; ``axiom.format(twist, family)`` names each."""
    La, Lb, Ra, Rb = actions
    for i in range(len(r.L)):
        for name, mats, by_alpha, by_beta in (("L", r.L, La, Lb), ("R", r.R, Ra, Rb)):
            col.check_matrix(axiom.format("phi", name), (i,),
                             phi @ mats[i] - by_alpha[i] @ phi)
            col.check_matrix(axiom.format("psi", name), (i,),
                             psi @ mats[i] - by_beta[i] @ psi)


def check_prelie_rep(r: PreLieRep) -> AxiomReport:
    """Verify rep-1 (all four intertwinings), rep-2 and rep-3 on basis pairs.

    Also reports non-commuting carrier twists.  rep-2's residual is
    antisymmetric in the pair, so it is checked once per i < j; rep-3 is not
    symmetric and runs over all ordered pairs.
    """
    col = _Collector()
    a = r.algebra
    n, phi, psi = a.dim, r.phi, r.psi
    acol, bcol = _columns(a.alpha), _columns(a.beta)
    P = a.product
    actions = _twisted_actions(r, a.alpha, a.beta)
    La, Lb, Ra, Rb = actions
    Lab = [r.L_of(x) for x in _columns(a.alpha @ a.beta)]

    col.check_commute("phi-psi-commutation", phi, psi)
    _intertwining_violations(col, "rep1-{}-{}", r, phi, psi, actions)

    for i in range(n):
        for j in range(i + 1, n):
            # L is linear, so both halves share one L(...) psi
            skew = vec_sub(P.value(bcol[i], acol[j]), P.value(bcol[j], acol[i]))
            col.check_matrix("rep2", (i, j), r.L_of(skew) @ psi
                             - (Lab[i] @ La[j] - Lab[j] @ La[i]))

    basis = [basis_vector(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = Rb[i] @ Lb[j] @ phi - Lab[j] @ r.R[i] @ phi
            rhs = (Rb[i] @ Ra[j] @ psi
                   - r.R_of(P.value(acol[j], basis[i])) @ phi @ psi)
            col.check_matrix("rep3", (i, j), lhs - rhs)
    return col.report()


def check_lie_rep(r: LieRep) -> AxiomReport:
    """Verify the three BiHom-Lie representation identities on basis pairs."""
    col = _Collector()
    g = r.algebra
    n, phi, psi = g.dim, r.phi, r.psi
    bcol = _columns(g.beta)
    rho_a = [r.rho_of(x) for x in _columns(g.alpha)]
    rho_b = [r.rho_of(x) for x in bcol]
    rho_ab = [r.rho_of(x) for x in _columns(g.alpha @ g.beta)]
    B = g.bracket

    col.check_commute("phi-psi-commutation", phi, psi)
    for i in range(n):
        col.check_matrix("lie-rep-1", (i,), rho_a[i] @ phi - phi @ r.rho[i])
        col.check_matrix("lie-rep-2", (i,), rho_b[i] @ psi - psi @ r.rho[i])
    basis = [basis_vector(n, j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = r.rho_of(B.value(bcol[i], basis[j])) @ psi
            rhs = rho_ab[i] @ r.rho[j] - rho_b[j] @ rho_a[i]
            col.check_matrix("lie-rep-3", (i, j), lhs - rhs)
    return col.report()


# ---------------------------------------------------------------------------
# standard representations
# ---------------------------------------------------------------------------

def adjoint_rep(a: BiHomPreLieAlgebra) -> PreLieRep:
    """Adjoint representation: L = left multiplication, R = right
    multiplication, carrier twists (alpha, beta)."""
    return PreLieRep(a, a.dim, a.product.left_matrices(),
                     a.product.right_matrices(), a.alpha, a.beta)


def adjoint_lie_rep(g: BiHomLieAlgebra) -> LieRep:
    """Adjoint representation ``ad_x = [x, -]`` of a BiHom-Lie algebra."""
    return LieRep(g, g.dim, g.bracket.left_matrices(), g.alpha, g.beta)


def trivial_rep(a: BiHomPreLieAlgebra) -> PreLieRep:
    """One-dimensional representation with zero actions and unit twists."""
    zero = Matrix.zeros(1, 1)
    one = Matrix.identity(1)
    n = a.dim
    return PreLieRep(a, 1, (zero,) * n, (zero,) * n, one, one)


# ---------------------------------------------------------------------------
# semidirect products
# ---------------------------------------------------------------------------

def semidirect_prelie(r: PreLieRep) -> BiHomPreLieAlgebra:
    """Semidirect product on A + V: ``(x+u).(y+v) = x.y + L(x)v + R(y)u``
    with twists alpha+phi and beta+psi (algebra basis first, carrier after).

    The input must pass :func:`check_prelie_rep`; the construction is a
    BiHom-pre-Lie algebra exactly when it does.
    """
    report = check_prelie_rep(r)
    if not report.passed:
        raise AxiomError("representation does not satisfy the axioms", report)
    return _semidirect_prelie_raw(r)


def _semidirect_tensor(top: BilinearProduct, m: int, left: Sequence[Matrix],
                       right: Sequence[Matrix]) -> BilinearProduct:
    """Structure tensor on A + V (algebra basis first, carrier after) of
    ``(x+u)(y+v) = top(x, y) + left(x) v + right(y) u``, where ``left[i]``
    and ``right[j]`` are the m x m actions of the algebra basis vectors."""
    n = top.dim
    N = n + m
    zero = Fraction(0)
    entries = [[(zero,) * N] * N for _ in range(N)]
    for i in range(n):
        for j in range(n):
            entries[i][j] = top.basis_value(i, j) + (zero,) * m
        for b in range(m):
            entries[i][n + b] = (zero,) * n + left[i].col(b)
    for u in range(m):
        for j in range(n):
            entries[n + u][j] = (zero,) * n + right[j].col(u)
    return BilinearProduct(N, tuple(tuple(row) for row in entries))


def _semidirect_prelie_raw(r: PreLieRep) -> BiHomPreLieAlgebra:
    """The semidirect construction itself, with no validity check.

    Split out so the failure direction of the semidirect characterisation
    (defective representation -> defective algebra) can be exercised.
    """
    a = r.algebra
    product = _semidirect_tensor(a.product, r.vdim, r.L, r.R)
    twists = TwistPair(block_diag(a.alpha, r.phi), block_diag(a.beta, r.psi))
    return BiHomPreLieAlgebra(product, twists)


def semidirect_lie(r: LieRep) -> BiHomLieAlgebra:
    """Semidirect product on g + V with bracket
    ``[x+u, y+v] = [x,y] + rho(x)v - rho(alpha^-1 beta y) phi psi^-1 u``."""
    report = check_lie_rep(r)
    if not report.passed:
        raise AxiomError("representation does not satisfy the axioms", report)
    return _semidirect_lie_raw(r)


def _semidirect_lie_raw(r: LieRep) -> BiHomLieAlgebra:
    g = r.algebra
    phi_psinv = r.phi @ inverse(r.psi)
    right = [-(r.rho_of(x) @ phi_psinv)
             for x in _columns(g.twists.alpha_inv @ g.beta)]
    bracket = _semidirect_tensor(g.bracket, r.vdim, r.rho, right)
    twists = TwistPair(block_diag(g.alpha, r.phi), block_diag(g.beta, r.psi))
    return BiHomLieAlgebra(bracket, twists)


# ---------------------------------------------------------------------------
# induced, twisted and tensor representations
# ---------------------------------------------------------------------------

def induced_lie_rep(r: PreLieRep, variant: str = "full") -> LieRep:
    """Representation of the sub-adjacent BiHom-Lie algebra induced by a
    pre-Lie representation.

    ``variant="l-only"`` keeps rho = L; ``variant="full"`` uses

        rho(x) = L(x) - R(alpha beta^-1 x) . phi^-1 psi.

    Either family satisfies the BiHom-Lie representation identities over
    ``subadjacent(r.algebra)`` whenever the input is valid.
    """
    if variant not in ("full", "l-only"):
        raise ValueError(f"unknown variant {variant!r}; use 'full' or 'l-only'")
    glie = subadjacent(r.algebra)
    if variant == "l-only":
        return LieRep(glie, r.vdim, r.L, r.phi, r.psi)
    return LieRep(glie, r.vdim, _induced_rho(r), r.phi, r.psi)


def _induced_rho(r: PreLieRep) -> tuple[Matrix, ...]:
    """``rho(e_i) = L(e_i) - R(alpha beta^-1 e_i) phi^-1 psi`` for every
    basis index i."""
    a = r.algebra
    phinv_psi = inverse(r.phi) @ r.psi
    return tuple(L - r.R_of(x) @ phinv_psi
                 for L, x in zip(r.L, _columns(a.alpha @ a.twists.beta_inv)))


def twist_rep(classical: PreLieRep, alpha: Matrix, beta: Matrix,
              phi: Matrix, psi: Matrix) -> PreLieRep:
    """Twist an untwisted representation into one of the twisted algebra.

    The input must be a representation of an untwisted algebra (identity
    twists on both the algebra and the carrier).  Given commuting pairs
    (alpha, beta) on A and (phi, psi) on V that intertwine the original
    actions (``phi L(x) = L(alpha x) phi`` and the three analogues) and are
    multiplicative for the original product, the output is the
    representation

        LL(x) = L(alpha x) psi,   RR(x) = R(beta x) phi

    of the twisted algebra ``x * y = alpha(x).beta(y)`` with twists
    (alpha, beta) and carrier twists (phi, psi).  Violated hypotheses raise
    :class:`AxiomError` naming each one.
    """
    a = classical.algebra
    n, m = a.dim, classical.vdim
    if not (a.alpha.is_identity and a.beta.is_identity):
        raise ValueError("twist_rep requires an algebra with identity twists")
    if not (classical.phi.is_identity and classical.psi.is_identity):
        raise ValueError("twist_rep requires a representation with identity twists")

    col = _Collector()
    col.check_commute("alpha-beta-commutation", alpha, beta)
    col.check_commute("phi-psi-commutation", phi, psi)
    _multiplicativity_violations(col, a.product, alpha, beta, "{}-multiplicative")
    actions = _twisted_actions(classical, alpha, beta)
    _intertwining_violations(col, "{}-{}-intertwining", classical, phi, psi,
                             actions)
    report = col.report()
    if not report.passed:
        raise AxiomError("twisting hypotheses are violated", report)

    acol, bcol = _columns(alpha), _columns(beta)
    twisted = BilinearProduct(n, tuple(
        tuple(a.product.value(acol[i], bcol[j]) for j in range(n))
        for i in range(n)))
    algebra2 = BiHomPreLieAlgebra(twisted, TwistPair(alpha, beta))
    La, _, _, Rb = actions
    LL = tuple(L @ psi for L in La)
    RR = tuple(R @ phi for R in Rb)
    return PreLieRep(algebra2, m, LL, RR, phi, psi)


def tensor_rep(rv: PreLieRep, rw: PreLieRep) -> PreLieRep:
    """Tensor product of two representations of the same algebra.

    Carrier V tensor W with the lexicographic basis ``v_i (x) w_j`` (i
    outer); actions

        L(x) = L_V(x) (x) psi_W + psi_V (x) rho_W(x),
        rho_W(x) = L_W(x) - R_W(alpha beta^-1 x) phi_W^-1 psi_W,
        R(x) = R_V(x) (x) phi_W,

    and twists ``phi_V (x) phi_W``, ``psi_V (x) psi_W``.
    """
    if rv.algebra != rw.algebra:
        raise ValueError("tensor factors must represent the same algebra")
    L = tuple(Lv.kron(rw.psi) + rv.psi.kron(rho_w)
              for Lv, rho_w in zip(rv.L, _induced_rho(rw)))
    R = tuple(Rv.kron(rw.phi) for Rv in rv.R)
    return PreLieRep(rv.algebra, rv.vdim * rw.vdim, L, R,
                     rv.phi.kron(rw.phi), rv.psi.kron(rw.psi))
