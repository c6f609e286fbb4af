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
vector and extended linearly.  A representation of a regular algebra is
regular: the constructors prove phi and psi invertible, phi first, by the
twists' one rule with the algebra's twists known, and keep ``phi_inv`` and
``psi_inv`` (not fields) for ``rho = L - R(alpha beta^-1 .) phi^-1 psi``
and the semidirect bracket's ``phi psi^-1``; a singular one raises
SingularMatrixError("carrier twist phi|psi must be invertible").  The
constructions hand the inverses they know to their outputs.  Nothing else
is checked, so defective actions can be diagnosed by the check functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import (
    AxiomReport,
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    BilinearProduct,
    TwistPair,
    _Collector,
    _multiplicativity_violations,
    _require_passed,
    _twist_inverse,
    _with_inverses,
    check_bihom_lie,
    check_prelie,
    subadjacent,
)
from .linalg import (
    Matrix,
    Value,
    _combination,
    _family_at,
    _require_shape,
    _row_sub,
    block_diag,
    linear_combination,
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
    for i, mat in enumerate(mats):
        _require_shape(mat, m, m, f"{name}[{i}]")


def _carrier_twists(r: PreLieRep | LieRep) -> None:
    """Check that ``r.phi`` and ``r.psi`` are ``vdim`` square and invertible,
    phi first, keeping their inverses with the algebra's twists known."""
    m = r.vdim
    for name in ("phi", "psi"):
        mat = getattr(r, name)
        _require_shape(mat, m, m, f"carrier twist {name}")
        object.__setattr__(r, f"{name}_inv", _twist_inverse(
            mat, f"carrier twist {name}", r.algebra.twists))


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
        _carrier_twists(self)

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
        _carrier_twists(self)

    def rho_of(self, v: Sequence[Fraction]) -> Matrix:
        return linear_combination(self.rho, tuple(v))


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

def _intertwining_violations(col: _Collector, axiom: str, r: PreLieRep,
                             phi: Matrix, psi: Matrix, La, Lb, Ra, Rb) -> None:
    """rep-1 on basis vectors: ``phi L(x) = L(alpha x) phi``,
    ``psi L(x) = L(beta x) psi`` and the same for R, with ``La`` the family
    L along alpha and so on; ``axiom.format(twist, family)`` names each."""
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
    acol, bcol = a.alpha.sparse_cols, a.beta.sparse_cols
    P = a.product
    La, Lb, Ra, Rb = (_family_at(f, t) for f in (r.L, r.R)
                      for t in (a.alpha, a.beta))
    Lab = _family_at(r.L, a.alpha @ a.beta)

    col.check_commute("phi-psi-commutation", phi, psi)
    _intertwining_violations(col, "rep1-{}-{}", r, phi, psi, La, Lb, Ra, Rb)

    for i in range(n):
        for j in range(i + 1, n):
            # L is linear, so both halves share one L(...) psi
            skew = _row_sub(P.sparse_value(bcol[i], acol[j]),
                            P.sparse_value(bcol[j], acol[i]))
            col.check_matrix("rep2", (i, j), _combination(r.L, skew) @ psi
                             - (Lab[i] @ La[j] - Lab[j] @ La[i]))

    # lhs - rhs = R(beta x)(L(beta y) phi - R(alpha y) psi)
    #             - L(alpha beta y) R(x) phi + R(alpha(y).x) phi psi
    phi_psi = phi @ psi
    Lb_Ra = [L @ phi - R @ psi for L, R in zip(Lb, Ra)]
    R_phi = [R @ phi for R in r.R]
    for i in range(n):
        for j in range(n):
            C = _combination(r.R, P.sparse_value(acol[j], {i: 1}))
            col.check_matrix("rep3", (i, j), Rb[i] @ Lb_Ra[j]
                             - Lab[j] @ R_phi[i] + C @ phi_psi)
    return col.report()


def check_lie_rep(r: LieRep) -> AxiomReport:
    """Verify the three BiHom-Lie representation identities on basis pairs."""
    col = _Collector()
    g = r.algebra
    n, phi, psi = g.dim, r.phi, r.psi
    bcol = g.beta.sparse_cols
    rho_a, rho_b, rho_ab = (_family_at(r.rho, t)
                            for t in (g.alpha, g.beta, g.alpha @ g.beta))
    B = g.bracket

    col.check_commute("phi-psi-commutation", phi, psi)
    for i in range(n):
        col.check_matrix("lie-rep-1", (i,), rho_a[i] @ phi - phi @ r.rho[i])
        col.check_matrix("lie-rep-2", (i,), rho_b[i] @ psi - psi @ r.rho[i])
    for i in range(n):
        for j in range(n):
            lhs = _combination(r.rho, B.sparse_value(bcol[i], {j: 1})) @ psi
            rhs = rho_ab[i] @ r.rho[j] - rho_b[j] @ rho_a[i]
            col.check_matrix("lie-rep-3", (i, j), lhs - rhs)
    return col.report()


# ---------------------------------------------------------------------------
# standard representations
# ---------------------------------------------------------------------------

def adjoint_rep(a: BiHomPreLieAlgebra) -> PreLieRep:
    """Adjoint representation: L = left multiplication, R = right
    multiplication, carrier twists (alpha, beta).

    It passes :func:`check_prelie_rep` exactly when ``a`` passes
    :func:`check_prelie`: rep-1 is alpha- and beta-multiplicativity, read
    column by column; rep-2 is left symmetry at (x, y, z) and rep-3 left
    symmetry at (y, z, x); phi-psi commutation is alpha-beta commutation.
    """
    return PreLieRep(a, a.dim, a.product.left_matrices(),
                     a.product.right_matrices(), a.alpha, a.beta)


def adjoint_lie_rep(g: BiHomLieAlgebra) -> LieRep:
    """Adjoint representation ``ad_x = [x, -]`` of a BiHom-Lie algebra."""
    return LieRep(g, g.dim, g.bracket.left_matrices(), g.alpha, g.beta)


def trivial_rep(a: BiHomPreLieAlgebra) -> PreLieRep:
    """One-dimensional representation with zero actions and unit twists.

    It passes :func:`check_prelie_rep` over every algebra: every term of
    every identity has a zero action as a factor, and unit twists commute.
    """
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

    The algebra must pass :func:`check_prelie` and the representation
    :func:`check_prelie_rep`; over a valid algebra the construction is a
    BiHom-pre-Lie algebra exactly when the representation passes.
    """
    _require_passed(check_prelie(r.algebra),
                    "algebra does not satisfy the axioms")
    _require_passed(check_prelie_rep(r), "representation does not satisfy the axioms")
    return _semidirect_prelie_raw(r)


def _semidirect(top: BilinearProduct, r: PreLieRep | LieRep, left: Sequence[Matrix],
                right: Sequence[Matrix]) -> BiHomPreLieAlgebra | BiHomLieAlgebra:
    """The algebra on A + V (algebra basis first, carrier after) with the tensor of
    ``(x+u)(y+v) = top(x, y) + left(x) v + right(y) u`` (``left[i]`` and
    ``right[j]`` act on V) and twists alpha+phi, beta+psi, inverted blockwise."""
    n, m = top.dim, r.vdim

    def carrier(col):  # an m-vector as a vector of A + V
        return {n + k: a for k, a in col.items()}

    def value(i, j):  # one of the four blocks, by the sides of i and j
        if i < n:
            return top.pair(i, j) if j < n else carrier(left[i].sparse_cols[j - n])
        return carrier(right[j].sparse_cols[i - n]) if j < n else {}

    t = r.algebra.twists
    return type(r.algebra)(BilinearProduct.from_pairs(n + m, value), _with_inverses(
        TwistPair, (block_diag(t.alpha, r.phi), block_diag(t.beta, r.psi)),
        alpha_inv=block_diag(t.alpha_inv, r.phi_inv),
        beta_inv=block_diag(t.beta_inv, r.psi_inv)))


def _semidirect_prelie_raw(r: PreLieRep) -> BiHomPreLieAlgebra:
    """The semidirect construction itself, with no validity check.

    Split out so the failure direction of the semidirect characterisation
    (defective representation -> defective algebra) can be exercised.
    """
    return _semidirect(r.algebra.product, r, r.L, r.R)


def semidirect_lie(r: LieRep) -> BiHomLieAlgebra:
    """Semidirect product on g + V with bracket
    ``[x+u, y+v] = [x,y] + rho(x)v - rho(alpha^-1 beta y) phi psi^-1 u``,
    for an algebra passing :func:`check_bihom_lie` and r :func:`check_lie_rep`."""
    _require_passed(check_bihom_lie(r.algebra),
                    "algebra does not satisfy the axioms")
    _require_passed(check_lie_rep(r), "representation does not satisfy the axioms")
    return _semidirect_lie_raw(r)


def _semidirect_lie_raw(r: LieRep) -> BiHomLieAlgebra:
    g = r.algebra
    phi_psinv = r.phi @ r.psi_inv
    right = [-(rho @ phi_psinv)
             for rho in _family_at(r.rho, g.twists.alpha_inv @ g.beta)]
    return _semidirect(g.bracket, r, r.rho, right)


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
    rho = r.L if variant == "l-only" else _induced_rho(r)
    return _with_inverses(LieRep, (subadjacent(r.algebra), r.vdim, rho, r.phi,
                                   r.psi), phi_inv=r.phi_inv, psi_inv=r.psi_inv)


def _induced_rho(r: PreLieRep) -> tuple[Matrix, ...]:
    """``rho(e_i) = L(e_i) - R(alpha beta^-1 e_i) phi^-1 psi`` for each basis e_i."""
    a = r.algebra
    phinv_psi = r.phi_inv @ r.psi
    return tuple(L - R @ phinv_psi for L, R in
                 zip(r.L, _family_at(r.R, a.alpha @ a.twists.beta_inv)))


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
    La, Lb, Ra, Rb = (_family_at(f, t) for f in (classical.L, classical.R)
                      for t in (alpha, beta))
    _intertwining_violations(col, "{}-{}-intertwining", classical, phi, psi,
                             La, Lb, Ra, Rb)
    _require_passed(col.report(), "twisting hypotheses are violated")

    acol, bcol = alpha.sparse_cols, beta.sparse_cols
    twisted = BilinearProduct.from_pairs(
        n, lambda i, j: a.product.sparse_value(acol[i], bcol[j]))
    algebra2 = BiHomPreLieAlgebra(twisted, TwistPair(alpha, beta))
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

    and twists ``phi_V (x) phi_W``, ``psi_V (x) psi_W``, inverted factor by
    factor.  The algebra must pass :func:`check_prelie` and both factors
    :func:`check_prelie_rep`; equal factors are checked once.
    """
    if rv.algebra != rw.algebra:
        raise ValueError("tensor factors must represent the same algebra")
    _require_passed(check_prelie(rv.algebra),
                    "algebra does not satisfy the axioms")
    for r in (rv,) if rv == rw else (rv, rw):
        _require_passed(check_prelie_rep(r),
                        "representation does not satisfy the axioms")
    L = tuple(Lv.kron(rw.psi) + rv.psi.kron(rho_w)
              for Lv, rho_w in zip(rv.L, _induced_rho(rw)))
    R = tuple(Rv.kron(rw.phi) for Rv in rv.R)
    return _with_inverses(PreLieRep, (rv.algebra, rv.vdim * rw.vdim, L, R,
                                      rv.phi.kron(rw.phi), rv.psi.kron(rw.psi)),
                          phi_inv=rv.phi_inv.kron(rw.phi_inv),
                          psi_inv=rv.psi_inv.kron(rw.psi_inv))
