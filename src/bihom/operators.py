"""O-operators and Rota-Baxter operators on BiHom-Lie algebras, and the
BiHom-pre-Lie structures they induce.

Given a representation (V, rho, phi, psi) of a BiHom-Lie algebra g, an
O-operator is a linear map T: V -> g satisfying

    [T(u), T(v)] = T( rho(T(u)) v  -  rho(T(phi^-1 psi v)) (phi psi^-1)(u) ).

T is additionally required to intertwine the twists, ``T phi = alpha T`` and
``T psi = beta T``; without that the induced map is not a morphism of BiHom
structures, so the intertwining failure is reported separately from the
defining identity.  A Rota-Baxter operator (weight 0) is the special case of
the adjoint representation: a twist-commuting R: g -> g with

    [R(x), R(y)] = R([R(x), y] + [x, R(y)]).

Every O-operator induces a BiHom-pre-Lie product ``u * v = rho(T(u)) v`` on
V; an invertible one transports it onto g as ``x . y = T(rho(x) T^-1(y))``,
whose sub-adjacent bracket recovers the original bracket exactly.

Operators are plain :class:`~bihom.linalg.Matrix` objects: T is
``dim g x dim V`` and R is square; every function checks the shape.
"""

from __future__ import annotations

from .algebra import (
    AxiomReport,
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    BilinearProduct,
    TwistPair,
    _Collector,
    _assert_passed,
    _operator_commutation,
    _prefixed,
    _require_passed,
    _twist_inverse,
    _with_inverses,
    check_bihom_lie,
    check_prelie,
    is_lie_morphism,
    merge_reports,
    subadjacent,
)
from .linalg import (Matrix, _combination, _require_shape, _row_add, _row_sub,
                     rank)
from .representation import LieRep, check_lie_rep

__all__ = [
    "check_o_operator",
    "induced_prelie_from_o",
    "induced_prelie_on_image",
    "check_rota_baxter",
    "rb_induced_prelie",
    "compatible_prelie_from_invertible_o",
]


def check_o_operator(T: Matrix, r: LieRep) -> AxiomReport:
    """Verify that T is an O-operator for the representation r.

    Reports twist-intertwining failures (``T phi = alpha T``,
    ``T psi = beta T``) separately from failures of the defining identity,
    which is checked on every ordered pair of carrier basis vectors, and
    reports the algebra's and the representation's own axioms with the
    prefixes ``base:`` and ``rep:``.
    """
    g = r.algebra
    m = r.vdim
    _require_shape(T, g.dim, m, "operator")
    col = _Collector()
    col.check_matrix("T-phi-intertwining", (), g.alpha @ T - T @ r.phi)
    col.check_matrix("T-psi-intertwining", (), g.beta @ T - T @ r.psi)

    tcol = T.sparse_cols
    rho_t = [_combination(r.rho, t).sparse_cols for t in tcol]
    # rho(T(phi^-1 psi v)) and (phi psi^-1)(u), once per carrier basis vector
    phinv_psi = r.phi_inv @ r.psi
    rho_twisted = [_combination(r.rho, T.sparse_apply(v))
                   for v in phinv_psi.sparse_cols]
    phi_psinv = (r.phi @ r.psi_inv).sparse_cols
    for u in range(m):
        for v in range(m):
            lhs = g.bracket.sparse_value(tcol[u], tcol[v])
            first = rho_t[u][v]
            second = rho_twisted[v].sparse_apply(phi_psinv[u])
            rhs = T.sparse_apply(_row_sub(first, second))
            col.check("o-operator-identity", (u, v), _row_sub(lhs, rhs), g.dim)
    return merge_reports(_prefixed(check_bihom_lie(g), "base:"),
                         _prefixed(check_lie_rep(r), "rep:"), col.report())


def induced_prelie_from_o(T: Matrix, r: LieRep) -> BiHomPreLieAlgebra:
    """BiHom-pre-Lie product ``u * v = rho(T(u)) v`` on the carrier of r.

    Requires an O-operator that passes :func:`check_o_operator`, which
    also checks the BiHom-Lie algebra and the representation.  The output
    is verified to satisfy the pre-Lie axioms and T is verified to be a
    BiHom-Lie morphism from the sub-adjacent algebra of the output to the
    ambient algebra; failure of either signals a defect, not a data
    condition.
    """
    _require_passed(check_o_operator(T, r),
                    "not an O-operator for this representation")
    rho_t = [_combination(r.rho, t) for t in T.sparse_cols]
    product = BilinearProduct.from_pairs(
        r.vdim, lambda u, v: rho_t[u].sparse_cols[v])
    out = BiHomPreLieAlgebra(product, _with_inverses(
        TwistPair, (r.phi, r.psi), alpha_inv=r.phi_inv, beta_inv=r.psi_inv))
    _assert_passed(check_prelie(out), "O-operator induced a non-pre-Lie product")
    _assert_passed(is_lie_morphism(T, subadjacent(out), r.algebra),
                   "O-operator is not a morphism of the induced sub-adjacent "
                   "algebra")
    return out


def induced_prelie_on_image(T: Matrix, r: LieRep) -> BiHomPreLieAlgebra:
    """The induced pre-Lie structure on the subspace T(V) of the ambient
    algebra, expressed in the image basis ``T(v_1), ..., T(v_m)``.

    Needs T injective so that ``T(u) o T(v) = T(u * v)`` is well defined; in
    the image basis the structure constants coincide with those of the
    induced product on V, and the restricted ambient twists act as
    (phi, psi).
    """
    _require_shape(T, r.algebra.dim, r.vdim, "operator")
    if rank(T) != r.vdim:
        raise ValueError("operator must be injective to carry the product "
                         "onto its image")
    return induced_prelie_from_o(T, r)


def check_rota_baxter(R: Matrix, g: BiHomLieAlgebra) -> AxiomReport:
    """Verify the weight-zero Rota-Baxter conditions on all basis pairs:
    commutation with both twists and
    ``[R(x), R(y)] = R([R(x), y] + [x, R(y)])``; the algebra's own axioms
    are reported with the prefix ``base:``."""
    n = g.dim
    _require_shape(R, n, n, "operator")
    col = _Collector()
    _operator_commutation(col, "R", R, g.twists)
    B = g.bracket
    rcol = R.sparse_cols
    for i in range(n):
        for j in range(n):
            lhs = B.sparse_value(rcol[i], rcol[j])
            inner = _row_add(B.sparse_value(rcol[i], {j: 1}),
                             B.sparse_value({i: 1}, rcol[j]))
            col.check("rota-baxter-identity", (i, j),
                      _row_sub(lhs, R.sparse_apply(inner)), n)
    return merge_reports(_prefixed(check_bihom_lie(g), "base:"), col.report())


def rb_induced_prelie(R: Matrix, g: BiHomLieAlgebra) -> BiHomPreLieAlgebra:
    """BiHom-pre-Lie product ``x * y = [R(x), y]`` for an R passing
    :func:`check_rota_baxter` (which checks g as its ``base:`` part); the
    O-operator construction for the adjoint representation with T = R."""
    _require_passed(check_rota_baxter(R, g),
                    "not a Rota-Baxter operator of weight zero")
    rcol = R.sparse_cols
    product = BilinearProduct.from_pairs(
        g.dim, lambda i, j: g.bracket.sparse_value(rcol[i], {j: 1}))
    return BiHomPreLieAlgebra(product, g.twists)


def compatible_prelie_from_invertible_o(T: Matrix, r: LieRep) -> BiHomPreLieAlgebra:
    """Compatible pre-Lie structure ``x . y = T(rho(x) T^-1(y))`` on the
    algebra of r, defined by an invertible O-operator.

    T must pass :func:`check_o_operator`, which also checks the algebra and
    the representation.  The sub-adjacent bracket of the result equals the
    ambient bracket; that equality is asserted exactly.
    """
    g = r.algebra
    n = g.dim
    _require_shape(T, n, r.vdim, "operator")
    tinv = _twist_inverse(T, "O-operator T")  # also forces vdim == n
    _require_passed(check_o_operator(T, r),
                    "not an O-operator for this representation")
    tcol = tinv.sparse_cols
    product = BilinearProduct.from_pairs(
        n, lambda i, j: T.sparse_apply(r.rho[i].sparse_apply(tcol[j])))
    out = BiHomPreLieAlgebra(product, g.twists)
    if subadjacent(out).bracket != g.bracket:
        raise RuntimeError("internal defect: induced product is not compatible "
                           "with the original bracket")
    return out
