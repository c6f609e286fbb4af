"""O-operators and Rota-Baxter operators on BiHom-Lie algebras, and the
BiHom-pre-Lie structures they induce.

Given a representation (V, rho, phi, psi) of a BiHom-Lie algebra g, a
linear map T: V -> g induces the product ``u * v = rho(T(u)) v`` on V with
the twists (phi, psi), and T is an O-operator when it is a morphism from the
sub-adjacent bracket of that product to g:

    [T(u), T(v)] = T([u, v]_C),   [u, v]_C = u * v - (phi^-1 psi v) * (phi psi^-1 u).

T is additionally required to intertwine the twists, ``T phi = alpha T`` and
``T psi = beta T``; without that the induced map is not a morphism of BiHom
structures, so the intertwining failure is reported separately from the
defining identity.  A Rota-Baxter operator (weight 0) is the special case of
the adjoint representation: a twist-commuting R: g -> g with

    [R(x), R(y)] = R([R(x), y] + [x, R(y)]).

For an O-operator the induced product is BiHom-pre-Lie; an invertible one
transports it onto g as ``x . y = T(rho(x) T^-1(y))``, whose sub-adjacent
bracket recovers the original bracket exactly.  Each operator identity is
checked as the morphism identity of :func:`bihom.algebra._map_violations`.

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
    _map_violations,
    _operator_commutation,
    _prefixed,
    _require_passed,
    _twist_inverse,
    _with_inverses,
    check_bihom_lie,
    check_prelie,
    merge_reports,
    subadjacent,
)
from .linalg import Matrix, _family_at, _require_shape, _row_add, rank
from .representation import LieRep, adjoint_lie_rep, check_lie_rep

__all__ = [
    "check_o_operator",
    "induced_prelie_from_o",
    "induced_prelie_on_image",
    "check_rota_baxter",
    "rb_induced_prelie",
    "compatible_prelie_from_invertible_o",
]


def _induced_prelie(T: Matrix, r: LieRep) -> BiHomPreLieAlgebra:
    """The product ``u * v = rho(T(u)) v`` on the carrier of r, with the
    carrier twists (phi, psi) and their kept inverses, whatever T is."""
    rho_t = _family_at(r.rho, T, r.vdim)
    product = BilinearProduct.from_pairs(
        r.vdim, lambda u, v: rho_t[u].sparse_cols[v])
    return BiHomPreLieAlgebra(product, _with_inverses(
        TwistPair, (r.phi, r.psi), alpha_inv=r.phi_inv, beta_inv=r.psi_inv))


def check_o_operator(T: Matrix, r: LieRep) -> AxiomReport:
    """Verify that T is an O-operator for the representation r.

    Reports twist-intertwining failures (``T phi = alpha T``,
    ``T psi = beta T``) separately from failures of the defining identity
    ``[T u, T v] = T([u, v]_C)``, checked on every ordered pair of carrier
    basis vectors, and reports the algebra's and the representation's own
    axioms with the prefixes ``base:`` and ``rep:``.
    """
    g = r.algebra
    _require_shape(T, g.dim, r.vdim, "operator")
    col = _Collector()
    col.check_matrix("T-phi-intertwining", (), g.alpha @ T - T @ r.phi)
    col.check_matrix("T-psi-intertwining", (), g.beta @ T - T @ r.psi)
    _map_violations(col, "o-operator-identity", T,
                    _induced_prelie(T, r).subadjacent.bracket, g.bracket,
                    images_first=True)
    return merge_reports(_prefixed(check_bihom_lie(g), "base:"),
                         _prefixed(check_lie_rep(r), "rep:"), col.report())


def induced_prelie_from_o(T: Matrix, r: LieRep) -> BiHomPreLieAlgebra:
    """BiHom-pre-Lie product ``u * v = rho(T(u)) v`` on the carrier of r.

    Requires an O-operator that passes :func:`check_o_operator`, which
    also checks the BiHom-Lie algebra and the representation and proves
    ``[T u, T v] = T([u, v]_C)``: T is a BiHom-Lie morphism from the
    sub-adjacent algebra of the output to the ambient algebra.  The output
    is verified to satisfy the pre-Lie axioms; a failure there signals a
    defect, not a data condition.
    """
    _require_passed(check_o_operator(T, r),
                    "not an O-operator for this representation")
    out = _induced_prelie(T, r)
    _assert_passed(check_prelie(out), "O-operator induced a non-pre-Lie product")
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
    _require_shape(R, g.dim, g.dim, "operator")
    col = _Collector()
    _operator_commutation(col, "R", R, g.twists)
    B, rcol = g.bracket, R.sparse_cols
    inner = BilinearProduct.from_pairs(g.dim, lambda i, j: _row_add(
        B.sparse_value(rcol[i], {j: 1}), B.sparse_value({i: 1}, rcol[j])))
    _map_violations(col, "rota-baxter-identity", R, inner, B, images_first=True)
    return merge_reports(_prefixed(check_bihom_lie(g), "base:"), col.report())


def rb_induced_prelie(R: Matrix, g: BiHomLieAlgebra) -> BiHomPreLieAlgebra:
    """BiHom-pre-Lie product ``x * y = [R(x), y]`` for an R passing
    :func:`check_rota_baxter` (which checks g as its ``base:`` part); the
    O-operator construction for the adjoint representation with T = R."""
    _require_passed(check_rota_baxter(R, g),
                    "not a Rota-Baxter operator of weight zero")
    return _induced_prelie(R, adjoint_lie_rep(g))


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
