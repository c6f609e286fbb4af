"""Linear deformations of BiHom-pre-Lie algebras and Nijenhuis operators.

A deformation is a plain :class:`~bihom.algebra.BilinearProduct` and an
operator a plain square :class:`~bihom.linalg.Matrix`.  A bilinear
candidate pi (twist-equivariant: ``pi(alpha x, alpha y) =
alpha pi(x, y)`` and the beta analogue) generates a linear deformation of
the product P when ``P + t pi`` remains BiHom-pre-Lie for every t.  The
"for all t" condition is discharged exactly by coefficient extraction: the
twisted-associator symmetry of ``P + t pi`` is quadratic in t, so it holds
for all t iff the t^0 part (the algebra's own identity), the t^1 part (the
mixed cocycle condition) and the t^2 part (pi alone is BiHom-pre-Lie) each
vanish on all basis triples.  The t^1 part is precisely the 2-cocycle
condition for pi in the adjoint complex.  One associator (and, on the
BiHom-Lie side, one Jacobi sum) in :mod:`bihom.algebra` computes all three
coefficients, and the same code checks the undeformed axioms.

Two deformations pi1, pi2 are equivalent via N when ``Id + t N`` is an
algebra morphism from ``P + t pi2`` to ``P + t pi1`` for all t; expanding in
t gives the commutation of N with the twists plus

    (1)  pi2(x,y) - pi1(x,y) = N(x).y + x.N(y) - N(x.y)
    (2)  pi1(x, N y) + pi1(N x, y) = N(pi2(x,y)) - N(x).N(y)
    (3)  pi1(N x, N y) = 0.

A Nijenhuis operator is a twist-commuting N with ``N(x).N(y) = N(x *_N y)``
where ``x *_N y = N(x).y + x.N(y) - N(x.y)``; it generates the trivial
deformation pi = *_N.  Everything descends to the sub-adjacent BiHom-Lie
algebra, where the same t-extraction discharges the Jacobi identity of
``[.,.] + t pi``.
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
    _jacobi_violations,
    _left_symmetry_violations,
    _multiplicativity_violations,
    _operator_commutation,
    _prefixed,
    _require_passed,
    _skew_violations,
    _subadjacent_tensor,
    check_bihom_lie,
    check_prelie,
    merge_reports,
    subadjacent,
)
from .linalg import Matrix, _require_shape, _row_add, _row_sub

__all__ = [
    "check_linear_deformation",
    "check_equivalence",
    "check_nijenhuis_prelie",
    "deformed_product",
    "nijenhuis_trivial_deformation",
    "push_deformation_to_lie",
    "check_nijenhuis_lie",
    "check_lie_linear_deformation",
]


def _check_tensor(pi: BilinearProduct, dim: int) -> None:
    if pi.dim != dim:
        raise ValueError("deformation tensor has the wrong dimension")


# ---------------------------------------------------------------------------
# pre-Lie side
# ---------------------------------------------------------------------------

def check_linear_deformation(a: BiHomPreLieAlgebra,
                             pi: BilinearProduct) -> AxiomReport:
    """Does pi generate a linear deformation of a?

    Reports, separately: equivariance of pi (a precondition of the notion),
    the base algebra's own axioms (prefixed ``base:``), the t^1 cocycle
    condition and the t^2 condition that pi alone is BiHom-pre-Lie.  The
    report passes iff ``P + t pi`` is BiHom-pre-Lie for every t.
    """
    return merge_reports(_prefixed(check_prelie(a), "base:"),
                         _deformation_report(a, pi))


def _deformation_report(a: BiHomPreLieAlgebra, pi: BilinearProduct) -> AxiomReport:
    """The checks of :func:`check_linear_deformation` other than ``base:``."""
    _check_tensor(pi, a.dim)
    col = _Collector()
    _multiplicativity_violations(col, pi, a.alpha, a.beta, "pi-{}-equivariance")
    P = a.product
    _left_symmetry_violations(col, a.twists, [
        ("deformation-cocycle", [(P, pi), (pi, P)]),
        ("deformation-square", [(pi, pi)]),
    ])
    return col.report()


def check_equivalence(a: BiHomPreLieAlgebra, pi1: BilinearProduct,
                      pi2: BilinearProduct, N: Matrix) -> AxiomReport:
    """Is ``Id + t N`` a morphism from ``P + t pi2`` to ``P + t pi1`` for
    all t?  Checks the twist commutations of N and the three coefficient
    identities on every ordered basis pair."""
    _check_tensor(pi1, a.dim)
    _check_tensor(pi2, a.dim)
    _require_shape(N, a.dim, a.dim, "operator")
    col = _Collector()
    _operator_commutation(col, "N", N, a.twists)
    n = a.dim
    P = a.product
    ncol = N.sparse_cols
    derived = _deformed(P, N)
    for i in range(n):
        for j in range(n):
            e_i, e_j = {i: 1}, {j: 1}
            pi2_ij = pi2.pair(i, j)
            col.check("equivalence-linear", (i, j),
                      _row_sub(_row_sub(pi2_ij, pi1.pair(i, j)),
                               derived.pair(i, j)), n)
            lhs = _row_add(pi1.sparse_value(e_i, ncol[j]),
                           pi1.sparse_value(ncol[i], e_j))
            rhs = _row_sub(N.sparse_apply(pi2_ij),
                           P.sparse_value(ncol[i], ncol[j]))
            col.check("equivalence-quadratic", (i, j), _row_sub(lhs, rhs), n)
            col.check("equivalence-cubic", (i, j),
                      pi1.sparse_value(ncol[i], ncol[j]), n)
    return col.report()


def deformed_product(a: BiHomPreLieAlgebra, N: Matrix) -> BilinearProduct:
    """The product ``x *_N y = N(x).y + x.N(y) - N(x.y)``.

    Requires N to commute with both twists (otherwise the result is not
    twist-multiplicative and the notion breaks down).
    """
    _require_shape(N, a.dim, a.dim, "operator")
    col = _Collector()
    _operator_commutation(col, "N", N, a.twists)
    _require_passed(col.report(),
                    "operator does not commute with the twist maps")
    return _deformed(a.product, N)


def _deformed(P: BilinearProduct, mat: Matrix) -> BilinearProduct:
    """The product ``*_N`` for N = mat."""
    ncol = mat.sparse_cols
    return BilinearProduct.from_pairs(P.dim, lambda i, j: _row_sub(
        _row_add(P.sparse_value(ncol[i], {j: 1}),
                 P.sparse_value({i: 1}, ncol[j])),
        mat.sparse_apply(P.pair(i, j))))


def _nijenhuis_report(P: BilinearProduct, twists: TwistPair,
                      N: Matrix) -> AxiomReport:
    """The Nijenhuis checks of N for the product or bracket P."""
    _require_shape(N, P.dim, P.dim, "operator")
    col = _Collector()
    _operator_commutation(col, "N", N, twists)
    n = P.dim
    deformed = _deformed(P, N)
    ncol = N.sparse_cols
    for i in range(n):
        for j in range(n):
            col.check("nijenhuis-identity", (i, j),
                      _row_sub(P.sparse_value(ncol[i], ncol[j]),
                               N.sparse_apply(deformed.pair(i, j))), n)
    return col.report()


def check_nijenhuis_prelie(a: BiHomPreLieAlgebra, N: Matrix) -> AxiomReport:
    """Twist commutation plus ``N(x).N(y) = N(x *_N y)`` on basis pairs,
    and the algebra's own axioms (prefixed ``base:``)."""
    return merge_reports(_prefixed(check_prelie(a), "base:"),
                         _nijenhuis_report(a.product, a.twists, N))


def nijenhuis_trivial_deformation(
        a: BiHomPreLieAlgebra, N: Matrix) -> tuple[BilinearProduct, AxiomReport]:
    """The trivial deformation generated by a Nijenhuis operator.

    Returns ``pi = *_N`` together with its (passing) deformation report.
    The algebra and the operator must pass :func:`check_nijenhuis_prelie`
    (which checks the algebra as its ``base:`` part); the conclusions (pi
    deforms the product linearly, and is equivalent to the zero deformation
    via ``Id + t N``) are asserted and a failure there is a defect, not a
    data condition.
    """
    _require_passed(check_nijenhuis_prelie(a, N), "not a Nijenhuis operator")
    pi = _deformed(a.product, N)
    deform = _deformation_report(a, pi)  # its base: part passed just above
    _assert_passed(deform, "Nijenhuis image is not a linear deformation")
    equiv = check_equivalence(a, BilinearProduct.zero(a.dim), pi, N)
    _assert_passed(equiv, "Nijenhuis deformation is not trivial")
    return pi, merge_reports(deform, equiv)


# ---------------------------------------------------------------------------
# BiHom-Lie side
# ---------------------------------------------------------------------------

def push_deformation_to_lie(a: BiHomPreLieAlgebra,
                            pi: BilinearProduct) -> BilinearProduct:
    """Push a pre-Lie deformation down to the sub-adjacent BiHom-Lie
    algebra: ``pi_C(x, y) = pi(x, y) - pi(alpha^-1 beta y, alpha beta^-1 x)``.

    The input must pass :func:`check_linear_deformation`; the output is
    asserted to pass :func:`check_lie_linear_deformation` over
    ``subadjacent(a)``.
    """
    _require_passed(check_linear_deformation(a, pi),
                    "not a linear deformation of the algebra")
    pushed = _subadjacent_tensor(pi, a.twists)
    _assert_passed(check_lie_linear_deformation(subadjacent(a), pushed),
                   "pushed deformation fails the BiHom-Lie conditions")
    return pushed


def check_nijenhuis_lie(g: BiHomLieAlgebra, N: Matrix) -> AxiomReport:
    """Nijenhuis condition on a BiHom-Lie algebra:
    ``[N(x), N(y)] = N([x, y]_N)`` with
    ``[x, y]_N = [N x, y] + [x, N y] - N[x, y]``.

    Commutation with alpha and with beta are reported as separate axioms;
    the alpha-only reading of the notion is recoverable by filtering out
    ``N-beta-commutation`` violations.  The algebra's own axioms are
    reported with the prefix ``base:``.
    """
    return merge_reports(_prefixed(check_bihom_lie(g), "base:"),
                         _nijenhuis_report(g.bracket, g.twists, N))


def check_lie_linear_deformation(g: BiHomLieAlgebra,
                                 pi: BilinearProduct) -> AxiomReport:
    """Does pi generate a linear deformation of the BiHom-Lie algebra?

    Preconditions (reported with their own axiom names): pi is
    twist-equivariant and BiHom-skew.  The bracket ``[.,.] + t pi`` then
    satisfies all BiHom-Lie axioms for every t iff the base algebra does
    (prefixed ``base:``), the mixed t^1 Jacobi condition holds, and pi alone
    satisfies the BiHom-Jacobi identity (the t^2 part).
    """
    _check_tensor(pi, g.dim)
    col = _Collector()
    _multiplicativity_violations(col, pi, g.alpha, g.beta, "pi-{}-equivariance")
    _skew_violations(col, "pi-bihom-skew", pi, g.twists)
    B = g.bracket
    _jacobi_violations(col, g.twists, [
        ("lie-deformation-cocycle", [(B, pi), (pi, B)]),
        ("lie-deformation-jacobi", [(pi, pi)]),
    ])
    return merge_reports(_prefixed(check_bihom_lie(g), "base:"), col.report())
