"""Exact structure-constant computations with BiHom-pre-Lie and BiHom-Lie
algebras: axiom verification, representations and their constructions,
O-operators and Rota-Baxter operators, the cochain complex with its
cohomology dimensions, and linear deformations driven by Nijenhuis
operators.  Everything runs over the rationals, so every identity check is
exact and decidable."""

from .algebra import (
    AxiomError,
    AxiomReport,
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    BilinearProduct,
    TwistPair,
    Violation,
    check_bihom_lie,
    check_prelie,
    is_lie_morphism,
    is_prelie_morphism,
    subadjacent,
)
from .cohomology import (
    Cochain,
    CochainSpace,
    CohomologyReport,
    coboundary,
    coboundary_matrix,
    coboundary_preimage,
    cochain_from_bilinear,
    cochain_from_linear_map,
    cochain_space,
    cohomology_dims,
    cohomology_table,
    is_coboundary,
    is_cocycle,
)
from .deformation import (
    check_equivalence,
    check_lie_linear_deformation,
    check_linear_deformation,
    check_nijenhuis_lie,
    check_nijenhuis_prelie,
    deformed_product,
    nijenhuis_trivial_deformation,
    push_deformation_to_lie,
)
from .linalg import (
    InconsistentSystemError,
    LinAlgError,
    Matrix,
    Rational,
    SingularMatrixError,
    inverse,
    kernel_basis,
    rank,
    solve,
    try_solve,
)
from .operators import (
    check_o_operator,
    check_rota_baxter,
    compatible_prelie_from_invertible_o,
    induced_prelie_from_o,
    induced_prelie_on_image,
    rb_induced_prelie,
)
from .representation import (
    LieRep,
    PreLieRep,
    adjoint_lie_rep,
    adjoint_rep,
    check_lie_rep,
    check_prelie_rep,
    induced_lie_rep,
    semidirect_lie,
    semidirect_prelie,
    tensor_rep,
    trivial_rep,
    twist_rep,
)

__version__ = "0.1.0"
