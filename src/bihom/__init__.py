"""Exact structure-constant computations with BiHom-pre-Lie and BiHom-Lie
algebras: axiom verification, representations and their constructions,
O-operators and Rota-Baxter operators, the cochain complex with its
cohomology dimensions, and linear deformations driven by Nijenhuis
operators.  Everything runs over the rationals, so every identity check is
exact and decidable.

Every public name below is importable from ``bihom``; its module is
imported on the first access to one of its names (PEP 562), so a process
loads only the modules it uses."""

from importlib import import_module

# public name -> the module that defines it, written module by module
_EXPORTS = {name: module for module, names in {
    "algebra": (
        "AxiomError", "AxiomReport", "BiHomLieAlgebra", "BiHomPreLieAlgebra",
        "BilinearProduct", "TwistPair", "Violation", "check_bihom_lie",
        "check_prelie", "is_lie_morphism", "is_prelie_morphism", "subadjacent"),
    "cohomology": (
        "Cochain", "CochainSpace", "CohomologyReport", "coboundary",
        "coboundary_matrix", "coboundary_preimage", "cochain_from_bilinear",
        "cochain_from_linear_map", "cochain_space", "cohomology_dims",
        "cohomology_table", "is_coboundary", "is_cocycle"),
    "deformation": (
        "check_equivalence", "check_lie_linear_deformation",
        "check_linear_deformation", "check_nijenhuis_lie",
        "check_nijenhuis_prelie", "deformed_product",
        "nijenhuis_trivial_deformation", "push_deformation_to_lie"),
    "linalg": (
        "InconsistentSystemError", "LinAlgError", "Matrix", "Rational",
        "SingularMatrixError", "inverse", "kernel_basis", "rank", "solve",
        "try_solve"),
    "operators": (
        "check_o_operator", "check_rota_baxter",
        "compatible_prelie_from_invertible_o", "induced_prelie_from_o",
        "induced_prelie_on_image", "rb_induced_prelie"),
    "representation": (
        "LieRep", "PreLieRep", "adjoint_lie_rep", "adjoint_rep",
        "check_lie_rep", "check_prelie_rep", "induced_lie_rep",
        "semidirect_lie", "semidirect_prelie", "tensor_rep", "trivial_rep",
        "twist_rep"),
}.items() for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
