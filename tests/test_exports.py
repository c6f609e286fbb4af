"""Every public name of the package resolves: each name in the ``__all__``
of each ``bihom`` module (the bench's tracer wraps layer functions by
``getattr`` over it) and each name that ``bihom`` re-exports, which its
``__getattr__`` resolves on first access."""

import importlib
import pkgutil

import pytest

import bihom

MODULES = sorted(info.name for info in pkgutil.iter_modules(bihom.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bihom.{name}")
    names = module.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


# the public names of the package, in the order of their modules
PACKAGE_NAMES = [
    "AxiomError", "AxiomReport", "BiHomLieAlgebra", "BiHomPreLieAlgebra",
    "BilinearProduct", "TwistPair", "Violation", "check_bihom_lie",
    "check_prelie", "is_lie_morphism", "is_prelie_morphism", "subadjacent",
    "Cochain", "CochainSpace", "CohomologyReport", "coboundary",
    "coboundary_matrix", "coboundary_preimage", "cochain_from_bilinear",
    "cochain_from_linear_map", "cochain_space", "cohomology_dims",
    "cohomology_table", "is_coboundary", "is_cocycle", "check_equivalence",
    "check_lie_linear_deformation", "check_linear_deformation",
    "check_nijenhuis_lie", "check_nijenhuis_prelie", "deformed_product",
    "nijenhuis_trivial_deformation", "push_deformation_to_lie",
    "InconsistentSystemError", "LinAlgError", "Matrix", "Rational",
    "SingularMatrixError", "inverse", "kernel_basis", "rank", "solve",
    "try_solve", "check_o_operator", "check_rota_baxter",
    "compatible_prelie_from_invertible_o", "induced_prelie_from_o",
    "induced_prelie_on_image", "rb_induced_prelie", "LieRep", "PreLieRep",
    "adjoint_lie_rep", "adjoint_rep", "check_lie_rep", "check_prelie_rep",
    "induced_lie_rep", "semidirect_lie", "semidirect_prelie", "tensor_rep",
    "trivial_rep", "twist_rep",
]


def test_package_reexports_resolve():
    assert bihom.__all__ == PACKAGE_NAMES
    assert set(PACKAGE_NAMES) <= set(dir(bihom))
    for name, module_name in bihom._EXPORTS.items():
        module = importlib.import_module(f"bihom.{module_name}")
        assert name in module.__all__, (module_name, name)
        assert getattr(bihom, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        bihom.missing
