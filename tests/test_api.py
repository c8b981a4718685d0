"""The public name list of the package and of each of its modules."""

import importlib
import pkgutil

import pytest

import fockcalc

# the submodules are bound on the package by importing them, but are not listed
PUBLIC_NAMES = [
    "AffineMap",
    "Boundedness",
    "CheckReport",
    "CommutantParams",
    "DegenerateMapError",
    "ExpDisplacementWeight",
    "ExpLinearWeight",
    "FockParams",
    "LinearFractionalMap",
    "OperatorMatrix",
    "ParamsMismatchError",
    "PoleProximityError",
    "QuadratureGrid",
    "SelfAdjointSymbolParams",
    "SeriesWeight",
    "TOOL_VERSION",
    "TruncatedSeries",
    "UnsupportedMapError",
    "Verdict",
    "WcoSymbol",
    "adjoint_matrix",
    "adjoint_on_kernel",
    "apply_wco",
    "assemble_matrix",
    "assemble_sections",
    "boundedness_check",
    "check_adjoint_factorization_battery",
    "check_commutant_symbols",
    "check_cphi_adjoint_factorization",
    "check_degenerate_commutant",
    "check_disk_criterion",
    "check_eigen_identity",
    "check_fixed_point_transfer",
    "check_h_conjugation",
    "check_moebius_conjugation",
    "check_moebius_conjugation_battery",
    "check_normality",
    "check_oracle_agreement",
    "check_selfadjoint_forward",
    "check_selfadjoint_reverse",
    "commutant_symbols",
    "commutator_residual",
    "compose_affine",
    "conjugation_factor",
    "default_grid",
    "disk_selfmap_criterion",
    "exp_linear",
    "fixed_point",
    "hermitian_residual",
    "inner_product",
    "kernel_series",
    "monomial_to_orthonormal",
    "orthonormal_basis_element",
    "quad_gram",
    "quad_inner_product",
    "quad_matrix_entry",
    "reproduce_counterexample",
]


def test_public_names_are_the_listed_ones():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert fockcalc.__all__ == PUBLIC_NAMES
    assert all(hasattr(fockcalc, name) for name in PUBLIC_NAMES)
    assert all(hasattr(fockcalc, name) for name in ("checks", "operators", "quadrature", "report", "sampling", "series"))


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(fockcalc.__path__) if m.name != "__main__"))
def test_every_exported_name_resolves(module):
    # a deletion that leaves its name in an __all__ fails here
    mod = importlib.import_module(f"fockcalc.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
