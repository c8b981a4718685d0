"""Verification toolkit for weighted composition operators on the
Gaussian-weighted Hilbert space of entire functions.

The package builds truncated matrix representations of weight-and-map
symbols, evaluates the closed-form identities the operator family
satisfies (self-adjointness, fixed points, conjugated eigenfunction
relations, commutant symbol formulas, adjoint factorization, normality),
and emits residual reports with convergence data across truncation orders.
"""

from types import ModuleType as _ModuleType

from .report import CheckReport, Verdict, TOOL_VERSION
from .series import (
    FockParams,
    ParamsMismatchError,
    TruncatedSeries,
    compose_affine,
    exp_linear,
    inner_product,
    kernel_series,
)
from .operators import (
    AffineMap,
    Boundedness,
    DegenerateMapError,
    ExpLinearWeight,
    LinearFractionalMap,
    OperatorMatrix,
    PoleProximityError,
    UnsupportedMapError,
    WcoSymbol,
    adjoint_matrix,
    adjoint_on_kernel,
    apply_wco,
    assemble_matrix,
    assemble_sections,
    boundedness_check,
    commutator_residual,
    hermitian_residual,
)
from .quadrature import (
    QuadratureGrid,
    check_oracle_agreement,
    default_grid,
    quad_inner_product,
    quad_matrix_entry,
)
from .checks import (
    CommutantParams,
    SelfAdjointSymbolParams,
    check_adjoint_factorization_battery,
    check_commutant_symbols,
    check_cphi_adjoint_factorization,
    check_degenerate_commutant,
    check_disk_criterion,
    check_eigen_identity,
    check_fixed_point_transfer,
    check_h_conjugation,
    check_moebius_conjugation,
    check_moebius_conjugation_battery,
    check_normality,
    check_selfadjoint_forward,
    check_selfadjoint_reverse,
    commutant_symbols,
    conjugation_factor,
    disk_selfmap_criterion,
    fixed_point,
    reproduce_counterexample,
)

__version__ = TOOL_VERSION

# importing the submodules binds them on the package; they stay attributes, not star-imported names
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
