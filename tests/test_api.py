"""The public name list of the package and of each of its modules, and how its records behave."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import fockcalc
from fockcalc import (
    AffineMap,
    CheckReport,
    CommutantParams,
    ExpDisplacementWeight,
    ExpLinearWeight,
    FockParams,
    LinearFractionalMap,
    OperatorMatrix,
    ParamsMismatchError,
    QuadratureGrid,
    SelfAdjointSymbolParams,
    SeriesWeight,
    TruncatedSeries,
    WcoSymbol,
    compose_affine,
    default_grid,
    exp_linear,
    kernel_series,
)
from fockcalc.cli import RunConfig
from fockcalc.report import REPORTED, Rule

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


MODULES = sorted(m.name for m in pkgutil.iter_modules(fockcalc.__path__) if m.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a deletion that leaves its name in an __all__ fails here
    mod = importlib.import_module(f"fockcalc.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_no_class_is_a_dataclass(module):
    # the dataclass decorator generates and compiles its methods on every import, which each command pays for
    mod = importlib.import_module(f"fockcalc.{module}")
    defined = [cls for cls in vars(mod).values() if inspect.isclass(cls) and cls.__module__ == mod.__name__]
    assert [cls.__name__ for cls in defined if dataclasses.is_dataclass(cls)] == []


SECTION = FockParams(1.0, 2)
SERIES = TruncatedSeries(np.arange(3.0), SECTION)

# each factory builds a new record with the same fields on every call
VALUE_RECORDS = {
    "FockParams": lambda: FockParams(1.0, 32),
    "Rule": lambda: Rule(at_most=1e-12),
    "CheckReport": lambda: CheckReport("demo", {"a": 1}, ((0, 0.5, REPORTED),), "notes"),
    "AffineMap": lambda: AffineMap(0.5, 0.25),
    "LinearFractionalMap": lambda: LinearFractionalMap(1.0, 0.5, 0.25, 1.0),
    "ExpLinearWeight": lambda: ExpLinearWeight(1.0, 0.5),
    "SeriesWeight": lambda: SeriesWeight(SERIES),
    "ExpDisplacementWeight": lambda: ExpDisplacementWeight(1.0, 0.5, LinearFractionalMap(1.0, 0.5, 0.25, 1.0)),
    "WcoSymbol": lambda: WcoSymbol(ExpLinearWeight(1.0, 0.5), AffineMap(0.5, 0.25)),
    "SelfAdjointSymbolParams": lambda: SelfAdjointSymbolParams(1.0, 0.5, 0.25),
    "CommutantParams": lambda: CommutantParams.from_eta_b(2.0, 2.0 / 3.0),
    "RunConfig": lambda: RunConfig(alpha=2.0, tolerance_overrides={"normality": 1e-3}),
}
IDENTITY_RECORDS = {
    "TruncatedSeries": lambda: TruncatedSeries(np.arange(3.0), SECTION),
    "OperatorMatrix": lambda: OperatorMatrix(np.eye(3), SECTION),
    "QuadratureGrid": lambda: default_grid(SECTION),
}
# a dict field makes these records unhashable
UNHASHABLE = {"CheckReport", "RunConfig"}


@pytest.mark.parametrize("name", sorted({**VALUE_RECORDS, **IDENTITY_RECORDS}))
def test_record_fields_cannot_be_assigned_or_deleted(name):
    record = {**VALUE_RECORDS, **IDENTITY_RECORDS}[name]()
    before = dict(vars(record))
    for field in before:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert list(vars(record)) == list(before)
    assert all(vars(record)[field] is value for field, value in before.items())


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_their_fields(name):
    first, second = VALUE_RECORDS[name](), VALUE_RECORDS[name]()
    assert first is not second
    assert first == first and first == second and not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
    assert first != tuple(vars(first).values())


def test_records_differ_by_class_and_by_any_field():
    assert AffineMap(0.5, 0.25) != ExpLinearWeight(0.5, 0.25)
    assert ExpLinearWeight(0.5, 0.25) != AffineMap(0.5, 0.25)
    assert FockParams(1.0, 32) != RunConfig(alpha=1.0)
    assert Rule(1e-12) != Rule(1e-11)
    assert SelfAdjointSymbolParams(1.0, 0.5, 0.25) != SelfAdjointSymbolParams(1.0, 0.5, 0.25, alpha=2.0)


@pytest.mark.parametrize("name", sorted(IDENTITY_RECORDS))
def test_sections_series_and_grids_compare_and_hash_by_identity(name):
    first, second = IDENTITY_RECORDS[name](), IDENTITY_RECORDS[name]()
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second, first}) == 2


def test_record_construction_keeps_its_positional_order_and_defaults():
    assert FockParams() == FockParams(1.0, 32) == FockParams(alpha=1.0, order=32)
    assert FockParams(2, 8).alpha == 2.0 and type(FockParams(2, 8).alpha) is float
    assert vars(Rule()) == {"at_most": np.inf, "at_least": -np.inf, "slack": None}
    assert Rule(1.0, 0.5, 0.1) == Rule(slack=0.1, at_least=0.5, at_most=1.0)
    assert CheckReport("x", {}, ((0, 1.0, REPORTED),)).notes == ""
    assert SelfAdjointSymbolParams(1, 0.5, 0.25) == SelfAdjointSymbolParams(c=1, a0=0.5, a1=0.25, alpha=1.0)
    assert SelfAdjointSymbolParams(1, 0.5, 0.25).alpha == 1.0
    assert WcoSymbol(map=AffineMap(b=0.25, a=0.5), weight=ExpLinearWeight(w=0.5, c=1.0)) == VALUE_RECORDS["WcoSymbol"]()
    assert OperatorMatrix(entries=np.eye(3), params=SECTION).params is SECTION
    defaults = RunConfig()
    assert (defaults.alpha, defaults.orders, defaults.seed, defaults.output_format) == (1.0, (16, 32, 64), 42, "json")
    assert RunConfig(1.0, (8,), {}, 7, "csv") == RunConfig(alpha=1.0, orders=(8,), seed=7, output_format="csv")


def test_record_text_is_the_dataclass_repr():
    assert repr(FockParams(1.0, 32)) == "FockParams(alpha=1.0, order=32)"
    assert repr(AffineMap(0.5, 0.25)) == "AffineMap(a=(0.5+0j), b=(0.25+0j))"
    assert repr(Rule(1e-12)) == "Rule(at_most=1e-12, at_least=-inf, slack=None)"
    assert repr(RunConfig()) == (
        "RunConfig(alpha=1.0, orders=(16, 32, 64), tolerance_overrides={}, seed=42, output_format='json')"
    )
    with pytest.raises(ParamsMismatchError) as err:
        TruncatedSeries.monomial(0, FockParams(1.0, 2)) * TruncatedSeries.monomial(0, FockParams(2.0, 2))
    assert str(err.value) == "series params differ: FockParams(alpha=1.0, order=2) vs FockParams(alpha=2.0, order=2)"


def test_echoed_records_keep_their_field_order():
    # reports echo vars(params), so this order is part of the report bytes
    assert list(vars(SelfAdjointSymbolParams(1, 0.5, 0.25))) == ["c", "a0", "a1", "alpha"]
    assert list(vars(CommutantParams.from_eta_b(2.0, 2.0 / 3.0))) == ["eta", "b", "d0", "d1", "d2", "d3"]


def test_run_config_default_format_is_on_the_class_and_overrides_are_not_shared():
    assert RunConfig.output_format == "json"
    first, second = RunConfig(), RunConfig()
    assert first.tolerance_overrides == {} and first.tolerance_overrides is not second.tolerance_overrides


def test_series_validation_runs_on_every_construction(monkeypatch):
    # the benchmark's tracer times TruncatedSeries.__post_init__ by wrapping it on the class
    honest = TruncatedSeries.__post_init__
    seen = []
    monkeypatch.setattr(TruncatedSeries, "__post_init__", lambda self: seen.append(honest(self)))
    p = FockParams(1.0, 4)
    series = TruncatedSeries(np.ones(5), p)
    built = [
        TruncatedSeries.monomial(1, p),
        TruncatedSeries.from_coeffs([1.0, 2.0], p),
        series * series,
        2.0 * series,
        exp_linear(0.5, 1.0, p),
        kernel_series(0.5, p),
        compose_affine(series, 0.5, 0.1),
    ]
    assert len(seen) == 1 + len(built)
    assert not any(s.coeffs.flags.writeable for s in [series, *built])
