"""Per-identity checkers: worked values, falsifications, and verdict logic."""

import math

import numpy as np
import pytest

from fockcalc import (
    AffineMap,
    DegenerateMapError,
    ExpLinearWeight,
    FockParams,
    LinearFractionalMap,
    SelfAdjointSymbolParams,
    Verdict,
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
    disk_selfmap_criterion,
    exp_linear,
    fixed_point,
    reproduce_counterexample,
)
from fockcalc.checks import disk_boundary_oracle

CANONICAL = SelfAdjointSymbolParams(1.0, 0.5, 0.25)


# ---------------------------------------------------------------------------
# self-adjointness, both directions
# ---------------------------------------------------------------------------


class TestSelfAdjointForward:
    def test_diagonal_real_case(self):
        report = check_selfadjoint_forward(SelfAdjointSymbolParams(1.0, 0.0, 0.5))
        assert report.verdict is Verdict.PASS

    def test_canonical_symbols(self):
        report = check_selfadjoint_forward(CANONICAL)
        assert report.verdict is Verdict.PASS
        assert report.max_residual <= 1e-10

    def test_complex_scale_fails(self):
        report = check_selfadjoint_forward(SelfAdjointSymbolParams(1.0 + 0.2j, 0.5, 0.25))
        assert report.verdict is Verdict.FAIL
        matrix_residuals = [v for n, v in report.residuals if n > 0]
        assert min(matrix_residuals) >= 0.05

    def test_complex_slope_fails(self):
        report = check_selfadjoint_forward(SelfAdjointSymbolParams(1.0, 0.5, 0.25 + 0.1j))
        assert report.verdict is Verdict.FAIL

    def test_alpha_generic(self):
        report = check_selfadjoint_forward(SelfAdjointSymbolParams(1.0, 0.5, 0.25, alpha=2.0))
        assert report.verdict is Verdict.PASS

    def test_randomized_battery(self):
        # the verdict, not any intermediate value, is the contract here:
        # 1000 legitimate draws all pass; draws with an imaginary part of at
        # least 0.05 planted in c or a1 all fail; exponent mismatches cannot
        # be expressed through the parameter bundle and are falsified by the
        # reverse check below
        rng = np.random.default_rng(42)
        for i in range(1000):
            c = rng.uniform(0.5, 2.0)
            radius = rng.uniform(0.0, 0.6)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            a0 = complex(radius * np.cos(angle), radius * np.sin(angle))
            a1 = rng.uniform(0.1, max(1.0 - abs(a0) - 0.05, 0.11)) * rng.choice([-1.0, 1.0])
            good = check_selfadjoint_forward(SelfAdjointSymbolParams(c, a0, a1), orders=(16,), seed=7 + i)
            assert good.verdict is Verdict.PASS
            if i % 5 == 0:
                imag = rng.uniform(0.05, 0.3)
                if i % 2 == 0:
                    bad = check_selfadjoint_forward(
                        SelfAdjointSymbolParams(c + imag * 1j, a0, a1), orders=(16,), seed=7 + i
                    )
                else:
                    bad = check_selfadjoint_forward(
                        SelfAdjointSymbolParams(c, a0, a1 + imag * 1j), orders=(16,), seed=7 + i
                    )
                assert bad.verdict is Verdict.FAIL

    def test_exponent_mismatch_falsified_by_reverse_check(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a0 = complex(*rng.uniform(-0.5, 0.5, 2))
            a1 = rng.uniform(-0.4, 0.4)
            shift = rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            weight = ExpLinearWeight(1.0, np.conj(a0) + shift)
            report = check_selfadjoint_reverse(weight, AffineMap(a1, a0))
            assert report.verdict is Verdict.FAIL


class TestSelfAdjointReverse:
    def test_canonical_weight_and_map(self):
        report = check_selfadjoint_reverse(ExpLinearWeight(1.0, 0.5), AffineMap(0.25, 0.5))
        assert report.verdict is Verdict.PASS
        assert "c=1.0" in report.notes and "a0=0.5" in report.notes and "a1=0.25" in report.notes

    def test_identity_symbol_degenerate_pass(self):
        report = check_selfadjoint_reverse(ExpLinearWeight(1.0, 0.0), AffineMap(1.0, 0.0))
        assert report.verdict is Verdict.PASS

    def test_exponent_mismatch_fails(self):
        report = check_selfadjoint_reverse(ExpLinearWeight(1.0, 0.6), AffineMap(0.25, 0.5))
        assert report.verdict is Verdict.FAIL
        coeff_res = report.residuals[-1][1]
        assert 0.05 <= coeff_res <= 0.2  # exponent off by 0.1 shows up at degree one


# ---------------------------------------------------------------------------
# fixed points, conjugation, disk criterion
# ---------------------------------------------------------------------------


class TestFixedPoint:
    def test_zero_offset(self):
        assert fixed_point(AffineMap(0.5, 0.0)) == 0.0

    def test_canonical_value(self):
        assert abs(fixed_point(AffineMap(0.25, 0.5)) - 2.0 / 3.0) <= 1e-15

    def test_complex_offset(self):
        assert abs(fixed_point(AffineMap(-0.2, 0.3j)) - 0.25j) <= 1e-15

    def test_unit_slope_errors(self):
        with pytest.raises(ValueError):
            fixed_point(AffineMap(1.0, 0.5))
        with pytest.raises(DegenerateMapError):
            fixed_point(AffineMap(1.0, 0.0))

    def test_residual_over_random_draws(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a1 = rng.uniform(-0.95, 0.95)
            a0 = complex(*rng.uniform(-0.9, 0.9, 2))
            mp = AffineMap(a1, a0)
            b = fixed_point(mp)
            assert abs(mp(b) - b) <= 1e-13


class TestHConjugation:
    def test_zero_fixed_point_reduces_to_scaling(self):
        report = check_h_conjugation(AffineMap(0.5, 0.0))
        assert report.verdict is Verdict.PASS
        assert report.max_residual == 0.0

    def test_canonical_single_point(self):
        report = check_h_conjugation(AffineMap(0.25, 0.5), samples=[0.2])
        assert report.verdict is Verdict.PASS
        assert report.max_residual <= 1e-14

    def test_complex_symbols(self):
        report = check_h_conjugation(AffineMap(-0.2, 0.3j))
        assert report.verdict is Verdict.PASS
        assert report.max_residual <= 1e-12


class TestDiskCriterion:
    def test_boundary_rotation(self):
        assert disk_selfmap_criterion(0.0, 1.0) is True

    def test_canonical(self):
        assert disk_selfmap_criterion(0.5, 0.25) is True

    def test_outside(self):
        assert disk_selfmap_criterion(0.9, 0.5) is False
        assert disk_boundary_oracle(0.9, 0.5) is False

    def test_oracle_matches_on_examples(self):
        assert disk_boundary_oracle(0.0, 1.0) is True
        assert disk_boundary_oracle(0.5, 0.25) is True

    def test_battery_has_no_disagreements(self):
        report = check_disk_criterion(200, seed=42)
        assert report.verdict is Verdict.PASS
        assert report.residuals[0][1] == 0.0


class TestEigenIdentity:
    def test_canonical(self):
        report = check_eigen_identity(CANONICAL, j_max=5)
        assert report.verdict is Verdict.PASS
        assert report.residuals[0][1] <= 1e-10

    def test_zero_fixed_point_exact(self):
        report = check_eigen_identity(SelfAdjointSymbolParams(1.0, 0.0, 0.5), j_max=3)
        assert report.verdict is Verdict.PASS
        assert report.residuals[0][1] == 0.0

    def test_kernel_eigenrelation_coefficientwise(self):
        report = check_eigen_identity(CANONICAL, j_max=0, kernel_order=32)
        kernel_res = report.residuals[-1][1]
        assert kernel_res <= 1e-11

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(ValueError):
            check_eigen_identity(SelfAdjointSymbolParams(1.0, 0.5, 0.6))  # 0.6 >= 1 - 0.5


class TestFixedPointTransfer:
    def test_identity_companion(self):
        report = check_fixed_point_transfer(CANONICAL, AffineMap(1.0, 0.0), ExpLinearWeight(1.0, 0.0))
        assert report.verdict is Verdict.PASS
        assert report.residuals[0][1] == 0.0

    def test_zero_fixed_point_scaling_family(self):
        f0 = SelfAdjointSymbolParams(1.0, 0.0, 0.5)
        report = check_fixed_point_transfer(f0, AffineMap(0.3 + 0.1j, 0.0), ExpLinearWeight(1.0, 0.0))
        assert report.verdict is Verdict.PASS

    def test_conjugated_family_fixes_b(self):
        psi, g, _ = commutant_symbols(2.0, 2.0 / 3.0)
        assert abs(complex(psi(2.0 / 3.0)) - 2.0 / 3.0) <= 1e-13
        report = check_fixed_point_transfer(CANONICAL, psi, g)
        # the maps do not commute, so the report is informational,
        # but the measured transfer residual is still tiny
        assert report.verdict is Verdict.INFORMATIONAL
        assert report.residuals[0][1] <= 1e-13

    def test_vanishing_weight_rejected(self):
        vanishing = exp_linear(1.0, 1.0, FockParams(1.0, 1))  # 1 + z, zero at -1... nonzero on samples
        # build a weight that actually vanishes on the sample circle |z| = 0.4
        from fockcalc import SeriesWeight, TruncatedSeries

        params = FockParams(1.0, 4)
        zero_at_04 = TruncatedSeries.from_coeffs([-0.4, 1.0], params)  # z - 0.4
        rng_hits = False
        try:
            check_fixed_point_transfer(
                CANONICAL, AffineMap(1.0, 0.0), SeriesWeight(zero_at_04), samples=[0.4]
            )
        except ValueError:
            rng_hits = True
        assert rng_hits


# ---------------------------------------------------------------------------
# the commutant family
# ---------------------------------------------------------------------------


class TestCommutantSymbols:
    def test_degeneration_at_multiplier_one(self):
        psi, weight, cp = commutant_symbols(1.0, 2.0 / 3.0)
        assert cp.d0 == 0.0 and cp.d1 == 0.0 and cp.d2 == 1.0
        assert psi.p / psi.s == 1.0 and psi.q == 0.0 and psi.r == 0.0
        report = check_commutant_symbols(1.0, 2.0 / 3.0)
        assert report.verdict is Verdict.PASS

    def test_worked_map_at_b_two_thirds(self):
        psi, _, _ = commutant_symbols(2.0, 2.0 / 3.0)
        # ((4/9 - eta) z + (eta - 1) 2/3) / ((2/3)(1 - eta) z + (4/9) eta - 1)
        for z in (0.0, 0.3, -0.2 + 0.1j):
            expected = ((4 / 9 - 2) * z + (2 - 1) * 2 / 3) / (2 / 3 * (1 - 2) * z + 8 / 9 - 1)
            assert abs(complex(psi(z)) - expected) <= 1e-12

    def test_offset_coefficient_flagged_outside_disk(self):
        _, _, cp = commutant_symbols(2.0, 2.0 / 3.0)
        assert abs(cp.d0 - (-6.0)) <= 1e-12
        report = check_commutant_symbols(2.0, 2.0 / 3.0)
        assert report.verdict is Verdict.PASS
        assert "psi(0) lies outside the unit disk" in report.notes

    def test_complex_parameters(self):
        report = check_commutant_symbols(0.7 + 0.2j, 0.1 + 0.5j)
        assert report.verdict is Verdict.PASS

    def test_preconditions(self):
        with pytest.raises(ValueError):
            commutant_symbols(2.0, 0.0)
        with pytest.raises(ValueError):
            commutant_symbols(9.0 / 4.0, 2.0 / 3.0)  # |b|^2 eta = 1


class TestMoebiusConjugation:
    def test_identity_at_multiplier_one(self):
        identity = LinearFractionalMap(1.0, 0.0, 0.0, 1.0)
        report = check_moebius_conjugation(identity, 0.5, 1.0)
        assert report.verdict is Verdict.PASS
        assert report.max_residual == 0.0
        # the constructed family at multiplier one is the identity up to rounding
        psi, _, _ = commutant_symbols(1.0, 0.5)
        report = check_moebius_conjugation(psi, 0.5, 1.0)
        assert report.max_residual <= 1e-15

    def test_worked_values(self):
        psi, _, _ = commutant_symbols(2.0, 2.0 / 3.0)
        report = check_moebius_conjugation(psi, 2.0 / 3.0, 2.0)
        assert report.verdict is Verdict.PASS

    def test_complex_draw(self):
        psi, _, _ = commutant_symbols(0.7, 0.5j)
        report = check_moebius_conjugation(psi, 0.5j, 0.7, samples=np.linspace(0.1, 0.8, 20))
        assert report.verdict is Verdict.PASS

    def test_battery(self):
        report = check_moebius_conjugation_battery(50, seed=42)
        assert report.verdict is Verdict.PASS
        assert report.max_residual <= 1e-12


class TestCounterexample:
    def test_composition_tuples(self):
        report = reproduce_counterexample(2.0)
        assert report.verdict is Verdict.PASS
        assert all(v <= 1e-12 for _, v in report.residuals)

    def test_variant_tuple_detected(self):
        report = reproduce_counterexample(2.0)
        assert "rescaled" in report.notes
        # the variant tuple describes 1/2 + psi, a genuinely different map
        assert "variant" in report.notes

    def test_values_at_origin(self):
        # true compositions: -1 vs 1/4; the variant tuple evaluates to -5.5
        phi = LinearFractionalMap(0.25, 0.5, 0.0, 1.0)
        psi, _, _ = commutant_symbols(2.0, 2.0 / 3.0)
        outer_after_inner = phi.compose(psi)
        inner_after_outer = psi.compose(phi)
        assert abs(complex(outer_after_inner(0.0)) - (-1.0)) <= 1e-12
        assert abs(complex(inner_after_outer(0.0)) - 0.25) <= 1e-12
        from fockcalc.checks import _tuple_outer_after_inner_variant

        var = _tuple_outer_after_inner_variant(2.0)
        assert abs(var[1] / var[3] - (-5.5)) <= 1e-12

    def test_multiplier_one_collapses(self):
        report = reproduce_counterexample(1.0)
        assert report.verdict is Verdict.PASS

    def test_degenerate_multiplier_zero(self):
        with pytest.raises(DegenerateMapError):
            reproduce_counterexample(0.0)

    @pytest.mark.parametrize("eta", [2.0, 3.0, 0.5, 0.7 + 0.3j, -1.5])
    def test_five_numeric_multipliers(self, eta):
        report = reproduce_counterexample(eta)
        assert report.verdict is Verdict.PASS


class TestDegenerateCommutant:
    def test_zero_fixed_point_gives_identity(self):
        report = check_degenerate_commutant(0.0, SelfAdjointSymbolParams(1.0, 0.0, 0.5))
        assert report.verdict is Verdict.PASS
        assert report.max_residual == 0.0

    def test_canonical_scalar_value(self):
        report = check_degenerate_commutant(2.0 / 3.0, CANONICAL)
        assert report.verdict is Verdict.PASS
        assert f"{math.exp(-2.0 / 9.0)!r}" in report.notes

    def test_wrong_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            check_degenerate_commutant(0.5, CANONICAL)


# ---------------------------------------------------------------------------
# adjoint factorization and normality
# ---------------------------------------------------------------------------


class TestAdjointFactorization:
    def test_identity_map(self):
        report = check_cphi_adjoint_factorization(AffineMap(1.0, 0.0))
        assert report.verdict is Verdict.PASS

    def test_canonical_map(self):
        report = check_cphi_adjoint_factorization(AffineMap(0.25, 0.5), samples=[0.3])
        assert report.verdict is Verdict.PASS
        assert report.residuals[0][1] <= 1e-12

    def test_rotated_map(self):
        report = check_cphi_adjoint_factorization(AffineMap(0.5j, 0.2), samples=[0.6])
        assert report.verdict is Verdict.PASS
        assert report.residuals[0][1] <= 1e-11

    def test_slope_above_one_rejected(self):
        with pytest.raises(ValueError):
            check_cphi_adjoint_factorization(AffineMap(1.5, 0.0))

    def test_unbounded_skips_matrix_path(self):
        report = check_cphi_adjoint_factorization(AffineMap(1.0, 0.3))
        assert report.verdict is Verdict.PASS
        assert "matrix cross-check skipped" in report.notes

    def test_battery(self):
        report = check_adjoint_factorization_battery(20, seed=42)
        assert report.verdict is Verdict.PASS
        assert report.residuals[0][1] <= 1e-11


class TestNormality:
    def test_zero_offset_dilation(self):
        report = check_normality(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.0))
        assert report.verdict is Verdict.PASS
        assert report.max_residual <= 1e-12

    def test_nonzero_offset_constant_weight(self):
        report = check_normality(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.3))
        assert report.verdict is Verdict.PASS
        assert min(v for _, v in report.residuals) >= 1e-8

    def test_selfadjoint_symbol_is_normal_but_breaks_the_predicate(self):
        # measured: normal (it is self-adjoint); predicate: "not normal";
        # the checker reports the disagreement as a failure with a note
        report = check_normality(ExpLinearWeight(1.0, 0.5), AffineMap(0.25, 0.5))
        assert report.max_residual <= 1e-10
        assert report.verdict is Verdict.FAIL
        assert "predicate" in report.notes

    def test_nonconstant_weight_zero_offset_is_not_normal(self):
        # the other direction of the same disagreement: zero offset but a
        # genuine exponential weight gives a non-normal operator
        report = check_normality(ExpLinearWeight(1.0, 0.5), AffineMap(0.5, 0.0))
        assert report.verdict is Verdict.FAIL
        assert report.max_residual >= 1e-3

    def test_unbounded_map_is_criterion_only(self):
        report = check_normality(ExpLinearWeight(1.0, 0.0), AffineMap(1.0, 0.1))
        assert report.verdict is Verdict.INFORMATIONAL
        assert "criterion-only" in report.notes

    def test_alpha_generic(self):
        report = check_normality(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.3), alpha=2.0)
        assert report.verdict is Verdict.PASS

    def test_converged_residual_dip_at_rounding_level_passes(self):
        # the residual has converged by these orders and dips by a few ulps:
        # 0.2536002999818751, ...505, ...505, ...500
        report = check_normality(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.3), (90, 100, 110, 120))
        values = [v for _, v in report.residuals]
        assert max(values) - min(values) <= 1e-15
        assert report.verdict is Verdict.PASS, report.notes

    def test_genuine_decrease_still_fails(self):
        # N=16 then N=8: the smaller leading block has a residual lower by 4e-3
        report = check_normality(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.3), (16, 8))
        assert report.verdict is Verdict.FAIL
        assert "non-decreasing" in report.notes
