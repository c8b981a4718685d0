"""Per-identity checkers: worked values, falsifications, and verdict logic."""

import cmath
import math

import numpy as np
import pytest

import fockcalc.checks as checks
from fockcalc import (
    AffineMap,
    Boundedness,
    DegenerateMapError,
    ExpLinearWeight,
    FockParams,
    LinearFractionalMap,
    SelfAdjointSymbolParams,
    Verdict,
    WcoSymbol,
    adjoint_matrix,
    adjoint_on_kernel,
    assemble_matrix,
    boundedness_check,
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
    compose_affine,
    disk_selfmap_criterion,
    exp_linear,
    fixed_point,
    kernel_series,
    reproduce_counterexample,
)
from fockcalc.checks import _moebius_residuals, disk_boundary_oracle
from fockcalc.sampling import circle_rows, disk_pairs

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nan_kernel_difference_reaches_the_residual(self):
        # a weight scale of 1e308 overflows both kernel images to inf at some pairs, and inf - inf is nan
        report = check_selfadjoint_forward(SelfAdjointSymbolParams(1e308, 0.5, 0.25), (4,))
        assert math.isnan(report.residuals[-1][1])
        assert report.verdict is Verdict.FAIL

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

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("seed", [42, 7, 3])
    def test_kernel_residual_matches_scalar_loop(self, seed, alpha):
        # one weight.value call per point, against the checker's weight evaluated over all points at once
        for params in (SelfAdjointSymbolParams(1.0, 0.5, 0.25, alpha), SelfAdjointSymbolParams(1.3 + 0.1j, 0.3 - 0.4j, -0.35, alpha)):
            weight, mp = params.weight(), params.map()
            diffs = []
            for z, beta in disk_pairs(seed).tolist():
                lhs = weight.value(z) * cmath.exp(alpha * mp(z) * beta.conjugate())
                rhs = weight.value(beta).conjugate() * cmath.exp(alpha * complex(mp(beta)).conjugate() * z)
                diffs.append(abs(lhs - rhs))
            report = check_selfadjoint_forward(params, (4,), seed=seed)
            assert repr(report.residuals[-1][1]) == repr(float(np.max(diffs)))

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

    @pytest.mark.parametrize("seed", [42, 7, 3])
    def test_battery_counts_match_scalar_loop(self, seed):
        # one draw at a time, as three scalar draws each, against the whole-array battery
        rng = np.random.default_rng(seed)
        circle = np.exp(1j * (2.0 * np.pi * np.arange(1000) / 1000))
        disagreements = self_maps = 0
        for _ in range(200):
            a0 = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            a1 = float(rng.uniform(-1.2, 1.2))
            mag = abs(a0)
            pred = mag < 1.0 and -1.0 + mag - 1e-12 <= a1 <= 1.0 - mag + 1e-12
            orac = float(np.max(np.abs(a0 + a1 * circle))) <= 1.0 + 1e-12
            self_maps += pred
            disagreements += pred != orac
        report = check_disk_criterion(200, seed=seed)
        assert report.residuals[0][1] == disagreements
        assert report.notes == f"{self_maps} of 200 draws were self-maps"

    def test_oracle_matches_the_complex_maximum_at_the_bound(self):
        """Draws with |a0| + |a1| a few ulps from 1 + IDENTITY_TOL against max |a0 + a1 z| over the complex circle."""
        circle = np.exp(1j * (2.0 * np.pi * np.arange(1000) / 1000))
        bound = 1.0 + 1e-12
        rng = np.random.default_rng(22)
        a0s, a1s = [], []
        for radius, j in zip(rng.uniform(0.05, 0.95, 60), rng.integers(0, 1000, 60)):
            # a0 on a sample angle, where the maximum reaches |a0| + |a1|, and halfway between two
            for angle in (2.0 * np.pi * j / 1000, 2.0 * np.pi * (j + 0.5) / 1000):
                for sign in (1.0, -1.0):
                    for ulps in range(-4, 5):
                        a0s.append(radius * cmath.exp(1j * angle))
                        a1s.append(sign * ((bound - radius) + ulps * np.spacing(bound - radius)))
        for ulps in range(-4, 5):
            edge = bound + ulps * np.spacing(bound)
            # a0 = 0 (so |a1| > 1), and a1 = 0 on sample angles and between them
            a0s += [0.0, 0.0] + [edge * cmath.exp(1j * np.pi * k / 1000) for k in range(0, 40, 3)]
            a1s += [edge, -edge] + [0.0] * 14
        # |a1| > 1 with a small a0, and |a1| just above 1 with a0 = 0
        a0s += list(0.1 * rng.uniform(-1.0, 1.0, 40) + 0.1j * rng.uniform(-1.0, 1.0, 40)) + [0.0] * 8
        a1s += list(rng.choice([-1.0, 1.0], 40) * rng.uniform(1.0, 3.0, 40)) + [s * (1.0 + k * 2.0**-52) for s in (1.0, -1.0) for k in range(1, 5)]
        brute = [float(np.max(np.abs(a0 + a1 * circle))) <= bound for a0, a1 in zip(a0s, a1s)]
        assert len(brute) >= 2000
        # the draws straddle the bound
        assert min(sum(brute), len(brute) - sum(brute)) > 0.1 * len(brute)
        assert disk_boundary_oracle(np.array(a0s), np.array(a1s)).tolist() == brute

    @pytest.mark.parametrize("a1", [1.0 + 1e-12, -(1.0 + 1e-12)])
    def test_oracle_takes_the_complex_path_where_rounding_decides(self, a1):
        # the projection's squared maximum is a1^2, the squared bound itself, but a stored circle point of modulus
        # rounded above 1 carries |a1 z| past the bound: only the complex maximum gives the verdict
        circle = np.exp(1j * (2.0 * np.pi * np.arange(1000) / 1000))
        assert a1 * a1 <= (1.0 + 1e-12) ** 2
        assert float(np.max(np.abs(a1 * circle))) > 1.0 + 1e-12
        assert disk_boundary_oracle(0.0, a1) is False

    def test_array_inputs_give_arrays(self):
        a0 = np.array([0.0, 0.5, 0.9, 0.3j])
        a1 = np.array([1.0, 0.25, 0.5, -0.8])
        expected = [disk_selfmap_criterion(x, y) for x, y in zip(a0, a1)]
        assert disk_selfmap_criterion(a0, a1).tolist() == expected
        # more draws than one oracle block
        many0, many1 = np.tile(a0, 20), np.tile(a1, 20)
        assert disk_boundary_oracle(many0, many1).tolist() == [disk_boundary_oracle(x, y) for x, y in zip(many0, many1)]


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
        report = check_eigen_identity(CANONICAL, j_max=0)
        kernel_res = report.residuals[-1][1]
        assert kernel_res <= 1e-11

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_nan_residual_fails(self):
        # at z = 2000 both sides overflow and every j reads nan; the worst of them must be nan, not 0
        report = check_eigen_identity(CANONICAL, samples=[2000.0])
        assert report.notes.startswith("j=0: nan;")
        assert math.isnan(report.residuals[0][1])
        assert report.verdict is Verdict.FAIL

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("seed", [42, 7, 3])
    def test_residuals_match_per_j_evaluation(self, seed, alpha):
        # the weight, map, envelope and h evaluated afresh for each j, against the checker's values taken once
        for params in (SelfAdjointSymbolParams(1.0, 0.5, 0.25, alpha), SelfAdjointSymbolParams(1.3, 0.3 - 0.4j, -0.35, alpha)):
            mp, weight = params.map(), params.weight()
            b = fixed_point(mp)
            pts = checks._sample_points(None, seed, [checks._h_pole(b)], mapped_by=mp)
            h = checks.mobius_h(b)

            def e_j(z, j):
                envelope = np.exp(alpha * (b.conjugate() * np.asarray(z) - abs(b) ** 2 / 2.0))
                return envelope * h(z) ** j if j else envelope

            eig = complex(weight.value(b)).conjugate()
            factor = checks.conjugation_factor(mp, pts)
            per_j = [float(np.max(np.abs(weight.value(pts) * e_j(mp(pts), j) - eig * factor**j * e_j(pts, j)))) for j in range(6)]
            report = check_eigen_identity(params, 5, seed=seed)
            assert repr(report.residuals[0][1]) == repr(float(np.max(per_j)))
            assert report.notes == "; ".join(f"j={j}: {r:.2e}" for j, r in enumerate(per_j))

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(ValueError):
            check_eigen_identity(SelfAdjointSymbolParams(1.0, 0.5, 0.6))  # 0.6 >= 1 - 0.5

    @pytest.mark.parametrize("j_max", [-1, -2])
    def test_negative_j_max_rejected(self, j_max):
        # no j would be evaluated, and the pointwise residual would read 0 on no evidence
        with pytest.raises(ValueError, match="j_max must be at least 0"):
            check_eigen_identity(CANONICAL, j_max=j_max)


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

    def test_map_alone_equals_the_family_map(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            b = complex(rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            eta = complex(rng.uniform(-2.0, 2.5), rng.uniform(-1.0, 1.0))
            psi, family = checks._commutant_map(eta, b), commutant_symbols(eta, b)[0]
            assert [repr(getattr(psi, name)) for name in "pqrs"] == [repr(getattr(family, name)) for name in "pqrs"]

    def test_map_alone_keeps_the_preconditions(self):
        with pytest.raises(ValueError, match="nonzero"):
            checks._commutant_map(2.0, 0.0)
        with pytest.raises(ValueError, match="too close to 1"):
            checks._commutant_map(9.0 / 4.0, 2.0 / 3.0)
        # psi's determinant is eta (|b|^2 - 1)^2, so |b| = 1 degenerates it
        with pytest.raises(DegenerateMapError):
            checks._commutant_map(2.0, 1.0)


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

    @pytest.mark.parametrize("seed", [42, 7])
    def test_battery_equals_per_draw_checks(self, seed):
        # the rejection sampling one attempt at a time, each accepted draw through the single check
        rng = np.random.default_rng(seed)
        worst, accepted = 0.0, 0
        while accepted < 50:
            b = complex(rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            eta = complex(rng.uniform(-2.0, 2.5), rng.uniform(-1.0, 1.0))
            if abs(abs(b) ** 2 * eta - 1.0) < 0.05 or abs(eta) < 0.05:
                continue
            psi, _, _ = commutant_symbols(eta, b)
            worst = max(worst, check_moebius_conjugation(psi, b, eta, seed=seed + accepted).max_residual)
            accepted += 1
        report = check_moebius_conjugation_battery(50, seed=seed)
        assert repr(report.max_residual) == repr(worst)

    def test_block_filters_each_row_by_its_own_poles(self):
        # each row holds the other row's poles as well as its own; only its own are dropped
        draws = [(2.0, 2.0 / 3.0), (0.7 + 0.2j, 0.5j)]
        psis = [commutant_symbols(eta, b)[0] for eta, b in draws]
        poles = [p for psi, (_, b) in zip(psis, draws) for p in (psi.pole, 1.0 / b.conjugate())]
        samples = np.array([[0.1, -0.2j, *poles], [0.3, 0.25 + 0.1j, *poles]])
        res, kept = _moebius_residuals(psis, np.array([b for _, b in draws]), np.array([eta for eta, _ in draws]), samples)
        for i, (eta, b) in enumerate(draws):
            single = check_moebius_conjugation(psis[i], b, eta, samples=samples[i])
            assert kept[i] == single.params_echo["samples"] == 4
            assert res[i] == single.max_residual

    def test_no_sample_left_after_pole_filtering_rejected(self):
        psi, _, _ = commutant_symbols(2.0, 2.0 / 3.0)
        with pytest.raises(ValueError, match="pole margin"):
            check_moebius_conjugation(psi, 2.0 / 3.0, 2.0, samples=[psi.pole, 1.5])


# the canonical map 0.5 + 0.25 z fixes b = 2/3, so h has its pole at 1 / conj(b) = 1.5 and
# h(map(z)) at 4; the commutant map at (eta, b) = (2, 2/3) has its pole at -1/6
PSI_2, G_2, _ = commutant_symbols(2.0, 2.0 / 3.0)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: check_h_conjugation(CANONICAL.map(), samples=[1.5, 4.0]), id="fixed-point"),
        # the constant map 1 fixes b = 1 and sends every point onto h's pole 1 / conj(b) = 1
        pytest.param(lambda: check_h_conjugation(AffineMap(0.0, 1.0)), id="fixed-point-constant-map"),
        pytest.param(lambda: check_eigen_identity(CANONICAL, samples=[1.5, 1.5]), id="eigen-identity"),
        pytest.param(
            lambda: check_fixed_point_transfer(CANONICAL, PSI_2, G_2, samples=[PSI_2.pole] * 2), id="fixed-point-transfer"
        ),
        pytest.param(lambda: check_commutant_symbols(2.0, 2.0 / 3.0, samples=[PSI_2.pole]), id="commutant-symbols"),
        pytest.param(
            lambda: check_moebius_conjugation(PSI_2, 2.0 / 3.0, 2.0, samples=[PSI_2.pole, 1.5]), id="moebius-conjugation"
        ),
    ],
)
def test_every_sample_on_a_pole_rejected(run):
    with pytest.raises(ValueError, match="all sample points fell within the pole margin"):
        run()


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: check_h_conjugation(CANONICAL.map(), samples=[]), id="fixed-point"),
        pytest.param(lambda: check_eigen_identity(CANONICAL, samples=[]), id="eigen-identity"),
        pytest.param(lambda: check_fixed_point_transfer(CANONICAL, PSI_2, G_2, samples=[]), id="fixed-point-transfer"),
        pytest.param(lambda: check_commutant_symbols(2.0, 2.0 / 3.0, samples=[]), id="commutant-symbols"),
        pytest.param(lambda: check_moebius_conjugation(PSI_2, 2.0 / 3.0, 2.0, samples=[]), id="moebius-conjugation"),
        pytest.param(lambda: check_cphi_adjoint_factorization(AffineMap(0.25, 0.5), samples=[]), id="adjoint-factorization"),
    ],
)
def test_empty_samples_rejected(run):
    # an empty list is no evidence, which the pole margin did not remove
    with pytest.raises(ValueError, match="^no sample points$"):
        run()


@pytest.mark.parametrize("seed", [42, 7])
def test_disk_pairs_match_the_per_pair_draws(seed):
    # the reference draws one pair at a time: two radii, then two angles
    rng = np.random.default_rng(seed)
    reference = []
    for _ in range(20):
        r = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 2))
        phi = rng.uniform(0.0, 2.0 * np.pi, 2)
        reference.append([complex(r[0] * np.exp(1j * phi[0])), complex(r[1] * np.exp(1j * phi[1]))])
    pairs = disk_pairs(seed)
    assert pairs.shape == (20, 2)
    assert [[repr(v) for v in row] for row in pairs.tolist()] == [[repr(v) for v in row] for row in reference]


class TestCounterexample:
    def test_composition_tuples(self):
        report = reproduce_counterexample(2.0)
        assert report.verdict is Verdict.PASS
        tuples, (n, separation) = report.residuals[:2], report.residuals[2]
        assert all(v <= 1e-12 for _, v in tuples)
        # the separation residual |oai(0) - iao(0)| = |-1 - 1/4|
        assert n == 0 and abs(separation - 1.25) <= 1e-12

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

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="no sample points"):
            check_cphi_adjoint_factorization(AffineMap(0.25, 0.5), samples=[])

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("mp", [AffineMap(0.6 - 0.3j, 0.4 + 0.2j), AffineMap(1.0, 0.3)], ids=["bounded", "unbounded"])
    def test_kernel_block_matches_per_sample_reference(self, alpha, mp):
        params = FockParams(alpha, 32)
        samples = [0.3, -0.5 + 0.7j, 0.9j, -0.8 - 0.1j, 0.0]
        report = check_cphi_adjoint_factorization(mp, samples=samples, params=params)
        # one sample at a time through the series algebra
        c_phi = WcoSymbol(ExpLinearWeight(1.0, 0.0), mp)
        adjoint = adjoint_matrix(assemble_matrix(c_phi, params))
        norms = params.monomial_norms()
        half = (params.order + 1) // 2
        kernel_ref = matrix_ref = scale = 0.0
        for beta in samples:
            lhs = adjoint_on_kernel(c_phi, beta, params)
            rhs = kernel_series(mp.b, params) * compose_affine(kernel_series(beta, params), mp.a.conjugate(), 0.0)
            kernel_ref = max(kernel_ref, lhs.max_abs_diff(rhs))
            applied = (adjoint.entries @ (kernel_series(beta, params).coeffs * norms)) / norms
            matrix_ref = max(matrix_ref, float(np.max(np.abs(applied[:half] - lhs.coeffs[:half]))))
            scale = max(scale, float(np.max(np.abs(lhs.coeffs))))
        assert report.params_echo["samples"] == len(samples)
        assert abs(report.residuals[0][1] - kernel_ref) <= 1e-13 * scale
        if boundedness_check(mp) is Boundedness.UNBOUNDED:
            assert len(report.residuals) == 1
        else:
            assert abs(report.residuals[1][1] - matrix_ref) <= 1e-13 * scale

    def test_battery(self):
        report = check_adjoint_factorization_battery(20, seed=42)
        assert report.verdict is Verdict.PASS
        assert report.residuals[0][1] <= 1e-11

    @pytest.mark.parametrize("alpha", [1.0, 4.0])
    def test_battery_matches_per_map_path(self, alpha):
        params = FockParams(alpha, 32)
        rng = np.random.default_rng(42)
        kernel_ref = matrix_worst = scale = 0.0
        for i in range(20):
            a = complex(rng.uniform(0.0, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            b = complex(rng.uniform(0.0, 0.8) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            mp = AffineMap(a, b)
            matrix_worst = max(matrix_worst, check_cphi_adjoint_factorization(mp, params=params, seed=42 + i).residuals[1][1])
            # K_{map(beta)} against K_b times the kernel composed with conj(a) z, one sample at a time
            c_phi = WcoSymbol(ExpLinearWeight(1.0, 0.0), mp)
            for beta in circle_rows(42 + i, 1)[0]:
                lhs = adjoint_on_kernel(c_phi, beta, params)
                rhs = kernel_series(b, params) * compose_affine(kernel_series(beta, params), a.conjugate(), 0.0)
                kernel_ref = max(kernel_ref, lhs.max_abs_diff(rhs))
                scale = max(scale, float(np.max(np.abs(lhs.coeffs))))
        report = check_adjoint_factorization_battery(20, params, seed=42)
        assert report.residuals[1][1] == matrix_worst
        assert abs(report.residuals[0][1] - kernel_ref) <= 1e-13 * scale
        assert report.residuals[0][1] <= 1e-13 * scale


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
        assert "measured commutator is small although the predicate declares non-normal" in report.notes

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


# ---------------------------------------------------------------------------
# negative controls: every check returns Fail on one broken input or perturbed step
# ---------------------------------------------------------------------------

CONTROL_ALPHAS = [0.05, 1.0, 8.0, 20.0]


def test_fixed_point_fails_on_an_inexact_fixed_point():
    # slope 1 - 1e-9 + 1e-9i puts b near 5e8, where map(b) - b keeps 3e-8 of rounding; the conjugation still holds
    report = check_h_conjugation(AffineMap(0.999999999 + 1e-9j, 0.3 + 0.7j))
    assert report.residuals[0][1] > checks.FIXED_POINT_TOL
    assert report.residuals[1][1] <= 1e-12
    assert report.verdict is Verdict.FAIL


def test_fixed_point_fails_on_a_perturbed_conjugation_factor(monkeypatch):
    honest = checks.conjugation_factor
    monkeypatch.setattr(checks, "conjugation_factor", lambda mp, z: honest(mp, z) * (1.0 + 1e-9))
    report = check_h_conjugation(AffineMap(0.25, 0.5))
    assert report.residuals[0][1] <= checks.FIXED_POINT_TOL
    assert report.verdict is Verdict.FAIL


def test_disk_criterion_fails_on_one_flipped_boundary_case(monkeypatch):
    def flipped(a0, a1):
        inside = disk_selfmap_criterion(a0, a1)
        inside[0] = not inside[0]
        return inside

    monkeypatch.setattr(checks, "disk_selfmap_criterion", flipped)
    report = check_disk_criterion(200)
    assert report.verdict is Verdict.FAIL
    assert report.residuals == ((0, 1.0),)


@pytest.mark.parametrize("alpha", CONTROL_ALPHAS)
def test_eigen_identity_fails_on_a_wrong_eigenvalue_power(monkeypatch, alpha):
    # factor(z)^(2j) in place of factor(z)^j
    honest = checks.conjugation_factor
    monkeypatch.setattr(checks, "conjugation_factor", lambda mp, z: honest(mp, z) ** 2)
    report = check_eigen_identity(SelfAdjointSymbolParams(1.0, 0.5, 0.25, alpha))
    assert report.verdict is Verdict.FAIL
    assert report.residuals[0][1] > checks.EIGEN_TOL


@pytest.mark.parametrize("alpha", CONTROL_ALPHAS)
def test_fixed_point_transfer_fails_on_a_shifted_fixed_point(monkeypatch, alpha):
    # psi fixes b = 2/3 and commutes with the map, so the transfer is asserted, at b + 1e-6
    monkeypatch.setattr(checks, "fixed_point", lambda mp: fixed_point(mp) + 1e-6)
    psi = AffineMap(0.3, 0.7 * (2.0 / 3.0))
    report = check_fixed_point_transfer(SelfAdjointSymbolParams(1.0, 0.5, 0.25, alpha), psi, ExpLinearWeight(1.0, 0.0))
    assert "transfer asserted" in report.notes
    assert report.verdict is Verdict.FAIL
    assert report.residuals[0][1] > checks.TRANSFER_TOL


@pytest.mark.parametrize("alpha", CONTROL_ALPHAS)
def test_commutant_symbols_fails_on_a_shifted_offset_form(monkeypatch, alpha):
    honest = checks.CommutantParams.offset_form
    monkeypatch.setattr(checks.CommutantParams, "offset_form", lambda self, z: honest(self, z) + 1e-9)
    report = check_commutant_symbols(2.0, 2.0 / 3.0, alpha=alpha)
    assert report.verdict is Verdict.FAIL
    assert report.residuals[0][1] > 1e-12


def test_commutant_symbols_degeneration_must_be_exact(monkeypatch):
    # at eta = 1 a d1 of 1e-300 leaves every closed form within 1e-12, but psi is no longer exactly the identity
    honest = checks.CommutantParams.from_eta_b.__func__

    def perturbed(cls, eta, b):
        return cls(**{**vars(honest(cls, eta, b)), "d1": 1e-300})

    monkeypatch.setattr(checks.CommutantParams, "from_eta_b", classmethod(perturbed))
    report = check_commutant_symbols(1.0, 2.0 / 3.0)
    assert all(v <= 1e-12 for _, v in report.residuals[:3])
    assert report.residuals[3] == (0, 1e-300)
    assert report.verdict is Verdict.FAIL


def test_moebius_conjugation_fails_on_a_dropped_conjugate(monkeypatch):
    # psi built for conj(b) instead of b
    honest = checks._commutant_map
    monkeypatch.setattr(checks, "_commutant_map", lambda eta, b: honest(eta, complex(b).conjugate()))
    report = check_moebius_conjugation_battery(50)
    assert report.verdict is Verdict.FAIL
    assert report.residuals[0][1] > 1e-3
    single = check_moebius_conjugation(honest(2.0, 0.5j), -0.5j, 2.0)
    assert single.verdict is Verdict.FAIL


def test_counterexample_fails_on_the_variant_tuple(monkeypatch):
    monkeypatch.setattr(checks, "_tuple_outer_after_inner", checks._tuple_outer_after_inner_variant)
    report = reproduce_counterexample(2.0)
    assert report.verdict is Verdict.FAIL
    assert report.residuals[0][1] > 0.1


def test_counterexample_fails_when_the_orders_barely_differ():
    # at eta = 1 + 1e-8 the tuples match, but the two orders differ at 0 by only 1e-9
    report = reproduce_counterexample(1.0 + 1e-8)
    assert all(v <= 1e-12 for _, v in report.residuals[:2])
    assert report.residuals[2][1] < checks.SEPARATION
    assert report.verdict is Verdict.FAIL


def _perturb_sections(monkeypatch, entry, delta):
    """Make every batch of finite sections the checks build off by delta at one entry."""
    honest = checks.assemble_sections

    def perturbed(symbols, params, *, columns=None):
        sections = honest(symbols, params)[:, :, :columns]
        sections[entry] += delta
        return sections

    monkeypatch.setattr(checks, "assemble_sections", perturbed)


@pytest.mark.parametrize("alpha", CONTROL_ALPHAS)
def test_degenerate_commutant_fails_on_a_shifted_scalar(monkeypatch, alpha):
    # (g + 1e-9) I is still scalar, so it still commutes and is normal: only the scalar residual fails
    diagonal = np.arange(33)
    _perturb_sections(monkeypatch, (0, diagonal, diagonal), 1e-9)
    f_params = SelfAdjointSymbolParams(1.0, 0.5, 0.25, alpha)
    report = check_degenerate_commutant(fixed_point(f_params.map()), f_params, order=32)
    assert report.verdict is Verdict.FAIL
    assert report.residuals[0][1] > checks.DEGENERATE_SCALAR_TOL


@pytest.mark.parametrize("alpha", [8.0, 20.0])
def test_degenerate_commutant_fails_on_an_off_diagonal_perturbation(monkeypatch, alpha):
    # g I + D, D 0.9e-14 on every off-diagonal entry: the scalar residual holds at 9e-15, the commutator with
    # the partner reads 1.4e-12 at alpha 8 and 6.7e-11 at 20.  At alpha 0.05 and 1 it reads 5.7e-14 and
    # 1.1e-13, inside its bound, so this perturbation cannot fail it there on its own.  The normal residual
    # holds: ||[A*, A]|| = ||[D*, D]|| <= 2 ||D||^2, far below its bound whenever the scalar residual holds.
    _perturb_sections(monkeypatch, (0, ~np.eye(33, dtype=bool)), 0.9e-14)
    f_params = SelfAdjointSymbolParams(1.0, 0.5, 0.25, alpha)
    report = check_degenerate_commutant(fixed_point(f_params.map()), f_params)
    assert report.verdict is Verdict.FAIL
    assert report.residuals[0][1] <= checks.DEGENERATE_SCALAR_TOL
    assert report.residuals[1][1] > checks.IDENTITY_TOL
    assert report.residuals[2][1] <= checks.DEGENERATE_NORMAL_TOL


@pytest.mark.parametrize("alpha", CONTROL_ALPHAS)
def test_adjoint_factorization_fails_on_a_conjugated_offset(monkeypatch, alpha):
    # the multiplier K_conj(b) in place of K_b
    honest = checks._kernel_multipliers
    monkeypatch.setattr(checks, "_kernel_multipliers", lambda offsets, params: honest(offsets.conj(), params))
    report = check_adjoint_factorization_battery(20, FockParams(alpha, 32))
    assert report.verdict is Verdict.FAIL
    assert report.residuals[0][1] > checks.ADJOINT_KERNEL_TOL


@pytest.mark.parametrize("alpha", CONTROL_ALPHAS)
@pytest.mark.parametrize(
    "run",
    [
        lambda params: check_adjoint_factorization_battery(20, params),
        lambda params: check_cphi_adjoint_factorization(AffineMap(0.25, 0.5), params=params),
    ],
    ids=["battery", "single"],
)
def test_adjoint_factorization_fails_on_perturbed_sections(monkeypatch, alpha, run):
    # only the finite-section cross-check reads the sections
    _perturb_sections(monkeypatch, (slice(None), 0, 0), 1e-6)
    report = run(FockParams(alpha, 32))
    assert report.verdict is Verdict.FAIL
    assert report.residuals[1][1] > checks.ADJOINT_MATRIX_TOL
