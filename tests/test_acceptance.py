"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here and matches the checker defaults.
"""

import json
import math
import time

import numpy as np

from fockcalc import (
    AffineMap,
    ExpLinearWeight,
    FockParams,
    LinearFractionalMap,
    SelfAdjointSymbolParams,
    Verdict,
    WcoSymbol,
    adjoint_matrix,
    assemble_matrix,
    check_adjoint_factorization_battery,
    check_degenerate_commutant,
    check_disk_criterion,
    check_eigen_identity,
    check_h_conjugation,
    check_moebius_conjugation_battery,
    check_oracle_agreement,
    commutant_symbols,
    commutator_residual,
    fixed_point,
    hermitian_residual,
    reproduce_counterexample,
)
from fockcalc.checks import _tuple_outer_after_inner_variant
from fockcalc.cli import RunConfig, run_suite
from fockcalc.report import render_reports

CANONICAL = SelfAdjointSymbolParams(1.0, 0.5, 0.25)

# Golden value for criterion 9: minimum commutator-with-adjoint residual over
# the seeded non-normal draw battery below (constant weight, |b| >= 0.1,
# |a - 1| >= 0.1, |a| <= 0.9, N = 32, leading half block), established by the
# brute-force matrix computation in this file.  Measured 0.19641; recorded
# slightly conservatively.
GOLDEN_NONNORMAL_FLOOR = 0.19


def record(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_selfadjoint_forward():
    start = time.perf_counter()
    residuals = []
    for order in (16, 32, 64):
        mat = assemble_matrix(CANONICAL.symbol(), FockParams(1.0, order))
        residuals.append(hermitian_residual(mat))
    elapsed = time.perf_counter() - start
    ok = all(r <= 1e-12 for r in residuals) and elapsed < 1.0
    record(1, f"self-adjoint sections at N=16,32,64 (max {max(residuals):.2e}, {elapsed:.2f}s)", ok)


def test_criterion_02_selfadjoint_falsification():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = math.inf
    for i in range(100):
        c = rng.uniform(0.5, 2.0)
        radius = rng.uniform(0.0, 0.6)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        a0 = complex(radius * np.cos(angle), radius * np.sin(angle))
        a1 = rng.uniform(0.1, max(1.0 - abs(a0) - 0.05, 0.11)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        kind = i % 3
        if kind == 0:
            weight, mp = ExpLinearWeight(c + 0.1j, np.conj(a0)), AffineMap(a1, a0)
        elif kind == 1:
            weight, mp = ExpLinearWeight(c, np.conj(a0)), AffineMap(a1 + 0.1j, a0)
        else:
            weight, mp = ExpLinearWeight(c, np.conj(a0) + 0.1), AffineMap(a1, a0)
        residual = hermitian_residual(assemble_matrix(WcoSymbol(weight, mp), FockParams(1.0, 32)))
        worst = min(worst, residual)
    elapsed = time.perf_counter() - start
    ok = worst >= 1e-3 and elapsed < 5.0
    record(2, f"100 perturbed draws all non-Hermitian (min residual {worst:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_03_fixed_point():
    b = fixed_point(AffineMap(0.25, 0.5))
    report = check_h_conjugation(AffineMap(0.25, 0.5))
    ok = abs(b - 2.0 / 3.0) <= 1e-15 and report.max_residual <= 1e-12
    record(3, f"fixed point 2/3 exact and conjugation residual {report.max_residual:.2e}", ok)


def test_criterion_04_disk_criterion():
    report = check_disk_criterion(200, seed=42)
    disagreements = int(report.residuals[0][1])
    record(4, f"disk criterion vs sampling oracle, {disagreements} disagreements in 200 draws", disagreements == 0)


def test_criterion_05_eigen_identity():
    report = check_eigen_identity(CANONICAL, j_max=5)
    pointwise = report.residuals[0][1]
    kernel = report.residuals[1][1]
    ok = pointwise <= 1e-10 and kernel <= 1e-11
    record(5, f"eigen identities j<=5 (pointwise {pointwise:.2e}, kernel coeffs {kernel:.2e})", ok)


def test_criterion_06_commutant_generator():
    psi1, _, cp1 = commutant_symbols(1.0, 2.0 / 3.0)
    degeneration_exact = (
        cp1.d0 == 0.0
        and cp1.d1 == 0.0
        and cp1.d2 == 1.0
        and psi1.q == 0.0
        and psi1.r == 0.0
        and psi1.p / psi1.s == 1.0
    )

    battery = check_moebius_conjugation_battery(50, seed=42)

    counter = reproduce_counterexample(2.0)
    tuples_ok = (
        counter.verdict is Verdict.PASS
        and all(v <= 1e-12 for _, v in counter.residuals[:2])
        and abs(counter.residuals[2][1] - 1.25) <= 1e-12
    )

    phi = LinearFractionalMap(0.25, 0.5, 0.0, 1.0)
    psi2, _, _ = commutant_symbols(2.0, 2.0 / 3.0)
    true_oai = complex(phi.compose(psi2)(0.0))
    true_iao = complex(psi2.compose(phi)(0.0))
    variant = _tuple_outer_after_inner_variant(2.0)
    variant_at0 = variant[1] / variant[3]
    values_ok = (
        abs(variant_at0 - (-5.5)) <= 1e-12
        and abs(true_iao - 0.25) <= 1e-12
        and abs(true_oai - (-1.0)) <= 1e-12
        and abs(true_oai - true_iao) > 1e-6
    )
    variant_detected = phi.compose(psi2).projective_residual(variant) >= 0.1

    ok = degeneration_exact and battery.max_residual <= 1e-12 and tuples_ok and values_ok and variant_detected
    record(
        6,
        "commutant family: exact degeneration, conjugation over 50 draws "
        f"({battery.max_residual:.2e}), composition tuples and order mismatch",
        ok,
    )


def test_criterion_07_degenerate_commutant():
    report = check_degenerate_commutant(2.0 / 3.0, CANONICAL, order=32)
    scalar, comm, normal = (v for _, v in report.residuals)
    ok = scalar <= 1e-14 and comm <= 1e-12 and normal <= 1e-14 and report.verdict is Verdict.PASS
    record(
        7,
        f"scalar commutant e^(-2/9) (scalar {scalar:.1e}, commutator {comm:.1e}, normality {normal:.1e})",
        ok,
    )


def test_criterion_08_adjoint_factorization():
    report = check_adjoint_factorization_battery(20, seed=42)
    kernel = report.residuals[0][1]
    ok = report.verdict is Verdict.PASS and kernel <= 1e-11
    record(8, f"adjoint factorization, 20 maps x 20 kernels (kernel residual {kernel:.2e})", ok)


def test_criterion_09_normality_dichotomy():
    rng = np.random.default_rng(42)
    normal_worst = 0.0
    for _ in range(20):
        a = complex(rng.uniform(0.05, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        mat = assemble_matrix(WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(a, 0.0)), FockParams(1.0, 32))
        normal_worst = max(normal_worst, commutator_residual(adjoint_matrix(mat), mat, 16))

    rng = np.random.default_rng(42)
    nonnormal_min32 = math.inf
    monotone = True
    for _ in range(25):
        while True:
            a = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(a) <= 0.9 and abs(a - 1.0) >= 0.1 and abs(a) >= 0.05:
                break
        b = complex(rng.uniform(0.1, 0.8) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        values = []
        for order in (32, 64):
            mat = assemble_matrix(WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(a, b)), FockParams(1.0, order))
            values.append(commutator_residual(adjoint_matrix(mat), mat, order // 2))
        nonnormal_min32 = min(nonnormal_min32, values[0])
        monotone = monotone and values[1] >= values[0]

    ok = (
        normal_worst <= 1e-10
        and nonnormal_min32 >= 100.0 * 1e-10
        and nonnormal_min32 >= GOLDEN_NONNORMAL_FLOOR
        and monotone
    )
    record(
        9,
        f"normality dichotomy (normal {normal_worst:.1e}, non-normal floor {nonnormal_min32:.3f} "
        f">= golden {GOLDEN_NONNORMAL_FLOOR}, non-decreasing)",
        ok,
    )


def test_criterion_10_oracle_agreement():
    report = check_oracle_agreement(16, (0.5, 1.0, 2.0))
    ok = report.verdict is Verdict.PASS and report.max_residual <= 1e-8
    record(10, f"quadrature oracle agreement on normalized monomials (max {report.max_residual:.2e})", ok)


def test_criterion_11_full_suite():
    cfg = RunConfig()
    start = time.perf_counter()
    first = run_suite(cfg)
    elapsed = time.perf_counter() - start
    second = run_suite(cfg)
    bytes_first = render_reports(first, "json").encode()
    bytes_second = render_reports(second, "json").encode()
    all_ok = all(r.passed for r in first)
    ok = all_ok and elapsed < 30.0 and bytes_first == bytes_second
    record(
        11,
        f"full suite: {len(first)} checks, all Pass/Informational, {elapsed:.1f}s, byte-identical reruns",
        ok,
    )
