"""Quadrature oracle against the exact inner-product path."""

import math

import numpy as np
import pytest

from fockcalc import (
    AffineMap,
    ExpLinearWeight,
    FockParams,
    TruncatedSeries,
    Verdict,
    WcoSymbol,
    assemble_matrix,
    check_oracle_agreement,
    default_grid,
    inner_product,
    orthonormal_basis_element,
    quad_gram,
    quad_inner_product,
    quad_matrix_entry,
)
from fockcalc.quadrature import QuadratureGrid, _build_grid, _scale_and_phases, cutoff_radius
from fockcalc.series import ParamsMismatchError
from fockcalc.operators import LinearFractionalMap, UnsupportedMapError
import fockcalc.operators
import fockcalc.quadrature
import fockcalc.series

P16 = FockParams(1.0, 16)


def test_total_mass_is_one():
    for alpha in (0.5, 1.0, 2.0):
        params = FockParams(alpha, 16)
        one = TruncatedSeries.from_coeffs([1.0], params)
        value = quad_inner_product(one, one, default_grid(params))
        assert abs(value - 1.0) <= 1e-10


def test_angular_orthogonality():
    grid = default_grid(P16)
    e2 = orthonormal_basis_element(2, P16)
    e5 = orthonormal_basis_element(5, P16)
    assert abs(quad_inner_product(e2, e5, grid)) <= 1e-12


def test_cubed_monomial_norm():
    grid = default_grid(P16)
    z3 = TruncatedSeries.monomial(3, P16)
    assert abs(quad_inner_product(z3, z3, grid) - 6.0) <= 1e-8


def test_grid_too_coarse_rejected():
    params = FockParams(1.0, 40)
    grid = _build_grid(1.0, cutoff_radius(params), 8, 8, 64)  # 64 <= 2 * 40
    z = TruncatedSeries.monomial(1, params)
    with pytest.raises(ValueError, match="too coarse"):
        quad_inner_product(z, z, grid)


def _panel_loop_nodes(alpha, radius, panels, per_panel):
    """Radial (node, weight) pairs built one panel at a time."""
    base_x, base_w = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(0.0, radius, panels + 1)
    rows = []
    for left, right in zip(edges[:-1], edges[1:]):
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        r = mid + half * base_x
        rows.append(np.column_stack([r, half * base_w * np.exp(-alpha * r**2) * r]))
    return np.concatenate(rows)


@pytest.mark.parametrize("alpha,order", [(1.0, 16), (0.5, 200)])
def test_grid_equals_panel_loop(alpha, order):
    grid = default_grid(FockParams(alpha, order))
    reference = _panel_loop_nodes(alpha, grid.cutoff, grid.panels, grid.nodes_per_panel)
    assert np.array_equal(grid.radial_nodes, reference)
    refined = grid.refined()
    assert np.array_equal(refined.radial_nodes, _panel_loop_nodes(alpha, grid.cutoff, 2 * grid.panels, grid.nodes_per_panel))


def test_grid_validation():
    with pytest.raises(ValueError, match="positive"):
        QuadratureGrid(np.array([[1.0, -1.0]]), 64, 5.0, 1.0)
    with pytest.raises(ValueError, match="at least 64"):
        QuadratureGrid(np.array([[1.0, 1.0]]), 32, 5.0, 1.0)


def test_oracle_agreement_suite():
    report = check_oracle_agreement(16, (0.5, 1.0, 2.0))
    assert report.verdict is Verdict.PASS
    assert report.max_residual <= 1e-8


def _mixed_series(params):
    """Three basis elements and three random combinations of normalized monomials."""
    rng = np.random.default_rng(3)
    size = params.order + 1
    norms = np.array([math.sqrt(params.alpha**k / math.factorial(k)) for k in range(size)])
    out = [orthonormal_basis_element(n, params) for n in (0, 3, 7)]
    for _ in range(3):
        out.append(TruncatedSeries(norms * (rng.normal(size=size) + 1j * rng.normal(size=size)), params))
    return out


def test_gram_is_hermitian():
    series = _mixed_series(P16)
    gram = quad_gram(series, default_grid(P16))
    scale = np.max(np.abs(gram))
    assert np.max(np.abs(gram - gram.conj().T)) <= 1e-14 * scale
    assert np.all(np.diag(gram).real > 0)


def _assert_matches_pairwise_rule(series, grid):
    """quad_gram against each pair's integrand, with every series evaluated by Horner on every point."""
    gram = quad_gram(series, grid)
    pts = grid.points()
    for i, f in enumerate(series):
        for j, g in enumerate(series):
            integrand = f(pts) * np.conj(g(pts))
            pairwise = 2.0 * grid.alpha * np.sum(grid.radial_nodes[:, 1] * integrand.mean(axis=1))
            scale = 2.0 * grid.alpha * np.sum(grid.radial_nodes[:, 1] * np.abs(integrand).mean(axis=1))
            assert abs(gram[i, j] - pairwise) <= 1e-14 * scale
    return gram


def test_gram_matches_pairwise_rule_on_short_grid():
    # 3 panels of 11 nodes: 33 radial nodes; a short radius keeps the
    # outermost nodes' weight far from negligible
    grid = _build_grid(1.0, 2.0, 3, 11, 64)
    series = _mixed_series(P16)
    gram = _assert_matches_pairwise_rule(series, grid)
    assert abs(quad_inner_product(series[1], series[4], grid) - gram[1, 4]) <= 1e-14 * abs(gram[4, 4])


def test_gram_matches_pairwise_rule_at_large_order():
    # 101 degrees on 33 x 201 points: the radial Gram R W R^T is 101 x 101
    params = FockParams(2.0, 100)
    _assert_matches_pairwise_rule(_mixed_series(params), _build_grid(2.0, 2.0, 3, 11, 201))


@pytest.mark.parametrize("order", [16, 40, 200])
def test_phase_gram_is_scaled_identity(order):
    # Q = P P^H is the A-point trapezoid rule for e^{i (k - l) theta}, exact
    # (A delta_kl) since |k - l| <= N < A.  Diagonal: each |P[k, a]|^2 is 1
    # within 2 eps (cos and sin within an ulp), so the A terms sum to within
    # 2 A eps <= 4 ulp(A) of A.  Off the diagonal the exact sum is 0, and each
    # term is off by at most 2.5 eps (two roots within eps / sqrt(2) each, plus
    # sqrt(5) eps / 2 for the complex product): at most 2.5 A eps if every error
    # pointed the same way.  The additions round against partial sums that
    # rotate with the roots; c = 4 leaves 1.5 A eps for them, and the largest
    # ratio on these grids reads 1.93 (A = 401).  A root table on the wrong
    # circle (A + 1 in the angle) misses by O(1), far outside.
    eps = np.finfo(float).eps
    params = FockParams(1.0, order)
    for count in (max(64, 2 * order + 1), 4 * (order + 1)):
        _, phases = _scale_and_phases(params, default_grid(params, angular_count=count), np.arange(order + 1))
        q = phases @ phases.conj().T
        assert np.max(np.abs(np.diag(q) - count)) <= 4 * np.spacing(float(count))
        assert np.max(np.abs(q - np.diag(np.diag(q)))) <= 4 * count * eps


@pytest.mark.parametrize("alpha,order", [(1.0, 40), (0.5, 60)])
def test_gram_matches_pairwise_rule_at_smallest_angular_count(alpha, order):
    # 2N+1 angles, the fewest the oracle accepts: each off-diagonal sum of
    # the phase Gram cancels over the fewest roots of unity
    params = FockParams(alpha, order)
    _assert_matches_pairwise_rule(_mixed_series(params), default_grid(params, angular_count=2 * order + 1))


def test_gram_rejects_mixed_params_and_coarse_grid():
    other = FockParams(2.0, 16)
    with pytest.raises(ParamsMismatchError):
        quad_gram([orthonormal_basis_element(1, P16), orthonormal_basis_element(1, other)], default_grid(P16))
    params = FockParams(1.0, 40)
    grid = _build_grid(1.0, cutoff_radius(params), 8, 8, 64)
    with pytest.raises(ValueError, match="too coarse"):
        quad_gram([TruncatedSeries.monomial(n, params) for n in range(3)], grid)


def test_oracle_fails_on_perturbed_exact_norms(monkeypatch):
    # the exact side (basis coefficients and Gram) sees ||z^5|| off by 1e-6;
    # an oracle with its own scale must see the basis drift off unit norm
    honest = FockParams.monomial_norms

    def perturbed(self):
        norms = honest(self).copy()
        norms[5] *= 1.0 + 1e-6
        return norms

    monkeypatch.setattr(FockParams, "monomial_norms", perturbed)
    report = check_oracle_agreement(12, (1.0,))
    assert report.verdict is Verdict.FAIL
    assert report.max_residual > 1e-6


def test_oracle_fails_on_a_nan_residual(monkeypatch):
    # a nan deviation of one alpha must fail, not drop out of the worst
    monkeypatch.setattr(fockcalc.quadrature, "gram", lambda basis: np.full((len(basis), len(basis)), np.nan))
    report = check_oracle_agreement(4, (1.0,))
    assert math.isnan(report.residuals[0][1])
    assert report.verdict is Verdict.FAIL


def _forbid_exact_path(monkeypatch):
    """Make every exact norm, inner-product, composition and assembly entry point raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the exact path it validates")

    monkeypatch.setattr(FockParams, "monomial_norms", forbidden)
    for module in (fockcalc.series, fockcalc.quadrature, fockcalc.operators):
        for name in ("inner_product", "gram", "compose_affine", "assemble_matrix", "assemble_sections"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


def test_quad_gram_uses_no_exact_path(monkeypatch):
    params = FockParams(1.0, 16)
    basis = [orthonormal_basis_element(n, params) for n in range(17)]
    expected = quad_gram(basis, default_grid(params))
    _forbid_exact_path(monkeypatch)
    assert np.array_equal(quad_gram(basis, default_grid(params)), expected)


def test_quad_matrix_entry_uses_no_exact_path(monkeypatch):
    sym = WcoSymbol(ExpLinearWeight(0.8, -0.3 + 0.2j), AffineMap(0.4j, 0.3))
    params = FockParams(1.0, 12)
    grid = default_grid(params)
    indices = ((0, 0), (3, 1), (12, 7))
    expected = [quad_matrix_entry(sym, n, m, grid, params) for n, m in indices]
    _forbid_exact_path(monkeypatch)
    assert [quad_matrix_entry(sym, n, m, grid, params) for n, m in indices] == expected


def test_quad_gram_range_at_degree_200():
    # raw powers overflow here: the cutoff radius is about 37 and 37^200 > 1e308
    params = FockParams(0.5, 200)
    basis = [orthonormal_basis_element(n, params) for n in (0, 100, 200)]
    gram = quad_gram(basis, default_grid(params))
    assert np.all(np.isfinite(gram))
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-8


def test_oracle_agreement_degree_forty():
    report = check_oracle_agreement(40, (0.5, 1.0, 2.0))
    assert report.verdict is Verdict.PASS
    assert report.max_residual <= 1e-8


def test_refinement_never_increases_error():
    params = FockParams(1.0, 12)
    basis = [TruncatedSeries.monomial(n, params) for n in range(13)]
    norm = [math.sqrt(inner_product(b, b).real) for b in basis]

    def suite_error(grid):
        worst = 0.0
        for n in range(13):
            for m in range(n, 13):
                exact = inner_product(basis[n], basis[m]) / (norm[n] * norm[m])
                quad = quad_inner_product(basis[n], basis[m], grid) / (norm[n] * norm[m])
                worst = max(worst, abs(quad - exact))
        return worst

    grid = _build_grid(1.0, cutoff_radius(params), 1, 8, 64)
    errors = [suite_error(grid)]
    for _ in range(4):
        grid = grid.refined()
        errors.append(suite_error(grid))
    assert all(nxt <= prev for prev, nxt in zip(errors, errors[1:])), errors
    assert errors[0] > 1e-3 and errors[-1] <= 1e-7


def test_matrix_entry_identity():
    grid = default_grid(P16)
    value = quad_matrix_entry(WcoSymbol.identity(), 2, 2, grid, P16)
    assert abs(value - 1.0) <= 1e-8


def test_matrix_entry_canonical_symbols():
    sym = WcoSymbol(ExpLinearWeight(1.0, 0.5), AffineMap(0.25, 0.5))
    grid = default_grid(P16)
    lower = quad_matrix_entry(sym, 0, 1, grid, P16)
    upper = quad_matrix_entry(sym, 1, 0, grid, P16)
    assert abs(lower - 0.5) <= 1e-8
    assert abs(upper - 0.5) <= 1e-8
    assert abs(upper - np.conj(lower)) <= 1e-8


def test_matrix_entries_cross_validate_assembly():
    sym = WcoSymbol(ExpLinearWeight(0.8, -0.3 + 0.2j), AffineMap(0.4j, 0.3))
    params = FockParams(1.0, 12)
    grid = default_grid(params)
    mat = assemble_matrix(sym, params)
    for m, n in ((0, 0), (1, 0), (2, 3), (7, 7), (12, 4)):
        quad = quad_matrix_entry(sym, n, m, grid, params)
        assert abs(quad - mat.entries[m, n]) <= 1e-8 * max(1.0, abs(mat.entries[m, n]))


@pytest.mark.parametrize("alpha,order", [(0.5, 200), (1.0, 320)])
def test_matrix_entries_at_high_order(alpha, order):
    # raw powers overflow at (0.5, 200): the cutoff radius is about 37 and
    # 37^200 > 1e308; at (1, 320) the exact norms ||z^k|| do from k = 301
    sym = WcoSymbol(ExpLinearWeight(0.8, -0.3 + 0.2j), AffineMap(0.4j, 0.3))
    params = FockParams(alpha, order)
    grid = default_grid(params)
    mat = assemble_matrix(sym, params)
    for m, n in ((order, order), (order, 0), (0, order), (order // 3, order // 2), (7, 5)):
        quad = quad_matrix_entry(sym, n, m, grid, params)
        assert np.isfinite(quad)
        assert abs(quad - mat.entries[m, n]) <= 1e-8 * max(1.0, abs(mat.entries[m, n]))


def test_matrix_entry_requires_affine():
    mobius = LinearFractionalMap(1.0, 0.0, 1.0, 1.0)
    sym = WcoSymbol(ExpLinearWeight(1.0, 0.0), mobius)
    with pytest.raises(UnsupportedMapError):
        quad_matrix_entry(sym, 0, 0, default_grid(P16), P16)
