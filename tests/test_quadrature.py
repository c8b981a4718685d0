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
from fockcalc.quadrature import GRAM_BLOCK, QuadratureGrid, _build_grid, cutoff_radius
from fockcalc.series import ParamsMismatchError
from fockcalc.operators import LinearFractionalMap, UnsupportedMapError

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


def test_gram_matches_pairwise_rule_on_partial_block():
    # 3 panels of 11 nodes: 33 radial nodes, so the sweep ends on a partial
    # block; a short radius keeps the outermost nodes' weight far from negligible
    grid = _build_grid(1.0, 2.0, 3, 11, 64)
    assert grid.radial_nodes.shape[0] > GRAM_BLOCK and grid.radial_nodes.shape[0] % GRAM_BLOCK != 0
    series = _mixed_series(P16)
    gram = quad_gram(series, grid)
    pts = grid.points()
    for i, f in enumerate(series):
        for j, g in enumerate(series):
            integrand = f(pts) * np.conj(g(pts))
            pairwise = 2.0 * grid.alpha * np.sum(grid.radial_nodes[:, 1] * integrand.mean(axis=1))
            scale = 2.0 * grid.alpha * np.sum(grid.radial_nodes[:, 1] * np.abs(integrand).mean(axis=1))
            assert abs(gram[i, j] - pairwise) <= 1e-14 * scale
    assert abs(quad_inner_product(series[1], series[4], grid) - gram[1, 4]) <= 1e-14 * abs(gram[4, 4])


def test_gram_rejects_mixed_params_and_coarse_grid():
    other = FockParams(2.0, 16)
    with pytest.raises(ParamsMismatchError):
        quad_gram([orthonormal_basis_element(1, P16), orthonormal_basis_element(1, other)], default_grid(P16))
    params = FockParams(1.0, 40)
    grid = _build_grid(1.0, cutoff_radius(params), 8, 8, 64)
    with pytest.raises(ValueError, match="too coarse"):
        quad_gram([TruncatedSeries.monomial(n, params) for n in range(3)], grid)


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


def test_matrix_entry_requires_affine():
    mobius = LinearFractionalMap(1.0, 0.0, 1.0, 1.0)
    sym = WcoSymbol(ExpLinearWeight(1.0, 0.0), mobius)
    with pytest.raises(UnsupportedMapError):
        quad_matrix_entry(sym, 0, 0, default_grid(P16), P16)
