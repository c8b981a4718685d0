"""Quadrature oracle against the exact inner-product path."""

import math
import tracemalloc
from fractions import Fraction

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
    quad_inner_product,
    quad_matrix_entry,
)
from fockcalc.quadrature import ORACLE_TOL, QuadratureGrid, _build_grid, _image, _phase_gram, _quad_row_gram, cutoff_radius
from fockcalc.report import CheckReport, Rule
from fockcalc.series import ParamsMismatchError
from fockcalc.operators import LinearFractionalMap, UnsupportedMapError
import fockcalc.operators
import fockcalc.quadrature
import fockcalc.series

P16 = FockParams(1.0, 16)


def _monomial(n, params, normalized=False):
    """z^n as a series, or e_n = z^n / ||z^n|| when normalized."""
    coeffs = np.zeros(params.order + 1, dtype=np.complex128)
    coeffs[n] = 1 / params.monomial_norms()[n] if normalized else 1.0
    return TruncatedSeries(coeffs, params)


def _rows(series):
    """The coefficient rows of series that share one params."""
    return np.stack([s.coeffs for s in series])


def _quad_gram(series, grid):
    """The quadrature Gram of the series: the row core's stack of one with its own phase Gram, as quad_inner_product runs it."""
    params = series[0].params
    return _quad_row_gram((params,), (grid,), _rows(series)[None], _phase_gram(params, grid))[0]


def test_total_mass_is_one():
    for alpha in (0.5, 1.0, 2.0):
        params = FockParams(alpha, 16)
        one = _monomial(0, params)
        value = quad_inner_product(one, one, default_grid(params))
        assert abs(value - 1.0) <= 1e-10


def test_angular_orthogonality():
    grid = default_grid(P16)
    e2 = _monomial(2, P16, normalized=True)
    e5 = _monomial(5, P16, normalized=True)
    assert abs(quad_inner_product(e2, e5, grid)) <= 1e-12


def test_cubed_monomial_norm():
    grid = default_grid(P16)
    z3 = _monomial(3, P16)
    assert abs(quad_inner_product(z3, z3, grid) - 6.0) <= 1e-8


def test_grid_too_coarse_rejected():
    params = FockParams(1.0, 40)
    grid = _build_grid(1.0, cutoff_radius(params), 8, 8, 64)  # 64 <= 2 * 40
    z = _monomial(1, params)
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
    # the default grid has 16 panels of 16 nodes
    grid = default_grid(FockParams(alpha, order))
    assert np.array_equal(grid.radial_nodes, _panel_loop_nodes(alpha, grid.cutoff, 16, 16))
    refined = _build_grid(alpha, grid.cutoff, 32, 16, grid.angular_count)
    assert np.array_equal(refined.radial_nodes, _panel_loop_nodes(alpha, grid.cutoff, 32, 16))


def test_grid_validation():
    with pytest.raises(ValueError, match="positive"):
        QuadratureGrid(np.array([[1.0, -1.0]]), 64, 5.0, 1.0, [1.0], [0.0])
    with pytest.raises(ValueError, match="at least 64"):
        QuadratureGrid(np.array([[1.0, 1.0]]), 32, 5.0, 1.0, [1.0], [0.0])


def test_grid_refuses_a_layout_that_strays_from_its_nodes():
    grid = default_grid(P16)
    args = (grid.radial_nodes, grid.angular_count, grid.cutoff, grid.alpha)
    centres, offsets = grid.panel_centres, grid.panel_offsets
    assert (centres.shape, offsets.shape) == ((16,), (16,))
    # any split whose outer sum is on the nodes is a layout: here one centre at 0 and the nodes as offsets
    QuadratureGrid(*args, [0.0], grid.radial_nodes[:, 0])
    # 4 eps * cutoff off: at least 2.5 eps * cutoff after the layout's own eps * cutoff and the sum's rounding
    with pytest.raises(ValueError, match="strays"):
        QuadratureGrid(*args, centres, offsets + 4 * np.finfo(float).eps * grid.cutoff)
    with pytest.raises(ValueError, match="strays"):
        QuadratureGrid(*args, centres[::-1], offsets)
    for bad in ((centres[1:], offsets), (np.add.outer(centres, offsets), [0.0]), (centres, offsets[:, None])):
        with pytest.raises(ValueError, match="one pair per radial node"):
            QuadratureGrid(*args, *bad)


def test_oracle_agreement_suite():
    report = check_oracle_agreement(16, (0.5, 1.0, 2.0))
    assert report.verdict is Verdict.PASS
    assert report.max_residual <= 1e-8


def _mixed_series(params):
    """Three basis elements and three random combinations of normalized monomials."""
    rng = np.random.default_rng(3)
    size = params.order + 1
    norms = np.array([math.sqrt(params.alpha**k / math.factorial(k)) for k in range(size)])
    out = [_monomial(n, params, normalized=True) for n in (0, 3, 7)]
    for _ in range(3):
        out.append(TruncatedSeries(norms * (rng.normal(size=size) + 1j * rng.normal(size=size)), params))
    return out


def test_gram_is_hermitian():
    series = _mixed_series(P16)
    gram = _quad_gram(series, default_grid(P16))
    scale = np.max(np.abs(gram))
    assert np.max(np.abs(gram - gram.conj().T)) <= 1e-14 * scale
    assert np.all(np.diag(gram).real > 0)


def _assert_matches_pairwise_rule(series, grid):
    """The quadrature Gram against each pair's integrand, with every series evaluated by Horner on every point."""
    gram = _quad_gram(series, grid)
    pts = grid.radial_nodes[:, 0][:, None] * grid.roots()[None, :]
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
        grid = _build_grid(params.alpha, cutoff_radius(params), 16, 16, count)
        q = _phase_gram(params, grid)
        assert np.max(np.abs(np.diag(q) - count)) <= 4 * np.spacing(float(count))
        assert np.max(np.abs(q - np.diag(np.diag(q)))) <= 4 * count * eps


@pytest.mark.parametrize("alpha,order", [(1.0, 40), (0.5, 60)])
def test_gram_matches_pairwise_rule_at_smallest_angular_count(alpha, order):
    # 2N+1 angles, the fewest the oracle accepts: each off-diagonal sum of
    # the phase Gram cancels over the fewest roots of unity
    params = FockParams(alpha, order)
    _assert_matches_pairwise_rule(_mixed_series(params), _build_grid(alpha, cutoff_radius(params), 16, 16, 2 * order + 1))


def test_inner_product_refuses_a_grid_built_for_another_alpha():
    # the point weights carry the grid's measure and the radial scale the params': z^2 with itself read 0.5, not 2
    z2 = _monomial(2, P16)
    with pytest.raises(ValueError, match=r"^grid built for alpha 2\.0, but the params have alpha 1\.0$"):
        quad_inner_product(z2, z2, default_grid(FockParams(2.0, 16)))


def test_gram_rejects_mixed_params_and_coarse_grid():
    other = FockParams(2.0, 16)
    with pytest.raises(ParamsMismatchError, match=r"^series params differ: "):
        quad_inner_product(_monomial(1, P16, normalized=True), _monomial(1, other, normalized=True), default_grid(P16))
    params = FockParams(1.0, 40)
    grid = _build_grid(1.0, cutoff_radius(params), 8, 8, 64)
    with pytest.raises(ValueError, match="too coarse"):
        quad_inner_product(_monomial(0, params), _monomial(2, params), grid)
    with pytest.raises(ValueError, match="too coarse"):
        _quad_gram([_monomial(n, params) for n in range(3)], grid)
    # mixed params are named before the grid is judged
    with pytest.raises(ParamsMismatchError):
        quad_inner_product(_monomial(1, params), _monomial(1, P16), grid)


def test_pairwise_entry_points_are_their_row_cores():
    # each pairwise product is entry [0, 1] of its row core on the two stacked rows, bit for bit
    rng = np.random.default_rng(5)
    grid = default_grid(P16)
    for _ in range(5):
        f, g = (TruncatedSeries(rng.normal(size=17) + 1j * rng.normal(size=17), P16) for _ in range(2))
        assert inner_product(f, g) == complex(fockcalc.series._row_gram(P16.monomial_norms(), _rows([f, g]))[0, 1])
        assert quad_inner_product(f, g, grid) == complex(_quad_gram([f, g], grid)[0, 1])


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
    # a nan deviation of one alpha of three must fail, not drop out of the worst; the exact side is the row core on the
    # stacked basis rows, and the nan goes into the middle alpha's Gram only
    honest = fockcalc.quadrature._row_gram

    def one_nan(norms, rows):
        gram = honest(norms, rows)
        gram[1, 0, 2] = np.nan
        return gram

    monkeypatch.setattr(fockcalc.quadrature, "_row_gram", one_nan)
    report = check_oracle_agreement(4, (0.5, 1.0, 2.0))
    values = [value for _, value in report.residuals]
    assert math.isnan(values[1])
    assert values[0] <= ORACLE_TOL and values[2] <= ORACLE_TOL
    assert report.verdict is Verdict.FAIL


def _forbid_exact_path(monkeypatch):
    """Make every exact norm, inner-product, composition and assembly entry point raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the exact path it validates")

    monkeypatch.setattr(FockParams, "monomial_norms", forbidden)
    for module in (fockcalc.series, fockcalc.quadrature, fockcalc.operators):
        for name in ("inner_product", "_row_gram", "compose_affine", "assemble_matrix", "assemble_sections"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


def test_quad_gram_uses_no_exact_path(monkeypatch):
    params = FockParams(1.0, 16)
    basis = [_monomial(n, params, normalized=True) for n in range(17)]
    expected = _quad_gram(basis, default_grid(params))
    pair = quad_inner_product(basis[3], basis[5], default_grid(params))
    _forbid_exact_path(monkeypatch)
    assert np.array_equal(_quad_gram(basis, default_grid(params)), expected)
    assert quad_inner_product(basis[3], basis[5], default_grid(params)) == pair


def test_quad_matrix_entry_uses_no_exact_path(monkeypatch):
    sym = WcoSymbol(ExpLinearWeight(0.8, -0.3 + 0.2j), AffineMap(0.4j, 0.3))
    params = FockParams(1.0, 12)
    grid = default_grid(params)
    indices = ((0, 0), (3, 1), (12, 7))
    expected = [quad_matrix_entry(sym, n, m, grid, params) for n, m in indices]
    _forbid_exact_path(monkeypatch)
    # the first grid's entries would read the values cached before the patch: evaluate them again
    fockcalc.quadrature._symbol_values.cache_clear()
    grid = default_grid(params)
    assert [quad_matrix_entry(sym, n, m, grid, params) for n, m in indices] == expected


def _per_alpha_oracle(max_degree, alphas):
    """check_oracle_agreement as a loop over alphas of monomial series, each with its own phase Gram, on the row cores."""
    residuals = []
    for alpha in alphas:
        params = FockParams(alpha, max_degree)
        basis = [_monomial(n, params, normalized=True) for n in range(max_degree + 1)]
        exact = fockcalc.series._row_gram(params.monomial_norms(), _rows(basis))
        dev = float(np.max(np.abs(np.triu(_quad_gram(basis, default_grid(params)) - exact))))
        residuals.append((max_degree, dev, Rule(at_most=ORACLE_TOL)))
    return CheckReport(
        check_name="oracle-agreement",
        params_echo={"max_degree": max_degree, "alphas": list(alphas)},
        residuals=tuple(residuals),
        notes="one residual per alpha, in the order given; normalized monomial pairs",
    )


@pytest.mark.parametrize("alphas", [(1.0,), (0.5, 1.0, 2.0), (2.0, 0.5, 2.0)])
@pytest.mark.parametrize("max_degree", [1, 12, 40, 250])
def test_oracle_agreement_equals_the_per_alpha_series_path(max_degree, alphas):
    # one coefficient matrix per alpha and one phase Gram per call: the same sums, bit for bit
    report = check_oracle_agreement(max_degree, alphas)
    reference = _per_alpha_oracle(max_degree, alphas)
    assert report.to_dict() == reference.to_dict()
    assert [r[1].hex() for r in report.residuals] == [r[1].hex() for r in reference.residuals]


@pytest.mark.parametrize("order", [1, 16, 64])
def test_stacked_quad_gram_is_each_alphas_cumprod_gram(order):
    # the row core's stacked pass against each alpha's closed form with its radial table by np.cumprod along the
    # degrees: the row loop forms the same sequential products, so every entry keeps its bits
    params = [FockParams(alpha, order) for alpha in (0.5, 1.0, 2.0, 1.0)]
    grids = [default_grid(p) for p in params]
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(4, 3, order + 1)) + 1j * rng.normal(size=(4, 3, order + 1))
    q = _phase_gram(params[0], grids[0])
    stacked = _quad_row_gram(params, grids, rows, q)
    for s, (p, grid) in enumerate(zip(params, grids)):
        steps = np.sqrt(np.arange(1, order + 1) / p.alpha)
        radial = np.ones((order + 1, grid.radial_nodes.shape[0]))
        radial[1:] = grid.radial_nodes[:, 0] / steps[:, None]
        radial = np.cumprod(radial, axis=0)
        weights = 2.0 * p.alpha * grid.radial_nodes[:, 1] / grid.angular_count
        scaled = rows[s].copy()
        scaled[:, 1:] *= np.cumprod(steps)
        assert np.array_equal(stacked[s], scaled @ (q * ((radial * weights) @ radial.T)) @ scaled.conj().T)


def test_oracle_agreement_forms_the_phase_gram_once_per_call(monkeypatch):
    formed = []
    phase_gram = fockcalc.quadrature._phase_gram
    monkeypatch.setattr(fockcalc.quadrature, "_phase_gram", lambda params, grid: formed.append(1) or phase_gram(params, grid))
    check_oracle_agreement(12, (0.5, 1.0, 2.0))
    assert len(formed) == 1
    # nothing outlives the call: the next one forms Q again
    check_oracle_agreement(12, (0.5, 1.0, 2.0))
    assert len(formed) == 2


U = 2.0**-53  # unit roundoff of float64
POWER_EXPONENTS = (0, 1, 2, 3, 31, 32, 33, 99, 100, 101, 255, 256, 320)


def _power_points():
    """Points of modulus 0.5 to 2: on both axes, either sign, and at seeded angles in between."""
    moduli = (0.5, 0.7, 1.0, 1.3, 2.0)
    on_axes = [r * unit for r in moduli for unit in (1, 1j, -1, -1j)]
    rng = np.random.default_rng(23)
    between = rng.uniform(0.5, 2.0, 24) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 24))
    return np.array(on_axes + list(between), dtype=np.complex128)


def _exact_power(z: complex, n: int) -> tuple[Fraction, Fraction]:
    """z**n as a Gaussian rational, each part of z taken as the binary rational it is."""
    x, y = Fraction(z.real), Fraction(z.imag)
    d = math.lcm(x.denominator, y.denominator)
    a, b = int(x * d), int(y * d)
    re, im = 1, 0
    for _ in range(n):
        re, im = re * a - im * b, re * b + im * a
    return Fraction(re, d**n), Fraction(im, d**n)


def _ladder_power(points: np.ndarray, n: int) -> np.ndarray:
    """points**n as the entries take it: a weight of ones times the ladder levels of n's set bits (1 * z is z exactly)."""
    ladder = [points[None, :].copy()]
    ladder[0].setflags(write=False)
    spare = np.empty((n.bit_length() + 1, 1, points.size), dtype=np.complex128)
    return _image(np.ones((1, points.size), dtype=np.complex128), ladder, spare, n)[0]


@pytest.mark.parametrize("n", POWER_EXPONENTS)
def test_power_by_squaring_is_within_the_product_bound(n):
    # Each complex product rounds within sqrt(5) u of its exact value (R. Brent, C. Percival,
    # P. Zimmermann, Error bounds on complex floating-point multiplication, Math. Comp. 76, 2007).
    # A squaring doubles the relative error it inherits, so an error made at z^(2^j) counts
    # n / 2^j times in z^n: to first order the coefficients sum to k = n - 1, the products of
    # z * z * ... * z, whatever the chain.  (1 + sqrt(5) u)^k - 1 <= k sqrt(5) u / (1 - k sqrt(5) u),
    # and 2u covers the reference's one rounding and |ref| against |exact|.
    points = _power_points()
    values = _ladder_power(points, n)
    k = max(n - 1, 0)
    bound = k * math.sqrt(5) * U / (1 - k * math.sqrt(5) * U) + 2 * U
    for z, value in zip(points, values):
        re, im = _exact_power(complex(z), n)
        ref = complex(float(re), float(im))
        assert abs(value - ref) <= bound * abs(ref), (z, n)
    if n == 0:
        assert np.all(values == 1) and not np.any(np.signbit(values.imag))


def test_quad_gram_range_at_degree_200():
    # raw powers overflow here: the cutoff radius is about 37 and 37^200 > 1e308
    params = FockParams(0.5, 200)
    basis = [_monomial(n, params, normalized=True) for n in (0, 100, 200)]
    gram = _quad_gram(basis, default_grid(params))
    assert np.all(np.isfinite(gram))
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-8


def test_oracle_agreement_degree_forty():
    report = check_oracle_agreement(40, (0.5, 1.0, 2.0))
    assert report.verdict is Verdict.PASS
    assert report.max_residual <= 1e-8


def test_refinement_never_increases_error():
    params = FockParams(1.0, 12)
    basis = [_monomial(n, params) for n in range(13)]
    norm = [math.sqrt(inner_product(b, b).real) for b in basis]

    def suite_error(grid):
        worst = 0.0
        for n in range(13):
            for m in range(n, 13):
                exact = inner_product(basis[n], basis[m]) / (norm[n] * norm[m])
                quad = quad_inner_product(basis[n], basis[m], grid) / (norm[n] * norm[m])
                worst = max(worst, abs(quad - exact))
        return worst

    # 1, 2, 4, 8 and 16 panels of 8 nodes
    errors = [suite_error(_build_grid(1.0, cutoff_radius(params), 2**k, 8, 64)) for k in range(5)]
    assert all(nxt <= prev for prev, nxt in zip(errors, errors[1:])), errors
    assert errors[0] > 1e-3 and errors[-1] <= 1e-7


def test_matrix_entry_identity():
    grid = default_grid(P16)
    value = quad_matrix_entry(WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(1.0, 0.0)), 2, 2, grid, P16)
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


@pytest.mark.parametrize("alpha,order", [(0.5, 200), (1.0, 320), (0.05, 200), (0.05, 320)])
def test_matrix_entries_at_high_order(alpha, order):
    # raw powers overflow at (0.5, 200): the cutoff radius is about 37 and
    # 37^200 > 1e308; at (1, 320) the exact norms ||z^k|| do from k = 301.
    # At (0.05, 320) the cutoff is about 118, so 2^{e n} is 2^1920 and s_n about
    # 2^1795: the scale 2^{e n} / s_n is applied without forming either
    sym = WcoSymbol(ExpLinearWeight(0.8, -0.3 + 0.2j), AffineMap(0.4j, 0.3))
    params = FockParams(alpha, order)
    grid = default_grid(params)
    mat = assemble_matrix(sym, params)
    for m, n in ((0, 0), (order, order), (order, 0), (0, order), (order // 3, order // 2), (7, 5)):
        quad = quad_matrix_entry(sym, n, m, grid, params)
        assert np.isfinite(quad)
        assert abs(quad - mat.entries[m, n]) <= 1e-8 * max(1.0, abs(mat.entries[m, n]))


P12 = FockParams(1.0, 12)
ENTRY_INDICES = ((0, 0), (3, 1), (12, 7), (5, 9))


def _bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


@pytest.mark.parametrize("weight", [ExpLinearWeight(0.8, -0.3 + 0.2j)], ids=["exp-linear"])
def test_entries_sharing_a_grid_match_entries_alone(weight):
    """Entries of symbols A, B, A on one grid, in blocks and interleaved, equal each entry on a fresh grid, bit for bit."""
    a = WcoSymbol(weight, AffineMap(0.4j, 0.3))
    b = WcoSymbol(ExpLinearWeight(1.1, 0.2), AffineMap(-0.5, 0.1j))
    calls = [(sym, n, m) for sym in (a, b, a) for n, m in ENTRY_INDICES]
    calls += [(sym, n, m) for n, m in ENTRY_INDICES for sym in (a, b, a)]
    grid = default_grid(P12)
    shared = [quad_matrix_entry(sym, n, m, grid, P12) for sym, n, m in calls]
    alone = [quad_matrix_entry(sym, n, m, default_grid(P12), P12) for sym, n, m in calls]
    assert np.all(np.isfinite(shared))
    assert _bits(shared) == _bits(alone)


def test_entries_of_one_symbol_on_one_grid_evaluate_the_weight_once(monkeypatch):
    """Four entries on one grid build the weight's two factor tables once, and a fresh grid builds them once more."""
    tables = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        # the grid's weights and roots are 1-D exponentials; the weight's factor tables are the only 2-D ones
        if np.ndim(x) == 2:
            tables.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    monkeypatch.setattr(ExpLinearWeight, "value", lambda self, z: pytest.fail("the weight was evaluated pointwise"))
    sym = WcoSymbol(ExpLinearWeight(0.8, -0.3 + 0.2j), AffineMap(0.4j, 0.3))
    fockcalc.quadrature._symbol_values.cache_clear()
    grid = default_grid(P12)
    for n, m in ENTRY_INDICES:
        quad_matrix_entry(sym, n, m, grid, P12)
    assert tables == [(16, grid.angular_count), (16, grid.angular_count)]
    # every entry reads the same weight table and ladder levels, so none may write to them
    weights, _, ladder, _ = fockcalc.quadrature._symbol_values(sym.weight, sym.map, grid, P12.order)
    assert len(ladder) == max(n for n, _ in ENTRY_INDICES).bit_length()
    assert not any(v.flags.writeable for v in (weights, *ladder))
    quad_matrix_entry(sym, 0, 0, default_grid(P12), P12)
    assert len(tables) == 4


WEIGHT_ALPHAS = (0.05, 0.5, 1.0, 2.0, 8.0, 20.0)
WEIGHT_ORDERS = (1, 16, 32, 64, 200)


@pytest.mark.parametrize("alpha", WEIGHT_ALPHAS)
def test_weight_table_is_the_weight_at_every_node_within_its_rounding_bound(alpha):
    # The table's entry at node r and root z is c e^{w centre z} e^{w offset z}; the reference is
    # ExpLinearWeight.value(r z) = c e^{w (r z)}, both from the same computed root z (|z| <= 1 + u).
    # Relative difference, first order in u = 2^-53, with R the cutoff radius:
    # - exponent arguments: fl(r z) then w * that rounds within (1 + sqrt(5)) u |w| R on the
    #   reference side, fl(w z) then centre * and offset * that within (1 + sqrt(5)) u |w| R together
    #   (centre + |offset| <= R); the exact centre + offset is within 3 u R of r (eps R checked by
    #   QuadratureGrid, u R for the sum's rounding).  So the arguments differ by (5 + 2 sqrt(5)) u |w| R,
    #   and e^d - 1 is d to first order;
    # - three complex exponentials, each e^x cos y and e^x sin y from libm's exp and cos or sin, each
    #   within 1 ulp (2u), and one rounded product: 5u per component, so 5u in modulus, 15u in all;
    # - three complex products, c e on one side, (c E) F on the other: sqrt(5) u each (Brent, Percival,
    #   Zimmermann, Math. Comp. 76, 2007).
    # Every first-order term is below 3e-13 (|w| R <= 2 * 118.4), so their products are below 1e-24:
    # the factor 1 + 1e-6 covers them.
    rng = np.random.default_rng(31)
    for order in WEIGHT_ORDERS:
        grid = default_grid(FockParams(alpha, order))
        pts = grid.radial_nodes[:, 0][:, None] * grid.roots()[None, :]
        # |w| = 2 on both real axes (the largest moduli) and at two seeded angles, and one seeded |w| < 2
        ws = [2.0, -2.0, *(2.0 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2)))]
        ws.append(2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        for w in ws:
            weight = ExpLinearWeight(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)), w)
            table = fockcalc.quadrature._symbol_values(weight, AffineMap(1.0, 0.0), grid, order)[0]
            reference = weight.value(pts)
            bound = ((5 + 2 * math.sqrt(5)) * abs(weight.w) * grid.cutoff + 15 + 3 * math.sqrt(5)) * U * (1 + 1e-6)
            assert table.shape == reference.shape
            assert (np.abs(table - reference) <= bound * np.abs(reference)).all(), (alpha, order, w)


@pytest.mark.parametrize("alpha", WEIGHT_ALPHAS)
def test_map_table_is_the_scaled_map_at_every_node_within_its_rounding_bound(alpha):
    # The table's entry at node r and root z is B = (a' r) z + b', with a' = a 2^-e and b' = b 2^-e exact;
    # the reference is AffineMap(a, b)(r z) = a (r z) + b, from the same computed root z.  Absolute
    # difference after scaling back by 2^e, first order in u, with R the cutoff and M = |a| R + |b|:
    # on each side a real-times-complex product within u |a| r, a complex product within sqrt(5) u |a| r
    # (Brent, Percival, Zimmermann), and the sum within u |map| <= u M.  So ((2 + 2 sqrt(5)) |a| R + 2 M) u,
    # times 1 + 1e-6 for second-order terms.
    rng = np.random.default_rng(37)
    for order in WEIGHT_ORDERS:
        grid = default_grid(FockParams(alpha, order))
        pts = grid.radial_nodes[:, 0][:, None] * grid.roots()[None, :]
        # on both real axes, at a seeded angle, a constant map, a map through 0, and one far from the unit disk
        maps = [AffineMap(0.9, 0.5), AffineMap(-0.9, -0.5j), AffineMap(*(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))))]
        maps += [AffineMap(0.0, 0.3 - 0.4j), AffineMap(0.5j, 0.0), AffineMap(-1e3 + 2e3j, 1e5)]
        for map_ in maps:
            _, exponent, (base,), _ = fockcalc.quadrature._symbol_values(ExpLinearWeight(1.0, 0.0), map_, grid, order)
            bound_m = abs(map_.a) * grid.cutoff + abs(map_.b)
            assert 2.0 ** (exponent - 1) <= bound_m < 2.0**exponent
            assert (np.abs(base) <= 1 + 16 * U).all()
            bound = ((2 + 2 * math.sqrt(5)) * abs(map_.a) * grid.cutoff + 2 * bound_m) * U * (1 + 1e-6)
            assert (np.abs(base * 2.0**exponent - map_(pts)) <= bound).all(), (alpha, order, map_)


def test_entries_reuse_one_workspace_and_allocate_no_full_grid_table():
    """Pairs take turns in one workspace without changing an entry's bits.  A pair that fits the workspace is built
    in it, and entries after the pair's first put the ladder's levels and the image into tables the pair holds:
    neither allocates a full-grid table."""
    s1 = WcoSymbol(ExpLinearWeight(0.8, -0.3 + 0.2j), AffineMap(0.4j, 0.3))
    s2 = WcoSymbol(ExpLinearWeight(1.1, 0.2), AffineMap(-0.5, 0.1j))
    p32, p16 = FockParams(1.0, 32), FockParams(1.0, 16)
    g32, g16 = default_grid(p32), default_grid(p16)
    indices = ((3, 3), (32, 32), (5, 17), (31, 2), (0, 0))
    first = [quad_matrix_entry(s1, n, m, g32, p32) for n, m in indices]
    for n, m in ((16, 3), (7, 7)):
        quad_matrix_entry(s2, n, m, g16, p16)
    assert _bits(quad_matrix_entry(s1, n, m, g32, p32) for n, m in indices) == _bits(first)
    # e^{w r} overflows only in the product of its finite factor tables, after the fill has begun
    # to overwrite s1's tables: no pair may stay cached on them
    overflowing = WcoSymbol(ExpLinearWeight(1.0, 720.0 / g32.cutoff), s1.map)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        quad_matrix_entry(overflowing, 1, 1, g32, p32)
    # the workspace already fits s1's tables, so the pair is built in it; numpy's iterator buffers (8192 values
    # an operand) are the largest allocation of that first entry
    tracemalloc.start()
    try:
        again = [quad_matrix_entry(s1, *indices[0], g32, p32)]
        held, fill = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        again += [quad_matrix_entry(s1, n, m, g32, p32) for n, m in indices[1:]]
        entries = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert _bits(again) == _bits(first)
    table = g32.radial_nodes.shape[0] * g32.angular_count * 16
    assert fill < table and entries < table


def test_grids_compare_by_identity():
    grid = default_grid(P12)
    assert hash(grid) == hash(grid)
    assert grid == grid
    # equal nodes make another grid, not the same one
    assert grid != default_grid(P12)


def test_matrix_entry_requires_affine():
    mobius = LinearFractionalMap(1.0, 0.0, 1.0, 1.0)
    sym = WcoSymbol(ExpLinearWeight(1.0, 0.0), mobius)
    with pytest.raises(UnsupportedMapError):
        quad_matrix_entry(sym, 0, 0, default_grid(P16), P16)


def test_matrix_entry_refuses_a_grid_built_for_another_alpha():
    # the point weights carry the grid's measure and the radial scale the params': entry (2, 2) of the identity read 0.25
    identity = WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(1.0, 0.0))
    with pytest.raises(ValueError, match=r"^grid built for alpha 2\.0, but the params have alpha 1\.0$"):
        quad_matrix_entry(identity, 2, 2, default_grid(FockParams(2.0, 16)), P16)
