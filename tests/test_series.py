"""Series algebra: exactness at truncation and the weighted inner product."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import (
    FockParams,
    ParamsMismatchError,
    TruncatedSeries,
    compose_affine,
    exp_linear,
    inner_product,
    kernel_series,
)
from fockcalc.series import _row_gram, exp_linear_coeffs, kernel_coeffs

P8 = FockParams(1.0, 8)
P16 = FockParams(1.0, 16)
P32 = FockParams(1.0, 32)


def poly(coeffs, params=P8):
    """The series with the leading coefficients given and zeros above them."""
    padded = np.zeros(params.order + 1, dtype=np.complex128)
    padded[: len(coeffs)] = coeffs
    return TruncatedSeries(padded, params)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_mul_binomial():
    prod = poly([1, 1]) * poly([1, -1])
    assert np.allclose(prod.coeffs[:3], [1, 0, -1], atol=1e-15)


def test_mul_identity():
    p = poly([2, 0.5j, -1])
    one = poly([1])
    assert np.array_equal((p * one).coeffs, p.coeffs)


def test_mul_exponentials_against_factorials():
    # independent oracle: coefficients of e^z are 1/k! by direct factorial
    half = exp_linear(0.5, 1.0, P16)
    prod = half * half
    expected = np.array([1.0 / math.factorial(k) for k in range(17)])
    assert np.max(np.abs(prod.coeffs - expected)) <= 1e-12


def test_params_mismatch_rejected():
    with pytest.raises(ParamsMismatchError):
        poly([1], P8) * poly([1], P16)
    with pytest.raises(ParamsMismatchError):
        poly([1], P8) * poly([1], FockParams(2.0, 8))
    with pytest.raises(ParamsMismatchError):
        inner_product(poly([1], P8), poly([1], P16))


# nan, inf and -inf in the real part only, in the imaginary part only and in both
NON_FINITE = [complex(re, im) for v in (math.nan, math.inf, -math.inf) for re, im in ((v, 0.0), (0.0, v), (v, v))]


def test_non_finite_coefficients_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(np.array([np.inf] + [0] * 8), P8)
    with pytest.raises(ValueError):
        TruncatedSeries(np.array([np.nan * 1j] + [0] * 8), P8)
    for value in NON_FINITE:
        with pytest.raises(ValueError, match=r"^series coefficients must be finite$"):
            TruncatedSeries(np.array([0.5] * 3 + [value] + [0.0] * 5), P8)


# ---------------------------------------------------------------------------
# exp_linear
# ---------------------------------------------------------------------------


def test_exp_linear_zero_exponent_is_constant():
    s = exp_linear(0.0, 2.5, P8)
    assert s.coeffs[0] == 2.5 and np.max(np.abs(s.coeffs[1:])) == 0.0


def test_exp_linear_half():
    s = exp_linear(0.5, 1.0, FockParams(1.0, 3))
    assert np.allclose(s.coeffs, [1.0, 0.5, 0.125, 1.0 / 48.0], rtol=0, atol=1e-16)


def test_exp_linear_additivity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        w, v = (complex(*rng.uniform(-1, 1, 2)) for _ in range(2))
        lhs = exp_linear(w, 1.0, P16) * exp_linear(v, 1.0, P16)
        rhs = exp_linear(w + v, 1.0, P16)
        assert lhs.max_abs_diff(rhs) <= 1e-12


def test_exp_linear_block_columns_are_the_single_series():
    ws = np.array([0.0, 0.5, -0.7j, 1.3 - 0.4j, 6.0])
    block = exp_linear_coeffs(ws, 0.8 - 0.3j, 32)
    assert block.shape == (33, 5)
    for j, w in enumerate(ws):
        assert np.array_equal(block[:, j], exp_linear(w, 0.8 - 0.3j, P32).coeffs)
        closed = [(0.8 - 0.3j) * complex(w) ** k / math.factorial(k) for k in range(33)]
        assert np.allclose(block[:, j], closed, rtol=1e-14, atol=0)


def _division_form(w, scale, order):
    """exp_linear_coeffs with each step w / k taken by numpy's complex division by k + 0j."""
    w = np.asarray(w, dtype=np.complex128)
    steps = w / np.arange(1, order + 1).reshape((order,) + (1,) * w.ndim)
    return np.cumprod(np.concatenate((np.full((1,) + w.shape, scale, dtype=np.complex128), steps)), axis=0)


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("order", [1, 2, 32, 170])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_exp_linear_coeffs_bit_equal_to_the_division_form(order):
    """Multiplying by the reciprocals of k gives numpy's quotients by k bit for bit, zero signs included."""
    rng = np.random.default_rng(order)
    ws = 10.0 ** rng.uniform(-300, 300, 300) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 300))
    # parts of either sign, and zero parts of either sign
    parts = (0.0, -0.0, 1.5, -2.5e-300, 3e300)
    ws = np.concatenate((ws, [complex(re, im) for re in parts for im in parts], [complex(-re, -im) for re in parts for im in parts]))
    block = exp_linear_coeffs(ws, 0.8 - 0.3j, order)
    assert np.array_equal(_bits(block), _bits(_division_form(ws, 0.8 - 0.3j, order)))
    for w in np.concatenate((ws[:300:7], ws[300:])).tolist():
        assert np.array_equal(_bits(exp_linear_coeffs(w, 1.0, order)), _bits(_division_form(w, 1.0, order))), w
    for alpha in (0.05, 1.0, 8.0):
        params = FockParams(alpha, order)
        points = ws / alpha
        assert np.array_equal(_bits(kernel_coeffs(points, params)), _bits(_division_form(alpha * np.conj(points), 1.0, order)))
        point = complex(points[5])
        assert np.array_equal(_bits(kernel_coeffs(point, params)), _bits(_division_form(alpha * np.conj(point), 1.0, order)))


def test_params_accept_large_orders_and_reject_zero():
    assert FockParams(1.0, 512).order == 512
    with pytest.raises(ValueError):
        FockParams(1.0, 0)


# ---------------------------------------------------------------------------
# composition with affine maps
# ---------------------------------------------------------------------------


def test_compose_identity_map():
    p = poly([1, 2, 3, 4j])
    assert np.array_equal(compose_affine(p, 1.0, 0.0).coeffs, p.coeffs)


def test_compose_square_binomial():
    sq = compose_affine(poly([0, 0, 1]), 2.0, 1.0)
    assert np.allclose(sq.coeffs[:3], [1, 4, 4], atol=1e-15)


def test_compose_exponential_closed_form():
    lhs = compose_affine(exp_linear(1.0, 1.0, P16), 0.25, 0.5)
    rhs = exp_linear(0.25, math.exp(0.5), P16)
    assert lhs.max_abs_diff(rhs) <= 1e-12


def test_compose_is_multiplicative_on_low_degrees():
    # p(az+b) q(az+b) == (pq)(az+b) exactly when deg p + deg q fits the order
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = poly(rng.normal(size=4) + 1j * rng.normal(size=4), P16)
        q = poly(rng.normal(size=5) + 1j * rng.normal(size=5), P16)
        a, b = complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))
        lhs = compose_affine(p, a, b) * compose_affine(q, a, b)
        rhs = compose_affine(p * q, a, b)
        assert lhs.max_abs_diff(rhs) <= 1e-12 * max(1.0, float(np.max(np.abs(rhs.coeffs))))


@pytest.mark.parametrize("a,b", [(0.3 - 0.8j, 0.6 + 0.25j), (1.5, -0.5), (0.0, 0.7 - 0.2j)])
def test_compose_matrix_columns_are_binomial_expansions(a, b):
    n_max = 32
    expected = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    for n in range(n_max + 1):
        for m in range(n + 1):
            expected[m, n] = math.comb(n, m) * a**m * b ** (n - m)
    # column n is the composition of the unit series z^n
    columns = [compose_affine(poly([0] * n + [1], P32), a, b).coeffs for n in range(n_max + 1)]
    np.testing.assert_allclose(np.column_stack(columns), expected, rtol=1e-13, atol=0)


def test_compose_zero_offset_scales_coefficient_k_by_slope_power():
    # the rotation K_beta(conj(a) z) used by the adjoint factorization
    p = exp_linear(0.4 + 0.3j, 1.0 - 2.0j, P32)
    k = np.arange(P32.order + 1)
    # a power-of-two slope keeps every product exact
    assert np.array_equal(compose_affine(p, 0.5j, 0.0).coeffs, p.coeffs * (0.5j) ** k)
    a = 0.6 * np.exp(0.7j)
    np.testing.assert_allclose(compose_affine(p, a, 0.0).coeffs, p.coeffs * a**k, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# inner product and kernels
# ---------------------------------------------------------------------------


def test_monomial_orthogonality():
    z1, z2, z3 = poly([0, 1]), poly([0, 0, 1]), poly([0, 0, 0, 1])
    assert inner_product(z1, z1) == 1.0
    assert inner_product(z2, z3) == 0.0


def test_inner_product_exponentials():
    f = exp_linear(0.5, 1.0, P32)
    g = exp_linear(1.0 / 3.0, 1.0, P32)
    assert abs(inner_product(f, g) - math.exp(1.0 / 6.0)) <= 1e-12


def test_gram_holds_every_pairwise_inner_product():
    rng = np.random.default_rng(11)
    series = [poly(rng.normal(size=9) + 1j * rng.normal(size=9)) for _ in range(4)] + [exp_linear(0.5, 1.0, P8)]
    g = _row_gram(P8.monomial_norms(), np.stack([s.coeffs for s in series]))
    assert np.array_equal(g, g.conj().T)
    for i, f in enumerate(series):
        for j, h in enumerate(series):
            expected = np.sum(f.coeffs * P8.monomial_norms() ** 2 * np.conj(h.coeffs))
            assert abs(g[i, j] - expected) <= 1e-14 * math.sqrt(abs(g[i, i] * g[j, j]))
            assert inner_product(f, h) == complex(_row_gram(P8.monomial_norms(), np.stack([f.coeffs, h.coeffs]))[0, 1])


def test_stacked_gram_is_each_entrys_own_gram():
    # norms (M, N+1) and rows (M, S, N+1): entry s of the stacked product is the Gram of its own call, bit for bit
    rng = np.random.default_rng(12)
    norms = np.stack([FockParams(alpha, 8).monomial_norms() for alpha in (0.5, 1.0, 2.0)])
    rows = rng.normal(size=(3, 4, 9)) + 1j * rng.normal(size=(3, 4, 9))
    stacked = _row_gram(norms, rows)
    assert stacked.shape == (3, 4, 4)
    for s in range(3):
        assert np.array_equal(stacked[s], _row_gram(norms[s], rows[s]))


def test_gram_rejects_mixed_params_and_overflow():
    with pytest.raises(ParamsMismatchError, match=r"^series params differ: FockParams\(alpha=1.0, order=8\) vs FockParams\(alpha=1.0, order=16\)$"):
        inner_product(poly([1.0], P8), poly([1.0], P16))
    with pytest.raises(OverflowError):
        _row_gram(P8.monomial_norms(), np.stack([poly([1e200]).coeffs, poly([1.0]).coeffs]))
    with pytest.raises(OverflowError):
        inner_product(poly([1e200]), poly([1.0]))
    # the Gram check of rows that no series would hold
    for value in NON_FINITE:
        with pytest.raises(OverflowError, match=r"^inner product overflowed$"):
            _row_gram(P8.monomial_norms(), np.array([[0.5, value] + [0.0] * 7, [1.0] + [0.0] * 8]))


def test_kernel_at_origin_is_one():
    k = kernel_series(0.0, P8)
    assert k.coeffs[0] == 1.0 and np.max(np.abs(k.coeffs[1:])) == 0.0


def test_kernel_reproduces_monomials():
    z3 = poly([0, 0, 0, 1], P16)
    for w in (0.4, -0.7j, 0.5 + 0.5j, 1.0):
        assert abs(inner_product(z3, kernel_series(w, P16)) - w**3) <= 1e-13


def test_kernel_reproduces_truncated_exponential():
    f = exp_linear(0.5, 1.0, P32)
    assert abs(inner_product(f, kernel_series(0.4, P32)) - math.exp(0.2)) <= 1e-12


def test_reproducing_property_random_polynomials():
    rng = np.random.default_rng(5)
    for _ in range(25):
        deg = int(rng.integers(0, 17))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = poly(coeffs, P16)
        w = complex(*rng.uniform(-0.7, 0.7, 2))
        bound = 1e-11 * (1.0 + math.sqrt(np.sum(np.abs(p.coeffs * P16.monomial_norms()) ** 2)))
        assert abs(inner_product(p, kernel_series(w, P16)) - p(w)) <= bound


@pytest.mark.parametrize("alpha", [0.05, 1.0, 20.0])
def test_monomial_norms_against_lgamma(alpha):
    # up to an order just inside the range where ||z^N|| = sqrt(N! / alpha^N) is a double
    order = max(n for n in range(1, 600) if math.lgamma(n + 1) - n * math.log(alpha) < 2 * 709.0)
    k = np.arange(order + 1)
    expected = np.exp(0.5 * (np.array([math.lgamma(j + 1) for j in k]) - k * math.log(alpha)))
    norms = FockParams(alpha, order).monomial_norms()
    assert np.max(np.abs(norms / expected - 1.0)) <= 1e-12


def test_orthonormal_basis_element_raises_past_representable_range():
    # ||z^400|| = sqrt(400!) is about 8e434 at alpha 1
    params = FockParams(1.0, 400)
    with pytest.raises(OverflowError):
        params.monomial_norms()
    with pytest.raises(OverflowError):
        inner_product(poly([0], params), poly([0], params))
    # 300 is the last order at alpha 1 where every norm is a double: e_300 = z^300 / ||z^300||
    params = FockParams(1.0, 300)
    e = poly([0] * 300 + [1 / params.monomial_norms()[300]], params)
    assert abs(e.coeffs[300] * math.exp(0.5 * math.lgamma(301)) - 1.0) <= 1e-12
    assert abs(inner_product(e, e) - 1.0) <= 1e-14


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_orthonormality_all_pairs(alpha):
    params = FockParams(alpha, 16)
    norms = params.monomial_norms()
    basis = [poly([0] * n + [1 / norms[n]], params) for n in range(17)]
    gram = np.array([[inner_product(a, b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(17))) <= 1e-12


# ---------------------------------------------------------------------------
# sesquilinearity, property-based
# ---------------------------------------------------------------------------

finite_complex = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=9)


@settings(max_examples=50, deadline=None)
@given(coeff_lists, coeff_lists)
def test_conjugate_symmetry(fc, gc):
    f, g = poly(fc), poly(gc)
    lhs = inner_product(f, g)
    rhs = inner_product(g, f).conjugate()
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


@settings(max_examples=50, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists, finite_complex)
def test_sesquilinearity(fc, gc, hc, lam):
    f, g, h = poly(fc), poly(gc), poly(hc)
    left = inner_product(poly(lam * f.coeffs + g.coeffs), h)
    right = lam * inner_product(f, h) + inner_product(g, h)
    assert abs(left - right) <= 1e-8 * (1.0 + abs(left))
    anti = inner_product(f, lam * g)
    assert abs(anti - lam.conjugate() * inner_product(f, g)) <= 1e-8 * (1.0 + abs(anti))


def test_evaluation_matches_coefficients():
    p = poly([1, 2, 3])
    assert p(0.0) == 1.0
    assert abs(p(0.5) - (1 + 2 * 0.5 + 3 * 0.25)) <= 1e-15
