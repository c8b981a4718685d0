"""Symbols, finite sections, adjoints, products, boundedness."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from fockcalc import (
    AffineMap,
    Boundedness,
    DegenerateMapError,
    ExpLinearWeight,
    FockParams,
    LinearFractionalMap,
    OperatorMatrix,
    ParamsMismatchError,
    PoleProximityError,
    SeriesWeight,
    TruncatedSeries,
    UnsupportedMapError,
    WcoSymbol,
    adjoint_matrix,
    adjoint_on_kernel,
    apply_wco,
    assemble_matrix,
    boundedness_check,
    commutator_residual,
    commutant_symbols,
    eval_wco_at,
    exp_linear,
    hermitian_residual,
    kernel_series,
    monomial_to_orthonormal,
    orthonormal_basis_element,
    orthonormal_to_monomial,
    product_symbol,
    selfadjoint_symbol,
)

P8 = FockParams(1.0, 8)
P32 = FockParams(1.0, 32)

CANONICAL = selfadjoint_symbol(1.0, 0.5, 0.25)


# ---------------------------------------------------------------------------
# maps and weights
# ---------------------------------------------------------------------------


def test_affine_compose_order():
    outer = AffineMap(2.0, 1.0)
    inner = AffineMap(0.5, -1.0)
    comp = outer.compose(inner)
    for z in (0.0, 1.0, 1j):
        assert comp(z) == outer(inner(z))


def test_linear_fractional_degenerate_rejected():
    with pytest.raises(DegenerateMapError):
        LinearFractionalMap(1.0, 2.0, 2.0, 4.0)


def test_linear_fractional_pole_guard():
    mp = LinearFractionalMap(1.0, 0.0, 1.0, -0.5)  # pole at 0.5
    assert abs(mp(0.25) - 0.25 / (0.25 - 0.5)) < 1e-15
    with pytest.raises(PoleProximityError):
        mp(0.5 + 1e-8)


def test_zero_weight_rejected():
    with pytest.raises(ValueError):
        ExpLinearWeight(0.0, 1.0)


def test_series_weight_params_pinned():
    w = SeriesWeight(exp_linear(0.5, 1.0, P8))
    with pytest.raises(ParamsMismatchError):
        w.materialize(P32)


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------


def test_apply_identity_symbol():
    f = TruncatedSeries.from_coeffs([1, 2, 3j], P8)
    out = apply_wco(WcoSymbol.identity(), f)
    assert np.max(np.abs(out.coeffs - f.coeffs)) == 0.0


def test_apply_canonical_to_linear():
    f = TruncatedSeries.monomial(1, P8)
    out = apply_wco(CANONICAL, f)
    # e^{z/2} (1/2 + z/4): coefficient of z^0 is 1/2, of z^1 is 1/2*1/2 + 1/4
    assert abs(out.coeffs[0] - 0.5) <= 1e-15
    assert abs(out.coeffs[1] - 0.5) <= 1e-15


def test_apply_to_kernel_matches_closed_form():
    # the image of a kernel is weight(z) * e^{alpha * map(z) * conj(beta)}
    beta = 0.3 - 0.4j
    out = apply_wco(CANONICAL, kernel_series(beta, P32))
    expected = exp_linear(0.5, 1.0, P32) * exp_linear(
        0.25 * beta.conjugate(), np.exp(0.5 * beta.conjugate()), P32
    )
    assert out.max_abs_diff(expected) <= 1e-13


def test_apply_requires_affine():
    mobius = LinearFractionalMap(1.0, 0.0, 1.0, 1.0)
    sym = WcoSymbol(ExpLinearWeight(1.0, 0.0), mobius)
    with pytest.raises(UnsupportedMapError):
        apply_wco(sym, TruncatedSeries.monomial(1, P8))


def test_eval_identity_symbol():
    f = TruncatedSeries.from_coeffs([1, 2, 3], P8)
    for z in (0.2, -0.5j):
        assert abs(eval_wco_at(WcoSymbol.identity(), f, z) - f(z)) <= 1e-15


def test_eval_commutant_symbol_at_origin():
    # with multiplier 2 at fixed point 2/3 the map sends 0 to -6, and the
    # displacement weight evaluates so that the image of e^{z/2} at 0 is e
    psi, g, _ = commutant_symbols(2.0, 2.0 / 3.0)
    assert abs(complex(psi(0.0)) - (-6.0)) <= 1e-12
    f = exp_linear(0.5, 1.0, FockParams(1.0, 60))
    val = eval_wco_at(WcoSymbol(g, psi), f, 0.0)
    assert abs(val - math.e) <= 1e-9


def test_eval_degenerate_multiplier_keeps_identity_map():
    psi, g, _ = commutant_symbols(1.0, 2.0 / 3.0)
    f = TruncatedSeries.from_coeffs([1, 1], P8)
    z = 0.3
    assert abs(eval_wco_at(WcoSymbol(g, psi), f, z) - f(z)) <= 1e-15


# ---------------------------------------------------------------------------
# finite sections
# ---------------------------------------------------------------------------


def test_identity_matrix_exact():
    mat = assemble_matrix(WcoSymbol.identity(), P8)
    assert np.array_equal(mat.entries, np.eye(9))


def test_canonical_entries_hermitian_pair():
    mat = assemble_matrix(CANONICAL, P32)
    assert abs(mat.entries[1, 0] - 0.5) <= 1e-15
    assert abs(mat.entries[0, 1] - 0.5) <= 1e-15
    assert hermitian_residual(mat) <= 1e-12


def test_pure_dilation_is_diagonal():
    mat = assemble_matrix(WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.0)), P8)
    assert np.allclose(mat.entries, np.diag(0.5 ** np.arange(9)), atol=1e-16)


def _entry_oracle(c, w, a, b, alpha, m, n):
    """Independent binomial-sum evaluation of <W e_n, e_m> for c e^{wz}, az+b."""
    total = 0.0 + 0.0j
    for j in range(0, min(n, m) + 1):
        total += math.comb(n, j) * a**j * b ** (n - j) * w ** (m - j) / math.factorial(m - j)
    return c * total * math.sqrt(math.factorial(m) / alpha**m * alpha**n / math.factorial(n))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_entry_exactness_against_binomial_sum(alpha):
    rng = np.random.default_rng(3)
    params = FockParams(alpha, 20)
    for _ in range(5):
        c = complex(*rng.uniform(-1, 1, 2))
        if abs(c) < 0.1:
            c = 1.0
        w = complex(*rng.uniform(-0.8, 0.8, 2))
        a = complex(*rng.uniform(-0.6, 0.6, 2))
        b = complex(*rng.uniform(-0.6, 0.6, 2))
        mat = assemble_matrix(WcoSymbol(ExpLinearWeight(c, w), AffineMap(a, b)), params)
        for m, n in ((0, 0), (1, 0), (0, 1), (5, 3), (12, 12), (20, 7), (4, 19)):
            ref = _entry_oracle(c, w, a, b, alpha, m, n)
            assert abs(mat.entries[m, n] - ref) <= 1e-12 * max(1.0, abs(ref))


def _exact_entry(c, w, a, b, alpha, m, n):
    """<W e_n, e_m> for real c e^{wz}, az+b: the binomial sum in rationals, the norm ratio in 60 digits."""
    c, w, a, b, alpha = (Fraction(x) for x in (c, w, a, b, alpha))
    total = sum(
        math.comb(n, j) * a**j * b ** (n - j) * w ** (m - j) / math.factorial(m - j) for j in range(min(n, m) + 1)
    )
    ratio = Fraction(math.factorial(m), math.factorial(n)) * alpha ** (n - m)
    with localcontext() as ctx:
        ctx.prec = 60
        norm_ratio = (Decimal(ratio.numerator) / Decimal(ratio.denominator)).sqrt()
        return float(Decimal((c * total).numerator) / Decimal((c * total).denominator) * norm_ratio)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 20.0])
def test_entries_exact_beyond_float_factorials(alpha):
    # indices past 170, where m! and ||z^m|| overflow float64
    params = FockParams(alpha, 512)
    mat = assemble_matrix(WcoSymbol(ExpLinearWeight(0.75, 0.375), AffineMap(0.5, 0.25)), params)
    for m, n in ((0, 0), (5, 60), (171, 172), (180, 170), (300, 200), (200, 300), (400, 400), (512, 500)):
        ref = _exact_entry(0.75, 0.375, 0.5, 0.25, alpha, m, n)
        assert abs(mat.entries[m, n] - ref) <= 1e-12 * abs(ref)


def test_leading_block_does_not_depend_on_the_order():
    # truncation exactness: no entry depends on degrees beyond its own
    sym = WcoSymbol(ExpLinearWeight(0.8 - 0.3j, 0.3 + 0.2j), AffineMap(0.5 - 0.6j, 0.3 + 0.25j))
    small = assemble_matrix(sym, FockParams(0.5, 64))
    large = assemble_matrix(sym, FockParams(0.5, 512))
    assert np.array_equal(large.entries[:65, :65], small.entries)


@pytest.mark.parametrize("alpha", [0.05, 1.0, 20.0])
def test_selfadjoint_section_hermitian_at_order_512(alpha):
    mat = assemble_matrix(selfadjoint_symbol(1.0, 0.5, 0.25, alpha), FockParams(alpha, 512))
    assert hermitian_residual(mat) <= 1e-12


def test_series_weight_section_matches_exponential_weight():
    params = FockParams(0.5, 64)
    mp = AffineMap(0.5 - 0.6j, 0.3 + 0.25j)
    closed = assemble_matrix(WcoSymbol(ExpLinearWeight(0.8 - 0.3j, 0.3 + 0.2j), mp), params)
    series = assemble_matrix(WcoSymbol(SeriesWeight(exp_linear(0.3 + 0.2j, 0.8 - 0.3j, params)), mp), params)
    assert np.max(np.abs(closed.entries - series.entries)) <= 1e-14


def test_columns_match_action_on_basis_elements():
    # the one-product section agrees with applying the symbol to each e_n
    params = FockParams(0.5, 64)
    sym = WcoSymbol(ExpLinearWeight(0.8 - 0.3j, 0.3 + 0.2j), AffineMap(0.5 - 0.6j, 0.3 + 0.25j))
    mat = assemble_matrix(sym, params)
    for n in range(params.order + 1):
        col = monomial_to_orthonormal(apply_wco(sym, orthonormal_basis_element(n, params)))
        assert np.max(np.abs(mat.entries[:, n] - col)) <= 1e-14


def test_entries_stay_hermitian_at_generic_alpha():
    # the weight exponent scales with alpha, so e.g. entry (0,1) is
    # sqrt(alpha) * a0 * c and matches its conjugate partner
    params = FockParams(2.0, 8)
    mat = assemble_matrix(selfadjoint_symbol(1.0, 0.5, 0.25, 2.0), params)
    assert abs(mat.entries[0, 1] - math.sqrt(2.0) * 0.5) <= 1e-14
    assert hermitian_residual(mat) <= 1e-13


def test_adjoint_involution_and_hermitian_fixed_point():
    mat = assemble_matrix(CANONICAL, P8)
    adj = adjoint_matrix(mat)
    assert np.max(np.abs(adj.entries - mat.entries)) <= 1e-15  # Hermitian
    assert np.array_equal(adjoint_matrix(adj).entries, adj.entries.conj().T)


def test_adjoint_of_real_diagonal():
    mat = assemble_matrix(WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.0)), P8)
    assert np.array_equal(adjoint_matrix(mat).entries, mat.entries)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_with_identity():
    prod = product_symbol(CANONICAL, WcoSymbol.identity())
    assert prod.map == CANONICAL.map
    assert prod.weight == CANONICAL.weight


def test_product_linear_maps_commute():
    s1 = WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(0.25, 0.0))
    s2 = WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(0.5j, 0.0))
    p12 = product_symbol(s1, s2)
    p21 = product_symbol(s2, s1)
    assert p12.map == p21.map == AffineMap(0.25 * 0.5j, 0.0)


def test_product_squared_closed_form():
    sq = product_symbol(CANONICAL, CANONICAL)
    assert abs(sq.map.a - 1.0 / 16.0) <= 1e-16
    assert abs(sq.map.b - 5.0 / 8.0) <= 1e-16
    assert abs(sq.weight.c - math.exp(0.25)) <= 1e-15
    assert abs(sq.weight.w - 5.0 / 8.0) <= 1e-16


def test_product_matrix_consistency():
    # finite section of the product symbol vs product of finite sections
    params = FockParams(1.0, 64)
    s1 = CANONICAL
    s2 = WcoSymbol(ExpLinearWeight(0.7, -0.3 + 0.1j), AffineMap(0.4j, -0.2))
    lhs = assemble_matrix(product_symbol(s1, s2), params).entries
    rhs = assemble_matrix(s1, params).entries @ assemble_matrix(s2, params).entries
    assert np.max(np.abs((lhs - rhs)[:32, :32])) <= 1e-9


def test_product_series_weight_path():
    w = SeriesWeight(exp_linear(0.5, 1.0, P32))
    s1 = WcoSymbol(w, AffineMap(0.25, 0.5))
    prod = product_symbol(s1, s1)
    assert isinstance(prod.weight, SeriesWeight)
    expected = exp_linear(5.0 / 8.0, math.exp(0.25), P32)
    assert prod.weight.series.max_abs_diff(expected) <= 1e-13


def test_product_rejects_mobius():
    mobius = LinearFractionalMap(1.0, 0.0, 1.0, 1.0)
    sym = WcoSymbol(ExpLinearWeight(1.0, 0.0), mobius)
    with pytest.raises(UnsupportedMapError):
        product_symbol(sym, WcoSymbol.identity())


def test_product_rejects_displacement_weight():
    psi, g, _ = commutant_symbols(2.0, 2.0 / 3.0)
    sym = WcoSymbol(g, AffineMap(0.5, 0.0))
    with pytest.raises(UnsupportedMapError):
        product_symbol(sym, WcoSymbol.identity())
    with pytest.raises(UnsupportedMapError):
        g.materialize(P32)


# ---------------------------------------------------------------------------
# adjoint on kernels
# ---------------------------------------------------------------------------


def test_adjoint_on_kernel_identity():
    z = 0.3 + 0.1j
    out = adjoint_on_kernel(WcoSymbol.identity(), z, P32)
    assert out.max_abs_diff(kernel_series(z, P32)) == 0.0


def test_adjoint_on_kernel_eigenrelation_at_fixed_point():
    b = 2.0 / 3.0
    out = adjoint_on_kernel(CANONICAL, b, P32)
    eig = complex(CANONICAL.weight.value(b)).conjugate()
    assert out.max_abs_diff(eig * kernel_series(b, P32)) <= 1e-15
    # the forward image agrees: the kernel at b is a joint eigenvector
    forward = apply_wco(CANONICAL, kernel_series(b, P32))
    assert forward.max_abs_diff(out) <= 1e-13


def test_adjoint_matrix_path_converges_to_closed_form():
    rng = np.random.default_rng(17)
    symbols = [WcoSymbol(ExpLinearWeight(1.0, 0.3 + 0.2j), AffineMap(0.4 - 0.2j, 0.3))]
    for _ in range(4):
        a = complex(rng.uniform(0.05, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        b = complex(*rng.uniform(-0.5, 0.5, 2))
        w = complex(*rng.uniform(-0.6, 0.6, 2))
        symbols.append(WcoSymbol(ExpLinearWeight(1.0, w), AffineMap(a, b)))
    for sym in symbols:
        for z in (0.5 + 0.5j, -0.9j):
            errs = []
            for order in (16, 32, 64):
                params = FockParams(1.0, order)
                closed = adjoint_on_kernel(sym, z, params)
                applied = orthonormal_to_monomial(
                    adjoint_matrix(assemble_matrix(sym, params)).apply(
                        monomial_to_orthonormal(kernel_series(z, params))
                    ),
                    params,
                )
                half = (order + 1) // 2
                errs.append(float(np.max(np.abs(applied.coeffs[:half] - closed.coeffs[:half]))))
            assert errs[-1] <= 1e-8
            # monotone decrease up to the floating-point noise floor
            for previous, current in zip(errs, errs[1:]):
                assert current <= max(previous, 5e-15)


# ---------------------------------------------------------------------------
# boundedness and residual measures
# ---------------------------------------------------------------------------


def test_boundedness_classification():
    assert boundedness_check(AffineMap(1.0, 0.0)) is Boundedness.BOUNDED_UNITARY
    assert boundedness_check(AffineMap(0.25, 0.5)) is Boundedness.BOUNDED_STRICT
    assert boundedness_check(AffineMap(1.0, 0.1)) is Boundedness.UNBOUNDED
    assert boundedness_check(AffineMap(1.2, 0.0)) is Boundedness.UNBOUNDED
    assert boundedness_check(AffineMap(np.exp(0.3j), 0.0)) is Boundedness.BOUNDED_UNITARY


def test_unit_slope_with_offset_blows_up_on_a_ray():
    # sanity oracle for the unbounded classification: the Gaussian-quotient
    # factor e^{|z+0.1|^2 - |z|^2} is unbounded along the positive reals
    r = np.linspace(0.0, 2000.0, 64)
    factor = np.exp((r + 0.1) ** 2 - r**2)
    assert factor[-1] > 1e100
    assert np.all(np.diff(factor) > 0)


def test_hermitian_residual_cases():
    ident = assemble_matrix(WcoSymbol.identity(), P8)
    assert hermitian_residual(ident) == 0.0
    for order in (16, 32):
        mat = assemble_matrix(CANONICAL, FockParams(1.0, order))
        assert hermitian_residual(mat) <= 1e-12
    skew = assemble_matrix(selfadjoint_symbol(1j, 0.5, 0.25), P32)
    assert hermitian_residual(skew) >= 0.1


def test_commutator_residual_cases():
    ident = assemble_matrix(WcoSymbol.identity(), P8)
    mat = assemble_matrix(CANONICAL, P8)
    assert commutator_residual(mat, ident, 4) == 0.0
    assert commutator_residual(mat, mat, 4) == 0.0
    d1 = assemble_matrix(WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.0)), P8)
    d2 = assemble_matrix(WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(0.3, 0.0)), P8)
    assert commutator_residual(d1, d2, 4) == 0.0
    with pytest.raises(ValueError):
        commutator_residual(d1, d2, 5)  # block beyond half the order
    with pytest.raises(ParamsMismatchError):
        commutator_residual(d1, assemble_matrix(WcoSymbol.identity(), P32), 4)


def test_matrix_csv_shape_and_roundtrip():
    mat = assemble_matrix(WcoSymbol.identity(), FockParams(1.0, 3))
    text = mat.to_csv()
    rows = text.strip().split("\n")
    assert len(rows) == 4
    parsed = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert parsed.shape == (4, 8)  # re,im pairs
    assert np.allclose(parsed[:, 0::2], np.eye(4))
    assert np.allclose(parsed[:, 1::2], 0.0)


def test_operator_matrix_validates_shape():
    with pytest.raises(ValueError):
        OperatorMatrix(np.eye(5), P8)
