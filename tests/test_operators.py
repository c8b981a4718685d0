"""Symbols, finite sections, adjoints, products, boundedness."""

import cmath
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
    SelfAdjointSymbolParams,
    TruncatedSeries,
    UnsupportedMapError,
    WcoSymbol,
    adjoint_matrix,
    adjoint_on_kernel,
    apply_wco,
    assemble_matrix,
    assemble_sections,
    boundedness_check,
    commutator_residual,
    commutant_symbols,
    exp_linear,
    hermitian_residual,
    kernel_series,
)
from fockcalc import operators
from fockcalc.operators import _CSV_BLOCK, _render_csv

P8 = FockParams(1.0, 8)
P32 = FockParams(1.0, 32)

CANONICAL = SelfAdjointSymbolParams(1.0, 0.5, 0.25).symbol()
IDENTITY = WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(1.0, 0.0))


def _series(coeffs, params):
    """The series with the leading coefficients given and zeros above them."""
    padded = np.zeros(params.order + 1, dtype=np.complex128)
    padded[: len(coeffs)] = coeffs
    return TruncatedSeries(padded, params)


# ---------------------------------------------------------------------------
# maps and weights
# ---------------------------------------------------------------------------


def test_affine_map_has_no_pole():
    assert AffineMap(0.5, 0.1).pole is None
    assert LinearFractionalMap(1.0, 0.0, 1.0, -0.5).pole == 0.5


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AffineMap(math.nan, 0.1), "non-finite a (nan+0j)"),
        (lambda: LinearFractionalMap(1.0, 0.0, complex(0.0, math.inf), 1.0), "non-finite r infj"),
        (lambda: ExpLinearWeight(1.0, math.inf), "non-finite w (inf+0j)"),
        (lambda: SelfAdjointSymbolParams(1.0, 0.5, math.nan), "non-finite a1 (nan+0j)"),
    ],
    ids=["affine", "linear-fractional", "weight", "family"],
)
def test_non_finite_field_named(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


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


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------


def test_apply_identity_symbol():
    f = _series([1, 2, 3j], P8)
    out = apply_wco(IDENTITY, f)
    assert np.max(np.abs(out.coeffs - f.coeffs)) == 0.0


def test_apply_canonical_to_linear():
    f = _series([0, 1], P8)
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
        apply_wco(sym, _series([0, 1], P8))


def test_eval_identity_symbol():
    f = _series([1, 2, 3], P8)
    for z in (0.2, -0.5j):
        sym = IDENTITY
        assert abs(sym.weight.value(z) * f(sym.map(z)) - f(z)) <= 1e-15


def test_eval_commutant_symbol_at_origin():
    # with multiplier 2 at fixed point 2/3 the map sends 0 to -6
    psi, _ = commutant_symbols(2.0, 2.0 / 3.0)
    assert abs(complex(psi(0.0)) - (-6.0)) <= 1e-12


def test_eval_degenerate_multiplier_keeps_identity_map():
    psi, _ = commutant_symbols(1.0, 2.0 / 3.0)
    f = _series([1, 1], P8)
    z = 0.3
    assert abs(f(psi(z)) - f(z)) <= 1e-15


# ---------------------------------------------------------------------------
# finite sections
# ---------------------------------------------------------------------------


def test_identity_matrix_exact():
    mat = assemble_matrix(IDENTITY, P8)
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
    mat = assemble_matrix(SelfAdjointSymbolParams(1.0, 0.5, 0.25, alpha).symbol(), FockParams(alpha, 512))
    assert hermitian_residual(mat) <= 1e-12


def test_columns_match_action_on_basis_elements():
    # the one-product section agrees with applying the symbol to each e_n
    params = FockParams(0.5, 64)
    sym = WcoSymbol(ExpLinearWeight(0.8 - 0.3j, 0.3 + 0.2j), AffineMap(0.5 - 0.6j, 0.3 + 0.25j))
    mat = assemble_matrix(sym, params)
    norms = params.monomial_norms()
    for n in range(params.order + 1):
        # e_n = z^n / ||z^n||, and the image's orthonormal coordinates are its raw coefficients times the norms
        col = apply_wco(sym, _series([0] * n + [1 / norms[n]], params)).coeffs * norms
        assert np.max(np.abs(mat.entries[:, n] - col)) <= 1e-14


def test_entries_stay_hermitian_at_generic_alpha():
    # the weight exponent scales with alpha, so e.g. entry (0,1) is
    # sqrt(alpha) * a0 * c and matches its conjugate partner
    params = FockParams(2.0, 8)
    mat = assemble_matrix(SelfAdjointSymbolParams(1.0, 0.5, 0.25, 2.0).symbol(), params)
    assert abs(mat.entries[0, 1] - math.sqrt(2.0) * 0.5) <= 1e-14
    assert hermitian_residual(mat) <= 1e-13


def _section_by_columns(sym, params):
    """One symbol's section by the column recurrence, one column at a time: the batch's reference."""
    k = np.arange(1, params.order + 1)
    shift = sym.map.a * np.sqrt(k / k[:, None])
    stay = sym.map.b * np.sqrt(params.alpha / k)
    columns = np.zeros((params.order + 1, params.order + 1), dtype=np.complex128)
    # at least three factors, sliced, as the batch forms it
    factors = sym.weight.w / np.sqrt(params.alpha * np.arange(1, max(params.order, 2) + 1))
    columns[0] = np.cumprod(np.concatenate(([sym.weight.c], factors)))[: params.order + 1]
    for n in range(1, params.order + 1):
        prev = columns[n - 1]
        columns[n] = stay[n - 1] * prev
        columns[n, 1:] += shift[n - 1] * prev[:-1]
    return columns.T


def _bits(entries):
    return np.ascontiguousarray(entries).view(np.uint64)


@pytest.mark.parametrize(
    ("order", "columns"),
    [pytest.param(n, None, id=str(n)) for n in (1, 16, 64)]
    + [pytest.param(n, c, id=f"{n}-columns{c}") for n, c in ((1, 1), (16, 9), (64, 33), (64, 65))],
)
@pytest.mark.parametrize("alpha", [0.05, 1.0, 8.0])
def test_batched_sections_bit_equal_per_symbol(alpha, order, columns):
    rng = np.random.default_rng(11)
    params = FockParams(alpha, order)

    def disk(radius):
        return complex(radius * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))

    symbols = [WcoSymbol(ExpLinearWeight(disk(1.5) + 0.1, disk(0.8)), AffineMap(disk(1.2), disk(1.0))) for _ in range(6)]
    symbols += [
        WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(-0.3j, 0.0)),
        WcoSymbol(ExpLinearWeight(0.8 - 0.3j, 0.3 + 0.2j), AffineMap(0.5 - 0.6j, 0.3 + 0.25j)),
    ]
    block = assemble_sections(symbols, params, columns=columns)
    width = order + 1 if columns is None else columns
    assert block.shape == (len(symbols), order + 1, width)
    for sym, section in zip(symbols, block):
        # bit patterns, so a sign of zero that moved would show too
        assert np.array_equal(_bits(section), _bits(_section_by_columns(sym, params)[:, :width]))
        assert np.array_equal(_bits(section), _bits(assemble_matrix(sym, params).entries[:, :width]))


@pytest.mark.parametrize("alpha", [0.05, 1.0, 8.0, 20.0])
def test_sections_are_leading_blocks_of_the_order_64_section(alpha):
    """The order-n section is bit for bit the leading block of a larger one, order 1 included.

    Checks over an order list read their smaller orders so.
    """
    rng = np.random.default_rng(16)

    def disk(radius):
        return complex(radius * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))

    symbols = [WcoSymbol(ExpLinearWeight(1.0 + disk(0.5), disk(1.0)), AffineMap(disk(0.9), disk(0.8))) for _ in range(24)]
    top = assemble_sections(symbols, FockParams(alpha, 64))
    for n in range(1, 65):
        assert np.array_equal(_bits(assemble_sections(symbols, FockParams(alpha, n))), _bits(top[:, : n + 1, : n + 1])), n


@pytest.mark.parametrize("sequence", [(170, 32, 64, 2, 1), (1, 2, 64, 32, 170)], ids=["170-first", "170-last"])
def test_mixed_batch_bit_equal_to_one_symbol_builds(sequence):
    """Three exponential weights in one batch, at orders taken in either call order.

    The root table of an order and width is built on first use and shared after, so it starts empty here.
    """
    operators._row_ratio_roots.cache_clear()
    for order in sequence:
        params = FockParams(2.0, order)
        symbols = [
            WcoSymbol(ExpLinearWeight(0.7 - 0.4j, 0.5 + 0.3j), AffineMap(0.6 - 0.2j, 0.3 + 0.1j)),
            WcoSymbol(ExpLinearWeight(0.8 - 0.3j, 0.3 + 0.2j), AffineMap(0.5 - 0.6j, 0.3 + 0.25j)),
            WcoSymbol(ExpLinearWeight(1.2, -0.9j), AffineMap(-0.4, 0.2j)),
        ]
        for columns in (None, order // 2 + 1):
            block = assemble_sections(symbols, params, columns=columns)
            for sym, section in zip(symbols, block):
                alone = assemble_sections([sym], params, columns=columns)[0]
                assert np.array_equal(_bits(section), _bits(alone)), (order, columns)
                assert np.array_equal(_bits(section), _bits(_section_by_columns(sym, params)[:, : section.shape[1]]))


def test_root_table_is_read_only():
    roots = operators._row_ratio_roots(8, 9)
    assert roots.shape == (8, 9)
    with pytest.raises(ValueError, match="read-only"):
        roots[0, 0] = 2.0


def test_sections_require_affine_maps():
    psi, _ = commutant_symbols(2.0, 2.0 / 3.0)
    with pytest.raises(UnsupportedMapError):
        assemble_sections([CANONICAL, WcoSymbol(ExpLinearWeight(1.0, 0.0), psi)], P8)


@pytest.mark.parametrize("columns", [0, 10])
def test_sections_reject_columns_outside_the_section(columns):
    with pytest.raises(ValueError, match="outside 1..9"):
        assemble_sections([CANONICAL], P8, columns=columns)


def test_adjoint_involution_and_hermitian_fixed_point():
    mat = assemble_matrix(CANONICAL, P8)
    adj = adjoint_matrix(mat)
    assert np.max(np.abs(adj.entries - mat.entries)) <= 1e-15  # Hermitian
    assert np.array_equal(adjoint_matrix(adj).entries, adj.entries.conj().T)


def test_adjoint_of_real_diagonal():
    mat = assemble_matrix(WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.0)), P8)
    assert np.array_equal(adjoint_matrix(mat).entries, mat.entries)


@pytest.mark.parametrize("alpha", [0.05, 1.0, 20.0])
def test_adjoint_is_one_read_only_array_bit_equal_to_the_conjugate_transpose(alpha):
    sym = WcoSymbol(ExpLinearWeight(0.8 - 0.3j, 0.35 + 0.2j), AffineMap(0.6 + 0.25j, -0.4 + 0.3j))
    mat = assemble_matrix(sym, FockParams(alpha, 32))
    # a leading-block view, as checks read smaller orders, and the whole section
    for entries in (mat.entries[:9, :9], mat.entries):
        adjoint = adjoint_matrix(OperatorMatrix._of(entries, FockParams(alpha, entries.shape[0] - 1)))
        assert adjoint.entries.flags.c_contiguous and not adjoint.entries.flags.writeable
        assert not np.shares_memory(adjoint.entries, mat.entries)
        assert np.array_equal(_bits(adjoint.entries), _bits(entries.conj().T))
        with pytest.raises(ValueError, match="read-only"):
            adjoint.entries[0, 0] = 0.0


def test_operator_matrix_copies_and_checks_what_it_is_given():
    """The public constructor keeps its own read-only copy, of a writable array and of a read-only view of one,
    and still checks the shape and finiteness of each."""
    writable, base = np.eye(9, dtype=np.complex128), np.eye(12, dtype=np.complex128)
    view = base[:9, :9]
    view.setflags(write=False)
    records = [OperatorMatrix(writable, P8), OperatorMatrix(view, P8)]
    writable[:] = 7.0
    base[:] = 7.0
    for mat in records:
        assert not mat.entries.flags.writeable
        assert np.array_equal(mat.entries, np.eye(9))
    with pytest.raises(ValueError, match="expected 9x9 entries"):
        OperatorMatrix(view[:8, :8], P8)
    base[2, 5] = math.nan
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        OperatorMatrix(view, P8)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def _exp_linear_product(s1: WcoSymbol, s2: WcoSymbol) -> WcoSymbol:
    """Symbol of s1 applied after s2, both with exponential weights, in closed form."""
    # c1 e^{w1 z} * c2 e^{w2 (a1 z + b1)} = (c1 c2 e^{w2 b1}) e^{(w1 + w2 a1) z}
    w1, w2, m1 = s1.weight, s2.weight, s1.map
    weight = ExpLinearWeight(w1.c * w2.c * cmath.exp(w2.w * m1.b), w1.w + w2.w * m1.a)
    return WcoSymbol(weight, AffineMap(s2.map.a * m1.a, s2.map.a * m1.b + s2.map.b))


def test_product_matrix_consistency():
    # finite section of the product symbol vs product of finite sections
    params = FockParams(1.0, 64)
    s1 = CANONICAL
    s2 = WcoSymbol(ExpLinearWeight(0.7, -0.3 + 0.1j), AffineMap(0.4j, -0.2))
    lhs = assemble_matrix(_exp_linear_product(s1, s2), params).entries
    rhs = assemble_matrix(s1, params).entries @ assemble_matrix(s2, params).entries
    assert np.max(np.abs((lhs - rhs)[:32, :32])) <= 1e-9


# ---------------------------------------------------------------------------
# adjoint on kernels
# ---------------------------------------------------------------------------


def test_adjoint_on_kernel_identity():
    z = 0.3 + 0.1j
    out = adjoint_on_kernel(IDENTITY, z, P32)
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
                adjoint = adjoint_matrix(assemble_matrix(sym, params))
                norms = params.monomial_norms()
                applied = (adjoint.entries @ (kernel_series(z, params).coeffs * norms)) / norms
                half = (order + 1) // 2
                errs.append(float(np.max(np.abs(applied[:half] - closed.coeffs[:half]))))
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
    ident = assemble_matrix(IDENTITY, P8)
    assert hermitian_residual(ident) == 0.0
    for order in (16, 32):
        mat = assemble_matrix(CANONICAL, FockParams(1.0, order))
        assert hermitian_residual(mat) <= 1e-12
    skew = assemble_matrix(SelfAdjointSymbolParams(1j, 0.5, 0.25).symbol(), P32)
    assert hermitian_residual(skew) >= 0.1


def test_commutator_residual_cases():
    ident = assemble_matrix(IDENTITY, P8)
    mat = assemble_matrix(CANONICAL, P8)
    assert commutator_residual(mat, ident, 4) == 0.0
    assert commutator_residual(mat, mat, 4) == 0.0
    d1 = assemble_matrix(WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.0)), P8)
    d2 = assemble_matrix(WcoSymbol(ExpLinearWeight(1.0, 0.0), AffineMap(0.3, 0.0)), P8)
    assert commutator_residual(d1, d2, 4) == 0.0
    with pytest.raises(ValueError):
        commutator_residual(d1, d2, 5)  # block beyond half the order
    with pytest.raises(ParamsMismatchError):
        commutator_residual(d1, assemble_matrix(IDENTITY, P32), 4)


def test_commutator_residual_is_the_leading_block_of_the_full_commutator():
    rng = np.random.default_rng(11)

    def disk(r):
        return complex(r * rng.uniform() * np.exp(2j * np.pi * rng.uniform()))

    for order, alpha in ((16, 0.5), (64, 1.0), (128, 2.0)):
        params = FockParams(alpha, order)
        m1, m2 = (
            assemble_matrix(WcoSymbol(ExpLinearWeight(1.0 + disk(0.5), disk(0.5)), AffineMap(disk(0.9), disk(0.5))), params)
            for _ in range(2)
        )
        full = m1.entries @ m2.entries - m2.entries @ m1.entries
        for block in (1, order // 4, order // 2):
            expected = float(np.linalg.norm(full[:block, :block]))
            assert abs(commutator_residual(m1, m2, block) - expected) <= 1e-14 * max(expected, 1.0)


def test_matrix_csv_shape_and_roundtrip():
    mat = assemble_matrix(IDENTITY, FockParams(1.0, 3))
    text = mat.to_csv()
    rows = text.strip().split("\n")
    assert len(rows) == 4
    parsed = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert parsed.shape == (4, 8)  # re,im pairs
    assert np.allclose(parsed[:, 0::2], np.eye(4))
    assert np.allclose(parsed[:, 1::2], 0.0)


@pytest.mark.parametrize("order", [1, 64, 170])
def test_matrix_csv_matches_per_cell_rendering(order):
    # random bit patterns cover every exponent; subnormals, -0.0 and +0.0 are planted
    dim = order + 1
    rng = np.random.default_rng(order)
    bits = rng.integers(0, 2**64, size=(dim, 2 * dim), dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64).copy()
    values[~np.isfinite(values)] = 1.0
    tiny = np.finfo(np.float64).tiny
    planted = [-0.0, 0.0, tiny * 0.5, -tiny * 2.0**-30, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0.0)]
    values.flat[: len(planted)] = planted
    values.flat[-len(planted) :] = planted[::-1]
    mat = OperatorMatrix(values.view(np.complex128), FockParams(1.0, order))
    reference = "\n".join(",".join(f"{v.real:.17g},{v.imag:.17g}" for v in row) for row in mat.entries) + "\n"
    assert mat.to_csv() == reference


def _assert_renders_as_per_value_format(values, width=64):
    """_render_csv on values laid out in rows of ``width``, against '%.17g' value by value."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    rows = np.concatenate([flat, np.ones(-flat.size % width)]).reshape(-1, width)
    got = _render_csv(rows).split("\n")
    want = [",".join("%.17g" % v for v in row) for row in rows.tolist()] + [""]
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert got_row.split(",") == want_row.split(",")


def test_csv_rounding_ties():
    rng = np.random.default_rng(12)
    # (10 D + 5) 10^e, rounded to the nearest double
    decimal_ties = [float(f"{10 * int(d) + 5}e{e}") for e in range(-60, 61) for d in rng.integers(10**16, 10**17, 8)]
    # N 2^-j with N odd and N 5^j of 18 digits is a double whose 18th significant digit is a final 5
    binary_ties = []
    for j in range(2, 26):
        low, high = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        if low < high:
            odd = [int(n) for n in rng.integers(low, high, 8) | 1]
            assert all(len(str(n * 5**j)) == 18 and Fraction(n, 2**j) == n * 2.0**-j for n in odd)
            binary_ties += [n * 2.0**-j for n in odd]
    ties = np.array(decimal_ties + binary_ties)
    _assert_renders_as_per_value_format(np.concatenate([ties, -ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)]))


def test_csv_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-307, 309)])
    _assert_renders_as_per_value_format(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


@pytest.mark.parametrize("scale", [1.0, 0.1, 1e-4, 2.0**-20, 1e16, 1e-300])
def test_csv_integer_multiples(scale):
    _assert_renders_as_per_value_format(np.arange(-2000, 2001, dtype=np.float64) * scale)


def test_csv_zeros_and_subnormals():
    rng = np.random.default_rng(3)
    subnormals = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0.0), 2.0**-1074 * 3]
    _assert_renders_as_per_value_format(np.concatenate([special, subnormals, -subnormals]))


@pytest.mark.parametrize("k", [-5, -4, 16, 17])
def test_csv_fixed_scientific_switch(k):
    # '%.17g' is fixed for -4 <= k < 17 and scientific outside, k the exponent after rounding
    mantissas = np.array([1.0, 1.5, 2.0**0.5, 9.5, 9.999999999999999, 9.9999999999999999])
    values = mantissas * 10.0**k
    _assert_renders_as_per_value_format(np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf), -values]))


@pytest.mark.parametrize("order", [8, 170])
def test_csv_of_a_section_across_render_blocks(order):
    # order 8 fits in one block; at order 170 the last block holds fewer rows than the others
    rows_per_block = _CSV_BLOCK // (2 * (order + 1))
    assert order + 1 < rows_per_block or (order + 1) % rows_per_block
    mat = assemble_matrix(SelfAdjointSymbolParams(0.9, 0.3 - 0.2j, -0.4).symbol(), FockParams(0.7, order))
    reference = "".join(",".join("%.17g" % v for v in row) + "\n" for row in mat.entries.view(np.float64).tolist())
    assert mat.to_csv() == reference


def test_operator_matrix_validates_shape():
    with pytest.raises(ValueError):
        OperatorMatrix(np.eye(5), P8)


def test_non_finite_entries_and_weight_values_rejected():
    # nan, inf and -inf in the real part only, in the imaginary part only and in both
    non_finite = [complex(re, im) for v in (math.nan, math.inf, -math.inf) for re, im in ((v, 0.0), (0.0, v), (v, v))]
    for value in non_finite:
        entries = np.eye(9, dtype=np.complex128)
        entries[2, 5] = value
        with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
            OperatorMatrix(entries, P8)
        with pytest.raises(ValueError, match=r"^non-finite w "):
            ExpLinearWeight(1.2, value)
