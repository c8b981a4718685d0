"""Identity checkers for self-adjoint and commuting weighted composition symbols.

Each checker measures the residual of one closed-form identity, at truncation
orders where finite sections are involved and pointwise on deterministic
sample sets where the identity is a scalar equation, and wraps the outcome
in a CheckReport.  Pure-arithmetic identities are held to 1e-12; residuals
that pass through a finite section get looser, order-qualified tolerances.

Conventions used throughout:

* The Gaussian weight parameter alpha enters every kernel exponent, so a
  self-adjoint symbol at parameter alpha carries the weight
  c * e^{alpha * conj(a0) * z}; at alpha = 1 this is the familiar
  c * e^{conj(a0) z} form.
* The conjugation factor of an affine self-map with interior fixed point b,
  written here as conjugation_factor(z), is the z-dependent quantity
  a1 (conj(b) z - 1) / (conj(b) a1 z + conj(b) a0 - 1).  The eigen-identity
  checks verify the displayed pointwise equations with this factor exactly
  as stated rather than silently promoting it to a constant eigenvalue.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .operators import (
    AffineMap,
    Boundedness,
    DegenerateMapError,
    ExpLinearWeight,
    LinearFractionalMap,
    OperatorMatrix,
    UnsupportedMapError,
    WcoSymbol,
    adjoint_matrix,
    apply_wco,
    assemble_sections,
    boundedness_check,
    commutator_residual,
    hermitian_residual,
    _finite_copy,
    _set_finite_complex,
)
from .report import REPORTED, CheckReport, Rule, format_complex, rules_hold
from .sampling import DEFAULT_POLE_MARGIN, UniformStream, circle_rows, disk_pairs, drop_near_poles, pole_mask
from .series import FockParams, _Record, exp_linear_coeffs, kernel_coeffs, kernel_series, validate_alpha

__all__ = [
    "CommutantParams",
    "SelfAdjointSymbolParams",
    "check_adjoint_factorization_battery",
    "check_cphi_adjoint_factorization",
    "check_commutant_symbols",
    "check_degenerate_commutant",
    "check_disk_criterion",
    "check_eigen_identity",
    "check_fixed_point_transfer",
    "check_h_conjugation",
    "check_moebius_conjugation",
    "check_moebius_conjugation_battery",
    "check_normality",
    "check_selfadjoint_forward",
    "check_selfadjoint_reverse",
    "commutant_symbols",
    "conjugation_factor",
    "disk_boundary_oracle",
    "disk_selfmap_criterion",
    "fixed_point",
    "mobius_h",
    "reproduce_counterexample",
]

DEFAULT_SEED = 42
IDENTITY_TOL = 1e-12
DEFAULT_ORDERS = (16, 32, 64)
# alpha and order of the checks that work at one order: selfadjoint-reverse, degenerate-commutant, adjoint-factorization
KERNEL_PARAMS = FockParams(1.0, 32)

# default tolerances, which --tolerance overrides
EIGEN_TOL = 1e-10  # eigen-identity: the pointwise eigen-identities
TRANSFER_TOL = 1e-10  # fixed-point-transfer: |psi(b) - b|, asserted when the maps commute
ADJOINT_KERNEL_TOL = 1e-11  # adjoint-factorization: the kernel-level residual
NORMALITY_TOL = 1e-9  # normality: the commutator residual of a normal symbol

# fixed bounds, which --tolerance does not reach
# fixed-point-transfer: the maps commute, so the transfer is asserted, when |map(psi(z)) - psi(map(z))| is at most this
COMMUTE_GATE = 1e-10
# counterexample: for eta != 1 the two composition orders must differ at the origin by more than this
SEPARATION = 1e-6
# fixed-point: |map(b) - b|
FIXED_POINT_TOL = 1e-13
# adjoint-factorization: the finite-section cross-check
ADJOINT_MATRIX_TOL = 1e-8
# selfadjoint-forward: the pointwise kernel-level symmetry
SELFADJOINT_KERNEL_TOL = 1e-10
# eigen-identity: the kernel eigenvector relation, coefficientwise at EIGEN_KERNEL_ORDER
EIGEN_KERNEL_TOL = 1e-11
EIGEN_KERNEL_ORDER = 32
# degenerate-commutant: the section against the scalar, and its commutator with its adjoint
DEGENERATE_SCALAR_TOL = 1e-14
DEGENERATE_NORMAL_TOL = 1e-14
# normality: a non-normal residual must reach this multiple of tol
NONNORMAL_FACTOR = 10.0
# disk-criterion: equally spaced unit-circle points of the boundary oracle
BOUNDARY_POINTS = 1000


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------


class SelfAdjointSymbolParams(_Record):
    """Parameters (c, a0, a1) of the candidate self-adjoint family.

    c and a1 are complex on purpose: self-adjointness requires them real,
    and the falsification checks feed in deliberately perturbed values.
    The constructed weight is c * e^{alpha * conj(a0) * z} and the map is
    a0 + a1 z.
    """

    c: complex
    a0: complex
    a1: complex
    alpha: float

    def __init__(self, c: complex, a0: complex, a1: complex, alpha: float = 1.0) -> None:
        _set_finite_complex(self, c=c, a0=a0, a1=a1)
        if self.c == 0:
            raise ValueError("weight scale c must be nonzero")
        validate_alpha(alpha)
        object.__setattr__(self, "alpha", alpha)

    def weight(self) -> ExpLinearWeight:
        return ExpLinearWeight(self.c, self.alpha * self.a0.conjugate())

    def map(self) -> AffineMap:
        return AffineMap(self.a1, self.a0)

    def symbol(self) -> WcoSymbol:
        return WcoSymbol(self.weight(), self.map())


class CommutantParams(_Record):
    """Derived coefficients d0..d3 of the commutant symbol family."""

    eta: complex
    b: complex
    d0: complex
    d1: complex
    d2: complex
    d3: complex

    def __init__(self, eta: complex, b: complex, d0: complex, d1: complex, d2: complex, d3: complex) -> None:
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "d3", d3)

    @classmethod
    def from_eta_b(cls, eta: complex, b: complex) -> "CommutantParams":
        eta, b, den = _commutant_inputs(eta, b)
        try:
            d2 = eta * (abs(b) ** 2 - 1.0) ** 2 / den**2
        except OverflowError:
            raise _out_of_range(eta, b) from None
        return cls(
            eta=eta,
            b=b,
            d0=(eta - 1.0) * b / den,
            d1=(eta - 1.0) * b.conjugate() / den,
            d2=d2,
            d3=(abs(b) ** 2 - eta) / den,
        )

    def offset_form(self, z):
        """psi written as d0 + d2 z / (1 - d1 z)."""
        return self.d0 + self.d2 * np.asarray(z) / (1.0 - self.d1 * np.asarray(z))

    def offset_form_pole(self) -> complex | None:
        if self.d1 == 0:
            return None
        return 1.0 / self.d1


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


def _out_of_range(eta: complex, b: complex) -> ValueError:
    """The error of a commutant family whose coefficients overflow Python's float arithmetic."""
    return ValueError(f"the commutant family's coefficients at b={format_complex(b)}, eta={format_complex(eta)} leave float64")


def _commutant_inputs(eta, b) -> tuple[complex, complex, complex]:
    """(eta, b, |b|^2 eta - 1) of the commutant family, rejecting b = 0, a vanishing denominator and one past float64."""
    eta, b = complex(eta), complex(b)
    if b == 0:
        raise ValueError("the fixed point b must be nonzero for this family")
    try:
        den = abs(b) ** 2 * eta - 1.0
    except OverflowError:
        den = complex(math.inf)
    if not cmath.isfinite(den):
        raise _out_of_range(eta, b)
    if abs(den) <= 1e-12:
        raise ValueError(f"|b|^2 * eta too close to 1 (denominator {den})")
    return eta, b, den


def _commutant_coefficients(eta, b) -> tuple[complex, complex, complex, complex]:
    """The coefficients (p, q, r, s) of the family map psi of (eta, b), as Python complex numbers."""
    eta, b, den = _commutant_inputs(eta, b)
    return abs(b) ** 2 - eta, (eta - 1.0) * b, b.conjugate() * (1.0 - eta), den


def _commutant_map(eta, b) -> LinearFractionalMap:
    """The family map psi of (eta, b), without the derived coefficients."""
    return LinearFractionalMap(*_commutant_coefficients(eta, b))


def fixed_point(mp: AffineMap) -> complex:
    """Fixed point b = offset / (1 - slope) of an affine map.

    Slope exactly one is rejected: with a nonzero offset there is no fixed
    point, and with zero offset the map is the identity and every point is
    fixed.
    """
    if abs(mp.a - 1.0) < 1e-14:
        if abs(mp.b) < 1e-14:
            raise DegenerateMapError("identity map: every point is fixed")
        raise ValueError("slope one with nonzero offset has no fixed point")
    return mp.b / (1.0 - mp.a)


def mobius_h(b: complex):
    """The disk involution h(z) = (z - b) / (conj(b) z - 1) fixing the family."""
    bc = complex(b).conjugate()

    def h(z):
        return (np.asarray(z) - b) / (bc * np.asarray(z) - 1.0)

    return h


def _h_pole(b: complex) -> complex | None:
    """The pole 1 / conj(b) of mobius_h(b); None for b = 0, where h(z) = -z."""
    return None if b == 0 else 1.0 / complex(b).conjugate()


def conjugation_factor(mp: AffineMap, z):
    """z-dependent factor with h(map(z)) = factor(z) * h(z)."""
    b = fixed_point(mp)
    bc = b.conjugate()
    return mp.a * (bc * np.asarray(z) - 1.0) / (bc * mp.a * np.asarray(z) + bc * mp.b - 1.0)


def disk_selfmap_criterion(a0, a1):
    """Whether a0 + a1 z (a1 real) maps the open unit disk into itself.

    Closed form: |a0| < 1 and -1 + |a0| <= a1 <= 1 - |a0|, with the a1
    endpoints tolerated to within IDENTITY_TOL.  a0 and a1 may be arrays of draws;
    scalar inputs give a bool.
    """
    a0 = np.asarray(a0, dtype=np.complex128)
    # hypot rounds as Python's abs(complex) does; numpy's complex abs may differ in the last bit
    mag = np.hypot(a0.real, a0.imag)
    a1 = np.asarray(a1, dtype=np.float64)
    inside = (mag < 1.0) & (-1.0 + mag - IDENTITY_TOL <= a1) & (a1 <= 1.0 - mag + IDENTITY_TOL)
    return bool(inside) if inside.ndim == 0 else inside


# projected values per block of the oracle, so that a block's temporary stays in cache
ORACLE_BLOCK_POINTS = 16384


def disk_boundary_oracle(a0, a1):
    """Sampling cross-check: max |a0 + a1 z| over BOUNDARY_POINTS unit-circle points vs 1.

    Boundary-touching maps (max exactly 1) count as self-maps, matching the
    closed inequalities of the criterion; the comparison carries the same
    tolerance.  On the circle |a0 + a1 z|^2 = |a0|^2 + a1^2 + 2 a1 Re(conj(a0) z),
    so a draw's maximum comes from the largest product of its (Re a0, Im a0)
    row, sign of a1 folded in, with the circle's (cos, sin) table, in blocks
    of about ORACLE_BLOCK_POINTS values.  A draw within a rounding band of the
    bound takes max |a0 + a1 z| over the complex circle instead.  a0 and a1
    may be arrays of draws; scalar inputs give a bool.
    """
    a0, a1 = np.broadcast_arrays(np.asarray(a0, dtype=np.complex128), np.asarray(a1, dtype=np.float64))
    circle = np.exp(1j * (2.0 * np.pi * np.arange(BOUNDARY_POINTS) / BOUNDARY_POINTS))
    table = np.stack((circle.real, circle.imag))
    flat0, flat1 = a0.ravel(), a1.ravel()
    rows = np.stack((flat0.real, flat0.imag), axis=1)
    rows[flat1 < 0] *= -1.0
    reach = np.empty(flat0.shape)
    block = ORACLE_BLOCK_POINTS // BOUNDARY_POINTS
    for start in range(0, flat0.size, block):
        reach[start : start + block] = (rows[start : start + block] @ table).max(axis=1)
    x, y, t = np.abs(flat0.real), np.abs(flat0.imag), np.abs(flat1)
    squared = (x * x + y * y + t * t) + 2.0 * t * reach
    bound = 1.0 + IDENTITY_TOL
    inside = squared <= bound * bound
    # the band, 32 u max(|a0| + |a1|, 1)^2 with u = 2^-53, bounds the rounding of both maxima (derived in
    # CHANGES.md), so outside it the verdict is the complex maximum's; not greater, so a nan is in it
    scale = np.maximum(x + y + t, 1.0)
    for i in np.flatnonzero(~(np.abs(squared - bound * bound) > 32 * 2.0**-53 * scale * scale)):
        inside[i] = np.abs(flat0[i] + complex(flat1[i]) * circle).max() <= bound
    return bool(inside[0]) if a0.ndim == 0 else inside.reshape(a0.shape)


def _sample_rows(samples, seed: int, rows: int = 1) -> np.ndarray:
    """The (rows, S) sample block: circle_rows(seed, rows), or the given samples as one row."""
    if samples is None:
        return circle_rows(seed, rows)
    pts = np.reshape(np.asarray(samples, dtype=np.complex128), (1, -1))
    if pts.size == 0:
        raise ValueError("no sample points")
    return pts


def _sample_points(samples, seed: int, poles, margin: float = DEFAULT_POLE_MARGIN, mapped_by=None) -> np.ndarray:
    """The points of the one-row sample block that keep the margin from every pole.

    With mapped_by, a point's image under that map must keep the margin too,
    for a check that evaluates the functions with these poles at map(z).
    Raises when no point is left.
    """
    pts = drop_near_poles(_sample_rows(samples, seed)[0], poles, margin)
    if mapped_by is not None:
        pts = pts[pole_mask(mapped_by(pts), poles, margin)]
    if pts.size == 0:
        raise ValueError("all sample points fell within the pole margin")
    return pts


def _sections_at(sym: WcoSymbol, alpha: float, orders) -> list[OperatorMatrix]:
    """The section of sym at each order, read as a leading block of the one at the largest.

    Column n reads only earlier columns and rows up to its own, so a leading block is the smaller
    section bit for bit.  The largest is copied and validated once, and each section is a read-only
    view of that copy.
    """
    top_params = FockParams(alpha, max(orders))
    top = OperatorMatrix(assemble_sections([sym], top_params)[0], top_params)
    return [OperatorMatrix._of(top.entries[: n + 1, : n + 1], FockParams(alpha, n)) for n in orders]


# ---------------------------------------------------------------------------
# self-adjointness
# ---------------------------------------------------------------------------


def check_selfadjoint_forward(
    params: SelfAdjointSymbolParams,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    *,
    tol: float = IDENTITY_TOL,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Hermitian finite sections plus the kernel-level symmetry identity.

    For the symbol built from (c, a0, a1): the finite section must be
    Hermitian at every order, and pointwise over sample pairs (z, beta)
    the two kernel images
        weight(z) * e^{alpha * map(z) * conj(beta)}   and
        conj(weight(beta)) * e^{alpha * conj(map(beta)) * z}
    must agree.  Both hold exactly when c and a1 are real; perturbing
    either imaginary part, or the weight exponent, breaks both.  A norm or
    kernel image past the double range gives a non-finite residual, which
    fails, and a note says so.
    """
    sym = params.symbol()
    notes = []
    if abs(params.a1.imag) > IDENTITY_TOL or not disk_selfmap_criterion(params.a0, params.a1.real):
        notes.append("warning: map does not send the unit disk into itself")

    rule = Rule(at_most=tol)
    residuals = [(mat.params.order, hermitian_residual(mat), rule) for mat in _sections_at(sym, params.alpha, orders)]

    weight = sym.weight
    mp = sym.map
    pairs = disk_pairs(seed)
    # c e^{wz} at every z and beta: the exponentials as arrays, each times c as a Python complex, as in weight.value(z)
    with np.errstate(over="ignore", invalid="ignore"):
        at_z, at_beta = ([weight.c * e for e in np.exp(weight.w * points).tolist()] for points in pairs.T)
    try:
        kernel_diffs = []
        for (z, beta), weight_z, weight_beta in zip(pairs.tolist(), at_z, at_beta):
            lhs = weight_z * cmath.exp(params.alpha * mp(z) * beta.conjugate())
            rhs = weight_beta.conjugate() * cmath.exp(params.alpha * complex(mp(beta)).conjugate() * z)
            kernel_diffs.append(abs(lhs - rhs))
        # np.max, not max: a nan difference must reach the residual
        kernel_res = float(np.max(kernel_diffs))
    except OverflowError:
        # cmath.exp or abs past the double range: an image, or the difference, is infinite
        kernel_res = math.inf
    residuals.append((0, kernel_res, Rule(at_most=SELFADJOINT_KERNEL_TOL)))
    if not all(math.isfinite(v) for _, v, _ in residuals):
        notes.append("non-finite residual: a section norm or a kernel image overflows float64")

    return CheckReport(
        check_name="selfadjoint-forward",
        params_echo=dict(vars(params)),
        residuals=tuple(residuals),
        notes="; ".join(notes),
    )


def check_selfadjoint_reverse(
    weight: ExpLinearWeight,
    mp: AffineMap,
    params: FockParams = KERNEL_PARAMS,
    *,
    tol: float = IDENTITY_TOL,
) -> CheckReport:
    """Fit (c, a0, a1) from a symbol and test the self-adjoint shape.

    Reads c = weight(0), a0 = offset, a1 = slope, then requires c and a1
    real and the weight to match c * e^{alpha * conj(a0) * z}
    coefficientwise at the working order.  Coefficients past the double
    range give a non-finite residual, which fails, and a note says so.
    """
    if not isinstance(mp, AffineMap):
        raise UnsupportedMapError("the reverse check requires an affine map")
    c, a0, a1 = weight.c, mp.b, mp.a
    model = exp_linear_coeffs(params.alpha * a0.conjugate(), c, params.order)
    with np.errstate(over="ignore", invalid="ignore"):
        coeff_res = float(np.abs(exp_linear_coeffs(weight.w, c, params.order) - model).max())
    rule = Rule(at_most=tol)
    notes = f"fitted c={format_complex(c)}, a0={format_complex(a0)}, a1={format_complex(a1)}"
    if not math.isfinite(coeff_res):
        notes += "; non-finite residual: the weight's or the model's coefficients overflow float64"
    return CheckReport(
        check_name="selfadjoint-reverse",
        params_echo={"c": c, "a0": a0, "a1": a1, "alpha": params.alpha, "order": params.order},
        residuals=((0, abs(c.imag), rule), (0, abs(a1.imag), rule), (params.order, coeff_res, rule)),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# fixed point and conjugation
# ---------------------------------------------------------------------------


def check_h_conjugation(
    mp: AffineMap,
    samples=None,
    *,
    tol: float = IDENTITY_TOL,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Fixed-point residual and the identity h(map(z)) = factor(z) h(z)."""
    b = fixed_point(mp)
    # h(map(z)) and the factor's denominator conj(b) map(z) - 1 vanish where map(z) is h's pole
    pts = _sample_points(samples, seed, [_h_pole(b)], mapped_by=mp)
    h = mobius_h(b)
    res = float(np.abs(h(mp(pts)) - conjugation_factor(mp, pts) * h(pts)).max())
    return CheckReport(
        check_name="fixed-point",
        params_echo={"a0": mp.b, "a1": mp.a, "b": b, "samples": int(pts.size)},
        residuals=((0, abs(mp(b) - b), Rule(at_most=FIXED_POINT_TOL)), (0, res, Rule(at_most=tol))),
        notes=f"fixed point b={format_complex(b)}",
    )


def check_disk_criterion(draws: int = 200, *, seed: int = DEFAULT_SEED) -> CheckReport:
    """Closed-form disk criterion against the circle-sampling oracle.

    Random (a0, a1) draws straddle the self-map boundary; the closed form
    and the BOUNDARY_POINTS boundary maximum must agree on every draw.  All
    draws are evaluated as one array.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rng = UniformStream(seed)
    # one row per draw, in the order Re a0, Im a0, a1
    u = rng.uniform((-0.9, -0.9, -1.2), (0.9, 0.9, 1.2), size=(draws, 3))
    a0, a1 = u[:, 0] + 1j * u[:, 1], u[:, 2]
    pred = disk_selfmap_criterion(a0, a1)
    disagreements = int(np.count_nonzero(pred != disk_boundary_oracle(a0, a1)))
    true_count = int(np.count_nonzero(pred))
    return CheckReport(
        check_name="disk-criterion",
        params_echo={"draws": draws, "boundary_points": BOUNDARY_POINTS, "seed": seed},
        residuals=((0, float(disagreements), Rule(at_most=0.0)),),
        notes=f"{true_count} of {draws} draws were self-maps",
    )


def check_eigen_identity(
    params: SelfAdjointSymbolParams,
    j_max: int = 5,
    samples=None,
    *,
    tol: float = EIGEN_TOL,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Pointwise eigen-identities for the conjugated family e_j.

    With e_j(z) = e^{alpha (conj(b) z - |b|^2 / 2)} h(z)^j and the
    z-dependent conjugation factor, the image of e_j under the symbol must
    equal conj(weight(b)) * factor(z)^j * e_j(z) at every sample point.
    The j = 0 case is additionally verified coefficientwise: the kernel at
    b is an exact eigenvector with eigenvalue conj(weight(b)).
    """
    if j_max < 0:
        raise ValueError(f"j_max must be at least 0, got {j_max}")
    if abs(params.a1.imag) > IDENTITY_TOL:
        raise ValueError("a1 must be real for the eigen-identity hypothesis")
    a1 = params.a1.real
    mag = abs(params.a0)
    if not (-1.0 + mag - IDENTITY_TOL <= a1 < 1.0 - mag):
        raise ValueError(f"(a0, a1)=({params.a0}, {a1}) violates -1+|a0| <= a1 < 1-|a0|")

    mp = params.map()
    weight = params.weight()
    b = fixed_point(mp)
    # e_j(map(z)) reaches h's pole through the map
    pts = _sample_points(samples, seed, [_h_pole(b)], mapped_by=mp)

    h = mobius_h(b)
    alpha = params.alpha
    # e_j(z) = envelope(z) h(z)^j, with the envelope and h taken once at the points and once at their images
    mapped = mp(pts)
    # at large alpha the envelopes overflow to inf and their differences to nan: residuals that fail, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        env_mapped, env_pts = (np.exp(alpha * (b.conjugate() * z - abs(b) ** 2 / 2.0)) for z in (mapped, pts))
        h_mapped, h_pts, weight_pts = h(mapped), h(pts), weight.value(pts)
        eig = complex(weight.value(b)).conjugate()
        factor = conjugation_factor(mp, pts)
        per_j = []
        for j in range(j_max + 1):
            lhs = weight_pts * (env_mapped * h_mapped**j if j else env_mapped)
            rhs = eig * factor**j * (env_pts * h_pts**j if j else env_pts)
            per_j.append(float(np.abs(lhs - rhs).max()))

        try:
            k_b = kernel_series(b, FockParams(alpha, EIGEN_KERNEL_ORDER))
            kernel_res = apply_wco(params.symbol(), k_b).max_abs_diff(eig * k_b)
        except ValueError:
            # a kernel, its image or eig * K_b past the double range: the series constructor refuses inf or nan
            kernel_res = math.inf
    kernel = (EIGEN_KERNEL_ORDER, kernel_res, Rule(at_most=EIGEN_KERNEL_TOL))
    notes = [f"j={j}: {rj:.2e}" for j, rj in enumerate(per_j)]
    if not math.isfinite(kernel_res):
        notes.append("non-finite residual: the kernel eigenvector relation overflows float64")

    return CheckReport(
        check_name="eigen-identity",
        params_echo={**vars(params), "j_max": j_max, "b": b, "samples": int(pts.size)},
        # np.max, not max: a nan residual of one j must reach the worst
        residuals=((0, float(np.max(per_j)), Rule(at_most=tol)), kernel),
        notes="; ".join(notes),
    )


def check_fixed_point_transfer(
    mp: AffineMap,
    psi,
    samples=None,
    *,
    tol: float = TRANSFER_TOL,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Transfer of the fixed point b of the partner map mp to a commuting companion map psi.

    Measures |psi(b) - b|.  When the two maps commute pointwise on the
    sample set the transfer is asserted; otherwise the report is purely
    informational (commutation is the hypothesis, not a conclusion).
    """
    b = fixed_point(mp)
    # psi(map(z)) also needs map(z) away from the psi pole
    pts = _sample_points(samples, seed, [psi.pole], mapped_by=mp)
    transfer_res = abs(complex(psi(b)) - b)
    commute_res = float(np.abs(mp(psi(pts)) - psi(mp(pts))).max())
    if commute_res <= COMMUTE_GATE:
        note, transfer_rule = "maps commute pointwise; transfer asserted", Rule(at_most=tol)
    else:
        note, transfer_rule = "maps do not commute pointwise; transfer reported, not asserted", REPORTED
    return CheckReport(
        check_name="fixed-point-transfer",
        params_echo={"a0": mp.b, "a1": mp.a, "b": b, "samples": int(pts.size)},
        residuals=((0, transfer_res, transfer_rule), (0, commute_res, REPORTED)),
        notes=note,
    )


# ---------------------------------------------------------------------------
# the commutant family
# ---------------------------------------------------------------------------


def commutant_symbols(eta: complex, b: complex) -> tuple[LinearFractionalMap, CommutantParams]:
    """The commutant map psi attached to (eta, b), with its derived coefficients.

    psi is the linear fractional map conjugate to multiplication by eta
    under the disk involution at b.
    """
    cp = CommutantParams.from_eta_b(eta, b)
    return _commutant_map(cp.eta, cp.b), cp


def check_commutant_symbols(
    eta: complex,
    b: complex,
    samples=None,
    *,
    tol: float = IDENTITY_TOL,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Consistency of the two closed forms of psi and its conjugation.

    Verifies that the offset form d0 + d2 z / (1 - d1 z) and the linear
    fractional form agree pointwise, that psi(0) = d0, and that psi
    satisfies the disk-involution conjugation identity.  For eta = 1 the
    family must degenerate exactly to the identity map with d0 = d1 = 0 and
    d2 = 1.
    """
    psi, cp = commutant_symbols(eta, b)
    # rational evaluations stay well conditioned a bit away from the poles
    pts = _sample_points(samples, seed, [psi.pole, cp.offset_form_pole(), _h_pole(cp.b)], margin=1e-2)

    mobius_vals = psi(pts)
    offset_vals = cp.offset_form(pts)
    scale = np.maximum(1.0, np.abs(mobius_vals))
    form_res = float((np.abs(mobius_vals - offset_vals) / scale).max())
    psi0_res = abs(complex(psi(0.0)) - cp.d0)

    coeffs = [(psi.p, psi.q, psi.r, psi.s)]
    conj_res = float(_moebius_residuals(coeffs, np.array([cp.b]), np.array([cp.eta]), pts[None, :])[0][0])

    rule = Rule(at_most=tol)
    residuals = [(0, form_res, rule), (0, psi0_res, rule), (0, conj_res, rule)]
    notes = [
        f"d0={format_complex(cp.d0)}, d1={format_complex(cp.d1)}, "
        f"d2={format_complex(cp.d2)}, d3={format_complex(cp.d3)}"
    ]
    if cp.eta == 1.0:
        degeneration = max(
            abs(cp.d0),
            abs(cp.d1),
            abs(cp.d2 - 1.0),
            abs(psi.p / psi.s - 1.0),
            abs(psi.q),
            abs(psi.r),
        )
        # exactly the identity: a non-negative value at most 0.0
        residuals.append((0, degeneration, Rule(at_most=0.0)))
        notes.append("eta=1 degeneration: psi is exactly the identity")
    if abs(cp.d0) > 1.0:
        notes.append(f"|d0|={abs(cp.d0):.6g} > 1: psi(0) lies outside the unit disk")

    return CheckReport(
        check_name="commutant-symbols",
        params_echo=dict(vars(cp)),
        residuals=tuple(residuals),
        notes="; ".join(notes),
    )


def check_moebius_conjugation(
    psi: LinearFractionalMap,
    b: complex,
    eta: complex,
    samples=None,
    *,
    tol: float = IDENTITY_TOL,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Displayed conjugation identity for a given psi.

    Residual of (psi(z) - b) / (conj(b) psi(z) - 1) = eta (z - b) / (conj(b) z - 1)
    over pole-filtered samples: the one-row case of the battery's block.
    """
    b, coeffs = complex(b), [(psi.p, psi.q, psi.r, psi.s)]
    res, kept = _moebius_residuals(coeffs, np.array([b]), np.array([complex(eta)]), _sample_rows(samples, seed))
    return CheckReport(
        check_name="moebius-conjugation",
        params_echo={"eta": complex(eta), "b": b, "samples": int(kept[0])},
        residuals=((0, float(res[0]), Rule(at_most=tol)),),
    )


def _moebius_residuals(coeffs, b: np.ndarray, eta: np.ndarray, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst conjugation residual and number of points kept, per row of an (M, S) sample block.

    Row i holds the samples of (psi, b[i], eta[i]), psi the map with the
    coefficients (p, q, r, s) = coeffs[i].  Points within the pole margin of
    psi or of h are masked out; a row left with none raises.
    """
    # one (psi pole, h pole) pair per row, infinite where there is none; -s / r as LinearFractionalMap.pole takes it
    pairs = [(-s / r if r else None, _h_pole(bi)) for (_, _, r, s), bi in zip(coeffs, b)]
    poles = np.array([[math.inf if pole is None else pole for pole in pair] for pair in pairs])
    pts = np.asarray(samples, dtype=np.complex128)
    keep = pole_mask(pts, [poles[:, :1], poles[:, 1:]])
    kept = np.count_nonzero(keep, axis=1)
    if not kept.all():
        raise ValueError("all sample points fell within the pole margin")
    p, q, r, s = np.array(coeffs, dtype=np.complex128).T[:, :, None]
    b, eta = b[:, None], eta[:, None]
    # masked points may sit on a pole; their values are discarded
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = (p * pts + q) / (r * pts + s)
        lhs = (vals - b) / (b.conj() * vals - 1.0)
        rhs = eta * ((pts - b) / (b.conj() * pts - 1.0))
        res = np.where(keep, np.abs(lhs - rhs), 0.0).max(axis=1)
    return res, kept


# expected composed-map coefficient tuples for the worked family at b = 2/3,
# slope 1/4, offset 1/2, as functions of eta
def _tuple_outer_after_inner(eta: complex) -> tuple[complex, complex, complex, complex]:
    # true coefficients of (offset map) o psi
    return (4.0 / 9.0 - 7.0 * eta / 12.0, 7.0 * eta / 18.0 - 2.0 / 3.0, 2.0 * (1.0 - eta) / 3.0, 4.0 * eta / 9.0 - 1.0)


def _tuple_outer_after_inner_variant(eta: complex) -> tuple[complex, complex, complex, complex]:
    # near-miss diagnostic tuple: rescaling psi's numerator and denominator
    # by 1/4 before applying the offset projectively cancels the intended
    # slope and yields the different map 1/2 + psi(z)
    return (7.0 / 36.0 - eta / 3.0, 2.0 * eta / 9.0 - 7.0 / 24.0, (1.0 - eta) / 6.0, eta / 9.0 - 1.0 / 4.0)


def _tuple_inner_after_outer(eta: complex) -> tuple[complex, complex, complex, complex]:
    return (1.0 / 9.0 - eta / 4.0, eta / 6.0 - 4.0 / 9.0, (1.0 - eta) / 6.0, eta / 9.0 - 2.0 / 3.0)


def reproduce_counterexample(eta: complex, *, tol: float = IDENTITY_TOL) -> CheckReport:
    """Composition order matters for the commutant family at b = 2/3.

    Symbolically composes the affine map 1/2 + z/4 with the family map psi
    in both orders and compares coefficient 4-tuples, up to projective
    scale, against the expected tuples.  For the outer-after-inner order
    two reference tuples exist: the true composition and a variant with the
    inner map projectively rescaled before the offset (which describes the
    different map 1/2 + psi).  The check requires the true tuples to match
    and, for eta != 1, the two composition orders to actually differ at
    the origin; the variant's deviation is reported in the notes.
    """
    eta = complex(eta)
    phi = LinearFractionalMap(0.25, 0.5, 0.0, 1.0)
    psi = LinearFractionalMap(
        4.0 / 9.0 - eta,
        (eta - 1.0) * 2.0 / 3.0,
        2.0 / 3.0 * (1.0 - eta),
        4.0 / 9.0 * eta - 1.0,
    )
    outer_after_inner = phi.compose(psi)
    inner_after_outer = psi.compose(phi)

    res_true_oai = outer_after_inner.projective_residual(_tuple_outer_after_inner(eta))
    res_iao = inner_after_outer.projective_residual(_tuple_inner_after_outer(eta))
    res_variant = outer_after_inner.projective_residual(_tuple_outer_after_inner_variant(eta))

    notes = [
        f"variant outer-after-inner tuple deviates by {res_variant:.3e}: "
        "it equals the map 1/2 + psi(z), i.e. the inner map was projectively "
        "rescaled by 1/4 before the offset was applied"
    ]

    rule = Rule(at_most=tol)
    residuals = [(0, res_true_oai, rule), (0, res_iao, rule)]
    if eta == 1.0:
        # psi collapses to the identity; both orders equal the affine map
        residuals.append((0, max(
            outer_after_inner.projective_residual(phi.coefficients()),
            inner_after_outer.projective_residual(phi.coefficients()),
        ), rule))
        notes.append("eta=1: both composition orders collapse to the affine map itself")
    else:
        at0_oai = complex(outer_after_inner(0.0))
        at0_iao = complex(inner_after_outer(0.0))
        var = _tuple_outer_after_inner_variant(eta)
        notes.append(
            f"values at 0: outer-after-inner {format_complex(at0_oai)}, "
            f"inner-after-outer {format_complex(at0_iao)}, variant tuple {format_complex(var[1] / var[3])}"
        )
        # strictly more than SEPARATION: at least the next float above it
        residuals.append((0, abs(at0_oai - at0_iao), Rule(at_least=math.nextafter(SEPARATION, math.inf))))
    return CheckReport(
        check_name="counterexample",
        params_echo={"eta": eta, "b": 2.0 / 3.0},
        residuals=tuple(residuals),
        notes="; ".join(notes),
    )


def check_moebius_conjugation_battery(
    draws: int = 50,
    *,
    tol: float = IDENTITY_TOL,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Conjugation identity over random (eta, b) draws.

    Fixed points are drawn with 0.1 <= |b| <= 0.9 and eta from a complex
    rectangle, rejecting draws with |b|^2 eta within 0.05 of 1 where the
    family degenerates.  Draw i is checked on row i of circle_rows(seed, draws), and
    all draws are evaluated as one masked block.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rng = UniformStream(seed)
    b = eta = np.empty(0, dtype=np.complex128)
    while b.size < draws:
        # one attempt per row, in the order |b|, arg b, Re eta, Im eta; rejected attempts use up their row
        u = rng.uniform((0.1, 0.0, -2.0, -1.0), (0.9, 2.0 * np.pi, 2.5, 1.0), size=(draws, 4))
        b_try, eta_try = u[:, 0] * np.exp(1j * u[:, 1]), u[:, 2] + 1j * u[:, 3]
        # the rejection rule in Python scalars, so that it rounds exactly as it always has
        accept = [
            abs(abs(bi) ** 2 * ei - 1.0) >= 0.05 and abs(ei) >= 0.05 for bi, ei in zip(b_try.tolist(), eta_try.tolist())
        ]
        b, eta = np.append(b, b_try[accept]), np.append(eta, eta_try[accept])
    b, eta = b[:draws], eta[:draws]
    # psi's coefficients by the same Python complex arithmetic as _commutant_map, without a validated record per draw:
    # acceptance keeps every record check from firing (derived in README)
    coeffs = [_commutant_coefficients(eta_i, b_i) for eta_i, b_i in zip(eta.tolist(), b.tolist())]
    worst = float(_moebius_residuals(coeffs, b, eta, _sample_rows(None, seed, draws))[0].max())
    return CheckReport(
        check_name="moebius-conjugation",
        params_echo={"draws": draws, "seed": seed},
        residuals=((0, worst, Rule(at_most=tol)),),
        notes=f"max residual over {draws} (eta, b) draws",
    )


def check_adjoint_factorization_battery(
    map_draws: int = 20,
    params: FockParams = KERNEL_PARAMS,
    *,
    tol: float = ADJOINT_KERNEL_TOL,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Adjoint factorization over random strictly bounded affine maps.

    Map i is checked on row i of circle_rows(seed, map_draws), and all maps are evaluated
    as one kernel block with one batch of finite sections.
    """
    if map_draws < 1:
        raise ValueError(f"draws must be at least 1, got {map_draws}")
    rng = UniformStream(seed)
    # one row per map, in the order |a|, arg a, |b|, arg b
    u = rng.uniform(0.0, (0.9, 2.0 * np.pi, 0.8, 2.0 * np.pi), size=(map_draws, 4))
    maps = [AffineMap(a, b) for a, b in u[:, 0::2] * np.exp(1j * u[:, 1::2])]
    kernel_res, matrix_res = _adjoint_factorization_residuals(maps, _sample_rows(None, seed, map_draws), params)
    return CheckReport(
        check_name="adjoint-factorization",
        params_echo={"map_draws": map_draws, "seed": seed, "order": params.order},
        residuals=(
            (params.order, float(kernel_res.max()), Rule(at_most=tol)),
            (params.order, float(matrix_res.max()), Rule(at_most=ADJOINT_MATRIX_TOL)),
        ),
        notes=f"worst kernel-level and finite-section residuals over {map_draws} random bounded maps",
    )


def check_degenerate_commutant(
    f_params: SelfAdjointSymbolParams,
    *,
    order: int = KERNEL_PARAMS.order,
    tol: float = IDENTITY_TOL,
) -> CheckReport:
    """The bounded degeneration of the commutant family: a scalar operator.

    With the identity map and the constant weight e^{-alpha |b|^2 / 2} at the
    partner map's fixed point b, the finite section must be exactly that
    scalar times the identity, commute with the self-adjoint partner and be
    normal.  The notes name its boundedness class, always bounded unitary.
    """
    b = fixed_point(f_params.map())
    params = FockParams(f_params.alpha, order)
    g_const = math.exp(-f_params.alpha * abs(b) ** 2 / 2.0)
    identity_map = AffineMap(1.0, 0.0)
    sym_g = WcoSymbol(ExpLinearWeight(g_const, 0.0), identity_map)
    # one validated copy of both sections, each a read-only view of it
    sections = _finite_copy(assemble_sections([sym_g, f_params.symbol()], params))
    mat_g, mat_f = (OperatorMatrix._of(section, params) for section in sections)

    scalar_res = float(np.abs(mat_g.entries - g_const * np.eye(params.order + 1)).max())
    half = max(1, order // 2)
    return CheckReport(
        check_name="degenerate-commutant",
        params_echo={**vars(f_params), "b": b, "order": order},
        residuals=(
            (order, scalar_res, Rule(at_most=DEGENERATE_SCALAR_TOL)),
            (order, commutator_residual(mat_g, mat_f, half), Rule(at_most=tol)),
            (order, commutator_residual(adjoint_matrix(mat_g), mat_g, half), Rule(at_most=DEGENERATE_NORMAL_TOL)),
        ),
        notes=f"constant weight {g_const!r}; composition classified {boundedness_check(identity_map).value}",
    )


# ---------------------------------------------------------------------------
# adjoint factorization and normality
# ---------------------------------------------------------------------------


def check_cphi_adjoint_factorization(
    mp: AffineMap,
    samples=None,
    params: FockParams = KERNEL_PARAMS,
    *,
    tol: float = ADJOINT_KERNEL_TOL,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Adjoint of a composition operator as multiplier times rotation.

    For each sample beta the kernel at map(beta) must equal the kernel
    multiplier at the offset applied to the conj(slope)-rotated kernel at
    beta, coefficientwise.  The finite-section adjoint applied to the
    truncated kernel cross-checks the leading half of the coefficients
    whenever the composition operator is bounded.  This is the one-map case
    of the battery's block.
    """
    if abs(mp.a) > 1.0 + IDENTITY_TOL:
        raise ValueError(f"slope magnitude {abs(mp.a)} exceeds 1; adjoint factorization needs |a| <= 1")
    pts = _sample_rows(samples, seed)

    kernel_res, matrix_res = _adjoint_factorization_residuals([mp], pts, params)
    residuals = [(params.order, float(kernel_res[0]), Rule(at_most=tol))]
    notes = ""
    if boundedness_check(mp) is Boundedness.UNBOUNDED:
        notes = "composition operator unbounded; matrix cross-check skipped"
    else:
        residuals.append((params.order, float(matrix_res[0]), Rule(at_most=ADJOINT_MATRIX_TOL)))
    return CheckReport(
        check_name="adjoint-factorization",
        params_echo={"a": mp.a, "b": mp.b, "alpha": params.alpha, "order": params.order, "samples": int(pts.size)},
        residuals=tuple(residuals),
        notes=notes,
    )


def _adjoint_factorization_residuals(
    maps: list[AffineMap], samples: np.ndarray, params: FockParams
) -> tuple[np.ndarray, np.ndarray]:
    """Worst kernel-level and finite-section residual of each map over its row of an (M, S) sample block.

    C_phi* K_beta = K_{map(beta)} = K_b * K_beta(conj(a) z), and the rotation
    K_beta(conj(a) z) scales degree k by conj(a)^k.  The kernels of all maps
    and samples form one M x (N+1) x S block; multiplication by K_b is the
    lower-triangular Toeplitz matrix of its coefficients, applied to the
    whole block in one batched product.  The finite-section residual is nan
    for a map whose composition operator is unbounded.
    """
    n = params.order
    a = np.array([mp.a for mp in maps])
    b = np.array([mp.b for mp in maps])
    # (N+1) x M x S as computed; kernels[i, :, j] is then the kernel at samples[i, j]
    kernels = np.moveaxis(kernel_coeffs(samples, params), 0, 1)
    lhs = np.moveaxis(kernel_coeffs(a[:, None] * samples + b[:, None], params), 0, 1)
    # running powers conj(a)^k, one row per map
    rotation = np.ones((len(maps), n + 1), dtype=np.complex128)
    rotation[:, 1:] = a.conj()[:, None]
    rotation = np.cumprod(rotation, axis=1)
    # multiplier and product are temporaries: the section cross-check below needs the memory; overflowing kernels
    # give nan residuals, which fail, here and in the cross-check
    with np.errstate(over="ignore", invalid="ignore"):
        kernel_res = np.abs(lhs - _kernel_multipliers(b, params) @ (rotation[:, :, None] * kernels)).max(axis=(1, 2))

    matrix_res = np.full(len(maps), math.nan)
    bounded = [i for i, mp in enumerate(maps) if boundedness_check(mp) is not Boundedness.UNBOUNDED]
    if bounded:
        half = (n + 1) // 2
        norms = params.monomial_norms()[:, None]
        # the leading rows of each adjoint: conjugated leading columns of the section, the only ones built
        weight = ExpLinearWeight(1.0, 0.0)
        sections = assemble_sections([WcoSymbol(weight, maps[i]) for i in bounded], params, columns=half)
        adjoint_rows = sections.conj().transpose(0, 2, 1)
        orthonormal = kernels[bounded]
        with np.errstate(over="ignore", invalid="ignore"):
            orthonormal *= norms
            applied = (adjoint_rows @ orthonormal) / norms[:half]
            matrix_res[bounded] = np.abs(applied - lhs[bounded, :half]).max(axis=(1, 2))
    return kernel_res, matrix_res


def _kernel_multipliers(offsets: np.ndarray, params: FockParams) -> np.ndarray:
    """Multiplication by K_b on coefficients of degree <= N: one lower-triangular Toeplitz matrix per offset b."""
    lag = np.subtract.outer(np.arange(params.order + 1), np.arange(params.order + 1))
    toeplitz = kernel_coeffs(offsets, params).T[:, np.maximum(lag, 0)]
    toeplitz[:, lag < 0] = 0.0
    return toeplitz


def check_normality(
    weight: ExpLinearWeight,
    mp: AffineMap,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    *,
    alpha: float = 1.0,
    tol: float = NORMALITY_TOL,
) -> CheckReport:
    """Slope/offset normality predicate against measured commutators.

    The predicate declares the symbol normal when the slope is 1 or the
    offset is 0 (slope 1 with nonzero offset is unbounded, so effectively
    offset 0).  The measurement is the Frobenius norm of the finite-section
    commutator with the adjoint on the leading half block, across orders.
    The combined verdict requires agreement: small residuals when the
    predicate holds, residuals above ten times the tolerance and
    non-decreasing in the order, up to norm rounding, when it does not.

    The predicate only governs constant weights: a non-constant weight can
    make the operator normal with nonzero offset (any self-adjoint symbol)
    or non-normal with zero offset, and such disagreements are reported as
    failures with an explanatory note.
    """
    criterion = abs(mp.a - 1.0) <= IDENTITY_TOL or abs(mp.b) <= IDENTITY_TOL
    notes = [f"criterion (slope 1 or offset 0): {criterion}"]
    if weight.w != 0:
        notes.append("non-constant weight: the slope/offset predicate is not expected to govern")

    if boundedness_check(mp) is Boundedness.UNBOUNDED:
        notes.append("unbounded composition map: criterion-only report, no matrix path")
        residuals = [(0, 0.0, REPORTED)]
    else:
        blocks = [max(1, n // 2) for n in orders]
        mats = _sections_at(WcoSymbol(weight, mp), alpha, orders)
        values = [commutator_residual(adjoint_matrix(mat), mat, block) for block, mat in zip(blocks, mats)]
        # a non-finite residual fails every rule; it says nothing of the predicate
        finite = all(map(math.isfinite, values))
        if not finite:
            notes.append("non-finite residual: the commutator overflows float64")
        if criterion:
            rules = [Rule(at_most=tol)] * len(values)
            if finite and not rules_hold(values, rules):
                notes.append("measured commutator contradicts the predicate (operator is not normal)")
        else:
            floor = NONNORMAL_FACTOR * tol
            # np.linalg.norm of a K = block^2 complex block is sqrt(re.re + im.im).
            # Each dot product of K non-negative terms is within gamma_K = K u / (1 - K u)
            # of exact (Higham, Accuracy and Stability of Numerical Algorithms, eq. 3.5),
            # their sum within gamma_{K+1}, and the square root keeps that relative
            # error (|sqrt(1 + t) - 1| <= |t|) plus one rounding: gamma_{K+2}.  A
            # decrease fails unless the exact norms could still be non-decreasing.
            u = np.finfo(np.float64).eps / 2
            slack = [(k * k + 2) * u / (1.0 - (k * k + 2) * u) for k in blocks]
            rules = [Rule(at_least=floor, slack=s) for s in slack]
            if finite and not rules_hold(values, [Rule(at_least=floor)] * len(values)):
                notes.append("measured commutator is small although the predicate declares non-normal")
            elif finite and not rules_hold(values, rules):
                notes.append("non-normal residual not non-decreasing across orders")
        residuals = list(zip(orders, values, rules))
    return CheckReport(
        check_name="normality",
        params_echo={"a": mp.a, "b": mp.b, "alpha": alpha},
        residuals=tuple(residuals),
        notes="; ".join(notes),
    )
