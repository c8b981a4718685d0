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
from dataclasses import dataclass

import numpy as np

from .operators import (
    AffineMap,
    Boundedness,
    DegenerateMapError,
    ExpDisplacementWeight,
    ExpLinearWeight,
    LinearFractionalMap,
    SeriesWeight,
    UnsupportedMapError,
    WcoSymbol,
    WcoWeight,
    adjoint_matrix,
    adjoint_on_kernel,
    apply_wco,
    assemble_matrix,
    boundedness_check,
    commutator_residual,
    hermitian_residual,
    map_pole,
    monomial_to_orthonormal,
    orthonormal_to_monomial,
)
from .report import CheckReport, Verdict, format_complex
from .sampling import circle_points, disk_pairs, drop_near_poles
from .series import FockParams, TruncatedSeries, affine_composition_matrix, exp_linear, kernel_series

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
    "selfadjoint_symbol",
]

DEFAULT_SEED = 42
IDENTITY_TOL = 1e-12
FIXED_POINT_TOL = 1e-13
DEFAULT_ORDERS = (16, 32, 64)


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfAdjointSymbolParams:
    """Parameters (c, a0, a1) of the candidate self-adjoint family.

    c and a1 are complex on purpose: self-adjointness requires them real,
    and the falsification checks feed in deliberately perturbed values.
    The constructed weight is c * e^{alpha * conj(a0) * z} and the map is
    a0 + a1 z.
    """

    c: complex
    a0: complex
    a1: complex
    alpha: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c", "a0", "a1"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.c == 0:
            raise ValueError("weight scale c must be nonzero")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be a finite positive real")

    def weight(self) -> ExpLinearWeight:
        return ExpLinearWeight(self.c, self.alpha * self.a0.conjugate())

    def map(self) -> AffineMap:
        return AffineMap(self.a1, self.a0)

    def symbol(self) -> WcoSymbol:
        return WcoSymbol(self.weight(), self.map())

    def echo(self) -> dict:
        return {"c": self.c, "a0": self.a0, "a1": self.a1, "alpha": self.alpha}


def selfadjoint_symbol(c: complex, a0: complex, a1: complex, alpha: float = 1.0) -> WcoSymbol:
    return SelfAdjointSymbolParams(c, a0, a1, alpha).symbol()


@dataclass(frozen=True)
class CommutantParams:
    """Derived coefficients d0..d3 of the commutant symbol family."""

    eta: complex
    b: complex
    d0: complex
    d1: complex
    d2: complex
    d3: complex

    @classmethod
    def from_eta_b(cls, eta: complex, b: complex) -> "CommutantParams":
        eta = complex(eta)
        b = complex(b)
        if b == 0:
            raise ValueError("the fixed point b must be nonzero for this family")
        den = abs(b) ** 2 * eta - 1.0
        if abs(den) <= 1e-12:
            raise ValueError(f"|b|^2 * eta too close to 1 (denominator {den})")
        return cls(
            eta=eta,
            b=b,
            d0=(eta - 1.0) * b / den,
            d1=(eta - 1.0) * b.conjugate() / den,
            d2=eta * (abs(b) ** 2 - 1.0) ** 2 / den**2,
            d3=(abs(b) ** 2 - eta) / den,
        )

    def offset_form(self, z):
        """psi written as d0 + d2 z / (1 - d1 z)."""
        return self.d0 + self.d2 * np.asarray(z) / (1.0 - self.d1 * np.asarray(z))

    def offset_form_pole(self) -> complex | None:
        if self.d1 == 0:
            return None
        return 1.0 / self.d1

    def echo(self) -> dict:
        return {
            "eta": self.eta,
            "b": self.b,
            "d0": self.d0,
            "d1": self.d1,
            "d2": self.d2,
            "d3": self.d3,
        }


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


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


def conjugation_factor(mp: AffineMap, z):
    """z-dependent factor with h(map(z)) = factor(z) * h(z)."""
    b = fixed_point(mp)
    bc = b.conjugate()
    return mp.a * (bc * np.asarray(z) - 1.0) / (bc * mp.a * np.asarray(z) + bc * mp.b - 1.0)


def disk_selfmap_criterion(a0: complex, a1: float, tol: float = IDENTITY_TOL) -> bool:
    """Whether a0 + a1 z (a1 real) maps the open unit disk into itself.

    Closed form: |a0| < 1 and -1 + |a0| <= a1 <= 1 - |a0|, with the a1
    endpoints tolerated to within tol.
    """
    mag = abs(complex(a0))
    return mag < 1.0 and (-1.0 + mag - tol) <= float(a1) <= (1.0 - mag + tol)


def disk_boundary_oracle(a0: complex, a1: float, points: int = 1000, tol: float = IDENTITY_TOL) -> bool:
    """Sampling cross-check: max |a0 + a1 z| over unit-circle points vs 1.

    Boundary-touching maps (max exactly 1) count as self-maps, matching the
    closed inequalities of the criterion; the comparison carries the same
    tolerance.
    """
    theta = 2.0 * np.pi * np.arange(points) / points
    vals = np.abs(complex(a0) + float(a1) * np.exp(1j * theta))
    return float(np.max(vals)) <= 1.0 + tol


# ---------------------------------------------------------------------------
# self-adjointness
# ---------------------------------------------------------------------------


def check_selfadjoint_forward(
    params: SelfAdjointSymbolParams,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    *,
    tol: float = IDENTITY_TOL,
    tol_kernel: float = 1e-10,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Hermitian finite sections plus the kernel-level symmetry identity.

    For the symbol built from (c, a0, a1): the finite section must be
    Hermitian at every order, and pointwise over sample pairs (z, beta)
    the two kernel images
        weight(z) * e^{alpha * map(z) * conj(beta)}   and
        conj(weight(beta)) * e^{alpha * conj(map(beta)) * z}
    must agree.  Both hold exactly when c and a1 are real; perturbing
    either imaginary part, or the weight exponent, breaks both.
    """
    sym = params.symbol()
    notes = []
    if abs(params.a1.imag) > IDENTITY_TOL or not disk_selfmap_criterion(params.a0, params.a1.real):
        notes.append("warning: map does not send the unit disk into itself")

    residuals: list[tuple[int, float]] = []
    for n in orders:
        mat = assemble_matrix(sym, FockParams(params.alpha, n))
        residuals.append((n, hermitian_residual(mat)))

    weight = sym.weight
    mp = sym.map
    kernel_res = 0.0
    for z, beta in disk_pairs(seed, 20, 0.9):
        lhs = weight.value(z) * cmath.exp(params.alpha * mp(z) * beta.conjugate())
        rhs = weight.value(beta).conjugate() * cmath.exp(params.alpha * complex(mp(beta)).conjugate() * z)
        kernel_res = max(kernel_res, abs(lhs - rhs))
    residuals.append((0, kernel_res))

    ok = all(v <= tol for n, v in residuals if n > 0) and kernel_res <= tol_kernel
    return CheckReport(
        check_name="selfadjoint-forward",
        params_echo=params.echo(),
        residuals=tuple(residuals),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        notes="; ".join(notes),
    )


def check_selfadjoint_reverse(
    weight: WcoWeight,
    mp: AffineMap,
    params: FockParams | None = None,
    *,
    tol: float = IDENTITY_TOL,
) -> CheckReport:
    """Fit (c, a0, a1) from a symbol and test the self-adjoint shape.

    Reads c = weight(0), a0 = offset, a1 = slope, then requires c and a1
    real and the weight to match c * e^{alpha * conj(a0) * z}
    coefficientwise at the working order.
    """
    if not isinstance(mp, AffineMap):
        raise UnsupportedMapError("the reverse check requires an affine map")
    if params is None:
        params = FockParams(1.0, 32)
    c = complex(weight.value(0.0))
    a0 = mp.b
    a1 = mp.a
    model = exp_linear(params.alpha * a0.conjugate(), c, params)
    coeff_res = weight.materialize(params).max_abs_diff(model)
    residuals = ((0, abs(c.imag)), (0, abs(a1.imag)), (params.order, coeff_res))
    ok = abs(c.imag) <= tol and abs(a1.imag) <= tol and coeff_res <= tol
    return CheckReport(
        check_name="selfadjoint-reverse",
        params_echo={"c": c, "a0": a0, "a1": a1, "alpha": params.alpha, "order": params.order},
        residuals=residuals,
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        notes=f"fitted c={format_complex(c)}, a0={format_complex(a0)}, a1={format_complex(a1)}",
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
    if samples is None:
        samples = circle_points(seed)
    poles = []
    if b != 0:
        poles.append(1.0 / b.conjugate())
        if mp.a != 0:
            # pole of h(map(z)): where conj(b) * map(z) = 1
            poles.append((1.0 - b.conjugate() * mp.b) / (b.conjugate() * mp.a))
    pts = drop_near_poles(np.asarray(samples), poles)
    if pts.size == 0:
        raise ValueError("all sample points fell within the pole margin")
    h = mobius_h(b)
    res = float(np.max(np.abs(h(mp(pts)) - conjugation_factor(mp, pts) * h(pts))))
    fixed_res = abs(mp(b) - b)
    ok = fixed_res <= FIXED_POINT_TOL and res <= tol
    return CheckReport(
        check_name="fixed-point",
        params_echo={"a0": mp.b, "a1": mp.a, "b": b, "samples": int(pts.size)},
        residuals=((0, fixed_res), (0, res)),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        notes=f"fixed point b={format_complex(b)}",
    )


def check_disk_criterion(
    draws: int = 200,
    boundary_points: int = 1000,
    *,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Closed-form disk criterion against the circle-sampling oracle.

    Random (a0, a1) draws straddle the self-map boundary; the closed form
    and the 1000-point boundary maximum must agree on every draw.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rng = np.random.default_rng(seed)
    disagreements = 0
    true_count = 0
    for _ in range(draws):
        a0 = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        a1 = float(rng.uniform(-1.2, 1.2))
        pred = disk_selfmap_criterion(a0, a1)
        orac = disk_boundary_oracle(a0, a1, boundary_points)
        true_count += pred
        disagreements += pred != orac
    return CheckReport(
        check_name="disk-criterion",
        params_echo={"draws": draws, "boundary_points": boundary_points, "seed": seed},
        residuals=((0, float(disagreements)),),
        verdict=Verdict.PASS if disagreements == 0 else Verdict.FAIL,
        notes=f"{true_count} of {draws} draws were self-maps",
    )


def check_eigen_identity(
    params: SelfAdjointSymbolParams,
    j_max: int = 5,
    samples=None,
    *,
    tol: float = 1e-10,
    tol_kernel_coeffs: float = 1e-11,
    kernel_order: int = 32,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Pointwise eigen-identities for the conjugated family e_j.

    With e_j(z) = e^{alpha (conj(b) z - |b|^2 / 2)} h(z)^j and the
    z-dependent conjugation factor, the image of e_j under the symbol must
    equal conj(weight(b)) * factor(z)^j * e_j(z) at every sample point.
    The j = 0 case is additionally verified coefficientwise: the kernel at
    b is an exact eigenvector with eigenvalue conj(weight(b)).
    """
    if abs(params.a1.imag) > IDENTITY_TOL:
        raise ValueError("a1 must be real for the eigen-identity hypothesis")
    a1 = params.a1.real
    mag = abs(params.a0)
    if not (-1.0 + mag - IDENTITY_TOL <= a1 < 1.0 - mag):
        raise ValueError(f"(a0, a1)=({params.a0}, {a1}) violates -1+|a0| <= a1 < 1-|a0|")

    mp = params.map()
    weight = params.weight()
    b = fixed_point(mp)
    if samples is None:
        samples = circle_points(seed)
    poles = [1.0 / b.conjugate()] if b != 0 else []
    pts = drop_near_poles(np.asarray(samples), poles)

    h = mobius_h(b)
    alpha = params.alpha

    def e_j(z, j):
        envelope = np.exp(alpha * (b.conjugate() * np.asarray(z) - abs(b) ** 2 / 2.0))
        return envelope * h(z) ** j if j else envelope

    eig = complex(weight.value(b)).conjugate()
    factor = conjugation_factor(mp, pts)
    residuals: list[tuple[int, float]] = []
    worst = 0.0
    per_j = []
    for j in range(j_max + 1):
        lhs = weight.value(pts) * e_j(mp(pts), j)
        rhs = eig * factor**j * e_j(pts, j)
        rj = float(np.max(np.abs(lhs - rhs)))
        per_j.append(f"j={j}: {rj:.2e}")
        worst = max(worst, rj)
    residuals.append((0, worst))

    kparams = FockParams(alpha, kernel_order)
    k_b = kernel_series(b, kparams)
    image = apply_wco(params.symbol(), k_b)
    coeff_res = image.max_abs_diff(eig * k_b)
    residuals.append((kernel_order, coeff_res))

    ok = worst <= tol and coeff_res <= tol_kernel_coeffs
    return CheckReport(
        check_name="eigen-identity",
        params_echo={**params.echo(), "j_max": j_max, "b": b, "samples": int(pts.size)},
        residuals=tuple(residuals),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        notes="; ".join(per_j),
    )


def check_fixed_point_transfer(
    f_params: SelfAdjointSymbolParams,
    psi,
    g: WcoWeight,
    samples=None,
    *,
    tol: float = 1e-10,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Transfer of the fixed point to a commuting companion map.

    Measures |psi(b) - b|.  When the two maps commute pointwise on the
    sample set the transfer is asserted; otherwise the report is purely
    informational (commutation is the hypothesis, not a conclusion).
    """
    mp = f_params.map()
    b = fixed_point(mp)
    if samples is None:
        samples = circle_points(seed)
    poles = [map_pole(psi)]
    pts = drop_near_poles(np.asarray(samples), poles)
    # psi(map(z)) also needs map(z) away from the psi pole
    pole = map_pole(psi)
    if pole is not None:
        pts = pts[np.abs(mp(pts) - pole) >= 1e-3]
    if pts.size == 0:
        raise ValueError("all sample points fell within the pole margin")

    # only a zero breaks the hypothesis: exponential weights reach 1e-18 at alpha 8
    g_min = float(np.min(np.abs(g.value(pts))))
    if g_min == 0 or not math.isfinite(g_min):
        raise ValueError("companion weight vanishes or is not finite on the sample set")

    transfer_res = abs(complex(psi(b)) - b)
    commute_res = float(np.max(np.abs(mp(psi(pts)) - psi(mp(pts)))))
    commutes = commute_res <= 1e-10

    if commutes:
        verdict = Verdict.PASS if transfer_res <= tol else Verdict.FAIL
        note = "maps commute pointwise; transfer asserted"
    else:
        verdict = Verdict.INFORMATIONAL
        note = "maps do not commute pointwise; transfer reported, not asserted"
    return CheckReport(
        check_name="fixed-point-transfer",
        params_echo={**f_params.echo(), "b": b, "samples": int(pts.size)},
        residuals=((0, transfer_res), (0, commute_res)),
        verdict=verdict,
        notes=note + f"; min |g| on samples {g_min:.3g}",
    )


# ---------------------------------------------------------------------------
# the commutant family
# ---------------------------------------------------------------------------


def commutant_symbols(
    eta: complex,
    b: complex,
    *,
    alpha: float = 1.0,
    g_scale: complex = 1.0,
) -> tuple[LinearFractionalMap, WcoWeight, CommutantParams]:
    """Construct the commutant candidate (psi, g) attached to (eta, b).

    psi is the linear fractional map conjugate to multiplication by eta
    under the disk involution at b; g is derived from the generating
    identity g(z) = g(b) * e^{alpha * conj(b) * (z - psi(z))}, which is
    taken as the definition (the two offset-form printings of g disagree
    with each other and with this identity in the sign of the d3 term, so
    the generating identity is the only unambiguous source).
    """
    cp = CommutantParams.from_eta_b(eta, b)
    b = cp.b
    eta = cp.eta
    psi = LinearFractionalMap(
        abs(b) ** 2 - eta,
        (eta - 1.0) * b,
        b.conjugate() * (1.0 - eta),
        abs(b) ** 2 * eta - 1.0,
    )
    if eta == 1.0:
        weight: WcoWeight = ExpLinearWeight(g_scale, 0.0)
    else:
        weight = ExpDisplacementWeight(g_scale, alpha * b.conjugate(), psi)
    return psi, weight, cp


def check_commutant_symbols(
    eta: complex,
    b: complex,
    samples=None,
    *,
    tol: float = IDENTITY_TOL,
    alpha: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Consistency of the two closed forms of psi and its conjugation.

    Verifies that the offset form d0 + d2 z / (1 - d1 z) and the linear
    fractional form agree pointwise, that psi(0) = d0, and that psi
    satisfies the disk-involution conjugation identity.  For eta = 1 the
    family must degenerate exactly to the identity map with d0 = d1 = 0 and
    d2 = 1.  The commutation residual of the generated pair against its
    self-adjoint partner is reported in the notes, never asserted: the
    family's two composition orders genuinely differ for eta != 1.
    """
    psi, weight, cp = commutant_symbols(eta, b, alpha=alpha)
    if samples is None:
        samples = circle_points(seed)
    # rational evaluations stay well conditioned a bit away from the pole
    pts = drop_near_poles(np.asarray(samples), [map_pole(psi), cp.offset_form_pole()], margin=1e-2)
    if pts.size == 0:
        raise ValueError("all sample points fell within the pole margin")

    mobius_vals = psi(pts)
    offset_vals = cp.offset_form(pts)
    scale = np.maximum(1.0, np.abs(mobius_vals))
    form_res = float(np.max(np.abs(mobius_vals - offset_vals) / scale))
    psi0_res = abs(complex(psi(0.0)) - cp.d0)

    h = mobius_h(cp.b)
    conj_res = float(np.max(np.abs((mobius_vals - cp.b) / (cp.b.conjugate() * mobius_vals - 1.0) - cp.eta * h(pts))))

    residuals = [(0, form_res), (0, psi0_res), (0, conj_res)]
    notes = [
        f"d0={format_complex(cp.d0)}, d1={format_complex(cp.d1)}, "
        f"d2={format_complex(cp.d2)}, d3={format_complex(cp.d3)}",
        "g evaluated from the generating displacement identity; note the exact "
        "expansion z - psi(z) = z + (-d0 - d3 z)/(1 - d1 z), so offset rewritings "
        "of g with a d0 denominator or a +d3 numerator describe different functions",
    ]
    degeneration_ok = True
    if cp.eta == 1.0:
        degeneration = max(
            abs(cp.d0),
            abs(cp.d1),
            abs(cp.d2 - 1.0),
            abs(psi.p / psi.s - 1.0),
            abs(psi.q),
            abs(psi.r),
        )
        residuals.append((0, degeneration))
        degeneration_ok = degeneration == 0.0
        notes.append("eta=1 degeneration: psi is exactly the identity")
    if abs(cp.d0) > 1.0:
        notes.append(f"|d0|={abs(cp.d0):.6g} > 1: psi(0) lies outside the unit disk")

    # informational commutation residual against the matched self-adjoint partner
    f_params = SelfAdjointSymbolParams(1.0, 0.75 * cp.b, 0.25, alpha)
    comm_res = _pointwise_commutation_residual(f_params, psi, weight, seed)
    notes.append(f"pointwise commutation residual vs matched self-adjoint partner: {comm_res:.3e} (reported only)")

    ok = form_res <= tol and psi0_res <= tol and conj_res <= tol and degeneration_ok
    return CheckReport(
        check_name="commutant-symbols",
        params_echo=cp.echo(),
        residuals=tuple(residuals),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        notes="; ".join(notes),
    )


def _pointwise_commutation_residual(
    f_params: SelfAdjointSymbolParams,
    psi,
    g: WcoWeight,
    seed: int,
) -> float:
    """max over samples of |f g(phi) t(psi(phi)) - g f(psi) t(phi(psi))|.

    t is a fixed exponential test function.  Samples sit on a small circle
    chosen inside the convergence-friendly region so the displacement
    weight stays finite.
    """
    mp = f_params.map()
    f = f_params.weight()
    pole = map_pole(psi)
    radius = 0.2
    if pole is not None:
        radius = min(radius, 0.5 * abs(pole))
    pts = radius * np.exp(1j * 2.0 * np.pi * np.arange(8) / 8.0)
    if pole is not None:
        pts = pts[(np.abs(mp(pts) - pole) >= 1e-3) & (np.abs(pts - pole) >= 1e-3)]
    if pts.size == 0:
        return math.nan

    def test_fn(z):
        return np.exp(0.5 * np.asarray(z))

    try:
        lhs = f.value(pts) * g.value(mp(pts)) * test_fn(psi(mp(pts)))
        rhs = g.value(pts) * f.value(psi(pts)) * test_fn(mp(psi(pts)))
    except (OverflowError, ValueError):
        return math.inf
    return float(np.max(np.abs(lhs - rhs)))


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
    over pole-filtered samples.
    """
    b = complex(b)
    if samples is None:
        samples = circle_points(seed)
    poles = [map_pole(psi)]
    if b != 0:
        poles.append(1.0 / b.conjugate())
    pts = drop_near_poles(np.asarray(samples), poles)
    if pts.size == 0:
        raise ValueError("all sample points fell within the pole margin")
    vals = psi(pts)
    lhs = (vals - b) / (b.conjugate() * vals - 1.0)
    rhs = complex(eta) * mobius_h(b)(pts)
    res = float(np.max(np.abs(lhs - rhs)))
    return CheckReport(
        check_name="moebius-conjugation",
        params_echo={"eta": complex(eta), "b": b, "samples": int(pts.size)},
        residuals=((0, res),),
        verdict=Verdict.PASS if res <= tol else Verdict.FAIL,
    )


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

    if eta == 1.0:
        # psi collapses to the identity; both orders equal the affine map
        identity_res = max(
            outer_after_inner.projective_residual(phi.coefficients()),
            inner_after_outer.projective_residual(phi.coefficients()),
        )
        residuals = ((0, res_true_oai), (0, res_iao), (0, identity_res))
        ok = res_true_oai <= tol and res_iao <= tol and identity_res <= tol
        notes.append("eta=1: both composition orders collapse to the affine map itself")
        return CheckReport(
            check_name="counterexample",
            params_echo={"eta": eta, "b": 2.0 / 3.0},
            residuals=residuals,
            verdict=Verdict.PASS if ok else Verdict.FAIL,
            notes="; ".join(notes),
        )

    at0_oai = complex(outer_after_inner(0.0))
    at0_iao = complex(inner_after_outer(0.0))
    differ = abs(at0_oai - at0_iao)
    var = _tuple_outer_after_inner_variant(eta)
    variant_at0 = var[1] / var[3]
    notes.append(
        f"values at 0: outer-after-inner {format_complex(at0_oai)}, "
        f"inner-after-outer {format_complex(at0_iao)}, variant tuple {format_complex(variant_at0)}"
    )
    residuals = ((0, res_true_oai), (0, res_iao))
    ok = res_true_oai <= tol and res_iao <= tol and differ > 1e-6
    return CheckReport(
        check_name="counterexample",
        params_echo={"eta": eta, "b": 2.0 / 3.0},
        residuals=residuals,
        verdict=Verdict.PASS if ok else Verdict.FAIL,
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
    family degenerates.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    accepted = 0
    while accepted < draws:
        b = complex(rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        eta = complex(rng.uniform(-2.0, 2.5), rng.uniform(-1.0, 1.0))
        if abs(abs(b) ** 2 * eta - 1.0) < 0.05 or abs(eta) < 0.05:
            continue
        psi, _, _ = commutant_symbols(eta, b)
        sub = check_moebius_conjugation(psi, b, eta, seed=seed + accepted)
        worst = max(worst, sub.max_residual)
        accepted += 1
    return CheckReport(
        check_name="moebius-conjugation",
        params_echo={"draws": draws, "seed": seed},
        residuals=((0, worst),),
        verdict=Verdict.PASS if worst <= tol else Verdict.FAIL,
        notes=f"max residual over {draws} (eta, b) draws",
    )


def check_adjoint_factorization_battery(
    map_draws: int = 20,
    params: FockParams | None = None,
    *,
    tol: float = 1e-11,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Adjoint factorization over random strictly bounded affine maps."""
    if map_draws < 1:
        raise ValueError(f"draws must be at least 1, got {map_draws}")
    rng = np.random.default_rng(seed)
    worst_kernel = 0.0
    worst_matrix = 0.0
    all_ok = True
    for i in range(map_draws):
        a = complex(rng.uniform(0.0, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        b = complex(rng.uniform(0.0, 0.8) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        sub = check_cphi_adjoint_factorization(AffineMap(a, b), params=params, tol=tol, seed=seed + i)
        worst_kernel = max(worst_kernel, sub.residuals[0][1])
        worst_matrix = max(worst_matrix, sub.residuals[1][1])
        all_ok = all_ok and sub.passed
    order = params.order if params is not None else 32
    return CheckReport(
        check_name="adjoint-factorization",
        params_echo={"map_draws": map_draws, "seed": seed, "order": order},
        residuals=((order, worst_kernel), (order, worst_matrix)),
        verdict=Verdict.PASS if all_ok else Verdict.FAIL,
        notes=f"worst kernel-level and finite-section residuals over {map_draws} random bounded maps",
    )


def check_degenerate_commutant(
    b: complex,
    f_params: SelfAdjointSymbolParams,
    *,
    order: int = 32,
    tol_scalar: float = 1e-14,
    tol: float = IDENTITY_TOL,
    tol_normal: float = 1e-14,
) -> CheckReport:
    """The bounded degeneration of the commutant family: a scalar operator.

    With the identity map and the constant weight e^{-alpha |b|^2 / 2}, the
    finite section must be exactly that scalar times the identity, commute
    with the self-adjoint partner, classify as bounded unitary composition,
    and be normal.
    """
    b = complex(b)
    mp = f_params.map()
    if abs(mp(b) - b) > 1e-12:
        raise ValueError(f"{b} is not a fixed point of the partner map")
    params = FockParams(f_params.alpha, order)
    g_const = math.exp(-f_params.alpha * abs(b) ** 2 / 2.0)
    identity_map = AffineMap(1.0, 0.0)
    sym_g = WcoSymbol(ExpLinearWeight(g_const, 0.0), identity_map)
    mat_g = assemble_matrix(sym_g, params)

    scalar_res = float(np.max(np.abs(mat_g.entries - g_const * np.eye(params.order + 1))))
    mat_f = assemble_matrix(f_params.symbol(), params)
    comm_res = commutator_residual(mat_g, mat_f, max(1, order // 2))
    normal_res = commutator_residual(adjoint_matrix(mat_g), mat_g, max(1, order // 2))
    bounded = boundedness_check(identity_map)

    ok = (
        scalar_res <= tol_scalar
        and comm_res <= tol
        and normal_res <= tol_normal
        and bounded is Boundedness.BOUNDED_UNITARY
    )
    return CheckReport(
        check_name="degenerate-commutant",
        params_echo={**f_params.echo(), "b": b, "order": order},
        residuals=((order, scalar_res), (order, comm_res), (order, normal_res)),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        notes=f"constant weight {g_const!r}; composition classified {bounded.value}",
    )


# ---------------------------------------------------------------------------
# adjoint factorization and normality
# ---------------------------------------------------------------------------


def check_cphi_adjoint_factorization(
    mp: AffineMap,
    samples=None,
    params: FockParams | None = None,
    *,
    tol: float = 1e-11,
    tol_matrix: float = 1e-8,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Adjoint of a composition operator as multiplier times rotation.

    For each sample beta the kernel at map(beta) must equal the kernel
    multiplier at the offset applied to the conj(slope)-rotated kernel at
    beta, coefficientwise.  The finite-section adjoint applied to the
    truncated kernel cross-checks the leading half of the coefficients
    whenever the composition operator is bounded.
    """
    if abs(mp.a) > 1.0 + IDENTITY_TOL:
        raise ValueError(f"slope magnitude {abs(mp.a)} exceeds 1; adjoint factorization needs |a| <= 1")
    if params is None:
        params = FockParams(1.0, 32)
    if samples is None:
        samples = circle_points(seed)
    pts = np.asarray(samples)

    multiplier = kernel_series(mp.b, params)
    rotation = affine_composition_matrix(mp.a.conjugate(), 0.0, params.order)
    c_phi = WcoSymbol(ExpLinearWeight(1.0, 0.0), mp)
    bounded = boundedness_check(mp) is not Boundedness.UNBOUNDED
    mat_adj = adjoint_matrix(assemble_matrix(c_phi, params)) if bounded else None
    half = (params.order + 1) // 2

    kernel_res = 0.0
    matrix_res = 0.0
    for beta in pts:
        lhs = adjoint_on_kernel(c_phi, beta, params)
        rotated = TruncatedSeries(rotation @ kernel_series(beta, params).coeffs, params)
        rhs = multiplier * rotated
        kernel_res = max(kernel_res, lhs.max_abs_diff(rhs))
        if mat_adj is not None:
            applied = orthonormal_to_monomial(
                mat_adj.apply(monomial_to_orthonormal(kernel_series(beta, params))), params
            )
            matrix_res = max(matrix_res, float(np.max(np.abs(applied.coeffs[:half] - lhs.coeffs[:half]))))

    residuals = [(params.order, kernel_res)]
    notes = ""
    if bounded:
        residuals.append((params.order, matrix_res))
    else:
        notes = "composition operator unbounded; matrix cross-check skipped"
    ok = kernel_res <= tol and (not bounded or matrix_res <= tol_matrix)
    return CheckReport(
        check_name="adjoint-factorization",
        params_echo={"a": mp.a, "b": mp.b, "alpha": params.alpha, "order": params.order, "samples": int(pts.size)},
        residuals=tuple(residuals),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        notes=notes,
    )


def _is_constant_weight(weight: WcoWeight) -> bool:
    if isinstance(weight, ExpLinearWeight):
        return weight.w == 0
    if isinstance(weight, SeriesWeight):
        return bool(np.all(weight.series.coeffs[1:] == 0))
    return False


def check_normality(
    weight: WcoWeight,
    mp: AffineMap,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    *,
    alpha: float = 1.0,
    tol: float = 1e-9,
    nonnormal_factor: float = 10.0,
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
    bounded = boundedness_check(mp)
    notes = [f"criterion (slope 1 or offset 0): {criterion}"]
    if not _is_constant_weight(weight):
        notes.append("non-constant weight: the slope/offset predicate is not expected to govern")

    if bounded is Boundedness.UNBOUNDED:
        notes.append("unbounded composition map: criterion-only report, no matrix path")
        return CheckReport(
            check_name="normality",
            params_echo={"a": mp.a, "b": mp.b, "alpha": alpha},
            residuals=((0, 0.0),),
            verdict=Verdict.INFORMATIONAL,
            notes="; ".join(notes),
        )

    sym = WcoSymbol(weight, mp)
    blocks = [max(1, n // 2) for n in orders]
    residuals = []
    for n, block in zip(orders, blocks):
        mat = assemble_matrix(sym, FockParams(alpha, n))
        residuals.append((n, commutator_residual(adjoint_matrix(mat), mat, block)))
    values = [v for _, v in residuals]

    if criterion:
        ok = all(v <= tol for v in values)
        if not ok:
            notes.append("measured commutator contradicts the predicate (operator is not normal)")
    else:
        floor = nonnormal_factor * tol
        big_enough = all(v >= floor for v in values)
        # np.linalg.norm of a K = block^2 complex block is sqrt(re.re + im.im).
        # Each dot product of K non-negative terms is within gamma_K = K u / (1 - K u)
        # of exact (Higham, Accuracy and Stability of Numerical Algorithms, eq. 3.5),
        # their sum within gamma_{K+1}, and the square root keeps that relative
        # error (|sqrt(1 + t) - 1| <= |t|) plus one rounding: gamma_{K+2}.  A
        # decrease fails unless the exact norms could still be non-decreasing.
        u = np.finfo(np.float64).eps / 2
        slack = [(k * k + 2) * u / (1.0 - (k * k + 2) * u) for k in blocks]
        monotone = all(
            values[i + 1] * (1.0 + slack[i + 1]) >= values[i] * (1.0 - slack[i]) for i in range(len(values) - 1)
        )
        ok = big_enough and (monotone or len(values) < 2)
        if not big_enough:
            notes.append("measured commutator is small although the predicate declares non-normal")
        elif not monotone:
            notes.append("non-normal residual not non-decreasing across orders")
    return CheckReport(
        check_name="normality",
        params_echo={"a": mp.a, "b": mp.b, "alpha": alpha},
        residuals=tuple(residuals),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        notes="; ".join(notes),
    )
