"""Quadrature oracle for the Gaussian-weighted inner product.

Independent numerical integration used only to validate the exact series
paths; nothing in here is consulted by the checkers' pass/fail logic.

The integral (alpha/pi) * int f(z) conj(g(z)) e^{-alpha |z|^2} dA(z) is
evaluated in polar coordinates: equally spaced trapezoid in the angle
(exact for trigonometric polynomials of degree below the node count) and
composite Gauss-Legendre panels in the radius, with the radial weights
carrying the e^{-alpha r^2} r measure factor.

The rule's sum over grid points is reassociated exactly: scaled powers
z^k / s_k split into radial and phase tables, and the angular sums of all
degree pairs form one phase Gram, so no series is evaluated point by point.
The oracle computes its scale s_k itself and never borrows the exact norms.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .series import FockParams, TruncatedSeries, _Record, common_params, gram
from .operators import AffineMap, UnsupportedMapError, WcoSymbol
from .report import CheckReport, Rule

__all__ = [
    "QuadratureGrid",
    "check_oracle_agreement",
    "cutoff_radius",
    "default_grid",
    "quad_gram",
    "quad_inner_product",
    "quad_matrix_entry",
]


# largest deviation check_oracle_agreement accepts between normalized exact and quadrature inner products
ORACLE_TOL = 1e-8


def cutoff_radius(params: FockParams) -> float:
    """Radius beyond which the Gaussian tail is negligible at this order.

    Chosen so that e^{-alpha R^2} R^{2N} is far below double precision
    relative to the integrand scale, capped where e^{-alpha R^2} itself
    stays representable in float64 (the capped tail is smaller still).
    """
    heuristic = math.sqrt(16.0 * params.order * math.log(10.0) / params.alpha)
    representable = math.sqrt(700.0 / params.alpha)
    return min(heuristic, representable)


class QuadratureGrid(_Record, eq=False):
    """Polar product grid: radial (node, weight) pairs and angular count.

    Radial weights already include the e^{-alpha r^2} r factor, so an
    integral against the planar Gaussian measure reduces to
    2*alpha * sum_i w_i * (angular mean at r_i).
    """

    radial_nodes: np.ndarray
    angular_count: int
    cutoff: float
    alpha: float

    def __init__(self, radial_nodes, angular_count: int, cutoff: float, alpha: float) -> None:
        nodes = np.asarray(radial_nodes, dtype=np.float64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("radial_nodes must be an (n, 2) array of (radius, weight)")
        if np.any(nodes[:, 1] <= 0):
            raise ValueError("radial weights must be positive")
        if angular_count < 64:
            raise ValueError(f"angular_count must be at least 64, got {angular_count}")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        object.__setattr__(self, "radial_nodes", nodes)
        object.__setattr__(self, "angular_count", angular_count)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "alpha", alpha)

    def roots(self) -> np.ndarray:
        """The angular_count-th roots of unity e^{2 pi i a / A}, a = 0..A-1: the angles of every ring."""
        return np.exp(1j * (2.0 * np.pi * np.arange(self.angular_count) / self.angular_count))


@functools.lru_cache(maxsize=None)
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], once per node count (numpy.polynomial loads on first use)."""
    return np.polynomial.legendre.leggauss(nodes)


def _build_grid(alpha: float, radius: float, panels: int, per_panel: int, angular: int) -> QuadratureGrid:
    base_x, base_w = _legendre(per_panel)
    edges = np.linspace(0.0, radius, panels + 1)
    # one row per panel: its half-width and midpoint map [-1, 1] onto it
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    r = (mid + half * base_x).ravel()
    w = (half * base_w).ravel() * np.exp(-alpha * r**2) * r
    return QuadratureGrid(np.column_stack([r, w]), angular, radius, alpha)


def default_grid(params: FockParams) -> QuadratureGrid:
    """16 radial panels of 16 Gauss-Legendre nodes to the cutoff radius, and 4 (N+1) angles, at least 64."""
    return _build_grid(params.alpha, cutoff_radius(params), 16, 16, max(64, 4 * (params.order + 1)))


def _point_weights(grid: QuadratureGrid) -> np.ndarray:
    """Weight of each grid point on radial node r: 2*alpha * w_r / angular_count."""
    return 2.0 * grid.alpha * grid.radial_nodes[:, 1] / grid.angular_count


def _scale_and_phases(params: FockParams, grid: QuadratureGrid, degrees) -> tuple[np.ndarray, np.ndarray]:
    """Scale steps s_k / s_{k-1} and phase rows P[k, a] = e^{2 pi i k a / A} for k in degrees.

    s_k = sqrt(k! / alpha^k) is the oracle's own scale (raw powers such as 37^200
    overflow); P indexes the roots by k a mod A, so no angle grows with k.
    """
    count = grid.angular_count
    if count <= 2 * params.order:
        raise ValueError(f"grid too coarse: angular_count {count} must exceed 2*order = {2 * params.order}")
    steps = np.sqrt(np.arange(1, params.order + 1) / params.alpha)
    return steps, grid.roots()[np.multiply.outer(degrees, np.arange(count)) % count]


def quad_gram(series: list[TruncatedSeries], grid: QuadratureGrid) -> np.ndarray:
    """Quadrature Gram matrix: G[i, j] is the polar quadrature of <s_i, s_j>.

    Series i at point (r, a) is sum_k C[i, k] R[k, r] P[k, a] with scaled coefficients
    C[i, k] = c_ik s_k and radial table R[k, r] = r^k / s_k, so the rule's
    sum_{r,a} w_r v_i conj(v_j) is C (Q o R W R^T) C^H, with o the entrywise product,
    W the point weights and Q = P P^H the phase Gram: the same finite sum, reassociated
    exactly.  Q is A I up to rounding, since the trapezoid rule is exact for
    trigonometric polynomials of degree below A and degrees differ by at most N < A;
    it is still computed from the roots, never assumed.  No exact norm is borrowed.
    """
    params = common_params(series)
    steps, phases = _scale_and_phases(params, grid, np.arange(params.order + 1))
    radial = np.ones((params.order + 1, grid.radial_nodes.shape[0]))
    radial[1:] = grid.radial_nodes[:, 0] / steps[:, None]
    np.cumprod(radial, axis=0, out=radial)
    scaled = np.stack([s.coeffs for s in series])
    scaled[:, 1:] *= np.cumprod(steps)
    return scaled @ ((phases @ phases.conj().T) * ((radial * _point_weights(grid)) @ radial.T)) @ scaled.conj().T


def quad_inner_product(f: TruncatedSeries, g: TruncatedSeries, grid: QuadratureGrid) -> complex:
    """Polar quadrature of the weighted inner product of two series."""
    return complex(quad_gram([f, g], grid)[0, 1])


def quad_matrix_entry(sym: WcoSymbol, n: int, m: int, grid: QuadratureGrid, params: FockParams) -> complex:
    """Quadrature evaluation of the finite-section entry <W e_n, e_m>.

    The image weight(z) map(z)^n / s_n is evaluated pointwise in closed form,
    as (map(z) s_n^{-1/n})^n with log s_n from the oracle's own scale steps, and
    paired with conj(e_m) = r^m / s_m conj(P[m, a]): only row m of the radial
    table is built, as quad_gram's running product of the quotients
    r / (s_k / s_{k-1}), k = 1..m, and only row m of the phase table.  weight(z)
    and map(z) at the grid points are evaluated once per (symbol, grid) pair and
    shared by its entries.  No series composition and no exact norm is used.
    """
    if not isinstance(sym.map, AffineMap):
        raise UnsupportedMapError("matrix entries require an affine map")
    for idx in (n, m):
        if not 0 <= idx <= params.order:
            raise ValueError(f"basis index {idx} outside 0..{params.order}")
    steps, (phase,) = _scale_and_phases(params, grid, np.array([m]))
    weight_values, map_values = _symbol_values(sym, grid)
    root = math.exp(-np.sum(np.log(steps[:n])) / max(n, 1))  # s_n^{-1/n}
    image = (map_values * root) ** n
    # weight first: a complex product rounds by operand order, which numpy may swap in weight * temporary
    np.multiply(weight_values, image, out=image)
    radial = np.prod(grid.radial_nodes[:, 0] / steps[:m, None], axis=0)  # r^m / s_m
    return complex((_point_weights(grid) * radial) @ (image @ phase.conj()))


@functools.lru_cache(maxsize=1)
def _symbol_values(sym: WcoSymbol, grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """weight(z) and map(z) at every grid point z = r_i * root_a, read-only; kept for one (symbol, grid) pair."""
    pts = grid.radial_nodes[:, 0][:, None] * grid.roots()[None, :]
    values = (sym.weight.value(pts), sym.map(pts))
    for v in values:
        v.setflags(write=False)
    return values


def check_oracle_agreement(max_degree: int, alphas: tuple[float, ...]) -> CheckReport:
    """Exact vs quadrature inner products on the full monomial suite.

    The pairs are compared in normalized form (each monomial scaled to unit
    norm), which keeps every target value at 0 or 1.  Raw monomials are not
    usable here: their diagonal values grow like n!/alpha^n (about 1.4e18 at
    alpha = 0.5, degree 16) and the angular cancellation of off-diagonal
    pairs is only exact relative to that integrand scale, so no double
    precision quadrature can reach a fixed absolute tolerance on them.
    """
    residuals = []
    for alpha in alphas:
        params = FockParams(alpha, max_degree)
        inv = 1.0 / params.monomial_norms()
        basis = [TruncatedSeries.monomial(n, params, inv[n]) for n in range(max_degree + 1)]
        dev = float(np.max(np.abs(np.triu(quad_gram(basis, default_grid(params)) - gram(basis)))))
        residuals.append((max_degree, dev, Rule(at_most=ORACLE_TOL)))
    return CheckReport(
        check_name="oracle-agreement",
        params_echo={"max_degree": max_degree, "alphas": list(alphas)},
        residuals=tuple(residuals),
        notes="one residual per alpha, in the order given; normalized monomial pairs",
    )
