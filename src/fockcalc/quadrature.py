"""Quadrature oracle for the Gaussian-weighted inner product.

Independent numerical integration used only to validate the exact series
paths; nothing in here is consulted by the checkers' pass/fail logic.

The integral (alpha/pi) * int f(z) conj(g(z)) e^{-alpha |z|^2} dA(z) is
evaluated in polar coordinates: equally spaced trapezoid in the angle
(exact for trigonometric polynomials of degree below the node count) and
composite Gauss-Legendre panels in the radius, with the radial weights
carrying the e^{-alpha r^2} r measure factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import FockParams, ParamsMismatchError, TruncatedSeries, inner_product, orthonormal_basis_element
from .operators import AffineMap, UnsupportedMapError, WcoSymbol
from .report import CheckReport, Verdict

__all__ = [
    "QuadratureGrid",
    "check_oracle_agreement",
    "cutoff_radius",
    "default_grid",
    "quad_gram",
    "quad_inner_product",
    "quad_matrix_entry",
]


def cutoff_radius(params: FockParams) -> float:
    """Radius beyond which the Gaussian tail is negligible at this order.

    Chosen so that e^{-alpha R^2} R^{2N} is far below double precision
    relative to the integrand scale, capped where e^{-alpha R^2} itself
    stays representable in float64 (the capped tail is smaller still).
    """
    heuristic = math.sqrt(16.0 * params.order * math.log(10.0) / params.alpha)
    representable = math.sqrt(700.0 / params.alpha)
    return min(heuristic, representable)


@dataclass(frozen=True)
class QuadratureGrid:
    """Polar product grid: radial (node, weight) pairs and angular count.

    Radial weights already include the e^{-alpha r^2} r factor, so an
    integral against the planar Gaussian measure reduces to
    2*alpha * sum_i w_i * (angular mean at r_i).
    """

    radial_nodes: np.ndarray
    angular_count: int
    cutoff: float
    alpha: float
    panels: int | None = None
    nodes_per_panel: int | None = None

    def __post_init__(self) -> None:
        nodes = np.asarray(self.radial_nodes, dtype=np.float64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("radial_nodes must be an (n, 2) array of (radius, weight)")
        if np.any(nodes[:, 1] <= 0):
            raise ValueError("radial weights must be positive")
        if self.angular_count < 64:
            raise ValueError(f"angular_count must be at least 64, got {self.angular_count}")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        object.__setattr__(self, "radial_nodes", nodes)

    def refined(self, factor: int = 2) -> "QuadratureGrid":
        """Same rule with the radial panel count multiplied by factor."""
        if self.panels is None or self.nodes_per_panel is None:
            raise ValueError("refinement needs a panel layout; build the grid with default_grid")
        return _build_grid(self.alpha, self.cutoff, self.panels * factor, self.nodes_per_panel, self.angular_count)

    def points(self) -> np.ndarray:
        """Complex grid points, shape (n_radial, angular_count)."""
        theta = 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count
        return self.radial_nodes[:, 0][:, None] * np.exp(1j * theta)[None, :]


def _build_grid(alpha: float, radius: float, panels: int, per_panel: int, angular: int) -> QuadratureGrid:
    base_x, base_w = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(0.0, radius, panels + 1)
    radii = []
    weights = []
    for left, right in zip(edges[:-1], edges[1:]):
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        r = mid + half * base_x
        w = half * base_w * np.exp(-alpha * r**2) * r
        radii.append(r)
        weights.append(w)
    nodes = np.column_stack([np.concatenate(radii), np.concatenate(weights)])
    return QuadratureGrid(nodes, angular, radius, alpha, panels, per_panel)


def default_grid(
    params: FockParams,
    angular_count: int | None = None,
    panels: int = 16,
    nodes_per_panel: int = 16,
) -> QuadratureGrid:
    if angular_count is None:
        angular_count = max(64, 4 * (params.order + 1))
    return _build_grid(params.alpha, cutoff_radius(params), panels, nodes_per_panel, angular_count)


def _check_resolution(grid: QuadratureGrid, params: FockParams) -> None:
    if grid.angular_count <= 2 * params.order:
        raise ValueError(
            f"grid too coarse: angular_count {grid.angular_count} must exceed 2*order = {2 * params.order}"
        )


# Radial nodes evaluated together by quad_gram: one default panel.  Stacking
# the whole grid at once is barely faster, but holds every series' values on
# every point and raises the oracle benchmark's peak memory by about a quarter.
GRAM_BLOCK = 16


def _point_weights(grid: QuadratureGrid) -> np.ndarray:
    """Weight of each grid point on radial node r: 2*alpha * w_r / angular_count."""
    return 2.0 * grid.alpha * grid.radial_nodes[:, 1] / grid.angular_count


def quad_gram(series: list[TruncatedSeries], grid: QuadratureGrid) -> np.ndarray:
    """Quadrature Gram matrix: G[i, j] is the polar quadrature of <s_i, s_j>.

    The grid is swept GRAM_BLOCK radial nodes at a time; in each block every
    series is evaluated once by Horner's rule and the weighted products of
    all pairs are accumulated as one matrix product.
    """
    params = series[0].params
    for s in series[1:]:
        if s.params != params:
            raise ParamsMismatchError(f"series params differ: {params} vs {s.params}")
    _check_resolution(grid, params)
    pts = grid.points()
    weights = _point_weights(grid)
    gram = np.zeros((len(series), len(series)), dtype=np.complex128)
    for start in range(0, pts.shape[0], GRAM_BLOCK):
        block = pts[start : start + GRAM_BLOCK]
        vals = np.stack([s(block).ravel() for s in series])
        w = np.repeat(weights[start : start + GRAM_BLOCK], grid.angular_count)
        gram += (vals * w) @ vals.conj().T
    return gram


def quad_inner_product(f: TruncatedSeries, g: TruncatedSeries, grid: QuadratureGrid) -> complex:
    """Polar quadrature of the weighted inner product of two series."""
    return complex(quad_gram([f, g], grid)[0, 1])


def quad_matrix_entry(sym: WcoSymbol, n: int, m: int, grid: QuadratureGrid, params: FockParams) -> complex:
    """Quadrature evaluation of the finite-section entry <W e_n, e_m>.

    The operator image is evaluated pointwise in closed form on the grid
    (weight value times the mapped normalized monomial), independently of
    the series-composition machinery it validates.
    """
    if not isinstance(sym.map, AffineMap):
        raise UnsupportedMapError("matrix entries require an affine map")
    for idx in (n, m):
        if not 0 <= idx <= params.order:
            raise ValueError(f"basis index {idx} outside 0..{params.order}")
    _check_resolution(grid, params)
    norms = params.monomial_norms()
    pts = grid.points()
    image = sym.weight.value(pts) * sym.map(pts) ** n / norms[n]
    vals = image * np.conj(pts**m / norms[m])
    return complex(_point_weights(grid) @ vals.sum(axis=1))


def check_oracle_agreement(
    max_degree: int = 16,
    alphas: tuple[float, ...] = (0.5, 1.0, 2.0),
    *,
    tol: float = 1e-8,
) -> CheckReport:
    """Exact vs quadrature inner products on the full monomial suite.

    The pairs are compared in normalized form (each monomial scaled to unit
    norm), which keeps every target value at 0 or 1.  Raw monomials are not
    usable here: their diagonal values grow like n!/alpha^n (about 1.4e18 at
    alpha = 0.5, degree 16) and the angular cancellation of off-diagonal
    pairs is only exact relative to that integrand scale, so no double
    precision quadrature can reach a fixed absolute tolerance on them.
    """
    worst = 0.0
    residuals = []
    for alpha in alphas:
        params = FockParams(alpha, max_degree)
        basis = [orthonormal_basis_element(n, params) for n in range(max_degree + 1)]
        gram = quad_gram(basis, default_grid(params))
        dev = 0.0
        for n, e_n in enumerate(basis):
            for m in range(n, max_degree + 1):
                dev = max(dev, abs(gram[n, m] - inner_product(e_n, basis[m])))
        residuals.append((max_degree, dev))
        worst = max(worst, dev)
    return CheckReport(
        check_name="oracle-agreement",
        params_echo={"max_degree": max_degree, "alphas": list(alphas)},
        residuals=tuple(residuals),
        verdict=Verdict.PASS if worst <= tol else Verdict.FAIL,
        notes="one residual per alpha, in the order given; normalized monomial pairs",
    )
