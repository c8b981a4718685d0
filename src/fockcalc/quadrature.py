"""Quadrature oracle for the Gaussian-weighted inner product.

Independent numerical integration used only to validate the exact series
paths; nothing in here is consulted by the checkers' pass/fail logic.

The integral (alpha/pi) * int f(z) conj(g(z)) e^{-alpha |z|^2} dA(z) is
evaluated in polar coordinates: equally spaced trapezoid in the angle
(exact for trigonometric polynomials of degree below the node count) and
composite Gauss-Legendre panels in the radius, with the radial weights
carrying the e^{-alpha r^2} r measure factor.  A grid builds its nodes,
weights and panel layout from the rule's five numbers.

The rule's sum over grid points is reassociated exactly: scaled powers
z^k / s_k split into radial and phase tables, and the angular sums of all
degree pairs form one phase Gram per call, so no series is evaluated pointwise.
The core gives the Gram of the scaled monomials alone for a stack of
(params, grid) entries, forming the phase Gram from the first, and each caller
applies its own coefficients; check_oracle_agreement passes all its alphas at once.
The oracle computes its scale s_k itself and never borrows the exact norms.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from .series import FockParams, TruncatedSeries, _Record
from .operators import AffineMap, ExpLinearWeight, UnsupportedMapError, WcoSymbol
from .report import CheckReport, Rule

__all__ = [
    "QuadratureGrid",
    "check_oracle_agreement",
    "cutoff_radius",
    "default_grid",
    "quad_inner_product",
    "quad_matrix_entry",
]


# largest deviation check_oracle_agreement accepts between normalized exact and quadrature inner products
ORACLE_TOL = 1e-8


def cutoff_radius(params: FockParams) -> float:
    """Radius beyond which the Gaussian tail of monomial pairs is negligible at this order.

    Chosen so that e^{-alpha R^2} R^{2N}, the tail of z^k conj(z^l) for
    k, l <= N, is far below double precision relative to the integrand
    scale, capped where e^{-alpha R^2} itself stays representable in float64
    (the capped tail is smaller still).  It bounds that tail only: a matrix
    entry's integrand also carries the weight's |c| e^{|w| R} and the map's
    |map|^n, which the radius does not count, so an entry's tail can be larger.
    """
    heuristic = math.sqrt(16.0 * params.order * math.log(10.0) / params.alpha)
    representable = math.sqrt(700.0 / params.alpha)
    return min(heuristic, representable)


class QuadratureGrid(_Record, eq=False):
    """Polar product grid of a rule: per_panel Gauss-Legendre nodes on each of panels equal radial panels of
    [0, cutoff], and angular_count equally spaced angles.

    Radial weights already include the e^{-alpha r^2} r factor, so an
    integral against the planar Gaussian measure reduces to
    2*alpha * sum_i w_i * (angular mean at r_i).  The panel layout names
    node p K + k as panel_centres[p] + panel_offsets[k], within eps * cutoff:
    the panels' centres and the first panel's K offsets, whose half-width the
    others share up to rounding.
    """

    radial_nodes: np.ndarray
    angular_count: int
    cutoff: float
    alpha: float
    panel_centres: np.ndarray
    panel_offsets: np.ndarray

    def __init__(self, alpha: float, cutoff: float, panels: int, per_panel: int, angular_count: int) -> None:
        if angular_count < 64:
            raise ValueError(f"angular_count must be at least 64, got {angular_count}")
        base_x, base_w = _legendre(per_panel)
        edges = np.linspace(0.0, cutoff, panels + 1)
        # one row per panel: its half-width and midpoint map [-1, 1] onto it
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        r = (mid + half * base_x).ravel()
        w = (half * base_w).ravel() * np.exp(-alpha * r**2) * r
        # an oversized cutoff underflows e^{-alpha r^2}
        if (w <= 0).any():
            raise ValueError("radial weights must be positive")
        nodes, centres, offsets = np.column_stack([r, w]), mid[:, 0], half[0] * base_x
        roots = np.exp(1j * (2.0 * np.pi * np.arange(angular_count) / angular_count))
        for arr in (nodes, centres, offsets, roots):
            arr.setflags(write=False)
        object.__setattr__(self, "radial_nodes", nodes)
        object.__setattr__(self, "angular_count", angular_count)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "panel_centres", centres)
        object.__setattr__(self, "panel_offsets", offsets)
        object.__setattr__(self, "_roots", roots)

    def roots(self) -> np.ndarray:
        """The angular_count-th roots of unity e^{2 pi i a / A}, a = 0..A-1: the angles of every ring, formed once, read-only."""
        return self._roots


@functools.lru_cache(maxsize=None)
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], once per node count (numpy.polynomial loads on first use)."""
    return np.polynomial.legendre.leggauss(nodes)


def default_grid(params: FockParams) -> QuadratureGrid:
    """16 radial panels of 16 Gauss-Legendre nodes to the cutoff radius, and 4 (N+1) angles, at least 64."""
    return QuadratureGrid(params.alpha, cutoff_radius(params), 16, 16, max(64, 4 * (params.order + 1)))


def _point_weights(grid: QuadratureGrid) -> np.ndarray:
    """Weight of each grid point on radial node r: 2*alpha * w_r / angular_count."""
    return 2.0 * grid.alpha * grid.radial_nodes[:, 1] / grid.angular_count


def _scale_steps(order: int, alpha) -> np.ndarray:
    """Steps sqrt(k / alpha), k = 1..order, of the oracle's own scale s_k = sqrt(k! / alpha^k) (37^200 would overflow);
    a column of M alphas gives M rows of steps."""
    return np.sqrt(np.arange(1, order + 1) / alpha)


def _phase_rows(params: FockParams, grid: QuadratureGrid, degrees) -> np.ndarray:
    """Phase rows P[k, a] = e^{2 pi i k a / A} for k in degrees, indexing the roots by k a mod A (no angle grows).

    Refuses a grid built for another alpha, whose point weights carry that alpha's measure, and one with too few angles.
    """
    if grid.alpha != params.alpha:
        raise ValueError(f"grid built for alpha {grid.alpha!r}, but the params have alpha {params.alpha!r}")
    count = grid.angular_count
    if count <= 2 * params.order:
        raise ValueError(f"grid too coarse: angular_count {count} must exceed 2*order = {2 * params.order}")
    return grid.roots()[np.multiply.outer(degrees, np.arange(count)) % count]


def _phase_gram(params: FockParams, grid: QuadratureGrid) -> np.ndarray:
    """Q = P P^H, degrees 0..N; it depends on the order and angular count alone (the order, on default grids)."""
    phases = _phase_rows(params, grid, np.arange(params.order + 1))
    return phases @ phases.conj().T


def _monomial_gram(params: Sequence[FockParams], grids: Sequence[QuadratureGrid]) -> np.ndarray:
    """Quadrature Gram matrices of the scaled monomials z^k / s_k, k = 0..N: G[s, k, l] is the polar quadrature of
    <z^k / s_k, z^l / s_l> under params[s] on grids[s].  A caller scales row and column k by its own coefficient
    c_k s_k.  The phase Gram Q is formed first, from params[0] and grids[0], so its refusals come before any sum.

    z^k / s_k at point (r, a) is R[k, r] P[k, a], with radial table R[k, r] = r^k / s_k, so the rule's sum is
    G = Q o R W R^T, with o the entrywise product and W the point weights: the same finite sum, reassociated
    exactly.  Q is A I up to rounding, since the trapezoid rule is exact for trigonometric polynomials of degree
    below A and degrees differ by at most N < A; it is still computed from the roots.  No exact norm is borrowed.

    The M entries share one order, one radial node count and Q's angular count, as the default grids of one
    order do.  Their radial tables are one (N+1, M, R) running product of the quotients r / (s_k / s_{k-1}), a
    degree at a time over a contiguous M x R row: the sequential products of a cumprod along the degrees, bit for
    bit, at a fraction of its cost.  Entry s of the stacked product is the same sums as a stack of one.
    """
    phase_gram = _phase_gram(params[0], grids[0])
    steps = _scale_steps(params[0].order, np.array([[p.alpha] for p in params]))
    nodes = np.stack([grid.radial_nodes[:, 0] for grid in grids])
    radial = np.empty((params[0].order + 1,) + nodes.shape)
    radial[0] = 1.0
    np.divide(nodes, steps.T[:, :, None], out=radial[1:])
    for prev, row in zip(radial[1:-1], radial[2:]):
        row *= prev
    radial = radial.transpose(1, 0, 2)
    weights = np.stack([_point_weights(grid) for grid in grids])
    return phase_gram * ((radial * weights[:, None, :]) @ radial.swapaxes(1, 2))


def quad_inner_product(f: TruncatedSeries, g: TruncatedSeries, grid: QuadratureGrid) -> complex:
    """Polar quadrature of the weighted inner product of two series: the off-diagonal entry of C (Q o R W R^T) C^H,
    the core's Gram between the rows C[i, k] = c_ik s_k of f and g."""
    f._check_same_params(g)
    scaled = np.stack([f.coeffs, g.coeffs])
    scaled[:, 1:] *= np.cumprod(_scale_steps(f.params.order, f.params.alpha))
    return complex((scaled @ _monomial_gram((f.params,), (grid,))[0] @ scaled.conj().T)[0, 1])


def quad_matrix_entry(sym: WcoSymbol, n: int, m: int, grid: QuadratureGrid, params: FockParams) -> complex:
    """Quadrature evaluation of the finite-section entry <W e_n, e_m>.

    The image weight(z) map(z)^n / s_n is evaluated in closed form at every grid
    point, as weight(z) B(z)^n 2^{e n} / s_n with B = map 2^-e, |B| <= 1, from the
    pair's tables (_symbol_values): the weight times the ladder levels B^(2^k) of
    n's set bits (_image).  It is paired with conj(e_m) = r^m / s_m conj(P[m, a]):
    only row m of the radial table is built, as _monomial_gram's running product of
    the quotients r / (s_k / s_{k-1}), k = 1..m, and only row m of the phase table.
    The scalar 2^{e n} / s_n is applied after the sums: s_n, the product of the
    oracle's own scale steps, is formed as mantissa * 2^shift, and the sum is divided
    by the mantissa and scaled by an exact ldexp by e n - shift, so no intermediate
    over- or underflows.  No series composition and no exact norm is used.
    """
    if not isinstance(sym.map, AffineMap):
        raise UnsupportedMapError("matrix entries require an affine map")
    for idx in (n, m):
        if not 0 <= idx <= params.order:
            raise ValueError(f"basis index {idx} outside 0..{params.order}")
    steps, phase = _scale_steps(params.order, params.alpha), _phase_rows(params, grid, m)
    weights, exponent, ladder, spare = _symbol_values(sym.weight, sym.map, grid, params.order)
    image = _image(weights, ladder, spare, n)
    radial = np.prod(grid.radial_nodes[:, 0] / steps[:m, None], axis=0)  # r^m / s_m
    total = complex((_point_weights(grid) * radial) @ (image @ phase.conj()))
    # s_n = mantissa 2^shift: the steps' binary exponents summed, their fractions multiplied 1000 at a time (>= 2^-1000)
    fractions, powers = np.frexp(steps[:n])
    mantissa, shift = 1.0, int(powers.sum())
    for start in range(0, n, 1000):
        mantissa, power = math.frexp(mantissa * float(np.prod(fractions[start : start + 1000])))
        shift += power
    total /= mantissa
    return complex(np.ldexp(total.real, exponent * n - shift), np.ldexp(total.imag, exponent * n - shift))


def _image(weights: np.ndarray, ladder: list[np.ndarray], spare: np.ndarray, n: int) -> np.ndarray:
    """weight * B^n: the weight table times the ladder levels B^(2^k) of n's set bits, popcount(n) products
    into the scratch table spare[0], weight first (a complex product rounds by operand order); n = 0 gives
    the weight table itself.

    ladder holds the levels filled so far, B first, read-only; a missing level k is the square of level
    k - 1, written to spare[1 + k] and appended, so the entries of one pair square each level once.
    """
    for k in range(len(ladder), n.bit_length()):
        level = np.multiply(ladder[-1], ladder[-1], out=spare[1 + k])
        level.setflags(write=False)
        ladder.append(level)
    image = weights
    for k in range(n.bit_length()):
        if n >> k & 1:
            image = np.multiply(image, ladder[k], out=spare[0])
    return image


# every full-grid table of the live (symbol, grid) pair, overwritten by the next pair: grown, never shrunk
_workspace = np.empty(0, dtype=np.complex128)


@functools.lru_cache(maxsize=1)
def _symbol_values(
    weight: ExpLinearWeight, map_: AffineMap, grid: QuadratureGrid, order: int
) -> tuple[np.ndarray, int, list[np.ndarray], np.ndarray]:
    """The tables of one (weight, map, grid) pair for entries up to degree order, kept for the last pair only.

    Returns the weight table weight(z) at every grid point z = r_i * root_a, the exponent e, the ladder
    [B] and the spare tables.  Node p K + k is centre_p + offset_k, within eps * cutoff, so the weight
    factors as c e^{w r root_a} = (c e^{w centre_p root_a}) e^{w offset_k root_a}: two exponential tables
    of P x A and K x A entries and one broadcast product.  B = map(z) 2^-e with e the binary exponent of
    |a| cutoff + |b|, so |B| <= 1 up to rounding, and B^n rounds as map^n does, since the scale is a power
    of two: B is (a' r_i) root_a + b', with a' = a 2^-e and b' = b 2^-e, one product and one sum a point
    and no complex grid point.  (The layout split of B, (a' centre_p root_a + b') + a' offset_k root_a,
    shifts each node by up to eps * cutoff, an error that B^n multiplies by n.)  All of them are views of
    the module's one workspace, bit_length(order) + 2 full-grid tables: the weight table, the scratch
    table and the levels B^(2^k), k < bit_length(order), which _image squares as entries ask for them.
    The weight table and the levels are read-only; the next pair overwrites them.
    """
    global _workspace
    _symbol_values.cache_clear()  # the workspace is about to change: a fill that raises must leave no pair cached
    roots, count = grid.roots(), grid.angular_count
    shape = (order.bit_length() + 2, grid.radial_nodes.shape[0], count)
    if _workspace.size < math.prod(shape):
        _workspace = np.empty(math.prod(shape), dtype=np.complex128)
    tables = _workspace[: math.prod(shape)].reshape(shape)
    panels = (grid.panel_centres.size, grid.panel_offsets.size, count)
    w_roots = weight.w * roots
    centre = weight.c * np.exp(np.multiply.outer(grid.panel_centres, w_roots))
    offset = np.exp(np.multiply.outer(grid.panel_offsets, w_roots))
    np.multiply(centre[:, None, :], offset[None, :, :], out=tables[0].reshape(panels))
    exponent = math.frexp(abs(map_.a) * grid.cutoff + abs(map_.b))[1]
    a, b = (complex(math.ldexp(v.real, -exponent), math.ldexp(v.imag, -exponent)) for v in (map_.a, map_.b))
    np.multiply.outer(a * grid.radial_nodes[:, 0], roots, out=tables[2])
    tables[2] += b
    weights, base = tables[0], tables[2]
    for v in (weights, base):
        v.setflags(write=False)
    return weights, exponent, [base], tables[1:]


def check_oracle_agreement(max_degree: int, alphas: tuple[float, ...]) -> CheckReport:
    """Exact vs quadrature inner products on the full monomial suite.

    The pairs are compared in normalized form, z^k / ||z^k||, which keeps every target value at 0 or 1.  Raw
    monomials are not usable here: their diagonal values grow like n!/alpha^n (about 1.4e18 at alpha = 0.5, degree
    16) and the angular cancellation of off-diagonal pairs is only exact relative to that integrand scale, so no
    double precision quadrature can reach a fixed absolute tolerance on them.

    z^k / ||z^k|| is the core's z^k / s_k times v_k = (1 / ||z^k||) s_k, so each alpha's quadrature Gram is the
    core's (all alphas in one stacked pass, one phase Gram) with row and column k scaled by v_k, the left factor
    first, and its exact Gram is diagonal, ((1 / ||z^k||) ||z^k||)^2: the sums of the dense diagonal products,
    bit for bit, without their zeros.  Each alpha's residual is the largest deviation over the upper triangle.
    """
    params, norms, grids = [], [], []
    for alpha in alphas:
        # per alpha in the order given, so the first alpha whose norms overflow is the one named
        params.append(FockParams(alpha, max_degree))
        norms.append(params[-1].monomial_norms())
        grids.append(default_grid(params[-1]))
    norms = np.stack(norms)
    scale = 1.0 / norms
    scale[:, 1:] *= np.cumprod(_scale_steps(max_degree, np.array([[p.alpha] for p in params])), axis=1)
    gram = _monomial_gram(params, grids)
    gram *= scale[:, :, None]
    gram *= scale[:, None, :]
    degrees = np.arange(max_degree + 1)
    gram[:, degrees, degrees] -= (1.0 / norms * norms) ** 2
    devs = np.abs(np.triu(gram)).max(axis=(1, 2))
    residuals = [(max_degree, dev, Rule(at_most=ORACLE_TOL)) for dev in devs.tolist()]
    return CheckReport(
        check_name="oracle-agreement",
        params_echo={"max_degree": max_degree, "alphas": list(alphas)},
        residuals=tuple(residuals),
        notes="one residual per alpha, in the order given; normalized monomial pairs",
    )
