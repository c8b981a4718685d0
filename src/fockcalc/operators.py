"""Weighted composition symbols, their action, and finite sections.

A symbol pairs a weight function with a composition map and represents the
operator  h |-> weight * (h o map).  Affine maps get the full series and
matrix treatment; linear fractional maps are supported pointwise only,
since composition by them does not preserve entire functions and finite
sections would not be faithful.

Matrix entries are exact: column n of the finite section holds the
orthonormal coordinates of the operator applied to the n-th normalized
monomial, and the degree-<=N part of that image is computed without
truncation error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .series import (
    FockParams,
    ParamsMismatchError,
    TruncatedSeries,
    compose_affine,
    exp_linear,
    kernel_series,
)

__all__ = [
    "AffineMap",
    "Boundedness",
    "DegenerateMapError",
    "ExpDisplacementWeight",
    "ExpLinearWeight",
    "LinearFractionalMap",
    "OperatorMatrix",
    "PoleProximityError",
    "SeriesWeight",
    "UnsupportedMapError",
    "WcoSymbol",
    "WcoWeight",
    "adjoint_matrix",
    "adjoint_on_kernel",
    "apply_wco",
    "assemble_matrix",
    "boundedness_check",
    "commutator_residual",
    "eval_wco_at",
    "hermitian_residual",
    "monomial_to_orthonormal",
    "orthonormal_to_monomial",
    "product_symbol",
]

POLE_MARGIN = 1e-6
DEGENERACY_TOL = 1e-14


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole of a linear fractional map."""


class UnsupportedMapError(ValueError):
    """Operation requires an affine map but received a linear fractional one."""


class DegenerateMapError(ValueError):
    """Linear fractional coefficients with (effectively) vanishing determinant."""


def _require_finite(*values: complex) -> None:
    for v in values:
        c = complex(v)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"non-finite coefficient {v!r}")


# ---------------------------------------------------------------------------
# composition maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """z |-> a*z + b."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        _require_finite(self.a, self.b)
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    def __call__(self, z):
        return self.a * z + self.b

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self o inner: slope product, offset chained through self."""
        return AffineMap(self.a * inner.a, self.a * inner.b + self.b)


@dataclass(frozen=True)
class LinearFractionalMap:
    """z |-> (p*z + q) / (r*z + s), with p*s - q*r bounded away from zero."""

    p: complex
    q: complex
    r: complex
    s: complex

    def __post_init__(self) -> None:
        _require_finite(self.p, self.q, self.r, self.s)
        for name in "pqrs":
            object.__setattr__(self, name, complex(getattr(self, name)))
        det = self.p * self.s - self.q * self.r
        scale = max(abs(self.p) * abs(self.s), abs(self.q) * abs(self.r), 1.0)
        if abs(det) / scale <= DEGENERACY_TOL:
            raise DegenerateMapError(f"degenerate coefficients ({self.p}, {self.q}, {self.r}, {self.s})")

    @property
    def pole(self) -> complex | None:
        if self.r == 0:
            return None
        return -self.s / self.r

    def __call__(self, z, margin: float = POLE_MARGIN):
        z_arr = np.asarray(z, dtype=np.complex128)
        pole = self.pole
        if pole is not None and np.any(np.abs(z_arr - pole) < margin):
            raise PoleProximityError(f"point within {margin} of pole {pole}")
        value = (self.p * z_arr + self.q) / (self.r * z_arr + self.s)
        if np.ndim(z) == 0:
            return complex(value)
        return value

    def compose(self, inner: "LinearFractionalMap") -> "LinearFractionalMap":
        """self o inner via the 2x2 coefficient-matrix product."""
        return LinearFractionalMap(
            self.p * inner.p + self.q * inner.r,
            self.p * inner.q + self.q * inner.s,
            self.r * inner.p + self.s * inner.r,
            self.r * inner.q + self.s * inner.s,
        )

    def coefficients(self) -> np.ndarray:
        return np.array([self.p, self.q, self.r, self.s], dtype=np.complex128)

    def projective_residual(self, coeffs) -> float:
        """Distance to another coefficient 4-tuple modulo overall scale.

        Uses the least-squares alignment scale and reports the max
        coefficient deviation relative to the tuple magnitudes.
        """
        mine = self.coefficients()
        other = np.asarray(coeffs, dtype=np.complex128)
        denom = np.vdot(other, other)
        if denom == 0:
            raise ValueError("cannot compare against the zero tuple")
        lam = np.vdot(other, mine) / denom
        scale = max(float(np.max(np.abs(mine))), float(np.max(np.abs(lam * other))), 1.0)
        return float(np.max(np.abs(mine - lam * other))) / scale


MapLike = Union[AffineMap, LinearFractionalMap]


def map_pole(mp: MapLike) -> complex | None:
    return mp.pole if isinstance(mp, LinearFractionalMap) else None


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpLinearWeight:
    """c * e^{w z}; never vanishes, materializes exactly at any order."""

    c: complex
    w: complex

    def __post_init__(self) -> None:
        _require_finite(self.c, self.w)
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "w", complex(self.w))
        if self.c == 0:
            raise ValueError("weight scale c must be nonzero")

    def value(self, z):
        z_arr = np.asarray(z, dtype=np.complex128)
        out = self.c * np.exp(self.w * z_arr)
        if np.ndim(z) == 0:
            return complex(out)
        return out

    def materialize(self, params: FockParams) -> TruncatedSeries:
        return exp_linear(self.w, self.c, params)


@dataclass(frozen=True)
class SeriesWeight:
    """Weight given directly by a truncated series."""

    series: TruncatedSeries

    def value(self, z):
        return self.series(z)

    def materialize(self, params: FockParams) -> TruncatedSeries:
        if params != self.series.params:
            raise ParamsMismatchError(f"series weight pinned to {self.series.params}, asked for {params}")
        return self.series


@dataclass(frozen=True)
class ExpDisplacementWeight:
    """scale * exp(coeff * (z - map(z))); pointwise only.

    This is the weight shape induced by conjugating along a linear
    fractional map: the exponent contains the displacement z - map(z),
    which has a pole, so the function is not entire and has no faithful
    truncated-series form.
    """

    scale: complex
    coeff: complex
    map: MapLike

    def __post_init__(self) -> None:
        _require_finite(self.scale, self.coeff)
        object.__setattr__(self, "scale", complex(self.scale))
        object.__setattr__(self, "coeff", complex(self.coeff))
        if self.scale == 0:
            raise ValueError("weight scale must be nonzero")

    def value(self, z):
        z_arr = np.asarray(z, dtype=np.complex128)
        out = self.scale * np.exp(self.coeff * (z_arr - self.map(z_arr)))
        if not (np.all(np.isfinite(out.real)) and np.all(np.isfinite(out.imag))):
            raise OverflowError("displacement weight overflowed near the map pole")
        if np.ndim(z) == 0:
            return complex(out)
        return out

    def materialize(self, params: FockParams) -> TruncatedSeries:
        raise UnsupportedMapError("displacement weights are pointwise-only, no series form")


WcoWeight = Union[ExpLinearWeight, SeriesWeight, ExpDisplacementWeight]


@dataclass(frozen=True)
class WcoSymbol:
    """A weight paired with a composition map."""

    weight: WcoWeight
    map: MapLike

    @classmethod
    def identity(cls) -> "WcoSymbol":
        return cls(ExpLinearWeight(1.0, 0.0), AffineMap(1.0, 0.0))


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------


def apply_wco(sym: WcoSymbol, f: TruncatedSeries) -> TruncatedSeries:
    """weight * f(map(z)) as a truncated series; affine maps only."""
    if not isinstance(sym.map, AffineMap):
        raise UnsupportedMapError("series path requires an affine map; use eval_wco_at for pointwise values")
    weight = sym.weight.materialize(f.params)
    return weight * compose_affine(f, sym.map.a, sym.map.b)


def eval_wco_at(sym: WcoSymbol, f: TruncatedSeries, z: complex) -> complex:
    """Pointwise weight(z) * f(map(z)); works for any map away from poles."""
    return complex(sym.weight.value(z)) * f(sym.map(z))


def product_symbol(s1: WcoSymbol, s2: WcoSymbol) -> WcoSymbol:
    """Symbol of the operator product (s1 applied after s2).

    Weight is weight1 * (weight2 o map1), map is map2 o map1.  When both
    weights are exponential-linear the product weight is again
    exponential-linear and is returned in that exact closed form;
    otherwise both weights are materialized and multiplied as series.
    """
    if not isinstance(s1.map, AffineMap) or not isinstance(s2.map, AffineMap):
        raise UnsupportedMapError("symbol products are only defined for affine maps")
    composed = s2.map.compose(s1.map)
    w1, w2 = s1.weight, s2.weight
    if isinstance(w1, ExpLinearWeight) and isinstance(w2, ExpLinearWeight):
        # c1 e^{w1 z} * c2 e^{w2 (a1 z + b1)} = (c1 c2 e^{w2 b1}) e^{(w1 + w2 a1) z}
        scale = w1.c * w2.c * cmath.exp(w2.w * s1.map.b)
        return WcoSymbol(ExpLinearWeight(scale, w1.w + w2.w * s1.map.a), composed)
    if isinstance(w1, ExpDisplacementWeight) or isinstance(w2, ExpDisplacementWeight):
        raise UnsupportedMapError("displacement weights do not support symbol products")
    params = w1.series.params if isinstance(w1, SeriesWeight) else w2.series.params
    product = w1.materialize(params) * compose_affine(w2.materialize(params), s1.map.a, s1.map.b)
    return WcoSymbol(SeriesWeight(product), composed)


def adjoint_on_kernel(sym: WcoSymbol, z: complex, params: FockParams) -> TruncatedSeries:
    """Closed-form adjoint action on a kernel: conj(weight(z)) * K_{map(z)}."""
    return complex(sym.weight.value(z)).conjugate() * kernel_series(sym.map(z), params)


# ---------------------------------------------------------------------------
# finite sections
# ---------------------------------------------------------------------------


def monomial_to_orthonormal(f: TruncatedSeries) -> np.ndarray:
    """Coordinates of f against the normalized monomials."""
    return f.coeffs * f.params.monomial_norms()


def orthonormal_to_monomial(vec, params: FockParams) -> TruncatedSeries:
    return TruncatedSeries(np.asarray(vec, dtype=np.complex128) / params.monomial_norms(), params)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense finite section; entry (m, n) is <W e_n, e_m>."""

    entries: np.ndarray
    params: FockParams

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.complex128)
        dim = self.params.order + 1
        if arr.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} entries, got {arr.shape}")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise ValueError("matrix entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.params.order + 1

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(vec, dtype=np.complex128)

    def to_csv(self) -> str:
        """Row-major CSV with each entry as a "re,im" pair, 17 significant digits."""
        lines = []
        for row in self.entries:
            cells = []
            for v in row:
                cells.append(f"{v.real:.17g},{v.imag:.17g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def assemble_matrix(sym: WcoSymbol, params: FockParams) -> OperatorMatrix:
    """Finite section of the symbol in the normalized-monomial basis.

    Column n holds the orthonormal coordinates of the image of e_n; column 0
    is the weight's.  As e_n o map = sqrt(alpha / n) (a z + b) (e_{n-1} o map)
    and z e_{m-1} = sqrt(m / alpha) e_m, each column follows from the last:
    E[m, n] = a sqrt(m / n) E[m-1, n-1] + b sqrt(alpha / n) E[m, n-1].
    Multiplying by a z + b only raises degrees, so entries are exact up to
    rounding; for an exponential weight no raw coefficient or norm enters.
    """
    if not isinstance(sym.map, AffineMap):
        raise UnsupportedMapError("matrix assembly requires an affine map")
    k = np.arange(1, params.order + 1)
    # shift[n-1, m-1] = a sqrt(m / n): one square root, so exactly a on the diagonal
    shift = sym.map.a * np.sqrt(k / k[:, None])
    stay = sym.map.b * np.sqrt(params.alpha / k)
    columns = np.zeros((params.order + 1, params.order + 1), dtype=np.complex128)
    weight = sym.weight
    if isinstance(weight, ExpLinearWeight):
        # c e^{wz}: v_0 = c, v_k = v_{k-1} w / sqrt(alpha k)
        columns[0] = np.cumprod(np.concatenate(([weight.c], weight.w / np.sqrt(params.alpha * k))))
    else:
        columns[0] = monomial_to_orthonormal(weight.materialize(params))
    for n in range(1, params.order + 1):
        prev = columns[n - 1]
        columns[n] = stay[n - 1] * prev
        columns[n, 1:] += shift[n - 1] * prev[:-1]
    return OperatorMatrix(columns.T, params)


def adjoint_matrix(mat: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix(mat.entries.conj().T, mat.params)


def hermitian_residual(mat: OperatorMatrix) -> float:
    """|| M - M* ||_F / max(||M||_F, 1)."""
    norm = float(np.linalg.norm(mat.entries))
    return float(np.linalg.norm(mat.entries - mat.entries.conj().T)) / max(norm, 1.0)


def commutator_residual(m1: OperatorMatrix, m2: OperatorMatrix, block: int) -> float:
    """Frobenius norm of (M1 M2 - M2 M1) restricted to the leading block.

    The leading-block restriction keeps truncation contamination near the
    section edge out of the measurement; block may not exceed half the order.
    """
    if m1.params != m2.params:
        raise ParamsMismatchError(f"matrix params differ: {m1.params} vs {m2.params}")
    block_max = max(1, m1.params.order // 2)
    if not 1 <= block <= block_max:
        raise ValueError(f"block {block} outside 1..{block_max}")
    comm = m1.entries @ m2.entries - m2.entries @ m1.entries
    return float(np.linalg.norm(comm[:block, :block]))


# ---------------------------------------------------------------------------
# boundedness
# ---------------------------------------------------------------------------


class Boundedness(Enum):
    BOUNDED_STRICT = "BoundedStrict"
    BOUNDED_UNITARY = "BoundedUnitary"
    UNBOUNDED = "Unbounded"


def boundedness_check(mp: AffineMap, tol: float = 1e-12) -> Boundedness:
    """Classify the composition operator of an affine map.

    Slope magnitude below one is bounded; magnitude one is bounded only for
    the pure rotations (zero offset), where composition is unitary; anything
    else blows up the Gaussian weight along a ray.
    """
    mag = abs(mp.a)
    if mag < 1.0 - tol:
        return Boundedness.BOUNDED_STRICT
    if mag <= 1.0 + tol:
        if abs(mp.b) <= tol:
            return Boundedness.BOUNDED_UNITARY
        return Boundedness.UNBOUNDED
    return Boundedness.UNBOUNDED
