"""Truncated power-series algebra over complex coefficients.

A series of order N stores the Taylor coefficients of degrees 0..N in the
raw monomial basis.  Every operation in this module is exact at truncation:
the computed coefficients are the true coefficients of the corresponding
operation on entire functions, and the only error is ordinary floating-point
rounding.  The weighted inner product uses the monomial orthogonality
relation <z^n, z^m> = delta_nm * n! / alpha^n; quadrature never appears here
(it lives in the independent oracle module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_FACTORIAL_ORDER",
    "FockParams",
    "ParamsMismatchError",
    "TruncatedSeries",
    "affine_composition_matrix",
    "compose_affine",
    "exp_linear",
    "float_factorials",
    "inner_product",
    "kernel_series",
    "orthonormal_basis_element",
    "series_norm",
]

# float64 factorials overflow at 171!
MAX_FACTORIAL_ORDER = 170


class ParamsMismatchError(ValueError):
    """Raised when series with different (alpha, order) are combined."""


def float_factorials(n: int) -> np.ndarray:
    """Factorials 0!..n! as float64, computed iteratively.

    Guarded against overflow: n must stay at or below 170.
    """
    if n > MAX_FACTORIAL_ORDER:
        raise OverflowError(f"factorials overflow float64 beyond {MAX_FACTORIAL_ORDER}!, got n={n}")
    out = np.empty(n + 1)
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = out[k - 1] * k
    return out


@dataclass(frozen=True)
class FockParams:
    """Gaussian weight parameter alpha and truncation order N.

    Series carry coefficients for degrees 0..N, so they hold N+1 numbers and
    the finite section of an operator is (N+1) x (N+1).
    """

    alpha: float = 1.0
    order: int = 32

    def __post_init__(self) -> None:
        if not (isinstance(self.alpha, (int, float)) and math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite positive real, got {self.alpha!r}")
        if not (isinstance(self.order, int) and self.order >= 1):
            raise ValueError(f"order must be an integer >= 1, got {self.order!r}")
        if self.order > MAX_FACTORIAL_ORDER:
            raise ValueError(f"order {self.order} exceeds the factorial overflow guard ({MAX_FACTORIAL_ORDER})")
        object.__setattr__(self, "alpha", float(self.alpha))

    def factorials(self) -> np.ndarray:
        return float_factorials(self.order)


def _as_coeff_array(coeffs, order: int) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] != order + 1:
        raise ValueError(f"expected {order + 1} coefficients, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("series coefficients must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Degree-N truncation of an entire function, raw monomial coefficients.

    Immutable after construction; the coefficient array is read-only.
    """

    coeffs: np.ndarray
    params: FockParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs, self.params.order))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, params: FockParams) -> "TruncatedSeries":
        """Build a series, zero-padding short coefficient lists up to order."""
        arr = np.zeros(params.order + 1, dtype=np.complex128)
        given = np.asarray(coeffs, dtype=np.complex128)
        if given.shape[0] > params.order + 1:
            raise ValueError(f"{given.shape[0]} coefficients exceed order {params.order}")
        arr[: given.shape[0]] = given
        return cls(arr, params)

    @classmethod
    def zero(cls, params: FockParams) -> "TruncatedSeries":
        return cls(np.zeros(params.order + 1, dtype=np.complex128), params)

    @classmethod
    def monomial(cls, n: int, params: FockParams, scale: complex = 1.0) -> "TruncatedSeries":
        if not 0 <= n <= params.order:
            raise ValueError(f"monomial degree {n} outside 0..{params.order}")
        arr = np.zeros(params.order + 1, dtype=np.complex128)
        arr[n] = scale
        return cls(arr, params)

    # -- algebra -------------------------------------------------------------

    def _check_same_params(self, other: "TruncatedSeries") -> None:
        if self.params != other.params:
            raise ParamsMismatchError(f"series params differ: {self.params} vs {other.params}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_same_params(other)
        return TruncatedSeries(self.coeffs + other.coeffs, self.params)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_same_params(other)
        return TruncatedSeries(self.coeffs - other.coeffs, self.params)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_same_params(other)
            full = np.convolve(self.coeffs, other.coeffs)
            return TruncatedSeries(full[: self.params.order + 1], self.params)
        return TruncatedSeries(self.coeffs * other, self.params)

    def __rmul__(self, scalar) -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs * scalar, self.params)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.coeffs, self.params)

    def __call__(self, z):
        """Evaluate by Horner's rule; accepts scalars or numpy arrays."""
        acc = np.zeros_like(np.asarray(z, dtype=np.complex128))
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        if np.ndim(z) == 0:
            return complex(acc)
        return acc

    def max_abs_diff(self, other: "TruncatedSeries") -> float:
        self._check_same_params(other)
        return float(np.max(np.abs(self.coeffs - other.coeffs)))


def exp_linear(w: complex, scale: complex, params: FockParams) -> TruncatedSeries:
    """Series of scale * e^{w z}: coefficient k is scale * w^k / k!."""
    n = params.order
    coeffs = np.empty(n + 1, dtype=np.complex128)
    term = complex(scale)
    coeffs[0] = term
    for k in range(1, n + 1):
        term = term * w / k
        coeffs[k] = term
    return TruncatedSeries(coeffs, params)


def affine_composition_matrix(a: complex, b: complex, order: int) -> np.ndarray:
    """Column n holds the coefficients of (a z + b)^n: entry (m, n) = binom(n, m) a^m b^(n-m).

    Each power is the previous one times (a z + b), with no factorials; the
    transpose is filled so that each power is a contiguous row.
    """
    powers = np.zeros((order + 1, order + 1), dtype=np.complex128)
    powers[0, 0] = 1.0
    for n in range(1, order + 1):
        powers[n] = b * powers[n - 1]
        powers[n, 1:] += a * powers[n - 1, :-1]
    return powers.T


def compose_affine(p: TruncatedSeries, a: complex, b: complex) -> TruncatedSeries:
    """Exact coefficients of p(a z + b) up to order N.

    Each source degree n <= N contributes a polynomial of degree n, so no
    coefficient of the truncated input is lost; the result is the true
    degree-<=N part of p(a z + b) for the stored p.
    """
    return TruncatedSeries(affine_composition_matrix(a, b, p.params.order) @ p.coeffs, p.params)


def inner_product(f: TruncatedSeries, g: TruncatedSeries) -> complex:
    """Truncated weighted inner product <f, g> = sum f_k conj(g_k) k!/alpha^k."""
    if f.params != g.params:
        raise ParamsMismatchError(f"series params differ: {f.params} vs {g.params}")
    alpha = f.params.alpha
    k = np.arange(f.params.order + 1)
    weights = f.params.factorials() / alpha**k
    if not np.all(np.isfinite(weights)):
        raise OverflowError("inner-product weights k!/alpha^k overflow at this order and alpha")
    value = np.sum(f.coeffs * np.conj(g.coeffs) * weights)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError("inner product overflowed")
    return complex(value)


def series_norm(f: TruncatedSeries) -> float:
    return math.sqrt(max(inner_product(f, f).real, 0.0))


def kernel_series(w: complex, params: FockParams) -> TruncatedSeries:
    """Reproducing kernel K_w(z) = e^{alpha * conj(w) * z}, truncated.

    For any polynomial p of degree <= N, <p, K_w truncated> equals p(w)
    exactly (up to rounding).
    """
    return exp_linear(params.alpha * complex(w).conjugate(), 1.0, params)


def orthonormal_basis_element(n: int, params: FockParams) -> TruncatedSeries:
    """Normalized monomial e_n = sqrt(alpha^n / n!) z^n."""
    if not 0 <= n <= params.order:
        raise ValueError(f"basis index {n} outside 0..{params.order}")
    scale = math.sqrt(params.alpha**n / params.factorials()[n])
    return TruncatedSeries.monomial(n, params, scale)
