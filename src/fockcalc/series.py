"""Truncated power-series algebra over complex coefficients.

A series of order N stores the Taylor coefficients of degrees 0..N in the
raw monomial basis.  Every operation in this module is exact at truncation:
the computed coefficients are the true coefficients of the corresponding
operation on entire functions, and the only error is ordinary floating-point
rounding.  The weighted inner product uses the monomial orthogonality
relation <z^n, z^m> = delta_nm * ||z^n||^2 with ||z^n||^2 = n! / alpha^n;
quadrature never appears here (it lives in the independent oracle module).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = [
    "FockParams",
    "ParamsMismatchError",
    "TruncatedSeries",
    "affine_composition_matrix",
    "common_params",
    "compose_affine",
    "exp_linear",
    "exp_linear_coeffs",
    "gram",
    "inner_product",
    "kernel_coeffs",
    "kernel_series",
    "orthonormal_basis_element",
    "validate_alpha",
]


class ParamsMismatchError(ValueError):
    """Raised when series with different (alpha, order) are combined."""


def validate_alpha(alpha) -> None:
    """The one test of the Gaussian parameter; it says what alpha must be, as nan fails every comparison."""
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite positive real, got {alpha!r}")


class _Record:
    """Immutable record: a subclass annotates its fields in order and its __init__ stores them through
    object.__setattr__.  Records of one class compare and hash by their field values (by identity with
    eq=False) and print as ``Name(field=value, ...)``; no code is generated when a record class is created."""

    def __init_subclass__(cls, eq: bool = True) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        # the field values in one C call, so comparing and hashing loop in no Python code
        cls._values = operator.attrgetter(*cls._fields)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        # equal without reading a field: series compare their shared params with themselves
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


class FockParams(_Record):
    """Gaussian weight parameter alpha and truncation order N.

    Series carry coefficients for degrees 0..N, so they hold N+1 numbers and
    the finite section of an operator is (N+1) x (N+1).
    """

    alpha: float
    order: int

    def __init__(self, alpha: float = 1.0, order: int = 32) -> None:
        validate_alpha(alpha)
        if not (isinstance(order, int) and order >= 1):
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "order", order)

    def monomial_norms(self) -> np.ndarray:
        """||z^k|| = sqrt(k! / alpha^k) for k = 0..N, as a running product of sqrt(k / alpha).

        Raw-coefficient operations need these, and stop here with an
        OverflowError where some ||z^k|| is not a positive finite double.  A
        product that over- or underflows stays inf or 0, so the last one tells.
        """
        norms = np.ones(self.order + 1)
        with np.errstate(over="ignore"):
            norms[1:] = np.cumprod(np.sqrt(np.arange(1, self.order + 1) / self.alpha))
        if not 0 < norms[-1] < math.inf:
            raise OverflowError(f"monomial norms ||z^k|| overflow float64 at order {self.order}, alpha {self.alpha}")
        return norms


def _as_coeff_array(coeffs, order: int) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] != order + 1:
        raise ValueError(f"expected {order + 1} coefficients, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("series coefficients must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class TruncatedSeries(_Record, eq=False):
    """Degree-N truncation of an entire function, raw monomial coefficients.

    Immutable after construction; the coefficient array is read-only.
    """

    coeffs: np.ndarray
    params: FockParams

    def __init__(self, coeffs, params: FockParams) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "params", params)
        # validation stays a method of its own, which perfbench's tracer times by name
        self.__post_init__()

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

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_same_params(other)
            full = np.convolve(self.coeffs, other.coeffs)
            return TruncatedSeries(full[: self.params.order + 1], self.params)
        return TruncatedSeries(self.coeffs * other, self.params)

    def __rmul__(self, scalar) -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs * scalar, self.params)

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


@functools.lru_cache(maxsize=16)
def _reciprocals(order: int) -> np.ndarray:
    """1 / (k + 0j) = fl(1/k) - 0j for k = 1..order, read-only.  numpy divides a complex by k + 0j by Smith's formula,
    which multiplies by fl(1/k); times fl(1/k) - 0j rounds the same, zero signs included (+ 0j would flip some)."""
    recips = np.reciprocal(np.arange(1, order + 1, dtype=np.complex128))
    recips.setflags(write=False)
    return recips


def exp_linear_coeffs(w, scale: complex, order: int) -> np.ndarray:
    """Coefficients scale * w^k / k! for k = 0..order, as one running product of the steps w / k.

    w may be an array: row k then holds degree k for every entry of w, so the
    series of S exponents form one (order + 1) x S block.
    """
    w = np.asarray(w, dtype=np.complex128)
    steps = w * _reciprocals(order).reshape((order,) + (1,) * w.ndim)
    return np.cumprod(np.concatenate((np.full((1,) + w.shape, scale, dtype=np.complex128), steps)), axis=0)


def exp_linear(w: complex, scale: complex, params: FockParams) -> TruncatedSeries:
    """Series of scale * e^{w z}: coefficient k is scale * w^k / k!."""
    return TruncatedSeries(exp_linear_coeffs(w, scale, params.order), params)


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


def common_params(series: list[TruncatedSeries]) -> FockParams:
    """The (alpha, order) that every series in the list shares."""
    params = series[0].params
    for s in series[1:]:
        if s.params != params:
            raise ParamsMismatchError(f"series params differ: {params} vs {s.params}")
    return params


def gram(series: list[TruncatedSeries]) -> np.ndarray:
    """Truncated Gram matrix G[i, j] = <s_i, s_j> = sum_k (c_ik ||z^k||) conj(c_jk ||z^k||).

    One matrix product of the norm-scaled coefficient rows with their conjugates.
    """
    norms = common_params(series).monomial_norms()
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.stack([s.coeffs for s in series]) * norms
        value = scaled @ scaled.conj().T
    if not np.all(np.isfinite(value)):
        raise OverflowError("inner product overflowed")
    return value


def inner_product(f: TruncatedSeries, g: TruncatedSeries) -> complex:
    """Truncated weighted inner product <f, g>: the off-diagonal entry of the Gram matrix of f and g."""
    return complex(gram([f, g])[0, 1])


def kernel_coeffs(points, params: FockParams) -> np.ndarray:
    """Raw coefficients of the kernels K_w(z) = e^{alpha * conj(w) * z}, truncated.

    Column j is the kernel at points[j]: an (N+1) x S block for S points.
    """
    return exp_linear_coeffs(params.alpha * np.conj(points), 1.0, params.order)


def kernel_series(w: complex, params: FockParams) -> TruncatedSeries:
    """Reproducing kernel K_w, truncated.

    For any polynomial p of degree <= N, <p, K_w truncated> equals p(w)
    exactly (up to rounding).
    """
    return TruncatedSeries(kernel_coeffs(complex(w), params), params)


def orthonormal_basis_element(n: int, params: FockParams) -> TruncatedSeries:
    """Normalized monomial e_n = z^n / ||z^n||."""
    if not 0 <= n <= params.order:
        raise ValueError(f"basis index {n} outside 0..{params.order}")
    return TruncatedSeries.monomial(n, params, 1.0 / params.monomial_norms()[n])
