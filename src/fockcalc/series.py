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
    "compose_affine",
    "exp_linear",
    "exp_linear_coeffs",
    "inner_product",
    "kernel_coeffs",
    "kernel_series",
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
    if not np.isfinite(arr).all():
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

    def _check_same_params(self, other: "TruncatedSeries") -> None:
        if self.params != other.params:
            raise ParamsMismatchError(f"series params differ: {self.params} vs {other.params}")

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_same_params(other)
        full = np.convolve(self.coeffs, other.coeffs)
        return TruncatedSeries(full[: self.params.order + 1], self.params)

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
        return float(np.abs(self.coeffs - other.coeffs).max())


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
    # a product that overflows stays inf or nan, which the series constructor rejects as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        steps = w * _reciprocals(order).reshape((order,) + (1,) * w.ndim)
        return np.cumprod(np.concatenate((np.full((1,) + w.shape, scale, dtype=np.complex128), steps)), axis=0)


def exp_linear(w: complex, scale: complex, params: FockParams) -> TruncatedSeries:
    """Series of scale * e^{w z}: coefficient k is scale * w^k / k!."""
    return TruncatedSeries(exp_linear_coeffs(w, scale, params.order), params)


def compose_affine(p: TruncatedSeries, a: complex, b: complex) -> TruncatedSeries:
    """Exact coefficients of p(a z + b) up to order N.

    Each source degree n <= N contributes a polynomial of degree n, so no
    coefficient of the truncated input is lost; the result is the true
    degree-<=N part of p(a z + b) for the stored p.
    """
    # row n holds the coefficients binom(n, m) a^m b^(n-m) of (a z + b)^n: the previous row times (a z + b), no factorials
    order = p.params.order
    powers = np.zeros((order + 1, order + 1), dtype=np.complex128)
    powers[0, 0] = 1.0
    for n in range(1, order + 1):
        powers[n] = b * powers[n - 1]
        powers[n, 1:] += a * powers[n - 1, :-1]
    return TruncatedSeries(powers.T @ p.coeffs, p.params)


def inner_product(f: TruncatedSeries, g: TruncatedSeries) -> complex:
    """Truncated weighted inner product <f, g> = sum_k (f_k ||z^k||) conj(g_k ||z^k||), as real dot products of the
    norm-scaled parts: re = fr.gr + fi.gi and im = fi.gr - fr.gi.  Swapping f and g swaps the operands of each dot and
    the two terms of im, so <g, f> is conj(<f, g>) bit for bit and <f, f> is real."""
    f._check_same_params(g)
    norms = f.params.monomial_norms()
    with np.errstate(over="ignore", invalid="ignore"):
        fr, fi, gr, gi = (part * norms for s in (f, g) for part in (s.coeffs.real, s.coeffs.imag))
        # the 2 x 2 Gram of f and g, squared norms first and last: any entry outside float64 is an overflow
        gram = (fr @ fr + fi @ fi, fr @ gr + fi @ gi, fi @ gr - fr @ gi, gr @ gr + gi @ gi)
    if not all(map(math.isfinite, gram)):
        raise OverflowError("inner product overflowed")
    return complex(gram[1], gram[2])


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
