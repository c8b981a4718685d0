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

import functools
import math
from collections.abc import Sequence
from enum import Enum
from typing import Union

import numpy as np

from .series import (
    FockParams,
    ParamsMismatchError,
    TruncatedSeries,
    _Record,
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
    "assemble_sections",
    "boundedness_check",
    "commutator_residual",
    "hermitian_residual",
    "monomial_to_orthonormal",
]

POLE_MARGIN = 1e-6
DEGENERACY_TOL = 1e-14
# slope magnitude and offset within this of 1 and 0 count as exactly 1 and 0
BOUNDEDNESS_TOL = 1e-12


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole of a linear fractional map."""


class UnsupportedMapError(ValueError):
    """Operation requires an affine map but received a linear fractional one."""


class DegenerateMapError(ValueError):
    """Linear fractional coefficients with (effectively) vanishing determinant."""


def _set_finite_complex(obj, **values) -> None:
    """Store each given field of an immutable record, in the order given, as a finite complex number."""
    for name, v in values.items():
        v = complex(v)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"non-finite {name} {v!r}")
        object.__setattr__(obj, name, v)


# ---------------------------------------------------------------------------
# composition maps
# ---------------------------------------------------------------------------


class AffineMap(_Record):
    """z |-> a*z + b."""

    a: complex
    b: complex
    pole = None  # an affine map is entire

    def __init__(self, a: complex, b: complex) -> None:
        _set_finite_complex(self, a=a, b=b)

    def __call__(self, z):
        return self.a * z + self.b


class LinearFractionalMap(_Record):
    """z |-> (p*z + q) / (r*z + s), with p*s - q*r bounded away from zero."""

    p: complex
    q: complex
    r: complex
    s: complex

    def __init__(self, p: complex, q: complex, r: complex, s: complex) -> None:
        _set_finite_complex(self, p=p, q=q, r=r, s=s)
        det = self.p * self.s - self.q * self.r
        scale = max(abs(self.p) * abs(self.s), abs(self.q) * abs(self.r), 1.0)
        if abs(det) / scale <= DEGENERACY_TOL:
            raise DegenerateMapError(f"degenerate coefficients ({self.p}, {self.q}, {self.r}, {self.s})")

    @property
    def pole(self) -> complex | None:
        if self.r == 0:
            return None
        return -self.s / self.r

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=np.complex128)
        pole = self.pole
        if pole is not None and np.any(np.abs(z_arr - pole) < POLE_MARGIN):
            raise PoleProximityError(f"point within {POLE_MARGIN} of pole {pole}")
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


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


class ExpLinearWeight(_Record):
    """c * e^{w z}; never vanishes, materializes exactly at any order."""

    c: complex
    w: complex

    def __init__(self, c: complex, w: complex) -> None:
        _set_finite_complex(self, c=c, w=w)
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


class SeriesWeight(_Record):
    """Weight given directly by a truncated series."""

    series: TruncatedSeries

    def __init__(self, series: TruncatedSeries) -> None:
        object.__setattr__(self, "series", series)

    def value(self, z):
        return self.series(z)

    def materialize(self, params: FockParams) -> TruncatedSeries:
        if params != self.series.params:
            raise ParamsMismatchError(f"series weight pinned to {self.series.params}, asked for {params}")
        return self.series


class ExpDisplacementWeight(_Record):
    """scale * exp(coeff * (z - map(z))); pointwise only.

    This is the weight shape induced by conjugating along a linear
    fractional map: the exponent contains the displacement z - map(z),
    which has a pole, so the function is not entire and has no faithful
    truncated-series form.
    """

    scale: complex
    coeff: complex
    map: MapLike

    def __init__(self, scale: complex, coeff: complex, map: MapLike) -> None:
        _set_finite_complex(self, scale=scale, coeff=coeff)
        object.__setattr__(self, "map", map)
        if self.scale == 0:
            raise ValueError("weight scale must be nonzero")

    def value(self, z):
        z_arr = np.asarray(z, dtype=np.complex128)
        # an overflow is reported below as an OverflowError, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.scale * np.exp(self.coeff * (z_arr - self.map(z_arr)))
        if not (np.all(np.isfinite(out.real)) and np.all(np.isfinite(out.imag))):
            raise OverflowError("displacement weight overflowed near the map pole")
        if np.ndim(z) == 0:
            return complex(out)
        return out

    def materialize(self, params: FockParams) -> TruncatedSeries:
        raise UnsupportedMapError("displacement weights are pointwise-only, no series form")


WcoWeight = Union[ExpLinearWeight, SeriesWeight, ExpDisplacementWeight]


class WcoSymbol(_Record):
    """A weight paired with a composition map."""

    weight: WcoWeight
    map: MapLike

    def __init__(self, weight: WcoWeight, map: MapLike) -> None:
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "map", map)


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------


def apply_wco(sym: WcoSymbol, f: TruncatedSeries) -> TruncatedSeries:
    """weight * f(map(z)) as a truncated series; affine maps only."""
    if not isinstance(sym.map, AffineMap):
        raise UnsupportedMapError("series path requires an affine map; evaluate the weight and map pointwise instead")
    weight = sym.weight.materialize(f.params)
    return weight * compose_affine(f, sym.map.a, sym.map.b)


def adjoint_on_kernel(sym: WcoSymbol, z: complex, params: FockParams) -> TruncatedSeries:
    """Closed-form adjoint action on a kernel: conj(weight(z)) * K_{map(z)}."""
    return complex(sym.weight.value(z)).conjugate() * kernel_series(sym.map(z), params)


# ---------------------------------------------------------------------------
# finite sections
# ---------------------------------------------------------------------------


def monomial_to_orthonormal(f: TruncatedSeries) -> np.ndarray:
    """Coordinates of f against the normalized monomials."""
    return f.coeffs * f.params.monomial_norms()


class OperatorMatrix(_Record, eq=False):
    """Dense finite section; entry (m, n) is <W e_n, e_m>."""

    entries: np.ndarray
    params: FockParams

    def __init__(self, entries, params: FockParams) -> None:
        arr = np.asarray(entries, dtype=np.complex128)
        dim = params.order + 1
        if arr.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} entries, got {arr.shape}")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise ValueError("matrix entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "params", params)

    @property
    def dim(self) -> int:
        return self.params.order + 1

    def to_csv(self) -> str:
        """Row-major CSV with each entry as a "re,im" pair, 17 significant digits."""
        # a complex128 row viewed as float64 is its re, im, re, im, ... sequence
        return _render_csv(self.entries.view(np.float64))


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------
#
# Each value is rendered exactly as '%.17g' renders it, by array arithmetic.
# With k = floor(log10|x|) its digits are D = round(|x| 10^(16-k)): |x| 2^(16-k)
# is exact, and its product with 5^(16-k), held as a double-double, is formed
# by Dekker's split (T. J. Dekker, Numer. Math. 18, 1971) to an error far below
# 1e-9.  Values within 1e-9 of a rounding tie, and those whose D shows a
# misjudged k, take their digits from Python's formatter instead.  The text
# is laid out in one zero-padded byte grid per block of whole rows, a column
# per value, and the padding is deleted.

_CSV_BLOCK = 8192  # values per rendered block, so the grid's memory stays small
_TIE_MARGIN = 1e-9
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1
_K_MIN, _K_MAX = -324, 308  # decimal exponents of the nonzero finite doubles
# grid rows per value: sign, "0.000" lead, 17 digits and a point, "e-308" suffix, separator
_SLOT = 30
_DIGIT_ROWS = np.arange(17, dtype=np.uint8)[:, None]


def _pow5(n: int) -> tuple[float, float]:
    """5^n as a double-double: hi is 5^n rounded to a double, lo the rest rounded."""
    if n >= 0:
        exact = 5**n
        hi = float(exact)
        return hi, float(exact - int(hi))
    den = 5**-n
    hi = 1 / den  # true division of ints rounds correctly
    num, pow2 = hi.as_integer_ratio()
    return hi, (pow2 - num * den) / (pow2 * den)


@functools.cache
def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Per decimal exponent k, at index k - _K_MIN: the scale factors and the layout.

    The factors are 2^(16-k), and 5^(16-k) as hi and lo.  The layout is the
    number of digits before the point (17: no point), the number of digits
    always shown (the integer digits of fixed notation), and the text bytes:
    the "0.000" lead and the exponent suffix.
    """
    factors, counts, text = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        fixed = -4 <= k < 17
        factors.append((2.0 ** (16 - k), *_pow5(16 - k)))
        counts.append((1 if not fixed else k + 1 if k >= 0 else 17, max(k + 1, 0) if fixed else 0))
        lead = b"0.000"[: 1 - k] if fixed and k < 0 else b""
        suffix = b"" if fixed else b"e%+03d" % k
        text.append(lead.ljust(5, b"\0") + suffix.ljust(5, b"\0"))
    pow2, hi5, lo5 = np.array(factors).T.copy()
    point, kept = np.array(counts, dtype=np.uint8).T.copy()
    tables = (pow2, hi5, lo5, point, kept, np.frombuffer(b"".join(text), dtype=np.uint8).reshape(-1, 10))
    for table in tables:
        table.setflags(write=False)  # every call shares them
    return tables


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into two 26-bit halves, a = hi + lo exactly."""
    c = _DEKKER_SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _render_csv(values: np.ndarray) -> str:
    """Rows of doubles as CSV, each value as '%.17g' renders it."""
    rows, width = values.shape
    step = max(1, _CSV_BLOCK // width)
    return "".join(_render_rows(values[i : i + step]) for i in range(0, rows, step))


def _decimal_digits(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, k) of each |x| as '%.17g' rounds it: |x| ~ D 10^(k-16), D of 17 digits, or 0 for 0."""
    nonzero = mag > 0
    # zeros get k = 0 and D = 0, which lays out as "0"
    k = np.floor(np.log10(np.where(nonzero, mag, 1.0))).astype(np.int64)
    pow2_k, hi5_k, lo5_k = _exponent_tables()[:3]
    at = k - _K_MIN
    scaled, hi5, lo5 = mag * pow2_k[at], hi5_k[at], lo5_k[at]  # the power of two is exact
    prod = scaled * hi5
    (s_hi, s_lo), (p_hi, p_lo) = _split(scaled), _split(hi5)
    err = ((s_hi * p_hi - prod) + s_hi * p_lo + s_lo * p_hi) + s_lo * p_lo
    # |x| 10^(16-k) + 1/2 = prod + tail, and prod is an integer wherever D is in range
    tail = err + scaled * lo5 + 0.5
    whole = np.floor(tail)
    digits = prod.astype(np.int64) + whole.astype(np.int64)
    frac = tail - whole
    fallback = nonzero & (
        (frac < _TIE_MARGIN) | (frac > 1.0 - _TIE_MARGIN) | (digits <= 10**16) | (digits >= 10**17)
    )
    for i in np.flatnonzero(fallback):
        python_digits = "%.16e" % mag[i]
        digits[i], k[i] = int(python_digits[0] + python_digits[2:18]), int(python_digits[19:])
    return digits, k


def _render_rows(block: np.ndarray) -> str:
    """One block of whole rows as CSV lines."""
    x = block.ravel()
    digits, k = _decimal_digits(np.abs(x))
    point_k, kept_k, text_k = _exponent_tables()[3:]
    at = k - _K_MIN
    point, kept, text = point_k[at], kept_k[at], text_k.take(at, axis=0)

    # the 17 digits, most significant in row 0, by two uint32 divmod chains
    digit = np.empty((17, x.size), dtype=np.uint8)
    chains = (((digits // 10**8).astype(np.uint32), range(8, -1, -1)), ((digits % 10**8).astype(np.uint32), range(16, 8, -1)))
    for rest, rows in chains:
        for j in rows:
            quot = rest // 10
            digit[j] = rest - 10 * quot
            rest = quot
    # trailing zeros go, unless they are integer digits of fixed notation
    shown = np.maximum(((digit != 0) * (_DIGIT_ROWS + 1)).max(axis=0), kept)
    digit += ord("0")
    digit *= _DIGIT_ROWS < shown

    grid = np.zeros((_SLOT, x.size), dtype=np.uint8)
    grid[0] = np.signbit(x) * np.uint8(ord("-"))
    grid[1:6] = text[:, :5].T
    # digits before the point in rows 6.., those after it one row further down
    after = digit * (_DIGIT_ROWS >= point)
    np.subtract(digit, after, out=grid[6:23])
    grid[7:24] += after
    has_point = np.flatnonzero(point < shown)
    grid.reshape(-1)[(6 + point[has_point].astype(np.intp)) * x.size + has_point] = ord(".")
    grid[24:29] = text[:, 5:].T
    grid[29] = ord(",")
    grid[29, block.shape[1] - 1 :: block.shape[1]] = ord("\n")
    return grid.T.tobytes().translate(None, b"\0").decode("ascii")


@functools.lru_cache(maxsize=16)
def _row_ratio_roots(order: int, width: int) -> np.ndarray:
    """sqrt((m+1) / n) at [n-1, m] for steps n = 1..width-1 and rows m = 0..order, read-only: calls share it."""
    roots = np.sqrt(np.arange(1, order + 2) / np.arange(1, width)[:, None])
    roots.setflags(write=False)
    return roots


def assemble_sections(symbols: Sequence[WcoSymbol], params: FockParams, *, columns: int | None = None) -> np.ndarray:
    """Finite sections of M symbols in the normalized-monomial basis, as one (M, N+1, N+1) block.

    Column n holds the orthonormal coordinates of the image of e_n; column 0
    is the weight's.  As e_n o map = sqrt(alpha / n) (a z + b) (e_{n-1} o map)
    and z e_{m-1} = sqrt(m / alpha) e_m, each column follows from the last:
    E[m, n] = a sqrt(m / n) E[m-1, n-1] + b sqrt(alpha / n) E[m, n-1].
    Multiplying by a z + b only raises degrees, so entries are exact up to
    rounding; for an exponential weight no raw coefficient or norm enters.
    The recurrence runs once for all symbols, each entry by the same
    operations as for that symbol alone: the factors sqrt((m+1) / n) come
    from one read-only table per order and width, built once in a process,
    and column 0 of every exponential weight from one running product.
    With columns, only the leading columns are built, as an (M, N+1,
    columns) block: the same bits as the full build's, since column n reads
    only column n-1.
    """
    maps = [sym.map for sym in symbols]
    if not all(isinstance(mp, AffineMap) for mp in maps):
        raise UnsupportedMapError("matrix assembly requires an affine map")
    order = params.order
    width = order + 1 if columns is None else columns
    if not 1 <= width <= order + 1:
        raise ValueError(f"columns {width} outside 1..{order + 1}")
    # coef[n-1, 0, s] = b_s sqrt(alpha / n) on every row, and coef[n-1, 1, s, m] = a_s sqrt((m+1) / n), the
    # factor from row m to row m+1: one square root, so exactly a_s on the diagonal
    coef = np.empty((width - 1, 2, len(maps), order + 1), dtype=np.complex128)
    coef[:, 0] = (np.array([mp.b for mp in maps]) * np.sqrt(params.alpha / np.arange(1, width))[:, None])[:, :, None]
    np.multiply(np.array([mp.a for mp in maps])[:, None], _row_ratio_roots(order, width)[:, None, :], out=coef[:, 1])
    # block[n, s] is column n of symbol s, so each step is one contiguous block
    block = np.zeros((width, len(maps), order + 1), dtype=np.complex128)
    # the two products of a step, each one row down: prod[0, s, m+1] stays in row m, prod[1, s, m+1] moves to
    # row m+1; adding the -0 of prod[1, s, 0] keeps row 0 the stay product, sign of a zero included
    prod = np.empty((2, len(maps), order + 2), dtype=np.complex128)
    prod[1, :, 0] = complex(-0.0, -0.0)
    # an entry past the double range becomes inf or nan here, which OperatorMatrix reports
    with np.errstate(over="ignore", invalid="ignore"):
        weights = [sym.weight for sym in symbols]
        exp_at = [s for s, weight in enumerate(weights) if isinstance(weight, ExpLinearWeight)]
        # c e^{wz}: v_0 = c, v_k = v_{k-1} w / sqrt(alpha k), a row per weight of one cumprod; at least three
        # factors, as numpy's cumprod of two rounds apart from the first two of a longer one
        cw = np.array([(weights[s].c, weights[s].w) for s in exp_at], dtype=np.complex128).reshape(-1, 2)
        steps = cw[:, 1:] / np.sqrt(params.alpha * np.arange(1, max(order, 2) + 1))
        block[0, exp_at] = np.cumprod(np.concatenate((cw[:, :1], steps), axis=1), axis=1)[:, : order + 1]
        for s, weight in enumerate(weights):
            if not isinstance(weight, ExpLinearWeight):
                block[0, s] = monomial_to_orthonormal(weight.materialize(params))
        # views taken once: indexing a list is cheaper than slicing the array, once per column
        cols, products, stayed, moved = list(block), prod[:, :, 1:], prod[0, :, 1:], prod[1, :, :-1]
        for n, coef_n in enumerate(coef, start=1):
            np.multiply(coef_n, cols[n - 1], out=products)
            np.add(stayed, moved, out=cols[n])
    return block.transpose(1, 2, 0)


def assemble_matrix(sym: WcoSymbol, params: FockParams) -> OperatorMatrix:
    """Finite section of one symbol: the one-symbol case of ``assemble_sections``."""
    return OperatorMatrix(assemble_sections([sym], params)[0], params)


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
    Only that block of each product is formed.
    """
    if m1.params != m2.params:
        raise ParamsMismatchError(f"matrix params differ: {m1.params} vs {m2.params}")
    block_max = max(1, m1.params.order // 2)
    if not 1 <= block <= block_max:
        raise ValueError(f"block {block} outside 1..{block_max}")
    a, b = m1.entries, m2.entries
    return float(np.linalg.norm(a[:block] @ b[:, :block] - b[:block] @ a[:, :block]))


# ---------------------------------------------------------------------------
# boundedness
# ---------------------------------------------------------------------------


class Boundedness(Enum):
    BOUNDED_STRICT = "BoundedStrict"
    BOUNDED_UNITARY = "BoundedUnitary"
    UNBOUNDED = "Unbounded"


def boundedness_check(mp: AffineMap) -> Boundedness:
    """Classify the composition operator of an affine map.

    Slope magnitude below one is bounded; magnitude one is bounded only for
    the pure rotations (zero offset), where composition is unitary; anything
    else blows up the Gaussian weight along a ray.
    """
    mag = abs(mp.a)
    if mag < 1.0 - BOUNDEDNESS_TOL:
        return Boundedness.BOUNDED_STRICT
    if mag <= 1.0 + BOUNDEDNESS_TOL:
        if abs(mp.b) <= BOUNDEDNESS_TOL:
            return Boundedness.BOUNDED_UNITARY
        return Boundedness.UNBOUNDED
    return Boundedness.UNBOUNDED
