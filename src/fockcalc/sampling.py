"""Deterministic sample-point generation for pointwise identity checks, from one seeded uniform stream."""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = ["UniformStream", "circle_rows", "disk_pairs", "drop_near_poles", "pole_mask"]

DEFAULT_POLE_MARGIN = 1e-3
# seeded rows kept for reuse, process-wide: at 20 complex values a row, about 0.5 MB
CIRCLE_ROW_CACHE = 1024
# seeded pair sets kept for reuse, process-wide: at 40 complex values a set, about 0.2 MB
DISK_PAIR_CACHE = 256

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class UniformStream:
    """numpy's default_rng(seed).uniform, bit for bit, without importing numpy.random; calls continue one stream.

    The stream is numpy's: SeedSequence(seed) seeds a PCG64, a 128-bit LCG stepped before each output, whose
    output is XSL-RR, rotr64(hi ^ lo, state >> 122); a draw is low + (high - low) * ((output >> 11) * 2^-53),
    in C order over size.  A seed is an integer >= 0, as numpy takes it: a negative one raises ValueError, a
    float TypeError.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed):
        self._state, self._inc = _pcg64_seed(seed)

    def uniform(self, low, high, size) -> np.ndarray:
        shape = (size,) if isinstance(size, int) else tuple(size)
        # one 128-bit LCG step per draw on Python ints, each state kept as its high and low 64-bit words
        state, inc, mult, m64, m128 = self._state, self._inc, PCG64_MULTIPLIER, _M64, _M128
        words = []
        append = words.append
        for _ in range(math.prod(shape)):
            state = (state * mult + inc) & m128
            append(state >> 64)
            append(state & m64)
        self._state = state
        s_hi, s_lo = np.array(words, dtype=np.uint64).reshape(-1, 2).T
        # XSL-RR: the two halves xored, rotated right by the top 6 bits of the state
        x, rot = s_hi ^ s_lo, s_hi >> 58
        x = x >> rot | x << ((64 - rot) & 63)
        u = ((x >> 11) * 2.0**-53).reshape(shape)
        low, high = np.asarray(low, dtype=np.float64), np.asarray(high, dtype=np.float64)
        return low + (high - low) * u


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hash of successive 32-bit words: each call steps the hash constant by its multiplier."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    return hashmix


def _pcg64_seed(seed) -> tuple[int, int]:
    """PCG64(SeedSequence(seed)) as numpy seeds it: the 128-bit state before the first step, and the increment."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer, got {seed}")
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    # the entropy pool of 4 words: the first words hashed in, every word mixed into every other, then the rest
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words from the cycled pool, paired low word first
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [hashmix(pool[i % 4]) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = (out[j] | out[j + 1] << 32 for j in range(0, 8, 2))
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
    # numpy's srandom: state 0, one step, add the initial state, one more step
    return ((inc + (s_hi << 64 | s_lo)) * PCG64_MULTIPLIER + inc) & _M128, inc


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


def circle_rows(seed: int, rows: int) -> np.ndarray:
    """Seeded rows seed .. seed + rows - 1 as a fresh writable (rows, 20) block: 10 points on |z| = 0.4, then 10 on 0.8."""
    return np.stack([_circle_row(seed + i) for i in range(rows)])


@functools.lru_cache(maxsize=CIRCLE_ROW_CACHE)
def _circle_row(seed: int) -> np.ndarray:
    """Row seed, drawn once while it stays cached: one draw of 20 angles; read-only, as every caller shares it."""
    row = np.repeat((0.4, 0.8), 10) * np.exp(1j * UniformStream(seed).uniform(0.0, 2.0 * np.pi, 20))
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=DISK_PAIR_CACHE)
def disk_pairs(seed: int) -> np.ndarray:
    """20 seeded (z, beta) pairs drawn uniformly from the disk |z| < 0.9, as a (20, 2) array.

    Drawn once while it stays cached; read-only, as every caller shares it.
    """
    rng = UniformStream(seed)
    # one row per pair, in the order radius draw of z, of beta, angle of z, of beta
    u = rng.uniform(0.0, (1.0, 1.0, 2.0 * np.pi, 2.0 * np.pi), size=(20, 4))
    pairs = 0.9 * np.sqrt(u[:, :2]) * np.exp(1j * u[:, 2:])
    pairs.setflags(write=False)
    return pairs


def pole_mask(points: np.ndarray, poles, margin: float = DEFAULT_POLE_MARGIN) -> np.ndarray:
    """True where a point is at least the margin away from every listed pole.

    A pole may be None (no pole) or an array broadcast against the points,
    such as one pole per row of a block of sample rows.
    """
    pts = np.asarray(points, dtype=np.complex128)
    keep = np.ones(pts.shape, dtype=bool)
    for pole in poles:
        if pole is None:
            continue
        keep &= np.abs(pts - pole) >= margin
    return keep


def drop_near_poles(points: np.ndarray, poles, margin: float = DEFAULT_POLE_MARGIN) -> np.ndarray:
    """Filter out sample points within the margin of any listed pole."""
    pts = np.asarray(points, dtype=np.complex128)
    return pts[pole_mask(pts, poles, margin)]
