"""Deterministic sample-point generation for pointwise identity checks."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["circle_rows", "disk_pairs", "drop_near_poles", "pole_mask"]

DEFAULT_POLE_MARGIN = 1e-3
# seeded rows kept for reuse, process-wide: at 20 complex values a row, about 0.5 MB
CIRCLE_ROW_CACHE = 1024


def circle_rows(seed: int, rows: int) -> np.ndarray:
    """Seeded rows seed .. seed + rows - 1 as a fresh writable (rows, 20) block: 10 points on |z| = 0.4, then 10 on 0.8."""
    return np.stack([_circle_row(seed + i) for i in range(rows)])


@functools.lru_cache(maxsize=CIRCLE_ROW_CACHE)
def _circle_row(seed: int) -> np.ndarray:
    """Row seed, drawn once while it stays cached: one draw of 20 angles; read-only, as every caller shares it."""
    row = np.repeat((0.4, 0.8), 10) * np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 20))
    row.setflags(write=False)
    return row


def disk_pairs(seed: int) -> np.ndarray:
    """20 seeded (z, beta) pairs drawn uniformly from the disk |z| < 0.9, as a (20, 2) array."""
    rng = np.random.default_rng(seed)
    # one row per pair, in the order radius draw of z, of beta, angle of z, of beta
    u = rng.uniform(0.0, (1.0, 1.0, 2.0 * np.pi, 2.0 * np.pi), size=(20, 4))
    return 0.9 * np.sqrt(u[:, :2]) * np.exp(1j * u[:, 2:])


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
