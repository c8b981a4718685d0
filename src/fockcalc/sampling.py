"""Deterministic sample-point generation for pointwise identity checks."""

from __future__ import annotations

import numpy as np

__all__ = ["circle_points", "disk_pairs", "drop_near_poles", "pole_mask"]

DEFAULT_RADII = (0.4, 0.8)
DEFAULT_POLE_MARGIN = 1e-3


def circle_points(seed: int, radii: tuple[float, ...] = DEFAULT_RADII, per_circle: int = 10) -> np.ndarray:
    """Seeded points on a few circles; the default set is 20 points on |z| in {0.4, 0.8}."""
    rng = np.random.default_rng(seed)
    out = []
    for radius in radii:
        angles = rng.uniform(0.0, 2.0 * np.pi, per_circle)
        out.append(radius * np.exp(1j * angles))
    return np.concatenate(out)


def disk_pairs(seed: int, count: int = 20, max_radius: float = 0.9) -> list[tuple[complex, complex]]:
    """Seeded (z, beta) pairs drawn uniformly from the disk of the given radius."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        r = max_radius * np.sqrt(rng.uniform(0.0, 1.0, 2))
        phi = rng.uniform(0.0, 2.0 * np.pi, 2)
        pts.append((complex(r[0] * np.exp(1j * phi[0])), complex(r[1] * np.exp(1j * phi[1]))))
    return pts


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
