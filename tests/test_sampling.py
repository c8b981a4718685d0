"""Seeded sample rows: the process-wide row cache returns exactly the direct draws."""

import numpy as np
import pytest

from fockcalc import sampling
from fockcalc.sampling import circle_rows


def _direct(seed):
    return np.repeat((0.4, 0.8), 10) * np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 20))


def test_rows_equal_direct_draws():
    seeds = np.random.default_rng(18).integers(0, 2**31 - 1, 1000)
    for seed in seeds:
        # seed, seed+1 and seed+2: the cache is asked for neighbouring rows, as batteries ask for them
        block = circle_rows(int(seed), 3)
        direct = np.stack([_direct(int(seed) + i) for i in range(3)])
        assert np.array_equal(block.view(np.uint64), direct.view(np.uint64))
    assert np.array_equal(circle_rows(7, 1)[0].view(np.uint64), _direct(7).view(np.uint64))


def test_block_is_a_fresh_writable_array():
    block = circle_rows(42, 2)
    before = block.copy()
    block[:] = 0.0
    assert np.array_equal(circle_rows(42, 2), before)
    assert np.array_equal(circle_rows(43, 1)[0], before[1])


def test_cached_row_is_read_only():
    row = sampling._circle_row(42)
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 0.0
