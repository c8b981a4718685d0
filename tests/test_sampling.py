"""Seeded sample rows: the process-wide row cache returns exactly the direct draws, and the seeded stream is\nnumpy's default_rng stream bit for bit without importing numpy.random."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockcalc import sampling
from fockcalc.checks import check_disk_criterion
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


def test_disk_pairs_are_read_only_and_drawn_once():
    sampling.disk_pairs.cache_clear()
    pairs = sampling.disk_pairs(42)
    assert pairs.shape == (20, 2)
    with pytest.raises(ValueError, match="read-only"):
        pairs[0, 0] = 0.0
    assert sampling.disk_pairs(42) is pairs


# the five draw sites' bounds and shapes: circle rows, disk pairs, the disk criterion, the Moebius and the adjoint battery
DRAW_SITES = [
    (0.0, 2.0 * np.pi, 20),
    (0.0, (1.0, 1.0, 2.0 * np.pi, 2.0 * np.pi), (20, 4)),
    ((-0.9, -0.9, -1.2), (0.9, 0.9, 1.2), (200, 3)),
    ((0.1, 0.0, -2.0, -1.0), (0.9, 2.0 * np.pi, 2.5, 1.0), (50, 4)),
    (0.0, (0.9, 2.0 * np.pi, 0.8, 2.0 * np.pi), (20, 4)),
]
STREAM_SEEDS = [*range(300), 2**32 + 5, 2**63 - 1, 10**30, 2**128 + 7, 2**200 + 3, np.int64(0), np.int64(2**63 - 1)]


def _same_stream(seed, low, high, size, calls=3):
    ours, numpys = sampling.UniformStream(seed), np.random.default_rng(seed)
    for _ in range(calls):
        a, b = ours.uniform(low, high, size), numpys.uniform(low, high, size)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


@pytest.mark.parametrize("low, high, size", DRAW_SITES, ids=["circle-row", "disk-pairs", "disk", "moebius", "adjoint"])
def test_stream_is_numpys_bit_for_bit(low, high, size):
    # every site's draw, continued over three calls as the Moebius battery's rejection loop continues it
    for seed in STREAM_SEEDS:
        _same_stream(seed, low, high, size)


@pytest.mark.parametrize(
    "low, high, size",
    [
        # no draw, and one, whose 64-bit words must still form arrays for the output transform
        (0.0, 1.0, 0),
        (0.0, (1.0, 2.0), (0, 2)),
        (0.0, 1.0, 1),
        (0.0, 1.0, (1, 1)),
        # long draws, as check disk-criterion --draws 1000 draws
        ((-0.9, -0.9, -1.2), (0.9, 0.9, 1.2), (1000, 3)),
        (0.0, 1.0, 512),
        (0.0, 1.0, 513),
    ],
)
def test_stream_is_numpys_at_every_length(low, high, size):
    for seed in (0, 42, 2**63 - 1, 10**30, np.int64(7)):
        _same_stream(seed, low, high, size)


def test_stream_continues_over_calls_of_mixed_sizes():
    # each call starts from the state the last one left, whatever the sizes before it
    sizes = [0, 1, 600, 20, 513, (50, 4)]
    for seed in STREAM_SEEDS:
        ours, numpys = sampling.UniformStream(seed), np.random.default_rng(seed)
        for size in sizes:
            assert ours.uniform(0.0, 1.0, size).tobytes() == numpys.uniform(0.0, 1.0, size).tobytes()


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**70), ValueError), (1.5, TypeError), (np.float64(3.0), TypeError)])
def test_stream_refuses_a_seed_as_numpy_does(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        sampling.UniformStream(seed)
    # and through the Python API, where no CLI parser stands in front
    with pytest.raises(error):
        check_disk_criterion(seed=seed)
    with pytest.raises(error):
        circle_rows(seed, 1)


@pytest.mark.parametrize("argv", [["suite"], ["check", "disk-criterion"]], ids=["suite", "disk-criterion"])
def test_commands_never_import_numpy_random(argv):
    code = (
        "import contextlib, io, sys\n"
        "from fockcalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({argv!r})\n"
        "print('numpy.random' in sys.modules)\n"
    )
    # a fresh interpreter on the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(sampling.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "False\n"


def test_no_source_draws_from_numpy_random():
    # the commands above are two; every other path draws through UniformStream too
    assert [path.name for path in Path(sampling.__file__).parent.glob("*.py") if "np.random" in path.read_text()] == []
