"""Paired in-process timing of two source trees' `suite` op: an opt-in measurement, not collected by pytest.

Both trees' ``fockcalc`` are loaded into this one process: each tree's
``src`` is imported in turn, and its ``fockcalc*`` entries are moved out of
``sys.modules`` before the next import, so that each tree's modules keep
their own references.  The op is ``cli.cmd_suite`` on the items of the
benchmark's ``suite`` workload (``perfbench/workloads.py``: alpha 0.5 to 4,
orders 16,32,64, two sample seeds drawn from ``--seed``), with stdout caught.
One untimed pass runs every item in both trees, and nothing is timed if the
trees print different bytes or exit codes for any item.  Each round then
times one pass of every item in each tree, the tree that goes first
alternating round by round, so that load on the machine falls on both alike.
It prints each tree's median ms per op with quartiles, the median paired
change/parent ratio, and in how many rounds the change was faster.

    python tests/paired.py PARENT_TREE CHANGE_TREE [--seed 105] [--rounds 30]

A tree is a directory holding ``src/fockcalc``, such as a fresh
``git archive`` extract.  numpy runs with one BLAS thread, as the benchmark
runs it.  It changes nothing in the trees.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import statistics
import sys
import time
from pathlib import Path

# set before numpy is first imported, through the first tree's fockcalc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")  # fmt: skip
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load(tree: Path, seed: int | None = None):
    """The tree's fockcalc.cli, its modules moved out of sys.modules; given a seed, also the suite workload's items
    and orders at that seed, read while the tree's fockcalc is the one importable."""
    src = str(tree / "src")
    sys.path.insert(0, src)
    try:
        import fockcalc.cli as cli

        if Path(cli.__file__).resolve().parent != (tree / "src" / "fockcalc").resolve():
            raise SystemExit(f"{tree}: imported fockcalc from {cli.__file__}, not from the tree")
        workload = None
        if seed is not None:
            spec = importlib.util.spec_from_file_location("_paired_workloads", WORKLOADS)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            workload = module.Suite(seed).items, module.SUITE_ORDERS
    finally:
        sys.path.remove(src)
        for name in [name for name in sys.modules if name == "fockcalc" or name.startswith("fockcalc.")]:
            del sys.modules[name]
    return cli, workload


def _run(cli, item, orders) -> tuple[int, str]:
    alpha, seed = item
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cmd_suite(cli.RunConfig(alpha=alpha, orders=orders, seed=seed))
    return code, buf.getvalue()


def _pass(cli, items, orders) -> float:
    """Seconds per op over one pass of every item."""
    start = time.perf_counter()
    for item in items:
        _run(cli, item, orders)
    return (time.perf_counter() - start) / len(items)


def _spread(values: list[float], scale: float = 1.0, unit: str = "") -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {scale * q2:.3f}{unit}, quartiles {scale * q1:.3f} .. {scale * q3:.3f}{unit}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent source tree, holding src/fockcalc")
    parser.add_argument("change", type=Path, help="the change source tree, holding src/fockcalc")
    parser.add_argument("--seed", type=int, default=105, help="the suite workload's seed (default 105)")
    parser.add_argument("--rounds", type=int, default=30, help="timed rounds, one pass of every item per tree each")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("give at least 2 rounds")
    parent, (items, orders) = _load(args.parent.resolve(), args.seed)
    change, _ = _load(args.change.resolve())
    trees = (parent, change)

    for item in items:
        outputs = [_run(cli, item, orders) for cli in trees]
        if outputs[0] != outputs[1]:
            raise SystemExit(f"the trees print different bytes or exit codes for (alpha, seed) = {item}; nothing timed")

    times = ([], [])
    for round_ in range(args.rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        for side in order:
            times[side].append(_pass(trees[side], items, orders))
    ratios = [c / p for p, c in zip(*times)]
    wins = sum(r < 1.0 for r in ratios)
    print(f"{len(items)} suite items at seed {args.seed}, orders {','.join(map(str, orders))}, {args.rounds} rounds")
    for name, out in zip(("parent", "change"), times):
        print(f"{name}: {_spread(out, 1e3, ' ms')} per op")
    print(f"change/parent per round: {_spread(ratios)}; change faster in {wins} of {args.rounds} rounds")


if __name__ == "__main__":
    main()
