"""Paired in-process timing of two source trees' `suite`, `sections` or `oracle` op: an opt-in measurement, not collected by pytest.

Both trees' ``fockcalc`` are loaded into this one process: each tree's
``src`` is imported in turn, with the benchmark's ``perfbench/workloads.py``
loaded against it, and its ``fockcalc*`` entries are moved out of
``sys.modules`` before the next import, so that each tree's modules keep
their own references.  The ``suite`` op is ``cli.cmd_suite`` on the items of
the benchmark's ``suite`` workload (alpha 0.5 to 4, orders 16,32,64, two
sample seeds drawn from ``--seed``), with stdout caught; the ``sections``
op is the ``Sections`` workload's own ``run`` (a section at N 64, 128 or 170,
its two residuals and its CSV text) on that workload's items; the ``oracle``
op is the ``Oracle`` workload's own ``run`` (the oracle agreement report, a
section and four quadrature entries of it) on that workload's items.  One
untimed pass runs every item in both trees, and nothing is timed if they
disagree on any item: for ``suite``, if the trees print different bytes or
exit codes; for ``sections``, if the sections' entry bytes or CSV texts
differ; for ``oracle``, if the reports' ``to_dict()`` differ or an entry of
either tree is farther than the workload's ``ORACLE_TOL`` from the exact one
(entries may move in their last bits, so their bytes are not compared).
Each round then times one pass of every item in each tree, the tree that
goes first alternating round by round, so that load on the machine falls on
both alike.  It prints each tree's median ms per op with quartiles, the
median paired change/parent ratio, and in how many rounds the change was
faster.

The pairing shares one heap between the trees, so it cannot see allocator
effects: glibc raises its mmap threshold when a block that came from mmap is
freed, so what one tree frees decides where the other's next large arrays
come from, and whether touching them faults.  So each tree's minor page
faults per warm op are also counted, with ``resource.getrusage``, in a fresh
subprocess of its own: one untimed pass of every item, then
``FAULT_PASSES`` passes counted.  Judge an allocation change by those counts
and by the benchmark, not by the paired times alone.

    python tests/paired.py PARENT_TREE CHANGE_TREE [--workload suite|sections|oracle] [--seed 105] [--rounds 30]

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
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# set before numpy is first imported, through the first tree's fockcalc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")  # fmt: skip
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

TESTS = Path(__file__).resolve().parent
WORKLOADS = TESTS.parent / "perfbench" / "workloads.py"
FAULT_PASSES = 5  # passes of every item whose minor page faults are counted, after one warm-up pass


def _load(tree: Path):
    """The tree's fockcalc.cli and the benchmark's workloads module bound to that tree's fockcalc, its modules
    moved out of sys.modules."""
    src = str(tree / "src")
    sys.path.insert(0, src)
    try:
        import fockcalc.cli as cli

        if Path(cli.__file__).resolve().parent != (tree / "src" / "fockcalc").resolve():
            raise SystemExit(f"{tree}: imported fockcalc from {cli.__file__}, not from the tree")
        spec = importlib.util.spec_from_file_location("_paired_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(src)
        for name in [name for name in sys.modules if name == "fockcalc" or name.startswith("fockcalc.")]:
            del sys.modules[name]
    return cli, module


def _suite(cli, module, seed: int):
    """The suite workload's items at seed, and the op: cmd_suite's exit code and stdout for one item."""

    def run(item) -> tuple[int, str]:
        alpha, sample_seed = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.cmd_suite(cli.RunConfig(alpha=alpha, orders=module.SUITE_ORDERS, seed=sample_seed))
        return code, buf.getvalue()

    return module.Suite(seed).items, run


def _suite_agrees(module, outputs) -> bool:
    return outputs[0] == outputs[1]


def _own_run(name: str):
    """The op of the benchmark's workload name: its items at seed, built from this tree's records, and its own run."""

    def items_and_run(cli, module, seed: int):
        workload = module.WORKLOADS[name](seed)
        return workload.items, workload.run

    return items_and_run


def _sections_agrees(module, outputs) -> bool:
    (mat, _, _, csv), (other, _, _, other_csv) = outputs
    return mat.entries.tobytes() == other.entries.tobytes() and csv == other_csv


def _oracle_agrees(module, outputs) -> bool:
    (report, _, _), (other, _, _) = outputs
    entries_hold = all(abs(q - e) <= module.ORACLE_TOL for _, exact, quad in outputs for q, e in zip(quad, exact))
    return report.to_dict() == other.to_dict() and entries_hold


# workload -> (items and op of one tree, whether two trees' outputs of one item agree, what disagreeing means,
#              the workloads module's name of its orders)
OPS = {
    "suite": (_suite, _suite_agrees, "print different bytes or exit codes", "SUITE_ORDERS"),
    "sections": (_own_run("sections"), _sections_agrees, "give different section bytes or CSV texts", "SECTION_ORDERS"),
    "oracle": (
        _own_run("oracle"), _oracle_agrees,
        "give different reports, or an entry off the exact one by more than ORACLE_TOL", "ORACLE_ORDERS",
    ),
}  # fmt: skip


def _count_faults(tree: str, workload: str, seed: int) -> None:
    """Print the minor page faults per warm op of the tree's workload op, counted in this process."""
    cli, module = _load(Path(tree))
    items, run = OPS[workload][0](cli, module, seed)
    for item in items:
        run(item)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(FAULT_PASSES):
        for item in items:
            run(item)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (FAULT_PASSES * len(items)))


def _faults_per_op(tree: Path, workload: str, seed: int) -> float:
    """Minor page faults per warm op of the tree, from a fresh subprocess: a heap of its own, as a benchmark worker has."""
    code = f"import paired; paired._count_faults({str(tree)!r}, {workload!r}, {seed})"
    env = {**os.environ, "PYTHONPATH": str(TESTS)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    return float(out)


def _pass(run, items) -> float:
    """Seconds per op over one pass of every item."""
    start = time.perf_counter()
    for item in items:
        run(item)
    return (time.perf_counter() - start) / len(items)


def _spread(values: list[float], scale: float = 1.0, unit: str = "") -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {scale * q2:.3f}{unit}, quartiles {scale * q1:.3f} .. {scale * q3:.3f}{unit}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent source tree, holding src/fockcalc")
    parser.add_argument("change", type=Path, help="the change source tree, holding src/fockcalc")
    parser.add_argument("--workload", choices=sorted(OPS), default="suite", help="the op to time (default suite)")
    parser.add_argument("--seed", type=int, default=105, help="the workload's seed (default 105)")
    parser.add_argument("--rounds", type=int, default=30, help="timed rounds, one pass of every item per tree each")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("give at least 2 rounds")
    ops, agrees, disagreement, orders = OPS[args.workload]
    loaded = [_load(tree.resolve()) for tree in (args.parent, args.change)]
    module = loaded[0][1]
    trees = [ops(cli, tree_module, args.seed) for cli, tree_module in loaded]
    count = len(trees[0][0])

    for index in range(count):
        outputs = [run(items[index]) for items, run in trees]
        if not agrees(module, outputs):
            raise SystemExit(f"the trees {disagreement} for item {trees[0][0][index]}; nothing timed")

    times = ([], [])
    for round_ in range(args.rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        for side in order:
            items, run = trees[side]
            times[side].append(_pass(run, items))
    ratios = [c / p for p, c in zip(*times)]
    wins = sum(r < 1.0 for r in ratios)
    print(f"{count} {args.workload} items at seed {args.seed}, orders {','.join(map(str, getattr(module, orders)))}, "
          f"{args.rounds} rounds")
    for name, out in zip(("parent", "change"), times):
        print(f"{name}: {_spread(out, 1e3, ' ms')} per op")
    print(f"change/parent per round: {_spread(ratios)}; change faster in {wins} of {args.rounds} rounds")
    for name, tree in (("parent", args.parent), ("change", args.change)):
        faults = _faults_per_op(tree.resolve(), args.workload, args.seed)
        print(f"{name}: {faults:.2f} minor page faults per warm op, {FAULT_PASSES} passes in a fresh process")


if __name__ == "__main__":
    main()
