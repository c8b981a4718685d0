"""What a fresh process pays for its first `fockcalc suite`: an opt-in measurement, not collected by pytest.

For each source tree given (a directory holding ``src/fockcalc``), it starts
fresh interpreters that each time ``main(["suite"])`` twice, and prints the
medians of the first and second call, their gap, and whether ``numpy.random``
was loaded after the first.  Given two trees, it then times alternating cold
``python -m fockcalc suite`` runs, one of each tree per pair, and prints each
side's median and quartiles and how many pairs the second tree won.

    python tests/cold_path.py TREE [OTHER_TREE] [--processes 12] [--pairs 30] [--no-bytecode]

Every process runs with one BLAS thread, as the benchmark runs them.
``--no-bytecode`` writes no bytecode, so that every process compiles
fockcalc from source, as a tree without ``__pycache__`` runs; give it trees
that hold none, such as fresh ``git archive`` extracts.  Standard library
only; it changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

FIRST_AND_SECOND = """
import contextlib, io, json, sys, time
from fockcalc.cli import main
times, loaded = [], []
for _ in range(2):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        main(["suite"])
    times.append(time.perf_counter() - start)
    loaded.append("numpy.random" in sys.modules)
print(json.dumps({"times": times, "numpy_random": loaded[0]}))
"""


# BLAS and OpenMP pools of one thread, as perfbench/run.py runs its cold commands
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")  # fmt: skip


def _env(tree: Path, no_bytecode: bool) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FOCKCALC_SEED"}
    env["PYTHONPATH"] = str(tree / "src")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    if no_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _first_and_second(tree: Path, env: dict[str, str]) -> dict:
    out = subprocess.run([sys.executable, "-c", FIRST_AND_SECOND], env=env, cwd=tree, capture_output=True, check=True)
    return json.loads(out.stdout)


def _cold_suite(tree: Path, env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "fockcalc", "suite"], env=env, cwd=tree, capture_output=True, check=False)
    return time.perf_counter() - start


def _ms(seconds: float) -> str:
    return f"{1e3 * seconds:.1f} ms"


def _spread(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"median {_ms(q2)}, quartiles {_ms(q1)} .. {_ms(q3)}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path, help="one or two source trees, each holding src/fockcalc")
    parser.add_argument("--processes", type=int, default=12, help="fresh processes per tree for the first-call gap")
    parser.add_argument("--pairs", type=int, default=30, help="alternating cold suite pairs, given two trees")
    parser.add_argument("--no-bytecode", action="store_true", help="write no bytecode: compile fockcalc from source in every process")
    args = parser.parse_args()
    if len(args.trees) > 2 or args.processes < 2 or args.pairs < 2:
        parser.error("give one or two trees, and at least 2 processes and 2 pairs")
    trees = [tree.resolve() for tree in args.trees]
    if args.no_bytecode and any((tree / "src" / "fockcalc" / "__pycache__").exists() for tree in trees):
        parser.error("--no-bytecode needs trees without src/fockcalc/__pycache__")
    envs = [_env(tree, args.no_bytecode) for tree in trees]
    runs = [[] for _ in trees]
    # the trees' processes alternate, so that load on the machine falls on both alike
    for _ in range(args.processes):
        for tree, env, out in zip(trees, envs, runs):
            out.append(_first_and_second(tree, env))
    for tree, out in zip(trees, runs):
        first = statistics.median(run["times"][0] for run in out)
        second = statistics.median(run["times"][1] for run in out)
        loaded = sorted({run["numpy_random"] for run in out})
        print(f"{tree}: first main(['suite']) {_ms(first)}, second {_ms(second)}, gap {_ms(first - second)}"
              f" (medians of {args.processes} processes); numpy.random loaded: {loaded}")  # fmt: skip
    if len(trees) == 2:
        cold = [[], []]
        for _ in range(args.pairs):
            for tree, env, out in zip(trees, envs, cold):
                out.append(_cold_suite(tree, env))
        wins = sum(b < a for a, b in zip(*cold))
        for tree, out in zip(trees, cold):
            print(f"{tree}: cold `python -m fockcalc suite` {_spread(out)} over {args.pairs} runs")
        print(f"second tree faster in {wins} of {args.pairs} alternating pairs")


if __name__ == "__main__":
    main()
