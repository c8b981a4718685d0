"""What a fresh process pays for its first `fockcalc suite`: an opt-in measurement, not collected by pytest.

Every run times two cold forms of each source tree given (a directory holding
``src/fockcalc``, with no ``__pycache__`` in it, such as a fresh
``git archive`` extract):

* source: no bytecode is read or written for fockcalc, so every process
  compiles it from source, as a tree without ``__pycache__`` runs;
* bytecode: bytecode is written once, by one untimed process, into a
  ``PYTHONPYCACHEPREFIX`` directory in a temporary directory outside the
  trees, and every timed process reads it from there.

A saving that only the source form shows is compile time.  For each tree and
form it starts fresh interpreters that each time ``main(["suite"])`` twice, and
prints the medians of the first and second call, their gap, and whether
``numpy.random`` was loaded after the first.  Given two trees, it then times
alternating cold ``python -m fockcalc suite`` runs in each form, one of each
tree per pair, and prints each side's median and quartiles and how many pairs
the second tree won.

    python tests/cold_path.py TREE [OTHER_TREE] [--processes 12] [--pairs 30]

Every process runs with one BLAS thread, as the benchmark runs them.
Standard library only; it changes nothing in the trees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
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


def _env(tree: Path, pycache_prefix: str | None = None) -> dict[str, str]:
    """A timed process's environment: it writes no bytecode, and reads it from pycache_prefix when one is given."""
    env = {k: v for k, v in os.environ.items() if k not in ("FOCKCALC_SEED", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(tree / "src")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if pycache_prefix is not None:
        env["PYTHONPYCACHEPREFIX"] = pycache_prefix
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


def _time_form(form: str, trees: list[Path], envs: list[dict[str, str]], processes: int, pairs: int) -> None:
    runs = [[] for _ in trees]
    # the trees' processes alternate, so that load on the machine falls on both alike
    for _ in range(processes):
        for tree, env, out in zip(trees, envs, runs):
            out.append(_first_and_second(tree, env))
    for tree, out in zip(trees, runs):
        first = statistics.median(run["times"][0] for run in out)
        second = statistics.median(run["times"][1] for run in out)
        loaded = sorted({run["numpy_random"] for run in out})
        print(f"[{form}] {tree}: first main(['suite']) {_ms(first)}, second {_ms(second)}, gap {_ms(first - second)}"
              f" (medians of {processes} processes); numpy.random loaded: {loaded}")  # fmt: skip
    if len(trees) == 2:
        cold = [[], []]
        for _ in range(pairs):
            for tree, env, out in zip(trees, envs, cold):
                out.append(_cold_suite(tree, env))
        wins = sum(b < a for a, b in zip(*cold))
        for tree, out in zip(trees, cold):
            print(f"[{form}] {tree}: cold `python -m fockcalc suite` {_spread(out)} over {pairs} runs")
        print(f"[{form}] second tree faster in {wins} of {pairs} alternating pairs")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path, help="one or two source trees, each holding src/fockcalc")
    parser.add_argument("--processes", type=int, default=12, help="fresh processes per tree and form for the first-call gap")
    parser.add_argument("--pairs", type=int, default=30, help="alternating cold suite pairs per form, given two trees")
    args = parser.parse_args()
    if len(args.trees) > 2 or args.processes < 2 or args.pairs < 2:
        parser.error("give one or two trees, and at least 2 processes and 2 pairs")
    trees = [tree.resolve() for tree in args.trees]
    if any((tree / "src" / "fockcalc" / "__pycache__").exists() for tree in trees):
        parser.error("give trees without src/fockcalc/__pycache__, such as fresh git archive extracts")
    _time_form("source", trees, [_env(tree) for tree in trees], args.processes, args.pairs)
    with tempfile.TemporaryDirectory() as tmp:
        prefix = str(Path(tmp) / "pycache")
        envs = [_env(tree, prefix) for tree in trees]
        # one untimed process per tree writes the bytecode of everything it imports
        for tree, env in zip(trees, envs):
            _first_and_second(tree, {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"})
        _time_form("bytecode", trees, envs, args.processes, args.pairs)


if __name__ == "__main__":
    main()
