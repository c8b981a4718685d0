"""fockcalc benchmark: runs workloads in fresh child processes and prints metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  With ``--trace 0`` the
end-to-end metrics of BENCHMARK.json are printed, with ``--trace 1`` the
per-layer ones; every metric is printed by name with its unit, and the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (for a single workload).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calib import REFERENCE_S, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("suite", "sections", "oracle")

SETUP_REPEATS = 5  # set-up is measured this many times, the median is reported
CHILD_GRACE_S = 90.0  # a child gets the run length plus this before it is killed, so a run ends within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PINNED_THREADS = "1"


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FOCKCALC_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: PINNED_THREADS for var in THREAD_VARS})
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fockcalc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: PINNED_THREADS for var in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _read_line(proc: subprocess.Popen, prefix: str) -> dict:
    for line in proc.stdout:
        if line.startswith(prefix + " "):
            return json.loads(line[len(prefix) + 1 :])
    raise BenchError(f"worker ended without a {prefix} line (exit code {proc.wait()})")


def run_child(workload: str, seed: int, seconds: int, trace: int, setup_only: bool) -> tuple[float, dict, dict | None]:
    """Spawn a worker; return (set-up seconds, READY payload, RESULT payload).

    Set-up seconds exclude the worker's calibration kernel runs.
    """
    cmd = [sys.executable, "-u", str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(seconds + CHILD_GRACE_S, proc.kill)
    timer.start()
    try:
        ready = _read_line(proc, "READY")
        setup_s = time.perf_counter() - start - sum(ready["calibration_s"])
        result = None if setup_only else _read_line(proc, "RESULT")
        proc.stdout.read()
        if proc.wait() != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return setup_s, ready, result


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    setups, setups_scaled, calibration, imports = [], [], [], []
    for i in range(SETUP_REPEATS):
        setup_s, ready, result = run_child(workload, seed, seconds, trace, setup_only=i < SETUP_REPEATS - 1)
        setups.append(setup_s)
        setups_scaled.append(scaled(setup_s, *ready["calibration_s"]))
        calibration.extend(ready["calibration_s"])
        imports.append(ready["import_s"])
    measured: dict[str, tuple[float, str]] = {}
    correct = result["wrong"] == 0
    if trace:
        measured.update({k: tuple(v) for k, v in result["layers"].items()})
        measured["cli.import_s"] = (statistics.median(imports), "s")
    else:
        correct = correct and result["cli"]["same_output"]
        raw = result["raw"]
        measured.update({
            "setup_s": (statistics.median(setups_scaled), "s"),
            "op_s.p50": (result["op_s.p50"], "s"),
            "op_s.p90": (result["op_s.p90"], "s"),
            "ops_per_s": (result["ops_per_s"], "1/s"),
            "mix_completed_ratio": (result["mix_completed_ratio"], "ratio"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "cli_cold_s.p50": (result["cli_cold_s.p50"], "s"),
            "raw.setup_s": (statistics.median(setups), "s"),
            "raw.op_s.p50": (raw["op_s.p50"], "s"),
            "raw.op_s.p90": (raw["op_s.p90"], "s"),
            "raw.ops_per_s": (raw["ops_per_s"], "1/s"),
            "raw.cli_cold_s.p50": (raw["cli_cold_s.p50"], "s"),
            "speed_factor.setup": (REFERENCE_S / statistics.median(calibration), "ratio"),
            "speed_factor.ops": (result["speed_factor"], "ratio"),
        })  # fmt: skip
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "measured": measured,
        "provenance": {**provenance(workload, seed, seconds, trace), "numpy": result["numpy"], "mix": result["mix"]},
        "corners": result.get("corners", []),
        "samples": {"setup_s": setups, "import_s": imports, "op_times_s": result["op_times_s"],
                    "cli": result.get("cli"), "setup_calibration_s": calibration,
                    "calibration_s": result.get("calibration_s"), "op_marks": result.get("op_marks"),
                    "cli_marks": result.get("cli_marks")},
    }  # fmt: skip


def select_metrics(spec: list[dict], measured: dict) -> dict:
    out = {}
    for metric in spec:
        value, unit = measured[metric["name"]]
        if unit != metric["unit"]:
            raise BenchError(f"metric {metric['name']} measured in {unit}, declared in {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": unit}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; inputs are made from it")
    parser.add_argument("--seconds", type=int, default=None, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run with per-layer metrics")
    args = parser.parse_args()

    if not (ROOT / "src" / "fockcalc" / "__init__.py").is_file():
        print(f"error: no fockcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)

    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, seconds, args.trace)
            metrics = select_metrics(metric_spec, res["measured"])
            (OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps({**res, "metrics": metrics}, indent=1, default=str)
            )
            print(f"[{name}] provenance " + json.dumps(res["provenance"], default=str))
            completed = res["attempted"] - res["failed"]
            print(f"[{name}] ops: {res['attempted']} attempted, {completed} completed, {res['failed']} failed"
                  f" (failed_ratio {res['failed'] / res['attempted']:.4f}); output checks "
                  f"{'passed' if res['correct'] else 'FAILED'}")  # fmt: skip
            for corner in res["corners"]:
                outcome = "completed" if corner["completed"] else f"failed ({corner['error'] or 'check failed'})"
                print(f"[{name}] known-defect corner {json.dumps(corner['item'])}: {outcome}")
            for key, (value, unit) in res["measured"].items():
                note = "" if key in metrics else "  (printed only, not in BENCHMARK.json)"
                print(f"[{name}] {key:<44} {value:>14.6g} {unit}{note}")
            results[name] = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                             "metrics": metrics}  # fmt: skip
    except (BenchError, subprocess.TimeoutExpired, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
