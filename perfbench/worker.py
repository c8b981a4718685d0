"""One workload in a fresh process; started by run.py, not meant to be run by hand.

Protocol on stdout: a ``READY {...}`` line once set-up is done (import,
inputs, one untimed warm-up operation, and the two calibration kernel runs
around inputs and warm-up whose times the line carries), then, unless ``--setup-only``, a
``RESULT {...}`` line after the measurement.  Set-up time is taken by the
parent from spawn to the READY line.  The process inherits the parent's
environment (``PYTHONPATH=src``, pinned thread counts) and passes it on to
the cold ``python -m fockcalc`` runs it times.  The calibration kernel of
calib.py runs between operations; time metrics are reported scaled to its
reference speed, and raw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
CLI_RUNS_PER_PASS = 2  # cold CLI runs, spread over each pass
CLI_MIN_RUNS = 3  # and at least this many
CLI_TIMEOUT_S = 60.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Loop:
    """Runs whole passes over a workload's items and keeps per-op outcomes."""

    def __init__(self, workload, tracer=None, probe=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.probe = probe
        self.times: list[float] = []
        self.completed_times: list[float] = []
        self.marks: list[int] = []  # calibration sample before each op
        self.completed_marks: list[int] = []
        self.failed_items: set[int] = set()
        self.failed = 0
        self.wrong = 0

    def run_pass(self, after_op=None) -> None:
        from workloads import FAILED, OK, WRONG

        wl, tracer = self.workload, self.tracer
        for index, item in enumerate(wl.items):
            if self.probe is not None:
                self.marks.append(self.probe.mark())
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception:  # a raising operation is a failed one; keep measuring
                out = None
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            outcome = wl.check(index, item, out) if out is not None else FAILED
            self.times.append(elapsed)
            if outcome == OK:
                self.completed_times.append(elapsed)
                if self.probe is not None:
                    self.completed_marks.append(self.marks[-1])
                if tracer is not None:
                    tracer.counters["report.bytes"] += wl.report_bytes(out)
                    tracer.fold()
            else:
                self.failed += 1
                self.wrong += outcome == WRONG
                self.failed_items.add(index)
            if after_op is not None:
                after_op(index)

    def run_for(self, seconds: float, after_op=None) -> None:
        """Whole passes until the time is spent; at least one."""
        deadline = time.perf_counter() + seconds
        while True:
            self.run_pass(after_op)
            if time.perf_counter() >= deadline:
                return


class ColdCli:
    """Times ``python -m fockcalc <argv>`` subprocesses against the in-process output."""

    def __init__(self, argv: list[str], probe) -> None:
        from workloads import cli_main

        self.argv = argv
        self.probe = probe
        rc, text = cli_main(argv)
        self.expected = (0, hashlib.sha256(text.encode()).hexdigest())
        self.same = rc == 0
        self.times: list[float] = []
        self.marks: list[int] = []

    def run_once(self) -> None:
        self.marks.append(self.probe.mark())
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fockcalc", *self.argv], capture_output=True, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)  # fmt: skip
        self.times.append(time.perf_counter() - start)
        self.same = self.same and (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == self.expected


def run_corners(wl) -> list[dict]:
    """Each known-defect corner once, untimed; what it raised, if anything."""
    from workloads import OK

    outcomes = []
    for index, item in enumerate(wl.corners, start=len(wl.items)):
        try:
            with warnings.catch_warnings():  # the overflow warnings that precede the defect's error
                warnings.simplefilter("ignore", RuntimeWarning)
                outcome, error = wl.check(index, item, wl.run(item)), None
        except Exception as exc:
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append({"item": wl.describe(item), "completed": outcome == OK, "error": error})
    return outcomes


def measure(wl, seconds: float) -> dict:
    from calib import SpeedProbe

    probe = SpeedProbe()
    cli = ColdCli(wl.cli_argv, probe)
    loop = Loop(wl, probe=probe)
    cli_every = -(-len(wl.items) // CLI_RUNS_PER_PASS)
    loop.run_for(seconds, after_op=lambda index: (index + 1) % cli_every == 0 and cli.run_once())
    while len(cli.times) < CLI_MIN_RUNS:
        cli.run_once()
    probe.mark()  # closes the last interval
    corners = run_corners(wl)
    done = loop.completed_times
    done_scaled = [probe.scale(t, m) for t, m in zip(done, loop.completed_marks)]
    raw = {
        "op_s.p50": _median(done),
        "op_s.p90": _p90(done),
        "ops_per_s": len(done) / sum(loop.times),
        "cli_cold_s.p50": _median(cli.times),
    }
    items_ok = len(wl.items) - len(loop.failed_items)
    corners_ok = sum(c["completed"] for c in corners)
    return {
        "loops": [loop],
        "speed_factor": probe.factor(),
        "raw": raw,
        "op_s.p50": _median(done_scaled),
        "op_s.p90": _p90(done_scaled),
        "ops_per_s": len(done) / sum(probe.scale(t, m) for t, m in zip(loop.times, loop.marks)),
        "cli_cold_s.p50": _median([probe.scale(t, m) for t, m in zip(cli.times, cli.marks)]),
        "completed": len(done),
        "mix_completed_ratio": (items_ok + corners_ok) / (len(wl.items) + len(wl.corners)),
        "corners": corners,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli": {"argv": cli.argv, "same_output": cli.same, "times_s": cli.times},
        "calibration_s": probe.times,
        "op_marks": loop.marks,
        "cli_marks": cli.marks,
    }


def measure_traced(wl, seconds: float, span_file: Path) -> dict:
    from spans import Tracer

    # an untraced share of the run first, then the traced passes; the
    # difference of their medians is the tracing overhead
    plain = Loop(wl)
    plain.run_for(seconds * 0.4)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Loop(wl, tracer)
        traced.run_for(seconds * 0.6)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    traced_p50 = _median(traced.completed_times)
    layers["trace.op_s.p50"] = (traced_p50, "s")
    layers["trace.overhead_s"] = (traced_p50 - _median(plain.completed_times), "s")
    OUT_DIR.mkdir(exist_ok=True)
    span_file.write_text(json.dumps({"workload": wl.name, "op": 0, "spans": tracer.spans_json()}))
    return {"loops": [plain, traced], "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # one CPU for this process and the cold CLI runs it starts, so the
    # calibration kernel samples the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    start = time.perf_counter()
    import fockcalc
    import fockcalc.cli  # noqa: F401  (what ``python -m fockcalc`` imports)

    import_s = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(fockcalc.__file__).resolve().parents:
        print(f"error: imported fockcalc from {fockcalc.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy as np

    from calib import SpeedProbe
    from workloads import WORKLOADS

    # kernel times around the rest of set-up, for the parent to scale set-up by
    setup_probe = SpeedProbe()
    setup_probe.mark()
    wl = WORKLOADS[args.workload](args.seed)
    try:
        wl.run(wl.items[0])  # warm-up, untimed
    except Exception:
        pass
    setup_probe.mark()
    print("READY " + json.dumps({"import_s": import_s, "calibration_s": setup_probe.times}), flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = measure_traced(wl, args.seconds, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        result = measure(wl, args.seconds)
    loops = result.pop("loops")
    result.update({
        "attempted": sum(len(lp.times) for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "wrong": sum(lp.wrong for lp in loops),
        "op_times_s": [t for lp in loops for t in lp.times],
        "numpy": np.__version__,
        "fockcalc": fockcalc.__version__,
        "mix": wl.mix(),
    })  # fmt: skip
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
