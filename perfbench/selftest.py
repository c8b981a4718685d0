"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's format rules, runs every
workload for one second untraced, runs a traced `suite` twice and requires
its call counts to repeat exactly, and requires a copy of the benchmark
without the fockcalc sources to fail without printing a result.  Exits 0 when
everything holds.  Writes only under perfbench/out/.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def require(condition: bool, what=None) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {what}")


def check_spec(spec: dict) -> None:
    require(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, sorted(spec))
    require(1 <= len(spec["paths"]) <= 16 and all((ROOT / p).is_dir() for p in spec["paths"]))
    require(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60)
    require(2 <= len(spec["workloads"]) <= 8)
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"])
    require(1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128)
    for m in spec["end_to_end"]:
        require(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m)
    for m in spec["per_layer"]:
        require(set(m) == {"name", "unit", "better"}, m)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower")
    require(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    require(len(names) == len(set(names)), "names must be unique")
    for m in spec["end_to_end"] + spec["per_layer"]:
        require(NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m)
    require(len(json.dumps(spec)) <= 64 * 1024)


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last


def check_result(res: dict, spec_metrics: list[dict]) -> None:
    require(set(res) == {"correct", "attempted", "failed", "metrics"}, sorted(res))
    require(res["correct"] is True and res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"])
    require(list(res["metrics"]) == [m["name"] for m in spec_metrics])
    for m in spec_metrics:
        got = res["metrics"][m["name"]]
        require(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("BENCHMARK.json: ok")

    for w in spec["workloads"]:
        rc, res = run(["--workload", w["name"], "--seed", "5", "--seconds", "1", "--trace", "0"])
        require(rc == 0 and res is not None, (w["name"], rc))
        check_result(res, spec["end_to_end"])
        require(all(m["value"] > 0 for m in res["metrics"].values()), res["metrics"])
        print(f"{w['name']}: ok ({res['attempted']} ops, {res['failed']} failed)")

    counts = []
    for _ in range(2):
        rc, res = run(["--workload", "suite", "--seed", "5", "--seconds", "1", "--trace", "1"])
        require(rc == 0 and res is not None, rc)
        check_result(res, spec["per_layer"])
        counts.append({k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"})
    require(counts[0] == counts[1], "traced call counts differ between runs")
    require(counts[0]["series.compose_affine.calls"] > 0)
    print("suite traced: ok, counts repeat")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, res = run(["--workload", "suite", "--seed", "5", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    require(rc != 0 and res is None, (rc, res))
    print("without sources: fails as required")
    return 0


if __name__ == "__main__":
    sys.exit(main())
