"""The benchmark (perfbench/) reads fockcalc by name.

The tracer (perfbench/spans.py) wraps fockcalc functions, and the workloads
(perfbench/workloads.py) call them.  Renaming or deleting either breaks
``perfbench/run.py``; these run one traced ``suite`` operation and one item of
each workload, so such a change fails here too.
"""

from pathlib import Path

import pytest

import fockcalc.cli as fcli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_counts_one_suite_op(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.begin_op()
        rc = fcli.cmd_suite(fcli.RunConfig(orders=(16,)))
        tracer.end_op()
        tracer.fold()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    metrics = tracer.layer_metrics()
    assert metrics["series.compose_affine.calls"][0] > 0
    for check in spans.CHECK_NAMES:
        assert metrics[f"checks.{check}.calls"][0] > 0, check


@pytest.mark.parametrize("name", ["suite", "sections", "oracle"])
def test_workload_runs_and_checks_its_first_item(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name](5)
    item = workload.items[0]
    assert workload.check(0, item, workload.run(item)) == workloads.OK
