"""The benchmark tracer (perfbench/spans.py) wraps fockcalc functions by name.

Renaming or deleting a traced function breaks ``perfbench/run.py --trace 1``;
this runs one traced ``suite`` operation so such a change fails here too.
"""

from pathlib import Path

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
