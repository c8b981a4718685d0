"""The one verdict rule of CheckReport, and the one JSON rendering of every report."""

import json
import math
import os
import subprocess
import sys

import pytest
from fockcalc import cli
from fockcalc.cli import main
from fockcalc.report import REPORTED, CheckReport, Rule, Verdict, rules_hold


def report(*entries):
    return CheckReport("demo", {}, tuple(entries))


@pytest.mark.parametrize(
    "entries,verdict",
    [
        ([(0, 1.0, REPORTED)], Verdict.INFORMATIONAL),
        ([(0, math.nan, REPORTED), (0, math.inf, REPORTED)], Verdict.INFORMATIONAL),
        ([(0, 1e-12, Rule(at_most=1e-12)), (0, 5.0, REPORTED)], Verdict.PASS),
        ([(0, 1e-12, Rule(at_most=1e-12)), (0, 2e-12, Rule(at_most=1e-12))], Verdict.FAIL),
        ([(0, 0.0, Rule(at_most=0.0))], Verdict.PASS),
        ([(0, 5e-324, Rule(at_most=0.0))], Verdict.FAIL),
        ([(0, 1e-6, Rule(at_least=math.nextafter(1e-6, math.inf)))], Verdict.FAIL),
        ([(0, math.nextafter(1e-6, math.inf), Rule(at_least=math.nextafter(1e-6, math.inf)))], Verdict.PASS),
        ([(0, sys.float_info.max, Rule(at_least=1.0))], Verdict.PASS),
        ([(0, math.inf, Rule(at_least=1.0))], Verdict.FAIL),
    ],
)
def test_verdict_from_rules(entries, verdict):
    assert report(*entries).verdict is verdict


@pytest.mark.parametrize("rule", [Rule(at_most=1.0), Rule(at_least=0.0), Rule(slack=0.0), Rule()])
def test_nan_fails_every_rule(rule):
    assert not rules_hold([math.nan], [rule])
    assert report((0, math.nan, rule)).verdict is Verdict.FAIL


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("rule", [Rule(at_most=1.0), Rule(at_least=0.0), Rule(at_least=-math.inf), Rule(slack=0.0), Rule()])
def test_infinity_fails_every_rule(value, rule):
    assert not rules_hold([value], [rule])
    assert report((0, value, rule)).verdict is Verdict.FAIL


def test_non_finite_breaks_a_non_decreasing_sequence_and_is_still_reported():
    steps = [Rule(slack=0.0)] * 2
    assert rules_hold([1.0, sys.float_info.max], steps)
    assert not rules_hold([1.0, math.inf], steps)
    assert rules_hold([math.inf, math.nan, -math.inf], [REPORTED] * 3)


def test_normality_overflowing_to_infinity_fails():
    # the commutator norm at alpha 1e6 reads 1.1e77 at N = 16, 2.0e145 at 32 and overflows at 64
    cmd = [sys.executable, "-m", "fockcalc", "check", "normality", "--alpha", "1e6", "--format", "text"]
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stdout.startswith("[Fail] normality\n")
    assert "N=64: residual inf" in out.stdout
    assert "non-finite residual" in out.stdout


def test_non_decrease_is_up_to_each_residuals_slack():
    # a dip of 1 part in 1e15 is within two slacks of 1e-15; a dip of 1e-14 is not
    slack = [Rule(slack=1e-15)] * 2
    assert rules_hold([1.0, 1.0 - 1e-15], slack)
    assert not rules_hold([1.0, 1.0 - 1e-14], slack)
    # a residual without a slack is not part of the sequence
    assert rules_hold([1.0, 0.0, 1.0], [Rule(slack=0.0), Rule(at_most=1.0), Rule(slack=0.0)])


def test_residuals_keep_their_pair_shape():
    r = report((16, 1e-13, Rule(at_most=1e-12)), (0, 2.0, REPORTED))
    assert r.residuals == ((16, 1e-13), (0, 2.0))
    assert r.rules == (Rule(at_most=1e-12), REPORTED)
    assert "rule" not in r.to_dict()["residuals"][0]


def test_max_residual_keeps_nan():
    assert math.isnan(report((0, 1.0, REPORTED), (0, math.nan, REPORTED)).max_residual)


@pytest.mark.parametrize(
    "argv", [["check", "normality", "--format", "json"], ["oracle", "--max-degree", "4"], ["suite", "--orders", "4,8"]]
)
def test_every_json_rendering_goes_through_the_one_writer(monkeypatch, capsys, argv):
    honest = json.dumps
    documents = []

    def spy(value, **kwargs):
        if kwargs.get("indent") == 2:
            documents.append(value)
        return honest(value, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    main(argv)
    out = capsys.readouterr().out
    assert len(documents) == 1
    assert out == honest(documents[0], indent=2) + "\n"
