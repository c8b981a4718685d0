"""The one verdict rule of CheckReport."""

import math

import pytest

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
        ([(0, math.inf, Rule(at_least=1.0))], Verdict.PASS),
    ],
)
def test_verdict_from_rules(entries, verdict):
    assert report(*entries).verdict is verdict


@pytest.mark.parametrize("rule", [Rule(at_most=1.0), Rule(at_least=0.0), Rule(slack=0.0), Rule()])
def test_nan_fails_every_rule(rule):
    assert not rules_hold([math.nan], [rule])
    assert report((0, math.nan, rule)).verdict is Verdict.FAIL


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
