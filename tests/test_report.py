"""The one verdict rule of CheckReport, and the one JSON writer of every report."""

import json
import math

import pytest

from fockcalc import cli, report as report_module
from fockcalc.cli import main
from fockcalc.report import REPORTED, CheckReport, Rule, Verdict, _json_text, rules_hold


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


RESIDUALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 0.1, 1e16, -2.5e-8]
TEXTS = ['say "hi"', "back\\slash", "tab\t line\n cr\r nul\x00 bell\x07 del\x7f", "caf\u00e9", "\U0001d53d ock", "", "/"]


@pytest.mark.parametrize(
    "doc",
    [
        {
            "check": "demo",
            "params": {"orders": [16, 32], "grid": [[0.5, [1, 2]], [], [[True, None]]], "flag": False},
            "residuals": [{"N": n, "value": v} for n, v in enumerate(RESIDUALS)],
            "texts": TEXTS,
            "ints": [0, -1, 2**64 + 1, -(10**40)],
            "empty": {"dict": {}, "list": [], "tuple": ()},
            "constants": [True, False, None],
            'key "\\\u00e9\U0001d53d': {"nested": {"deeper": [{}]}},
        },
        [{"a": 1}, [], {}],
        {},
        [],
        (),
        "caf\u00e9",
        -0.0,
        math.nan,
        2**70,
        None,
        True,
    ],
)
def test_json_writer_prints_the_bytes_of_json_dumps_indent_2(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_json_writer_refuses_what_json_refuses():
    for value in (1j, {1, 2}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)


@pytest.mark.parametrize(
    "argv", [["check", "normality", "--format", "json"], ["oracle", "--max-degree", "4"], ["suite", "--orders", "4,8"]]
)
def test_every_json_rendering_goes_through_the_one_writer(monkeypatch, capsys, argv):
    assert cli._json_text is report_module._json_text
    honest = report_module._json_text
    documents = []

    def spy(value, newline="\n"):
        if newline == "\n":
            documents.append(value)
        return honest(value, newline)

    monkeypatch.setattr(report_module, "_json_text", spy)
    monkeypatch.setattr(cli, "_json_text", spy)
    main(argv)
    out = capsys.readouterr().out
    assert len(documents) == 1
    assert out == json.dumps(documents[0], indent=2) + "\n"
