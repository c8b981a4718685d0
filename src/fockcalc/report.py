"""Structured results for identity checks.

Every checker returns a CheckReport: the residuals it measured (per
truncation order where truncation matters, with order 0 marking
order-independent pointwise or symbolic measurements), each with the Rule it
is held to, and free-form notes.  The report derives its verdict from those
rules alone.  Reports serialize to a stable JSON schema, to CSV rows, or to
plain text; serialization is deterministic so identical runs produce
identical bytes.
"""

from __future__ import annotations

import math
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Any

from .series import _Record

__all__ = ["REPORTED", "CheckReport", "Rule", "Verdict", "render_reports", "rules_hold"]

TOOL_VERSION = "0.1.0"


class Verdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    INFORMATIONAL = "Informational"


class Rule(_Record):
    """What an asserted residual must satisfy: at_least <= value <= at_most, and with a slack, non-decrease
    across orders up to relative rounding: value * (1 + slack) >= previous * (1 - previous slack), the previous
    being the last earlier residual with a slack."""

    at_most: float
    at_least: float
    slack: float | None

    def __init__(self, at_most: float = math.inf, at_least: float = -math.inf, slack: float | None = None) -> None:
        object.__setattr__(self, "at_most", at_most)
        object.__setattr__(self, "at_least", at_least)
        object.__setattr__(self, "slack", slack)


# the rule of a residual that is reported only and never enters the verdict, told apart by identity
REPORTED = Rule()


def rules_hold(values, rules) -> bool:
    """Whether every value meets its rule: REPORTED always holds, and nan fails every other rule."""
    steps = [(v, rule.slack) for v, rule in zip(values, rules) if rule.slack is not None]
    return all(rule is REPORTED or rule.at_least <= v <= rule.at_most for v, rule in zip(values, rules)) and all(
        b * (1.0 + sb) >= a * (1.0 - sa) for (a, sa), (b, sb) in zip(steps, steps[1:])
    )


class CheckReport(_Record):
    """Outcome of one named check.

    residuals is given as (N, value, rule) triples and kept as (N, value) pairs, the rules apart in
    ``rules``.  The verdict is Informational when every rule is REPORTED, else Pass iff every rule holds.
    """

    check_name: str
    params_echo: dict[str, Any]
    residuals: tuple[tuple[int, float], ...]
    notes: str
    rules: tuple[Rule, ...]
    verdict: Verdict

    def __init__(self, check_name: str, params_echo: dict[str, Any], residuals, notes: str = "") -> None:
        if not residuals:
            raise ValueError("a report must carry at least one residual")
        rules = tuple(rule for _, _, rule in residuals)
        values = tuple((int(n), float(v)) for n, v, _ in residuals)
        if all(rule is REPORTED for rule in rules):
            verdict = Verdict.INFORMATIONAL
        else:
            verdict = Verdict.PASS if rules_hold([v for _, v in values], rules) else Verdict.FAIL
        object.__setattr__(self, "check_name", check_name)
        object.__setattr__(self, "params_echo", params_echo)
        object.__setattr__(self, "residuals", values)
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "verdict", verdict)

    @property
    def passed(self) -> bool:
        return self.verdict in (Verdict.PASS, Verdict.INFORMATIONAL)

    @property
    def max_residual(self) -> float:
        # a nan residual is the largest, as it fails every rule
        return max((v for _, v in self.residuals), key=lambda v: (math.isnan(v), v))

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check_name,
            "params": _jsonable(self.params_echo),
            "residuals": [{"N": n, "value": v} for n, v in self.residuals],
            "verdict": self.verdict.value,
            "notes": self.notes,
            "tool_version": TOOL_VERSION,
        }


def _jsonable(value: Any) -> Any:
    """Coerce params echoes into plain JSON types, complexes as 're+imi' text."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, Enum):
        return value.value
    if hasattr(value, "item"):
        return _jsonable(value.item())
    return value


def format_complex(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _json_text(value: Any, newline: str = "\n") -> str:
    """json.dumps(value, indent=2) without the pure-Python encoder json runs to indent, for str-keyed dicts, lists,
    tuples, str, int, float, bool and None; newline is the break and indent before the value's closing bracket."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        return "Infinity" if value == math.inf else "-Infinity" if value == -math.inf else float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_reports(reports: list[CheckReport], fmt: str) -> str:
    if fmt == "json":
        docs = [r.to_dict() for r in reports]
        payload: Any = docs[0] if len(docs) == 1 else docs
        return _json_text(payload) + "\n"
    if fmt == "csv":
        lines = ["check,N,residual,verdict"]
        for r in reports:
            for n, v in r.residuals:
                lines.append(f"{r.check_name},{n},{v!r},{r.verdict.value}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = []
        for r in reports:
            lines.append(f"[{r.verdict.value}] {r.check_name}")
            for n, v in r.residuals:
                label = f"N={n}" if n else "pointwise"
                lines.append(f"    {label}: residual {v:.3e}")
            if r.notes:
                lines.append(f"    notes: {r.notes}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")
