"""CLI contract: flags, exit codes, output formats, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockcalc.checks as checks
import fockcalc.cli as cli
from fockcalc import FockParams, SelfAdjointSymbolParams, assemble_matrix
from fockcalc.cli import CHECKERS, UNTOLERANCED, main, parse_complex, parse_orders, RunConfig, run_check, run_suite, suite_grid
from fockcalc.report import format_complex

from corpus import REQUIRED_FLAGS


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("0.5", 0.5 + 0j),
        ("1", 1 + 0j),
        ("-2.5e-1", -0.25 + 0j),
        ("0.5+0.25i", 0.5 + 0.25j),
        ("0.5-0.25i", 0.5 - 0.25j),
        ("0.3i", 0.3j),
        ("-0.3i", -0.3j),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == value


def test_parse_complex_rejects_garbage():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("zebra")


def test_parse_orders():
    assert parse_orders("16,32,64") == (16, 32, 64)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_orders("32,16")


def test_runconfig_validation():
    # RunConfig is a plain record: the run validates the values a check reads
    with pytest.raises(ValueError, match="alpha must be a finite positive real"):
        run_suite(RunConfig(alpha=-1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        run_suite(RunConfig(orders=(32, 16)))


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_runconfig_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be a finite positive real"):
        run_check("eigen-identity", {}, RunConfig(alpha=alpha))


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0, -1.0])
def test_one_alpha_rule_and_message(alpha):
    # the run, the Fock parameters and the self-adjoint family reject alpha alike
    builds = (
        lambda: run_check("eigen-identity", {}, RunConfig(alpha=alpha)),
        lambda: FockParams(alpha, 8),
        lambda: SelfAdjointSymbolParams(1.0, 0.5, 0.25, alpha),
    )
    for build in builds:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == f"alpha must be a finite positive real, got {alpha!r}"


def test_unread_invalid_run_value_is_not_validated():
    # a check that reads neither alpha nor orders runs whatever they hold
    report = run_check("counterexample", {"eta": 2.0}, RunConfig(alpha=math.nan, orders=(0,)))
    assert report.passed


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command", [["check", "disk-criterion"], ["check", "counterexample", "--eta", "2"], ["suite", "--orders", "16"]]
)
def test_non_finite_alpha_usage_error(capsys, command, value):
    # disk-criterion and counterexample never read alpha, and say so before looking at its value
    code, out, err = run_cli([*command, "--alpha", value], capsys)
    assert code == 2
    assert out == ""
    if command[0] == "check":
        assert err == f"error: check {command[1]} does not read --alpha\n"
    else:
        assert err == f"error: alpha must be a finite positive real, got {float(value)!r}\n"


@pytest.mark.parametrize(
    "command",
    [["check", "commutant-symbols", "--eta", "2", "--alpha", "-1"], ["matrix", "--alpha", "nan"]],
    ids=["commutant-symbols", "matrix"],
)
def test_invalid_alpha_where_read_usage_error(capsys, command):
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: alpha must be a finite positive real, got {float(command[-1])!r}\n"


# ---------------------------------------------------------------------------
# check subcommand
# ---------------------------------------------------------------------------


def test_check_selfadjoint_forward_passes(capsys):
    code, out, _ = run_cli(["check", "selfadjoint-forward", "--c", "1", "--a0", "0.5", "--a1", "0.25"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Pass"
    assert doc["check"] == "selfadjoint-forward"
    assert all(r["value"] <= 1e-12 for r in doc["residuals"] if r["N"] > 0)


def test_check_fixed_point_constant_map_onto_the_pole(capsys):
    # 1 + 0 z fixes b = 1 and sends every sample onto h's pole 1 / conj(b) = 1;
    # pytest turns a numpy warning on the way into an error
    code, out, err = run_cli(["check", "fixed-point", "--a0", "1", "--a1", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: all sample points fell within the pole margin\n"


def test_check_normality_trivial_branch(capsys):
    code, out, _ = run_cli(["check", "normality", "--a", "0.5", "--b", "0"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "Pass"


def test_check_counterexample(capsys):
    code, out, _ = run_cli(["check", "counterexample", "--eta", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Pass"


def test_check_failure_exit_code(capsys):
    code, out, _ = run_cli(["check", "selfadjoint-forward", "--c", "1+0.2i"], capsys)
    assert code == 1
    assert json.loads(out)["verdict"] == "Fail"


def test_check_unknown_name_usage_error(capsys):
    code = main(["check", "not-a-checker"])
    assert code == 2


def test_check_missing_required_flag(capsys):
    code, _, err = run_cli(["check", "commutant-symbols"], capsys)
    assert code == 2
    assert "--eta" in err


@pytest.mark.parametrize(
    "argv,missing",
    [
        (["counterexample"], ["--eta"]),
        (["selfadjoint-reverse"], ["--map-a", "--map-b"]),
        (["selfadjoint-reverse", "--map-a", "0.25"], ["--map-b"]),
    ],
)
def test_check_missing_required_flags_named(capsys, argv, missing):
    code, out, err = run_cli(["check", *argv], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert all(flag in err for flag in missing)


def test_check_degenerate_parameters_usage_error(capsys):
    code, _, err = run_cli(["check", "commutant-symbols", "--eta", "2.25", "--b", "0.666666666666666666"], capsys)
    # |b|^2 eta == 1 raises a parameter error, mapped to exit 2
    assert code == 2
    assert "eta" in err or "close to 1" in err


def test_check_text_format(capsys):
    code, out, _ = run_cli(["check", "fixed-point", "--a0", "0.5", "--a1", "0.25", "--format", "text"], capsys)
    assert code == 0
    assert out.startswith("[Pass] fixed-point")


def test_check_csv_format(capsys):
    code, out, _ = run_cli(["check", "fixed-point", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "check,N,residual,verdict"


def test_tolerance_override_can_force_failure(capsys):
    code, out, _ = run_cli(
        ["check", "moebius-conjugation", "--eta", "2", "--b", "0.5", "--tolerance", "moebius-conjugation=1e-30"],
        capsys,
    )
    assert code == 1


def test_tolerance_unknown_check_name_usage_error(capsys):
    code, out, err = run_cli(["check", "fixed-point", "--tolerance", "nosuch=1e-3"], capsys)
    assert code == 2
    assert out == ""
    assert "nosuch" in err


@pytest.mark.parametrize("command", [["check", "disk-criterion"], ["suite", "--orders", "16"]])
def test_tolerance_on_check_without_tolerance_usage_error(capsys, command):
    # the disk-criterion verdict compares two predicates; no tolerance enters it
    code, out, err = run_cli([*command, "--tolerance", "disk-criterion=1e-3"], capsys)
    assert code == 2
    assert out == ""
    assert "disk-criterion" in err


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "-inf"])
@pytest.mark.parametrize(
    "command,name",
    [
        (
            ["check", "selfadjoint-reverse", "--map-a", "0.25+0.1i", "--map-b", "0.5", "--weight-w", "0.5"],
            "selfadjoint-reverse",
        ),
        (["suite", "--orders", "16"], "selfadjoint-forward"),
    ],
)
def test_tolerance_value_not_finite_or_negative_usage_error(capsys, command, name, value):
    # inf would turn the Fail of this non-self-adjoint symbol into a Pass
    code, out, err = run_cli([*command, "--tolerance", f"{name}={value}"], capsys)
    assert code == 2
    assert out == ""
    assert name in err


def test_tolerance_value_not_a_number_usage_error(capsys):
    code, out, err = run_cli(["check", "fixed-point", "--tolerance", "fixed-point=abc"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --tolerance fixed-point: expected a finite value >= 0, got 'abc'\n"


def test_tolerance_zero_accepted(capsys):
    # the scalar degeneration commutes exactly, so even a zero bound passes
    code, out, err = run_cli(["check", "degenerate-commutant", "--tolerance", "degenerate-commutant=0"], capsys)
    assert code == 0
    assert err == ""
    assert json.loads(out)["verdict"] == "Pass"


def test_tolerance_override_reaches_every_tunable_runner(monkeypatch):
    """Each suite row hands its check's override to the checker it calls, as ``tol``."""
    seen = []

    def recorder(fn):
        def wrapped(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return fn(*args, **kwargs)

        return wrapped

    for name in dir(cli):
        if name.startswith("check_") or name == "reproduce_counterexample":
            monkeypatch.setattr(cli, name, recorder(getattr(cli, name)))
    overrides = {name: 0.125 for name in CHECKERS if name not in UNTOLERANCED}
    run_suite(RunConfig(orders=(16,), tolerance_overrides=overrides))
    assert seen == [overrides.get(name) for name, _ in suite_grid(1.0)]


@pytest.mark.parametrize(
    "name,draws",
    [("moebius-conjugation", "0"), ("disk-criterion", "0"), ("adjoint-factorization", "-3")],
)
def test_battery_without_draws_usage_error(capsys, name, draws):
    code, out, err = run_cli(["check", name, "--draws", draws], capsys)
    assert code == 2
    assert out == ""
    assert "draws must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fixed-point", "--draws", "5"],
        ["selfadjoint-forward", "--draws", "5"],
        ["moebius-conjugation", "--eta", "2", "--draws", "5"],
        ["adjoint-factorization", "--map-a", "0.5", "--draws", "5"],
    ],
)
def test_draws_without_battery_usage_error(capsys, argv):
    code, out, err = run_cli(["check", *argv], capsys)
    assert code == 2
    assert out == ""
    assert "--draws" in err


def test_negative_j_max_usage_error(capsys):
    code, out, err = run_cli(["check", "eigen-identity", "--j-max", "-2", "--format", "text"], capsys)
    assert code == 2
    assert out == ""
    assert "j_max must be at least 0" in err


@pytest.mark.parametrize(
    "name,echo_key",
    [("disk-criterion", "draws"), ("moebius-conjugation", "draws"), ("adjoint-factorization", "map_draws")],
)
def test_battery_draws_applied(capsys, name, echo_key):
    code, out, _ = run_cli(["check", name, "--draws", "3"], capsys)
    assert code == 0
    assert json.loads(out)["params"][echo_key] == 3


def _read_flags(name):
    return set().union(*(flags for flags, _ in CHECKERS[name]))


@pytest.mark.parametrize(
    "name,dest",
    [(name, dest) for name in sorted(CHECKERS) for dest in cli._check_flags() if dest not in _read_flags(name)],
)
def test_check_flag_the_check_does_not_read_is_usage_error(capsys, name, dest):
    flag = f"--{dest.replace('_', '-')}"
    code, out, err = run_cli(["check", name, *REQUIRED_FLAGS.get(name, []), flag, "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: check {name} does not read {flag}\n"


# the run flags each check reads; every case of a check reads the same ones
RUN_FLAGS_READ = {
    "selfadjoint-forward": {"alpha", "orders", "seed"},
    "selfadjoint-reverse": {"alpha", "orders"},
    "fixed-point": {"seed"},
    "disk-criterion": {"seed"},
    "eigen-identity": {"alpha", "seed"},
    "fixed-point-transfer": {"alpha", "seed"},
    "commutant-symbols": {"alpha", "seed"},
    "moebius-conjugation": {"seed"},
    "counterexample": set(),
    "degenerate-commutant": {"alpha", "orders"},
    "adjoint-factorization": {"alpha", "orders", "seed"},
    "normality": {"alpha", "orders"},
}


def test_registry_lists_the_run_flags_each_check_reads():
    for name, cases in CHECKERS.items():
        assert [flags.keys() & set(cli.RUN_FLAGS) for flags, _ in cases] == [RUN_FLAGS_READ[name]] * len(cases)


@pytest.mark.parametrize(
    "name,dest",
    [(name, dest) for name in sorted(CHECKERS) for dest in ("alpha", "orders", "seed") if dest not in RUN_FLAGS_READ[name]],
)
def test_run_flag_the_check_does_not_read_is_usage_error(capsys, name, dest):
    # each was accepted and dropped: check counterexample --eta 2 --seed 5 printed the bytes of --eta 2
    code, out, err = run_cli(["check", name, *REQUIRED_FLAGS.get(name, []), f"--{dest}", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: check {name} does not read --{dest}\n"


@pytest.mark.parametrize(
    "argv,words",
    [
        (["fixed-point-transfer", "--eta", "2", "--gamma", "0.5"], ["--eta", "--gamma", "together"]),
        (["moebius-conjugation", "--eta", "2", "--draws", "5"], ["--eta", "--draws", "together"]),
        (["moebius-conjugation", "--b", "0.5"], ["requires --eta"]),
    ],
)
def test_flags_of_different_cases_are_usage_errors(capsys, argv, words):
    # --gamma used to be dropped under --eta, and --b without --eta used to run the battery
    code, out, err = run_cli(["check", *argv], capsys)
    assert code == 2
    assert out == ""
    assert all(word in err for word in words)


# each check's params echo with no check flag given, as it read before the defaults moved into CHECKERS
FAMILY_ECHO = {"c": "1.0", "a0": "0.5", "a1": "0.25", "alpha": 1.0}
DEFAULT_ECHO = {
    "selfadjoint-forward": FAMILY_ECHO,
    "fixed-point": {"a0": "0.5", "a1": "0.25", "b": "0.6666666666666666", "samples": 20},
    "disk-criterion": {"draws": 200, "boundary_points": 1000, "seed": 42},
    "eigen-identity": {**FAMILY_ECHO, "j_max": 5, "b": "0.6666666666666666", "samples": 20},
    "fixed-point-transfer": {**FAMILY_ECHO, "b": "0.6666666666666666", "samples": 20},
    "moebius-conjugation": {"draws": 50, "seed": 42},
    "degenerate-commutant": {**FAMILY_ECHO, "b": "0.6666666666666666", "order": 32},
    "adjoint-factorization": {"map_draws": 20, "seed": 42, "order": 32},
    "normality": {"a": "0.5", "b": "0.6666666666666666", "alpha": 1.0},
}


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_check_defaults_are_pinned(capsys, name):
    code, out, err = run_cli(["check", name], capsys)
    if name in REQUIRED_FLAGS:
        assert code == 2 and out == "" and REQUIRED_FLAGS[name][0] in err
    else:
        assert code == 0, err
        assert json.loads(out)["params"] == DEFAULT_ECHO[name]


def test_repeated_tolerance_for_one_check_usage_error(capsys):
    # the last value used to win silently, here turning a Pass into a Fail
    argv = ["check", "normality", "--tolerance", "normality=1e-9", "--tolerance", "normality=5"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "normality" in err and "more than once" in err


@pytest.mark.parametrize("orders", ["0", "0,16", "-3,4"])
@pytest.mark.parametrize(
    "command", [["suite"], *(["check", name, *REQUIRED_FLAGS.get(name, [])] for name in sorted(CHECKERS))]
)
def test_order_below_one_usage_error(capsys, command, orders):
    # disk-criterion builds no section, so an order 0 used to pass it unnoticed
    code, out, err = run_cli([*command, f"--orders={orders}"], capsys)
    assert code == 2
    assert out == ""
    assert "integers >= 1" in err


def test_runconfig_rejects_order_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        run_check("normality", {}, RunConfig(orders=(0, 16)))


# ---------------------------------------------------------------------------
# matrix subcommand
# ---------------------------------------------------------------------------


def test_matrix_identity_csv(capsys):
    code, out, err = run_cli(["matrix", "--order", "3", "--map-a", "1", "--map-b", "0"], capsys)
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 4
    assert rows[0].split(",")[0] == "1"
    assert err == ""


def test_matrix_hermitian_dump(capsys):
    code, out, _ = run_cli(
        ["matrix", "--order", "8", "--weight-c", "1", "--weight-w", "0.5", "--map-a", "0.25", "--map-b", "0.5"],
        capsys,
    )
    assert code == 0
    import numpy as np

    rows = [[float(x) for x in line.split(",")] for line in out.strip().split("\n")]
    arr = np.array(rows)
    mat = arr[:, 0::2] + 1j * arr[:, 1::2]
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--alpha", "3"],
        ["oracle", "--orders", "8"],
        ["oracle", "--seed", "9"],
        ["oracle", "--tolerance", "selfadjoint-forward=1e-30"],
        ["matrix", "--format", "json"],
        ["matrix", "--orders", "4"],
        ["matrix", "--seed", "3"],
        ["matrix", "--tolerance", "selfadjoint-forward=1e-3"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_matrix_and_oracle_take_their_own_flags(capsys):
    code, out, _ = run_cli(
        ["matrix", "--alpha=1", "--order=4", "--weight-c=0.9", "--weight-w=0.1+0.2i", "--map-a=0.3", "--map-b=0.1i"],
        capsys,
    )
    assert code == 0 and len(out.strip().split("\n")) == 5
    code, out, _ = run_cli(["oracle", "--max-degree", "4", "--alphas", "1,2", "--format", "text"], capsys)
    assert code == 0 and out.startswith("[Pass] oracle-agreement")


@pytest.mark.parametrize(
    "command, message",
    [(["matrix", "--map-a", "nan"], "a"), (["check", "selfadjoint-forward", "--c", "nan"], "c")],
    ids=["matrix", "selfadjoint-forward"],
)
def test_non_finite_field_usage_error(capsys, command, message):
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: non-finite {message} (nan+0j)\n"


def test_matrix_unbounded_warns_but_emits(capsys):
    code, out, err = run_cli(["matrix", "--order", "2", "--map-a", "1", "--map-b", "0.1"], capsys)
    assert code == 0
    assert "Unbounded" in err
    assert len(out.strip().split("\n")) == 3


UNBOUNDED_WARNING = "warning: Unbounded composition map; finite section emitted anyway\n"


@pytest.mark.parametrize(
    "argv,warning",
    [
        (["--order=3", "--map-b=1e200"], UNBOUNDED_WARNING),
        (["--order=2", "--alpha=0.5", "--weight-w=1e308"], ""),
    ],
    ids=["unbounded-offset", "weight-overflow"],
)
def test_matrix_overflow_reports_one_error(capsys, argv, warning):
    # entries past the double range are reported once, by the section's finiteness check
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["matrix", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err == warning + "error: matrix entries must be finite\n"
    assert [str(w.message) for w in caught] == []


# the flags of one bounded symbol with a nonzero entry in every exponent range of
# the CSV: fixed notation, scientific notation and exponents below -100
PINNED_SYMBOL = ["--alpha=1", "--weight-c=0.8-0.3i", "--weight-w=0.35+0.2i", "--map-a=0.6+0.25i", "--map-b=-0.4+0.3i"]


@pytest.mark.parametrize(
    "order,digest",
    [
        (170, "e146be8b8adc3f243d4e21824472606463a203aebcec2cacbf607e7151b80e5c"),
        (1, "8b91c5a9c06d40964f7c1baf581113adc06443c2f2809c4b0a554e203574bf41"),
    ],
)
def test_matrix_csv_bytes_are_pinned(capsys, order, digest):
    # sha256 of the CSV as per-value '%.17g' formatting wrote it
    code, out, err = run_cli(["matrix", *PINNED_SYMBOL, f"--order={order}"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


# ---------------------------------------------------------------------------
# suite and oracle
# ---------------------------------------------------------------------------


def test_suite_all_pass_and_deterministic(capsys):
    code1, out1, _ = run_cli(["suite", "--orders", "16,32"], capsys)
    code2, out2, _ = run_cli(["suite", "--orders", "16,32"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["all_passed"] is True
    assert doc["config"]["tolerance_overrides"] == {}
    names = [c["check"] for c in doc["checks"]]
    assert names == sorted(names)


def test_suite_single_order(capsys):
    code, out, _ = run_cli(["suite", "--orders", "16"], capsys)
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_suite_alpha_two(capsys):
    code, out, _ = run_cli(["suite", "--orders", "16,32", "--alpha", "2"], capsys)
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_suite_alpha_eight(capsys):
    # the exponential companion weight of fixed-point-transfer falls to about
    # 1e-18 on the samples here without vanishing
    code, out, err = run_cli(["suite", "--orders", "16", "--alpha", "8", "--seed", "42"], capsys)
    assert code == 0, err
    assert json.loads(out)["all_passed"] is True


def test_suite_small_alpha_up_to_order_170(capsys):
    code, out, err = run_cli(["suite", "--alpha", "0.1", "--orders", "16,64,128,170"], capsys)
    assert code == 0, err
    assert json.loads(out)["all_passed"] is True


def test_matrix_order_170_small_alpha_is_finite(capsys):
    code, out, err = run_cli(["matrix", "--alpha", "0.5", "--order", "170"], capsys)
    assert code == 0, err
    values = [float(x) for line in out.strip().split("\n") for x in line.split(",")]
    assert len(values) == 2 * 171 * 171
    assert all(math.isfinite(v) for v in values)


@settings(max_examples=8, deadline=None)
@example(0.05, [512])
@example(20.0, [1, 512])
# past alpha 80 the commutant-symbols partner residual overflows: reported as inf, with no numpy warning
@example(80.0, [16, 32, 64])
@example(120.0, [1, 512])
@given(
    st.floats(0.05, 20.0),
    st.lists(st.integers(1, 512), min_size=1, max_size=3, unique=True).map(sorted),
)
def test_suite_reaches_a_verdict_for_every_row(alpha, orders):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["suite", "--alpha", repr(alpha), "--orders", ",".join(map(str, orders))])
    assert code in (0, 1)
    assert len(json.loads(out.getvalue())["checks"]) == len(suite_grid(alpha)) == 25


def test_overflowing_partner_residual_reads_inf():
    # a numpy warning here fails the test: the overflow is the weight's own OverflowError
    report = run_check("commutant-symbols", {"eta": 2.0}, RunConfig(alpha=80.0))
    assert "partner: inf (reported only)" in report.notes


def _suite_json(alpha, seed, orders):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.cmd_suite(RunConfig(alpha=alpha, orders=orders, seed=seed))
    return out.getvalue()


def test_suite_bytes_equal_the_per_order_and_per_row_paths(monkeypatch):
    """Sections read as leading blocks and sample rows drawn one block at a time print what the direct paths print."""
    grid = [(alpha, seed, orders) for alpha in (0.5, 2.0, 12.0) for seed in (42, 7) for orders in ((16, 32, 64), (2, 3, 5))]
    fast = [_suite_json(*key) for key in grid]

    def circle_points(seed):
        # two draws of 10 angles, one per radius
        rng = np.random.default_rng(seed)
        return np.concatenate([radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 10)) for radius in (0.4, 0.8)])

    def sections_at(sym, alpha, orders):
        return [assemble_matrix(sym, FockParams(alpha, n)) for n in orders]

    def assemble_sections(symbols, params):
        return np.stack([assemble_matrix(sym, params).entries for sym in symbols])

    monkeypatch.setattr(checks, "_sections_at", sections_at)
    monkeypatch.setattr(checks, "assemble_sections", assemble_sections)
    monkeypatch.setattr(checks, "circle_rows", lambda seed, rows: np.stack([circle_points(seed + i) for i in range(rows)]))
    assert [_suite_json(*key) for key in grid] == fast


def test_suite_applies_tolerance_override(capsys):
    code, out, _ = run_cli(["suite", "--orders", "16", "--tolerance", "selfadjoint-forward=1e-30"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["config"]["tolerance_overrides"] == {"selfadjoint-forward": 1e-30}
    verdicts = {(c["check"], c["verdict"]) for c in doc["checks"]}
    assert ("selfadjoint-forward", "Pass") not in verdicts
    assert ("selfadjoint-forward", "Fail") in verdicts
    assert all(v != "Fail" for name, v in verdicts if name != "selfadjoint-forward")


def _flag_text(value):
    return format_complex(value) if isinstance(value, complex) else repr(value)


def test_check_and_suite_share_the_registry(capsys):
    """Every registered check is on the grid, and each row run by ``check`` reports what ``suite`` does."""
    alpha = 2.0
    grid = suite_grid(alpha)
    assert {name for name, _ in grid} == set(CHECKERS)
    suite_docs = [r.to_dict() for r in run_suite(RunConfig(alpha=alpha, orders=(16,)))]
    check_docs = []
    for name, flags in grid:
        argv = ["check", name]
        # each run flag the row's check reads, at the suite's value
        for key, value in (("alpha", repr(alpha)), ("orders", "16")):
            if key in _read_flags(name):
                argv += [f"--{key}", value]
        for key, value in flags.items():
            argv += [f"--{key.replace('_', '-')}", _flag_text(value)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        check_docs.append(json.loads(out))
    check_docs.sort(key=lambda d: (d["check"], json.dumps(d["params"], sort_keys=True)))
    assert check_docs == suite_docs


def test_seed_changes_samples_but_not_verdicts(capsys):
    code1, out1, _ = run_cli(["suite", "--orders", "16", "--seed", "1"], capsys)
    code2, out2, _ = run_cli(["suite", "--orders", "16", "--seed", "2"], capsys)
    assert code1 == code2 == 0
    assert out1 != out2  # residuals differ with the sample draw


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("FOCKCALC_SEED", "7")
    _, out_env, _ = run_cli(["suite", "--orders", "16"], capsys)
    monkeypatch.delenv("FOCKCALC_SEED")
    _, out_flag, _ = run_cli(["suite", "--orders", "16", "--seed", "7"], capsys)
    assert out_env == out_flag


def test_env_seed_override_of_check(capsys, monkeypatch):
    _, out_default, _ = run_cli(["check", "fixed-point"], capsys)
    _, out_flag, _ = run_cli(["check", "fixed-point", "--seed", "7"], capsys)
    assert out_flag != out_default
    monkeypatch.setenv("FOCKCALC_SEED", "7")
    code, out_env, _ = run_cli(["check", "fixed-point"], capsys)
    assert code == 0
    assert out_env == out_flag
    # as for suite, the variable overrides a given --seed too
    _, out_both, _ = run_cli(["check", "fixed-point", "--seed", "3"], capsys)
    assert out_both == out_flag
    # the variable is environment, not a flag, so a check that reads no seed still runs
    code, out, err = run_cli(["check", "counterexample", "--eta", "2"], capsys)
    assert code == 0
    assert err == ""


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(["oracle", "--max-degree", "6", "--alphas", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "oracle-agreement"
    assert doc["verdict"] == "Pass"


def test_oracle_at_degree_250(capsys):
    code, out, _ = run_cli(["oracle", "--max-degree", "250", "--format", "csv"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[0], row[1], row[3]) for row in rows] == [("oracle-agreement", "250", "Pass")] * 3
    assert all(float(row[2]) <= 1e-13 for row in rows)


def test_entry_point_subprocess_determinism():
    cmd = [sys.executable, "-m", "fockcalc.cli", "suite", "--orders", "16"]
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_run_suite_programmatic():
    reports = run_suite(RunConfig(orders=(16,)))
    assert all(r.passed for r in reports)
    assert len(reports) >= 20
