"""CLI contract: flags, exit codes, output formats, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockcalc.checks as checks
import fockcalc.cli as cli
import fockcalc.sampling as sampling
from fockcalc import AffineMap, ExpLinearWeight, FockParams, SelfAdjointSymbolParams, WcoSymbol, assemble_matrix
from fockcalc.cli import CHECKERS, UNTOLERANCED, main, parse_complex, parse_orders, RunConfig, run_check, run_suite, suite_grid
from fockcalc.report import format_complex

from corpus import OVERFLOWING_CHECKS, REQUIRED_FLAGS, same_build


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
    # a check that reads no alpha, orders or seed runs whatever they hold
    report = run_check("counterexample", {"eta": 2.0}, RunConfig(alpha=math.nan, orders=(0,), seed=-1))
    assert report.passed


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_run_check_rejects_an_invalid_seed_in_the_words_of_the_cli(seed):
    # numpy would reject each, with a message that names no seed
    for run in (lambda: run_check("disk-criterion", {}, RunConfig(seed=seed)), lambda: run_suite(RunConfig(seed=seed))):
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == f"seed must be an integer >= 0, got {seed!r}"


def test_run_check_takes_any_integer_seed():
    report = run_check("disk-criterion", {}, RunConfig(seed=np.int64(7)))
    assert report.to_dict() == run_check("disk-criterion", {}, RunConfig(seed=7)).to_dict()


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
    [["check", "eigen-identity", "--alpha", "-1"], ["matrix", "--alpha", "nan"]],
    ids=["eigen-identity", "matrix"],
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


@pytest.mark.parametrize("command", [["check", "degenerate-commutant"], ["suite"]], ids=" ".join)
def test_underflowing_constant_weight_names_alpha_and_b(capsys, command):
    # e^{-alpha |b|^2 / 2} at b = 2/3 is 0 in float64 from alpha 3353.10: the error names the weight, not a scale --c
    code, out, err = run_cli([*command, "--alpha", "3400"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: degenerate-commutant: weight e^(-alpha |b|^2/2) underflows at alpha=3400.0, b=(0.6666666666666666+0j)\n"


def test_smallest_constant_weight_still_passes(capsys):
    # just below the underflow the weight is the least subnormal, and the section is still that scalar times I
    code, out, err = run_cli(["check", "degenerate-commutant", "--alpha", "3353.09", "--format", "text"], capsys)
    assert (code, err) == (0, "")
    assert out == (
        "[Pass] degenerate-commutant\n"
        + "    N=32: residual 0.000e+00\n" * 3
        + "    notes: constant weight 5e-324; composition classified BoundedUnitary\n"
    )


def test_readme_schema_example_is_the_output_of_the_command_it_names(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Report schema"):]
    assert "`fockcalc check selfadjoint-forward`" in section[: section.index("```json")]
    example = section[section.index("```json\n") + len("```json\n"):section.index("```\n", section.index("```json") + 1)]
    code, out, _ = run_cli(["check", "selfadjoint-forward"], capsys)
    assert code == 0
    assert out == example


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
    "fixed-point-transfer": {"seed"},
    "commutant-symbols": {"seed"},
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
    "fixed-point-transfer": {"a0": "0.5", "a1": "0.25", "b": "0.6666666666666666", "samples": 20},
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
    "command",
    [
        ["check", "selfadjoint-forward", "--a0", "-0.3i"],
        ["check", "fixed-point", "--a0", "-0.2+0.1i"],
        ["matrix", "--order", "2", "--map-b", "-0.5"],
        ["oracle", "--alphas", "-1,2"],
        ["suite", "--orders", "-3,4"],
        ["matrix", "--order", "2", "--map-a", "-i"],
        ["check", "fixed-point", "--a0", "-inf"],
        ["oracle", "--alphas", "-inf,1"],
    ],
    ids=["complex", "complex-sum", "lone-negative", "alphas", "orders", "minus-i", "minus-inf", "alphas-minus-inf"],
)
def test_flag_value_starting_with_minus_reads_as_in_the_equals_form(capsys, command):
    # argparse alone reads only a lone negative number as a value and takes the other tokens here for options
    *head, flag, value = command
    code, out, err = run_cli(command, capsys)
    assert (code, out, err) == run_cli([*head, f"{flag}={value}"], capsys)
    assert "expected one argument" not in err
    if flag in ("--alphas", "--orders"):
        assert code == 2 and out == "" and f"argument {flag}: {flag[2:]} must be" in err
    elif value == "-inf":
        # the value reaches the program, which rejects it by its flag
        assert (code, out, err) == (2, "", "error: non-finite --a0 (-inf+0j)\n")
    else:
        assert code == 0 and out


@pytest.mark.parametrize(
    "command",
    [
        ["matrix", "--map-a", "1e308", "--order", "3"],
        ["matrix", "--map-b", "1e308", "--alpha", "4", "--order", "3"],
        ["check", "selfadjoint-forward", "--a1", "1e308"],
    ],
    ids=["slope", "offset", "selfadjoint-forward"],
)
def test_overflowing_section_is_a_usage_error_without_a_numpy_warning(capsys, command):
    # the suite's warning filter turns a numpy overflow warning into an exception
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert err.endswith("error: matrix entries must be finite\n")


@pytest.mark.parametrize(
    "command",
    [
        ["commutant-symbols", "--eta", "2", "--b", "1e100"],
        ["moebius-conjugation", "--eta", "2", "--b", "1e200"],
        ["fixed-point-transfer", "--eta", "2", "--a0", "1e200", "--a1", "0.5"],
    ],
    ids=lambda command: " ".join(command),
)
def test_fixed_point_past_float64_is_a_named_usage_error(capsys, command):
    # |b|^2 or d2 past float64 raises Python's OverflowError, whose text "(34, 'Numerical result out of range')" names no input
    code, out, err = run_cli(["check", *command], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: the commutant family's coefficients at b=") and err.endswith(" leave float64\n")
    assert err.count("\n") == 1 and "(34," not in err


@pytest.mark.parametrize(
    "flags",
    [["--map-b", "1e300"], ["--map-b", "0.5", "--weight-w", "1e300"], ["--map-b", "0.5", "--alpha", "1e300"]],
    ids=["offset", "weight-exponent", "alpha"],
)
def test_overflowing_kernel_fails_its_row_without_a_numpy_warning(capsys, flags):
    # the coefficients' running product overflows; the suite's warning filter turns a numpy warning into an exception
    code, out, err = run_cli(["check", "selfadjoint-reverse", "--map-a", "0.25", *flags, "--format", "text"], capsys)
    assert (code, err) == (1, "")
    assert out.startswith("[Fail] selfadjoint-reverse\n")
    assert "N=32: residual nan" in out
    assert "non-finite residual: the weight's or the model's coefficients overflow float64" in out


@pytest.mark.parametrize(
    "flags,expected",
    [
        # the kernel relation overflows: its residual reads inf and the row fails
        (["eigen-identity", "--alpha", "1e6"], 1),
        (["eigen-identity", "--alpha", "1e300"], 1),
        (["adjoint-factorization", "--alpha", "1e300"], 2),
        (["adjoint-factorization", "--alpha", "1e300", "--map-a", "0.5", "--map-b", "0.25"], 2),
        (["adjoint-factorization", "--map-a", "1e-300", "--map-b", "1e200"], 1),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else f"exit {value}",
)
def test_overflow_inside_a_check_ends_without_a_numpy_warning(capsys, flags, expected):
    # the suite's warning filter turns a numpy overflow or invalid-value warning into an exception
    code, out, err = run_cli(["check", *flags], capsys)
    assert code == expected
    assert (out == "") == (expected == 2)
    assert err.startswith("error: ") if expected == 2 else err == ""


@pytest.mark.parametrize("flags", OVERFLOWING_CHECKS, ids=" ".join)
def test_overflowing_residual_fails_under_warnings_as_errors(flags):
    # a child process, so that -W error holds from the start, as a user would run it
    cmd = [sys.executable, "-W", "error", "-m", "fockcalc", "check", *flags]
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert (out.returncode, out.stderr) == (1, "")
    report = json.loads(out.stdout)
    assert report["verdict"] == "Fail"
    assert not all(math.isfinite(r["value"]) for r in report["residuals"])
    assert "non-finite residual" in report["notes"]


def _non_finite_cases():
    """(command ending in the flag to set to nan, id): every complex flag that fills a field of a map or a weight."""
    maps = ["--map-a", "0.25", "--map-b", "0.5"]
    yield ["matrix", "--map-a"], "matrix"
    yield ["check", "selfadjoint-forward", "--c"], "selfadjoint-forward"
    for flag in ("--map-b", "--weight-c", "--weight-w"):
        yield ["matrix", flag], f"matrix {flag}"
    for name, head, flags in (
        ("fixed-point", [], ("--a0", "--a1")),
        ("fixed-point-transfer", [], ("--a0", "--a1", "--gamma")),
        # a later --map-a or --map-b overrides the one before it
        ("selfadjoint-reverse", maps, ("--map-a", "--map-b", "--weight-c", "--weight-w")),
        ("adjoint-factorization", [], ("--map-a", "--map-b")),
        ("normality", [], ("--weight-c", "--weight-w")),
        ("commutant-symbols", ["--eta", "2"], ("--eta", "--b")),
        ("moebius-conjugation", ["--eta", "2"], ("--eta", "--b")),
    ):
        for flag in flags:
            yield ["check", name, *head, flag], f"{name} {flag}"


@pytest.mark.parametrize("command", [pytest.param(command, id=name) for command, name in _non_finite_cases()])
def test_non_finite_field_usage_error(capsys, command):
    # the error names the flag the user gave, not the field of the map or weight it fills
    code, out, err = run_cli([*command, "nan"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: non-finite {command[-1]} (nan+0j)\n"


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
        (1, "1c5ddc27c8c080ef227a82f3c509e8b8bd761bc218e0af112a6b51c3e9d84fbe"),
    ],
)
def test_matrix_csv_bytes_are_pinned(capsys, order, digest):
    # sha256 of the CSV as per-value '%.17g' formatting wrote it; order 1 is the leading block of order 2.
    # The digests hold on the numpy build and machine of tests/corpus_digests.json, as the corpus does; on
    # another build the entries may round apart, so the CSV is compared with '%.17g' of each entry instead
    code, out, err = run_cli(["matrix", *PINNED_SYMBOL, f"--order={order}"], capsys)
    assert code == 0 and err == ""
    if same_build():
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
    else:
        c, w, a, b = (parse_complex(flag.partition("=")[2]) for flag in PINNED_SYMBOL[1:])
        entries = assemble_matrix(WcoSymbol(ExpLinearWeight(c, w), AffineMap(a, b)), FockParams(1.0, order)).entries
        assert out == "".join(",".join("%.17g,%.17g" % (v.real, v.imag) for v in row) + "\n" for row in entries)


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
# the commutant checks read maps only, so no companion weight overflows at alpha 80 or past it
@example(80.0, [16, 32, 64])
@example(120.0, [1, 512])
@example(150.0, [16, 32, 64])
@example(1500.0, [1, 512])
# eigen-identity's kernel relation overflows from alpha 1698.93: its row fails with inf, and the suite goes on
@example(1700.0, [16, 32, 64])
# fixed-point-transfer and commutant-symbols read no alpha, so no companion weight can overflow and stop the suite
@example(2110.06, [16, 32, 64])
@example(3353.0, [16, 32, 64])
@given(
    st.floats(0.05, 2500.0),
    st.lists(st.integers(1, 512), min_size=1, max_size=3, unique=True).map(sorted),
)
def test_suite_reaches_a_verdict_for_every_row(alpha, orders):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["suite", "--alpha", repr(alpha), "--orders", ",".join(map(str, orders))])
    assert code in (0, 1)
    assert len(json.loads(out.getvalue())["checks"]) == len(suite_grid(alpha)) == 25


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

    def assemble_sections(symbols, params, *, columns=None):
        return np.stack([assemble_matrix(sym, params).entries[:, :columns] for sym in symbols])

    monkeypatch.setattr(checks, "_sections_at", sections_at)
    monkeypatch.setattr(checks, "assemble_sections", assemble_sections)
    monkeypatch.setattr(checks, "circle_rows", lambda seed, rows: np.stack([circle_points(seed + i) for i in range(rows)]))
    assert [_suite_json(*key) for key in grid] == fast


def test_repeated_suite_draws_no_sample_row_again():
    """A suite draws each distinct sample row and pair set once, and a second run at the same seed draws none."""
    sampling._circle_row.cache_clear()
    sampling.disk_pairs.cache_clear()
    cfg = RunConfig()
    first = [r.to_dict() for r in run_suite(cfg)]
    # rows seed .. seed + 49 of moebius-conjugation; the other checks read rows among them
    assert sampling._circle_row.cache_info().misses == 50
    # one pair set, read by both selfadjoint-forward rows
    assert sampling.disk_pairs.cache_info()[:2] == (1, 1)
    assert [r.to_dict() for r in run_suite(cfg)] == first
    assert sampling._circle_row.cache_info().misses == 50
    assert sampling.disk_pairs.cache_info().misses == 1


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
    # and does not check the value it does not read
    monkeypatch.setenv("FOCKCALC_SEED", "abc")
    assert run_cli(["check", "counterexample", "--eta", "2"], capsys) == (0, out, "")


@pytest.mark.parametrize("command", [["suite"], ["check", "disk-criterion"]], ids=["suite", "check"])
@pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
def test_invalid_seed_is_a_usage_error_named_at_its_source(capsys, monkeypatch, command, seed):
    # numpy would reject a negative seed too, but with a message that names no flag
    code, out, err = run_cli([*command, "--seed", seed], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --seed: seed must be an integer >= 0, got {seed!r}\n")
    monkeypatch.setenv("FOCKCALC_SEED", seed)
    assert run_cli(command, capsys) == (2, "", f"error: FOCKCALC_SEED must be an integer >= 0, got {seed!r}\n")


def test_a_check_reads_the_seed_in_all_its_cases_or_in_none():
    # the CLI reads FOCKCALC_SEED by check name, which is by case only while this holds
    for name, cases in CHECKERS.items():
        assert len({"seed" in flags for flags, _ in cases}) == 1, name


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(["oracle", "--max-degree", "6", "--alphas", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "oracle-agreement"
    assert doc["verdict"] == "Pass"


def _oracle_usage():
    """The usage text argparse prints above an oracle flag's error."""
    (sub,) = [action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    return sub.choices["oracle"].format_usage()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--alphas", ",1"], "argument --alphas: alphas must be comma-separated finite positive reals, got ',1'"),
        (["--alphas", "1,nan"], "argument --alphas: alphas must be comma-separated finite positive reals, got '1,nan'"),
        (["--alphas=-2"], "argument --alphas: alphas must be comma-separated finite positive reals, got '-2'"),
        (["--max-degree", "0"], "argument --max-degree: max degree must be an integer >= 1, got '0'"),
        (["--max-degree", "2.5"], "argument --max-degree: max degree must be an integer >= 1, got '2.5'"),
    ],
)
def test_oracle_flag_errors_name_the_flag(capsys, argv, message):
    # these used to read "could not convert string to float: ''" and "order must be an integer >= 1, got 0"
    code, out, err = run_cli(["oracle", *argv], capsys)
    assert (code, out) == (2, "")
    assert err == _oracle_usage() + f"fockcalc oracle: error: {message}\n"


def test_oracle_at_degree_250(capsys):
    code, out, _ = run_cli(["oracle", "--max-degree", "250", "--format", "csv"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[0], row[1], row[3]) for row in rows] == [("oracle-agreement", "250", "Pass")] * 3
    assert all(float(row[2]) <= 1e-13 for row in rows)


@pytest.mark.parametrize("alphas", ["0.5,1e-300,2", "0.5,1e-300,1e-200", "1e-300,1e-200"])
def test_oracle_names_the_first_alpha_whose_norms_overflow(capsys, alphas):
    # the alphas are taken in the order given, so with two overflowing alphas the first one is named
    code, out, err = run_cli(["oracle", "--max-degree", "16", "--alphas", alphas], capsys)
    assert (code, out) == (2, "")
    assert err == "error: monomial norms ||z^k|| overflow float64 at order 16, alpha 1e-300\n"


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
