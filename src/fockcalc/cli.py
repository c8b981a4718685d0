"""Command-line front end.

Subcommands:

* ``check <name>``  run one named checker with parameter flags
* ``suite``         run every checker over its default parameter grid
* ``matrix``        dump a finite section as CSV
* ``oracle``        compare exact against quadrature inner products

Reports are written to stdout in json, csv, or text form; the exit code is
0 when every verdict is Pass or Informational, 1 on any Fail, and 2 on
usage errors.  Output is deterministic: identical flags and seed produce
byte-identical reports.  The environment variable FOCKCALC_SEED overrides
the seed of suite and of every check that reads --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys

from .checks import (
    DEFAULT_ORDERS,
    DEFAULT_SEED,
    KERNEL_PARAMS,
    SelfAdjointSymbolParams,
    check_adjoint_factorization_battery,
    check_commutant_symbols,
    check_cphi_adjoint_factorization,
    check_degenerate_commutant,
    check_disk_criterion,
    check_eigen_identity,
    check_fixed_point_transfer,
    check_h_conjugation,
    check_moebius_conjugation,
    check_moebius_conjugation_battery,
    check_normality,
    check_selfadjoint_forward,
    check_selfadjoint_reverse,
    fixed_point,
    reproduce_counterexample,
    _commutant_map,
)
from .operators import (
    AffineMap,
    Boundedness,
    ExpLinearWeight,
    WcoSymbol,
    assemble_matrix,
    boundedness_check,
)
from .quadrature import check_oracle_agreement
from .report import TOOL_VERSION, CheckReport, render_reports
from .series import FockParams, _Record, validate_alpha

__all__ = ["RunConfig", "build_parser", "main", "parse_complex", "run_check", "run_suite", "suite_grid"]


def parse_complex(text: str) -> complex:
    """Parse 're' or 're+imi' (also bare 'imi'), e.g. '0.5', '0.5+0.25i', '-0.3i'."""
    t = text.strip().replace(" ", "")
    try:
        return complex(float(t))
    except ValueError:
        pass
    if t.endswith("i") and not t.endswith("j"):
        t = t[:-1] + "j"
    try:
        return complex(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r}") from None


def parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(part) for part in text.split(","))
        _validate_orders(orders)
    except ValueError:
        raise argparse.ArgumentTypeError(f"orders must be strictly increasing integers >= 1, got {text!r}") from None
    return orders


def _parse_max_degree(text: str) -> int:
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"max degree must be an integer >= 1, got {text!r}")
    return int(text)


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        alphas = tuple(float(part) for part in text.split(","))
        for alpha in alphas:
            validate_alpha(alpha)
        return alphas
    except ValueError:
        raise argparse.ArgumentTypeError(f"alphas must be comma-separated finite positive reals, got {text!r}") from None


def _validate_seed(seed, source: str = "seed") -> int:
    """The one test of a seed, as sampling.UniformStream takes it: an integer >= 0; an error names the source."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"{source} must be an integer >= 0, got {seed!r}")
    return seed


def _parse_seed(text: str, source: str = "seed") -> int:
    """A seed in decimal digits, refused in _validate_seed's words as argparse reports them."""
    try:
        return _validate_seed(int(text) if text.isdecimal() else text, source)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _validate_orders(orders: tuple[int, ...]) -> None:
    # the one test of an order list: a check that builds no section would never see an order below 1
    if not orders or orders[0] < 1 or any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValueError(f"orders must be non-empty, strictly increasing and at least 1, got {orders!r}")


class RunConfig(_Record):
    """Run-wide knobs shared by every subcommand; run_check validates those a case reads."""

    alpha: float
    orders: tuple[int, ...]
    tolerance_overrides: dict[str, float]
    seed: int
    output_format: str = "json"  # read on the class too, as the default of --format

    def __init__(
        self, alpha=1.0, orders=DEFAULT_ORDERS, tolerance_overrides=None, seed=DEFAULT_SEED, output_format=output_format
    ) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "tolerance_overrides", {} if tolerance_overrides is None else tolerance_overrides)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "output_format", output_format)


# ---------------------------------------------------------------------------
# checker registry
# ---------------------------------------------------------------------------


def _family(f) -> SelfAdjointSymbolParams:
    return SelfAdjointSymbolParams(f.c, f.a0, f.a1, f.alpha)


def _kernel_section(f) -> FockParams:
    return FockParams(f.alpha, min(KERNEL_PARAMS.order, f.orders[-1]))


# the run flags.  A case lists each it reads as RUN, `check` passes each given as RUN, and
# run_check gives it the run's value, so FOCKCALC_SEED overrides --seed as for `suite`
RUN_FLAGS = ("alpha", "orders", "seed")
RUN = object()

# the flags of the map a0 + a1 z, and of the self-adjoint family, and their defaults
_MAP = {"a0": 0.5, "a1": 0.25}
_FAMILY = {"c": 1.0, **_MAP, "alpha": RUN}

# check -> its cases, each (flags, runner).  flags maps every check flag the case reads
# to its default, None where the case requires the flag, and every run flag it reads to
# RUN; the runner maps (flags, tol) to a CheckReport, tol being {} or the check's
# override as {"tol": value}.  Of a check with a battery, the battery is the first case
# and runs unless a flag of the single case is given.
CHECKERS = {
    "selfadjoint-forward": [
        ({**_FAMILY, "orders": RUN, "seed": RUN}, lambda f, tol: check_selfadjoint_forward(
            _family(f), f.orders, seed=f.seed, **tol
        )),
    ],
    "selfadjoint-reverse": [
        ({"weight_c": 1.0, "weight_w": 0.0, "map_a": None, "map_b": None, "alpha": RUN, "orders": RUN}, lambda f, tol: (
            check_selfadjoint_reverse(
                ExpLinearWeight(f.weight_c, f.weight_w), AffineMap(f.map_a, f.map_b), _kernel_section(f), **tol
            )
        )),
    ],
    "fixed-point": [
        ({**_MAP, "seed": RUN}, lambda f, tol: check_h_conjugation(AffineMap(f.a1, f.a0), seed=f.seed, **tol)),
    ],
    "disk-criterion": [({"draws": 200, "seed": RUN}, lambda f, tol: check_disk_criterion(f.draws, seed=f.seed))],
    "eigen-identity": [
        ({**_FAMILY, "j_max": 5, "seed": RUN}, lambda f, tol: check_eigen_identity(_family(f), f.j_max, seed=f.seed, **tol)),
    ],
    "fixed-point-transfer": [
        # the companion of the partner map a0 + a1 z is the linear map gamma z, or with --eta the commutant map psi
        ({**_MAP, "gamma": 1.0, "seed": RUN}, lambda f, tol: check_fixed_point_transfer(
            AffineMap(f.a1, f.a0), AffineMap(f.gamma, 0.0), seed=f.seed, **tol
        )),
        ({**_MAP, "eta": None, "seed": RUN}, lambda f, tol: check_fixed_point_transfer(
            AffineMap(f.a1, f.a0), _commutant_map(f.eta, fixed_point(AffineMap(f.a1, f.a0))), seed=f.seed, **tol
        )),
    ],
    "commutant-symbols": [
        ({"eta": None, "b": 2.0 / 3.0, "seed": RUN}, lambda f, tol: check_commutant_symbols(f.eta, f.b, seed=f.seed, **tol)),
    ],
    "moebius-conjugation": [
        ({"draws": 50, "seed": RUN}, lambda f, tol: check_moebius_conjugation_battery(f.draws, seed=f.seed, **tol)),
        # psi does not depend on alpha
        ({"eta": None, "b": 2.0 / 3.0, "seed": RUN}, lambda f, tol: check_moebius_conjugation(
            _commutant_map(f.eta, f.b), f.b, f.eta, seed=f.seed, **tol
        )),
    ],
    "counterexample": [({"eta": None}, lambda f, tol: reproduce_counterexample(f.eta, **tol))],
    "degenerate-commutant": [
        ({**_FAMILY, "orders": RUN}, lambda f, tol: check_degenerate_commutant(
            _family(f), order=_kernel_section(f).order, **tol
        )),
    ],
    "adjoint-factorization": [
        ({"draws": 20, "alpha": RUN, "orders": RUN, "seed": RUN}, lambda f, tol: check_adjoint_factorization_battery(
            f.draws, params=_kernel_section(f), seed=f.seed, **tol
        )),
        ({"map_a": 0.25, "map_b": 0.5, "alpha": RUN, "orders": RUN, "seed": RUN}, lambda f, tol: (
            check_cphi_adjoint_factorization(AffineMap(f.map_a, f.map_b), params=_kernel_section(f), seed=f.seed, **tol)
        )),
    ],
    "normality": [
        ({"weight_c": 1.0, "weight_w": 0.0, "a": 0.5, "b": 2.0 / 3.0, "alpha": RUN, "orders": RUN}, lambda f, tol: (
            check_normality(ExpLinearWeight(f.weight_c, f.weight_w), AffineMap(f.a, f.b), f.orders, alpha=f.alpha, **tol)
        )),
    ],
}

# checks whose verdict rests on no tolerance, so --tolerance cannot reach them
UNTOLERANCED = ("disk-criterion",)


def _check_flags() -> dict[str, dict[str, object]]:
    """Every check flag -> {check that reads it: its default there}; an integer default makes an integer flag."""
    readers: dict[str, dict[str, object]] = {}
    for name, cases in CHECKERS.items():
        for flags, _ in cases:
            for dest, default in flags.items():
                if default is not RUN:
                    readers.setdefault(dest, {})[name] = default
    return readers


def _flag_names(dests) -> str:
    return " and ".join(f"--{dest.replace('_', '-')}" for dest in dests)


def run_check(name: str, given: dict, cfg: RunConfig) -> CheckReport:
    """Run check ``name`` on the flags ``given``; the one path of ``check`` and ``suite``.

    The first case of the check that reads every given flag runs, on those flags over its
    defaults, each run flag left RUN taking its value from ``cfg``.  A flag no case reads,
    flags no one case reads together, a missing required flag and an invalid alpha,
    order list or seed of the case are usage errors.
    """
    cases = CHECKERS[name]
    for flags, run in cases:
        if given.keys() <= flags.keys():
            filled = {dest: getattr(cfg, dest) if value is RUN else value for dest, value in {**flags, **given}.items()}
            missing = [dest for dest, value in filled.items() if value is None]
            if missing:
                raise ValueError(f"check {name} requires {_flag_names(missing)}")
            for dest, validate in (("alpha", validate_alpha), ("orders", _validate_orders), ("seed", _validate_seed)):
                if dest in filled:
                    validate(filled[dest])
            tol = {"tol": cfg.tolerance_overrides[name]} if name in cfg.tolerance_overrides else {}
            return run(argparse.Namespace(**filled), tol)
    unread = [dest for dest in given if not any(dest in flags for flags, _ in cases)]
    if unread:
        raise ValueError(f"check {name} does not read {_flag_names(unread)}")
    raise ValueError(f"check {name} does not read {_flag_names(given)} together")


# ---------------------------------------------------------------------------
# the default suite grid
# ---------------------------------------------------------------------------


def suite_grid(alpha: float) -> list[tuple[str, dict]]:
    """The default grid as (check name, check flags) rows; omitted flags keep their defaults."""
    fixed_at_zero = {"c": 1.0, "a0": 0.0, "a1": 0.5}
    return [
        ("selfadjoint-forward", {}),
        ("selfadjoint-forward", {"c": 0.8, "a0": 0.2 - 0.3j, "a1": -0.35}),
        ("selfadjoint-reverse", {"weight_w": alpha * 0.5, "map_a": 0.25, "map_b": 0.5}),
        ("fixed-point", {}),
        ("fixed-point", {"a1": -0.2, "a0": 0.3j}),
        ("disk-criterion", {}),
        ("eigen-identity", {}),
        ("fixed-point-transfer", {}),
        ("fixed-point-transfer", {"a0": 0.0, "a1": 0.5, "gamma": 0.3 + 0.1j}),
        ("fixed-point-transfer", {"eta": 2.0}),
        *(("commutant-symbols", {"eta": eta, "b": b}) for eta, b in ((1.0, 2.0 / 3.0), (2.0, 2.0 / 3.0), (0.7, 0.5j))),
        ("moebius-conjugation", {}),
        *(("counterexample", {"eta": eta}) for eta in (2.0, 3.0, 0.5, 0.7 + 0.3j, -1.5)),
        ("degenerate-commutant", {}),
        ("degenerate-commutant", fixed_at_zero),
        ("adjoint-factorization", {}),
        *(("normality", {"a": a, "b": b}) for a, b in ((0.5, 0.0), (0.5, 0.3), (0.3 + 0.4j, 0.2j))),
    ]


def run_suite(cfg: RunConfig) -> list[CheckReport]:
    """Every row of the default grid through ``run_check``, as ``check`` runs it."""
    reports = [run_check(name, flags, cfg) for name, flags in suite_grid(cfg.alpha)]
    reports.sort(key=lambda r: (r.check_name, json.dumps(r.params_json, sort_keys=True)))
    return reports


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_alpha(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=argparse.SUPPRESS, help="Gaussian weight parameter (default 1)")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default=RunConfig.output_format, help="report format")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of ``check`` and ``suite``; ``matrix`` and ``oracle`` take only those they read."""
    _add_alpha(parser)
    parser.add_argument("--orders", type=parse_orders, default=argparse.SUPPRESS, help="comma-separated truncation orders")
    parser.add_argument("--seed", type=_parse_seed, default=argparse.SUPPRESS, help="seed for deterministic sample sets")
    _add_format(parser)
    parser.add_argument(
        "--tolerance", action="append", default=[], metavar="CHECK=VALUE", help="override a check's tolerance, repeatable"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fockcalc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one named checker")
    p_check.add_argument("name", choices=sorted(CHECKERS), help="checker name")
    _add_run_flags(p_check)
    # no defaults here: a check flag is absent unless given, and run_check fills in the check's own
    for dest, readers in _check_flags().items():
        kind = int if any(isinstance(default, int) for default in readers.values()) else parse_complex
        p_check.add_argument(_flag_names([dest]), type=kind, help=f"read by {', '.join(readers)}")

    p_suite = sub.add_parser("suite", help="run the full default verification grid")
    _add_run_flags(p_suite)

    p_matrix = sub.add_parser("matrix", help="dump a finite section as CSV")
    _add_alpha(p_matrix)
    p_matrix.add_argument("--weight-c", type=parse_complex, default=1.0)
    p_matrix.add_argument("--weight-w", type=parse_complex, default=0.0)
    p_matrix.add_argument("--map-a", type=parse_complex, default=1.0)
    p_matrix.add_argument("--map-b", type=parse_complex, default=0.0)
    p_matrix.add_argument("--order", type=int, default=8, help="truncation order N; the section is (N+1) x (N+1)")

    # no abbreviations: --alpha, a flag oracle does not take, would silently read as --alphas
    p_oracle = sub.add_parser("oracle", help="compare exact and quadrature inner products", allow_abbrev=False)
    _add_format(p_oracle)
    p_oracle.add_argument("--max-degree", type=_parse_max_degree, default=12, help="largest monomial degree in the comparison")
    p_oracle.add_argument("--alphas", type=_parse_alphas, default="0.5,1,2", help="comma-separated Gaussian parameters")

    return parser


def _negative_values_attached(argv: list[str]) -> list[str]:
    """argv with each token that starts with a single '-', other than -h, joined to the flag before it, as --flag=value.

    argparse takes only a lone negative number for a value, so '--a0 -0.3i', '--map-a -i' and '--alphas -inf,1'
    would read as unknown options.  No fockcalc option but -h starts with a single '-', and every flag but --help
    takes one value.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        single_dash = token.startswith("-") and not token.startswith("--") and token != "-h"
        if single_dash and flag.startswith("--") and "=" not in flag and not "--help".startswith(flag):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def _config_from_args(args) -> RunConfig:
    """RunConfig from the flags given; the others keep RunConfig's defaults."""
    overrides = {}
    for item in getattr(args, "tolerance", ()):
        name, _, value = item.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(f"--tolerance expects CHECK=VALUE, got {item!r}")
        if name not in CHECKERS:
            raise argparse.ArgumentTypeError(f"--tolerance names unknown check {name!r}")
        if name in UNTOLERANCED:
            raise argparse.ArgumentTypeError(f"--tolerance: check {name} has no tolerance")
        if name in overrides:
            raise argparse.ArgumentTypeError(f"--tolerance: check {name} given more than once")
        try:
            tol = float(value)
        except ValueError:
            tol = math.nan
        # inf would pass every residual and nan would fail every comparison
        if not (math.isfinite(tol) and tol >= 0):
            raise argparse.ArgumentTypeError(f"--tolerance {name}: expected a finite value >= 0, got {value!r}")
        overrides[name] = tol
    config = {dest: getattr(args, dest) for dest in RUN_FLAGS if hasattr(args, dest)}
    env_seed = os.environ.get("FOCKCALC_SEED")
    # not a flag: read, and checked, only by a run that reads a seed; a check reads it in all its cases or in none
    if env_seed is not None and (args.command == "suite" or args.command == "check" and "seed" in CHECKERS[args.name][0][0]):
        config["seed"] = _parse_seed(env_seed, "FOCKCALC_SEED")
    return RunConfig(**config, tolerance_overrides=overrides, output_format=getattr(args, "format", RunConfig.output_format))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _emit(report: CheckReport, cfg: RunConfig) -> int:
    """Write one report; exit 0 unless its verdict is Fail."""
    sys.stdout.write(render_reports([report], cfg.output_format))
    return 0 if report.passed else 1


def cmd_check(args, cfg: RunConfig) -> int:
    given = {dest: getattr(args, dest) for dest in _check_flags() if getattr(args, dest) is not None}
    given.update((dest, RUN) for dest in RUN_FLAGS if hasattr(args, dest))
    return _emit(run_check(args.name, given, cfg), cfg)


def cmd_suite(cfg: RunConfig) -> int:
    reports = run_suite(cfg)
    all_passed = all(r.passed for r in reports)
    if cfg.output_format == "json":
        doc = {
            "config": {
                "alpha": cfg.alpha,
                "orders": list(cfg.orders),
                "seed": cfg.seed,
                "tolerance_overrides": dict(sorted(cfg.tolerance_overrides.items())),
            },
            "checks": [r.to_dict() for r in reports],
            "all_passed": all_passed,
            "tool_version": TOOL_VERSION,
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(render_reports(reports, cfg.output_format))
        sys.stdout.write(f"all_passed: {all_passed}\n")
    return 0 if all_passed else 1


def cmd_matrix(args, cfg: RunConfig) -> int:
    sym = WcoSymbol(ExpLinearWeight(args.weight_c, args.weight_w), AffineMap(args.map_a, args.map_b))
    if boundedness_check(sym.map) is Boundedness.UNBOUNDED:
        print("warning: Unbounded composition map; finite section emitted anyway", file=sys.stderr)
    mat = assemble_matrix(sym, FockParams(cfg.alpha, args.order))
    sys.stdout.write(mat.to_csv())
    return 0


def cmd_oracle(args, cfg: RunConfig) -> int:
    return _emit(check_oracle_agreement(args.max_degree, args.alphas), cfg)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_negative_values_attached(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    commands = {"check": cmd_check, "suite": lambda args, cfg: cmd_suite(cfg), "matrix": cmd_matrix, "oracle": cmd_oracle}
    try:
        return commands[args.command](args, _config_from_args(args))
    except (ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
