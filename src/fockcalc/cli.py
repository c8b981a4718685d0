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
the seed flag.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .checks import (
    DEFAULT_ORDERS,
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
    commutant_symbols,
    fixed_point,
    reproduce_counterexample,
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
from .series import FockParams

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
    except ValueError:
        raise argparse.ArgumentTypeError(f"orders must be comma-separated integers, got {text!r}") from None
    if not orders or any(b <= a for a, b in zip(orders, orders[1:])):
        raise argparse.ArgumentTypeError("orders must be strictly increasing")
    return orders


@dataclass(frozen=True)
class RunConfig:
    """Run-wide knobs shared by every subcommand."""

    alpha: float = 1.0
    orders: tuple[int, ...] = DEFAULT_ORDERS
    tolerance_overrides: dict[str, float] = field(default_factory=dict)
    seed: int = 42
    output_format: str = "json"

    def __post_init__(self) -> None:
        # nan fails every comparison, so test for what alpha must be
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite positive real, got {self.alpha!r}")
        if any(b <= a for a, b in zip(self.orders, self.orders[1:])) or not self.orders:
            raise ValueError("orders must be non-empty and strictly increasing")

    def tol(self, check_name: str) -> dict[str, float]:
        if check_name in self.tolerance_overrides:
            return {"tol": self.tolerance_overrides[check_name]}
        return {}

    def max_order(self) -> int:
        return self.orders[-1]


# ---------------------------------------------------------------------------
# checker registry
# ---------------------------------------------------------------------------
#
# One runner (args, cfg) -> CheckReport per check, shared by ``check`` and
# ``suite``: it reads the ``check`` flags from args and passes the check's
# tolerance override as ``tol``.


def _family(args, cfg: RunConfig) -> SelfAdjointSymbolParams:
    return SelfAdjointSymbolParams(args.c, args.a0, args.a1, cfg.alpha)


def _kernel_section(cfg: RunConfig) -> FockParams:
    return FockParams(cfg.alpha, min(32, cfg.max_order()))


def _required(args, name: str, *flags: str) -> tuple:
    missing = [f"--{flag.replace('_', '-')}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"check {name} requires {' and '.join(missing)}")
    return tuple(getattr(args, flag) for flag in flags)


def _draws(args, key: str = "draws") -> dict[str, int]:
    return {} if args.draws is None else {key: args.draws}


def _runs_battery(name: str, args) -> bool:
    flags = BATTERIES.get(name)
    return flags is not None and all(getattr(args, flag) is None for flag in flags)


def _companion(args, cfg: RunConfig) -> tuple:
    """(psi, g) for fixed-point-transfer: the commutant pair at --eta, else the linear map --gamma."""
    if args.eta is not None:
        return commutant_symbols(args.eta, fixed_point(_family(args, cfg).map()), alpha=cfg.alpha)[:2]
    return AffineMap(1.0 if args.gamma is None else args.gamma, 0.0), ExpLinearWeight(1.0, 0.0)


CHECKERS = {
    "selfadjoint-forward": lambda args, cfg: check_selfadjoint_forward(
        _family(args, cfg), cfg.orders, seed=cfg.seed, **cfg.tol("selfadjoint-forward")
    ),
    "selfadjoint-reverse": lambda args, cfg: check_selfadjoint_reverse(
        ExpLinearWeight(args.weight_c, args.weight_w),
        AffineMap(*_required(args, "selfadjoint-reverse", "map_a", "map_b")),
        _kernel_section(cfg),
        **cfg.tol("selfadjoint-reverse"),
    ),
    "fixed-point": lambda args, cfg: check_h_conjugation(
        AffineMap(args.a1, args.a0), seed=cfg.seed, **cfg.tol("fixed-point")
    ),
    "disk-criterion": lambda args, cfg: check_disk_criterion(**_draws(args), seed=cfg.seed),
    "eigen-identity": lambda args, cfg: check_eigen_identity(
        _family(args, cfg), args.j_max, seed=cfg.seed, **cfg.tol("eigen-identity")
    ),
    "fixed-point-transfer": lambda args, cfg: check_fixed_point_transfer(
        _family(args, cfg), *_companion(args, cfg), seed=cfg.seed, **cfg.tol("fixed-point-transfer")
    ),
    "commutant-symbols": lambda args, cfg: check_commutant_symbols(
        *_required(args, "commutant-symbols", "eta"), args.b, alpha=cfg.alpha, seed=cfg.seed,
        **cfg.tol("commutant-symbols"),
    ),
    "moebius-conjugation": lambda args, cfg: (
        check_moebius_conjugation_battery(**_draws(args), seed=cfg.seed, **cfg.tol("moebius-conjugation"))
        if _runs_battery("moebius-conjugation", args)
        else check_moebius_conjugation(
            commutant_symbols(args.eta, args.b, alpha=cfg.alpha)[0], args.b, args.eta, seed=cfg.seed,
            **cfg.tol("moebius-conjugation"),
        )
    ),
    "counterexample": lambda args, cfg: reproduce_counterexample(
        *_required(args, "counterexample", "eta"), **cfg.tol("counterexample")
    ),
    "degenerate-commutant": lambda args, cfg: check_degenerate_commutant(
        fixed_point(_family(args, cfg).map()), _family(args, cfg), order=min(32, cfg.max_order()),
        **cfg.tol("degenerate-commutant"),
    ),
    "adjoint-factorization": lambda args, cfg: (
        check_adjoint_factorization_battery(
            **_draws(args, "map_draws"), params=_kernel_section(cfg), seed=cfg.seed, **cfg.tol("adjoint-factorization")
        )
        if _runs_battery("adjoint-factorization", args)
        else check_cphi_adjoint_factorization(
            AffineMap(0.25 if args.map_a is None else args.map_a, 0.5 if args.map_b is None else args.map_b),
            params=_kernel_section(cfg), seed=cfg.seed, **cfg.tol("adjoint-factorization"),
        )
    ),
    "normality": lambda args, cfg: check_normality(
        ExpLinearWeight(args.weight_c, args.weight_w), AffineMap(args.a, args.b), cfg.orders, alpha=cfg.alpha,
        **cfg.tol("normality"),
    ),
}

# check -> the flags that select one case over its randomized battery, the
# only runner --draws reaches; checks not listed have no battery
BATTERIES = {"disk-criterion": (), "moebius-conjugation": ("eta",), "adjoint-factorization": ("map_a", "map_b")}
# checks whose verdict rests on no tolerance, so --tolerance cannot reach them
UNTOLERANCED = ("disk-criterion",)


def run_check(name: str, args, cfg: RunConfig) -> CheckReport:
    """Run check ``name`` on the ``check`` flags in ``args``; the one path of ``check`` and ``suite``."""
    if args.draws is not None and not _runs_battery(name, args):
        raise ValueError(f"--draws applies only to battery checks; check {name} runs a single case here")
    return CHECKERS[name](args, cfg)


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
        ("fixed-point-transfer", {**fixed_at_zero, "gamma": 0.3 + 0.1j}),
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
    check_flags = argparse.ArgumentParser(add_help=False)
    _add_check_flags(check_flags)
    defaults = vars(check_flags.parse_args([]))
    rows = suite_grid(cfg.alpha)
    reports = [run_check(name, argparse.Namespace(**{**defaults, **flags}), cfg) for name, flags in rows]
    reports.sort(key=lambda r: (r.check_name, json.dumps(r.to_dict()["params"], sort_keys=True)))
    return reports


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_alpha(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=RunConfig.alpha, help="Gaussian weight parameter (default 1)")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default=RunConfig.output_format, help="report format")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of ``check`` and ``suite``; ``matrix`` and ``oracle`` take only those they read."""
    _add_alpha(parser)
    parser.add_argument("--orders", type=parse_orders, default=RunConfig.orders, help="comma-separated truncation orders")
    parser.add_argument("--seed", type=int, default=RunConfig.seed, help="seed for deterministic sample sets")
    _add_format(parser)
    parser.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="CHECK=VALUE",
        help="override a check's tolerance, repeatable",
    )


def _add_check_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of ``check``; their defaults are the base of every suite row."""
    parser.add_argument("--c", type=parse_complex, default=1.0, help="weight scale of the self-adjoint family")
    parser.add_argument("--a0", type=parse_complex, default=0.5, help="map offset of the self-adjoint family")
    parser.add_argument("--a1", type=parse_complex, default=0.25, help="map slope of the self-adjoint family")
    parser.add_argument("--eta", type=parse_complex, default=None, help="conjugation multiplier of the commutant family")
    parser.add_argument("--b", type=parse_complex, default=2.0 / 3.0, help="fixed point of the commutant family / map offset for normality")
    parser.add_argument("--a", type=parse_complex, default=0.5, help="map slope for normality")
    parser.add_argument("--weight-c", type=parse_complex, default=1.0, help="weight scale c of c*e^{wz}")
    parser.add_argument("--weight-w", type=parse_complex, default=0.0, help="weight exponent w of c*e^{wz}")
    parser.add_argument("--map-a", type=parse_complex, default=None, help="affine map slope")
    parser.add_argument("--map-b", type=parse_complex, default=None, help="affine map offset")
    parser.add_argument("--j-max", type=int, default=5, help="largest conjugated-family index checked")
    parser.add_argument("--gamma", type=parse_complex, default=None, help="slope of a linear companion map for the transfer check")
    parser.add_argument("--draws", type=int, default=None, help="number of randomized draws for battery checks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fockcalc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one named checker")
    p_check.add_argument("name", choices=sorted(CHECKERS), help="checker name")
    _add_run_flags(p_check)
    _add_check_flags(p_check)

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
    p_oracle.add_argument("--max-degree", type=int, default=12, help="largest monomial degree in the comparison")
    p_oracle.add_argument("--alphas", type=str, default="0.5,1,2", help="comma-separated Gaussian parameters")

    return parser


def _config_from_args(args) -> RunConfig:
    """RunConfig from the flags the subcommand declares; the others keep their defaults."""
    overrides = {}
    for item in getattr(args, "tolerance", ()):
        name, _, value = item.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(f"--tolerance expects CHECK=VALUE, got {item!r}")
        if name not in CHECKERS:
            raise argparse.ArgumentTypeError(f"--tolerance names unknown check {name!r}")
        if name in UNTOLERANCED:
            raise argparse.ArgumentTypeError(f"--tolerance: check {name} has no tolerance")
        tol = float(value)
        # inf would pass every residual and nan would fail every comparison
        if not (math.isfinite(tol) and tol >= 0):
            raise argparse.ArgumentTypeError(f"--tolerance {name}: expected a finite value >= 0, got {value!r}")
        overrides[name] = tol
    config = {"tolerance_overrides": overrides}
    for flag, key in (("alpha", "alpha"), ("orders", "orders"), ("seed", "seed"), ("format", "output_format")):
        if hasattr(args, flag):
            config[key] = getattr(args, flag)
    env_seed = os.environ.get("FOCKCALC_SEED")
    if env_seed is not None and "seed" in config:
        config["seed"] = int(env_seed)
    return RunConfig(**config)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check(args, cfg: RunConfig) -> int:
    report = run_check(args.name, args, cfg)
    sys.stdout.write(render_reports([report], cfg.output_format))
    return 0 if report.passed else 1


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
    alphas = tuple(float(part) for part in args.alphas.split(","))
    report = check_oracle_agreement(args.max_degree, alphas)
    sys.stdout.write(render_reports([report], cfg.output_format))
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "check":
            return cmd_check(args, cfg)
        if args.command == "suite":
            return cmd_suite(cfg)
        if args.command == "matrix":
            return cmd_matrix(args, cfg)
        if args.command == "oracle":
            return cmd_oracle(args, cfg)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"error: unknown command {args.command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
