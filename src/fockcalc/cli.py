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

__all__ = ["RunConfig", "build_parser", "main", "parse_complex", "run_suite"]


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
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
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


def _run_selfadjoint_forward(args, cfg: RunConfig) -> CheckReport:
    p = SelfAdjointSymbolParams(args.c, args.a0, args.a1, cfg.alpha)
    kwargs = {}
    if "selfadjoint-forward" in cfg.tolerance_overrides:
        kwargs["tol_matrix"] = cfg.tolerance_overrides["selfadjoint-forward"]
    return check_selfadjoint_forward(p, cfg.orders, seed=cfg.seed, **kwargs)


def _run_selfadjoint_reverse(args, cfg: RunConfig) -> CheckReport:
    weight = ExpLinearWeight(args.weight_c, args.weight_w)
    return check_selfadjoint_reverse(
        weight,
        AffineMap(args.map_a, args.map_b),
        FockParams(cfg.alpha, cfg.max_order()),
        **cfg.tol("selfadjoint-reverse"),
    )


def _run_fixed_point(args, cfg: RunConfig) -> CheckReport:
    return check_h_conjugation(AffineMap(args.a1, args.a0), seed=cfg.seed, **cfg.tol("fixed-point"))


def _run_disk_criterion(args, cfg: RunConfig) -> CheckReport:
    return check_disk_criterion(args.draws, seed=cfg.seed)


def _run_eigen_identity(args, cfg: RunConfig) -> CheckReport:
    p = SelfAdjointSymbolParams(args.c, args.a0, args.a1, cfg.alpha)
    return check_eigen_identity(p, args.j_max, seed=cfg.seed, **cfg.tol("eigen-identity"))


def _run_fixed_point_transfer(args, cfg: RunConfig) -> CheckReport:
    p = SelfAdjointSymbolParams(args.c, args.a0, args.a1, cfg.alpha)
    if args.eta is not None:
        b = fixed_point(p.map())
        psi, g, _ = commutant_symbols(args.eta, b, alpha=cfg.alpha)
    elif args.gamma is not None:
        psi, g = AffineMap(args.gamma, 0.0), ExpLinearWeight(1.0, 0.0)
    else:
        psi, g = AffineMap(1.0, 0.0), ExpLinearWeight(1.0, 0.0)
    return check_fixed_point_transfer(p, psi, g, seed=cfg.seed, **cfg.tol("fixed-point-transfer"))


def _run_commutant_symbols(args, cfg: RunConfig) -> CheckReport:
    return check_commutant_symbols(args.eta, args.b, alpha=cfg.alpha, seed=cfg.seed, **cfg.tol("commutant-symbols"))


def _run_moebius_conjugation(args, cfg: RunConfig) -> CheckReport:
    if args.eta is None:
        return check_moebius_conjugation_battery(args.draws, seed=cfg.seed, **cfg.tol("moebius-conjugation"))
    psi, _, _ = commutant_symbols(args.eta, args.b, alpha=cfg.alpha)
    return check_moebius_conjugation(psi, args.b, args.eta, seed=cfg.seed, **cfg.tol("moebius-conjugation"))


def _run_counterexample(args, cfg: RunConfig) -> CheckReport:
    return reproduce_counterexample(args.eta, **cfg.tol("counterexample"))


def _run_degenerate_commutant(args, cfg: RunConfig) -> CheckReport:
    p = SelfAdjointSymbolParams(args.c, args.a0, args.a1, cfg.alpha)
    b = fixed_point(p.map())
    return check_degenerate_commutant(b, p, order=min(32, cfg.max_order()))


def _run_adjoint_factorization(args, cfg: RunConfig) -> CheckReport:
    params = FockParams(cfg.alpha, min(32, cfg.max_order()))
    if args.map_a is None and args.map_b is None:
        return check_adjoint_factorization_battery(args.draws, params, seed=cfg.seed, **cfg.tol("adjoint-factorization"))
    return check_cphi_adjoint_factorization(
        AffineMap(args.map_a if args.map_a is not None else 0.25, args.map_b if args.map_b is not None else 0.5),
        params=params,
        seed=cfg.seed,
        **cfg.tol("adjoint-factorization"),
    )


def _run_normality(args, cfg: RunConfig) -> CheckReport:
    weight = ExpLinearWeight(args.weight_c, args.weight_w)
    kwargs = {}
    if "normality" in cfg.tolerance_overrides:
        kwargs["tol_normal"] = cfg.tolerance_overrides["normality"]
    return check_normality(weight, AffineMap(args.a, args.b), cfg.orders, alpha=cfg.alpha, **kwargs)


CHECKERS = {
    "selfadjoint-forward": _run_selfadjoint_forward,
    "selfadjoint-reverse": _run_selfadjoint_reverse,
    "fixed-point": _run_fixed_point,
    "disk-criterion": _run_disk_criterion,
    "eigen-identity": _run_eigen_identity,
    "fixed-point-transfer": _run_fixed_point_transfer,
    "commutant-symbols": _run_commutant_symbols,
    "moebius-conjugation": _run_moebius_conjugation,
    "counterexample": _run_counterexample,
    "degenerate-commutant": _run_degenerate_commutant,
    "adjoint-factorization": _run_adjoint_factorization,
    "normality": _run_normality,
}


# ---------------------------------------------------------------------------
# the default suite grid
# ---------------------------------------------------------------------------


def run_suite(cfg: RunConfig) -> list[CheckReport]:
    """Every checker at its default parameter grid, deterministically."""
    a = cfg.alpha
    canonical = SelfAdjointSymbolParams(1.0, 0.5, 0.25, a)
    reports: list[CheckReport] = []

    reports.append(check_selfadjoint_forward(canonical, cfg.orders, seed=cfg.seed))
    reports.append(check_selfadjoint_forward(SelfAdjointSymbolParams(0.8, 0.2 - 0.3j, -0.35, a), cfg.orders, seed=cfg.seed))
    reports.append(
        check_selfadjoint_reverse(
            ExpLinearWeight(1.0, a * 0.5), AffineMap(0.25, 0.5), FockParams(a, min(32, cfg.max_order()))
        )
    )
    reports.append(check_h_conjugation(AffineMap(0.25, 0.5), seed=cfg.seed))
    reports.append(check_h_conjugation(AffineMap(-0.2, 0.3j), seed=cfg.seed))
    reports.append(check_disk_criterion(seed=cfg.seed))
    reports.append(check_eigen_identity(canonical, 5, seed=cfg.seed))
    reports.append(check_fixed_point_transfer(canonical, AffineMap(1.0, 0.0), ExpLinearWeight(1.0, 0.0), seed=cfg.seed))
    reports.append(
        check_fixed_point_transfer(
            SelfAdjointSymbolParams(1.0, 0.0, 0.5, a), AffineMap(0.3 + 0.1j, 0.0), ExpLinearWeight(1.0, 0.0), seed=cfg.seed
        )
    )
    psi_eta2, g_eta2, _ = commutant_symbols(2.0, 2.0 / 3.0, alpha=a)
    reports.append(check_fixed_point_transfer(canonical, psi_eta2, g_eta2, seed=cfg.seed))
    for eta, b in ((1.0, 2.0 / 3.0), (2.0, 2.0 / 3.0), (0.7, 0.5j)):
        reports.append(check_commutant_symbols(eta, b, alpha=a, seed=cfg.seed))
    reports.append(check_moebius_conjugation_battery(50, seed=cfg.seed))
    for eta in (2.0, 3.0, 0.5, 0.7 + 0.3j, -1.5):
        reports.append(reproduce_counterexample(eta))
    reports.append(check_degenerate_commutant(2.0 / 3.0, canonical, order=min(32, cfg.max_order())))
    reports.append(check_degenerate_commutant(0.0, SelfAdjointSymbolParams(1.0, 0.0, 0.5, a), order=min(32, cfg.max_order())))
    reports.append(check_adjoint_factorization_battery(20, FockParams(a, min(32, cfg.max_order())), seed=cfg.seed))
    reports.append(check_normality(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.0), cfg.orders, alpha=a))
    reports.append(check_normality(ExpLinearWeight(1.0, 0.0), AffineMap(0.5, 0.3), cfg.orders, alpha=a))
    reports.append(check_normality(ExpLinearWeight(1.0, 0.0), AffineMap(0.3 + 0.4j, 0.2j), cfg.orders, alpha=a))

    reports.sort(key=lambda r: (r.check_name, json.dumps(r.to_dict()["params"], sort_keys=True)))
    return reports


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=1.0, help="Gaussian weight parameter (default 1)")
    parser.add_argument("--orders", type=parse_orders, default=DEFAULT_ORDERS, help="comma-separated truncation orders")
    parser.add_argument("--seed", type=int, default=42, help="seed for deterministic sample sets")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json", help="report format")
    parser.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="CHECK=VALUE",
        help="override a check's tolerance, repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fockcalc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one named checker")
    p_check.add_argument("name", choices=sorted(CHECKERS), help="checker name")
    _add_common(p_check)
    p_check.add_argument("--c", type=parse_complex, default=1.0, help="weight scale of the self-adjoint family")
    p_check.add_argument("--a0", type=parse_complex, default=0.5, help="map offset of the self-adjoint family")
    p_check.add_argument("--a1", type=parse_complex, default=0.25, help="map slope of the self-adjoint family")
    p_check.add_argument("--eta", type=parse_complex, default=None, help="conjugation multiplier of the commutant family")
    p_check.add_argument("--b", type=parse_complex, default=2.0 / 3.0, help="fixed point of the commutant family / map offset for normality")
    p_check.add_argument("--a", type=parse_complex, default=0.5, help="map slope for normality")
    p_check.add_argument("--weight-c", type=parse_complex, default=1.0, help="weight scale c of c*e^{wz}")
    p_check.add_argument("--weight-w", type=parse_complex, default=0.0, help="weight exponent w of c*e^{wz}")
    p_check.add_argument("--map-a", type=parse_complex, default=None, help="affine map slope")
    p_check.add_argument("--map-b", type=parse_complex, default=None, help="affine map offset")
    p_check.add_argument("--j-max", type=int, default=5, help="largest conjugated-family index checked")
    p_check.add_argument("--gamma", type=parse_complex, default=None, help="slope of a linear companion map for the transfer check")
    p_check.add_argument("--draws", type=int, default=None, help="number of randomized draws for battery checks")

    p_suite = sub.add_parser("suite", help="run the full default verification grid")
    _add_common(p_suite)

    p_matrix = sub.add_parser("matrix", help="dump a finite section as CSV")
    _add_common(p_matrix)
    p_matrix.add_argument("--weight-c", type=parse_complex, default=1.0)
    p_matrix.add_argument("--weight-w", type=parse_complex, default=0.0)
    p_matrix.add_argument("--map-a", type=parse_complex, default=1.0)
    p_matrix.add_argument("--map-b", type=parse_complex, default=0.0)
    p_matrix.add_argument("--order", type=int, default=8, help="truncation order N; the section is (N+1) x (N+1)")

    p_oracle = sub.add_parser("oracle", help="compare exact and quadrature inner products")
    _add_common(p_oracle)
    p_oracle.add_argument("--max-degree", type=int, default=12, help="largest monomial degree in the comparison")
    p_oracle.add_argument("--alphas", type=str, default="0.5,1,2", help="comma-separated Gaussian parameters")

    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for item in args.tolerance:
        name, _, value = item.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(f"--tolerance expects CHECK=VALUE, got {item!r}")
        if name not in CHECKERS:
            raise argparse.ArgumentTypeError(f"--tolerance names unknown check {name!r}")
        overrides[name] = float(value)
    seed = args.seed
    env_seed = os.environ.get("FOCKCALC_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    return RunConfig(
        alpha=args.alpha,
        orders=tuple(args.orders),
        tolerance_overrides=overrides,
        seed=seed,
        output_format=args.format,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check(args, cfg: RunConfig) -> int:
    runner = CHECKERS[args.name]
    # a few checkers require flags that default to None
    if args.name in ("commutant-symbols", "counterexample") and args.eta is None:
        print(f"error: check {args.name} requires --eta", file=sys.stderr)
        return 2
    if args.draws is None:
        args.draws = {"disk-criterion": 200, "moebius-conjugation": 50, "adjoint-factorization": 20}.get(args.name, 20)
    report = runner(args, cfg)
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
