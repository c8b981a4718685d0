"""In-memory span recorder installed around fockcalc's public functions.

A span is (name, start, end, parent index).  Wrappers replace a function in
every fockcalc module namespace that bound it, so calls made through a
``from .series import compose_affine`` in ``operators`` or ``checks`` are
seen as well as calls through ``fockcalc.series``.  Methods are patched on
their class.  Spans of one operation share that operation's list; after the
operation the list is folded into per-layer totals (calls, self time,
inclusive time) and cleared, outside the timed region.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

import fockcalc.checks as fchk
import fockcalc.cli as fcli
import fockcalc.operators as fop
import fockcalc.quadrature as fquad
import fockcalc.sampling as fsamp
import fockcalc.series as fser

ROOT_SPAN = "op"

# checker function -> registered check name; batteries and their single-draw
# checker share the name, so a battery's calls count include its draws
CHECKERS = {
    "check_selfadjoint_forward": "selfadjoint-forward",
    "check_selfadjoint_reverse": "selfadjoint-reverse",
    "check_h_conjugation": "fixed-point",
    "check_disk_criterion": "disk-criterion",
    "check_eigen_identity": "eigen-identity",
    "check_fixed_point_transfer": "fixed-point-transfer",
    "check_commutant_symbols": "commutant-symbols",
    "check_moebius_conjugation": "moebius-conjugation",
    "check_moebius_conjugation_battery": "moebius-conjugation",
    "reproduce_counterexample": "counterexample",
    "check_degenerate_commutant": "degenerate-commutant",
    "check_cphi_adjoint_factorization": "adjoint-factorization",
    "check_adjoint_factorization_battery": "adjoint-factorization",
    "check_normality": "normality",
}
CHECK_NAMES = sorted(set(CHECKERS.values()))
SECTION_ORDERS = (16, 32, 64, 128, 170)
INCLUSIVE_PREFIXES = ("checks.", "operators.assemble_matrix.")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _assemble_name(args, kwargs):
    return f"operators.assemble_matrix.N{_arg(args, kwargs, 1, 'params').order}"


def _count_entries(counters, args, kwargs, result):
    counters["operators.assemble_matrix.entries"] += result.dim * result.dim


def _grid_counter(position):
    def count(counters, args, kwargs, result):
        grid = _arg(args, kwargs, position, "grid")
        counters["quadrature.grid_points"] += grid.radial_nodes.shape[0] * grid.angular_count

    return count


def _count_samples(counters, args, kwargs, result):
    counters["sampling.points_requested"] += int(np.size(_arg(args, kwargs, 0, "points")))
    counters["sampling.points_kept"] += int(np.size(result))


def _targets():
    """(owner, attribute, span name or namer, counter) for every traced boundary."""
    ts = fser.TruncatedSeries
    out = [
        (fser, "compose_affine", "series.compose_affine", None),
        (fser, "exp_linear", "series.exp_linear", None),
        (fser, "inner_product", "series.inner_product", None),
        (ts, "__post_init__", "series.TruncatedSeries", None),
        (ts, "__mul__", "series.mul", None),
        (ts, "__rmul__", "series.mul", None),
        (ts, "__call__", "series.eval", None),
        (fop, "assemble_matrix", _assemble_name, _count_entries),
        (fop.OperatorMatrix, "to_csv", "operators.to_csv", None),
        (fop, "hermitian_residual", "operators.hermitian_residual", None),
        (fop, "commutator_residual", "operators.commutator_residual", None),
        (fop, "apply_wco", "operators.apply_wco", None),
        (fop, "adjoint_on_kernel", "operators.adjoint_on_kernel", None),
        (fquad, "default_grid", "quadrature.default_grid", None),
        (fquad, "quad_inner_product", "quadrature.quad_inner_product", _grid_counter(2)),
        (fquad, "quad_matrix_entry", "quadrature.quad_matrix_entry", _grid_counter(3)),
        (fsamp, "drop_near_poles", "sampling.drop_near_poles", _count_samples),
        # cmd_suite's self time, once run_suite is a child span, is the JSON rendering
        (fcli, "cmd_suite", "report.render", None),
        (fcli, "run_suite", "cli.run_suite", None),
    ]
    out += [(fchk, fn, f"checks.{name}", None) for fn, name in CHECKERS.items()]
    return out


class Tracer:
    """Records spans while installed; folds them per operation."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.ops_folded = 0
        self.first_op_spans: list | None = None
        self._restore: list = []

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, name, count):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            label = namer(args, kwargs) if namer else name
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "fockcalc" or n.startswith("fockcalc.")]
        for owner, attr, name, count in _targets():
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, count))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- per-operation bookkeeping -------------------------------------------

    def begin_op(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.spans.append(None)
        self.stack.append(0)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self.stack.clear()
        self.spans[0] = (ROOT_SPAN, self._op_start, time.perf_counter(), -1)

    def fold(self) -> None:
        """Add the finished operation's spans and counters to the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child[i]
            if name.startswith(INCLUSIVE_PREFIXES):
                # inclusive time counts only the outermost span of a name
                p = parent
                while p >= 0 and spans[p][0] != name:
                    p = spans[p][3]
                if p < 0:
                    self.incl_s[name] += end - start
        for key, value in self.counters.items():
            self.totals[key] += value
        if self.first_op_spans is None:
            self.first_op_spans = list(spans)
        self.ops_folded += 1

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-operation means over the folded operations, as (value, unit)."""
        n = max(self.ops_folded, 1)
        out: dict[str, tuple[float, str]] = {}

        def layer(name: str) -> None:
            out[f"{name}.calls"] = (self.calls.get(name, 0) / n, "count")
            out[f"{name}.s"] = (self.self_s.get(name, 0.0) / n, "s")

        for name in ("compose_affine", "TruncatedSeries", "mul", "exp_linear", "eval", "inner_product"):
            layer(f"series.{name}")
        for order in SECTION_ORDERS:
            name = f"operators.assemble_matrix.N{order}"
            layer(name)
            out[f"{name}.incl_s"] = (self.incl_s.get(name, 0.0) / n, "s")
        out["operators.assemble_matrix.entries"] = (self.totals.get("operators.assemble_matrix.entries", 0) / n, "count")
        for name in ("to_csv", "hermitian_residual", "commutator_residual", "apply_wco", "adjoint_on_kernel"):
            layer(f"operators.{name}")
        for check in CHECK_NAMES:
            name = f"checks.{check}"
            layer(name)
            out[f"{name}.incl_s"] = (self.incl_s.get(name, 0.0) / n, "s")
        for name in ("default_grid", "quad_inner_product", "quad_matrix_entry"):
            layer(f"quadrature.{name}")
        out["quadrature.grid_points"] = (self.totals.get("quadrature.grid_points", 0) / n, "count")
        requested = self.totals.get("sampling.points_requested", 0)
        kept = self.totals.get("sampling.points_kept", 0)
        out["sampling.points_requested"] = (requested / n, "count")
        out["sampling.points_kept"] = (kept / n, "count")
        out["sampling.kept_ratio"] = (kept / requested if requested else 0.0, "ratio")
        layer("report.render")
        out["report.bytes"] = (self.totals.get("report.bytes", 0) / n, "bytes")
        return out

    def spans_json(self) -> list[dict]:
        spans = self.first_op_spans or []
        return [{"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3]} for i, s in enumerate(spans)]
