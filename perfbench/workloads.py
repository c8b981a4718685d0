"""Benchmark workloads: inputs made from a seed, the timed operation, and
the check of each operation's output.

Each workload is a fixed list of items (one pass).  The measuring loop runs
whole passes, so every item repeats and the mix is the same however many
passes fit in a run.  No timed item fails.  The inputs on which fockcalc
has a known defect are a workload's ``corners``: they run once per run,
untimed, and their outcome is reported beside the timed operations.

``run`` is the timed operation and calls fockcalc only through module
attributes, so wrappers the tracer installs see the calls.  ``check`` runs
outside the timed region and returns OK, FAILED (the program raised or
reported a failed verdict) or WRONG (the output disagrees with an
independent reference or with an earlier repeat of the same item).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np

import fockcalc.checks as fchk
import fockcalc.cli as fcli
import fockcalc.operators as fop
import fockcalc.quadrature as fquad
from fockcalc.report import Verdict, format_complex
from fockcalc.series import FockParams

OK, FAILED, WRONG = "ok", "failed", "wrong"
EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)
SUBNORMAL_ULP = TINY * EPS  # spacing of doubles below TINY


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _rng(seed: int, salt: int) -> np.random.Generator:
    """Generator for one workload's inputs; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**63, salt])


def _disk(rng: np.random.Generator, radius: float) -> complex:
    """Uniform draw from the closed disk of the given radius."""
    return complex(radius * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _bounded_symbol(rng: np.random.Generator) -> fop.WcoSymbol:
    """c e^{wz} composed with az + b, |a| <= 0.9, so the operator is bounded."""
    c = complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return fop.WcoSymbol(fop.ExpLinearWeight(c, _disk(rng, 0.5)), fop.AffineMap(_disk(rng, 0.9), _disk(rng, 0.5)))


def cli_main(argv: list[str]) -> tuple[int, str]:
    """In-process ``fockcalc`` command line: exit code and stdout text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fcli.main(list(argv))
    return rc, buf.getvalue()


class Workload:
    name = ""
    items: list = []
    corners: list = []
    cli_argv: list[str] = []

    def __init__(self) -> None:
        self._seen: dict[int, str] = {}

    def run(self, item):
        raise NotImplementedError

    def check(self, index: int, item, out) -> str:
        raise NotImplementedError

    def repeat_matches(self, index: int, digest: str) -> bool:
        """First output of an item is kept by digest; repeats must match it."""
        return self._seen.setdefault(index, digest) == digest

    def report_bytes(self, out) -> int:
        return 0

    def describe(self, item) -> dict:
        raise NotImplementedError

    def mix(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

SUITE_ALPHAS = (0.5, 1.0, 2.0, 3.0, 4.0)
SUITE_CORNER_ALPHAS = (8.0, 12.0)
SUITE_ORDERS = (16, 32, 64)
SUITE_SEEDS_PER_PASS = 2


class Suite(Workload):
    """``fockcalc suite`` in process: run_suite plus cmd_suite's JSON rendering.

    The corners are alpha 8 and 12 at the command line's default sample seed,
    as ``fockcalc suite --alpha 8`` runs them: the fixed-point-transfer check
    raises "companion weight vanishes" there.
    """

    name = "suite"
    cli_argv = ["suite"]

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = _rng(seed, 1)
        self.sample_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, SUITE_SEEDS_PER_PASS)]
        self.items = [(alpha, s) for s in self.sample_seeds for alpha in SUITE_ALPHAS]
        self.corners = [(alpha, fcli.RunConfig().seed) for alpha in SUITE_CORNER_ALPHAS]

    def run(self, item):
        alpha, seed = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = fcli.cmd_suite(fcli.RunConfig(alpha=alpha, orders=SUITE_ORDERS, seed=seed))
        return rc, buf.getvalue()

    def check(self, index, item, out):
        rc, text = out
        if not self.repeat_matches(index, _digest(rc, text.encode())):
            return WRONG
        doc = json.loads(text)
        alpha, seed = item
        if doc["config"] != {"alpha": alpha, "orders": list(SUITE_ORDERS), "seed": seed, "tolerance_overrides": {}}:
            return WRONG
        passed = all(c["verdict"] in (Verdict.PASS.value, Verdict.INFORMATIONAL.value) for c in doc["checks"])
        if doc["all_passed"] is not passed or rc != (0 if passed else 1):
            return WRONG
        return OK if passed else FAILED

    def report_bytes(self, out):
        return len(out[1].encode())

    def describe(self, item):
        return {"alpha": item[0], "seed": item[1]}

    def mix(self):
        return {"alphas": SUITE_ALPHAS, "orders": SUITE_ORDERS, "sample_seeds": self.sample_seeds,
                "corners": [self.describe(c) for c in self.corners]}  # fmt: skip


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

SECTION_ORDERS = (64, 128, 170)
SECTION_ALPHAS = (0.5, 1.0, 2.0)
HERMITIAN_TOL = fchk.IDENTITY_TOL


def reference_section(sym: fop.WcoSymbol, params: FockParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form finite section and a forward-error scale for it.

    Raw coefficients of weight * (az+b)^n are the lower-triangular Toeplitz
    matrix of the weight's Taylor coefficients times the binomial matrix
    binom(n, j) a^j b^(n-j); entry (m, n) is then scaled by s_m/s_n with
    s_k = sqrt(k!/alpha^k), taken in the log domain.  The second array is the
    same product over absolute values, the scale rounding errors grow with.
    """
    n_max = params.order
    dim = n_max + 1
    w, c = sym.weight.w, sym.weight.c
    a, b = sym.map.a, sym.map.b
    k = np.arange(dim)
    coeffs = np.array([c * w**i / math.factorial(i) for i in range(dim)], dtype=np.complex128)
    toeplitz = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        toeplitz[i:, i] = coeffs[: dim - i]
    binom = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(dim):
        for j in range(n + 1):
            binom[j, n] = math.comb(n, j) * a**j * b ** (n - j)
    log_s = 0.5 * (np.array([math.lgamma(i + 1.0) for i in range(dim)]) - k * math.log(params.alpha))
    ratio = np.exp(log_s[:, None] - log_s[None, :])
    # below the smallest normal number rounding is absolute, not relative: an
    # error of one subnormal ulp (TINY * EPS) in a weight coefficient or a
    # composed coefficient is carried by the other factor of the product
    magnitude = np.abs(toeplitz) @ np.abs(binom) + TINY * (np.abs(coeffs).sum() + np.abs(binom).sum(axis=0))
    return (toeplitz @ binom) * ratio, magnitude * ratio


def _parse_csv(text: str, dim: int) -> np.ndarray:
    rows = text.rstrip("\n").split("\n")
    vals = np.array([[float(x) for x in row.split(",")] for row in rows])
    if vals.shape != (dim, 2 * dim):
        raise ValueError(f"csv shape {vals.shape}")
    return vals[:, 0::2] + 1j * vals[:, 1::2]


class Sections(Workload):
    """Large finite sections of seeded bounded symbols.

    One item per (symbol kind, N, alpha); alpha 0.5 at N=170 is a corner
    ("matrix entries must be finite").
    """

    name = "sections"

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = _rng(seed, 2)
        self.items, self.corners = [], []
        for kind in ("general", "selfadjoint"):
            for order in SECTION_ORDERS:
                for alpha in SECTION_ALPHAS:
                    if kind == "general":
                        sym = _bounded_symbol(rng)
                    else:
                        sym = fchk.SelfAdjointSymbolParams(
                            rng.uniform(0.5, 1.5), _disk(rng, 0.5), rng.uniform(-0.9, 0.9), alpha
                        ).symbol()
                    corner = alpha < 1 and order == SECTION_ORDERS[-1]
                    (self.corners if corner else self.items).append((kind, sym, order, alpha))
        _, sym, _, _ = self.items[0]
        # "--flag=value" keeps argparse from reading a leading minus as a flag
        self.cli_argv = [
            "matrix", "--alpha=1", f"--order={SECTION_ORDERS[-1]}",
            f"--weight-c={format_complex(sym.weight.c)}", f"--weight-w={format_complex(sym.weight.w)}",
            f"--map-a={format_complex(sym.map.a)}", f"--map-b={format_complex(sym.map.b)}",
        ]  # fmt: skip

    def run(self, item):
        _, sym, order, alpha = item
        mat = fop.assemble_matrix(sym, FockParams(alpha, order))
        herm = fop.hermitian_residual(mat)
        comm = fop.commutator_residual(mat, fop.adjoint_matrix(mat), order // 2)
        return mat, herm, comm, mat.to_csv()

    def check(self, index, item, out):
        kind, sym, order, alpha = item
        mat, herm, comm, csv = out
        first = index not in self._seen
        if not self.repeat_matches(index, _digest(mat.entries.tobytes(), herm, comm, csv.encode())):
            return WRONG
        if not (math.isfinite(herm) and math.isfinite(comm)):
            return WRONG
        if kind == "selfadjoint" and herm > HERMITIAN_TOL:
            return WRONG
        if first:
            ref, scale = reference_section(sym, mat.params)
            # error bound of a length-(N+1) recurrence plus a length-(N+1) sum;
            # an entry that lands below TINY is rounded to a multiple of
            # SUBNORMAL_ULP on both sides, whatever its relative bound
            if not np.all(np.abs(mat.entries - ref) <= 64 * (order + 1) * EPS * scale + 4 * SUBNORMAL_ULP):
                return WRONG
            if not np.array_equal(_parse_csv(csv, order + 1), mat.entries):
                return WRONG
        return OK

    def describe(self, item):
        kind, s, order, alpha = item
        return {"kind": kind, "order": order, "alpha": alpha, "c": format_complex(s.weight.c),
                "w": format_complex(s.weight.w), "a": format_complex(s.map.a), "b": format_complex(s.map.b)}  # fmt: skip

    def mix(self):
        return {
            "orders": SECTION_ORDERS,
            "alphas": SECTION_ALPHAS,
            "kinds": ["general", "selfadjoint"],
            "items": [self.describe(i) for i in self.items],
            "corners": [self.describe(c) for c in self.corners],
        }


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

ORACLE_MAX_DEGREE = 16
ORACLE_ALPHAS = (0.5, 1.0, 2.0)
ORACLE_ORDERS = (16, 32)
ORACLE_ENTRIES = 4
ORACLE_TOL = 1e-8


class Oracle(Workload):
    """Quadrature oracle agreement plus quadrature vs exact section entries."""

    name = "oracle"
    cli_argv = ["oracle", "--max-degree", str(ORACLE_MAX_DEGREE)]

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = _rng(seed, 3)
        self.items = []
        for order in ORACLE_ORDERS:
            for alpha in ORACLE_ALPHAS:
                sym = _bounded_symbol(rng)
                idx = [(int(n), int(m)) for n, m in rng.integers(0, order + 1, (ORACLE_ENTRIES, 2))]
                self.items.append((sym, order, alpha, idx))

    def run(self, item):
        sym, order, alpha, idx = item
        report = fquad.check_oracle_agreement(ORACLE_MAX_DEGREE, ORACLE_ALPHAS)
        params = FockParams(alpha, order)
        mat = fop.assemble_matrix(sym, params)
        grid = fquad.default_grid(params)
        quad = [fquad.quad_matrix_entry(sym, n, m, grid, params) for n, m in idx]
        return report, [complex(mat.entries[m, n]) for n, m in idx], quad

    def check(self, index, item, out):
        report, exact, quad = out
        if not self.repeat_matches(index, _digest(report.to_dict(), exact, quad)):
            return WRONG
        if report.verdict is not Verdict.PASS:
            return WRONG
        if any(not abs(q - e) <= ORACLE_TOL for q, e in zip(quad, exact)):
            return WRONG
        return OK

    def describe(self, item):
        s, o, a, idx = item
        return {"order": o, "alpha": a, "indices": idx, "a": format_complex(s.map.a), "b": format_complex(s.map.b),
                "c": format_complex(s.weight.c), "w": format_complex(s.weight.w)}  # fmt: skip

    def mix(self):
        return {
            "max_degree": ORACLE_MAX_DEGREE,
            "alphas": ORACLE_ALPHAS,
            "orders": ORACLE_ORDERS,
            "entries": [self.describe(i) for i in self.items],
        }


WORKLOADS = {"suite": Suite, "sections": Sections, "oracle": Oracle}
