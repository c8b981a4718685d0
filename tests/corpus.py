"""The committed output corpus: the CLI runs whose bytes tests/test_corpus.py pins.

Each case is one ``fockcalc`` command line, optionally with FOCKCALC_SEED set,
run in process through ``cli.main``.  Its sha256 digest, exit code and verdict
list are stored in corpus_digests.json, together with the numpy version and
machine that produced them.

Regenerate the digests after a change that moves output bytes on purpose, and
name each moved digest in CHANGES.md; the script prints each case whose exit
code, verdicts or digest moved against the file it replaces, each case it
adds or removes, and the counts:

    PYTHONPATH=src python tests/corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from fockcalc.cli import CHECKERS, main

DIGESTS = Path(__file__).with_name("corpus_digests.json")

# the flags each check cannot run without, so that a test can fault one thing at a time
REQUIRED_FLAGS = {
    "selfadjoint-reverse": ["--map-a", "0.25", "--map-b", "0.5"],
    "commutant-symbols": ["--eta", "2"],
    "counterexample": ["--eta", "2"],
}

# checks whose residuals overflow float64: each must print its Fail row, with no numpy warning on the way
OVERFLOWING_CHECKS = [
    ["selfadjoint-forward", "--alpha", "1e6"],
    ["selfadjoint-forward", "--c", "1e300"],
    ["normality", "--alpha", "1e6"],
    ["normality", "--weight-c", "1e300"],
    ["eigen-identity", "--alpha", "1e6"],
    ["selfadjoint-reverse", "--map-a", "0.25", "--map-b", "0.5", "--alpha", "1e300"],
]


def _cases() -> dict[str, tuple[dict[str, str], list[str]]]:
    """Case name -> (environment, argv); the name is the command line as a shell would take it."""
    runs: list[tuple[dict[str, str], list[str]]] = [
        ({}, ["suite", "--alpha", alpha, "--seed", seed, "--format", fmt])
        for fmt in ("json", "text", "csv")
        for alpha in ("0.5", "1", "2", "8", "12", "20")
        for seed in ("42", "7")
    ]
    runs.append(({"FOCKCALC_SEED": "7"}, ["suite"]))
    runs += [({}, ["check", name, *REQUIRED_FLAGS.get(name, [])]) for name in sorted(CHECKERS)]
    runs += [({}, ["matrix"]), ({}, ["oracle"])]
    runs += [({}, ["oracle", "--max-degree", "64", "--alphas", "0.25,1,4"]), ({}, ["oracle", "--max-degree", "250"])]
    # paths no case above enters: an order list without 32, an imaginary Möbius offset, the affine adjoint cross-check
    runs += [
        ({}, ["suite", "--orders", "8,16"]),
        ({}, ["check", "moebius-conjugation", "--eta", "2", "--b", "0.5i"]),
        ({}, ["check", "adjoint-factorization", "--map-a", "0.5", "--map-b", "0.25"]),
    ]
    runs += [({}, ["check", *flags]) for flags in OVERFLOWING_CHECKS]
    # far past the tolerances: four rows fail, yet every row prints
    runs.append(({}, ["suite", "--alpha", "400"]))
    # a fixed point whose family coefficients leave float64: a usage error that names b, with no output
    runs.append(({}, ["check", "commutant-symbols", "--eta", "2", "--b", "1e100"]))
    return {" ".join([*(f"{k}={v}" for k, v in env.items()), *argv]): (env, argv) for env, argv in runs}


CASES = _cases()


def run_case(name: str) -> tuple[int, str]:
    """Exit code and stdout of one case, with FOCKCALC_SEED set exactly as the case says."""
    env, argv = CASES[name]
    saved = os.environ.pop("FOCKCALC_SEED", None)
    os.environ.update(env)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.environ.pop("FOCKCALC_SEED", None)
        if saved is not None:
            os.environ["FOCKCALC_SEED"] = saved
    return code, out.getvalue()


def verdicts(name: str, out: str) -> list[str]:
    """The verdicts an output states, in order: one per report, or one per residual row in csv; none for a
    section or a usage error."""
    argv = CASES[name][1]
    if argv[0] == "matrix" or not out:
        return []
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "json":
        doc = json.loads(out)
        reports = doc["checks"] if "checks" in doc else [doc]
        return [r["verdict"] for r in reports]
    if fmt == "csv":
        # every row after the header but the closing all_passed line of suite
        return [line.rsplit(",", 1)[1] for line in out.splitlines()[1:] if "," in line]
    return [line[1 : line.index("]")] for line in out.splitlines() if line.startswith("[")]


def digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def same_build() -> bool:
    """Whether this numpy build and machine wrote the digests, so that output bytes must match them."""
    pinned = json.loads(DIGESTS.read_text())
    return (pinned["numpy"], pinned["machine"]) == (np.__version__, platform.machine())


def build() -> str:
    """The digests file: the build, then one line per case, so that a moved digest is one changed line."""
    lines = []
    for name in CASES:
        code, out = run_case(name)
        entry = {"exit": code, "sha256": digest(out), "verdicts": verdicts(name, out)}
        lines.append(f"  {json.dumps(name)}: {json.dumps(entry)}")
    build_keys = f'"numpy": {json.dumps(np.__version__)}, "machine": {json.dumps(platform.machine())}'
    return "{" + build_keys + ', "outputs": {\n' + ",\n".join(lines) + "\n}}\n"


def changes(old: dict[str, dict], new: dict[str, dict]) -> dict[str, str]:
    """Case -> "moved" or "added", in new's order, for each case of new whose exit code, verdicts or sha256
    differ from old's, then "removed", in old's order, for each case of old that new drops."""
    changed = {name: "moved" if name in old else "added" for name, entry in new.items() if old.get(name) != entry}
    return {**changed, **{name: "removed" for name in old if name not in new}}


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text())["outputs"] if DIGESTS.exists() else {}
    text = build()
    DIGESTS.write_text(text)
    changed = changes(old, json.loads(text)["outputs"])
    for name, kind in changed.items():
        sys.stdout.write(f"{kind}: {name}\n")
    counts = [f"{sum(kind == k for kind in changed.values())} {k}" for k in ("moved", "added", "removed")]
    sys.stdout.write(f"{', '.join(counts)}; wrote {len(CASES)} digests to {DIGESTS}\n")
