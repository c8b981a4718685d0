"""The committed output corpus: the CLI runs whose bytes tests/test_corpus.py pins.

Each case is one ``fockcalc`` command line, optionally with FOCKCALC_SEED set,
run in process through ``cli.main``.  Its sha256 digest, exit code and verdict
list are stored in corpus_digests.json, together with the numpy version and
machine that produced them.

Regenerate the digests after a change that moves output bytes on purpose, and
name each moved digest in CHANGES.md:

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
    """The verdicts an output states, in order: one per report, or one per residual row in csv."""
    argv = CASES[name][1]
    if argv[0] == "matrix":
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


def build() -> str:
    """The digests file: the build, then one line per case, so that a moved digest is one changed line."""
    lines = []
    for name in CASES:
        code, out = run_case(name)
        entry = {"exit": code, "sha256": digest(out), "verdicts": verdicts(name, out)}
        lines.append(f"  {json.dumps(name)}: {json.dumps(entry)}")
    build_keys = f'"numpy": {json.dumps(np.__version__)}, "machine": {json.dumps(platform.machine())}'
    return "{" + build_keys + ', "outputs": {\n' + ",\n".join(lines) + "\n}}\n"


if __name__ == "__main__":
    DIGESTS.write_text(build())
    sys.stdout.write(f"wrote {len(CASES)} digests to {DIGESTS}\n")
