"""Every output of the committed corpus (tests/corpus.py) against its pinned digest.

Matrix products go through BLAS, so output bytes are exact only for the numpy
build and machine that wrote corpus_digests.json.  On that build each output's
sha256 digest, exit code and verdicts must match.  On any other build this test
compares exit codes and verdicts only, not bytes.
"""

import json

import pytest

import corpus

PINNED = json.loads(corpus.DIGESTS.read_text())
SAME_BUILD = corpus.same_build()


def test_corpus_pins_every_case():
    assert list(PINNED["outputs"]) == list(corpus.CASES)


@pytest.mark.parametrize("name", list(corpus.CASES))
def test_output_matches_corpus(name):
    code, out = corpus.run_case(name)
    pinned = PINNED["outputs"][name]
    assert (code, corpus.verdicts(name, out)) == (pinned["exit"], pinned["verdicts"])
    if SAME_BUILD:
        assert corpus.digest(out) == pinned["sha256"]


def test_changes_names_each_moved_and_added_case():
    entry = {"exit": 0, "sha256": "aa", "verdicts": ["Pass"]}
    old = {"same": entry, "digest": entry, "exit": entry, "verdicts": entry, "dropped": entry}
    new = {
        "same": dict(entry),
        "digest": {**entry, "sha256": "bb"},
        "exit": {**entry, "exit": 1},
        "verdicts": {**entry, "verdicts": ["Fail"]},
        "new": entry,
    }
    expected = {"digest": "moved", "exit": "moved", "verdicts": "moved", "new": "added", "dropped": "removed"}
    assert corpus.changes(old, new) == expected
    assert corpus.changes(old, old) == {}
