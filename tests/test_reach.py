"""The reach ratchet (tests/reach.py): every src/fockcalc function is entered by a corpus case, or listed with its reason."""

import sys

import pytest

import reach

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="functions are keyed by co_qualname, new in Python 3.11")


def test_every_function_is_entered_or_listed_with_its_reason():
    faults = reach.mismatches(reach.defined(), reach.entered())
    assert faults == {"unentered and not listed": [], "listed but entered": [], "listed but not defined": []}


def test_each_listed_function_has_one_reason():
    assert len(reach.UNENTERED) <= 14
    assert all(reason.startswith(("pinned by perfbench: ", "reached only by tests: ", "error path: ")) for reason in reach.UNENTERED.values())
