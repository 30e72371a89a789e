"""Acceptance gate: every shipped criterion runs at its stated tolerance.

Each criterion is one test, executed at the fixed seed 0 and reporting a
single pass/fail line.  Indices are stable names, so the retired indices
12 and 16 stay unused.  The criteria run in index order, as in
`conebessel check --full`; each draws from its own streams, so any order
gives the same results.
"""

import sys

import pytest

from conebessel.acceptance import CRITERIA, run_criterion

_BY_INDEX = {idx: name for idx, name, _ in CRITERIA}
_ORDER = sorted(_BY_INDEX)


@pytest.mark.parametrize(
    "index", _ORDER, ids=[f"{i:02d}-{_BY_INDEX[i]}" for i in _ORDER]
)
def test_acceptance_criterion(index):
    result = run_criterion(index, seed=0)
    verdict = "PASS" if result["passed"] else "FAIL"
    line = (
        f"criterion {index:2d} {result['name']}: {verdict} "
        f"({result['runtime_s']:.1f}s)"
    )
    print(line)
    print(line, file=sys.stderr)
    assert result["passed"], f"criterion {index} ({result['name']}) failed: {result['details']}"


def test_registry_is_complete():
    assert [idx for idx, _, _ in CRITERIA] == [*range(1, 12), 13, 14, 15, 17]
