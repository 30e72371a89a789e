"""Acceptance gate: every shipped criterion runs at its stated tolerance.

Each criterion is one test, executed at the fixed seed 0 and reporting a
single pass/fail line.  Indices are stable names, so the retired indices
12 and 16 stay unused.  The criteria run in index order, as in
`conebessel check --full`; each draws from its own streams, so any order
gives the same results.
"""

import math
import sys
import time

import numpy as np
import pytest

from conebessel import acceptance, jack_series
from conebessel.acceptance import CRITERIA, quick_suite, run_criterion, stream_rng
from conebessel.cone_core import HypergroupParams, cone_rho
from conebessel.jack_series import BesselEval

_BY_INDEX = {idx: name for idx, name, *_ in CRITERIA}
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
    assert [idx for idx, *_ in CRITERIA] == [*range(1, 12), 13, 14, 15, 17]


def test_each_case_draws_from_its_own_stream(monkeypatch):
    # case i of criterion n draws from (seed, 100 + n, i), a lone case from
    # (seed, 100 + n): the runner alone assigns streams, and none repeats
    def entropy(arg, rng):
        return list(rng.bit_generator.seed_seq.entropy)

    monkeypatch.setattr(acceptance, "CRITERIA", [
        (idx, name, cases, entropy, lambda results: (True, results)) for idx, name, cases, _, _ in CRITERIA
    ])
    seen = []
    for idx, _, cases, _, _ in CRITERIA:
        streams = run_criterion(idx, 5)["details"]
        if len(cases) == 1:
            assert streams == [[5, 100 + idx]], idx
        else:
            assert streams == [[5, 100 + idx, i] for i in range(len(cases))], idx
        seen += map(tuple, streams)
    assert len(seen) == len(set(seen))


def test_a_check_that_raises_is_timed(monkeypatch):
    def slow_crash(arg, rng):
        time.sleep(0.02)
        raise jack_series.BesselSeriesError("past K_MAX")

    monkeypatch.setattr(acceptance, "CRITERIA", [
        (idx, name, cases, slow_crash, fold) for idx, name, cases, _, fold in CRITERIA
    ])
    result = run_criterion(15, 1)
    assert result["passed"] is False
    assert result["details"] == {"error": "BesselSeriesError: past K_MAX"}
    assert result["runtime_s"] >= 0.02


# ---------------------------------------------------------------------------
# a NaN from an evaluator fails its check: no fold of the deviations drops it


def _nan_panel(p, grid, r2s):
    return [math.nan] * len(grid), [1.0] * len(grid)


def _nan_jack(lam, alpha, xi):
    return math.nan


_NAN_EVALUATORS = {
    1: ("jack_C", _nan_jack),
    2: ("character_phi", lambda p, s, r, target_tol=1e-10: math.nan),
    6: ("conv_square_batch", lambda p, r, s, n, rng: np.full((n, p.q, p.q), math.nan)),
    8: ("bessel_from_eigs", lambda eigs, mu, d, target_tol=1e-10: BesselEval(math.nan, 0.0, 1)),
}


@pytest.mark.parametrize("index", sorted(_NAN_EVALUATORS))
def test_nan_from_the_evaluator_fails_the_criterion(index, monkeypatch):
    monkeypatch.setattr(acceptance, *_NAN_EVALUATORS[index])
    result = run_criterion(index, seed=0)
    assert not result["passed"] and "error" not in result["details"], result


def test_nan_panel_fails_the_semigroup_check(monkeypatch):
    monkeypatch.setattr(acceptance, "character_panel", _nan_panel)
    p = HypergroupParams(2, 1, cone_rho(2, 1) + 0.5)
    assert math.isnan(acceptance._semigroup_dev(p, np.eye(2), 0.5 * np.eye(2), 500, stream_rng(0, 110)))


@pytest.mark.parametrize("check, evaluator, fake", [
    ("trace-identity", "jack_C", _nan_jack),
    ("wishart-fourier", "character_panel", _nan_panel),
])
def test_nan_from_the_evaluator_fails_the_quick_check(check, evaluator, fake, monkeypatch):
    monkeypatch.setattr(acceptance, evaluator, fake)
    entry = {c["name"]: c for c in quick_suite(HypergroupParams(1, 1, 1.5), 0)}[check]
    assert not entry["passed"] and "error" not in entry["details"], entry


def test_criterion_1_catches_jack_tables_at_the_reciprocal_alpha(monkeypatch):
    # the recurrence's eigenvalues at 1/alpha: the hook-product norms do not
    # rescale those coefficients to the trace identity
    eigenvalue = jack_series._eigenvalue
    monkeypatch.setattr(jack_series, "_eigenvalue", lambda lam, alpha: eigenvalue(lam, 1.0 / alpha))
    jack_series._monic_tables.cache_clear()
    try:
        result = run_criterion(1, seed=0)
    finally:
        jack_series._monic_tables.cache_clear()
    assert not result["passed"] and "error" not in result["details"], result
