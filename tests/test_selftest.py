"""The duality suite on its own: a planted closed form that sampled states
beat must be reported, once per instance and metric, and exactly where a
state beats it."""

import pytest

import jointmeas.selftest as selftest
from jointmeas.distances import DistanceValue, dist_inf, dist_l1
from jointmeas.povm import outcome_probabilities

METRICS = [("inf", "D_inf", dist_inf), ("l1", "D_l1", dist_l1)]


def _plant(monkeypatch, attr, lower):
    """Replace one closed form by `lower(value)`; returns the (A, B, planted
    value) of every call, in call order."""
    real = getattr(selftest, attr)
    calls = []

    def planted(a, b):
        dv = real(a, b)
        value = lower(dv.value)
        calls.append((a, b, value))
        return DistanceValue(value, dv.witness, dv.witness_matrix)

    monkeypatch.setattr(selftest, attr, planted)
    return calls


def _exceeded(result, name):
    return [d for d in result.details if d.endswith(f": {name} exceeded at a random state")]


@pytest.mark.parametrize("name, attr, dist", METRICS)
def test_duality_reports_a_closed_form_of_zero_at_every_instance(monkeypatch, name, attr, dist):
    # every sampled state that tells A from B exceeds a closed form of 0
    _plant(monkeypatch, attr, lambda value: 0.0)
    trials = 5
    result = selftest.suite_duality(trials, seed=3)
    assert _exceeded(result, name) == [
        f"instance {i}: {name} exceeded at a random state" for i in range(trials)
    ]
    # the planted metric's witness no longer reproduces its value either
    assert sum(f": {name} witness reproduces" in d for d in result.details) == trials
    assert result.violations == len(result.details) == 2 * trials


@pytest.mark.parametrize("name, attr, dist", METRICS)
def test_duality_reports_exactly_the_instances_a_state_beats(monkeypatch, name, attr, dist):
    # lowered by 0.05, the closed form is beaten by a few of the 100 states
    # at some instances and by none at others; each state is re-checked on
    # its own, as a stack of one through outcome_probabilities
    calls = _plant(monkeypatch, attr, lambda value: value - 0.05)
    drawn = []
    real_draw = selftest.random_states

    def recording(dim, count, rng):
        drawn.append(real_draw(dim, count, rng))
        return drawn[-1]

    monkeypatch.setattr(selftest, "random_states", recording)
    trials = 4
    result = selftest.suite_duality(trials, seed=7)
    # each instance draws for "inf" first, then for "l1"
    own_draws = drawn[0 if name == "inf" else 1 :: 2]
    beaten = [
        i
        for i, ((a, b, value), stack) in enumerate(zip(calls, own_draws))
        if any(
            dist(outcome_probabilities(a, rho[None])[0], outcome_probabilities(b, rho[None])[0])
            > value + 1e-9
            for rho in stack
        )
    ]
    assert 0 < len(beaten) < trials
    assert _exceeded(result, name) == [
        f"instance {i}: {name} exceeded at a random state" for i in beaten
    ]


def test_duality_passes_on_the_closed_forms():
    assert selftest.suite_duality(5, seed=3).violations == 0
