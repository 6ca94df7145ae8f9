"""The selftest suites on their own. A planted closed form that sampled
states beat must be reported by the duality suite, once per instance and
metric, and exactly where a state beats it. The suites that draw their
POVMs as stacks and evaluate their instances together must check the
values of one draw and one evaluation after another."""

import collections
import importlib
from pathlib import Path

import numpy as np
import pytest

import jointmeas.selftest as selftest
from jointmeas import linalg
from jointmeas.distances import DistanceValue, dist_inf, dist_l1
from jointmeas.povm import Povm, outcome_probabilities, random_povm
from jointmeas.smearing import OutcomeMap

TOOLS = Path(__file__).resolve().parents[1] / "tools"

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


# Reference: each instance's POVMs drawn one at a time, between the
# generator's other draws, and checked one at a time through the recording
# one-instance functions `checked`.


def _sub_seed(rng):
    return int(rng.integers(0, 2**63 - 1))


def _random_outcome_map(rng, source, target):
    choice = rng.integers(0, len(target), size=len(source))
    return OutcomeMap(source, target, {s: target[int(k)] for s, k in zip(source, choice)})


def _one_instance(rng, max_dim=4, max_outcomes=4, max_joint_outcomes=8):
    dim = int(rng.integers(2, max_dim + 1))
    n_a = int(rng.integers(2, max_outcomes + 1))
    n_b = int(rng.integers(2, max_outcomes + 1))
    n_f = int(rng.integers(2, max_joint_outcomes + 1))
    a = random_povm(dim, n_a, _sub_seed(rng))
    b = random_povm(dim, n_b, _sub_seed(rng))
    f = random_povm(dim, n_f, _sub_seed(rng))
    f = Povm(tuple(f"f{k}" for k in range(f.n_outcomes)), f.elements)
    f_a = _random_outcome_map(rng, f.outcomes, a.outcomes)
    f_b = _random_outcome_map(rng, f.outcomes, b.outcomes)
    return a, b, f, f_a, f_b


def _reference_theorem1(trials, seed, checked):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        checked.check_theorem1(*_one_instance(rng))


def _reference_theorem2(trials, seed, checked):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        instance = _one_instance(rng, max_dim=3, max_outcomes=3, max_joint_outcomes=6)
        checked.check_theorem2(*instance)


def _reference_metric_axioms(trials, seed, checked):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        p, q, r = (random_povm(dim, n, _sub_seed(rng)) for _ in range(3))
        for dist in (checked.D_inf, checked.D_l1):
            dist(p, q), dist(q, p), dist(p, p), dist(p, r), dist(r, q)


def _reference_povm_invariants(trials, seed, checked):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        p = random_povm(dim, n, _sub_seed(rng))
        checked.validate_povm(p)
        checked.intrinsic_uncertainty_inf(p)
        checked.intrinsic_uncertainty_l1(p)
        mid = tuple(f"m{k}" for k in range(int(rng.integers(1, n + 1))))
        final = tuple(f"z{k}" for k in range(int(rng.integers(1, len(mid) + 1))))
        f1 = _random_outcome_map(rng, p.outcomes, mid)
        f2 = _random_outcome_map(rng, mid, final)
        checked.marginalize(checked.marginalize(p, f1), f2)
        checked.marginalize(p, f1.compose(f2))
        f_joint = random_povm(dim, int(rng.integers(2, 7)), _sub_seed(rng))
        f_map = _random_outcome_map(rng, f_joint.outcomes, p.outcomes)
        checked.marginalize(f_joint, f_map)


@pytest.fixture
def selftest_values(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("selftest_values")


@pytest.mark.parametrize(
    "suite, reference",
    [
        (selftest.suite_theorem1, _reference_theorem1),
        (selftest.suite_theorem2, _reference_theorem2),
        (selftest.suite_metric_axioms, _reference_metric_axioms),
        (selftest.suite_povm_invariants, _reference_povm_invariants),
    ],
)
@pytest.mark.parametrize("seed", [0, 51])
def test_stacked_suites_check_the_instances_of_single_draws(selftest_values, suite, reference, seed):
    # every checked value by its bits, quantity by quantity in instance
    # order: evaluating many instances in one call changes only how the
    # quantities interleave
    stacked, single = collections.defaultdict(list), collections.defaultdict(list)
    with selftest_values.recording(lambda name, raw: stacked[name].append(raw)):
        suite(6, seed)
    with selftest_values.recording(lambda name, raw: single[name].append(raw)) as checked:
        reference(6, seed, checked)
    assert stacked and stacked == single


@pytest.mark.parametrize(
    "suite, trials",
    [
        (selftest.suite_theorem1, 200),
        (selftest.suite_theorem2, 100),
        (selftest.suite_metric_axioms, 100),
        (selftest.suite_povm_invariants, 200),
    ],
)
def test_stacked_suites_solve_in_a_few_calls(monkeypatch, suite, trials):
    # every maximum of every instance goes through one reducer call per
    # quantity, which solves about a chunk of matrices a call per dimension
    # (2, 3 and 4), where one call per quantity and instance took thousands
    sizes = []
    herm_norm_stack = linalg.herm_norm_stack

    def counted(ms):
        sizes.append(len(ms))
        return herm_norm_stack(ms)

    monkeypatch.setattr(linalg, "herm_norm_stack", counted)
    assert suite(trials, 1).violations == 0
    assert 0 < len(sizes) <= 8
