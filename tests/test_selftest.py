"""The selftest suites on their own. A planted closed form that sampled
states beat must be reported by the duality suite, once per instance and
metric, and exactly where a state beats it. The suites that draw their
POVMs as stacks and evaluate their instances together must check the
values of one draw and one evaluation after another, and build no POVM or
outcome-map object unless they report a violation."""

import collections
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import jointmeas.selftest as selftest
from jointmeas import linalg
from jointmeas.distances import DistanceValue, dist_inf, dist_l1
from jointmeas.povm import Povm, PovmViolation, outcome_probabilities, random_ragged
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
    result = selftest.suite_duality(trials, seed=3)
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


# Reference: the suite's generator draws every instance's sizes and
# outcome-map choices as the suite does, and then its POVMs one at a time,
# in the order of the suite's one stacked draw; each instance is checked
# one at a time through the recording one-instance functions `checked`.


def _draw(rng, dim, n):
    return random_ragged([dim], [n], rng).povm(0)


def _labels(n, prefix="o"):
    return tuple(f"{prefix}{k}" for k in range(n))


def _choices(rng, targets, sources):
    """Each map's choice of one of its `targets` for each of its `sources`,
    all drawn with one call."""
    return np.split(rng.integers(0, np.repeat(targets, sources)), np.cumsum(sources)[:-1])


def _outcome_map(choice, source, target):
    return OutcomeMap(source, target, {s: target[int(k)] for s, k in zip(source, choice)})


def _instances(rng, trials, max_dim=4, max_outcomes=4, max_joint_outcomes=8):
    highs = np.add([max_dim, max_outcomes, max_outcomes, max_joint_outcomes], 1)
    dims, n_a, n_b, n_f = rng.integers(2, highs, size=(trials, 4)).T
    to_a, to_b = _choices(rng, n_a, n_f), _choices(rng, n_b, n_f)
    # all the A, then all the B, then all the F
    a = [_draw(rng, d, n) for d, n in zip(dims, n_a)]
    b = [_draw(rng, d, n) for d, n in zip(dims, n_b)]
    f = [_draw(rng, d, n) for d, n in zip(dims, n_f)]
    for i in range(trials):
        f_a = _outcome_map(to_a[i], f[i].outcomes, a[i].outcomes)
        yield a[i], b[i], f[i], f_a, _outcome_map(to_b[i], f[i].outcomes, b[i].outcomes)


def _reference_theorem1(trials, seed, checked):
    for instance in _instances(np.random.default_rng(seed), trials):
        checked.check_theorem1(*instance)


def _reference_theorem2(trials, seed, checked):
    rng = np.random.default_rng(seed)
    for instance in _instances(rng, trials, max_dim=3, max_outcomes=3, max_joint_outcomes=6):
        checked.check_theorem2(*instance)


def _reference_metric_axioms(trials, seed, checked):
    rng = np.random.default_rng(seed)
    dims, counts = rng.integers(2, 5, size=(2, trials))
    for dim, n in zip(dims, counts):
        p, q, r = (_draw(rng, dim, n) for _ in range(3))
        for dist in (checked.D_inf, checked.D_l1):
            dist(p, q), dist(q, p), dist(p, p), dist(p, r), dist(r, q)


def _reference_povm_invariants(trials, seed, checked):
    rng = np.random.default_rng(seed)
    dims, n, n_joint = rng.integers(2, [5, 5, 7], size=(trials, 3)).T
    n_mid = rng.integers(1, n + 1)
    n_final = rng.integers(1, n_mid + 1)
    to_mid, to_final = _choices(rng, n_mid, n), _choices(rng, n_final, n_mid)
    to_p = _choices(rng, n, n_joint)
    # all the POVMs, then all the joint POVMs
    ps = [_draw(rng, d, k) for d, k in zip(dims, n)]
    joints = [_draw(rng, d, k) for d, k in zip(dims, n_joint)]
    for i, (p, f_joint) in enumerate(zip(ps, joints)):
        checked.validate_povm(p)
        checked.intrinsic_uncertainty_inf(p)
        checked.intrinsic_uncertainty_l1(p)
        mid, final = _labels(n_mid[i], "m"), _labels(n_final[i], "z")
        f1 = _outcome_map(to_mid[i], p.outcomes, mid)
        f2 = _outcome_map(to_final[i], mid, final)
        checked.marginalize(checked.marginalize(p, f1), f2)
        checked.marginalize(p, f1.compose(f2))
        checked.marginalize(f_joint, _outcome_map(to_p[i], f_joint.outcomes, p.outcomes))


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


def test_a_selftest_pass_builds_one_generator_a_suite(monkeypatch, capsys):
    # each suite draws its sizes, POVMs and states from its own generator,
    # so a generator per POVM cannot come back unseen
    built = collections.Counter()
    for name in ("default_rng", "Generator", "PCG64"):

        def counted(*args, _real=getattr(np.random, name), _name=name, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counted)
    assert selftest.run_selftest(200, 1) == 0
    assert built == {"default_rng": 5}


# Planted defects: each replaces one name a suite reads with a wrapper that
# spoils one value of one instance, and the suite must record exactly that
# instance, with its message.


@pytest.mark.parametrize(
    "suite, inequality_id",
    [(selftest.suite_theorem1, "theorem1"), (selftest.suite_theorem2, "theorem2")],
)
def test_validity_suite_reports_a_violated_bound(monkeypatch, suite, inequality_id):
    real = selftest.tradeoff_reports

    def planted(which, *stacks):
        assert which == inequality_id
        reports = real(which, *stacks)
        reports[2] = dataclasses.replace(reports[2], lhs=reports[2].rhs - 0.5)
        return reports

    monkeypatch.setattr(selftest, "tradeoff_reports", planted)
    result = suite(5, 1)
    assert (result.violations, result.details) == (1, ["instance 2: slack = -5.000e-01"])


@pytest.mark.parametrize(
    "offsets, message",
    [
        # d(q, p) raised: no longer symmetric
        ({1: 0.25}, "instance 1: D_{name} asymmetric by 2.500e-01"),
        # d(p, p) raised off zero
        ({2: 1e-3}, "instance 1: D_{name}(P, P) != 0"),
        # d(p, q) and d(q, p) raised alike: symmetric, but longer than two
        # distances of at most 1 each
        ({0: 2.0, 1: 2.0}, "instance 1: D_{name} triangle inequality violated"),
    ],
    ids=["symmetry", "identity", "triangle"],
)
@pytest.mark.parametrize("name", ["inf", "l1"])
def test_metric_axioms_report_a_broken_axiom(monkeypatch, offsets, message, name):
    # per instance the suite measures d(p, q), d(q, p), d(p, p), d(p, r),
    # d(r, q), in that order
    real = selftest.observable_distances

    def planted(metric, a, b):
        values, positions, matrices = real(metric, a, b)
        if metric == name:
            values = values.copy()
            for k, delta in offsets.items():
                values[5 + k] += delta
        return values, positions, matrices

    monkeypatch.setattr(selftest, "observable_distances", planted)
    result = selftest.suite_metric_axioms(3, 2)
    assert (result.violations, result.details) == (1, [message.format(name=name)])


def _plant_uncertainty(monkeypatch, metric, value):
    real = selftest.intrinsic_uncertainties

    def planted(which, stack):
        found = real(which, stack)
        if which == metric:
            found = found.copy()
            found[2] = value
        return found

    monkeypatch.setattr(selftest, "intrinsic_uncertainties", planted)


def _plant_validation(monkeypatch, instance):
    real = selftest.validate_povms

    def planted(stack):
        reports = real(stack)
        reports[instance] = [PovmViolation("positivity", stack.labels(instance)[0], 1.0)]
        return reports

    monkeypatch.setattr(selftest, "validate_povms", planted)


def _plant_marginal(monkeypatch, call):
    """Spoil one marginal: per instance the suite checks four, the two steps
    of the composed coarse-graining, the one-step coarse-graining and the
    smearing of the joint POVM, each made for every instance by one
    `marginals` call; `call` counts them instance by instance."""
    real = selftest.marginals
    calls = []
    instance, which = divmod(call, 4)

    def planted(stack, *args):
        out = real(stack, *args)
        calls.append(out)
        if len(calls) == which + 1:
            d, first = int(out.dims[instance]), out.starts[instance]
            shifted = out.blocks[d].copy()
            shifted[first] += 1e-6 * np.eye(d)
            out = out.with_blocks({**out.blocks, d: shifted})
        return out

    monkeypatch.setattr(selftest, "marginals", planted)


@pytest.mark.parametrize(
    "plant, message",
    [
        (lambda mp: _plant_validation(mp, 2), "instance 2: random POVM fails validation"),
        (lambda mp: _plant_uncertainty(mp, "inf", -0.01), "instance 2: V = -0.01 outside [0, 1/4]"),
        (lambda mp: _plant_uncertainty(mp, "l1", 0.3), "instance 2: V1 = 0.3 outside [V, 1/4]"),
        (lambda mp: _plant_marginal(mp, 4 * 2 + 2), "instance 2: functoriality broken"),
        (
            lambda mp: _plant_marginal(mp, 4 * 2 + 3),
            "instance 2: error operators do not sum to zero",
        ),
    ],
    ids=["validation", "V", "V1", "functoriality", "error-operators"],
)
def test_povm_invariants_report_a_broken_invariant(monkeypatch, plant, message):
    plant(monkeypatch)
    result = selftest.suite_povm_invariants(4, 5)
    assert (result.violations, result.details) == (1, [message])


def test_run_selftest_prints_each_violation(monkeypatch, capsys):
    # every POVM fails validation: all 12 instances are counted, and the
    # first 10 are printed under their suite
    monkeypatch.setattr(
        selftest,
        "validate_povms",
        lambda stack: [
            [PovmViolation("positivity", stack.labels(i)[0], 1.0)] for i in range(len(stack.counts))
        ],
    )
    assert selftest.run_selftest(12, 3) == 12
    lines = capsys.readouterr().out.splitlines()
    assert lines[-11:] == [
        "POVM and smearing invariants: 12 instances, 12 VIOLATIONS",
        *(f"  instance {i}: random POVM fails validation" for i in range(10)),
    ]
    assert all(line.endswith(", ok") for line in lines[:-11])
    assert len(lines) == 15


def _count_constructions(monkeypatch):
    """Count the `Povm` and `OutcomeMap` objects built from here on."""
    built = collections.Counter()
    for cls in (Povm, OutcomeMap):

        def counted(self, _real=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


@pytest.mark.parametrize(
    "suite, trials",
    [
        (selftest.suite_theorem1, 40),
        (selftest.suite_theorem2, 20),
        (selftest.suite_metric_axioms, 20),
        (selftest.suite_povm_invariants, 40),
    ],
)
def test_stacked_suites_build_no_objects_at_zero_violations(monkeypatch, suite, trials):
    built = _count_constructions(monkeypatch)
    assert suite(trials, 4).violations == 0
    assert built == {}


def test_a_planted_violation_still_prints_its_message(monkeypatch, capsys):
    _plant_marginal(monkeypatch, 4 * 2 + 2)
    assert selftest.run_selftest(4, 2) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "POVM and smearing invariants: 4 instances, 1 VIOLATIONS",
        "  instance 2: functoriality broken",
    ]
