"""Randomized property suites.

The tradeoff bounds are proven statements, so universal validity over random
instances is the primary end-to-end correctness oracle for the whole stack:
any violated instance is an implementation bug. The same suites back the
`selftest` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import check_theorem1, check_theorem2
from .distances import D_inf, D_l1, dist_inf, dist_l1
from .povm import (
    Povm,
    intrinsic_uncertainty_inf,
    intrinsic_uncertainty_l1,
    outcome_distribution,
    outcome_probabilities,
    random_povm,
    random_states,
    validate_povm,
)
from .smearing import OutcomeMap, error_operators, marginalize


@dataclass
class SuiteResult:
    name: str
    instances: int
    violations: int = 0
    details: list[str] = field(default_factory=list)

    def record(self, message: str) -> None:
        self.violations += 1
        if len(self.details) < 10:
            self.details.append(message)

    def __str__(self) -> str:
        status = "ok" if self.violations == 0 else f"{self.violations} VIOLATIONS"
        return f"{self.name}: {self.instances} instances, {status}"


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def random_outcome_map(rng, source: tuple[str, ...], target: tuple[str, ...]) -> OutcomeMap:
    """Uniformly random total map between outcome sets (not necessarily
    surjective)."""
    choice = rng.integers(0, len(target), size=len(source))
    return OutcomeMap(source, target, {s: target[int(k)] for s, k in zip(source, choice)})


def random_instance(
    rng,
    max_dim: int = 4,
    max_outcomes: int = 4,
    max_joint_outcomes: int = 8,
) -> tuple[Povm, Povm, Povm, OutcomeMap, OutcomeMap]:
    """A random (A, B, F, f_A, f_B) tuple on a shared Hilbert space."""
    dim = int(rng.integers(2, max_dim + 1))
    n_a = int(rng.integers(2, max_outcomes + 1))
    n_b = int(rng.integers(2, max_outcomes + 1))
    n_f = int(rng.integers(2, max_joint_outcomes + 1))
    a = random_povm(dim, n_a, _sub_seed(rng))
    b = random_povm(dim, n_b, _sub_seed(rng))
    f = random_povm(dim, n_f, _sub_seed(rng))
    # distinct labels for the joint observable
    f = Povm(tuple(f"f{k}" for k in range(f.n_outcomes)), f.elements)
    f_a = random_outcome_map(rng, f.outcomes, a.outcomes)
    f_b = random_outcome_map(rng, f.outcomes, b.outcomes)
    return a, b, f, f_a, f_b


def _validity_suite(name: str, check, trials: int, seed: int, **sizes) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult(name, trials)
    for i in range(trials):
        report = check(*random_instance(rng, **sizes))
        if not report.satisfied:
            result.record(f"instance {i}: slack = {report.slack:.3e}")
    return result


def suite_theorem1(trials: int, seed: int) -> SuiteResult:
    """Universal validity of the main uniform-distance bound."""
    return _validity_suite("theorem1 universal validity", check_theorem1, trials, seed)


def suite_theorem2(trials: int, seed: int) -> SuiteResult:
    """Universal validity of the total-variation bound (smaller sizes; the
    subset enumerations grow exponentially)."""
    return _validity_suite(
        "theorem2 universal validity", check_theorem2, trials, seed,
        max_dim=3, max_outcomes=3, max_joint_outcomes=6,
    )


def suite_metric_axioms(trials: int, seed: int) -> SuiteResult:
    """Symmetry, identity, and triangle inequality for both observable
    distances on random triples with a shared outcome set."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("observable distance metric axioms", trials)
    for i in range(trials):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        p, q, r = (random_povm(dim, n, _sub_seed(rng)) for _ in range(3))
        for name, dist in (("D_inf", D_inf), ("D_l1", D_l1)):
            dpq = dist(p, q).value
            dqp = dist(q, p).value
            if abs(dpq - dqp) > 0:
                result.record(f"instance {i}: {name} asymmetric by {abs(dpq - dqp):.3e}")
            if dist(p, p).value != 0.0:
                result.record(f"instance {i}: {name}(P, P) != 0")
            if dpq > dist(p, r).value + dist(r, q).value + 1e-9:
                result.record(f"instance {i}: {name} triangle inequality violated")
    return result


def suite_duality(trials: int, seed: int) -> SuiteResult:
    """The closed forms dominate every sampled state and are attained by the
    constructed witness state.

    Each instance and metric draws its 100 states as one stack, the generator
    stream of one `random_state` call per state, and checks them all. An
    instance that fails still draws every state, so each instance sees the
    same stream whether or not an earlier one failed.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("distance duality (witness attains, states never exceed)", trials)
    for i in range(trials):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        p = random_povm(dim, n, _sub_seed(rng))
        q = random_povm(dim, n, _sub_seed(rng))
        for name, dist_obs, dist_vec in (
            ("inf", D_inf, dist_inf),
            ("l1", D_l1, dist_l1),
        ):
            dv = dist_obs(p, q)
            at_witness = dist_vec(
                outcome_distribution(p, dv.witness_state).probs,
                outcome_distribution(q, dv.witness_state).probs,
            )
            if abs(at_witness - dv.value) > 1e-8:
                result.record(
                    f"instance {i}: {name} witness reproduces {at_witness:.12g} != {dv.value:.12g}"
                )
            rhos = random_states(dim, 100, rng)
            d = dist_vec(outcome_probabilities(p, rhos), outcome_probabilities(q, rhos))
            if (d > dv.value + 1e-9).any():
                result.record(f"instance {i}: {name} exceeded at a random state")
    return result


def suite_povm_invariants(trials: int, seed: int) -> SuiteResult:
    """Generator validity, intrinsic uncertainty range, marginalization
    functoriality, and vanishing error-operator sums."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("POVM and smearing invariants", trials)
    for i in range(trials):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        p = random_povm(dim, n, _sub_seed(rng))
        if validate_povm(p):
            result.record(f"instance {i}: random POVM fails validation")
        v = intrinsic_uncertainty_inf(p)
        if not -1e-12 <= v <= 0.25 + 1e-12:
            result.record(f"instance {i}: V = {v:.12g} outside [0, 1/4]")
        v1 = intrinsic_uncertainty_l1(p)
        if v1 < v - 1e-12 or v1 > 0.25 + 1e-12:
            result.record(f"instance {i}: V1 = {v1:.12g} outside [V, 1/4]")

        # functoriality: composing coarse-grainings equals coarse-graining by
        # the composition (up to float regrouping of the same sums)
        mid = tuple(f"m{k}" for k in range(int(rng.integers(1, n + 1))))
        final = tuple(f"z{k}" for k in range(int(rng.integers(1, len(mid) + 1))))
        f1 = random_outcome_map(rng, p.outcomes, mid)
        f2 = random_outcome_map(rng, mid, final)
        two_step = marginalize(marginalize(p, f1), f2)
        one_step = marginalize(p, f1.compose(f2))
        if np.abs(two_step.elements - one_step.elements).max() > 1e-13:
            result.record(f"instance {i}: functoriality broken")

        # error operators over a random smearing sum to zero
        f_joint = random_povm(dim, int(rng.integers(2, 7)), _sub_seed(rng))
        f_map = random_outcome_map(rng, f_joint.outcomes, p.outcomes)
        eps = error_operators(p, f_joint, f_map)
        if np.abs(eps.operators.sum(axis=0)).max() > 1e-10:
            result.record(f"instance {i}: error operators do not sum to zero")
    return result


def run_selftest(trials: int = 200, seed: int = 0) -> int:
    """Run every suite and print each result; returns the total violation
    count (0 means pass)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    suites = [
        suite_theorem1(trials, seed),
        suite_theorem2(max(trials // 2, 1), seed + 1),
        suite_metric_axioms(max(trials // 2, 1), seed + 2),
        suite_duality(max(trials // 10, 1), seed + 3),
        suite_povm_invariants(trials, seed + 4),
    ]
    total = 0
    for s in suites:
        print(s)
        for d in s.details:
            print(f"  {d}")
        total += s.violations
    return total
