"""Randomized property suites.

The tradeoff bounds are proven statements, so universal validity over random
instances is the primary end-to-end correctness oracle for the whole stack:
any violated instance is an implementation bug. The same suites back the
`selftest` CLI subcommand and the acceptance tests.

Each suite draws all its instances first, from its own generator: their
sizes and outcome-map choices, then every POVM with one `random_ragged`
call, so a pass builds one generator a suite and none a POVM. The
Theorem 1 and 2, metric-axiom and invariant suites keep them as
`povm.Ragged` stacks from the draw to the verdict: they evaluate every
instance through the stacked forms `tradeoff_reports`,
`observable_distances`, `intrinsic_uncertainties`, `validate_povms` and
`marginals`, a few numpy calls per dimension, and build a `Povm` or
`OutcomeMap` for no instance; each value is the one its instance gives
alone. The duality suite calls `D_inf` and `D_l1` once an instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import tradeoff_reports
from .distances import D_inf, D_l1, dist_inf, dist_l1, observable_distances
from .povm import (
    Ragged,
    intrinsic_uncertainties,
    outcome_probabilities,
    random_ragged,
    random_states,
    validate_povms,
)
from .smearing import marginals


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


def random_instances(
    rng,
    count: int,
    max_dim: int = 4,
    max_outcomes: int = 4,
    max_joint_outcomes: int = 8,
) -> tuple[Ragged, Ragged, Ragged, np.ndarray, np.ndarray]:
    """`count` random instances (A, B, F, f_A, f_B), each on a shared
    Hilbert space, for `tradeoff_reports`: the stacks of the A, B and F
    and the target choices of f_A and f_B, one per outcome of F, instance
    by instance.

    `rng` draws the sizes (dimension, n_A, n_B, n_F) of every instance,
    then the choices of every f_A and of every f_B, uniformly as
    `rng.integers(0, n_A)` for each outcome of F, so a map is total but not
    necessarily surjective, and then all the A, all the B and all the F
    with one `random_ragged` call.
    """
    highs = np.add([max_dim, max_outcomes, max_outcomes, max_joint_outcomes], 1)
    dims, n_a, n_b, n_f = rng.integers(2, highs, size=(count, 4)).T
    f_a = rng.integers(0, np.repeat(n_a, n_f))
    f_b = rng.integers(0, np.repeat(n_b, n_f))
    drawn = random_ragged(np.tile(dims, 3), np.concatenate([n_a, n_b, n_f]), rng)
    a, b, f = (drawn.take(range(r * count, (r + 1) * count)) for r in range(3))
    return a, b, f, f_a, f_b


def _validity_suite(
    name: str, inequality_id: str, trials: int, seed: int, **sizes
) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult(name, trials)
    reports = tradeoff_reports(inequality_id, *random_instances(rng, trials, **sizes))
    for i, report in enumerate(reports):
        if not report.satisfied:
            result.record(f"instance {i}: slack = {report.slack:.3e}")
    return result


def suite_theorem1(trials: int, seed: int) -> SuiteResult:
    """Universal validity of the main uniform-distance bound."""
    return _validity_suite("theorem1 universal validity", "theorem1", trials, seed)


def suite_theorem2(trials: int, seed: int) -> SuiteResult:
    """Universal validity of the total-variation bound (smaller sizes; the
    subset enumerations grow exponentially)."""
    return _validity_suite(
        "theorem2 universal validity", "theorem2", trials, seed,
        max_dim=3, max_outcomes=3, max_joint_outcomes=6,
    )


def suite_metric_axioms(trials: int, seed: int) -> SuiteResult:
    """Symmetry, identity, and triangle inequality for both observable
    distances on random triples with a shared outcome set.

    The generator draws every instance's dimension, then every outcome
    count, and then p, q and r of each instance in turn."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("observable distance metric axioms", trials)
    dims, counts = rng.integers(2, 5, size=(2, trials))
    povms = random_ragged(np.repeat(dims, 3), np.repeat(counts, 3), rng)
    # per instance (p, q, r), items 3i to 3i + 2: d(p, q), d(q, p), d(p, p),
    # d(p, r), d(r, q)
    first = 3 * np.arange(trials)[:, None]
    a = povms.take((first + [0, 1, 0, 0, 2]).ravel())
    b = povms.take((first + [1, 0, 0, 2, 1]).ravel())
    checks = {}
    for name, metric in (("D_inf", "inf"), ("D_l1", "l1")):
        dpq, dqp, dpp, dpr, drq = observable_distances(metric, a, b)[0].reshape(-1, 5).T
        checks[name] = (np.abs(dpq - dqp), dpp != 0.0, dpq > dpr + drq + 1e-9)
    broken = np.zeros(trials, dtype=bool)
    for asymmetry, nonzero, longer in checks.values():
        broken |= (asymmetry > 0) | nonzero | longer
    for i in np.flatnonzero(broken).tolist():
        for name, (asymmetry, nonzero, longer) in checks.items():
            if asymmetry[i] > 0:
                result.record(f"instance {i}: {name} asymmetric by {asymmetry[i]:.3e}")
            if nonzero[i]:
                result.record(f"instance {i}: {name}(P, P) != 0")
            if longer[i]:
                result.record(f"instance {i}: {name} triangle inequality violated")
    return result


def suite_duality(trials: int, seed: int) -> SuiteResult:
    """The closed forms dominate every sampled state and are attained by the
    constructed witness state.

    The generator draws every instance's dimension, then every outcome
    count, then p and q of each instance in turn, and then the states.
    Each instance and metric checks one stack of states: the witness in
    row 0, then 100 sampled states drawn as one stack. An instance that
    fails still draws every state, so each instance sees the same stream
    whether or not an earlier one failed.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("distance duality (witness attains, states never exceed)", trials)
    dims, counts = rng.integers(2, 5, size=(2, trials))
    povms = random_ragged(np.repeat(dims, 2), np.repeat(counts, 2), rng)
    for i, dim in enumerate(dims.tolist()):
        p, q = povms.povm(2 * i), povms.povm(2 * i + 1)
        for name, dist_obs, dist_vec in (
            ("inf", D_inf, dist_inf),
            ("l1", D_l1, dist_l1),
        ):
            dv = dist_obs(p, q)
            rhos = np.concatenate([dv.witness_state[None], random_states(dim, 100, rng)])
            d = dist_vec(outcome_probabilities(p, rhos), outcome_probabilities(q, rhos))
            if abs(d[0] - dv.value) > 1e-8:
                result.record(
                    f"instance {i}: {name} witness reproduces {d[0]:.12g} != {dv.value:.12g}"
                )
            if (d[1:] > dv.value + 1e-9).any():
                result.record(f"instance {i}: {name} exceeded at a random state")
    return result


def suite_povm_invariants(trials: int, seed: int) -> SuiteResult:
    """Generator validity, intrinsic uncertainty range, marginalization
    functoriality, and vanishing error-operator sums.

    The generator draws, for every instance at once, a POVM's dimension
    and outcome count n with a joint POVM's outcome count, then the sizes
    of two composable coarse-grainings and their choices, then the choice
    of the joint POVM's smearing, and then all the POVMs and all the joint
    POVMs. The coarse-grainings are four `marginals` calls: the two steps
    of the composed one, the one step of their composition, and the
    smearing."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("POVM and smearing invariants", trials)
    dims, n, n_joint = rng.integers(2, [5, 5, 7], size=(trials, 3)).T
    n_mid = rng.integers(1, n + 1)
    n_final = rng.integers(1, n_mid + 1)
    to_mid = rng.integers(0, np.repeat(n_mid, n))
    to_final = rng.integers(0, np.repeat(n_final, n_mid))
    to_p = rng.integers(0, np.repeat(n, n_joint))
    drawn = random_ragged(np.tile(dims, 2), np.concatenate([n, n_joint]), rng)
    p, joint = drawn.take(range(trials)), drawn.take(range(trials, 2 * trials))

    invalid = [bool(report) for report in validate_povms(p)]
    v, v1 = intrinsic_uncertainties("inf", p), intrinsic_uncertainties("l1", p)

    # functoriality: composing coarse-grainings equals coarse-graining by
    # the composition (up to float regrouping of the same sums)
    mid = marginals(p, to_mid, n_mid, "m")
    two_step = marginals(mid, to_final, n_final, "z")
    composed = to_final[np.repeat(np.cumsum(n_mid) - n_mid, n) + to_mid]
    one_step = marginals(p, composed, n_final, "z")
    # error operators f(F)_a - A_a over a random smearing sum to zero
    smeared = marginals(joint, to_p, n)
    broken, unbalanced = np.zeros(trials, dtype=bool), np.zeros(trials, dtype=bool)
    for d, items in p.items.items():
        gaps = np.abs(two_step.blocks[d] - one_step.blocks[d]).max(axis=(-2, -1))
        broken[items] = np.maximum.reduceat(gaps, one_step.starts[items]) > 1e-13
        eps = np.add.reduceat(smeared.blocks[d] - p.blocks[d], p.starts[items], axis=0)
        unbalanced[items] = np.abs(eps).max(axis=(-2, -1)) > 1e-10

    for i in range(trials):
        if invalid[i]:
            result.record(f"instance {i}: random POVM fails validation")
        if not -1e-12 <= v[i] <= 0.25 + 1e-12:
            result.record(f"instance {i}: V = {v[i]:.12g} outside [0, 1/4]")
        if v1[i] < v[i] - 1e-12 or v1[i] > 0.25 + 1e-12:
            result.record(f"instance {i}: V1 = {v1[i]:.12g} outside [V, 1/4]")
        if broken[i]:
            result.record(f"instance {i}: functoriality broken")
        if unbalanced[i]:
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
