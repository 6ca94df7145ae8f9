"""Randomized property suites.

The tradeoff bounds are proven statements, so universal validity over random
instances is the primary end-to-end correctness oracle for the whole stack:
any violated instance is an implementation bug. The same suites back the
`selftest` CLI subcommand and the acceptance tests.

Each suite draws all its instances first, and the Theorem 1 and 2,
metric-axiom and invariant suites then evaluate every instance's maxima
through the sequence forms `tradeoff_reports`, `observable_distances` and
`intrinsic_uncertainties`, so a few large eigenvalue calls serve the whole
suite; each value is the one its instance gives alone. The duality suite
calls `D_inf` and `D_l1` once an instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import tradeoff_reports
from .distances import D_inf, D_l1, dist_inf, dist_l1, observable_distances
from .povm import (
    Povm,
    intrinsic_uncertainties,
    outcome_probabilities,
    random_povm,
    random_povms,
    random_states,
    validate_povm,
)
from .smearing import OutcomeMap, marginalize


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


def _outcome_map(source: tuple[str, ...], target: tuple[str, ...], choice) -> OutcomeMap:
    """The map sending source[k] to target[choice[k]]. The suites draw the
    choice uniformly, as `rng.integers(0, len(target), size=len(source))`,
    so the map is total but not necessarily surjective."""
    return OutcomeMap(source, target, {s: target[int(k)] for s, k in zip(source, choice)})


def _draw_povms(draws: list[tuple[int, int, int]]) -> list[Povm]:
    """random_povm(dim, n, seed) for each (dim, n, seed) of `draws`, in
    order, drawn as one `random_povms` stack per (dim, n)."""
    slots: dict[tuple[int, int], list[int]] = {}
    for k, (dim, n, _) in enumerate(draws):
        slots.setdefault((dim, n), []).append(k)
    povms: list[Povm] = [None] * len(draws)
    for (dim, n), ks in slots.items():
        for k, p in zip(ks, random_povms(dim, n, [draws[k][2] for k in ks])):
            povms[k] = p
    return povms


def random_instances(
    rng,
    count: int,
    max_dim: int = 4,
    max_outcomes: int = 4,
    max_joint_outcomes: int = 8,
) -> list[tuple[Povm, Povm, Povm, OutcomeMap, OutcomeMap]]:
    """`count` random (A, B, F, f_A, f_B) tuples, each on a shared Hilbert
    space.

    `rng` gives each instance in turn its dimension, outcome counts, the
    sub-seeds of A, B and F, and the choices of its two outcome maps; then
    every POVM is drawn from its own sub-seed, one stack per shape. No POVM
    draw reads `rng`, so each instance is the one it would be if it were
    drawn whole before the next.
    """
    draws, choices = [], []
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        n_a = int(rng.integers(2, max_outcomes + 1))
        n_b = int(rng.integers(2, max_outcomes + 1))
        n_f = int(rng.integers(2, max_joint_outcomes + 1))
        draws += [(dim, n, _sub_seed(rng)) for n in (n_a, n_b, n_f)]
        choices.append((rng.integers(0, n_a, size=n_f), rng.integers(0, n_b, size=n_f)))
    povms = _draw_povms(draws)
    instances = []
    for k, (to_a, to_b) in enumerate(choices):
        a, b, f = povms[3 * k : 3 * k + 3]
        f_a = _outcome_map(f.outcomes, a.outcomes, to_a)
        f_b = _outcome_map(f.outcomes, b.outcomes, to_b)
        instances.append((a, b, f, f_a, f_b))
    return instances


def _validity_suite(
    name: str, inequality_id: str, trials: int, seed: int, **sizes
) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult(name, trials)
    reports = tradeoff_reports(inequality_id, random_instances(rng, trials, **sizes))
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

    The generator gives each instance its dimension, outcome count and three
    sub-seeds; then every POVM is drawn, one stack per shape."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("observable distance metric axioms", trials)
    draws = []
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        draws += [(dim, n, _sub_seed(rng)) for _ in range(3)]
    povms = _draw_povms(draws)
    # per instance (p, q, r): d(p, q), d(q, p), d(p, p), d(p, r), d(r, q)
    pairs = []
    for i in range(trials):
        p, q, r = povms[3 * i : 3 * i + 3]
        pairs += [(p, q), (q, p), (p, p), (p, r), (r, q)]
    values = {
        name: [dv.value for dv in observable_distances(metric, pairs)]
        for name, metric in (("D_inf", "inf"), ("D_l1", "l1"))
    }
    for i in range(trials):
        for name, found in values.items():
            dpq, dqp, dpp, dpr, drq = found[5 * i : 5 * i + 5]
            if abs(dpq - dqp) > 0:
                result.record(f"instance {i}: {name} asymmetric by {abs(dpq - dqp):.3e}")
            if dpp != 0.0:
                result.record(f"instance {i}: {name}(P, P) != 0")
            if dpq > dpr + drq + 1e-9:
                result.record(f"instance {i}: {name} triangle inequality violated")
    return result


def suite_duality(trials: int, seed: int) -> SuiteResult:
    """The closed forms dominate every sampled state and are attained by the
    constructed witness state.

    Each instance and metric checks one stack of states: the witness in row
    0, then 100 sampled states drawn as one stack. An instance that fails
    still draws every state, so each instance sees the same stream whether
    or not an earlier one failed.
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

    The generator gives each instance, in turn, its POVM's dimension, outcome
    count and sub-seed, the sizes and choices of two composable coarse-
    grainings, and a joint POVM's outcome count and sub-seed with the choice
    of its smearing; then every POVM is drawn, one stack per shape."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("POVM and smearing invariants", trials)
    draws, plans = [], []
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        draws.append((dim, n, _sub_seed(rng)))
        n_mid = int(rng.integers(1, n + 1))
        n_final = int(rng.integers(1, n_mid + 1))
        to_mid = rng.integers(0, n_mid, size=n)
        to_final = rng.integers(0, n_final, size=n_mid)
        n_joint = int(rng.integers(2, 7))
        draws.append((dim, n_joint, _sub_seed(rng)))
        plans.append((n_mid, n_final, to_mid, to_final, rng.integers(0, n, size=n_joint)))
    povms = _draw_povms(draws)
    v_inf = intrinsic_uncertainties("inf", povms[::2])
    v_l1 = intrinsic_uncertainties("l1", povms[::2])
    for i, (n_mid, n_final, to_mid, to_final, to_p) in enumerate(plans):
        p, f_joint = povms[2 * i : 2 * i + 2]
        if validate_povm(p):
            result.record(f"instance {i}: random POVM fails validation")
        v, v1 = v_inf[i], v_l1[i]
        if not -1e-12 <= v <= 0.25 + 1e-12:
            result.record(f"instance {i}: V = {v:.12g} outside [0, 1/4]")
        if v1 < v - 1e-12 or v1 > 0.25 + 1e-12:
            result.record(f"instance {i}: V1 = {v1:.12g} outside [V, 1/4]")

        # functoriality: composing coarse-grainings equals coarse-graining by
        # the composition (up to float regrouping of the same sums)
        mid = tuple(f"m{k}" for k in range(n_mid))
        final = tuple(f"z{k}" for k in range(n_final))
        f1 = _outcome_map(p.outcomes, mid, to_mid)
        f2 = _outcome_map(mid, final, to_final)
        two_step = marginalize(marginalize(p, f1), f2)
        one_step = marginalize(p, f1.compose(f2))
        if np.abs(two_step.elements - one_step.elements).max() > 1e-13:
            result.record(f"instance {i}: functoriality broken")

        # error operators f(F)_a - A_a over a random smearing sum to zero
        f_map = _outcome_map(f_joint.outcomes, p.outcomes, to_p)
        eps = marginalize(f_joint, f_map).elements - p.elements
        if np.abs(eps.sum(axis=0)).max() > 1e-10:
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
