"""Distances between outcome distributions and between observables.

Two distribution distances are supported: the uniform distance
max_x |p(x) - q(x)| and the total-variation distance (1/2) sum |p - q|.
Each induces a distance between two POVMs on the same outcome set as the
worst case over all states, and both have exact operator-norm forms:

    uniform:          max_a  || A_a - B_a ||
    total variation:  max_D  || sum_{a in D} (A_a - B_a) ||   over subsets D

The maximizing state can be taken pure (the worst case of a linear
functional is attained at an extreme point), which gives a constructive
witness: the extremal eigenvector of the maximizing Hermitian difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .povm import Povm, State, require_comparable
from .subsets import gray_walk, mask_to_labels

DISTRIBUTION_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DistanceValue:
    """An observable distance together with where it is attained.

    `witness` is the maximizing outcome label (uniform distance) or tuple of
    labels (total-variation distance). Evaluating the underlying distribution
    distance in `witness_state` reproduces `value`.
    """

    value: float
    witness: str | tuple[str, ...]
    witness_state: State | None = None


def _check_prob_vectors(p, q) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(p, dtype=float).reshape(-1)
    b = np.asarray(q, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    for name, v in (("first", a), ("second", b)):
        # checked as Python floats: on vectors this short that is cheaper
        # than numpy reductions, and the selftest makes thousands of calls
        entries = v.tolist()
        if not all(map(math.isfinite, entries)):
            raise ValueError(f"{name} argument has non-finite entries")
        total = sum(entries)
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise ValueError(f"{name} argument is not normalized: sum = {total!r}")
        if min(entries) < -DISTRIBUTION_SUM_TOL:
            raise ValueError(f"{name} argument has a negative entry: {min(entries)!r}")
    return a, b


def dist_inf(p, q) -> float:
    """Uniform distance max_x |p(x) - q(x)|."""
    a, b = _check_prob_vectors(p, q)
    return float(np.abs(a - b).max())


def dist_l1(p, q) -> float:
    """Total-variation distance (1/2) sum_x |p(x) - q(x)|."""
    a, b = _check_prob_vectors(p, q)
    return float(np.abs(a - b).sum() / 2)


def _extremal_pure_state(h: np.ndarray) -> State:
    """Pure state built from the eigenvector of largest |eigenvalue| of a
    Hermitian matrix (first such index for determinism)."""
    w, u = np.linalg.eigh(linalg.hermitian_part(h))
    k = int(np.argmax(np.abs(w)))
    return State.pure(u[:, k])


def D_inf(a: Povm, b: Povm) -> DistanceValue:
    """Worst-case uniform distance between the outcome distributions of two
    POVMs: max_a ||A_a - B_a||, with the maximizing outcome and a pure state
    attaining the value."""
    require_comparable(a, b)
    diffs = linalg.hermitian_part(a.elements - b.elements)
    norms = linalg.herm_norm_stack(diffs)
    k = int(np.argmax(norms))
    return DistanceValue(
        value=float(norms[k]),
        witness=a.outcomes[k],
        witness_state=_extremal_pure_state(diffs[k]),
    )


def D_l1(a: Povm, b: Povm) -> DistanceValue:
    """Worst-case total-variation distance between the outcome distributions
    of two POVMs: max over outcome subsets D of ||sum_{a in D}(A_a - B_a)||.

    A subset and its complement give the same norm (the differences sum to
    zero), so only the subsets without the last outcome are evaluated, one
    stack of Gray-ordered subset sums per norm call; ties break to the first
    maximum in Gray-code order.
    """
    require_comparable(a, b)
    diffs = linalg.hermitian_part(a.elements - b.elements)
    best = -1.0
    best_pos = 0
    best_matrix = None
    pos = 0
    for sums in gray_walk(diffs, "the total-variation observable distance"):
        norms = linalg.herm_norm_stack(sums)
        k = int(np.argmax(norms))
        if norms[k] > best:
            best = float(norms[k])
            best_pos = pos + k
            best_matrix = sums[k]
        pos += len(sums)
    return DistanceValue(
        value=best,
        witness=mask_to_labels(best_pos ^ (best_pos >> 1), a.outcomes),
        witness_state=_extremal_pure_state(best_matrix),
    )
