"""Distances between outcome distributions and between observables.

Two distribution distances are supported: the uniform distance
max_x |p(x) - q(x)| and the total-variation distance (1/2) sum |p - q|.
Each induces a distance between two POVMs on the same outcome set as the
worst case over all states, and both have exact operator-norm forms:

    uniform:          max_a  || A_a - B_a ||
    total variation:  max_D  || sum_{a in D} (A_a - B_a) ||   over subsets D

The maximizing state can be taken pure (the worst case of a linear
functional is attained at an extreme point), which gives a constructive
witness: the density matrix on the extremal eigenvector of the maximizing
Hermitian difference.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .povm import Povm, require_comparable
from .subsets import gray_labels, max_norms, metric_walk

DISTRIBUTION_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DistanceValue:
    """An observable distance together with where it is attained.

    `witness` is the maximizing outcome label (uniform distance) or tuple of
    labels (total-variation distance), and `witness_matrix` the Hermitian
    difference whose norm is `value`. `witness_state` is the read-only
    density matrix (d, d) of the pure state on its extremal eigenvector,
    computed on first read; evaluating the underlying distribution distance
    in it reproduces `value`.
    """

    value: float
    witness: str | tuple[str, ...]
    witness_matrix: np.ndarray

    @cached_property
    def witness_state(self) -> np.ndarray:
        return _extremal_pure_state(self.witness_matrix)


def _check_prob_vectors(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Two probability vectors, or two stacks of them along the last axis.
    Every row must be finite, sum to 1 within DISTRIBUTION_SUM_TOL and have
    no entry below -DISTRIBUTION_SUM_TOL."""
    a = np.atleast_1d(np.asarray(p, dtype=float))
    b = np.atleast_1d(np.asarray(q, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    for name, v in (("first", a), ("second", b)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} argument has non-finite entries")
        total = v.sum(axis=-1)
        off = np.abs(total - 1.0) > DISTRIBUTION_SUM_TOL
        if off.any():
            raise ValueError(f"{name} argument is not normalized: sum = {float(total[off][0])!r}")
        low = float(v.min())
        if low < -DISTRIBUTION_SUM_TOL:
            raise ValueError(f"{name} argument has a negative entry: {low!r}")
    return a, b


def _per_row(d: np.ndarray) -> float | np.ndarray:
    return float(d) if d.ndim == 0 else d


def dist_inf(p, q) -> float | np.ndarray:
    """Uniform distance max_x |p(x) - q(x)|; for two stacks of
    distributions, one distance per row of the last axis."""
    a, b = _check_prob_vectors(p, q)
    return _per_row(np.abs(a - b).max(axis=-1))


def dist_l1(p, q) -> float | np.ndarray:
    """Total-variation distance (1/2) sum_x |p(x) - q(x)|; for two stacks
    of distributions, one distance per row of the last axis."""
    a, b = _check_prob_vectors(p, q)
    return _per_row(np.abs(a - b).sum(axis=-1) / 2)


def _extremal_pure_state(h: np.ndarray) -> np.ndarray:
    """Read-only density matrix of the pure state on the eigenvector of
    largest |eigenvalue| of a Hermitian matrix (first such index for
    determinism)."""
    w, u = np.linalg.eigh(linalg.hermitian_part(h))
    v = u[:, int(np.argmax(np.abs(w)))]
    v = v / np.linalg.norm(v)
    return linalg.read_only(np.outer(v, v.conj()))


def difference_walk(metric: str, a: Povm, b: Povm) -> Iterator[np.ndarray]:
    """The stacks whose largest norm is the observable distance of `metric`
    between two POVMs, for `subsets.max_norms`: the `subsets.metric_walk`
    of the Hermitian differences A_a - B_a (one stack for "inf", their
    Gray-ordered subset sums for "l1"). The POVMs are checked when the walk
    starts."""
    require_comparable(a, b)
    diffs = linalg.hermitian_part(a.elements - b.elements)
    yield from metric_walk(metric, diffs, "the total-variation observable distance")


def observable_distances(metric: str, pairs: Iterable[tuple[Povm, Povm]]) -> list[DistanceValue]:
    """The observable distance of `metric`, "inf" (`D_inf`) or "l1"
    (`D_l1`), of each pair (A, B), all reduced by one `subsets.max_norms`
    call; each value is the one the pair gives alone."""
    pairs = list(pairs)
    found = max_norms(difference_walk(metric, a, b) for a, b in pairs)
    return [
        DistanceValue(
            value=value,
            witness=gray_labels(pos, a.outcomes) if metric == "l1" else a.outcomes[pos],
            witness_matrix=linalg.read_only(matrix),
        )
        for (a, _), (value, pos, matrix) in zip(pairs, found)
    ]


def D_inf(a: Povm, b: Povm) -> DistanceValue:
    """Worst-case uniform distance between the outcome distributions of two
    POVMs: max_a ||A_a - B_a||, with the maximizing outcome and a pure state
    attaining the value."""
    return observable_distances("inf", [(a, b)])[0]


def D_l1(a: Povm, b: Povm) -> DistanceValue:
    """Worst-case total-variation distance between the outcome distributions
    of two POVMs: max over outcome subsets D of ||sum_{a in D}(A_a - B_a)||.

    A subset and its complement give the same norm (the differences sum to
    zero), so only the subsets without the last outcome are evaluated, one
    stack of Gray-ordered subset sums at a time through `subsets.max_norms`;
    ties break to the first maximum in Gray-code order.
    """
    return observable_distances("l1", [(a, b)])[0]
