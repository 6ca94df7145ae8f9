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

`observable_distances` measures every pair of items of two `povm.Ragged`
stacks with one `subsets.max_norms` call, which returns the values,
witness positions and witness matrices in item order; `D_inf` and `D_l1`
are its case of one pair. Its walks are those of `povm.metric_walks`:
`Segments` for "inf" and for "l1" up to CHUNK_BITS + 1 outcomes, and one
Gray walk of several stacks per pair beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .povm import Povm, Ragged, metric_walks, require_comparable
from .subsets import gray_labels, max_norms

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


def difference_walks(metric: str, a: Ragged, b: Ragged) -> list[tuple[np.ndarray, object]]:
    """The `povm.metric_walks` whose maxima are the observable distances of
    `metric` between the items of two stacks: the Hermitian differences
    A_a - B_a ("inf") or their Gray-ordered subset sums ("l1"). The stacks
    must hold items of the same dimensions and outcome counts."""
    if a.dims.tolist() != b.dims.tolist() or a.counts.tolist() != b.counts.tolist():
        raise ValueError("the stacks differ in their items' dimensions or outcome counts")
    diffs = {d: linalg.hermitian_part(e - b.blocks[d]) for d, e in a.blocks.items()}
    return metric_walks(metric, a.with_blocks(diffs), "the total-variation observable distance")


def observable_distances(metric: str, a: Ragged, b: Ragged) -> tuple:
    """The observable distance of `metric`, "inf" (`D_inf`) or "l1"
    (`D_l1`), between item i of `a` and item i of `b`, for every i, all
    reduced by one `subsets.max_norms` call: the values, the witness
    positions (an outcome, or a `subsets.gray_walk` position) and the
    witness matrices, in item order, each the one the pair gives alone.
    `distance_value` reads one item as a `DistanceValue`."""
    return max_norms([difference_walks(metric, a, b)], len(a.counts))[0]


def distance_value(metric: str, found: tuple, i: int, outcomes: tuple[str, ...]) -> DistanceValue:
    """Item i of an `observable_distances` result, its witness named by the
    outcome labels of its first POVM."""
    values, positions, matrices = found
    pos = int(positions[i])
    return DistanceValue(
        value=float(values[i]),
        witness=gray_labels(pos, outcomes) if metric == "l1" else outcomes[pos],
        witness_matrix=linalg.read_only(matrices[i]),
    )


def _distance(metric: str, a: Povm, b: Povm) -> DistanceValue:
    require_comparable(a, b)
    found = observable_distances(metric, a.stack, b.stack)
    return distance_value(metric, found, 0, a.outcomes)


def D_inf(a: Povm, b: Povm) -> DistanceValue:
    """Worst-case uniform distance between the outcome distributions of two
    POVMs: max_a ||A_a - B_a||, with the maximizing outcome and a pure state
    attaining the value."""
    return _distance("inf", a, b)


def D_l1(a: Povm, b: Povm) -> DistanceValue:
    """Worst-case total-variation distance between the outcome distributions
    of two POVMs: max over outcome subsets D of ||sum_{a in D}(A_a - B_a)||.

    A subset and its complement give the same norm (the differences sum to
    zero), so only the subsets without the last outcome are evaluated, one
    stack of Gray-ordered subset sums at a time through `subsets.max_norms`;
    ties break to the first maximum in Gray-code order.
    """
    return _distance("l1", a, b)
