"""POVMs: validation, outcome statistics, intrinsic uncertainty measures,
and constructors for standard test families. A state is a plain density
matrix (d, d), and a stack of states is an array (k, d, d).

Many POVMs are held as one `Ragged` stack, with no object per POVM. The
stacked forms (`random_ragged`, `validate_povms`,
`intrinsic_uncertainties`, and `smearing.marginals`,
`distances.observable_distances` and `bounds.tradeoff_reports`) work on
it with a few numpy calls per dimension, and each object-level function
is the case of one item (`Povm.stack`). `random_ragged` draws a stack
from the caller's generator, every item with one call, in item order, so
no POVM needs a generator or a seed of its own. `metric_walks` turns a
maximum over each item of a stack into `subsets.max_norms` walks:
`Segments`, and for an "l1" item of more than CHUNK_BITS + 1 outcomes
the `subsets.Halves` of its subset sums, which `uncertainty_walks` marks
as walks of S - S^2; `max_norms` returns the maxima in item order.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .subsets import Halves, Segments, _minus_square, gray_halves, gray_walk, max_norms, one_stack

# Tolerances for POVM validity: entrywise deviation of the element sum from
# the identity, and the eigenvalue floor for positivity. Loose enough to
# accept projection-solver output, tight enough to catch modeling bugs.
COMPLETENESS_TOL = 1e-8
PSD_TOL = 1e-9
# An element counts as Hermitian when ||M - M*||_max <= rtol * max(1, ||M||_max).
# The relative form absorbs roundoff accumulated by repeated cone projections.
HERMITICITY_RTOL = 1e-9

PAULI_X = linalg.read_only(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = linalg.read_only(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = linalg.read_only(np.array([[1, 0], [0, -1]], dtype=complex))


@dataclass(frozen=True, eq=False)
class Povm:
    """A labeled finite family of operators intended to sum to the identity.

    Construction checks only structure (shapes, labels, finiteness); the
    measure-theoretic axioms are checked by `validate_povm`, which reports
    violations as data so that deliberately broken inputs can be inspected.
    """

    outcomes: tuple[str, ...]
    elements: np.ndarray  # (n_outcomes, dim, dim), read-only

    def __post_init__(self):
        outcomes = tuple(str(o) for o in self.outcomes)
        if not outcomes:
            raise ValueError("a POVM needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be distinct")
        elements = np.asarray(self.elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
            raise ValueError(
                f"elements must be a stack of square matrices, got shape {elements.shape}"
            )
        if elements.shape[0] != len(outcomes):
            raise ValueError(
                f"{len(outcomes)} outcomes but {elements.shape[0]} element matrices"
            )
        if elements.shape[1] < 1:
            raise ValueError("matrix dimension must be >= 1")
        if not np.isfinite(elements).all():
            raise ValueError("element entries must be finite")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "elements", linalg.read_only(np.array(elements)))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def index(self, outcome: str) -> int:
        try:
            return self.outcomes.index(outcome)
        except ValueError:
            raise KeyError(f"unknown outcome {outcome!r}") from None

    def __getitem__(self, outcome: str) -> np.ndarray:
        return self.elements[self.index(outcome)]

    @cached_property
    def stack(self) -> Ragged:
        """This POVM as a stack of one item, built on first use: every
        one-item call passes it to its stacked form, so they share one
        `Ragged.hermitian`."""
        dims, counts = np.array([self.dim]), np.array([self.n_outcomes])
        stack = Ragged(dims, counts, {self.dim: self.elements}, (self.outcomes,))
        stack.items, stack.starts = {self.dim: _FIRST}, _FIRST  # its layout, known
        return stack

    @property
    def hermitian(self) -> np.ndarray:
        """The Hermitian parts of the elements (`Ragged.hermitian`), read-only."""
        return self.stack.hermitian.blocks[self.dim]


@dataclass(frozen=True)
class PovmViolation:
    """One violated POVM axiom: which outcome (None for completeness) and by
    how much."""

    kind: str  # "hermiticity" | "positivity" | "completeness"
    outcome: str | None
    magnitude: float

    def __str__(self) -> str:
        where = f"outcome {self.outcome!r}" if self.outcome is not None else "element sum"
        return f"{self.kind} violated at {where} by {self.magnitude:.3e}"


_FIRST = linalg.read_only(np.zeros(1, dtype=int))


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[j], starts[j] + 1, ... (counts[j] indices) for each j, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _groups(*columns: np.ndarray) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Each distinct row of the columns, in order, with the items (rows)
    that have it. A single row is one group, found with no grouping."""
    if len(columns[0]) == 1:
        yield tuple(c.item(0) for c in columns), _FIRST
        return
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(zip(*(c.tolist() for c in columns))):
        groups.setdefault(key, []).append(i)
    for key in sorted(groups):
        yield key, np.array(groups[key])


@dataclass(eq=False)
class Ragged:
    """Many POVMs as arrays, with no object per POVM: a ragged stack.

    Item i acts on dimension dims[i] and has counts[i] outcomes. For each
    dimension d, blocks[d] holds the elements of its items concatenated
    along the outcome axis, in item order, (N_d, d, d). `outcomes` labels
    them: one tuple per item, or a prefix p for the labels p0, p1, ... of
    every item (the drawn POVMs' 'o0', 'o1', ...).
    """

    dims: np.ndarray
    counts: np.ndarray
    blocks: dict[int, np.ndarray]
    outcomes: str | Sequence[tuple[str, ...]] = "o"

    @cached_property
    def items(self) -> dict[int, np.ndarray]:
        """Each dimension's items, in order."""
        return {d: np.flatnonzero(self.dims == d) for d in sorted(set(self.dims.tolist()))}

    @cached_property
    def starts(self) -> np.ndarray:
        """Each item's first row in its dimension's block."""
        starts = np.empty(len(self.counts), dtype=int)
        for items in self.items.values():
            starts[items] = np.cumsum(self.counts[items]) - self.counts[items]
        return starts

    def rows(self, items: np.ndarray) -> np.ndarray:
        """The rows of some items of one dimension in its block, item by item."""
        return _runs(self.starts[items], self.counts[items])

    def positions(self, items: np.ndarray) -> np.ndarray:
        """The places of some items' outcomes among all the outcomes of the
        stack, counted item by item, in the order of `items`."""
        return _runs((np.cumsum(self.counts) - self.counts)[items], self.counts[items])

    def take(self, items) -> Ragged:
        """The stack of the given items, in the given order."""
        items = np.asarray(items, dtype=int)
        dims = self.dims[items]
        blocks = {
            d: self.blocks[d][self.rows(items[dims == d])] for d in sorted(set(dims.tolist()))
        }
        outcomes = self.outcomes
        if not isinstance(outcomes, str):
            outcomes = tuple(outcomes[i] for i in items.tolist())
        return Ragged(dims, self.counts[items], blocks, outcomes)

    @cached_property
    def hermitian(self) -> Ragged:
        """The same items with each matrix's Hermitian part (M + M*)/2,
        read-only, computed once a stack: what the PSD check, the intrinsic
        uncertainties and the commutator norms read."""
        return self.with_blocks(
            {d: linalg.read_only(linalg.hermitian_part(b)) for d, b in self.blocks.items()}
        )

    def with_blocks(self, blocks: dict[int, np.ndarray]) -> Ragged:
        """The same items, labels and layout with other matrices."""
        stack = Ragged(self.dims, self.counts, blocks, self.outcomes)
        known = vars(self)  # cached: the layout is the same
        vars(stack).update((k, known[k]) for k in ("items", "starts") if k in known)
        return stack

    def labels(self, i: int) -> tuple[str, ...]:
        if isinstance(self.outcomes, str):
            return tuple(f"{self.outcomes}{k}" for k in range(self.counts[i]))
        return self.outcomes[i]

    def povm(self, i: int) -> Povm:
        """Item i as a `Povm`."""
        start = self.starts[i]
        return Povm(self.labels(i), self.blocks[int(self.dims[i])][start : start + self.counts[i]])


def shape_groups(*stacks: Ragged) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """The items of stacks of the same dimensions, grouped by dimension and
    each stack's outcome count: for each group, its items and the elements
    of each stack's items, (g, n, d, d)."""
    for (d, *ns), items in _groups(stacks[0].dims, *(s.counts for s in stacks)):
        whole = len(items) == len(stacks[0].items[d])  # the whole block: no gather
        yield items, [
            (s.blocks[d] if whole else s.blocks[d][s.rows(items)]).reshape(-1, n, d, d)
            for s, n in zip(stacks, ns)
        ]


def metric_walks(metric: str, stack: Ragged, what: str) -> list[tuple[np.ndarray, object]]:
    """The `subsets.max_norms` walks of a maximum of `metric` over the
    matrices of each item of a stack, each with the items it covers: each
    dimension's block cut into the items ("inf"), or the subset sums of
    each item's matrices ("l1", `subsets.gray_walk`). The sums of items of
    one shape are taken side by side and, while they fit one stack, cut
    into the items as `Segments`; a longer walk goes one item at a time,
    as the `subsets.Halves` of its sums. `what` names the quantity in a
    CapacityError."""
    if metric != "l1":
        return [
            (items, Segments(stack.blocks[d], stack.counts[items]))
            for d, items in stack.items.items()
        ]
    walks = []
    for items, (e,) in shape_groups(stack):
        if one_stack(e.shape[-3]):
            walks.append((items, Segments.of(gray_walk(e, what))))
        else:
            walks += [([i], gray_halves(one, what)) for i, one in zip(items, e)]
    return walks


def validate_povms(stack: Ragged) -> list[list[PovmViolation]]:
    """`validate_povm` of each item of a stack, in item order: one
    eigenvalue call and one element sum (`np.add.reduceat`) per dimension."""
    reports: list[list[PovmViolation]] = [[] for _ in range(len(stack.counts))]
    for d, e in stack.blocks.items():
        items = stack.items[d]
        defects = np.maximum.reduce(np.abs(e - e.swapaxes(-1, -2).conj()), axis=(-2, -1))
        allowed = HERMITICITY_RTOL * np.maximum(1.0, np.maximum.reduce(np.abs(e), axis=(-2, -1)))
        lowest = np.linalg.eigvalsh(stack.hermitian.blocks[d])[:, 0]
        skewed = defects > allowed
        bad = skewed | (lowest < -PSD_TOL)
        if bad.any():
            owner = np.repeat(items, stack.counts[items])
            for row in bad.nonzero()[0].tolist():
                i = int(owner[row])
                lab = stack.labels(i)[row - stack.starts[i]]
                if skewed[row]:
                    reports[i].append(PovmViolation("hermiticity", lab, float(defects[row])))
                else:
                    reports[i].append(PovmViolation("positivity", lab, float(-lowest[row])))
        sums = np.add.reduceat(e, stack.starts[items], axis=0)
        devs = np.maximum.reduce(np.abs(sums - np.eye(d)), axis=(-2, -1))
        for j in (devs > COMPLETENESS_TOL).nonzero()[0].tolist():
            reports[items[j]].append(PovmViolation("completeness", None, float(devs[j])))
    return reports


def validate_povm(p: Povm) -> list[PovmViolation]:
    """Check the POVM axioms; returns an empty list iff all hold within
    HERMITICITY_RTOL, PSD_TOL and COMPLETENESS_TOL. Violations are data,
    not errors. The one-item case of `validate_povms`."""
    return validate_povms(p.stack)[0]


def outcome_probabilities(p: Povm, rhos: np.ndarray) -> np.ndarray:
    """Outcome probabilities of a stack of density matrices (k, d, d), one
    row per state: the trace values tr(rho A_a), clipped at 0 and
    renormalized, as rows (k, n); a single state is a stack of one. Raises
    if the state dimension is not the POVM's or a row carries no
    probability mass."""
    d = rhos.shape[-1]
    if d != p.dim:
        raise ValueError(f"dimension mismatch: POVM dim {p.dim}, state dim {d}")
    raw = np.einsum("sij,kji->sk", rhos, p.elements).real
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ValueError("state assigns no probability mass to any outcome")
    return clipped / total


def uncertainty_walks(metric: str, stack: Ragged) -> list[tuple[np.ndarray, object]]:
    """The walks whose maxima are the intrinsic uncertainties of `metric`
    of a stack's items: the `metric_walks` of the Hermitian parts of the
    elements S = A_a ("inf") or of their subset sums S = A_D ("l1"), each
    of S - S^2 instead of S (`subsets._minus_square`). A long walk's
    `Halves` are marked `minus_square`, so `max_norms` builds S - S^2 only
    where its bound from the halves can reach the maximum."""
    walks = metric_walks(metric, stack.hermitian, "the subset-summed intrinsic uncertainty")
    return [
        (items, walk._replace(minus_square=True))
        if isinstance(walk, Halves)
        else (items, Segments(_minus_square(walk.stack), walk.counts))
        for items, walk in walks
    ]


def intrinsic_uncertainties(metric: str, stack: Ragged) -> np.ndarray:
    """The intrinsic uncertainty of `metric`, "inf"
    (`intrinsic_uncertainty_inf`) or "l1" (`intrinsic_uncertainty_l1`), of
    each item of a stack, all reduced by one `subsets.max_norms` call;
    each value is the one the POVM gives alone."""
    return max_norms([uncertainty_walks(metric, stack)], len(stack.counts))[0][0]


def intrinsic_uncertainty_inf(p: Povm) -> float:
    """max_a ||A_a - A_a^2||; zero exactly for projective measurements and at
    most 1/4 for any POVM."""
    return float(intrinsic_uncertainties("inf", p.stack)[0])


def projective(stack: Ragged) -> np.ndarray:
    """Whether each item of a stack is projective, every element a
    projection: V(A) <= 1e-9 (`intrinsic_uncertainties`, "inf")."""
    return intrinsic_uncertainties("inf", stack) <= 1e-9


def intrinsic_uncertainty_l1(p: Povm) -> float:
    """max over outcome subsets D of ||A_D (1 - A_D)|| where A_D sums the
    elements over D. Exact enumeration; capped by CapacityError."""
    return float(intrinsic_uncertainties("l1", p.stack)[0])


def _bloch_sigma(n) -> np.ndarray:
    """n . sigma for a unit Bloch vector n."""
    v = np.asarray(n, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:
        raise ValueError(f"Bloch vector must be unit length, got |n| = {np.linalg.norm(v):.12g}")
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def noisy_qubit_povm(n, eta: float) -> Povm:
    """Two-outcome qubit observable {(1/2)(I +/- eta n . sigma)}.

    eta = 1 gives the sharp projector pair along n; eta = 0 the trivial
    coin-flip observable {I/2, I/2}.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {eta}")
    s = _bloch_sigma(n)
    eye = np.eye(2, dtype=complex)
    return Povm(("+", "-"), np.stack([(eye + eta * s) / 2, (eye - eta * s) / 2]))


def bloch_pvm(n) -> Povm:
    """Sharp qubit observable {E(n), E(-n)} with outcomes '+', '-'."""
    return noisy_qubit_povm(n, 1.0)


def random_ragged(dims, counts, rng: np.random.Generator) -> Ragged:
    """Random full-rank POVMs, item i of dimension dims[i] with counts[i]
    outcomes, drawn from `rng` in item order, as one `Ragged` stack.

    Each item takes the real, then the imaginary parts of complex Gaussian
    R_k, k < n_outcomes, and item i's numbers follow item i - 1's, all
    from one `rng.standard_normal` call: the stack is what successive
    one-item calls on the same generator would draw. The Wishart matrices
    G_k = R_k R_k* are symmetrized by S^(-1/2) G_k S^(-1/2), where S is
    their sum, so every element stays generic (full rank) rather than one
    being a remainder term. One batched `renormalize` serves each shape
    (dimension and outcome count), and each POVM gets the bits it would get
    drawn alone. S is almost surely nonsingular; a draw whose S is too
    close to singular to renormalize raises ValueError naming the first
    such item of its shape. Outcomes are labeled 'o0', 'o1', ...
    """
    dims, counts = np.asarray(dims, dtype=int), np.asarray(counts, dtype=int)
    if (dims < 1).any() or (counts < 1).any():
        raise ValueError("dim and n_outcomes must be >= 1")
    sizes = 2 * counts * dims * dims  # each item's numbers
    x, firsts = rng.standard_normal(sizes.sum()), np.cumsum(sizes) - sizes
    stack = Ragged(dims, counts, {})
    for d, items in stack.items.items():
        stack.blocks[d] = np.empty((counts[items].sum(), d, d), dtype=complex)
    for (d, n), items in _groups(dims, counts):
        r = x[_runs(firsts[items], sizes[items])].reshape(-1, 2, n, d, d)
        r = r[:, 0] + 1j * r[:, 1]
        g = r @ np.conj(np.swapaxes(r, -1, -2))
        elements = linalg.renormalize(g, 1e-12)
        if elements is None:
            # rare path: find the item whose own sum fails the floor rule
            bad = next(i for i, gi in zip(items, g) if linalg.renormalize(gi, 1e-12) is None)
            raise ValueError(f"random POVM draw of item {bad} has a singular element sum")
        stack.blocks[d][stack.rows(items)] = elements.reshape(-1, d, d)
    for block in stack.blocks.values():
        linalg.read_only(block)
    return stack


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """Random full-rank POVM, deterministic in the seed: the one-item case
    of `random_ragged`, drawn from `np.random.default_rng(seed)`."""
    return random_ragged([dim], [n_outcomes], np.random.default_rng(seed)).povm(0)


def random_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` Hilbert-Schmidt random mixed states G G* / tr(G G*), as a
    stack of density matrices (count, dim, dim); a single state is a stack
    of one.

    Each state takes the real then the imaginary part of its G, so one call
    draws the same stream as `count` calls of one state each.
    """
    x = rng.standard_normal((count, 2, dim, dim))
    r = x[:, 0] + 1j * x[:, 1]
    g = r @ np.conj(np.swapaxes(r, -1, -2))
    return g / np.trace(g, axis1=-2, axis2=-1).real[:, None, None]


def require_same_dim(p: Povm, q: Povm) -> None:
    """Raise unless two POVMs act on the same Hilbert space."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def require_comparable(p: Povm, q: Povm) -> None:
    """Raise unless two POVMs share dimension and (ordered) outcome set."""
    require_same_dim(p, q)
    require_same_outcomes(p.outcomes, q.outcomes)


def require_same_outcomes(p: tuple[str, ...], q: tuple[str, ...]) -> None:
    """Raise unless two (ordered) outcome sets are the same."""
    if p != q:
        raise ValueError(
            "outcome sets differ; observable distances are defined only for an "
            f"identical outcome set (got {p} vs {q})"
        )
