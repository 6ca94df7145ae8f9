"""POVMs: validation, outcome statistics, intrinsic uncertainty measures,
and constructors for standard test families. A state is a plain density
matrix (d, d), and a stack of states is an array (k, d, d)."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .subsets import max_norms, metric_walk

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


def validate_povm(p: Povm) -> list[PovmViolation]:
    """Check the POVM axioms; returns an empty list iff all hold within
    HERMITICITY_RTOL, PSD_TOL and COMPLETENESS_TOL. Violations are data,
    not errors."""
    e = p.elements
    defects = np.abs(e - np.conj(np.swapaxes(e, -1, -2))).max(axis=(-2, -1))
    allowed = HERMITICITY_RTOL * np.maximum(1.0, np.abs(e).max(axis=(-2, -1)))
    lowest = np.linalg.eigvalsh(linalg.hermitian_part(e))[:, 0]
    report: list[PovmViolation] = []
    for lab, defect, limit, low in zip(
        p.outcomes, defects.tolist(), allowed.tolist(), lowest.tolist()
    ):
        if defect > limit:
            report.append(PovmViolation("hermiticity", lab, defect))
        elif low < -PSD_TOL:
            report.append(PovmViolation("positivity", lab, -low))
    dev = float(np.abs(e.sum(axis=0) - np.eye(p.dim)).max())
    if dev > COMPLETENESS_TOL:
        report.append(PovmViolation("completeness", None, dev))
    return report


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


def uncertainty_walk(metric: str, p: Povm) -> Iterator[np.ndarray]:
    """The stacks whose largest norm is the intrinsic uncertainty of
    `metric`, for `subsets.max_norms`: S - S^2 over the `subsets.metric_walk`
    of the elements (A_a - A_a^2 as one stack for "inf", A_D - A_D^2 over
    the Gray-ordered subset sums A_D for "l1")."""
    e = linalg.hermitian_part(p.elements)
    for s in metric_walk(metric, e, "the subset-summed intrinsic uncertainty"):
        yield s - s @ s


def intrinsic_uncertainties(metric: str, povms: Iterable[Povm]) -> list[float]:
    """The intrinsic uncertainty of `metric`, "inf"
    (`intrinsic_uncertainty_inf`) or "l1" (`intrinsic_uncertainty_l1`), of
    each POVM, all reduced by one `subsets.max_norms` call; each value is
    the one the POVM gives alone."""
    return [value for value, _, _ in max_norms(uncertainty_walk(metric, p) for p in povms)]


def intrinsic_uncertainty_inf(p: Povm) -> float:
    """max_a ||A_a - A_a^2||; zero exactly for projective measurements and at
    most 1/4 for any POVM."""
    return intrinsic_uncertainties("inf", [p])[0]


def is_pvm(p: Povm) -> bool:
    """True iff every element is a projection: V(A) <= 1e-9."""
    return intrinsic_uncertainty_inf(p) <= 1e-9


def intrinsic_uncertainty_l1(p: Povm) -> float:
    """max over outcome subsets D of ||A_D (1 - A_D)|| where A_D sums the
    elements over D. Exact enumeration; capped by CapacityError."""
    return intrinsic_uncertainties("l1", [p])[0]


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


def random_povms(dim: int, n_outcomes: int, seeds: Sequence[int]) -> list[Povm]:
    """Random full-rank POVMs of one shape, one per seed, each deterministic
    in its own seed; an empty `seeds` gives an empty list.

    Each seed's generator, `Generator(PCG64(seed))` (the one
    `np.random.default_rng(seed)` builds, without its dispatch), draws the
    real, then the imaginary parts of complex Gaussian R_k, k < n_outcomes,
    as one (2, n_outcomes, dim, dim) draw. The Wishart matrices
    G_k = R_k R_k* are symmetrized by S^(-1/2) G_k S^(-1/2), where S is
    their sum, so every element stays generic (full rank) rather than one
    being a remainder term. One batched `renormalize` serves the whole
    stack, and each POVM gets the bits it would get drawn alone. S is
    almost surely nonsingular; a draw whose S is too close to singular to
    renormalize raises ValueError naming the first such seed. Outcomes are
    labeled 'o0', 'o1', ...
    """
    if dim < 1 or n_outcomes < 1:
        raise ValueError("dim and n_outcomes must be >= 1")
    x = np.empty((len(seeds), 2, n_outcomes, dim, dim))
    for k, seed in enumerate(seeds):
        np.random.Generator(np.random.PCG64(seed)).standard_normal(out=x[k])
    r = x[:, 0] + 1j * x[:, 1]
    g = r @ np.conj(np.swapaxes(r, -1, -2))
    elements = linalg.renormalize(g, 1e-12)
    if elements is None:
        # rare path: find the seed whose own sum fails the floor rule
        bad = next(s for s, gk in zip(seeds, g) if linalg.renormalize(gk, 1e-12) is None)
        raise ValueError(f"random POVM draw at seed {bad} has a singular element sum")
    labels = tuple(f"o{k}" for k in range(n_outcomes))
    return [Povm(labels, e) for e in elements]


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """Random full-rank POVM, deterministic in the seed: the one-seed case of
    `random_povms`."""
    return random_povms(dim, n_outcomes, (seed,))[0]


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
    if p.outcomes != q.outcomes:
        raise ValueError(
            "outcome sets differ; observable distances are defined only for an "
            f"identical outcome set (got {p.outcomes} vs {q.outcomes})"
        )
