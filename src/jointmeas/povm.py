"""POVM and state model: validation, outcome statistics, intrinsic
uncertainty measures, and constructors for standard test families."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import linalg
from .subsets import gray_walk

# Default tolerances for POVM validity: entrywise deviation of the element sum
# from the identity, and the eigenvalue floor for positivity. Loose enough to
# accept projection-solver output, tight enough to catch modeling bugs.
COMPLETENESS_TOL = 1e-8
PSD_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _p in (PAULI_X, PAULI_Y, PAULI_Z):
    _p.setflags(write=False)


def _frozen_stack(mats: np.ndarray) -> np.ndarray:
    out = np.array(mats, dtype=complex)
    out.setflags(write=False)
    return out


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
        object.__setattr__(self, "elements", _frozen_stack(elements))

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

    def subset_sum(self, labels: Iterable[str]) -> np.ndarray:
        """Sum of the elements over a subset of outcomes; a label may appear
        at most once."""
        idx = [self.index(lab) for lab in labels]
        if len(set(idx)) != len(idx):
            raise ValueError("a subset cannot hold an outcome twice")
        if not idx:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.elements[idx].sum(axis=0)


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


def validate_povm(p: Povm, completeness_tol: float = COMPLETENESS_TOL) -> list[PovmViolation]:
    """Check the POVM axioms; returns an empty list iff all hold within
    tolerance. Violations are data, not errors."""
    defects, allowed = linalg.hermitian_defects(p.elements)
    lowest = np.linalg.eigvalsh(linalg.hermitian_part(p.elements))[:, 0]
    report: list[PovmViolation] = []
    for lab, defect, limit, low in zip(
        p.outcomes, defects.tolist(), allowed.tolist(), lowest.tolist()
    ):
        if defect > limit:
            report.append(PovmViolation("hermiticity", lab, defect))
        elif low < -PSD_TOL:
            report.append(PovmViolation("positivity", lab, -low))
    total = p.elements.sum(axis=0)
    dev = float(np.abs(total - np.eye(p.dim)).max())
    if dev > completeness_tol:
        report.append(PovmViolation("completeness", None, dev))
    return report


@dataclass(frozen=True, eq=False)
class State:
    """Density operator."""

    matrix: np.ndarray  # (dim, dim), read-only

    def __post_init__(self):
        m = linalg.as_operator(self.matrix)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector) -> "State":
        """Rank-one state from a (normalized on entry) ket vector."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("state vector must be nonzero")
        v = v / nrm
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Outcome probabilities of a POVM in a state, clipped to [0, 1] and
    renormalized for downstream distance computations."""

    outcomes: tuple[str, ...]
    probs: np.ndarray


def outcome_distribution(p: Povm, state: State) -> OutcomeDistribution:
    """p(a) = tr(rho A_a) for every outcome a."""
    if state.dim != p.dim:
        raise ValueError(f"dimension mismatch: POVM dim {p.dim}, state dim {state.dim}")
    probs = outcome_probabilities(p, state.matrix[None])[0]
    probs.setflags(write=False)
    return OutcomeDistribution(p.outcomes, probs)


def outcome_probabilities(p: Povm, rhos: np.ndarray) -> np.ndarray:
    """Outcome probabilities of a stack of density matrices (k, d, d), one
    row per state: the trace values tr(rho A_a), clipped at 0 and
    renormalized, as rows (k, n). Raises if a row carries no probability
    mass."""
    raw = np.einsum("sij,kji->sk", rhos, p.elements).real
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ValueError("state assigns no probability mass to any outcome")
    return clipped / total


def intrinsic_uncertainty_inf(p: Povm) -> float:
    """max_a ||A_a - A_a^2||; zero exactly for projective measurements and at
    most 1/4 for any POVM."""
    e = linalg.hermitian_part(p.elements)
    return float(linalg.herm_norm_stack(e - e @ e).max())


def is_pvm(p: Povm) -> bool:
    """True iff every element is a projection: V(A) <= 1e-9."""
    return intrinsic_uncertainty_inf(p) <= 1e-9


def intrinsic_uncertainty_l1(p: Povm) -> float:
    """max over outcome subsets D of ||A_D (1 - A_D)|| where A_D sums the
    elements over D. Exact enumeration; capped by CapacityError."""
    e = linalg.hermitian_part(p.elements)
    best = 0.0
    for sums in gray_walk(e, "the subset-summed intrinsic uncertainty"):
        best = max(best, float(linalg.herm_norm_stack(sums - sums @ sums).max()))
    return best


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


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """Random full-rank POVM, deterministic in the seed.

    Draws Wishart matrices G_k = R_k R_k* with complex Gaussian R_k and
    symmetrizes by S^(-1/2) G_k S^(-1/2) where S is their sum, so every
    element stays generic (full rank) rather than one being a remainder term.
    """
    if dim < 1 or n_outcomes < 1:
        raise ValueError("dim and n_outcomes must be >= 1")
    for attempt in range(10):
        rng = np.random.default_rng(seed + attempt)
        r = rng.standard_normal((n_outcomes, dim, dim)) + 1j * rng.standard_normal(
            (n_outcomes, dim, dim)
        )
        elements = linalg.renormalize(r @ np.conj(np.swapaxes(r, -1, -2)), 1e-12)
        if elements is None:
            continue  # singular sum; retry with a perturbed seed
        labels = tuple(f"o{k}" for k in range(n_outcomes))
        return Povm(labels, elements)
    raise ValueError("could not draw a nonsingular random POVM after 10 attempts")


def random_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` Hilbert-Schmidt random mixed states G G* / tr(G G*), as a
    stack of density matrices (count, dim, dim).

    The generator stream is that of `count` successive `random_state` calls:
    each state takes the real then the imaginary part of its G.
    """
    x = rng.standard_normal((count, 2, dim, dim))
    r = x[:, 0] + 1j * x[:, 1]
    g = r @ np.conj(np.swapaxes(r, -1, -2))
    return g / np.trace(g, axis1=-2, axis2=-1).real[:, None, None]


def random_state(dim: int, rng: np.random.Generator) -> State:
    """Hilbert-Schmidt random mixed state G G* / tr(G G*)."""
    return State(random_states(dim, 1, rng)[0])


def require_comparable(p: Povm, q: Povm) -> None:
    """Raise unless two POVMs share dimension and (ordered) outcome set."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if p.outcomes != q.outcomes:
        raise ValueError(
            "outcome sets differ; observable distances are defined only for an "
            f"identical outcome set (got {p.outcomes} vs {q.outcomes})"
        )
