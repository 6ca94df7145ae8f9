"""Coarse-graining of POVMs through outcome functions.

An outcome function f from the outcomes of F onto a target set defines a new
POVM by summing elements over fibers: f(F)_t = sum over {x : f(x) = t} of
F_x. Targets no source outcome maps to get an explicit zero element, which
keeps outcome sets aligned for distance computations (a zero matrix is a
legal POVM element).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import linalg
from .povm import Povm

# Separator used to build product outcome labels "a|b"; user labels fed to
# coordinate_maps must not contain it, so product labels stay unambiguous.
PRODUCT_SEPARATOR = "|"


@dataclass(frozen=True, eq=False)
class OutcomeMap:
    """A total function between two finite outcome sets.

    Surjectivity is not required: unhit targets correspond to zero elements
    after marginalization.
    """

    source: tuple[str, ...]
    target: tuple[str, ...]
    assignment: Mapping[str, str]

    def __post_init__(self):
        source = tuple(str(s) for s in self.source)
        target = tuple(str(t) for t in self.target)
        if not source or not target:
            raise ValueError("source and target outcome sets must be nonempty")
        if len(set(source)) != len(source) or len(set(target)) != len(target):
            raise ValueError("outcome labels must be distinct")
        assignment = {str(k): str(v) for k, v in dict(self.assignment).items()}
        missing = [s for s in source if s not in assignment]
        if missing:
            raise ValueError(f"assignment is not total: missing {missing}")
        extra = [k for k in assignment if k not in source]
        if extra:
            raise ValueError(f"assignment maps labels outside the source set: {extra}")
        bad = [(s, t) for s, t in assignment.items() if t not in target]
        if bad:
            raise ValueError(f"assignment hits labels outside the target set: {bad}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", assignment)

    def compose(self, after: "OutcomeMap") -> "OutcomeMap":
        """after . self : source -> after.target."""
        if self.target != after.source:
            raise ValueError("maps do not compose: inner target != outer source")
        return OutcomeMap(
            source=self.source,
            target=after.target,
            assignment={s: after.assignment[self.assignment[s]] for s in self.source},
        )


def marginalize(f_povm: Povm, f: OutcomeMap) -> Povm:
    """Coarse-grain a POVM along an outcome function (sum over fibers)."""
    if f.source != f_povm.outcomes:
        raise ValueError(
            "outcome map source does not match the POVM outcomes "
            f"({f.source} vs {f_povm.outcomes})"
        )
    d = f_povm.dim
    tindex = {t: i for i, t in enumerate(f.target)}
    out = np.zeros((len(f.target), d, d), dtype=complex)
    idx = np.array([tindex[f.assignment[s]] for s in f.source])
    np.add.at(out, idx, f_povm.elements)
    return Povm(f.target, out)


def coordinate_maps(omega_a, omega_b) -> tuple[OutcomeMap, OutcomeMap]:
    """Product outcome set Omega_A x Omega_B with its two projections.

    Product labels are "a|b" in lexicographic (a-major) order. Input labels
    containing the separator are rejected so the product labels parse
    unambiguously.
    """
    a_labels = tuple(str(x) for x in omega_a)
    b_labels = tuple(str(x) for x in omega_b)
    if not a_labels or not b_labels:
        raise ValueError("outcome lists must be nonempty")
    for lab in (*a_labels, *b_labels):
        if PRODUCT_SEPARATOR in lab:
            raise ValueError(
                f"label {lab!r} contains the reserved product separator {PRODUCT_SEPARATOR!r}"
            )
    product = tuple(f"{a}{PRODUCT_SEPARATOR}{b}" for a in a_labels for b in b_labels)
    to_a = {f"{a}{PRODUCT_SEPARATOR}{b}": a for a in a_labels for b in b_labels}
    to_b = {f"{a}{PRODUCT_SEPARATOR}{b}": b for a in a_labels for b in b_labels}
    return (
        OutcomeMap(product, a_labels, to_a),
        OutcomeMap(product, b_labels, to_b),
    )


@dataclass(frozen=True, eq=False)
class ErrorOperators:
    """Per-outcome reconstruction errors eps_a = f(F)_a - A_a.

    The errors sum to zero (both families are POVMs) and the largest norm
    equals the uniform-distance observable distance between A and f(F).
    """

    outcomes: tuple[str, ...]
    operators: np.ndarray  # (n, dim, dim)
    norms: np.ndarray  # (n,)


def error_operators(a: Povm, f_povm: Povm, f: OutcomeMap) -> ErrorOperators:
    """Difference between the coarse-grained reconstruction of A through
    (F, f) and A itself, outcome by outcome."""
    if a.dim != f_povm.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {f_povm.dim}")
    if f.target != a.outcomes:
        raise ValueError(
            f"outcome map target {f.target} does not match the reference outcomes {a.outcomes}"
        )
    recon = marginalize(f_povm, f)
    eps = recon.elements - a.elements
    norms = linalg.herm_norm_stack(eps)
    ops = eps.copy()
    ops.setflags(write=False)
    norms.setflags(write=False)
    return ErrorOperators(a.outcomes, ops, norms)

