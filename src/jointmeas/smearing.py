"""Coarse-graining of POVMs through outcome functions.

An outcome function f from the outcomes of F onto a target set defines a new
POVM by summing elements over fibers: f(F)_t = sum over {x : f(x) = t} of
F_x. Targets no source outcome maps to get an explicit zero element, which
keeps outcome sets aligned for distance computations (a zero matrix is a
legal POVM element). The uniform error of reconstructing A from F through f
is D_inf(A, marginalize(F, f)), the largest norm of f(F)_a - A_a.

`marginals` coarse-grains every item of a `povm.Ragged` stack at once, with
one `np.add.at` per dimension; `marginalize` is its case of one item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .povm import Povm, Ragged

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
        # the sets test membership below; the lists keep the labels' order
        sources, targets = set(source), set(target)
        if len(sources) != len(source) or len(targets) != len(target):
            raise ValueError("outcome labels must be distinct")
        assignment = {str(k): str(v) for k, v in dict(self.assignment).items()}
        missing = [s for s in source if s not in assignment]
        if missing:
            raise ValueError(f"assignment is not total: missing {missing}")
        extra = [k for k in assignment if k not in sources]
        if extra:
            raise ValueError(f"assignment maps labels outside the source set: {extra}")
        bad = [(s, t) for s, t in assignment.items() if t not in targets]
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


def marginals(stack: Ragged, choice: np.ndarray, counts, outcomes="o") -> Ragged:
    """Coarse-grain each item of a stack: item i's outcome k goes to its
    target choice[o_i + k], where o_i is the number of outcomes of the
    items before it, and item i of the result has counts[i] outcomes,
    labeled by `outcomes` as in `Ragged`.

    Each dimension is one `np.add.at` on a flat target index, the target
    item's first row plus the choice, which adds every target's sources in
    source order, as a coarse-graining of each item alone does.
    """
    target = Ragged(stack.dims, np.asarray(counts, dtype=int), {}, outcomes)
    for d, e in stack.blocks.items():
        items = stack.items[d]
        owner = np.repeat(items, stack.counts[items])
        out = np.zeros((target.counts[items].sum(), d, d), dtype=complex)
        np.add.at(out, target.starts[owner] + choice[stack.positions(items)], e)
        target.blocks[d] = out
    return target


def outcome_choice(source: tuple[str, ...], f: OutcomeMap) -> np.ndarray:
    """The target index of each outcome of `source` under f, for
    `marginals`; raises unless f's source is `source`."""
    if f.source != source:
        raise ValueError(
            "outcome map source does not match the POVM outcomes "
            f"({f.source} vs {source})"
        )
    tindex = {t: i for i, t in enumerate(f.target)}
    return np.array([tindex[f.assignment[s]] for s in f.source])


def marginalize(f_povm: Povm, f: OutcomeMap) -> Povm:
    """Coarse-grain a POVM along an outcome function (sum over fibers): the
    one-item case of `marginals`."""
    choice = outcome_choice(f_povm.outcomes, f)
    return marginals(f_povm.stack, choice, [len(f.target)], (f.target,)).povm(0)


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
