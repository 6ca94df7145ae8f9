"""Subset sums in Gray-code order.

Several quantities here are exact maxima over all subsets of an outcome set.
Because a subset and its complement always yield the same norm in these
maxima, only the subsets that leave out the last outcome are evaluated, which
halves the work. `gray_walk` yields their sums as stacks of at most
2^CHUNK_BITS matrices, so a caller evaluates one stack per numpy call instead
of one matrix per mask.

The sums are built by Gray doubling: the sums over the first k elements,
followed by the same sums in reverse order plus element k. Position i of the
concatenated sequence holds the sum over the mask i ^ (i >> 1), the reflected
Gray code. A maximum taken first-wins over the stacks therefore breaks ties
to the first maximum in Gray-code order, and `gray_labels` decodes its
position into outcome labels. The capacity limit is set here too: past
SUBSET_ENUMERATION_LIMIT elements, `gray_walk` raises CapacityError.
`metric_walk` picks a maximum's enumeration: the elements as one stack
("inf") or their `gray_walk` ("l1").

`gray_products` yields the products X_D @ Y_E of two such walks in stacks
of the same size, so this module alone sizes every stack. `max_norms`
reduces all these maxima, and the one-stack maxima over outcomes, pruning
with trace bounds (`linalg.herm_norm_bound_stack`, the Wolkowicz-Styan
bound from "Bounds for eigenvalues using traces", Linear Algebra Appl. 29,
1980); each result is that of its walk alone and unpruned, bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

import numpy as np

from . import linalg

# log2 of the largest stack `gray_walk` and `gray_products` yield
CHUNK_BITS = 10

# Exact subset enumeration is 2^n work; beyond this many outcomes we refuse
# rather than silently approximate a quantity that is defined as an exact max.
SUBSET_ENUMERATION_LIMIT = 20

# Relative margin of the pruning test in `max_norms`. It must exceed the
# relative rounding of a bound and of an eigenvalue solve, a few hundred ulps
# at most here (the tests hold the bounds to 1e-13), so that a pruned matrix
# can never reach the running maximum.
PRUNE_RTOL = 1e-9


class CapacityError(ValueError):
    """An exact enumeration would exceed the supported problem size."""


def _gray_sums(elements: np.ndarray) -> np.ndarray:
    """Sums over all subsets of `elements`, in reflected Gray-code order."""
    sums = np.zeros((1, *elements.shape[1:]), dtype=elements.dtype)
    for e in elements:
        sums = np.concatenate([sums, sums[::-1] + e])
    return sums


def gray_walk(elements: np.ndarray, what: str) -> Iterator[np.ndarray]:
    """Yield the subset sums of every element but the last, in stacks.

    The stacks have equal length, at most 2^CHUNK_BITS. Position i across
    their concatenation holds the sum over the mask i ^ (i >> 1).
    `what` names the quantity in the CapacityError raised for more than
    SUBSET_ENUMERATION_LIMIT elements.
    """
    n = len(elements)
    if n > SUBSET_ENUMERATION_LIMIT:
        raise CapacityError(
            f"{what} enumerates all subsets of {n} outcomes; "
            f"the supported maximum is {SUBSET_ENUMERATION_LIMIT}"
        )
    free = elements[:-1]
    low = _gray_sums(free[:CHUNK_BITS])
    # the high bits change once per stack; the low bits run forward on even
    # high positions and backward on odd ones
    for j, high in enumerate(_gray_sums(free[CHUNK_BITS:])):
        yield high + (low if j % 2 == 0 else low[::-1])


def gray_products(xs: np.ndarray, ys: np.ndarray, what: str) -> Iterator[np.ndarray]:
    """Yield the products X_D @ Y_E of the `gray_walk` sums of `xs` and `ys`
    in stacks of at most 2^CHUNK_BITS, X_D in blocks and Y_E running fastest."""
    for sums_x in gray_walk(xs, what):
        for sums_y in gray_walk(ys, what):
            block = max(1, 2**CHUNK_BITS // len(sums_y))
            for k in range(0, len(sums_x), block):
                yield (sums_x[k : k + block, None] @ sums_y).reshape(-1, *sums_y.shape[1:])


def metric_walk(metric: str, elements: np.ndarray, what: str) -> Iterable[np.ndarray]:
    """The stacks of a maximum of `metric` over `elements`: the elements
    themselves as one stack ("inf"), or their `gray_walk` ("l1")."""
    return gray_walk(elements, what) if metric == "l1" else [elements]


def gray_labels(position: int, labels: tuple[str, ...]) -> tuple[str, ...]:
    """Labels of the subset at a position of `gray_walk`, that is of the
    mask position ^ (position >> 1), in the order of `labels`."""
    mask = position ^ (position >> 1)
    return tuple(lab for i, lab in enumerate(labels) if mask >> i & 1)


def _survivors(hs: np.ndarray, floor: float) -> np.ndarray:
    """Positions in a stack whose two trace bounds both reach `floor`."""
    rows = np.flatnonzero(linalg.herm_norm_bound_stack(hs) >= floor)
    h = linalg.hermitian_part(hs[rows])
    return rows[np.sqrt(linalg.herm_norm_bound_stack(h @ h)) >= floor]


def _walk_max(first: np.ndarray, rest: Iterable[np.ndarray]) -> tuple[float, int, np.ndarray]:
    """The `max_norms` result of a walk of several stacks: `first`, then `rest`."""
    norms = linalg.herm_norm_stack(first)
    k = int(np.argmax(norms))
    best, best_pos, best_matrix, pos = float(norms[k]), k, first[k], len(first)
    sample = first[::8]
    prune = 2 * len(_survivors(sample, (1 - PRUNE_RTOL) * best)) <= len(sample)
    for hs in rest:
        rows = np.arange(len(hs))
        if prune:
            rows = _survivors(hs, (1 - PRUNE_RTOL) * best)
            prune = 2 * len(rows) <= len(hs)
        if len(rows):
            norms = linalg.herm_norm_stack(hs[rows] if len(rows) < len(hs) else hs)
            k = int(np.argmax(norms))
            if norms[k] > best:
                best, best_pos, best_matrix = float(norms[k]), pos + int(rows[k]), hs[rows[k]]
        pos += len(hs)
    return best, best_pos, best_matrix


def max_norms(walks: Iterable[Iterable[np.ndarray]]) -> list[tuple[float, int, np.ndarray]]:
    """For each walk, a sequence of stacks of (nearly) Hermitian matrices
    (N, d, d), the largest operator norm, read as `linalg.herm_norm_stack`
    reads it, with its position across the concatenation of the walk's
    stacks and its matrix; ties break to the first maximum.

    Each walk is read one stack ahead. A walk that ends after its first
    stack waits as that array; a dimension's waiting stacks are solved
    together, at most 2^CHUNK_BITS matrices a `linalg.herm_norm_stack`
    call, before one more would pass that many. `eigvalsh` solves each
    matrix on its own, so every result is the one its walk gives alone.

    A walk with later stacks starts with a full stack of 2^CHUNK_BITS
    matrices (`gray_walk`, `gray_products`), which is solved alone at once.
    In each later stack, a matrix gets a solve only if both trace bounds of
    `linalg.herm_norm_bound_stack`, on the matrix and on the square of its
    Hermitian part (whose largest eigenvalue is the squared norm), reach
    (1 - PRUNE_RTOL) times the walk's running maximum. A pruned matrix
    cannot reach that maximum, and a later stack replaces it only with a
    strictly larger norm, so the result is that of an unpruned walk, bit
    for bit. Both bounds cost 0.2 (d = 8) to 0.7 (d = 2) of a solve a
    matrix, so a walk prunes only while they drop at least half of what
    they see: first of every eighth matrix of its first stack, then of each
    pruned stack. Sums whose norms crowd the maximum, as ||S - S^2|| does
    at d >= 3, go on unpruned.
    """
    cap = 2**CHUNK_BITS
    results: list = []
    pending: dict[int, list] = {}  # dimension -> [(slot, stack)] of one-stack walks
    waiting: dict[int, int] = {}  # dimension -> matrices in its pending stacks

    def solve(d: int) -> None:
        group = pending.pop(d)
        del waiting[d]
        flat = group[0][1] if len(group) == 1 else np.concatenate([hs for _, hs in group])
        chunks = [linalg.herm_norm_stack(flat[k : k + cap]) for k in range(0, len(flat), cap)]
        norms = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        start = 0
        for slot, hs in group:
            k = int(np.argmax(norms[start : start + len(hs)]))
            results[slot] = float(norms[start + k]), k, hs[k]
            start += len(hs)

    for walk in walks:
        stacks = iter(walk)
        first, second = next(stacks), next(stacks, None)
        if second is not None:
            rest = itertools.chain(iter([second]), stacks)  # an exhausted iter drops its list
            del second  # so the walk's stacks are held one at a time while it is reduced
            results.append(_walk_max(first, rest))
            continue
        d = first.shape[-1]
        if d in waiting and waiting[d] + len(first) > cap:
            solve(d)
        pending.setdefault(d, []).append((len(results), first))
        waiting[d] = waiting.get(d, 0) + len(first)
        results.append(None)
    for d in list(pending):
        solve(d)
    return results
