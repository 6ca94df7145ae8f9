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
Both walk along axis -3, so one call sums the subsets of many equally
long element lists at once, item by item.

`gray_products` yields the products X_D @ Y_E of two such walks in stacks
of the same size, so this module alone sizes every stack. `max_norms`
reduces all these maxima, and the one-stack maxima over outcomes (given
one stack a walk, or many at once as the `Segments` of one stack),
pruning with trace bounds (`linalg.herm_norm_bound_stack`, the Wolkowicz-Styan
bound from "Bounds for eigenvalues using traces", Linear Algebra Appl. 29,
1980); each result is that of its walk alone and unpruned, bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

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


class Segments(NamedTuple):
    """Many one-stack walks for `max_norms` at once: the consecutive runs of
    `counts` matrices of one stack (N, d, d)."""

    stack: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, stacks: np.ndarray) -> Segments:
        """The g stacks of m matrices of an array (g, m, d, d), one segment each."""
        return cls(stacks.reshape(-1, *stacks.shape[-2:]), np.full(len(stacks), stacks.shape[-3]))


def _gray_sums(elements: np.ndarray) -> np.ndarray:
    """Sums over all subsets of `elements` along axis -3, in reflected
    Gray-code order."""
    sums = np.zeros((*elements.shape[:-3], 1, *elements.shape[-2:]), dtype=elements.dtype)
    for k in range(elements.shape[-3]):
        sums = np.concatenate([sums, sums[..., ::-1, :, :] + elements[..., k : k + 1, :, :]], -3)
    return sums


def gray_walk(elements: np.ndarray, what: str) -> Iterator[np.ndarray]:
    """Yield the subset sums of every element but the last, in stacks.

    `elements` is (..., n, d, d); the sums run along axis -3, and the
    leading axes, if any, hold lists of n elements whose sums are taken
    side by side. The stacks have equal length, at most 2^CHUNK_BITS.
    Position i across their concatenation holds the sum over the mask
    i ^ (i >> 1). `what` names the quantity in the CapacityError raised
    for more than SUBSET_ENUMERATION_LIMIT elements.
    """
    n = elements.shape[-3]
    if n > SUBSET_ENUMERATION_LIMIT:
        raise CapacityError(
            f"{what} enumerates all subsets of {n} outcomes; "
            f"the supported maximum is {SUBSET_ENUMERATION_LIMIT}"
        )
    free = elements[..., :-1, :, :]
    low = _gray_sums(free[..., :CHUNK_BITS, :, :])
    # the high bits change once per stack; the low bits run forward on even
    # high positions and backward on odd ones
    highs = _gray_sums(free[..., CHUNK_BITS:, :, :])
    for j in range(highs.shape[-3]):
        yield highs[..., j : j + 1, :, :] + (low if j % 2 == 0 else low[..., ::-1, :, :])


def gray_products(xs: np.ndarray, ys: np.ndarray, what: str) -> Iterator[np.ndarray]:
    """Yield the products X_D @ Y_E of the `gray_walk` sums of `xs` and `ys`
    in stacks of at most 2^CHUNK_BITS, X_D in blocks and Y_E running
    fastest; leading axes pair lists of xs with lists of ys, as in
    `gray_walk`."""
    for sums_x in gray_walk(xs, what):
        for sums_y in gray_walk(ys, what):
            n_y = sums_y.shape[-3]
            block = max(1, 2**CHUNK_BITS // n_y)
            for k in range(0, sums_x.shape[-3], block):
                prods = sums_x[..., k : k + block, None, :, :] @ sums_y[..., None, :, :, :]
                yield prods.reshape(*prods.shape[:-4], -1, *prods.shape[-2:])


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


def max_norms(walks: Iterable[Iterable[np.ndarray] | Segments]) -> list[tuple]:
    """For each walk, a sequence of stacks of (nearly) Hermitian matrices
    (N, d, d), the largest operator norm, read as `linalg.herm_norm_stack`
    reads it, with its position across the concatenation of the walk's
    stacks and its matrix; ties break to the first maximum.

    A `Segments` walk stands for one one-stack walk per segment, and its
    result is the three results as arrays, one entry per segment: each
    maximum comes from `np.maximum.reduceat`, and its position is the
    first index of the segment that reaches it. When every waiting walk of
    a solve is a single segment (the one-item calls), each takes one
    `np.argmax` instead, with the same result.

    Each walk is read one stack ahead. A walk that ends after its first
    stack waits as that array, as do `Segments`; a dimension's waiting
    stacks are solved together, at most 2^CHUNK_BITS matrices a
    `linalg.herm_norm_stack` call, before one more would pass that many.
    `eigvalsh` solves each matrix on its own, so every result is the one
    its walk gives alone.

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
        flat = group[0][1] if len(group) == 1 else np.concatenate([hs for _, hs, _ in group])
        chunks = [linalg.herm_norm_stack(flat[k : k + cap]) for k in range(0, len(flat), cap)]
        norms = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        if all(c is None or len(c) == 1 for _, _, c in group):
            # one segment a walk: one argmax each
            start = 0
            for slot, hs, c in group:
                k = int(np.argmax(norms[start : start + len(hs)]))
                if c is None:
                    results[slot] = float(norms[start + k]), k, hs[k]
                else:
                    results[slot] = norms[start + k : start + k + 1], np.array([k]), hs[k : k + 1]
                start += len(hs)
            return
        # every waiting walk is one segment, or its `Segments`
        counts = np.concatenate([[len(hs)] if c is None else c for _, hs, c in group])
        starts = np.cumsum(counts) - counts
        best = np.maximum.reduceat(norms, starts)
        reached = np.flatnonzero(norms == np.repeat(best, counts))
        firsts = reached[np.searchsorted(reached, starts)]
        pos = firsts - starts
        j = 0
        for slot, hs, c in group:
            if c is None:
                k = int(pos[j])
                results[slot] = float(best[j]), k, hs[k]
                j += 1
            else:
                span = slice(j, j + len(c))
                results[slot] = best[span], pos[span], flat[firsts[span]]
                j += len(c)

    for walk in walks:
        if isinstance(walk, Segments):
            first, counts = walk
        else:
            stacks = iter(walk)
            first, second, counts = next(stacks), next(stacks, None), None
            if second is not None:
                rest = itertools.chain(iter([second]), stacks)  # an exhausted iter drops its list
                del second  # so the walk's stacks are held one at a time while it is reduced
                results.append(_walk_max(first, rest))
                continue
        d = first.shape[-1]
        if d in waiting and waiting[d] + len(first) > cap:
            solve(d)
        pending.setdefault(d, []).append((len(results), first, counts))
        waiting[d] = waiting.get(d, 0) + len(first)
        results.append(None)
    for d in list(pending):
        solve(d)
    return results
