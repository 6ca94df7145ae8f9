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
of the same size, so this module alone sizes every stack, and `one_stack`
says whether a walk is one stack. `max_norms` is
the one reducer of the spectral maxima, over outcomes and over subsets.
It takes two walk forms: `Segments`, one stack per item, solved together
by dimension, and one item's walk of several stacks, pruned with trace
bounds (`linalg.herm_norm_bound_stack`, the Wolkowicz-Styan bound from
"Bounds for eigenvalues using traces", Linear Algebra Appl. 29, 1980).
It returns each quantity's maxima in item order, each the one its walk
gives alone and unpruned, bit for bit.
"""

from __future__ import annotations

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
    """The one-stack walks of many items for `max_norms`: the consecutive
    runs of `counts` matrices of one stack (N, d, d), one run an item."""

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


def one_stack(*lengths: int) -> bool:
    """Whether the walk over element lists of these lengths, the
    `gray_walk` of one list or the `gray_products` of two, is one stack."""
    return sum(n - 1 for n in lengths) <= CHUNK_BITS


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


def max_norms(quantities: Iterable[Iterable[tuple]], count: int) -> list[tuple]:
    """For each quantity, a list of (items, walk) pairs that covers `count`
    items, each item's largest operator norm over its walk of (nearly)
    Hermitian matrices, read as `linalg.herm_norm_stack` reads it, with its
    position along the walk and its matrix: (values, positions, matrices),
    arrays and a list in item order. Ties break to the first maximum.

    A walk is one of two forms. `Segments` hold one stack per item, the
    consecutive runs of one array; `povm.metric_walks` and
    `bounds.commutator_walks` make them for every "inf" maximum and for the
    "l1" maxima whose Gray walk fits one stack. Any other walk is one
    item's iterable of several stacks, the Gray walk of an "l1" maximum of
    more than CHUNK_BITS + 1 outcomes (`gray_walk`, `gray_products`).

    The `Segments` of a dimension wait, and are solved together, at most
    2^CHUNK_BITS matrices a `linalg.herm_norm_stack` call, before one more
    would pass that many; each maximum comes from `np.maximum.reduceat`,
    and its position is the first index of its segment that reaches it.
    `eigvalsh` solves each matrix on its own, so every result is the one
    its walk gives alone.

    A walk of several stacks is reduced as soon as it is met, holding its
    first stack and one later stack at a time. Its first stack is full
    (2^CHUNK_BITS matrices) and solved whole. In each later stack, a matrix
    gets a solve only if both trace bounds of `linalg.herm_norm_bound_stack`,
    on the matrix and on the square of its Hermitian part (whose largest
    eigenvalue is the squared norm), reach (1 - PRUNE_RTOL) times the
    walk's running maximum. A pruned matrix cannot reach that maximum, and
    a later stack replaces it only with a strictly larger norm, so the
    result is that of an unpruned walk, bit for bit. Both bounds cost 0.2
    (d = 8) to 0.7 (d = 2) of a solve a matrix, so a walk prunes only while
    they drop at least half of what they see: first of every eighth matrix
    of its first stack, then of each pruned stack. Sums whose norms crowd
    the maximum, as ||S - S^2|| does at d >= 3, go on unpruned.
    """
    cap = 2**CHUNK_BITS
    found: list[tuple] = []
    pending: dict[int, list] = {}  # dimension -> [(result, items, Segments)] waiting
    waiting: dict[int, int] = {}  # dimension -> matrices in its pending stacks

    def solve(d: int) -> None:
        group = pending.pop(d)
        del waiting[d]
        flat = np.concatenate([walk.stack for _, _, walk in group])
        chunks = [linalg.herm_norm_stack(flat[k : k + cap]) for k in range(0, len(flat), cap)]
        norms = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        counts = np.concatenate([walk.counts for _, _, walk in group])
        starts = counts.cumsum() - counts
        best = np.maximum.reduceat(norms, starts)
        reached = (norms == best.repeat(counts)).nonzero()[0]
        firsts = reached[reached.searchsorted(starts)]
        offsets, rows = firsts - starts, firsts.tolist()
        j = 0
        for (values, positions, matrices), items, _ in group:
            k = j + len(items)
            values[items], positions[items] = best[j:k], offsets[j:k]
            for i, row in zip(items.tolist(), rows[j:k]):
                matrices[i] = flat[row]
            j = k

    for walks in quantities:
        result = np.empty(count), np.empty(count, dtype=int), [None] * count
        found.append(result)
        for items, walk in walks:
            if not isinstance(walk, Segments):
                (i,) = items
                stacks = iter(walk)
                first = next(stacks)
                result[0][i], result[1][i], result[2][i] = _walk_max(first, stacks)
                continue
            d = walk.stack.shape[-1]
            if d in waiting and waiting[d] + len(walk.stack) > cap:
                solve(d)
            pending.setdefault(d, []).append((result, items, walk))
            waiting[d] = waiting.get(d, 0) + len(walk.stack)
    for d in list(pending):
        solve(d)
    return found
