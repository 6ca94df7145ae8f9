"""Subset sums in mask order.

Several quantities here are exact maxima over all subsets of an outcome set.
Because a subset and its complement always yield the same norm in these
maxima, only the subsets that leave out the last outcome are evaluated, which
halves the work. `gray_walk` yields their sums as stacks of at most
2^CHUNK_BITS matrices, so a caller evaluates one stack per numpy call instead
of one matrix per mask.

The sums are built by doubling: the sums over the first k elements,
followed by the same sums plus element k. Position i of the concatenated
sequence holds the sum over mask i, whose bit k says whether element k is
in the subset, and every sum is added up from 0 in element order. A
maximum taken first-wins over the stacks therefore breaks ties to the
smallest mask, and `gray_labels` reads a position's set bits as outcome
labels. The `gray_` names are those of the reflected Gray code these walks
once followed, and they stay: `perfbench/layers.py` counts `gray_walk` by
name. The walk runs along axis -3, so one call sums the subsets of many
equally long element lists at once, item by item.

`gray_products` yields the products X_D @ Y_E of two such walks in stacks
of the same size, so this module alone sizes every stack, and `one_stack`
says whether a walk is one stack. `gray_walk` builds its stacks from the
two `Halves` of `gray_halves`, the sums over the first CHUNK_BITS
elements and over the rest, so the order has one definition.
`gray_walk` and `gray_products` raise CapacityError past
SUBSET_ENUMERATION_LIMIT elements.

`max_norms` is the one reducer of the spectral maxima, over outcomes and
over subsets. It takes three walk forms: `Segments`, one stack per item,
solved together by dimension; `Halves`, one item's walk of sums linear
in the subset, whose Wolkowicz-Styan bounds ("Bounds for eigenvalues
using traces", Linear Algebra Appl. 29, 1980) follow from the halves'
traces and one matmul of their traceless parts, so that only the sums
that can reach the maximum are built and solved; and one item's walk of
several stacks of sums that are not linear in the subset (||S - S^2||,
the subset commutators), pruned stack by stack with the same bound
(`linalg.herm_norm_bound_stack`), or not at all where the sums crowd the
maximum. It returns each quantity's maxima in item order, each the one
its walk gives alone and unpruned, bit for bit.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

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

# Rounding allowance of the `Halves` bounds in `max_norms`: the squared
# traceless norm of a sum, f_h + f_l + 2<H0, L0>, is raised by
# ROUNDING_ULPS (2d^2 + 3) eps (f_h + f_l) before its root, and the root by
# ROUNDING_ULPS eps; `_halves_max` says why that suffices.
ROUNDING_ULPS = 8

# log2 of the number of `Halves` bounds computed at once: 64 KB of floats
BOUND_BLOCK_BITS = CHUNK_BITS + 3


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
    """Sums over all subsets of `elements` along axis -3, in mask order."""
    sums = np.zeros((*elements.shape[:-3], 1, *elements.shape[-2:]), dtype=elements.dtype)
    for k in range(elements.shape[-3]):
        sums = np.concatenate([sums, sums + elements[..., k : k + 1, :, :]], -3)
    return sums


class Halves(NamedTuple):
    """One item's walk of several stacks, by its two halves: the sums over
    its first CHUNK_BITS free elements (`low`, 2^CHUNK_BITS of them) and
    over the rest (`high`), each in mask order, so that position
    j * 2^CHUNK_BITS + i holds high[j] + low[i]. `max_norms` takes the
    halves of Hermitian matrices, whose sums are Hermitian, bit for bit."""

    low: np.ndarray
    high: np.ndarray


def gray_halves(elements: np.ndarray, what: str) -> Halves:
    """The `Halves` of the subset sums of every element but the last, of
    `elements` (..., n, d, d) as in `gray_walk`. `what` names the quantity
    in the CapacityError raised for more than SUBSET_ENUMERATION_LIMIT
    elements."""
    n = elements.shape[-3]
    if n > SUBSET_ENUMERATION_LIMIT:
        raise CapacityError(
            f"{what} enumerates all subsets of {n} outcomes; "
            f"the supported maximum is {SUBSET_ENUMERATION_LIMIT}"
        )
    free = elements[..., :-1, :, :]
    low, high = free[..., :CHUNK_BITS, :, :], free[..., CHUNK_BITS:, :, :]
    return Halves(_gray_sums(low), _gray_sums(high))


def gray_walk(elements: np.ndarray, what: str) -> Iterator[np.ndarray]:
    """Yield the subset sums of every element but the last, in stacks.

    `elements` is (..., n, d, d); the sums run along axis -3, and the
    leading axes, if any, hold lists of n elements whose sums are taken
    side by side. The stacks have equal length, at most 2^CHUNK_BITS.
    Position i across their concatenation holds the sum over mask i.
    Stack j is high[j] + low of the `gray_halves`, which raise a
    CapacityError for more than SUBSET_ENUMERATION_LIMIT elements.
    """
    low, high = gray_halves(elements, what)
    for j in range(high.shape[-3]):
        yield high[..., j : j + 1, :, :] + low


def gray_products(xs: np.ndarray, ys: np.ndarray, what: str) -> Iterator[np.ndarray]:
    """Yield the products X_D @ Y_E of the `gray_walk` sums of `xs` and `ys`
    in stacks of at most 2^CHUNK_BITS, X_D in blocks and Y_E running
    fastest; leading axes pair lists of xs with lists of ys, as in
    `gray_walk`. The pairs of subsets of n_x and n_y elements are as many
    as the subsets of n_x + n_y - 1, so the first stack raises a
    CapacityError, before any sum, past SUBSET_ENUMERATION_LIMIT of those."""
    n = xs.shape[-3] + ys.shape[-3] - 1
    if n > SUBSET_ENUMERATION_LIMIT:
        raise CapacityError(
            f"{what} enumerates all subset pairs of {xs.shape[-3]} and {ys.shape[-3]} outcomes, "
            f"as many as the subsets of {n}; the supported maximum is {SUBSET_ENUMERATION_LIMIT}"
        )
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
    """The labels of the set bits of a `gray_walk` position, in order."""
    return tuple(lab for i, lab in enumerate(labels) if position >> i & 1)


def _square_reaches(h: np.ndarray, floor: float) -> np.ndarray:
    """Whether the trace bound on the square of each Hermitian matrix of a
    stack, whose largest eigenvalue is the squared norm, reaches floor^2."""
    return np.sqrt(linalg.herm_norm_bound_stack(h @ h)) >= floor


def _survivors(hs: np.ndarray, floor: float) -> np.ndarray:
    """Positions in a stack whose two trace bounds both reach `floor`."""
    rows = np.flatnonzero(linalg.herm_norm_bound_stack(hs) >= floor)
    return rows[_square_reaches(linalg.hermitian_part(hs[rows]), floor)]


def _sum_bounds(low: np.ndarray, high: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """The Wolkowicz-Styan bounds of the sums of two `Halves`, with the
    rounding allowance `_halves_max` explains: a function of r0 and r1
    that returns the bounds of high[j] + low[i], r0 <= j < r1, one row per
    j and i in order."""
    d = low.shape[-1]
    width = 2 * d * d  # a matrix as real numbers
    eps = np.finfo(float).eps
    slack = ROUNDING_ULPS * (width + 3) * eps

    def split(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each sum's trace t = tr(S)/d, its traceless part S - tI as the
        first `width` of width + 2 reals a row, and that part's squared
        Frobenius norm."""
        t = np.einsum("...ii->...", sums).real / d
        rows = np.empty((len(sums), width + 2))
        rows[:, :width] = sums.reshape(len(sums), -1).view(np.float64)
        rows[:, : width : 2 * (d + 1)] -= t[:, None]  # the real diagonal
        return t, rows, np.einsum("ij,ij->i", rows[:, :width], rows[:, :width])

    # [H0, f_h (1 + slack), 1] . [2 L0, 1, f_l (1 + slack)]: one matmul
    # gives f_h + f_l + 2<H0, L0> with the allowance
    t_high, by_high, f_high = split(high)
    by_high[:, width], by_high[:, width + 1] = f_high * (1 + slack), 1.0
    t_low, by_low, f_low = split(low)
    by_low[:, :width] *= 2
    by_low[:, width], by_low[:, width + 1] = 1.0, f_low * (1 + slack)
    by_low = by_low.T
    scale = np.sqrt((d - 1) / d) * (1 + ROUNDING_ULPS * eps)

    def bounds(r0: int, r1: int) -> np.ndarray:
        c = by_high[r0:r1] @ by_low
        np.sqrt(c, out=c)
        c *= scale
        t = np.add(t_high[r0:r1, None], t_low)
        c += np.abs(t, out=t)
        return c

    return bounds


def _halves_max(low: np.ndarray, high: np.ndarray) -> tuple[float, int, np.ndarray]:
    """The `max_norms` result of a walk given by its `Halves`.

    Sum (j, i), high[j] + low[i] at position j * m + i, is linear in its
    halves, so its Wolkowicz-Styan bound follows from theirs: with their
    traces t_h, t_l and traceless parts H0, L0, its trace is t = t_h + t_l
    and its traceless part H0 + L0, of squared Frobenius norm
    f_h + f_l + 2<H0, L0>. For a block of high sums against every low sum,
    that is one real matmul (`_sum_bounds`), and a block holds at most
    2^BOUND_BLOCK_BITS bounds.

    A block's sums are solved in descending order of bound. In the first
    block, the 2^(CHUNK_BITS - 2) largest bounds come first, whatever
    they are. Then, in rounds of as many, come the sums whose bound
    reaches (1 - PRUNE_RTOL) times the running maximum and whose H^2 bound
    (`_square_reaches`) does too, until the next bound falls below that.
    Where sums crowd the maximum (they tie the largest bound, or the H^2
    stage last kept most of what it tested), a row (one stack of the walk)
    in which most bounds reach it is solved whole, without gathering, as
    `_walk_max` does. Ties break to the smallest position solved.

    Why a pruned sum stays below the maximum M. Each half is itself a sum
    on the walk (the other half is the empty sum, exactly 0), so every
    norm here is at most M, and every Frobenius norm at most sqrt(d) M.
    The matmul's dot products, of 2d^2 + 2 terms, and the squared norms
    f_h and f_l, of 2d^2, are each off by at most their length times eps
    times the sum of their terms' magnitudes, about
    (2 * 2d^2 + 3) eps (f_h + f_l + 2|<H0, L0>|) in all. Where the terms
    cancel, the root would turn that error into its square root, far
    above eps M. The allowance, ROUNDING_ULPS (2d^2 + 3) eps (f_h + f_l),
    is at least twice that, since 2|<H0, L0>| <= f_h + f_l, so the root
    is never below that of the exact expansion. What is left is rounded
    relatively, by a few d eps M at most: the traces, H0 and L0, the root
    and its factor, the sum S that is solved against the sum of its
    halves (the bound holds for any trace near S's), and the eigenvalue
    solve. A sum is pruned only when its bound is below (1 - PRUNE_RTOL)
    times a solved norm, and PRUNE_RTOL is some 10^5 times those
    roundings, so its own solved norm would fall short of that one: the
    maximum is never pruned, and no pruned sum ties it.
    """
    m = len(low)
    bounds = _sum_bounds(low, high)
    chunk = 2 ** (CHUNK_BITS - 2)
    best: list = [-1.0, 0, None]  # value, position, matrix

    def offer(positions, hs: np.ndarray) -> None:
        """Solve the sums hs at these ascending positions; keep the first maximum."""
        norms = linalg.herm_norm_stack(hs)
        k = int(np.argmax(norms))
        if norms[k] > best[0] or norms[k] == best[0] and positions[k] < best[1]:
            best[:] = float(norms[k]), int(positions[k]), hs[k]

    def whole_rows(r0: int, c: np.ndarray, floor: float) -> bool:
        """Solve the rows of a block in which most bounds reach `floor`."""
        crowded = np.flatnonzero(2 * np.count_nonzero(c >= floor, axis=1) > m)
        rows = (r0 + crowded).tolist()
        # each row's sums are built while the last row's are held
        for row, hs in zip(rows, (high[row] + low for row in rows)):
            offer(range(row * m, row * m + m), hs)
        c[crowded] = -np.inf
        return len(crowded) > 0

    def gathered(r0: int, picked: np.ndarray) -> tuple:
        """Rows, low indices and positions of entries of a block, in the
        order of their positions."""
        picked = np.sort(picked)
        rows, cols = np.divmod(picked, m)
        return rows + r0, cols, r0 * m + picked

    per_block = max(1, 2**BOUND_BLOCK_BITS // m)
    dense = False  # whether the sums crowd the maximum
    for r0 in range(0, len(high), per_block):
        c = bounds(r0, r0 + per_block)
        flat = c.ravel()
        if best[2] is None:
            dense = whole_rows(r0, c, (1 - PRUNE_RTOL) * c.max())
        if best[2] is None:
            top = np.argpartition(flat, -chunk)[-chunk:]
            rows, cols, positions = gathered(r0, top)
            offer(positions, high[rows] + low[cols])
            flat[top] = -np.inf
        elif dense:
            whole_rows(r0, c, (1 - PRUNE_RTOL) * best[0])
        picked = np.flatnonzero(flat >= (1 - PRUNE_RTOL) * best[0])
        picked = picked[np.argsort(-flat[picked])]
        falling = -flat[picked]
        start = 0
        while start < len(picked):
            floor = (1 - PRUNE_RTOL) * best[0]
            stop = min(start + chunk, int(np.searchsorted(falling, -floor, "right")))
            if stop <= start:
                break
            rows, cols, positions = gathered(r0, picked[start:stop])
            hs = high[rows] + low[cols]
            keep = _square_reaches(hs, floor)
            dense = 2 * np.count_nonzero(keep) > len(keep)
            if keep.any():
                offer(positions[keep], hs[keep])
            start = stop
    return best[0], best[1], best[2]


def _walk_max(first: np.ndarray, rest: Iterable[np.ndarray]) -> tuple[float, int, np.ndarray]:
    """The `max_norms` result of a walk of several stacks: `first`, then `rest`."""
    norms = linalg.herm_norm_stack(first)
    k = int(np.argmax(norms))
    best, best_pos, best_matrix, pos = float(norms[k]), k, first[k], len(first)
    sample = first[::7]  # odd: masks 0 mod 8 would hold none of o0, o1 and o2
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

    A walk is one of three forms. `Segments` hold one stack per item, the
    consecutive runs of one array; `povm.metric_walks` and
    `bounds.commutator_walks` make them for every "inf" maximum and for the
    "l1" maxima whose subset walk fits one stack. Beyond CHUNK_BITS + 1
    outcomes, `metric_walks` hands over the `Halves` of one item's walk
    when the maximum is over the subset sums themselves (`D_l1`), and a
    walk of several stacks, an iterable, when it is over a function of
    them (`intrinsic_uncertainty_l1`'s S - S^2), as `commutator_walks` does
    for a long subset commutator (`gray_walk`, `gray_products`).

    The `Segments` of a dimension wait, and are solved together, at most
    2^CHUNK_BITS matrices a `linalg.herm_norm_stack` call, before one more
    would pass that many; each maximum comes from `np.maximum.reduceat`,
    and its position is the first index of its segment that reaches it.
    `eigvalsh` solves each matrix on its own, so every result is the one
    its walk gives alone.

    `Halves` and walks of several stacks are reduced as soon as they are
    met, and only what can reach the maximum is solved: a matrix whose
    trace bound is below (1 - PRUNE_RTOL) times a solved norm cannot reach
    it, so the result is that of an unpruned walk, bit for bit. `Halves`
    (`_halves_max`) bound every sum of the walk from the halves, without
    building it, and solve the sums in descending order of bound. A walk
    of several stacks (`_walk_max`) holds its first stack and one later
    stack at a time. Its first stack is full (2^CHUNK_BITS matrices) and
    solved whole. In each later stack, a matrix gets a solve only if both
    trace bounds of `linalg.herm_norm_bound_stack`, on the matrix and on
    the square of its Hermitian part (whose largest eigenvalue is the
    squared norm), reach the floor. Both bounds cost 0.2 (d = 8) to 0.7
    (d = 2) of a solve a matrix, so such a walk prunes only while they
    drop at least half of what they see: first of every seventh matrix of
    its first stack, then of each pruned stack. Sums whose norms crowd the
    maximum, as ||S - S^2|| does at d >= 3, go on unpruned; this gate is
    for these walks only, as `Halves` have their own test of crowding.
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
            if isinstance(walk, Halves):
                (i,) = items
                result[0][i], result[1][i], result[2][i] = _halves_max(*walk)
                continue
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
