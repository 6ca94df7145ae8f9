"""Subset sums in mask order.

Several quantities here are exact maxima over all subsets of an outcome set.
Because a subset and its complement always yield the same norm in these
maxima, only the subsets that leave out the last outcome are evaluated, which
halves the work. `gray_walk` returns their sums as one stack where they fit
one, at most 2^CHUNK_BITS matrices (`one_stack`), so a caller evaluates them
in one numpy call instead of one matrix per mask; a longer walk goes by its
two `Halves` (`gray_halves`), the sums over the first CHUNK_BITS elements
and over the rest, so the order has one definition.

The sums are built by doubling: the sums over the first k elements,
followed by the same sums plus element k. Position i of the concatenated
sequence holds the sum over mask i, whose bit k says whether element k is
in the subset, and every sum is added up from 0 in element order. A
maximum taken first-wins over the walk therefore breaks ties to the
smallest mask, and `gray_labels` reads a position's set bits as outcome
labels. The `gray_` names are those of the reflected Gray code these walks
once followed, and they stay: `perfbench/layers.py` counts `gray_walk` by
name. The walk runs along axis -3, so one call sums the subsets of many
equally long element lists at once, item by item.

`gray_products` gives the products X_D @ Y_E of two such walks where
they fit one stack, so this module alone sizes every stack.
`gray_halves` raises CapacityError past SUBSET_ENUMERATION_LIMIT
elements, and `Products.of` past as many subset pairs as that many
elements have subsets.

`max_norms` is the one reducer of the spectral maxima, over outcomes and
over subsets. It takes three walk forms: `Segments`, one stack per item,
solved together by dimension; `Halves`, one item's walk of subset sums S,
or of S - S^2, by two halves of sums whose traces and one matmul of
their traceless parts give every sum's Wolkowicz-Styan bounds ("Bounds
for eigenvalues using traces", Linear Algebra Appl. 29, 1980), and from
those the bounds of S - S^2; and `Products`, one item's walk of subset
commutators i[X_D, Y_E], bilinear in the two subsets, whose bounds
follow from small Gram matrices. `Halves` and `Products` are bounded
whole before any matrix is built, and one descending pass over the
bounds (`_descending_max`) builds and solves only those that can reach
the maximum. `max_norms` returns each quantity's maxima in item order,
each the one its walk gives alone and unpruned, bit for bit.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import linalg

# log2 of the largest stack `gray_walk` returns and `max_norms` solves
CHUNK_BITS = 10

# Exact subset enumeration is 2^n work; beyond this many outcomes we refuse
# rather than silently approximate a quantity that is defined as an exact max.
SUBSET_ENUMERATION_LIMIT = 20

# Relative margin of the pruning test in `max_norms`. It must exceed the
# relative rounding of a bound and of an eigenvalue solve, a few hundred ulps
# at most here (the tests hold the bounds to 1e-13), so that a pruned matrix
# can never reach the running maximum.
PRUNE_RTOL = 1e-9

# Rounding allowance of the `Halves` and `Products` bounds in `max_norms`:
# ROUNDING_ULPS times the rounding of each squared norm is added before its
# root, and the root is raised by ROUNDING_ULPS eps; the absolute allowances
# of a commutator and of S - S^2 scale with it too. `_halves_max` and
# `_products_max` say what that rounding is and why that suffices.
ROUNDING_ULPS = 8

# log2 of the number of `Halves` or `Products` bounds computed at once (64 KB
# of floats); the largest of the first block give `_descending_max` its cut
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
    halves of Hermitian matrices, whose sums are Hermitian, bit for bit.
    A walk marked `minus_square` is that of S - S @ S for each sum S
    (`_minus_square`), not of the sums themselves."""

    low: np.ndarray
    high: np.ndarray
    minus_square: bool = False


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


def gray_walk(elements: np.ndarray, what: str) -> np.ndarray:
    """The subset sums of every element but the last, as one stack.

    `elements` is (..., n, d, d), a walk of one stack (`one_stack(n)`); the
    sums run along axis -3, and the leading axes, if any, hold lists of n
    elements whose sums are taken side by side. Position i holds the sum
    over mask i. The stack is the low half of the `gray_halves`, whose
    high half is the empty sum alone; a longer walk goes by its
    `gray_halves`, and this raises a ValueError for it.
    """
    if not one_stack(elements.shape[-3]):
        raise ValueError(f"{what}: a walk of {elements.shape[-3]} elements goes by its halves")
    return gray_halves(elements, what).low


def gray_products(xs: np.ndarray, ys: np.ndarray, what: str) -> np.ndarray:
    """The products X_D @ Y_E of the `gray_walk` sums of `xs` and `ys`, X_D
    in mask order and Y_E running fastest, for a pair whose walk is one stack
    (`one_stack`); leading axes pair lists of xs with lists of ys, as in
    `gray_walk`. A longer pair is a `Products` walk."""
    sums_x, sums_y = gray_walk(xs, what), gray_walk(ys, what)
    prods = sums_x[..., :, None, :, :] @ sums_y[..., None, :, :, :]
    return prods.reshape(*prods.shape[:-4], -1, *prods.shape[-2:])


def one_stack(*lengths: int) -> bool:
    """Whether the walk over element lists of these lengths, the
    `gray_walk` of one list or the `gray_products` of two, is one stack."""
    return sum(n - 1 for n in lengths) <= CHUNK_BITS


def gray_labels(position: int, labels: tuple[str, ...]) -> tuple[str, ...]:
    """The labels of the set bits of a `gray_walk` position, in order."""
    return tuple(lab for i, lab in enumerate(labels) if position >> i & 1)


def _sums_at(halves: Halves, masks: np.ndarray) -> np.ndarray:
    """The sums of one list's `Halves` over these masks, each added as
    `gray_walk` adds it: high[j] + low[i] at mask j * len(low) + i."""
    j, i = np.divmod(masks, len(halves.low))
    return halves.high[j] + halves.low[i]


class Products(NamedTuple):
    """One item's walk of the subset commutators i[X_D, Y_E] of two element
    lists (`linalg.commutator_stack` of X_D @ Y_E): the `Halves` of the X_D
    and of the Y_E, and the free elements of each list, whose subsets the D
    and the E are. Position mask_D * 2^(n_Y - 1) + mask_E holds the pair
    (D, E), which is the `gray_products` order wherever the Y walk is one
    stack; no caller prints a commutator's position (`bounds` reads values
    only)."""

    x: Halves
    y: Halves
    x_elements: np.ndarray
    y_elements: np.ndarray

    @classmethod
    def of(cls, xs: np.ndarray, ys: np.ndarray, what: str) -> Products:
        """The walk of the element lists xs (n_X, d, d) and ys (n_Y, d, d).
        The pairs of subsets are as many as the subsets of n_X + n_Y - 1
        elements, so past SUBSET_ENUMERATION_LIMIT of those it raises a
        CapacityError, before any sum; `what` names the quantity."""
        n = xs.shape[-3] + ys.shape[-3] - 1
        if n > SUBSET_ENUMERATION_LIMIT:
            raise CapacityError(
                f"{what} enumerates all subset pairs of {xs.shape[-3]} and {ys.shape[-3]} "
                f"outcomes, as many as the subsets of {n}; the supported maximum is "
                f"{SUBSET_ENUMERATION_LIMIT}"
            )
        return cls(gray_halves(xs, what), gray_halves(ys, what), xs[:-1], ys[:-1])


def _minus_square(sums: np.ndarray) -> np.ndarray:
    """S - S @ S of each matrix S of a stack: the matrices of a `Halves`
    walk marked `minus_square`, and of every walk of the intrinsic
    uncertainties (`povm.uncertainty_walks`)."""
    return sums - sums @ sums


def _square_reaches(h: np.ndarray, floor: float) -> np.ndarray:
    """Whether the trace bound on the square of each matrix of a stack,
    whose largest eigenvalue is the squared norm, reaches floor^2. The
    matrices must be Hermitian: for one that is not, the bound on its
    square can fall below the squared norm of its Hermitian part (a
    nilpotent matrix squares to 0)."""
    return np.sqrt(linalg.herm_norm_bound_stack(h @ h)) >= floor


def _sum_bounds(walk: Halves) -> Callable[[int, int], np.ndarray]:
    """The bounds of the matrices of a `Halves` walk, with the rounding
    allowances `_halves_max` explains: a function of r0 and r1 that
    returns the bounds at high[j] + low[i], r0 <= j < r1, one row per j
    and i in order. With t the trace of the sum over d and r its
    Wolkowicz-Styan radius, every eigenvalue of the sum lies in
    [t - r, t + r], and the bound is |t| + r, or, on a walk marked
    `minus_square`, the largest |g(lambda)| there, g(lambda) = lambda -
    lambda^2."""
    low, high, minus_square = walk
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
    # each half's Frobenius norm, for the absolute allowance of g
    norm_high, norm_low = np.sqrt(f_high + d * t_high**2), np.sqrt(f_low + d * t_low**2)

    def bounds(r0: int, r1: int) -> np.ndarray:
        c = by_high[r0:r1] @ by_low
        np.sqrt(c, out=c)
        c *= scale
        t = np.add(t_high[r0:r1, None], t_low)
        if not minus_square:
            c += np.abs(t, out=t)
            return c
        lo, hi = t - c, t + c
        g = np.maximum(np.abs(lo - lo * lo), np.abs(hi - hi * hi))
        if d > 2:  # eigenvalues inside the interval too, where g peaks at 1/2
            np.maximum(g, 0.25, out=g, where=(lo <= 0.5) & (hi >= 0.5))
        n = np.add(norm_high[r0:r1, None], norm_low)
        g += 2 * slack * n * (1 + n)
        return g

    return bounds


def _squared_norms(ms: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each matrix of a stack (N, d, d)."""
    rows = ms.reshape(len(ms), ms.shape[-1] ** 2).view(np.float64)
    return np.einsum("ij,ij->i", rows, rows)


def _descending_max(
    count: int,
    blocks: Iterable[np.ndarray],
    gather: Callable[[np.ndarray], np.ndarray],
    hermitian: bool,
) -> tuple[float, int, np.ndarray]:
    """The `max_norms` result of a walk of `count` matrices that are all
    bounded before any is built: `blocks` hold the bound at every position
    of the walk, block after block in position order, each of at least
    2^(CHUNK_BITS - 2), and `gather` builds the matrices at ascending
    positions, which are Hermitian bit for bit where `hermitian` says so.
    `_halves_max` and `_products_max` supply them, and say why no bound is
    below the norm that `linalg.herm_norm_stack` reads off the matrix
    built there, but for a relative rounding of a few d eps. The bounds
    are kept, count floats.

    One pass solves the matrices in descending order of bound. The
    2^(CHUNK_BITS - 2) largest bounds come first, whatever they are; as
    many of the first block reach its own 2^(CHUNK_BITS - 2)-th largest,
    a lower cut for them, so only the bounds past it are partitioned. Every
    other bound that reaches (1 - PRUNE_RTOL) times the maximum so found
    is sorted, once, and solved in rounds of as many, each round only
    those matrices whose Hermitian part's H^2 bound (`_square_reaches`)
    reaches (1 - PRUNE_RTOL) times the running maximum too, until the
    next bound falls below that. Once a round keeps more than half of
    what it tested, the matrices crowd the maximum, and the rest go in
    rounds of 2^CHUNK_BITS without that stage. Ties break to the smallest
    position solved.

    A matrix is pruned only when its bound is below (1 - PRUNE_RTOL)
    times a solved norm, and PRUNE_RTOL is some 10^5 times the relative
    rounding the bounds leave, so its own solved norm would fall short of
    that one: the maximum is never pruned, and no pruned matrix ties it.

    A bound of exactly 0 is dropped: it is that of a zero matrix, since
    every allowance of `_halves_max` and `_products_max` scales with norms
    that are 0 there (as at position 0, the empty sum). A zero norm is the
    first maximum only at position 0, where every norm is 0, so a zero
    bound gets no matrix gathered; position 0 is solved last where no
    solve has found it or a positive norm.
    """
    chunk = 2 ** (CHUNK_BITS - 2)
    best: list = [-1.0, 0, None]  # value, position, matrix

    def offer(positions, hs: np.ndarray) -> None:
        """Solve the matrices hs at these ascending positions; keep the first maximum."""
        norms = linalg.herm_norm_stack(hs)
        k = int(np.argmax(norms))
        if norms[k] > best[0] or norms[k] == best[0] and positions[k] < best[1]:
            best[:] = float(norms[k]), int(positions[k]), hs[k]

    bounds, passed, filled = np.empty(count), [], 0
    for c in blocks:  # each block while it is in cache
        c[c == 0] = -np.inf
        if not filled:
            cut = np.partition(c, -chunk)[-chunk]
        passed.append(filled + np.flatnonzero(c >= cut))
        bounds[filled : filled + len(c)] = c
        filled += len(c)
    passed = np.concatenate(passed)
    top = passed[np.argpartition(bounds[passed], -chunk)[-chunk:]]
    top = np.sort(top[bounds[top] > 0])
    if len(top):
        offer(top, gather(top))
        bounds[top] = -np.inf
    picked = np.flatnonzero(bounds >= (1 - PRUNE_RTOL) * best[0])
    picked = picked[np.argsort(-bounds[picked])]
    falling = -bounds[picked]
    start, size = 0, chunk
    while start < len(picked):
        floor = (1 - PRUNE_RTOL) * best[0]
        stop = min(start + size, int(np.searchsorted(falling, -floor, "right")))
        if stop <= start:
            break
        positions = np.sort(picked[start:stop])
        hs = gather(positions)
        if size == chunk:
            keep = _square_reaches(hs if hermitian else linalg.hermitian_part(hs), floor)
            if 2 * np.count_nonzero(keep) > len(keep):
                size = 2**CHUNK_BITS
            positions, hs = positions[keep], hs[keep]
        if len(hs):
            offer(positions, hs)
        start = stop
    if best[2] is None or best[0] == 0 and best[1] > 0:
        offer([0], gather(np.zeros(1, dtype=int)))
    return best[0], best[1], best[2]


def _halves_max(walk: Halves) -> tuple[float, int, np.ndarray]:
    """The `max_norms` result of a walk given by its `Halves`, by
    `_descending_max` over its sums high[j] + low[i], or S - S @ S of them,
    bounded 2^BOUND_BLOCK_BITS at a time.

    Sum (j, i), high[j] + low[i] at position j * m + i, is linear in its
    halves, so its Wolkowicz-Styan bound follows from theirs: with their
    traces t_h, t_l and traceless parts H0, L0, its trace is t = t_h + t_l
    and its traceless part H0 + L0, of squared Frobenius norm
    f_h + f_l + 2<H0, L0>. For a block of high sums against every low sum,
    that is one real matmul (`_sum_bounds`).

    Why no bound is below its sum's norm. Each half is itself a sum on
    the walk (the other half is the empty sum, exactly 0), so every norm
    here is at most the maximum M, and every Frobenius norm at most
    sqrt(d) M. The matmul's dot products, of 2d^2 + 2 terms, and the
    squared norms f_h and f_l, of 2d^2, are each off by at most their
    length times eps times the sum of their terms' magnitudes, about
    (2 * 2d^2 + 3) eps (f_h + f_l + 2|<H0, L0>|) in all. Where the terms
    cancel, the root would turn that error into its square root, far
    above eps M. The allowance, ROUNDING_ULPS (2d^2 + 3) eps (f_h + f_l),
    is at least twice that, since 2|<H0, L0>| <= f_h + f_l, so the root
    is never below that of the exact expansion. What is left is rounded
    relatively, by a few d eps M at most: the traces, H0 and L0, the root
    and its factor, the sum S that is solved against the sum of its
    halves (the bound holds for any trace near S's), and the eigenvalue
    solve.

    On a walk marked `minus_square`, ||S - S^2|| is the largest |g(lambda)|,
    g(lambda) = lambda - lambda^2, over the eigenvalues lambda of S, which
    lie in [t - r, t + r] for the radius r above. g is concave with its
    peak 1/4 at 1/2, so over the interval |g| is largest at an end, or at
    1/2 where the interval holds it and an eigenvalue may lie inside
    (d >= 3), and a wider interval never bounds less. At d <= 2 the
    eigenvalues are exactly t - s and t + s for the true radius s, and only
    the ends count, so there a wider interval can bound less: g falls
    once an end passes 1/2. Moved outward by r - s, an end that gives
    the norm loses at most (r - s)^2 of |g| where |g| rises outward from
    it, and at most (r - s)(|1 - 2 lambda| + r - s) where |g| falls; there
    |1 - 2 lambda| <= 2s, or the other end gives more and gains. Either
    way the loss is at most 2s(r - s) + (r - s)^2 = r^2 - s^2, which is
    (d - 1)/d times the allowance under the root and the matmul's
    rounding: less than ROUNDING_ULPS (2d^2 + 3) eps n^2, where
    n = ||H||_F + ||L||_F, for the halves H and L, bounds ||S||_F and both
    halves' traceless parts. The rest are absolute roundings, (d + 7) eps n at most in all, that
    move an end of the interval or an eigenvalue (t and r as above, and
    the rounded sum S that is built), each turned into at most 1 + 2n
    times as much |g| by its slope there; g's own rounding at the ends,
    2 eps (n + n^2); and S - S @ S as it is built, off by at most
    (d + 3) eps (n + n^2) in Frobenius norm, which bounds how far its
    Hermitian part's norm moves. The absolute allowance,
    2 ROUNDING_ULPS (2d^2 + 3) eps n (1 + n), exceeds their sum for every
    d >= 1; only the relative rounding of the eigenvalue solve is left,
    to PRUNE_RTOL. At rounding level, where every ||S - S^2|| is about
    eps (a PVM padded with zero outcomes), no bound falls below a solved
    norm, and only the H^2 stage of `_descending_max` prunes.
    """
    low, high, minus_square = walk
    bounds, rows = _sum_bounds(walk), 2**BOUND_BLOCK_BITS // len(low)
    blocks = (bounds(r, r + rows).ravel() for r in range(0, len(high), rows))

    def gather(positions: np.ndarray) -> np.ndarray:
        sums = _sums_at(walk, positions)
        return _minus_square(sums) if minus_square else sums

    return _descending_max(len(high) * len(low), blocks, gather, not minus_square)


def _pair_bounds(sums: Halves, elements: np.ndarray) -> Callable:
    """The Wolkowicz-Styan bounds of the commutators of the sums of one
    list's `Halves` with the subset sums of the free `elements` of the
    other, with the allowances `_products_max` explains: a function of
    some masks of each that returns the bound of every pair, one row per
    mask of `sums`."""
    k, d = len(elements), elements.shape[-1]
    eps = np.finfo(float).eps
    slack = ROUNDING_ULPS * (2 * d * d + 2 * k + 3) * eps
    absolute = ROUNDING_ULPS * (d + k) * eps
    scale = np.sqrt((d - 1) / d) * (1 + ROUNDING_ULPS * eps)
    element_norms = np.sqrt(_squared_norms(elements))
    bit = np.arange(k)

    def bounds(masks: np.ndarray, subsets: np.ndarray) -> np.ndarray:
        s = _sums_at(sums, masks)
        ks = linalg.commutator_stack(s[:, None] @ elements)
        ks = ks.reshape(len(s), k, d * d).view(np.float64)
        gram = ks @ ks.swapaxes(-1, -2)  # <K_b, K_c>, one k x k matrix a mask
        k_norms = np.sqrt(np.einsum("...bb->...b", gram))
        gram += slack * k_norms[:, :, None] * k_norms[:, None, :]
        bits = (subsets[:, None] >> bit & 1).astype(float)
        c = np.einsum("sek,ek->se", bits @ gram, bits)
        np.sqrt(c, out=c)
        c *= scale
        c += absolute * np.outer(np.sqrt(_squared_norms(s)), bits @ element_norms)
        return c

    return bounds


def _products_max(walk: Products) -> tuple[float, int, np.ndarray]:
    """The `max_norms` result of a `Products` walk, by `_descending_max`
    over bounds taken 2^BOUND_BLOCK_BITS positions at a time: every pair
    (D, E) of a few D, or one D with a run of E.

    Pair (D, E) is bounded without building X_D @ Y_E. For a fixed D,
    i[X_D, Y_E] is linear in the subset E: it is the sum over b in E of
    K_b = i[X_D, B_b], so its trace is 0 and its squared Frobenius norm is
    y^T G y, with y the 0/1 vector of E and G the Gram matrix of the K_b.
    One commutator per (D, b), one matmul for every G of a block and one
    quadratic form per pair bound a block of pairs (`_pair_bounds`), and
    the bound of a traceless matrix is sqrt((d - 1)/d) times its
    Frobenius norm. The same holds with D and E swapped, and a block is
    bounded from the side that takes fewer sums and commutators there.

    Why no bound is below the norm of the matrix solved, C = i(P - P*)
    for the rounded product P of X_D and Y_E as `gray_walk` adds them.
    Three roundings part C from the sum of the K_b, with k free Y
    elements and beta_E the sum of ||B_b||_F over E. That of P, off by at
    most (d + 2) eps ||X_D||_F ||Y_E||_F in Frobenius norm, with
    ||Y_E||_F <= beta_E, moves C by twice that; that of each K_b moves it
    likewise, with ||B_b||_F in place of ||Y_E||_F; and Y_E is off from
    the sum of its elements by at most (k - 1) eps beta_E, which the
    commutator with X_D at most doubles. In all that is
    (4d + 2k + 6) eps ||X_D||_F beta_E, which the absolute allowance,
    ROUNDING_ULPS (d + k) eps ||X_D||_F beta_E, exceeds for every d >= 2.
    The quadratic form, from dot products of 2d^2 terms and sums of 2k,
    is off by at most (2d^2 + 2k + 2) eps kappa^2, kappa the sum of
    ||K_b||_F over E; adding ROUNDING_ULPS (2d^2 + 2k + 3) eps
    ||K_b||_F ||K_c||_F to each G_bc adds more than that to it, so the
    root is never below that of the exact form. With D and E swapped, so
    is every role here. What is left is rounded relatively: ||X_D||_F,
    beta_E, the root and its factor, and the eigenvalue solve. A
    commuting pair keeps a bound of at least its allowance, so where
    every pair of a walk (nearly) commutes, the bounds all reach the
    floor and `_descending_max` solves all but the zero bounds, most in
    rounds of 2^CHUNK_BITS.
    """
    x, y, x_elements, y_elements = walk
    ny = len(y.low) * len(y.high)
    count = len(x.low) * len(x.high) * ny
    step = min(count, 2**BOUND_BLOCK_BITS)
    by_d, by_e = _pair_bounds(x, y_elements), _pair_bounds(y, x_elements)

    def block(p: int) -> np.ndarray:
        """The bounds of positions p to p + step: every E for each of some
        D, or a run of them for one D (every length and start here is a
        power of two)."""
        if step >= ny:
            ds, es = np.arange(p // ny, (p + step) // ny), np.arange(ny)
        else:
            ds, es = np.array([p // ny]), np.arange(p % ny, p % ny + step)
        # fix the side that takes fewer sums and commutators K to bound
        if len(ds) * (len(y_elements) + 1) <= len(es) * (len(x_elements) + 1):
            return by_d(ds, es).ravel()
        return by_e(es, ds).T.ravel()

    def gather(positions: np.ndarray) -> np.ndarray:
        ds, es = np.divmod(positions, ny)
        return linalg.commutator_stack(_sums_at(x, ds) @ _sums_at(y, es))

    return _descending_max(count, map(block, range(0, count, step)), gather, True)


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
    outcomes, `metric_walks` hands over the `Halves` of one item's walk of
    subset sums, which `povm.uncertainty_walks` marks `minus_square` for
    the maximum of ||S - S^2|| over them. `commutator_walks` hands over the
    `Products` of one item's pair of subset walks where the pairs take more
    than one stack.

    The `Segments` of a dimension wait, and are solved together, at most
    2^CHUNK_BITS matrices a `linalg.herm_norm_stack` call, before one more
    would pass that many; each maximum comes from `np.maximum.reduceat`,
    and its position is the first index of its segment that reaches it.
    `eigvalsh` solves each matrix on its own, so every result is the one
    its walk gives alone.

    The other forms are reduced as soon as they are met, and only what
    can reach the maximum is solved: a matrix whose bound is below
    (1 - PRUNE_RTOL) times a solved norm cannot reach it, so the result is
    that of an unpruned walk, bit for bit. `Halves` (`_halves_max`) bound
    every matrix of the walk from the halves: a sum by its trace and
    Wolkowicz-Styan radius, and S - S^2 by the largest |lambda - lambda^2|
    that the same interval allows its eigenvalues. `Products`
    (`_products_max`) bound every commutator from the Gram matrices of the
    commutators of one subset sum with the other list's elements, without
    building it. Both solve in one pass in descending order of bound
    (`_descending_max`), in larger rounds and without its H^2 stage where
    the bounds crowd the maximum, as those of ||S - S^2|| do at d >= 3,
    where most sums' intervals hold 1/2.
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
                one = _halves_max(walk) if isinstance(walk, Halves) else _products_max(walk)
                result[0][i], result[1][i], result[2][i] = one
                continue
            d = walk.stack.shape[-1]
            if d in waiting and waiting[d] + len(walk.stack) > cap:
                solve(d)
            pending.setdefault(d, []).append((result, items, walk))
            waiting[d] = waiting.get(d, 0) + len(walk.stack)
    for d in list(pending):
        solve(d)
    return found
