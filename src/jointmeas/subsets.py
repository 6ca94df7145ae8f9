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
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# log2 of the largest stack `gray_walk` yields
CHUNK_BITS = 10

# Exact subset enumeration is 2^n work; beyond this many outcomes we refuse
# rather than silently approximate a quantity that is defined as an exact max.
SUBSET_ENUMERATION_LIMIT = 20


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


def gray_labels(position: int, labels: tuple[str, ...]) -> tuple[str, ...]:
    """Labels of the subset at a position of `gray_walk`, that is of the
    mask position ^ (position >> 1), in the order of `labels`."""
    mask = position ^ (position >> 1)
    return tuple(lab for i, lab in enumerate(labels) if mask >> i & 1)
