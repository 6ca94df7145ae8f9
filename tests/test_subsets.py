"""The pruned subset maxima against an unpruned walk.

`subsets.max_norm` skips the eigenvalue solve of every matrix whose trace
bounds cannot reach the running maximum. Each test here compares a public
subset maximum with a reference that solves every matrix of every stack, so
a prune that drops a matrix which could have won changes a value, a witness
or a witness matrix, and fails the comparison.
"""

import numpy as np
import pytest

from jointmeas import linalg
from jointmeas.bounds import max_subset_commutator_norm
from jointmeas.distances import D_l1
from jointmeas.povm import Povm, intrinsic_uncertainty_l1, random_povm
from jointmeas.subsets import CHUNK_BITS, gray_labels, gray_walk


def _unpruned(stacks):
    """First maximum of `herm_norm_stack` over every matrix of every stack:
    (value, position across the stacks, matrix)."""
    best, best_pos, best_matrix, pos = -1.0, 0, None, 0
    for hs in stacks:
        norms = linalg.herm_norm_stack(hs)
        k = int(np.argmax(norms))
        if norms[k] > best:
            best, best_pos, best_matrix = float(norms[k]), pos + k, hs[k]
        pos += len(hs)
    return best, best_pos, best_matrix


def _assert_d_l1_unpruned(a, b):
    diffs = linalg.hermitian_part(a.elements - b.elements)
    value, pos, matrix = _unpruned(gray_walk(diffs, "D_l1"))
    dv = D_l1(a, b)
    assert dv.value == value
    assert dv.witness == gray_labels(pos, a.outcomes)
    assert dv.witness_matrix.tobytes() == matrix.tobytes()
    return dv, pos


def _v_l1_unpruned(p):
    e = linalg.hermitian_part(p.elements)
    return _unpruned(s - s @ s for s in gray_walk(e, "V_l1"))[0]


def _subset_comm_unpruned(a, b):
    ea = linalg.hermitian_part(a.elements)
    eb = linalg.hermitian_part(b.elements)

    def stacks():
        for sums_a in gray_walk(ea, "comm"):
            for sums_b in gray_walk(eb, "comm"):
                for x in sums_a:
                    yield linalg.commutator_stack(x @ sums_b)

    return _unpruned(stacks())[0]


# (dim, outcomes): 2^(n-1) subset sums, so 2^(n-1-CHUNK_BITS) stacks
SIZES = [(2, 16), (3, 15), (4, 16), (6, 14), (8, 13)]


@pytest.mark.parametrize("d, n", SIZES)
def test_d_l1_equals_the_unpruned_walk(d, n):
    _assert_d_l1_unpruned(random_povm(d, n, seed=10 * d + n), random_povm(d, n, seed=500 + d))


@pytest.mark.parametrize("d, n", SIZES)
def test_intrinsic_uncertainty_l1_equals_the_unpruned_walk(d, n):
    p = random_povm(d, n, seed=30 * d + n)
    assert intrinsic_uncertainty_l1(p) == _v_l1_unpruned(p)


# (dim, A-outcomes, B-outcomes): each Gray stack of A-sums is commuted in
# blocks against the B-sums, several blocks for each of these pairs
@pytest.mark.parametrize("d, na, nb", [(2, 8, 8), (3, 8, 7), (4, 8, 8), (6, 7, 8), (8, 6, 8)])
def test_subset_commutator_equals_the_unpruned_walk(d, na, nb):
    a, b = random_povm(d, na, seed=7 * d + na), random_povm(d, nb, seed=70 * d + nb)
    assert max_subset_commutator_norm(a, b) == _subset_comm_unpruned(a, b)


def test_zero_distance_keeps_the_first_subset():
    # every subset ties at 0 in all 8 stacks: the empty subset comes first
    p = random_povm(3, 14, seed=4)
    dv, pos = _assert_d_l1_unpruned(p, p)
    assert (dv.value, dv.witness, pos) == (0.0, (), 0)


def test_trivial_povm_ties_across_stacks():
    # the subset sums of {I/n} are scalar, so many subsets tie in every stack
    n = 14
    trivial = Povm(tuple(f"o{k}" for k in range(n)), np.stack([np.eye(3) / n] * n))
    assert intrinsic_uncertainty_l1(trivial) == _v_l1_unpruned(trivial)
    _assert_d_l1_unpruned(trivial, random_povm(3, n, seed=6))


def test_maximum_in_a_late_stack():
    # B moves X from o15 to o14 of a POVM close to A: only the subsets
    # holding o14 see X, and the Gray walk first holds o14 half way through
    n = 16
    a = random_povm(4, n, seed=21)
    c = random_povm(4, n, seed=22)
    x = 0.05 * a.elements[15]
    b_elements = 0.99 * a.elements + 0.01 * c.elements
    b_elements[14] += x
    b_elements[15] -= x
    dv, pos = _assert_d_l1_unpruned(a, Povm(a.outcomes, b_elements))
    assert "o14" in dv.witness
    assert pos >> CHUNK_BITS >= 2 ** (n - 1 - CHUNK_BITS) // 2


@pytest.fixture
def solved(monkeypatch):
    """The size of each stack `linalg.herm_norm_stack` receives."""
    sizes = []
    herm_norm_stack = linalg.herm_norm_stack

    def counted(ms):
        sizes.append(len(ms))
        return herm_norm_stack(ms)

    monkeypatch.setattr(linalg, "herm_norm_stack", counted)
    return sizes


def test_d_l1_solves_few_of_the_subset_sums(solved):
    # d = 4, n = 16: 2^15 = 32,768 subset sums in 32 stacks
    D_l1(random_povm(4, 16, seed=41), random_povm(4, 16, seed=42))
    assert solved[0] == 2**CHUNK_BITS  # the first stack is solved whole
    assert sum(solved) < 8192


def test_crowded_maxima_go_on_unpruned(solved):
    # ||S - S^2|| of a d = 4 POVM's subset sums crowd its maximum, so the
    # bounds keep most of a sample of the first stack and no stack is pruned
    intrinsic_uncertainty_l1(random_povm(4, 16, seed=43))
    assert solved == [2**CHUNK_BITS] * 32
