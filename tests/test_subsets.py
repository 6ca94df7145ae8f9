"""The pruned subset maxima against an unpruned walk, and many walks
reduced together against each walk reduced alone.

`subsets.max_norms` skips the eigenvalue solve of every matrix whose trace
bounds cannot reach its walk's running maximum. Each pruning test here
compares a public subset maximum with a reference that solves every matrix
of every stack, so a prune that drops a matrix which could have won changes
a value, a witness or a witness matrix, and fails the comparison.

`max_norms` also solves the `Segments` of all its quantities together, by
dimension, so the batching tests compare each item's result, and each item
of the stacked forms built on it, with its walk reduced alone, bit for bit.
"""

import math
from functools import partial

import numpy as np
import pytest

from jointmeas import linalg
from jointmeas.bounds import (
    check_corollary_pvm_instrument,
    check_theorem1,
    check_theorem2,
    commutator_walks,
    max_commutator_norm,
    max_subset_commutator_norm,
    theorem1_lhs,
    tradeoff_reports,
)
from jointmeas.distances import D_inf, D_l1, distance_value, observable_distances
from jointmeas.povm import (
    Povm,
    Ragged,
    intrinsic_uncertainties,
    intrinsic_uncertainty_inf,
    intrinsic_uncertainty_l1,
    metric_walks,
    random_povm,
    uncertainty_walks,
)
from jointmeas.selftest import random_instances
from jointmeas.smearing import OutcomeMap, marginalize, outcome_choice
from jointmeas.subsets import (
    CHUNK_BITS,
    SUBSET_ENUMERATION_LIMIT,
    CapacityError,
    Halves,
    Products,
    Segments,
    _minus_square,
    _pair_bounds,
    _sum_bounds,
    _sums_at,
    gray_halves,
    gray_labels,
    gray_products,
    gray_walk,
    max_norms,
    one_stack,
)


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


def _stacks(walk):
    """A walk's stacks in order: a one-stack walk is its array, and a
    `Halves` walk's rows high[j] + low, each matrix built as `max_norms`
    builds it."""
    if not isinstance(walk, Halves):
        return [walk]
    rows = [walk.high[j] + walk.low for j in range(len(walk.high))]
    return [_minus_square(s) for s in rows] if walk.minus_square else rows


def _assert_d_l1_unpruned(a, b):
    diffs = linalg.hermitian_part(a.elements - b.elements)
    value, pos, matrix = _unpruned(_stacks(gray_halves(diffs, "D_l1")))
    dv = D_l1(a, b)
    assert dv.value == value
    assert dv.witness == gray_labels(pos, a.outcomes)
    assert dv.witness_matrix.tobytes() == matrix.tobytes()
    return dv, pos


def _assert_v_l1_unpruned(p):
    e = linalg.hermitian_part(p.elements)
    value, pos, matrix = _unpruned(_stacks(gray_halves(e, "V_l1")._replace(minus_square=True)))
    ((values, positions, (found,)),) = max_norms([uncertainty_walks("l1", p.stack)], 1)
    assert (values[0], positions[0]) == (value, pos)
    assert found.tobytes() == matrix.tobytes()
    assert intrinsic_uncertainty_l1(p) == value


def _subset_comms(a, b):
    """The subset commutators i[X_D, Y_E] of two POVMs, one stack per D,
    each built as `max_norms` builds it: pair (D, E) at position
    mask_D * 2^(n_B - 1) + mask_E across the stacks."""
    sums_b = np.concatenate(_stacks(gray_halves(linalg.hermitian_part(b.elements), "comm")))
    for sums_a in _stacks(gray_halves(linalg.hermitian_part(a.elements), "comm")):
        for x in sums_a:
            yield linalg.commutator_stack(x @ sums_b)


def _assert_subset_comm_unpruned(a, b):
    value, pos, matrix = _unpruned(_subset_comms(a, b))
    ((values, positions, (found,)),) = max_norms([commutator_walks("l1", a.stack, b.stack)], 1)
    assert (values[0], positions[0]) == (value, pos)
    assert found.tobytes() == matrix.tobytes()
    assert max_subset_commutator_norm(a, b) == value


# (dim, outcomes): 2^(n-1) subset sums, so 2^(n-1-CHUNK_BITS) stacks
SIZES = [(2, 16), (3, 15), (4, 16), (6, 14), (8, 13)]
# and, for the bounds from the halves, many blocks up to the capacity limit
LONGEST = [(2, SUBSET_ENUMERATION_LIMIT), (4, 18)]


@pytest.mark.parametrize("d, n", SIZES + LONGEST)
def test_d_l1_equals_the_unpruned_walk(d, n):
    _assert_d_l1_unpruned(random_povm(d, n, seed=10 * d + n), random_povm(d, n, seed=500 + d))


def _flat(d, n):
    """The POVM of n elements I/n: every subset sum is scalar."""
    return Povm(tuple(f"o{k}" for k in range(n)), np.stack([np.eye(d) / n] * n))


def _split_pvm(d, n, seed, noise=0.0, zeros=0):
    """A random-basis PVM with each projector split into equal parts, n
    outcomes in all, mixed with `noise` times a random POVM, and `zeros`
    zero outcomes after them."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    parts = np.array([n // d + (k < n % d) for k in range(d)])
    e = np.repeat(np.einsum("ik,jk->kij", u, u.conj()) / parts[:, None, None], parts, axis=0)
    e = (1 - noise) * e + noise * random_povm(d, n, seed=seed).elements
    e = np.concatenate([e, np.zeros((zeros, d, d))])
    return Povm(tuple(f"o{k}" for k in range(len(e))), e)


def _cancelling_at_half(n, seed):
    """Qubit elements, small but for h + I/4 at outcome 0 and -h + I/4 at
    outcome 11, a free outcome past the low half: the sum of the two is
    I/2 exactly, where g(lambda) = lambda - lambda^2 peaks, and the
    traceless parts of its halves cancel."""
    rng = np.random.default_rng(seed)
    h = linalg.hermitian_part(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    h -= np.trace(h).real / 2 * np.eye(2)
    h *= 0.2 / np.linalg.norm(h, 2)
    e = 1e-4 * linalg.hermitian_part(rng.standard_normal((n, 2, 2)) + 0j)
    e[0], e[11] = h + np.eye(2) / 4, -h + np.eye(2) / 4
    return Povm(tuple(f"o{k}" for k in range(n)), e)


# random POVMs, also of up to the capacity limit, and walks whose sums tie
# (flat) or whose norms are rounding errors (a PVM padded with zeros)
UNCERTAIN = {f"{d}-{n}": partial(random_povm, d, n, 30 * d + n) for d, n in SIZES + LONGEST}
UNCERTAIN["flat"] = partial(_flat, 3, 14)
UNCERTAIN["zero-padded PVM"] = partial(_split_pvm, 4, 4, 31, zeros=12)


@pytest.mark.parametrize("case", UNCERTAIN)
def test_intrinsic_uncertainty_l1_equals_the_unpruned_walk(case):
    # value, position and matrix, bit for bit
    _assert_v_l1_unpruned(UNCERTAIN[case]())


# (dim, A-outcomes, B-outcomes): pairs whose walk is longer than one
# stack, a `Products` walk; 3 x 12 has a B walk of two stacks, and 11 x 10
# outcomes have as many subset pairs as 20 have subsets, the limit
COMMUTED = [(2, 8, 8), (3, 8, 7), (4, 8, 8), (6, 7, 8), (8, 6, 8)]
COMMUTED += [(2, 3, 12), (3, 12, 3), (2, 11, 10), (8, 8, 8)]


@pytest.mark.parametrize("d, na, nb", COMMUTED)
def test_subset_commutator_equals_the_unpruned_walk(d, na, nb):
    # value, position and matrix, bit for bit
    a, b = random_povm(d, na, seed=7 * d + na), random_povm(d, nb, seed=70 * d + nb)
    _assert_subset_comm_unpruned(a, b)


def _diagonal(d, n, seed):
    """A POVM of n random diagonal elements."""
    w = np.random.default_rng(seed).random((n, d))
    return Povm(tuple(f"o{k}" for k in range(n)), (w / w.sum(axis=0))[:, :, None] * np.eye(d))


def _near_commuting(d, n, seed):
    """A POVM of commuting elements and its conjugate by a unitary within
    1e-9 of the identity."""
    a = _diagonal(d, n, seed)
    w, v = np.linalg.eigh(_random_hermitian(np.random.default_rng(seed), 1, d)[0])
    u = (v * np.exp(1e-9j * w / np.abs(w).max())) @ v.conj().T
    return a, Povm(a.outcomes, u @ a.elements @ u.conj().T)


PRODUCT_PAIRS = {
    "random 8x7": lambda: (random_povm(3, 8, seed=81), random_povm(3, 7, seed=82)),
    "random 3x12": lambda: (random_povm(2, 3, seed=83), random_povm(2, 12, seed=84)),
    "near-commuting": lambda: _near_commuting(4, 8, 85),
}


@pytest.mark.parametrize("case", PRODUCT_PAIRS)
def test_the_bound_of_every_subset_commutator_holds(case):
    # the bounds from the Gram matrices, fixing either side, allowances
    # included, against the norm of every matrix the walk would build
    a, b = PRODUCT_PAIRS[case]()
    d = a.dim
    walk = Products.of(*(linalg.hermitian_part(p.elements) for p in (a, b)), "comm")
    n_x, n_y = 2 ** (a.n_outcomes - 1), 2 ** (b.n_outcomes - 1)
    norms = np.stack([linalg.herm_norm_stack(c) for c in _subset_comms(a, b)])
    masks_x, masks_y = np.arange(n_x), np.arange(n_y)
    by_d = _pair_bounds(walk.x, walk.y_elements)(masks_x, masks_y)
    by_e = _pair_bounds(walk.y, walk.x_elements)(masks_y, masks_x).T
    for bounds in (by_d, by_e):
        assert bounds.shape == norms.shape == (n_x, n_y)
        assert (bounds >= norms).all()
        # and the allowances are a rounding's worth: a traceless bound is at
        # most sqrt(d - 1) times the norm, and cancelling K_b add < 1e-6
        assert (bounds <= np.sqrt(d - 1) * norms * (1 + 1e-9) + 1e-6).all()
    if case == "near-commuting":
        assert 0 < norms.max() < 1e-8
    _assert_subset_comm_unpruned(a, b)


# the walk's 256 largest bounds, then a round of 256 whose H^2 stage
# keeps them all (at a maximum of 0, every bound reaches the floor), then
# the rest in rounds of 1,024 without it; the pairs with D or E empty have
# zero bounds and are not solved (255 of 8 x 8, 2,051 of 3 x 12), and
# position 0 is solved alone last
@pytest.mark.parametrize(
    "d, na, nb, calls",
    [
        (4, 8, 8, [256, 256] + [1024] * 15 + [257, 1]),
        (2, 3, 12, [256, 256] + [1024] * 5 + [509, 1]),
    ],
)
def test_a_commuting_pair_solves_every_nonzero_bound(solved, d, na, nb, calls):
    a, b = _diagonal(d, na, 1), _diagonal(d, nb, 2)
    ((values, positions, _),) = max_norms([commutator_walks("l1", a.stack, b.stack)], 1)
    assert (values[0], positions[0]) == (0.0, 0)
    assert solved == calls
    solved.clear()
    _assert_subset_comm_unpruned(a, b)


def test_a_walk_of_zero_commutators_solves_position_0_alone(solved):
    # every commutator with the one-outcome POVM {I} is 0, and so is every
    # bound: of the 2^19 pairs at 20 outcomes only position 0 is solved,
    # where 512 rows of 1,024 were; an unpruned walk, whose norms all tie
    # at 0, keeps its first matrix
    a, b = random_povm(4, 20, seed=5), Povm(("o0",), np.eye(4)[None])
    ((values, positions, (found,)),) = max_norms([commutator_walks("l1", a.stack, b.stack)], 1)
    assert solved == [1]
    assert (values[0], positions[0]) == (0.0, 0)
    assert found.tobytes() == next(_subset_comms(a, b))[0].tobytes()


@pytest.mark.parametrize("flip, calls", [(False, [256]), (True, [256])])
def test_zero_bounds_are_not_solved(solved, flip, calls):
    # d = 2, 2 x 16 outcomes: D empty in the first half of the pairs, whose
    # bounds are all 0, where 32 whole rows of zeros were solved first (42
    # calls on 40,988 matrices); flipped, E empty in one pair of 2. The
    # walk's 256 largest bounds hold the maximum, and no other bound
    # reaches it
    a, b = random_povm(2, 2, seed=3), random_povm(2, 16, seed=4)
    if flip:
        a, b = b, a
    max_norms([commutator_walks("l1", a.stack, b.stack)], 1)
    assert solved == calls
    solved.clear()
    _assert_subset_comm_unpruned(a, b)


def test_zero_distance_keeps_the_first_subset(solved):
    # every subset ties at 0 in all 8 stacks: the empty subset comes first,
    # and with every bound 0 it alone is solved
    p = random_povm(3, 14, seed=4)
    D_l1(p, p)
    assert solved == [1]
    dv, pos = _assert_d_l1_unpruned(p, p)
    assert (dv.value, dv.witness, pos) == (0.0, (), 0)


def test_trivial_povm_ties_across_stacks():
    # the subset sums of {I/n} are scalar, so many subsets tie in every stack
    n = 14
    trivial = _flat(3, n)
    _assert_v_l1_unpruned(trivial)
    _assert_d_l1_unpruned(trivial, random_povm(3, n, seed=6))


def test_maximum_in_a_late_stack():
    # B moves X from o15 to o14 of a POVM close to A: only the subsets
    # holding o14 see X, and the walk first holds o14 at mask 2^14, half
    # way through
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


def _near_cancelling(d, n, low, high, seed):
    """Two POVM-shaped element lists whose differences are small but for a
    traceless h added to outcome `low` (< CHUNK_BITS) and taken from
    outcome `high` (a free outcome past them), each also shifted by a
    scalar: the sums holding both are near-scalar, and the maximum is one
    of them, whose halves' traceless parts cancel."""
    rng = np.random.default_rng(seed)
    a = random_povm(d, n, seed=seed)
    h = linalg.hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    h -= np.trace(h).real / d * np.eye(d)
    h *= 0.2 / np.linalg.norm(h, 2)
    x = 1e-4 * linalg.hermitian_part(rng.standard_normal((n, d, d)) + 0j)
    x[low] += h + 0.25 * np.eye(d)
    x[high] += -h + (0.25 + 1e-12 * rng.standard_normal()) * np.eye(d)
    x[-1] = -x[:-1].sum(axis=0)
    return a, Povm(a.outcomes, a.elements - x)


NEAR_CANCELLING = [(2, 12, 0, 10, 61), (3, 14, 9, 10, 62), (4, 15, 3, 13, 63), (6, 13, 5, 11, 64)]
NEAR_CANCELLING.append((8, 14, 1, 12, 65))


@pytest.mark.parametrize("d, n, low, high, seed", NEAR_CANCELLING)
def test_d_l1_equals_the_unpruned_walk_where_the_halves_cancel(d, n, low, high, seed):
    a, b = _near_cancelling(d, n, low, high, seed)
    dv, _ = _assert_d_l1_unpruned(a, b)
    assert {f"o{low}", f"o{high}"} <= set(dv.witness)
    # the witness is nearly scalar: its traceless part is a rounding of h - h
    w = dv.witness_matrix
    assert np.abs(w - np.trace(w).real / d * np.eye(d)).max() < 1e-2 * dv.value


def _halves_of(a, b):
    """The `Halves` of the subset walk of the Hermitian differences of two POVMs."""
    return gray_halves(linalg.hermitian_part(a.elements - b.elements), "D")


def _norms(walk):
    """The norm of every matrix of a `Halves` walk, one row per high sum,
    each matrix built as `max_norms` builds it."""
    sums = walk.high[:, None] + walk.low[None, :]
    return linalg.herm_norm_stack(_minus_square(sums) if walk.minus_square else sums)


@pytest.mark.parametrize("case", range(len(NEAR_CANCELLING) + 1))
def test_the_bound_of_every_sum_holds_from_its_halves(case):
    # the halves' bounds, allowance included, against every solved norm
    if case < len(NEAR_CANCELLING):
        walk = _halves_of(*_near_cancelling(*NEAR_CANCELLING[case]))
    else:
        trivial = _flat(3, 14)
        walk = _halves_of(trivial, Povm(trivial.outcomes, 0 * trivial.elements))
    bounds, norms = _sum_bounds(walk)(0, len(walk.high)), _norms(walk)
    assert bounds.shape == norms.shape == (len(walk.high), 2**CHUNK_BITS)
    assert (bounds >= norms).all()
    # and the allowance is a rounding's worth: the bound of a scalar sum
    # is its norm, and of the cancelling sums no more than 1e-6 above it
    assert (bounds <= norms + 1e-6).any()


UNCERTAINTY_WALKS = {
    "random": partial(random_povm, seed=51),
    "flat": _flat,
    "split PVM": partial(_split_pvm, seed=52),
    "noisy PVM": partial(_split_pvm, seed=53, noise=1e-3),
    "zero-padded PVM": lambda d, n: _split_pvm(d, d, 54, zeros=n - d),
}


@pytest.mark.parametrize(
    "d, case", [(d, c) for d in (2, 3, 4, 8) for c in UNCERTAINTY_WALKS] + [(2, "cancelling")]
)
def test_the_bound_of_every_uncertainty_sum_holds(d, case):
    # the bound of ||S - S^2|| from the interval [t - r, t + r], allowance
    # included, against the norm of every matrix the walk would solve
    n = 13
    p = _cancelling_at_half(n, 55) if case == "cancelling" else UNCERTAINTY_WALKS[case](d, n)
    walk = gray_halves(linalg.hermitian_part(p.elements), "V")._replace(minus_square=True)
    bounds, norms = _sum_bounds(walk)(0, len(walk.high)), _norms(walk)
    assert bounds.shape == norms.shape == (2 ** (n - 1 - CHUNK_BITS), 2**CHUNK_BITS)
    assert (bounds >= norms).all()
    # the empty sum's bound is 0, so it is never gathered
    assert bounds[0, 0] == norms[0, 0] == 0
    if d == 2:
        # the ends are the eigenvalues: the bound is the norm but for the
        # allowances, and a radius that overshoots where the halves cancel
        assert (bounds <= norms + 1e-6).all()
    if case == "cancelling":
        # outcomes 0 and 11, at position 2^11 + 1: ||S - S^2|| = 1/4, but
        # the radius overshoots by about 4e-8, so g at its ends falls short
        # of 1/4 by about 2e-15, which the allowance covers
        radius = _sum_bounds(walk._replace(minus_square=False))(2, 3)[0, 1] - 0.5
        assert norms[2, 1] == 0.25 and radius > 1e-8
    if case == "zero-padded PVM":
        assert norms.max() < 1e-14
    _assert_v_l1_unpruned(p)


def test_d_l1_breaks_exact_ties_across_solves():
    # scalar differences of dyadic sizes: many subsets tie the maximum
    # exactly, in the first block's top bounds and in later rounds alike
    n = 16
    weights = np.array([1, 2, 1, 3, 1, 2, 1, 1, 3, 1, 2, 1, 1, 2, 1, 8]) / 32
    a = Povm(tuple(f"o{k}" for k in range(n)), weights[:, None, None] * np.eye(2))
    shifts = np.array([1, 1, -1] + [0] * 12 + [-1]) / 64
    b = Povm(a.outcomes, (weights - shifts)[:, None, None] * np.eye(2))
    dv, pos = _assert_d_l1_unpruned(a, b)
    # 2^12 subsets hold o0 and o1 but not o2, 128 in each stack
    assert dv.value == 2 / 64 and dv.witness[:2] == ("o0", "o1")


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
    # d = 4, n = 16: 2^15 = 32,768 subset sums, bounded from their halves;
    # the walk's 256 largest bounds hold the maximum, and no other bound
    # reaches it
    D_l1(random_povm(4, 16, seed=41), random_povm(4, 16, seed=42))
    assert solved == [256]


# d = 4: a sum's interval holds 1/2, so most bounds are 1/4 or more: after
# the 256 largest bounds, the first round's H^2 stage keeps most of it,
# and the rest of the sums that reach the maximum go in rounds of 1,024,
# 27,765 of the 32,768 the unpruned walk solves. d = 2: the bounds are
# the ends of each sum's spectrum, and the 256 largest hold the maximum.
PINNED = [(4, [256, 256] + [1024] * 26 + [629]), (2, [256])]


@pytest.mark.parametrize("d, calls", PINNED)
def test_uncertainty_sums_are_solved_in_pinned_calls(solved, d, calls):
    intrinsic_uncertainty_l1(random_povm(d, 16, seed=43))
    assert solved == calls


def test_theorem2_on_an_8x8_pair_solves_in_2_calls(solved):
    # X, Y, V_A and V_B are walks of one stack of 128 sums, solved together
    # last; the commutator's 16,384 products are bounded from their Gram
    # matrices, and the 256 largest bounds hold the maximum: 768 matrices
    # in all, against 2,022 in 10 calls when they were walked stack by stack
    a, b, f = random_povm(4, 8, seed=1), random_povm(4, 8, seed=2), random_povm(4, 64, seed=3)
    fo = f.outcomes
    f_a = OutcomeMap(fo, a.outcomes, {o: a.outcomes[k // 8] for k, o in enumerate(fo)})
    f_b = OutcomeMap(fo, b.outcomes, {o: b.outcomes[k % 8] for k, o in enumerate(fo)})
    assert check_theorem2(a, b, f, f_a, f_b).satisfied
    assert solved == [256, 4 * 128]


def _distance_walk(a, b):
    """The `D_l1` walk of two POVMs, and how many matrices it holds."""
    return [(np.array([0]), _halves_of(a, b))], 2 ** (a.n_outcomes - 1)


def _uncertainty_walk(p):
    """The ||S - S^2|| walk of a POVM, and how many matrices it holds."""
    return uncertainty_walks("l1", p.stack), 2 ** (p.n_outcomes - 1)


def _commutator_walk(a, b):
    """The subset commutator walk of two POVMs, and how many matrices it holds."""
    return commutator_walks("l1", a.stack, b.stack), 2 ** (a.n_outcomes + b.n_outcomes - 2)


def _zero_padded_walk(d, n):
    """The ||S - S^2|| walk of a d-outcome PVM padded to n outcomes with zeros."""
    return _uncertainty_walk(_split_pvm(d, d, 54, zeros=n - d))


PADDED = [(2, 12), (2, 14), (4, 16)]
# the walks of the pinned calls above, the commuting pairs, and rounding-
# level walks: PVMs padded with zero outcomes, where every bound is an
# allowance far above every norm
LONG_WALKS = {
    "D_l1": lambda: _distance_walk(random_povm(4, 16, seed=41), random_povm(4, 16, seed=42)),
    "theorem2 pair": lambda: _commutator_walk(random_povm(4, 8, seed=1), random_povm(4, 8, seed=2)),
    "zero bounds": lambda: _commutator_walk(random_povm(2, 2, seed=3), random_povm(2, 16, seed=4)),
    "zero bounds flipped": lambda: _commutator_walk(
        random_povm(2, 16, seed=4), random_povm(2, 2, seed=3)
    ),
    "V d=2": lambda: _uncertainty_walk(random_povm(2, 16, seed=43)),
    "V d=4": lambda: _uncertainty_walk(random_povm(4, 16, seed=43)),
    "commuting 8x8": lambda: _commutator_walk(_diagonal(4, 8, 1), _diagonal(4, 8, 2)),
    "commuting 3x12": lambda: _commutator_walk(_diagonal(2, 3, 1), _diagonal(2, 12, 2)),
}
LONG_WALKS.update(
    {f"zero-padded PVM d={d} n={n}": partial(_zero_padded_walk, d, n) for d, n in PADDED}
)


@pytest.mark.parametrize("case", LONG_WALKS)
def test_no_long_walk_solves_more_than_its_unpruned_walk(solved, case):
    walks, matrices = LONG_WALKS[case]()
    max_norms([walks], 1)
    assert sum(solved) <= matrices


# --- many walks at once ---


def _random_hermitian(rng, count, d):
    x = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    return linalg.hermitian_part(x)


def _ragged(povms):
    """POVM objects as one stack, item by item."""
    dims = np.array([p.dim for p in povms])
    blocks = {d: np.concatenate([p.elements for p in povms if p.dim == d]) for d in set(dims.flat)}
    counts = np.array([p.n_outcomes for p in povms])
    return Ragged(dims, counts, blocks, [p.outcomes for p in povms])


def _stacked(instances):
    """Instances (A, B, F, f_A, f_B) as the arguments of `tradeoff_reports`."""
    a, b, f, f_a, f_b = zip(*instances)
    choices = [
        np.concatenate([outcome_choice(p.outcomes, m) for p, m in zip(f, maps)])
        for maps in (f_a, f_b)
    ]
    return (_ragged(a), _ragged(b), _ragged(f), *choices)


def _objects(a, b, f, to_a, to_b):
    """The instances of `tradeoff_reports` arguments as (A, B, F, f_A, f_B)."""
    first = np.cumsum(f.counts) - f.counts
    instances = []
    for i in range(len(f.counts)):
        pa, pb, pf = a.povm(i), b.povm(i), f.povm(i)
        picks = [to[first[i] : first[i] + f.counts[i]] for to in (to_a, to_b)]
        maps = [
            OutcomeMap(pf.outcomes, p.outcomes, dict(zip(pf.outcomes, np.array(p.outcomes)[pick])))
            for p, pick in zip((pa, pb), picks)
        ]
        instances.append((pa, pb, pf, *maps))
    return instances


def _mixed_walks():
    """Walks of dimensions 2, 3, 4 and 8, interleaved: one-stack walks of
    1 to 40 matrices, one of more than 2^CHUNK_BITS, subset walks of 13 to 16
    outcomes that prune, one of them of S - S^2, and walks whose matrices
    tie, within a stack and across stacks. A one-stack walk is an array and
    a subset walk its `Halves`, and item i of each quantity of
    `_quantities` is walk i."""
    rng = np.random.default_rng(90)
    walks = []
    for k, d in enumerate([2, 3, 4, 8] * 12):
        walks.append(_random_hermitian(rng, 1 + (7 * k) % 40, d))
    walks.insert(5, _random_hermitian(rng, 2**CHUNK_BITS + 300, 2))
    for d, n in [(2, 16), (3, 15), (4, 14), (8, 13)]:
        a, b = random_povm(d, n, seed=d + n), random_povm(d, n, seed=100 + d)
        walks.insert(3 * d, _halves_of(a, b))
    # ties: a repeated matrix, a zero distance over 8 stacks, scalar sums
    m = _random_hermitian(rng, 1, 3)
    walks.insert(7, np.concatenate([m, m, 0.5 * m, m]))
    p = random_povm(3, 14, seed=4)
    walks.insert(20, _halves_of(p, p))
    walks.append(_halves_of(_flat(4, 14), random_povm(4, 14, seed=6)))
    e = linalg.hermitian_part(random_povm(2, 14, seed=8).elements)
    walks.append(gray_halves(e, "V")._replace(minus_square=True))
    return walks


def _quantity(walks, size):
    """`max_norms` pairs (items, walk) of a list of walks: `Halves` as they
    are, and the one-stack walks between two of them as `Segments` of at
    most `size` items of one dimension."""
    pairs, run = [], []

    def cut():
        for d in sorted({walks[i].shape[-1] for i in run}):
            same = [i for i in run if walks[i].shape[-1] == d]
            for k in range(0, len(same), size):
                stacks = [walks[i] for i in same[k : k + size]]
                segments = Segments(np.concatenate(stacks), np.array([len(s) for s in stacks]))
                pairs.append((np.array(same[k : k + size]), segments))
        run.clear()

    for i, w in enumerate(walks):
        if isinstance(w, Halves):
            cut()
            pairs.append((np.array([i]), w))
        else:
            run.append(i)
    cut()
    return pairs


def _quantities():
    """Two quantities of the `_mixed_walks`, as `max_norms` takes them: the
    walks in order with `Segments` of up to 5 items, and in reverse with one
    item each; and the walks of each quantity's items."""
    walks = _mixed_walks()
    return [_quantity(walks, 5), _quantity(walks[::-1], 1)], [walks, walks[::-1]]


def _alone(walk):
    """`max_norms` of one walk, an array or `Halves`, on its own."""
    if not isinstance(walk, Halves):
        walk = Segments(walk, np.array([len(walk)]))
    ((values, positions, (matrix,)),) = max_norms([[(np.array([0]), walk)]], 1)
    return float(values[0]), int(positions[0]), matrix


def _assert_items(found, expected):
    """A `max_norms` result of one quantity against (value, position,
    matrix) for each item."""
    values, positions, matrices = found
    assert len(values) == len(positions) == len(matrices) == len(expected)
    for i, (value, pos, matrix) in enumerate(expected):
        assert (values[i], positions[i]) == (value, pos)
        assert matrices[i].tobytes() == matrix.tobytes()


def _assert_same(found, expected):
    assert len(found) == len(expected)
    for (values, positions, matrices), other in zip(found, expected):
        _assert_items(other, list(zip(values, positions, matrices)))


def test_many_walks_equal_each_walk_alone():
    quantities, walks = _quantities()
    # the subset walks span several stacks and prune
    assert sum(isinstance(w, Halves) for w in walks[0]) == 7
    assert sum(isinstance(w, Segments) for _, w in quantities[0]) < len(walks[0]) - 7
    found = max_norms(quantities, len(walks[0]))
    assert len(found) == 2
    for one, ws in zip(found, walks):
        _assert_items(one, [_alone(w) for w in ws])
        _assert_items(one, [_unpruned(_stacks(w)) for w in ws])
    # the ties break to the first maximum
    values, positions, _ = found[0]
    assert positions[7] == 0
    assert (values[20], positions[20]) == (0.0, 0)


def test_no_solve_takes_more_than_a_chunk(solved):
    quantities, walks = _quantities()
    max_norms(quantities, len(walks[0]))
    cap = 2**CHUNK_BITS
    # the item of 1,324 matrices too
    assert max(solved) <= cap
    # the `Segments` of each dimension are solved in about as many calls as
    # a chunk holds them; the rest are the stacks of the subset walks
    segments = {}
    for q in quantities:
        for _, w in q:
            if isinstance(w, Segments):
                segments[w.stack.shape[-1]] = segments.get(w.stack.shape[-1], 0) + len(w.stack)
    gray = sum(len(w.high) for q in quantities for _, w in q if isinstance(w, Halves))
    assert len(solved) <= gray + sum(math.ceil(n / (cap - 40)) + 1 for n in segments.values())


def _instances(count, seed, **sizes):
    return random_instances(np.random.default_rng(seed), count, **sizes)


def _assert_reports_equal(batched, single):
    # a float's repr is exact, and tells -0.0 from 0.0
    assert repr(batched) == repr(single)


@pytest.mark.parametrize(
    "inequality_id, check, sizes",
    [
        ("theorem1", check_theorem1, {}),
        ("theorem2", check_theorem2, {"max_dim": 3, "max_outcomes": 3, "max_joint_outcomes": 6}),
    ],
)
def test_tradeoff_reports_equal_one_instance_calls(inequality_id, check, sizes):
    stacks = _instances(40, 91, **sizes)
    _assert_reports_equal(
        tradeoff_reports(inequality_id, *stacks), [check(*i) for i in _objects(*stacks)]
    )


@pytest.mark.parametrize(
    "inequality_id, dist, uncertainty, commutator, sizes",
    [
        ("theorem1", D_inf, intrinsic_uncertainty_inf, max_commutator_norm, {}),
        (
            "theorem2",
            D_l1,
            intrinsic_uncertainty_l1,
            max_subset_commutator_norm,
            {"max_dim": 3, "max_outcomes": 3, "max_joint_outcomes": 6},
        ),
    ],
)
def test_tradeoff_reports_hold_each_quantity_in_its_field(
    inequality_id, dist, uncertainty, commutator, sizes
):
    # the five maxima of each instance, reduced together, land in their own
    # fields: X and Y from the marginals, V_A and V_B, and the right side
    stacks = _instances(20, 93, **sizes)
    reports = tradeoff_reports(inequality_id, *stacks)
    for report, (a, b, f, f_a, f_b) in zip(reports, _objects(*stacks), strict=True):
        x = dist(a, marginalize(f, f_a)).value
        y = dist(b, marginalize(f, f_b)).value
        v_a, v_b = uncertainty(a), uncertainty(b)
        expected = (x, y, v_a, v_b, theorem1_lhs(x, y, v_a, v_b), commutator(a, b))
        got = (report.X, report.Y, report.V_A, report.V_B, report.lhs, report.rhs)
        assert repr(got) == repr(expected)


def test_a_walk_of_several_stacks_leaves_the_waiting_walks_batched(solved):
    # the `Segments` met before a subset walk of their dimension are solved
    # with the ones met after it, in one call
    rng = np.random.default_rng(95)
    gray = gray_halves(_random_hermitian(rng, 13, 2), "V")
    _alone(gray)
    gray_calls = len(solved)
    solved.clear()
    ones = [_random_hermitian(rng, n, 2) for n in (5, 7, 9)]
    segments = [Segments(m, np.array([len(m)])) for m in ones]
    pairs = [(np.array([i]), w) for i, w in enumerate([segments[0], gray, *segments[1:]])]
    found = max_norms([pairs], 4)
    assert solved.count(5 + 7 + 9) == 1
    assert len(solved) == gray_calls + 1
    _assert_items(found[0], [_alone(w) for w in (ones[0], gray, ones[1], ones[2])])


def test_many_walks_are_read_a_chunk_at_a_time(monkeypatch):
    # a dimension's waiting `Segments` are solved as soon as one more would
    # overfill a chunk, so pairs from a generator are not all held at once
    cap = 2**CHUNK_BITS
    taken, solves = [], []
    herm_norm_stack = linalg.herm_norm_stack

    def counted(ms):
        solves.append((len(taken), len(ms)))
        return herm_norm_stack(ms)

    monkeypatch.setattr(linalg, "herm_norm_stack", counted)

    def walks():
        rng = np.random.default_rng(94)
        for k in range(3 * cap):
            taken.append(k)
            yield np.array([k]), Segments(_random_hermitian(rng, 1, 2), np.array([1]))

    ((values, _, _),) = max_norms([walks()], 3 * cap)
    assert len(values) == 3 * cap
    assert solves == [(cap + 1, cap), (2 * cap + 1, cap), (3 * cap, cap)]


def test_instrument_reports_equal_one_instance_calls():
    # a projective F: the sharp product of two random-basis PVMs, with each
    # outcome map sending F's outcome pairs to random outcomes of A and B
    rng = np.random.default_rng(92)
    instances = []
    for k in range(10):
        d = 2 + k % 3
        a, b = random_povm(d, 3, seed=200 + k), random_povm(d, 2, seed=300 + k)
        u = np.linalg.qr(_random_hermitian(rng, 1, d)[0] + 1j * np.eye(d))[0]
        f = Povm(
            tuple(f"f{j}" for j in range(d)),
            np.stack([np.outer(u[:, j], u[:, j].conj()) for j in range(d)]),
        )
        to_a = {o: a.outcomes[j % 3] for j, o in enumerate(f.outcomes)}
        to_b = {o: b.outcomes[j % 2] for j, o in enumerate(f.outcomes)}
        f_a = OutcomeMap(f.outcomes, a.outcomes, to_a)
        f_b = OutcomeMap(f.outcomes, b.outcomes, to_b)
        instances.append((a, b, f, f_a, f_b))
    _assert_reports_equal(
        tradeoff_reports("cor_pvm_instrument", *_stacked(instances)),
        [check_corollary_pvm_instrument(*i) for i in instances],
    )


@pytest.mark.parametrize("metric, single", [("inf", D_inf), ("l1", D_l1)])
def test_observable_distances_equal_one_pair_calls(metric, single):
    pairs = []
    for k in range(30):
        d, n = 2 + k % 3, 2 + k % 5
        pairs.append((random_povm(d, n, seed=400 + k), random_povm(d, n, seed=500 + k)))
    pairs.append(pairs[0][::-1])
    pairs.append((pairs[1][0], pairs[1][0]))
    found = observable_distances(metric, *(_ragged(side) for side in zip(*pairs)))
    assert len(found[0]) == len(pairs)
    for i, (a, b) in enumerate(pairs):
        dv, dv0 = distance_value(metric, found, i, a.outcomes), single(a, b)
        assert repr((dv.value, dv.witness)) == repr((dv0.value, dv0.witness))
        assert dv.witness_matrix.tobytes() == dv0.witness_matrix.tobytes()


@pytest.mark.parametrize(
    "metric, single", [("inf", intrinsic_uncertainty_inf), ("l1", intrinsic_uncertainty_l1)]
)
def test_intrinsic_uncertainties_equal_one_povm_calls(metric, single):
    povms = [random_povm(2 + k % 3, 1 + k % 6, seed=600 + k) for k in range(30)]
    povms.append(random_povm(3, 13, seed=7))  # a subset walk of several stacks
    found = intrinsic_uncertainties(metric, _ragged(povms)).tolist()
    assert repr(found) == repr([single(p) for p in povms])


def test_stacked_forms_reject_unlike_stacks():
    # the stacks of one call pair their items one to one, of the same
    # dimension (and, for the distances, outcome count)
    a = _ragged([random_povm(2, 3, seed=1), random_povm(3, 3, seed=2)])
    b = _ragged([random_povm(3, 3, seed=3), random_povm(2, 3, seed=4)])
    with pytest.raises(ValueError, match="differ in their items' dimensions or outcome counts"):
        observable_distances("inf", a, b)
    choice = np.zeros(6, dtype=int)
    with pytest.raises(ValueError, match="^the instances' POVMs differ in dimension$"):
        tradeoff_reports("theorem1", a, b, a, choice, choice)


def _sums_by_mask(elements):
    """The sum over mask i of every element but the last, at position i,
    each added up on its own."""
    free = elements[:-1]
    sums = []
    for mask in range(2 ** len(free)):
        sums.append(sum((e for j, e in enumerate(free) if mask >> j & 1), np.zeros_like(free[0])))
    return np.stack(sums)


def test_walk_position_is_the_mask():
    # 13 elements, four stacks: every sum and every label set is that of
    # the mask equal to its position; integer entries make each sum exact
    rng = np.random.default_rng(13)
    elements = rng.integers(-8, 8, (13, 2, 2)) + 1j * rng.integers(-8, 8, (13, 2, 2))
    stacks = _stacks(gray_halves(elements, "V"))
    assert len(stacks) == 4
    assert np.array_equal(np.concatenate(stacks), _sums_by_mask(elements))
    labels = tuple(f"o{k}" for k in range(13))
    for p in range(2**12):
        assert sum(2 ** labels.index(lab) for lab in gray_labels(p, labels)) == p


@pytest.mark.parametrize("nx, ny", [(3, 3), (6, 6)])
def test_gray_products_equal_the_products_of_the_subset_sums(nx, ny):
    # X_D @ Y_E of a pair whose walk is one stack, X_D in mask order and
    # Y_E running fastest
    xs = linalg.hermitian_part(random_povm(2, nx, seed=nx).elements)
    ys = linalg.hermitian_part(random_povm(2, ny, seed=100 + ny).elements)
    sums_x, sums_y = _sums_by_mask(xs), _sums_by_mask(ys)
    # elementwise, not matmul, so the reference is a product of its own
    want = (sums_x[:, None, :, :, None] * sums_y[None, :, None]).sum(axis=-2).reshape(-1, 2, 2)
    got = gray_products(xs, ys, "comm")
    assert got.shape == want.shape and len(got) <= 2**CHUNK_BITS
    assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("nx, ny", [(12, 3), (3, 12), (11, 10)])
def test_products_hold_the_subset_sums_in_mask_order(nx, ny):
    # past one stack, pair (D, E) is at position mask_D * 2^(ny - 1) + mask_E
    # of a `Products` walk, which holds each list's sums as `Halves`: the
    # sum it builds at each mask is that of the mask
    xs = linalg.hermitian_part(random_povm(2, nx, seed=nx).elements)
    ys = linalg.hermitian_part(random_povm(2, ny, seed=100 + ny).elements)
    walk = Products.of(xs, ys, "comm")
    assert np.array_equal(walk.x_elements, xs[:-1]) and np.array_equal(walk.y_elements, ys[:-1])
    for halves, elements in ((walk.x, xs), (walk.y, ys)):
        sums = _sums_at(halves, np.arange(2 ** (len(elements) - 1)))
        assert np.abs(sums - _sums_by_mask(elements)).max() <= 1e-13


def test_a_walk_of_several_stacks_starts_with_a_full_one():
    # every row of the `Halves` of a walk of several stacks is full;
    # `one_stack` tells the walks of one stack, which `gray_walk` returns
    # whole, from the others, which it refuses
    cap = 2**CHUNK_BITS
    e = linalg.hermitian_part(random_povm(2, 14, seed=3).elements)
    for n in range(1, 15):
        sizes = [len(s) for s in _stacks(gray_halves(e[:n], "V"))]
        assert max(sizes) <= cap and sum(sizes) == 2 ** (n - 1)
        assert len(sizes) == 1 or sizes[0] == cap
        assert one_stack(n) == (len(sizes) == 1)
        if one_stack(n):
            assert np.array_equal(gray_walk(e[:n], "V"), _stacks(gray_halves(e[:n], "V"))[0])
        else:
            with pytest.raises(ValueError, match=f"^V: a walk of {n} elements goes by its halves"):
                gray_walk(e[:n], "V")
    # a pair of lists is one stack of products, or a `Products` walk
    for nx in (1, 2, 5, 8, 11, 12):
        for ny in (1, 2, 5, 8, 11, 12):
            if one_stack(nx, ny):
                assert len(gray_products(e[:nx], e[:ny], "comm")) == 2 ** (nx + ny - 2) <= cap
            elif nx + ny <= 21:
                x, y, _, _ = Products.of(e[:nx], e[:ny], "comm")
                pairs = len(x.low) * len(x.high) * len(y.low) * len(y.high)
                assert pairs == 2 ** (nx + ny - 2) > cap


def test_metric_walk_is_one_stack_or_the_gray_walk():
    # "inf" cuts each dimension's block into its items; "l1" sums each item's
    # subsets side by side with the items of its shape while they fit one
    # stack, and walks a longer item on its own
    povms = [random_povm(3, 12, seed=4), random_povm(3, 3, seed=5), random_povm(2, 3, seed=6)]
    povms.append(random_povm(3, 3, seed=7))
    stack = _ragged(povms)
    e = [linalg.hermitian_part(p.elements) for p in povms]
    walks = metric_walks("inf", stack, "V")
    assert [items.tolist() for items, _ in walks] == [[2], [0, 1, 3]]
    assert walks[1][1].stack is stack.blocks[3] and walks[1][1].counts.tolist() == [12, 3, 3]
    walks = {tuple(np.ravel(items).tolist()): w for items, w in metric_walks("l1", stack, "V")}
    assert set(walks) == {(2,), (1, 3), (0,)}
    assert isinstance(walks[1, 3], Segments) and walks[1, 3].counts.tolist() == [4, 4]
    h = stack.with_blocks({d: linalg.hermitian_part(b) for d, b in stack.blocks.items()})
    sums = {tuple(np.ravel(i).tolist()): w for i, w in metric_walks("l1", h, "V")}
    side_by_side = np.concatenate([gray_walk(e[1], "V"), gray_walk(e[3], "V")])
    assert np.array_equal(sums[1, 3].stack, side_by_side)
    # a longer item is walked on its own, by its halves, those of its
    # elements alone
    low, high, minus_square = sums[0,]
    alone = gray_halves(e[0], "V")
    assert len(high) == 2 and np.array_equal(low, alone.low) and np.array_equal(high, alone.high)
    # the intrinsic uncertainty's walks: S - S^2 of the matrices or sums,
    # and the same halves, marked, for the longer item
    uncertain = {tuple(np.ravel(i).tolist()): w for i, w in uncertainty_walks("l1", stack)}
    assert np.array_equal(uncertain[1, 3].stack, _minus_square(side_by_side))
    assert not minus_square and uncertain[0,].minus_square
    assert all(np.array_equal(u, w) for u, w in zip(uncertain[0,][:2], (low, high)))
    ((_, inf),) = [w for w in uncertainty_walks("inf", stack) if len(w[0]) == 3]
    assert np.array_equal(inf.stack, _minus_square(stack.hermitian.blocks[3]))
    # only the subset walk has a capacity limit, met before any sum is taken
    many = _ragged([Povm(tuple(f"o{k}" for k in range(21)), np.stack([np.eye(2) / 21] * 21))])
    assert len(metric_walks("inf", many, "V")) == 1
    with pytest.raises(CapacityError, match="^V enumerates all subsets of 21 outcomes"):
        metric_walks("l1", many, "V")
    with pytest.raises(CapacityError, match="^the subset-summed intrinsic uncertainty enumerates"):
        uncertainty_walks("l1", many)
