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
import weakref

import numpy as np
import pytest

from jointmeas import linalg
from jointmeas.bounds import (
    check_corollary_pvm_instrument,
    check_theorem1,
    check_theorem2,
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
)
from jointmeas.selftest import random_instances
from jointmeas.smearing import OutcomeMap, marginalize, outcome_choice
from jointmeas.subsets import (
    CHUNK_BITS,
    SUBSET_ENUMERATION_LIMIT,
    CapacityError,
    Segments,
    _sum_bounds,
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


# and, for the bounds from the halves, many blocks up to the capacity limit
@pytest.mark.parametrize("d, n", SIZES + [(2, SUBSET_ENUMERATION_LIMIT), (4, 18)])
def test_d_l1_equals_the_unpruned_walk(d, n):
    _assert_d_l1_unpruned(random_povm(d, n, seed=10 * d + n), random_povm(d, n, seed=500 + d))


@pytest.mark.parametrize("d, n", SIZES)
def test_intrinsic_uncertainty_l1_equals_the_unpruned_walk(d, n):
    p = random_povm(d, n, seed=30 * d + n)
    assert intrinsic_uncertainty_l1(p) == _v_l1_unpruned(p)


# (dim, A-outcomes, B-outcomes): each stack of A-sums is commuted in
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
    return gray_halves(linalg.hermitian_part(a.elements - b.elements), "D")


@pytest.mark.parametrize("case", range(len(NEAR_CANCELLING) + 1))
def test_the_bound_of_every_sum_holds_from_its_halves(case):
    # the halves' bounds, allowance included, against every solved norm
    if case < len(NEAR_CANCELLING):
        low, high = _halves_of(*_near_cancelling(*NEAR_CANCELLING[case]))
    else:
        n = 14
        trivial = Povm(tuple(f"o{k}" for k in range(n)), np.stack([np.eye(3) / n] * n))
        low, high = _halves_of(trivial, Povm(trivial.outcomes, 0 * trivial.elements))
    bounds = _sum_bounds(low, high)(0, len(high))
    norms = linalg.herm_norm_stack(high[:, None] + low[None, :])
    assert bounds.shape == norms.shape == (len(high), 2**CHUNK_BITS)
    assert (bounds >= norms).all()
    # and the allowance is a rounding's worth: the bound of a scalar sum
    # is its norm, and of the cancelling sums no more than 1e-6 above it
    assert (bounds <= norms + 1e-6).any()


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
    # d = 4, n = 16: 2^15 = 32,768 subset sums, bounded from their halves
    D_l1(random_povm(4, 16, seed=41), random_povm(4, 16, seed=42))
    assert sum(solved) <= 2**CHUNK_BITS


def test_crowded_maxima_go_on_unpruned(solved):
    # ||S - S^2|| of a d = 4 POVM's subset sums crowd its maximum, so the
    # bounds keep most of a sample of the first stack and no stack is pruned
    intrinsic_uncertainty_l1(random_povm(4, 16, seed=43))
    assert solved == [2**CHUNK_BITS] * 32


def test_theorem2_on_an_8x8_pair_solves_in_10_calls(solved):
    # X, Y, V_A and V_B are walks of one stack of 128 sums, solved together;
    # the commutator's 16 stacks of 1,024 products prune to 8 more calls,
    # 2,022 matrices in all (7 calls and 1,973 in reflected Gray order)
    a, b, f = random_povm(4, 8, seed=1), random_povm(4, 8, seed=2), random_povm(4, 64, seed=3)
    fo = f.outcomes
    f_a = OutcomeMap(fo, a.outcomes, {o: a.outcomes[k // 8] for k, o in enumerate(fo)})
    f_b = OutcomeMap(fo, b.outcomes, {o: b.outcomes[k % 8] for k, o in enumerate(fo)})
    assert check_theorem2(a, b, f, f_a, f_b).satisfied
    assert len(solved) == 10
    assert solved.count(4 * 128) == 1 and solved.count(2**CHUNK_BITS) == 1


# --- many walks at once ---


def _random_hermitian(rng, count, d):
    x = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    return linalg.hermitian_part(x)


def _differences(a, b):
    """The subset walk of the Hermitian differences of two POVMs, as a list."""
    return list(gray_walk(linalg.hermitian_part(a.elements - b.elements), "D"))


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
    outcomes that prune, and walks whose matrices tie, within a stack and
    across stacks. Each walk is a list of its stacks, and item i of each
    quantity of `_quantities` is walk i."""
    rng = np.random.default_rng(90)
    walks = []
    for k, d in enumerate([2, 3, 4, 8] * 12):
        walks.append([_random_hermitian(rng, 1 + (7 * k) % 40, d)])
    walks.insert(5, [_random_hermitian(rng, 2**CHUNK_BITS + 300, 2)])
    for d, n in [(2, 16), (3, 15), (4, 14), (8, 13)]:
        a, b = random_povm(d, n, seed=d + n), random_povm(d, n, seed=100 + d)
        walks.insert(3 * d, _differences(a, b))
    # ties: a repeated matrix, a zero distance over 8 stacks, scalar sums
    m = _random_hermitian(rng, 1, 3)
    walks.insert(7, [np.concatenate([m, m, 0.5 * m, m])])
    p = random_povm(3, 14, seed=4)
    walks.insert(20, _differences(p, p))
    trivial = Povm(tuple(f"o{k}" for k in range(14)), np.stack([np.eye(4) / 14] * 14))
    walks.append(_differences(trivial, random_povm(4, 14, seed=6)))
    return walks


def _quantity(walks, size):
    """`max_norms` pairs (items, walk) of a list of walks: a walk of several
    stacks as it is, and the one-stack walks between two such walks as
    `Segments` of at most `size` items of one dimension."""
    pairs, run = [], []

    def cut():
        for d in sorted({walks[i][0].shape[-1] for i in run}):
            same = [i for i in run if walks[i][0].shape[-1] == d]
            for k in range(0, len(same), size):
                stacks = [walks[i][0] for i in same[k : k + size]]
                segments = Segments(np.concatenate(stacks), np.array([len(s) for s in stacks]))
                pairs.append((np.array(same[k : k + size]), segments))
        run.clear()

    for i, w in enumerate(walks):
        if len(w) > 1:
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
    """`max_norms` of one walk, a list of stacks, on its own."""
    if len(walk) == 1:
        walk = Segments(walk[0], np.array([len(walk[0])]))
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
    assert sum(len(w) > 1 for w in walks[0]) == 6
    assert sum(isinstance(w, Segments) for _, w in quantities[0]) < len(walks[0]) - 6
    found = max_norms(quantities, len(walks[0]))
    assert len(found) == 2
    for one, ws in zip(found, walks):
        _assert_items(one, [_alone(w) for w in ws])
        _assert_items(one, [_unpruned(w) for w in ws])
    # the ties break to the first maximum
    values, positions, _ = found[0]
    assert positions[7] == 0
    assert (values[20], positions[20]) == (0.0, 0)


def test_walks_can_be_iterators():
    # a walk of several stacks is read once, as the generators of
    # `metric_walks` and `commutator_walks` are
    quantities, walks = _quantities()
    once = [[(i, w if isinstance(w, Segments) else iter(w)) for i, w in q] for q in quantities]
    _assert_same(max_norms(once, len(walks[0])), max_norms(quantities, len(walks[0])))


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
    gray = sum(len(w) for q in quantities for _, w in q if not isinstance(w, Segments))
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


def test_no_waiting_walk_is_a_suspended_generator():
    # `Segments` wait as arrays; a walk of several stacks is read to its end
    # as soon as it is met, before the next walk is read
    quantities, walks = _quantities()
    read, finished = [], set()

    def walk(key, stacks):
        try:
            yield from stacks
        finally:
            finished.add(key)

    def reading(q):
        for k, (items, w) in enumerate(quantities[q]):
            assert finished.issuperset(read)
            if not isinstance(w, Segments):
                read.append((q, k))
                w = walk((q, k), w)
            yield items, w

    found = max_norms([reading(0), reading(1)], len(walks[0]))
    assert finished == set(read) and len(read) == 12
    _assert_same(found, max_norms(quantities, len(walks[0])))


def test_a_walk_of_several_stacks_leaves_the_waiting_walks_batched(solved):
    # the `Segments` met before a subset walk of their dimension are solved
    # with the ones met after it, in one call
    rng = np.random.default_rng(95)
    gray = list(gray_walk(_random_hermitian(rng, 13, 2), "V"))
    _alone(gray)
    gray_calls = len(solved)
    solved.clear()
    ones = [_random_hermitian(rng, n, 2) for n in (5, 7, 9)]
    segments = [Segments(m, np.array([len(m)])) for m in ones]
    pairs = [(np.array([i]), w) for i, w in enumerate([segments[0], gray, *segments[1:]])]
    found = max_norms([pairs], 4)
    assert solved.count(5 + 7 + 9) == 1
    assert len(solved) == gray_calls + 1
    _assert_items(found[0], [_alone(w) for w in ([ones[0]], gray, [ones[1]], [ones[2]])])


def test_a_walk_of_several_stacks_holds_one_later_stack_at_a_time():
    # when the walk reads on, no later stack before the one being reduced
    # is still referenced (the maximum, and so its matrix, is in the first)
    cap = 2**CHUNK_BITS
    rng = np.random.default_rng(96)
    read = []

    def walk():
        first = _random_hermitian(rng, cap, 2)
        first[3] *= 100
        yield first
        for _ in range(6):
            assert all(r() is None for r in read[:-1])
            read.append(weakref.ref(stack := _random_hermitian(rng, cap, 2)))
            yield stack

    ((_, positions, _),) = max_norms([[(np.array([0]), walk())]], 1)
    assert positions[0] == 3 and len(read) == 6


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
    stacks = list(gray_walk(elements, "V"))
    assert len(stacks) == 4
    assert np.array_equal(np.concatenate(stacks), _sums_by_mask(elements))
    labels = tuple(f"o{k}" for k in range(13))
    for p in range(2**12):
        assert sum(2 ** labels.index(lab) for lab in gray_labels(p, labels)) == p


# 11 x 10 elements have as many subset pairs as 20 have subsets, the limit
@pytest.mark.parametrize("nx, ny", [(3, 3), (12, 3), (3, 12), (11, 10)])
def test_gray_products_equal_the_products_of_the_subset_sums(nx, ny):
    # X_D @ Y_E for each stack of X-sums and each stack of Y-sums of the two
    # subset walks, X_D in walk order and Y_E running fastest
    cap = 2**CHUNK_BITS
    xs = linalg.hermitian_part(random_povm(2, nx, seed=nx).elements)
    ys = linalg.hermitian_part(random_povm(2, ny, seed=100 + ny).elements)
    sums_x, sums_y = _sums_by_mask(xs), _sums_by_mask(ys)

    found = gray_products(xs, ys, "comm")
    sizes = []
    for jx in range(0, len(sums_x), cap):
        for jy in range(0, len(sums_y), cap):
            sx, sy = sums_x[jx : jx + cap], sums_y[jy : jy + cap]
            rows = max(64, cap // len(sy))
            for k in range(0, len(sx), rows):
                # elementwise, not matmul, so the reference is a product of its own
                want = (sx[k : k + rows, None, :, :, None] * sy[None, :, None]).sum(axis=-2)
                want = want.reshape(-1, 2, 2)
                got = [next(found)]
                while sum(map(len, got)) < len(want):
                    got.append(next(found))
                sizes += map(len, got)
                got = np.concatenate(got)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13
    assert next(found, None) is None
    assert sum(sizes) == len(sums_x) * len(sums_y)
    assert max(sizes) <= cap
    if len(sizes) > 1:
        assert sizes[0] == cap


def test_a_walk_of_several_stacks_starts_with_a_full_one():
    # `max_norms` solves the first stack of such a walk alone, which takes
    # no more calls than batching only if that stack is full; `one_stack`
    # tells the walks of one stack from the others
    cap = 2**CHUNK_BITS
    e = linalg.hermitian_part(random_povm(2, 14, seed=3).elements)
    for n in range(1, 15):
        sizes = [len(s) for s in gray_walk(e[:n], "V")]
        assert max(sizes) <= cap and sum(sizes) == 2 ** (n - 1)
        assert len(sizes) == 1 or sizes[0] == cap
        assert one_stack(n) == (len(sizes) == 1)
    for nx in (1, 2, 5, 8, 11, 12):
        for ny in (1, 2, 5, 8, 11, 12):
            if nx + ny <= 20:
                sizes = [len(s) for s in gray_products(e[:nx], e[:ny], "comm")]
                assert max(sizes) <= cap and sum(sizes) == 2 ** (nx + ny - 2)
                assert len(sizes) == 1 or sizes[0] == cap
                assert one_stack(nx, ny) == (len(sizes) == 1)


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
    side_by_side = np.concatenate([*gray_walk(e[1], "V"), *gray_walk(e[3], "V")])
    assert np.array_equal(sums[1, 3].stack, side_by_side)
    # a longer item is walked on its own: by its halves, whose stacks are
    # those of `gray_walk`, or, with a function of the sums, by them
    low, high = sums[0,]
    alone = list(gray_walk(e[0], "V"))
    halved = [high[j] + low for j in range(len(high))]
    assert len(halved) == 2 and all(np.array_equal(w, g) for w, g in zip(halved, alone))
    squared = {tuple(np.ravel(i).tolist()): w for i, w in metric_walks("l1", h, "V", np.square)}
    walked = list(squared[0,])
    assert len(walked) == 2 and all(np.array_equal(w, np.square(g)) for w, g in zip(walked, alone))
    # only the subset walk has a capacity limit, met before any sum is taken
    many = _ragged([Povm(tuple(f"o{k}" for k in range(21)), np.stack([np.eye(2) / 21] * 21))])
    assert len(metric_walks("inf", many, "V")) == 1
    with pytest.raises(CapacityError, match="^V enumerates all subsets of 21 outcomes"):
        metric_walks("l1", many, "V")
    ((_, walk),) = metric_walks("l1", many, "V", np.square)
    with pytest.raises(CapacityError, match="^V enumerates all subsets of 21 outcomes"):
        list(walk)
