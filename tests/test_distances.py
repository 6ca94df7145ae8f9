import numpy as np
import pytest

import jointmeas.distances as distances
from jointmeas import CapacityError, linalg
from jointmeas.distances import D_inf, D_l1, dist_inf, dist_l1
from jointmeas.povm import (
    Povm,
    bloch_pvm,
    noisy_qubit_povm,
    outcome_probabilities,
    random_povm,
    random_states,
)


class TestDistributionDistances:
    def test_equal_distributions(self):
        p = [0.2, 0.3, 0.5]
        assert dist_inf(p, p) == 0.0
        assert dist_l1(p, p) == 0.0

    def test_disjoint_support(self):
        assert dist_inf([1, 0], [0, 1]) == 1.0
        assert dist_l1([1, 0], [0, 1]) == 1.0

    def test_worked_example(self):
        p = [0.5, 0.3, 0.2]
        q = [0.2, 0.5, 0.3]
        assert dist_inf(p, q) == pytest.approx(0.3, abs=1e-15)
        assert dist_l1(p, q) == pytest.approx(0.3, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dist_inf([1, 0], [1, 0, 0])
        with pytest.raises(ValueError):
            dist_l1([1, 0], [1, 0, 0])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            dist_inf([0.5, 0.4], [0.5, 0.5])

    @pytest.mark.parametrize(
        "p, message",
        [
            ([np.nan, 1.0], "non-finite"),
            ([np.inf, -np.inf], "non-finite"),
            ([1.5, -0.5], "negative entry"),
        ],
    )
    @pytest.mark.parametrize("dist", [dist_inf, dist_l1])
    def test_invalid_entries_rejected(self, dist, p, message):
        with pytest.raises(ValueError, match=message):
            dist(p, [0.5, 0.5])
        with pytest.raises(ValueError, match=message):
            dist([0.5, 0.5], p)

    def test_roundoff_below_zero_accepted(self):
        assert dist_l1([1.0 + 1e-12, -1e-12], [0.5, 0.5]) == pytest.approx(0.5, abs=1e-11)

    @pytest.mark.parametrize("dist", [dist_inf, dist_l1])
    def test_stacks_give_one_distance_per_row(self, dist):
        p = [[0.5, 0.3, 0.2], [1.0, 0.0, 0.0]]
        q = [[0.2, 0.5, 0.3], [0.0, 0.5, 0.5]]
        got = dist(p, q)
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert got.tolist() == [dist(a, b) for a, b in zip(p, q)]

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ([np.nan, 1.0], "non-finite"),
            ([0.5, 0.4], "not normalized"),
            ([1.5, -0.5], "negative entry"),
        ],
    )
    @pytest.mark.parametrize("dist", [dist_inf, dist_l1])
    def test_stacks_check_every_row(self, dist, bad_row, message):
        good = [[0.5, 0.5], [0.25, 0.75]]
        with pytest.raises(ValueError, match=message):
            dist([good[0], bad_row], good)
        with pytest.raises(ValueError, match=message):
            dist(good, [bad_row, good[1]])


def _dist_at_states(p, q, rhos, metric):
    """The distribution distance in each state of a stack (k, d, d)."""
    return metric(outcome_probabilities(p, rhos), outcome_probabilities(q, rhos))


def _subset_sum(p, labels):
    """Sum of p's elements over the outcomes named in `labels`."""
    return p.elements[[p.index(lab) for lab in labels]].sum(axis=0)


class TestDInf:
    def test_zero_on_equal(self):
        a = bloch_pvm((0, 0, 1))
        assert D_inf(a, a).value == 0.0

    def test_orthogonal_qubit_axes(self):
        # eigenvalues of (sigma_z - sigma_x)/2 are +/- 1/sqrt(2)
        dv = D_inf(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)))
        assert dv.value == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_outcome_set_mismatch(self):
        a = bloch_pvm((0, 0, 1))
        b = Povm(("u", "v"), a.elements)
        with pytest.raises(ValueError):
            D_inf(a, b)

    @pytest.mark.parametrize("distance", [D_inf, D_l1])
    def test_dimension_mismatch(self, distance):
        # same outcome labels, so only the dimensions differ
        with pytest.raises(ValueError) as err:
            distance(random_povm(2, 3, seed=1), random_povm(3, 3, seed=1))
        assert str(err.value) == "dimension mismatch: 2 vs 3"

    def test_witness_attains_and_states_never_exceed(self):
        rng = np.random.default_rng(30)
        a = noisy_qubit_povm((0, 0, 1), 1.0)
        # depolarized version of the same observable
        eta = 0.6
        b = noisy_qubit_povm((0, 0, 1), eta)
        dv = D_inf(a, b)
        at_witness = _dist_at_states(a, b, dv.witness_state[None], dist_inf)[0]
        assert at_witness == pytest.approx(dv.value, abs=1e-8)
        sampled = _dist_at_states(a, b, random_states(2, 10_000, rng), dist_inf)
        assert (sampled <= dv.value + 1e-9).all()

    def test_witness_outcome_is_argmax(self):
        a = random_povm(3, 3, seed=1)
        b = random_povm(3, 3, seed=2)
        dv = D_inf(a, b)
        per_outcome = {
            o: np.abs(np.linalg.eigvalsh(a[o] - b[o])).max() for o in a.outcomes
        }
        assert per_outcome[dv.witness] == pytest.approx(dv.value, abs=1e-12)
        assert dv.value == pytest.approx(max(per_outcome.values()), abs=1e-12)


def _enumerated_l1(a, b):
    """max over all outcome subsets of ||sum (A_a - B_a)||, in binary order."""
    n = a.n_outcomes
    best = 0.0
    for mask in range(1 << n):
        s = np.zeros((a.dim, a.dim), dtype=complex)
        for k in range(n):
            if mask >> k & 1:
                s = s + (a.elements[k] - b.elements[k])
        best = max(best, float(np.abs(np.linalg.eigvalsh((s + s.conj().T) / 2)).max()))
    return best


class TestDL1:
    def test_zero_on_equal(self):
        a = random_povm(2, 3, seed=3)
        assert D_l1(a, a).value == 0.0

    def test_two_outcome_reduces_to_inf(self):
        a = noisy_qubit_povm((0, 0, 1), 0.9)
        b = noisy_qubit_povm((1, 0, 0), 0.8)
        assert D_l1(a, b).value == pytest.approx(D_inf(a, b).value, abs=1e-12)

    def test_dominates_inf_with_more_outcomes(self):
        a = random_povm(2, 3, seed=4)
        b = random_povm(2, 3, seed=5)
        assert D_l1(a, b).value >= D_inf(a, b).value - 1e-12

    def test_matches_full_subset_enumeration(self):
        a = random_povm(3, 4, seed=6)
        b = random_povm(3, 4, seed=7)
        assert D_l1(a, b).value == pytest.approx(_enumerated_l1(a, b), abs=1e-12)

    def test_matches_full_subset_enumeration_across_chunks(self):
        # 12 outcomes give 2^11 subset sums, two stacks of 2^CHUNK_BITS; the
        # maximizing subset contains o10, so it lies in the second stack
        a = random_povm(2, 12, seed=12)
        b = random_povm(2, 12, seed=13)
        dv = D_l1(a, b)
        assert "o10" in dv.witness
        assert dv.value == pytest.approx(_enumerated_l1(a, b), abs=1e-12)
        s = _subset_sum(a, dv.witness) - _subset_sum(b, dv.witness)
        assert float(np.abs(np.linalg.eigvalsh(s)).max()) == pytest.approx(dv.value, abs=1e-12)

    def test_exact_tie_breaks_to_first_in_gray_order(self):
        # {o0, o1} and {o1} give the same difference 0.2 P; Gray order visits
        # mask 0b11 before 0b10, binary order the other way round
        p = np.diag([1.0, 0.0])
        third = np.eye(2) / 3
        a = Povm(("o0", "o1", "o2"), np.stack([third] * 3))
        b = Povm(("o0", "o1", "o2"), np.stack([third, third - 0.2 * p, third + 0.2 * p]))
        dv = D_l1(a, b)
        assert dv.witness == ("o0", "o1")
        assert dv.value == pytest.approx(0.2, abs=1e-12)

    def test_witness_subset_attains(self):
        a = random_povm(2, 3, seed=8)
        b = random_povm(2, 3, seed=9)
        dv = D_l1(a, b)
        s = _subset_sum(a, dv.witness) - _subset_sum(b, dv.witness)
        assert float(np.abs(np.linalg.eigvalsh(s)).max()) == pytest.approx(dv.value, abs=1e-12)
        at_witness = _dist_at_states(a, b, dv.witness_state[None], dist_l1)[0]
        assert at_witness == pytest.approx(dv.value, abs=1e-8)

    def test_capacity_error(self):
        n = 21
        a = Povm(tuple(f"o{k}" for k in range(n)), np.stack([np.eye(2) / n] * n))
        with pytest.raises(CapacityError):
            D_l1(a, a)


class TestLazyWitness:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        real = distances._extremal_pure_state

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(distances, "_extremal_pure_state", counting)
        return calls

    @pytest.mark.parametrize("dist", [D_inf, D_l1])
    def test_state_built_on_first_read_only(self, counted, dist):
        a = random_povm(3, 4, seed=11)
        b = random_povm(3, 4, seed=12)
        dv = dist(a, b)
        assert counted == []
        first = dv.witness_state
        assert len(counted) == 1
        assert dv.witness_state is first
        assert len(counted) == 1
        assert first.shape == (3, 3) and first.dtype == complex
        assert not first.flags.writeable

    def test_inf_state_is_the_eager_one(self):
        a = random_povm(4, 3, seed=13)
        b = random_povm(4, 3, seed=14)
        dv = D_inf(a, b)
        diffs = linalg.hermitian_part(a.elements - b.elements)
        eager = distances._extremal_pure_state(diffs[a.index(dv.witness)])
        assert dv.witness_state.tobytes() == eager.tobytes()

    def test_l1_matrix_is_the_witness_subset_sum(self):
        a = random_povm(3, 5, seed=15)
        b = random_povm(3, 5, seed=16)
        dv = D_l1(a, b)
        s = linalg.hermitian_part(_subset_sum(a, dv.witness) - _subset_sum(b, dv.witness))
        assert np.allclose(dv.witness_matrix, s, atol=1e-14)
        eager = distances._extremal_pure_state(dv.witness_matrix)
        assert dv.witness_state.tobytes() == eager.tobytes()

    @pytest.mark.parametrize("dist", [D_inf, D_l1])
    def test_matrix_is_read_only(self, dist):
        dv = dist(random_povm(2, 3, seed=1), random_povm(2, 3, seed=2))
        with pytest.raises(ValueError):
            dv.witness_matrix[0, 0] = 0


class TestMetricAxioms:
    def test_on_random_triples(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            seeds = rng.integers(0, 2**32, size=3)
            p, q, r = (random_povm(dim, n, int(s)) for s in seeds)
            for dist in (D_inf, D_l1):
                assert dist(p, q).value == dist(q, p).value
                assert dist(p, p).value == 0.0
                assert dist(p, q).value <= dist(p, r).value + dist(r, q).value + 1e-9
