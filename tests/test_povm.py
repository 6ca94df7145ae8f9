import numpy as np
import pytest

from jointmeas import CapacityError, linalg
from jointmeas.povm import (
    PAULI_X,
    PAULI_Z,
    Povm,
    PovmViolation,
    Ragged,
    bloch_pvm,
    intrinsic_uncertainty_inf,
    intrinsic_uncertainty_l1,
    noisy_qubit_povm,
    outcome_probabilities,
    projective,
    random_povm,
    random_ragged,
    random_states,
    validate_povm,
)


def trine_povm():
    """Three-outcome qubit POVM from equally spaced Bloch vectors in the
    x-z plane."""
    mats = []
    for k in range(3):
        ang = 2 * np.pi * k / 3
        mats.append((np.eye(2, dtype=complex) + np.sin(ang) * PAULI_X + np.cos(ang) * PAULI_Z) / 3)
    return Povm(("t0", "t1", "t2"), np.stack(mats))


class TestPovmConstruction:
    def test_requires_distinct_outcomes(self):
        with pytest.raises(ValueError):
            Povm(("a", "a"), np.stack([np.eye(2) / 2, np.eye(2) / 2]))

    def test_requires_at_least_one_outcome(self):
        with pytest.raises(ValueError):
            Povm((), np.zeros((0, 2, 2)))

    @pytest.mark.parametrize(
        "outcomes, elements, message",
        [
            (
                ("a",),
                np.zeros((1, 2, 3)),
                "elements must be a stack of square matrices, got shape (1, 2, 3)",
            ),
            (
                ("a",),
                np.zeros((2, 2)),
                "elements must be a stack of square matrices, got shape (2, 2)",
            ),
            (("a", "b"), np.zeros((1, 2, 2)), "2 outcomes but 1 element matrices"),
            (("a",), np.zeros((1, 0, 0)), "matrix dimension must be >= 1"),
            (("a",), np.array([[[1.0, 0.0], [0.0, np.nan]]]), "element entries must be finite"),
            (("a",), np.array([[[np.inf]]]), "element entries must be finite"),
        ],
        ids=["not-square", "not-a-stack", "count-mismatch", "dim-zero", "nan", "inf"],
    )
    def test_rejects_malformed_elements(self, outcomes, elements, message):
        with pytest.raises(ValueError) as err:
            Povm(outcomes, elements)
        assert str(err.value) == message

    def test_elements_are_read_only(self):
        p = bloch_pvm((0, 0, 1))
        with pytest.raises(ValueError):
            p.elements[0, 0, 0] = 5.0

    def test_label_lookup(self):
        p = noisy_qubit_povm((0, 0, 1), 0.5)
        assert np.allclose(p["+"], (np.eye(2) + 0.5 * PAULI_Z) / 2)
        with pytest.raises(KeyError):
            p["nope"]


class TestValidatePovm:
    def test_trivial_pair_is_valid(self):
        p = Povm(("a", "b"), np.stack([np.eye(2) / 2, np.eye(2) / 2]))
        assert validate_povm(p) == []

    def test_reports_negative_eigenvalue(self):
        p = Povm(("a", "b"), np.stack([np.diag([1.1, 0.0]), np.diag([-0.1, 1.0])]))
        report = validate_povm(p)
        kinds = {v.kind for v in report}
        assert "positivity" in kinds
        neg = next(v for v in report if v.kind == "positivity")
        assert neg.outcome == "b"
        assert neg.magnitude == pytest.approx(0.1, abs=1e-12)

    def test_reports_completeness_deviation(self):
        p = Povm(("a", "b"), np.stack([1.01 * np.eye(2) / 2, 1.01 * np.eye(2) / 2]))
        report = validate_povm(p)
        assert [v.kind for v in report] == ["completeness"]
        assert report[0].magnitude == pytest.approx(0.01, abs=1e-12)

    def test_reports_hermiticity(self):
        bad = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        p = Povm(("a", "b"), np.stack([bad, np.eye(2) - bad]))
        kinds = {v.kind for v in validate_povm(p)}
        assert "hermiticity" in kinds

    def test_report_order_and_hermiticity_before_positivity(self):
        # a has a negative eigenvalue; b is not Hermitian, and the negative
        # eigenvalue of its Hermitian part goes unreported; c is valid
        p = Povm(
            ("a", "b", "c"),
            np.stack(
                [
                    np.diag([-0.05, 0.4]),
                    np.array([[0.5, 0.6], [0.0, 0.1]]),
                    np.array([[0.55, -0.3], [-0.3, 0.5]]),
                ]
            ),
        )
        assert validate_povm(p) == [
            PovmViolation("positivity", "a", 0.05),
            PovmViolation("hermiticity", "b", 0.6),
            PovmViolation("completeness", None, 0.3),
        ]


def is_pvm(p):
    return bool(projective(p.stack)[0])


class TestIsPvm:
    def test_bloch_pair(self):
        assert is_pvm(bloch_pvm((0, 0, 1)))

    def test_noisy_pair_is_not(self):
        assert not is_pvm(noisy_qubit_povm((0, 0, 1), 0.7))

    def test_single_outcome_identity(self):
        assert is_pvm(Povm(("only",), np.eye(3)[None, :, :]))

    def test_one_call_for_many(self):
        povms = [bloch_pvm((0, 0, 1)), noisy_qubit_povm((0, 0, 1), 0.7), bloch_pvm((1, 0, 0))]
        dims = np.array([2, 2, 2])
        stack = Ragged(dims, np.array([2, 2, 2]), {2: np.concatenate([p.elements for p in povms])})
        assert projective(stack).tolist() == [True, False, True]


def test_take_keeps_each_items_labels():
    p, q = random_povm(2, 3, seed=1), Povm(("x", "y"), random_povm(3, 2, seed=2).elements)
    blocks = {2: p.elements, 3: q.elements}
    stack = Ragged(np.array([2, 3]), np.array([3, 2]), blocks, [p.outcomes, q.outcomes])
    taken = stack.take([1, 0])
    assert [taken.labels(i) for i in range(2)] == [("x", "y"), p.outcomes]
    assert taken.povm(0).elements.tobytes() == q.elements.tobytes()
    assert taken.povm(1).elements.tobytes() == p.elements.tobytes()


class TestRandomStates:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stack_is_the_stream_of_single_draws(self, dim):
        stacked_rng = np.random.default_rng(17)
        single_rng = np.random.default_rng(17)
        stack = random_states(dim, 100, stacked_rng)
        singles = np.concatenate([random_states(dim, 1, single_rng) for _ in range(100)])
        assert stack.tobytes() == singles.tobytes()
        assert stacked_rng.bit_generator.state == single_rng.bit_generator.state

    def test_stack_holds_density_matrices(self):
        stack = random_states(3, 10, np.random.default_rng(4))
        assert stack.shape == (10, 3, 3)
        assert np.allclose(np.trace(stack, axis1=1, axis2=2), 1.0, atol=1e-12)
        assert np.allclose(stack, np.conj(np.swapaxes(stack, 1, 2)), atol=1e-14)
        assert np.linalg.eigvalsh(stack).min() > -1e-12


class TestOutcomeProbabilities:
    def test_eigenstate(self):
        rho = np.diag([1.0, 0.0]).astype(complex)[None]
        probs = outcome_probabilities(bloch_pvm((0, 0, 1)), rho)
        assert probs.shape == (1, 2)
        assert np.allclose(probs[0], [1.0, 0.0], atol=1e-12)

    def test_unbiased(self):
        rho = np.diag([1.0, 0.0]).astype(complex)[None]
        probs = outcome_probabilities(bloch_pvm((1, 0, 0)), rho)
        assert np.allclose(probs[0], [0.5, 0.5], atol=1e-12)

    def test_matches_direct_trace(self):
        p = random_povm(3, 4, seed=5)
        rho = random_states(3, 1, np.random.default_rng(21))
        probs = outcome_probabilities(p, rho)[0]
        # a full-rank POVM gives every outcome positive weight, so nothing
        # is clipped and the trace values already sum to 1
        expected = [np.trace(rho[0] @ p[o]).real for o in p.outcomes]
        assert np.allclose(probs, expected, atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError) as err:
            outcome_probabilities(bloch_pvm((0, 0, 1)), (np.eye(3) / 3)[None])
        assert str(err.value) == "dimension mismatch: POVM dim 2, state dim 3"

    def test_rows_match_single_states(self):
        p = random_povm(3, 4, seed=5)
        stack = random_states(3, 20, np.random.default_rng(8))
        probs = outcome_probabilities(p, stack)
        assert probs.shape == (20, 4)
        for row, rho in zip(probs, stack):
            assert np.allclose(row, outcome_probabilities(p, rho[None])[0], atol=1e-15)

    def test_row_without_mass_rejected(self):
        p = bloch_pvm((0, 0, 1))
        stack = np.stack([np.eye(2) / 2, np.zeros((2, 2))]).astype(complex)
        with pytest.raises(ValueError, match="no probability mass"):
            outcome_probabilities(p, stack)


def _exhaustive_v_l1(p):
    """max over all outcome subsets D of ||A_D - A_D^2||, in binary order."""
    best = 0.0
    for mask in range(1 << p.n_outcomes):
        s = np.zeros((p.dim, p.dim), dtype=complex)
        for k in range(p.n_outcomes):
            if mask >> k & 1:
                s = s + p.elements[k]
        w = np.linalg.eigvalsh(s - s @ s)
        best = max(best, float(np.abs(w).max()))
    return best


class TestIntrinsicUncertainty:
    def test_pvm_has_zero(self):
        assert intrinsic_uncertainty_inf(bloch_pvm((0, 0, 1))) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_povm_attains_quarter(self):
        p = Povm(("a", "b"), np.stack([np.eye(2) / 2, np.eye(2) / 2]))
        assert intrinsic_uncertainty_inf(p) == pytest.approx(0.25, abs=1e-12)
        assert intrinsic_uncertainty_l1(p) == pytest.approx(0.25, abs=1e-12)

    def test_noisy_qubit_closed_form(self):
        # A - A^2 = ((1 - eta^2)/4) I for unbiased noisy qubit effects
        p = noisy_qubit_povm((0, 0, 1), 0.7)
        assert intrinsic_uncertainty_inf(p) == pytest.approx(0.1275, abs=1e-12)

    def test_two_outcome_pvm_l1_zero(self):
        assert intrinsic_uncertainty_l1(bloch_pvm((1, 0, 0))) == pytest.approx(0.0, abs=1e-12)

    def test_trine_matches_exhaustive_subset_oracle(self):
        p = trine_povm()
        best = _exhaustive_v_l1(p)
        assert intrinsic_uncertainty_l1(p) == pytest.approx(best, abs=1e-12)
        assert best == pytest.approx(2 / 9, abs=1e-12)

    def test_random_matches_exhaustive_subset_oracle_across_chunks(self):
        # 12 outcomes give 2^11 subset sums, two stacks of 2^CHUNK_BITS; for
        # this POVM the maximum lies in the second stack, 9e-8 above the first
        p = random_povm(2, 12, seed=28)
        assert intrinsic_uncertainty_l1(p) == pytest.approx(_exhaustive_v_l1(p), abs=1e-12)

    def test_range_and_pvm_equivalence_on_random_povms(self):
        for seed in range(30):
            p = random_povm(2 + seed % 3, 2 + seed % 3, seed=seed)
            v = intrinsic_uncertainty_inf(p)
            assert -1e-12 <= v <= 0.25 + 1e-12

    def test_capacity_error(self):
        p = Povm(
            tuple(f"o{k}" for k in range(21)),
            np.stack([np.eye(2) / 21] * 21),
        )
        with pytest.raises(CapacityError):
            intrinsic_uncertainty_l1(p)


class TestQubitConstructors:
    def test_projector_along_z(self):
        assert np.allclose(bloch_pvm((0, 0, 1))["+"], np.diag([1.0, 0.0]))

    def test_projector_along_x(self):
        assert np.allclose(bloch_pvm((1, 0, 0))["+"], np.full((2, 2), 0.5))

    def test_projector_is_idempotent(self):
        rng = np.random.default_rng(22)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        e = bloch_pvm(v)["+"]
        assert np.abs(e @ e - e).max() <= 1e-12

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            bloch_pvm((0, 0, 2))

    @pytest.mark.parametrize(
        "make",
        [bloch_pvm, lambda n: noisy_qubit_povm(n, 0.5)],
        ids=["bloch_pvm", "noisy_qubit_povm"],
    )
    @pytest.mark.parametrize(
        "n, message",
        [
            ((0, 0, 2), r"unit length, got \|n\| = 2$"),
            ((np.nan, 0, 0), r"unit length, got \|n\| = nan$"),
            ((1, 0), "three components"),
        ],
        ids=["long", "nan", "short"],
    )
    def test_one_bloch_vector_check(self, make, n, message):
        with pytest.raises(ValueError, match=message):
            make(n)

    def test_noisy_extremes(self):
        sharp = noisy_qubit_povm((0, 0, 1), 1.0)
        assert np.allclose(sharp.elements[0], np.diag([1.0, 0.0]))
        assert np.allclose(sharp.elements[1], np.diag([0.0, 1.0]))
        flat = noisy_qubit_povm((0, 0, 1), 0.0)
        assert np.allclose(flat.elements, np.stack([np.eye(2) / 2] * 2))

    def test_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            noisy_qubit_povm((0, 0, 1), 1.5)


class TestRandomPovm:
    def test_always_valid(self):
        for seed in range(25):
            p = random_povm(2 + seed % 3, 2 + seed % 3, seed=seed)
            assert validate_povm(p) == []

    def test_single_outcome_is_identity(self):
        p = random_povm(3, 1, seed=0)
        assert np.allclose(p.elements[0], np.eye(3), atol=1e-12)

    def test_deterministic_in_seed(self):
        p = random_povm(3, 3, seed=42)
        q = random_povm(3, 3, seed=42)
        assert np.array_equal(p.elements, q.elements)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            random_povm(0, 2, seed=1)

    def test_singular_draw_names_its_item(self, monkeypatch):
        # one draw per POVM: a sum too close to singular is an error, not
        # a redraw
        monkeypatch.setattr(linalg, "renormalize", lambda g, floor: None)
        with pytest.raises(ValueError) as err:
            random_povm(3, 2, seed=17)
        assert str(err.value) == "random POVM draw of item 0 has a singular element sum"

    def test_singular_group_in_a_stack_names_its_own_item(self):
        # item 1 draws R with a zero first row, so its element sum is
        # singular while its neighbours' are not; random_ragged draws the
        # items' numbers with one call, 2 * 2 * 3 * 3 = 36 of them an item
        class ZeroFirstRow:
            def standard_normal(self, size):
                x = np.random.default_rng(21).standard_normal(size)
                x[36:72].reshape(2, 2, 3, 3)[..., 0, :] = 0.0
                return x

        with pytest.raises(ValueError) as err:
            random_ragged([3] * 3, [2] * 3, ZeroFirstRow())
        assert str(err.value) == "random POVM draw of item 1 has a singular element sum"

    def test_stacks_reject_bad_sizes(self):
        for dims, counts in (([3, 0], [2, 2]), ([3, 3], [2, 0])):
            with pytest.raises(ValueError, match="^dim and n_outcomes must be >= 1$"):
                random_ragged(dims, counts, np.random.default_rng(1))


def single_draw_reference(dim, n_outcomes, seed):
    """The elements of one random POVM drawn on its own: the real and the
    imaginary parts of R as two draws, and one group's S^(-1/2) written
    out."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n_outcomes, dim, dim)) + 1j * rng.standard_normal(
        (n_outcomes, dim, dim)
    )
    g = r @ np.conj(np.swapaxes(r, -1, -2))
    w, u = np.linalg.eigh(linalg.hermitian_part(g.sum(axis=0)))
    inv_sqrt = (u * (1.0 / np.sqrt(w))) @ np.conj(u.T)
    return inv_sqrt @ g @ inv_sqrt


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n_outcomes", range(1, 9))
def test_stacked_draws_have_the_bits_of_single_draws(dim, n_outcomes):
    # a stack of items of several shapes against successive one-item draws
    # from a generator in the same state; the first item is random_povm's
    seed = 7 * dim + n_outcomes
    dims = [dim, 2, dim, 3, dim, dim]
    counts = [n_outcomes, n_outcomes + 1, n_outcomes, 2, 1, n_outcomes]
    stack = random_ragged(dims, counts, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for i, (d, n) in enumerate(zip(dims, counts)):
        alone = random_ragged([d], [n], rng).povm(0)
        assert stack.povm(i).outcomes == alone.outcomes == tuple(f"o{k}" for k in range(n))
        assert stack.povm(i).elements.tobytes() == alone.elements.tobytes()
    first = single_draw_reference(dim, n_outcomes, seed).tobytes()
    assert stack.povm(0).elements.tobytes() == first
    assert random_povm(dim, n_outcomes, seed).elements.tobytes() == first
