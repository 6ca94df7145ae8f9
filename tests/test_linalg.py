import numpy as np
import pytest

from jointmeas import linalg
from jointmeas.povm import PAULI_X, PAULI_Y, PAULI_Z


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def power_iteration_norm(m, iters=3000):
    """Independent oracle: largest |eigenvalue| of Hermitian m via power
    iteration on m @ m (so sign-mixed spectra converge)."""
    m2 = m @ m
    v = np.ones(m.shape[0], dtype=complex) / np.sqrt(m.shape[0])
    for _ in range(iters):
        v = m2 @ v
        v = v / np.linalg.norm(v)
    return float(np.sqrt((v.conj() @ (m2 @ v)).real))


class TestOpNorm:
    def test_identity(self):
        assert linalg.op_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_spectrum(self):
        assert linalg.op_norm(np.diag([0.3, -0.7])) == pytest.approx(0.7, abs=1e-15)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 4)
        assert linalg.op_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-10)

    def test_general_matrix_is_largest_singular_value(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        s = np.linalg.svd(m, compute_uv=False)
        assert linalg.op_norm(m) == pytest.approx(float(s[0]), abs=1e-10)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            linalg.op_norm(np.zeros((0, 0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            linalg.op_norm(np.array([[np.nan, 0], [0, 1.0]]))

    def test_norm_axioms_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            m = random_hermitian(rng, d)
            n = random_hermitian(rng, d)
            alpha = float(rng.standard_normal())
            assert linalg.op_norm(alpha * m) == pytest.approx(
                abs(alpha) * linalg.op_norm(m), abs=1e-10
            )
            assert linalg.op_norm(m + n) <= linalg.op_norm(m) + linalg.op_norm(n) + 1e-10

    def test_hermitian_norm_is_max_abs_eigenvalue(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = random_hermitian(rng, 5)
            w = np.linalg.eigvalsh(m)
            assert linalg.op_norm(m) == pytest.approx(float(np.abs(w).max()), abs=1e-10)


class TestCommutator:
    def test_identity_commutes(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(rng, 3)
        assert np.abs(linalg.commutator(np.eye(3), m)).max() == 0.0

    def test_pauli_algebra(self):
        # [sigma_z / 2, sigma_x / 2] = (i/2) sigma_y
        got = linalg.commutator(PAULI_Z / 2, PAULI_X / 2)
        assert np.allclose(got, 0.5j * PAULI_Y, atol=1e-15)

    def test_entrywise_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expected = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    expected[i, j] += x[i, k] * y[k, j] - y[i, k] * x[k, j]
        # same sums up to BLAS accumulation order
        assert np.allclose(linalg.commutator(x, y), expected, atol=1e-13, rtol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.commutator(np.eye(2), np.eye(3))

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(13)
        x = random_hermitian(rng, 4)
        y = random_hermitian(rng, 4)
        assert np.array_equal(linalg.commutator(x, y), -linalg.commutator(y, x))


class TestCommutatorNorm:
    def test_commuting_diagonals(self):
        assert linalg.commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_orthogonal_qubit_projectors(self):
        from jointmeas.povm import qubit_projector

        e_z = qubit_projector((0, 0, 1))
        e_x = qubit_projector((1, 0, 0))
        assert linalg.commutator_norm(e_z, e_x) == pytest.approx(0.5, abs=1e-10)

    def test_matches_op_norm_of_commutator(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = random_hermitian(rng, 4)
            y = random_hermitian(rng, 4)
            assert linalg.commutator_norm(x, y) == pytest.approx(
                linalg.op_norm(linalg.commutator(x, y)), abs=1e-12
            )

    def test_rejects_non_hermitian(self):
        skew = np.array([[0, 1], [-1, 0]], dtype=complex)
        with pytest.raises(ValueError):
            linalg.commutator_norm(skew, np.eye(2))


class TestPsdCheck:
    def test_zero_matrix(self):
        assert linalg.psd_check(np.zeros((2, 2)), 1e-9)

    def test_explicit_negative_eigenvalue(self):
        assert not linalg.psd_check(np.diag([1.0, -1e-3]), 1e-9)

    def test_near_boundary_qubit_effect(self):
        # eigenvalues (1 +/- 0.999) / 2, both nonnegative
        m = (np.eye(2) + 0.999 * PAULI_X) / 2
        assert linalg.psd_check(m, 1e-9)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            linalg.psd_check(np.eye(2), -1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.psd_check(np.array([[0, 1], [0, 0]], dtype=complex), 1e-9)


class TestProjectPsd:
    def test_psd_fixed_point(self):
        rng = np.random.default_rng(15)
        r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = r @ r.conj().T
        assert np.abs(linalg.project_psd(p) - p).max() <= 1e-12 * max(1.0, np.abs(p).max())

    def test_diagonal_clipping(self):
        assert np.allclose(linalg.project_psd(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]))

    def test_frobenius_optimality_against_sampled_psd(self):
        rng = np.random.default_rng(16)
        m = random_hermitian(rng, 3)
        proj = linalg.project_psd(m)
        best = np.linalg.norm(proj - m)
        for _ in range(100):
            r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            candidate = r @ r.conj().T
            assert best <= np.linalg.norm(candidate - m) + 1e-12

    def test_result_is_psd(self):
        rng = np.random.default_rng(17)
        m = random_hermitian(rng, 4)
        assert linalg.psd_check(linalg.project_psd(m), 1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(18)
        m = random_hermitian(rng, 4)
        once = linalg.project_psd(m)
        twice = linalg.project_psd(once)
        assert np.abs(twice - once).max() <= 1e-12


class TestEigendecomposition:
    def test_clip_operator_norm(self):
        m = np.diag([2.0, -3.0, 0.5]).astype(complex)
        clipped = linalg.clip_operator_norm_stack(m, 1.0)
        assert np.allclose(clipped, np.diag([1.0, -1.0, 0.5]))
        assert linalg.op_norm(clipped) <= 1.0 + 1e-12


class TestStackedKernels:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_groups_are_independent(self, d):
        # each group of a (P, n, d, d) stack, with its own (P, 1, 1) bound,
        # comes out bit-equal to a call on that group alone
        rng = np.random.default_rng(30 + d)
        ms = np.stack([[random_hermitian(rng, d) for _ in range(3)] for _ in range(4)])
        bound = rng.uniform(0.1, 2.0, (4, 1, 1))
        psd = linalg.project_psd_stack(ms)
        clipped = linalg.clip_operator_norm_stack(ms, bound)
        norms = linalg.herm_norm_stack(ms)
        for p in range(4):
            assert np.array_equal(psd[p], linalg.project_psd_stack(ms[p]))
            assert np.array_equal(clipped[p], linalg.clip_operator_norm_stack(ms[p], bound[p]))
            assert np.array_equal(norms[p], linalg.herm_norm_stack(ms[p]))

    def test_commutator_norm_stack_matches_op_norm_of_commutator(self):
        rng = np.random.default_rng(35)
        xs = np.stack([random_hermitian(rng, 4) for _ in range(6)])
        ys = np.stack([random_hermitian(rng, 4) for _ in range(6)])
        for x, y, got in zip(xs, ys, linalg.commutator_norm_stack(xs @ ys)):
            assert got == pytest.approx(linalg.op_norm(linalg.commutator(x, y)), abs=1e-12)


class TestRenormalize:
    def test_sums_to_identity(self):
        rng = np.random.default_rng(36)
        r = rng.standard_normal((2, 3, 3, 3)) + 1j * rng.standard_normal((2, 3, 3, 3))
        g = linalg.renormalize(r @ np.conj(np.swapaxes(r, -1, -2)), 1e-12)
        assert np.abs(g.sum(axis=(0, 1)) - np.eye(3)).max() <= 1e-12

    def test_singular_sum_gives_none(self):
        g = np.stack([np.diag([1.0, 0.0]), np.diag([0.5, 0.0])]).astype(complex)
        assert linalg.renormalize(g, 1e-12) is None

    def test_floor_scales_with_the_largest_eigenvalue(self):
        g = np.diag([1e3, 1e-4]).astype(complex)[None]
        assert linalg.renormalize(g, 1e-6) is None
        assert linalg.renormalize(g, 1e-8) is not None
