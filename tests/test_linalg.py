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


# The kernels take stacks of shape (..., d, d); these call them on a stack
# of one matrix.


def norm(m) -> float:
    return float(linalg.herm_norm_stack(np.asarray(m, dtype=complex)[None])[0])


def commutator_norm(x, y) -> float:
    return float(linalg.commutator_norm_stack((np.asarray(x) @ np.asarray(y))[None])[0])


def project_psd(m) -> np.ndarray:
    return linalg.project_psd_stack(np.asarray(m, dtype=complex)[None])[0]


class TestOpNorm:
    def test_identity(self):
        assert norm(np.eye(2)) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_spectrum(self):
        assert norm(np.diag([0.3, -0.7])) == pytest.approx(0.7, abs=1e-15)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 4)
        assert norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-10)

    def test_norm_axioms_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            m = random_hermitian(rng, d)
            n = random_hermitian(rng, d)
            alpha = float(rng.standard_normal())
            assert norm(alpha * m) == pytest.approx(abs(alpha) * norm(m), abs=1e-10)
            assert norm(m + n) <= norm(m) + norm(n) + 1e-10

    def test_hermitian_norm_is_max_abs_eigenvalue(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = random_hermitian(rng, 5)
            w = np.linalg.eigvalsh(m)
            assert norm(m) == pytest.approx(float(np.abs(w).max()), abs=1e-10)


class TestCommutator:
    """`commutator_norm_stack` reads ||[X, Y]|| off the product XY alone;
    these check it on known commutators and on one formed entry by entry."""

    def test_identity_commutes(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(rng, 3)
        assert commutator_norm(np.eye(3), m) == 0.0

    def test_pauli_algebra(self):
        # [sigma_z / 2, sigma_x / 2] = (i/2) sigma_y, of norm 1/2
        assert commutator_norm(PAULI_Z / 2, PAULI_X / 2) == pytest.approx(0.5, abs=1e-15)

    def test_entrywise_oracle(self):
        rng = np.random.default_rng(12)
        x = random_hermitian(rng, 3)
        y = random_hermitian(rng, 3)
        expected = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    expected[i, j] += x[i, k] * y[k, j] - y[i, k] * x[k, j]
        assert commutator_norm(x, y) == pytest.approx(np.linalg.norm(expected, 2), abs=1e-13)


class TestCommutatorNorm:
    def test_commuting_diagonals(self):
        assert commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_orthogonal_qubit_projectors(self):
        from jointmeas.povm import bloch_pvm

        e_z = bloch_pvm((0, 0, 1))["+"]
        e_x = bloch_pvm((1, 0, 0))["+"]
        assert commutator_norm(e_z, e_x) == pytest.approx(0.5, abs=1e-10)

    def test_matches_op_norm_of_commutator(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = random_hermitian(rng, 4)
            y = random_hermitian(rng, 4)
            assert commutator_norm(x, y) == pytest.approx(
                np.linalg.norm(x @ y - y @ x, 2), abs=1e-12
            )


class TestProjectPsd:
    def test_psd_fixed_point(self):
        rng = np.random.default_rng(15)
        r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = r @ r.conj().T
        assert np.abs(project_psd(p) - p).max() <= 1e-12 * max(1.0, np.abs(p).max())

    def test_diagonal_clipping(self):
        assert np.allclose(project_psd(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]))

    def test_frobenius_optimality_against_sampled_psd(self):
        rng = np.random.default_rng(16)
        m = random_hermitian(rng, 3)
        proj = project_psd(m)
        best = np.linalg.norm(proj - m)
        for _ in range(100):
            r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            candidate = r @ r.conj().T
            assert best <= np.linalg.norm(candidate - m) + 1e-12

    def test_result_is_psd(self):
        rng = np.random.default_rng(17)
        m = random_hermitian(rng, 4)
        assert np.linalg.eigvalsh(project_psd(m))[0] >= -1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(18)
        m = random_hermitian(rng, 4)
        once = project_psd(m)
        twice = project_psd(once)
        assert np.abs(twice - once).max() <= 1e-12


class TestEigendecomposition:
    def test_clip_operator_norm(self):
        m = np.diag([2.0, -3.0, 0.5]).astype(complex)
        clipped = linalg.clip_operator_norm_stack(m, 1.0)
        assert np.allclose(clipped, np.diag([1.0, -1.0, 0.5]))
        assert np.linalg.norm(clipped, 2) <= 1.0 + 1e-12


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
            assert got == pytest.approx(np.linalg.norm(x @ y - y @ x, 2), abs=1e-12)



def pauli_form(s, v):
    """s I + v . sigma, the general 2x2 Hermitian matrix."""
    return s * np.eye(2) + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def eigh_apply(m, f):
    """Per-matrix reference: U f(w) U* from numpy's eigh of one matrix."""
    w, u = np.linalg.eigh(m)
    return (u * f(w)) @ u.conj().T


class TestQubitKernelAgreement:
    """The d = 2 kernels against a per-matrix eigh, on the inputs a
    closed-form (Pauli-form) d = 2 path must get right: zero, degenerate,
    rank-one, boundary |v| = s, negative-definite, near-boundary and barely
    indefinite matrices."""

    UNIT = np.array([1.0, 2.0, 2.0]) / 3

    @pytest.fixture
    def stack(self):
        rng = np.random.default_rng(40)
        ms = [
            np.zeros((2, 2)),
            pauli_form(0.7, np.zeros(3)),
            pauli_form(-0.4, np.zeros(3)),
            np.outer([0.6, 0.8j], np.conj([0.6, 0.8j])),
            pauli_form(0.3, 0.3 * self.UNIT),
            pauli_form(0.3, -0.3 * self.UNIT),
            pauli_form(-0.5, 0.2 * self.UNIT),
            pauli_form(0.5, (0.4995, 0.0, 0.0)),
            np.diag([1.0, -1e-3]),
            *(random_hermitian(rng, 2) for _ in range(5)),
        ]
        return np.stack(ms).astype(complex)

    def test_herm_norm_stack(self, stack):
        ref = [np.abs(np.linalg.eigvalsh(m)).max() for m in stack]
        assert np.abs(linalg.herm_norm_stack(stack) - ref).max() <= 1e-14

    def test_project_psd_stack(self, stack):
        ref = np.stack([eigh_apply(m, lambda w: np.clip(w, 0.0, None)) for m in stack])
        assert np.abs(linalg.project_psd_stack(stack) - ref).max() <= 1e-14

    @pytest.mark.parametrize("bound", [0.0, 0.25, 1.0])
    def test_clip_operator_norm_stack(self, stack, bound):
        ref = np.stack([eigh_apply(m, lambda w: np.clip(w, -bound, bound)) for m in stack])
        assert np.abs(linalg.clip_operator_norm_stack(stack, bound) - ref).max() <= 1e-14


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
