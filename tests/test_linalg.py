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
    prods = (np.asarray(x) @ np.asarray(y))[None]
    return float(linalg.herm_norm_stack(linalg.commutator_stack(prods))[0])


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
    """`herm_norm_stack` of `commutator_stack` reads ||[X, Y]|| off the
    product XY alone; these check it on known commutators and on one formed
    entry by entry."""

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

    def test_commutator_stack_norm_matches_op_norm_of_commutator(self):
        rng = np.random.default_rng(35)
        xs = np.stack([random_hermitian(rng, 4) for _ in range(6)])
        ys = np.stack([random_hermitian(rng, 4) for _ in range(6)])
        got_norms = linalg.herm_norm_stack(linalg.commutator_stack(xs @ ys))
        for x, y, got in zip(xs, ys, got_norms):
            assert got == pytest.approx(np.linalg.norm(x @ y - y @ x, 2), abs=1e-12)


class TestNormBound:
    """Both trace bounds that `subsets.max_norm` prunes with, on H and on
    H^2, stay above `herm_norm_stack` up to rounding far below
    `subsets.PRUNE_RTOL`; on rank-one projections, scalars and at d = 2
    they are tight."""

    ROUNDING = 1e-13

    def stacks(self, d):
        rng = np.random.default_rng(50 + d)
        v = rng.standard_normal((20, d)) + 1j * rng.standard_normal((20, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        s = rng.uniform(-3.0, 3.0, (20, 1, 1))
        hs = np.stack([random_hermitian(rng, d) for _ in range(20)])
        xs = np.stack([random_hermitian(rng, d) for _ in range(20)])
        return {
            "random": hs,
            "rank-one projections": np.einsum("ki,kj->kij", v, v.conj()),
            "+-s I": s * np.eye(d) * np.array([1, -1] * 10)[:, None, None],
            # ||H||_F^2 - d t^2 cancels here and undershoots by about 1e-8
            "s I + 1e-9 H": s * np.eye(d) + 1e-9 * hs,
            "traceless commutators": linalg.commutator_stack(xs @ hs),
            "zero": np.zeros((1, d, d), dtype=complex),
        }

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    def test_both_stages_bound_the_norm(self, d):
        for name, hs in self.stacks(d).items():
            norms = linalg.herm_norm_stack(hs)
            floor = norms * (1 - self.ROUNDING)
            assert (linalg.herm_norm_bound_stack(hs) >= floor).all(), name
            assert (np.sqrt(linalg.herm_norm_bound_stack(hs @ hs)) >= floor).all(), name

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    def test_tight_on_projections_and_scalars(self, d):
        stacks = self.stacks(d)
        for name in ("rank-one projections", "+-s I", "zero"):
            hs = stacks[name]
            norms = linalg.herm_norm_stack(hs)
            assert np.allclose(linalg.herm_norm_bound_stack(hs), norms, rtol=1e-13, atol=0), name



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


def wishart_stack(rng, shape):
    r = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return r @ np.conj(np.swapaxes(r, -1, -2))


class TestRenormalize:
    def test_sums_to_identity(self):
        # a (2, 3, 3, 3) stack is two groups of three; each sums to I
        g = linalg.renormalize(wishart_stack(np.random.default_rng(36), (2, 3, 3, 3)), 1e-12)
        assert np.abs(g.sum(axis=1) - np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(3, 3, 3), (4, 3, 2, 2), (2, 3, 5, 3, 3), (1, 1, 4, 4)])
    def test_batched_groups_match_one_call_each(self, shape):
        g = wishart_stack(np.random.default_rng(37), shape)
        whole = linalg.renormalize(g, 1e-12)
        groups = g.reshape(-1, *shape[-3:])
        each = np.stack([linalg.renormalize(gk, 1e-12) for gk in groups])
        assert whole.shape == shape
        assert whole.tobytes() == each.reshape(shape).tobytes()

    def test_singular_sum_gives_none(self):
        g = np.stack([np.diag([1.0, 0.0]), np.diag([0.5, 0.0])]).astype(complex)
        assert linalg.renormalize(g, 1e-12) is None

    def test_one_singular_group_makes_the_stack_none(self):
        g = wishart_stack(np.random.default_rng(38), (3, 2, 2, 2))
        g[1] = np.stack([np.diag([1.0, 0.0]), np.diag([0.5, 0.0])])
        assert [linalg.renormalize(gk, 1e-12) is None for gk in g] == [False, True, False]
        assert linalg.renormalize(g, 1e-12) is None

    def test_floor_scales_with_the_largest_eigenvalue(self):
        g = np.diag([1e3, 1e-4]).astype(complex)[None]
        assert linalg.renormalize(g, 1e-6) is None
        assert linalg.renormalize(g, 1e-8) is not None


def test_read_only_freezes_the_array_itself():
    m = np.eye(2, dtype=complex)
    assert linalg.read_only(m) is m
    with pytest.raises(ValueError):
        m[0, 0] = 2
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        assert not pauli.flags.writeable
