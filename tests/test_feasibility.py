import math

import numpy as np
import pytest

from jointmeas import feasibility
from jointmeas.bounds import check_theorem1, heinosaari_lower_bound
from jointmeas.distances import D_inf
from jointmeas.feasibility import (
    check_joint_measurability,
    frontier_point,
    frontier_sweep,
)
from jointmeas.povm import (
    PAULI_X,
    PAULI_Z,
    Povm,
    bloch_pvm,
    noisy_qubit_povm,
    random_povm,
    validate_povm,
)
from jointmeas.smearing import coordinate_maps, marginalize


def diagonal_povm(rows, prefix):
    arr = np.array(rows, dtype=float)
    return Povm(
        tuple(f"{prefix}{k}" for k in range(arr.shape[0])),
        np.stack([np.diag(r).astype(complex) for r in arr]),
    )


def trine_povm():
    mats = []
    for k in range(3):
        ang = 2 * np.pi * k / 3
        mats.append(
            (np.eye(2, dtype=complex) + np.sin(ang) * PAULI_X + np.cos(ang) * PAULI_Z) / 3
        )
    return Povm(("t0", "t1", "t2"), np.stack(mats))


def assert_sound_witness(result, a, b):
    """Every feasible verdict must ship a checkable witness."""
    assert result.witness is not None
    assert validate_povm(result.witness) == []
    f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
    assert D_inf(a, marginalize(result.witness, f_a)).value <= 1e-6
    assert D_inf(b, marginalize(result.witness, f_b)).value <= 1e-6


class TestCheckJointMeasurability:
    def test_commuting_pvms_feasible_immediately(self):
        a = diagonal_povm([[1, 0], [0, 1]], "a")
        b = diagonal_povm([[1, 0], [0, 1]], "b")
        result = check_joint_measurability(a, b)
        assert result.status == "feasible"
        assert result.iterations == 0
        assert_sound_witness(result, a, b)

    def test_commuting_unsharp_pair(self):
        a = diagonal_povm([[0.3, 0.9, 0.5], [0.7, 0.1, 0.5]], "a")
        b = diagonal_povm([[0.6, 0.2, 0.8], [0.4, 0.8, 0.2]], "b")
        result = check_joint_measurability(a, b)
        assert result.status == "feasible"
        assert_sound_witness(result, a, b)

    def test_orthogonal_sharp_pair_certified_infeasible(self):
        result = check_joint_measurability(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)))
        assert result.status == "infeasible"
        assert result.iterations == 0
        assert "necessary condition violated" in result.certificate_note

    def test_noisy_threshold_below(self):
        result = check_joint_measurability(
            noisy_qubit_povm((0, 0, 1), 0.70), noisy_qubit_povm((1, 0, 0), 0.70)
        )
        assert result.status == "feasible"
        assert_sound_witness(
            result, noisy_qubit_povm((0, 0, 1), 0.70), noisy_qubit_povm((1, 0, 0), 0.70)
        )

    def test_noisy_threshold_above(self):
        result = check_joint_measurability(
            noisy_qubit_povm((0, 0, 1), 0.72), noisy_qubit_povm((1, 0, 0), 0.72)
        )
        assert result.status == "infeasible"
        assert result.screen_report is not None
        assert result.screen_report.slack == pytest.approx(-0.0092, abs=1e-12)

    def test_every_povm_is_jointly_measurable_with_itself(self):
        # nontrivial solve: the symmetrized-product seed of the trine with
        # itself is not positive, so the projections must do real work
        t = trine_povm()
        result = check_joint_measurability(t, t)
        assert result.status == "feasible"
        assert result.iterations > 10
        assert_sound_witness(result, t, t)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            check_joint_measurability(bloch_pvm((0, 0, 1)), random_povm(3, 2, seed=1))

    def test_random_pairs_give_sound_verdicts(self):
        rng = np.random.default_rng(50)
        feasible = 0
        for i in range(15):
            dim = int(rng.integers(2, 4))
            a = random_povm(dim, int(rng.integers(2, 4)), int(rng.integers(1e9)))
            b = random_povm(dim, int(rng.integers(2, 4)), int(rng.integers(1e9)))
            result = check_joint_measurability(a, b, max_iter=3000)
            assert result.status in ("feasible", "infeasible", "undecided")
            if result.status == "feasible":
                feasible += 1
                assert_sound_witness(result, a, b)
            if result.status == "infeasible":
                assert result.certificate_note
        # random POVMs are unsharp enough that most pairs are compatible
        assert feasible >= 5


class TestFrontierPoint:
    def test_commuting_pair_reaches_zero(self):
        a = diagonal_povm([[1, 0], [0, 1]], "a")
        b = diagonal_povm([[0.8, 0.3], [0.2, 0.7]], "b")
        pt = frontier_point(a, b, 0.0, y_resolution=1e-4)
        assert pt.x_achieved <= 1e-6
        assert pt.y_achieved <= 1e-4

    def test_orthogonal_qubits_at_zero_budget(self):
        a = bloch_pvm((0, 0, 1))
        b = bloch_pvm((1, 0, 0))
        pt = frontier_point(a, b, 0.0, y_resolution=1e-3)
        assert pt.x_achieved <= 1e-6
        # exact reproduction of A forces Y >= 1/2; the solver may overshoot
        # by its resolution but never undershoot
        assert pt.y_achieved >= 0.5 - 1e-9
        assert pt.y_achieved <= 0.5 + 0.05
        assert pt.x_achieved + pt.y_achieved >= heinosaari_lower_bound(math.pi / 2) - 1e-9

    def test_achieved_point_respects_main_bound(self):
        a = bloch_pvm((0, 0, 1))
        b = bloch_pvm((1, 0, 0))
        pt = frontier_point(a, b, 0.12, y_resolution=1e-3)
        assert pt.x_achieved <= 0.12 + 1e-6
        f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
        report = check_theorem1(a, b, pt.witness, f_a, f_b)
        assert report.slack >= -1e-9

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            frontier_point(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)), -0.1)


class TestSolverBudgets:
    """Budgets a solve cannot run on raise ValueError before any solve."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver ran before its budgets were checked")

        monkeypatch.setattr(feasibility, "_dykstra", no_solve)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"y_resolution": -0.001}, "y_resolution"),
            ({"y_resolution": 0.0}, "y_resolution"),
            ({"y_resolution": math.nan}, "y_resolution"),
            ({"y_resolution": math.inf}, "y_resolution"),
            ({"max_iter": 0}, "max_iter"),
            ({"max_iter": -5}, "max_iter"),
        ],
        ids=["res-negative", "res-zero", "res-nan", "res-inf", "iter-zero", "iter-negative"],
    )
    def test_frontier_point_rejects(self, kwargs, message):
        # X = 0.5 is at the trivial baseline's budget, where the bisection
        # starts with lo = hi = 0
        with pytest.raises(ValueError, match=message):
            frontier_point(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)), 0.5, **kwargs)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_frontier_rejects_non_finite_x_budget(self, x):
        a, b = bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0))
        with pytest.raises(ValueError, match="X budget"):
            frontier_point(a, b, x)
        with pytest.raises(ValueError, match="x_max"):
            frontier_sweep(a, b, 6, x_max=x)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_check_joint_rejects_nonpositive_max_iter(self, max_iter):
        a, b = random_povm(3, 3, 1), random_povm(3, 3, 2)
        with pytest.raises(ValueError, match="max_iter"):
            check_joint_measurability(a, b, max_iter=max_iter)


class TestFrontierSweep:
    def test_monotone_and_contained(self):
        a = bloch_pvm((0, 0, 1))
        b = bloch_pvm((1, 0, 0))
        points = frontier_sweep(a, b, 6, x_max=0.5, y_resolution=1e-3)
        assert len(points) == 6
        ys = [p.y_achieved for p in points]
        assert all(b2 <= a2 + 1e-6 for a2, b2 in zip(ys, ys[1:]))
        h = heinosaari_lower_bound(math.pi / 2)
        f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
        for p in points:
            assert p.x_achieved <= p.x_target + 1e-6
            assert p.x_achieved + p.y_achieved >= h - 1e-9
            assert check_theorem1(a, b, p.witness, f_a, f_b).slack >= -1e-9
            assert validate_povm(p.witness) == []

    def test_rejects_negative_x_max_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver ran before the X budgets were checked")

        monkeypatch.setattr(feasibility, "_dykstra", no_solve)
        with pytest.raises(ValueError):
            frontier_sweep(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)), 6, x_max=-0.1)

    @pytest.mark.parametrize(
        "a, b",
        [
            (bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0))),
            (
                noisy_qubit_povm((0, 0, 1), 0.9),
                noisy_qubit_povm((math.sin(1.0), 0, math.cos(1.0)), 0.8),
            ),
        ],
        ids=["orthogonal-sharp", "unsharp-oblique"],
    )
    def test_batched_sweep_equals_separate_points(self, a, b):
        points = frontier_sweep(a, b, 4, x_max=0.3, y_resolution=1e-2)
        ys = [p.y_achieved for p in points]
        # already nonincreasing, so the monotone carry replaced no point
        assert all(later <= earlier for earlier, later in zip(ys, ys[1:]))
        for p in points:
            alone = frontier_point(a, b, p.x_target, y_resolution=1e-2)
            assert p.x_achieved == alone.x_achieved
            assert p.y_achieved == alone.y_achieved

    def test_orthogonal_qubits_match_closed_form(self):
        # Y(X) = (1 - sqrt(1 - (1 - 2X)^2)) / 2 for the sharp z/x pair. No
        # POVM lies below it at the X it achieves, and the solver should come
        # within its resolution of it at the X budget. X = 0.45 is left out:
        # stalled feasible probes near Y = 0.0025 leave it 7e-3 above.
        def exact(x):
            return (1 - math.sqrt(max(0.0, 1 - (1 - 2 * x) ** 2))) / 2

        a = bloch_pvm((0, 0, 1))
        b = bloch_pvm((1, 0, 0))
        res = 1e-3
        points = frontier_sweep(a, b, 9, x_max=0.4, y_resolution=res)
        points.append(frontier_point(a, b, 0.5, y_resolution=res))
        for p in points:
            assert exact(p.x_achieved) - 1e-9 <= p.y_achieved <= exact(p.x_target) + res, p
