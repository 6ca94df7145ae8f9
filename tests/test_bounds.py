import math

import numpy as np
import pytest

from jointmeas import CapacityError
from jointmeas.bounds import (
    SLACK_TOL,
    admissible_region_curves,
    check_corollary_joint,
    check_corollary_pvm_instrument,
    check_theorem1,
    check_theorem2,
    heinosaari_lower_bound,
    max_commutator_norm,
    max_subset_commutator_norm,
    qubit_rhs,
    theorem1_lhs,
    theorem1_min_y,
)
from jointmeas.feasibility import frontier_sweep
from jointmeas.povm import (
    Povm,
    bloch_pvm,
    intrinsic_uncertainty_inf,
    noisy_qubit_povm,
    random_povm,
)
from jointmeas.selftest import random_instances, suite_theorem1, suite_theorem2
from jointmeas.smearing import OutcomeMap, coordinate_maps


def bloch_pair(theta):
    return bloch_pvm((0, 0, 1)), bloch_pvm((math.sin(theta), 0, math.cos(theta)))


def _subset_sums(p):
    """Sums of the elements over every outcome subset, in binary order."""
    return [
        sum(
            (p.elements[k] for k in range(p.n_outcomes) if mask >> k & 1),
            np.zeros((p.dim, p.dim), dtype=complex),
        )
        for mask in range(1 << p.n_outcomes)
    ]


def _bruteforce_subset_comm(a, b):
    expected = 0.0
    sums_b = _subset_sums(b)
    for sa in _subset_sums(a):
        for sb in sums_b:
            c = 1j * (sa @ sb - sb @ sa)
            expected = max(expected, float(np.abs(np.linalg.eigvalsh(c)).max()))
    return expected


def flat_joint_on_product(a, b, dim):
    """Uninformative joint observable I/(n_a n_b) per product outcome."""
    f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
    k = len(f_a.source)
    joint = Povm(f_a.source, np.stack([np.eye(dim, dtype=complex) / k] * k))
    return joint, f_a, f_b


class TestMaxCommutatorNorm:
    def test_commuting_pair(self):
        a = Povm(("a0", "a1"), np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
        b = Povm(("b0", "b1"), np.stack([np.diag([0.4, 0.7]), np.diag([0.6, 0.3])]))
        assert max_commutator_norm(a, b) == 0.0

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2])
    def test_qubit_closed_form(self, theta):
        a, b = bloch_pair(theta)
        assert max_commutator_norm(a, b) == pytest.approx(math.sin(theta) / 2, abs=1e-10)

    def test_matches_exhaustive_double_loop(self):
        a = random_povm(3, 3, seed=41)
        b = random_povm(3, 4, seed=42)
        expected = 0.0
        for x in a.elements:
            for y in b.elements:
                c = 1j * (x @ y - y @ x)
                expected = max(expected, float(np.abs(np.linalg.eigvalsh(c)).max()))
        assert max_commutator_norm(a, b) == pytest.approx(expected, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError) as err:
            max_commutator_norm(random_povm(2, 2, seed=1), random_povm(3, 2, seed=1))
        assert str(err.value) == "dimension mismatch: 2 vs 3"


class TestMaxSubsetCommutatorNorm:
    def test_commuting_pair(self):
        a = Povm(("a0", "a1"), np.stack([np.diag([0.2, 0.9]), np.diag([0.8, 0.1])]))
        b = Povm(("b0", "b1"), np.stack([np.diag([0.5, 0.5]), np.diag([0.5, 0.5])]))
        assert max_subset_commutator_norm(a, b) == 0.0

    def test_two_outcome_qubit_equals_elementwise(self):
        a, b = bloch_pair(math.pi / 3)
        # singleton subsets dominate: the full sets are the identity
        assert max_subset_commutator_norm(a, b) == pytest.approx(
            math.sin(math.pi / 3) / 2, abs=1e-12
        )

    def test_dominates_elementwise_max(self):
        a = random_povm(2, 3, seed=43)
        b = random_povm(2, 3, seed=44)
        assert max_subset_commutator_norm(a, b) >= max_commutator_norm(a, b) - 1e-12

    def test_matches_bruteforce_subset_pairs(self):
        a = random_povm(2, 3, seed=45)
        b = random_povm(2, 2, seed=46)
        assert max_subset_commutator_norm(a, b) == pytest.approx(
            _bruteforce_subset_comm(a, b), abs=1e-12
        )

    def test_matches_bruteforce_subset_pairs_across_chunks(self):
        # 12 A-outcomes give 2^11 subset sums, two stacks of 2^CHUNK_BITS;
        # for this pair the maximum lies in the second stack
        a = random_povm(2, 12, seed=53)
        b = random_povm(2, 2, seed=54)
        assert max_subset_commutator_norm(a, b) == pytest.approx(
            _bruteforce_subset_comm(a, b), abs=1e-12
        )

    def test_dim_mismatch(self):
        with pytest.raises(ValueError) as err:
            max_subset_commutator_norm(random_povm(2, 2, seed=1), random_povm(3, 2, seed=1))
        assert str(err.value) == "dimension mismatch: 2 vs 3"

    def test_capacity_error(self):
        a = random_povm(2, 2, seed=49)
        b = Povm(tuple(f"b{k}" for k in range(21)), np.stack([np.eye(2) / 21] * 21))
        with pytest.raises(CapacityError):
            max_subset_commutator_norm(a, b)


class TestTheorem1Lhs:
    def test_all_zero(self):
        assert theorem1_lhs(0, 0, 0, 0) == 0.0

    def test_pure_uncertainty_term(self):
        assert theorem1_lhs(0, 0, 1 / 16, 1 / 16) == pytest.approx(0.125, abs=1e-15)

    def test_symmetric_projective_point(self):
        x = (math.sqrt(10) - 3) / 2
        assert theorem1_lhs(x, x, 0, 0) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            theorem1_lhs(-0.1, 0, 0, 0)

    @pytest.mark.parametrize("k", range(4))
    def test_rejects_nan(self, k):
        args = [0.1] * 4
        args[k] = math.nan
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            theorem1_lhs(*args)

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            args = rng.uniform(0, 1, size=4)
            base = theorem1_lhs(*args)
            for k in range(4):
                bumped = args.copy()
                bumped[k] += rng.uniform(0, 0.5)
                assert theorem1_lhs(*bumped) >= base - 1e-12


def noisy_basis_povm(rng, d, eta, prefix):
    """The rank-one projectors of a Haar-random basis mixed with white noise
    at visibility eta: unsharp for eta < 1."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    mats = [eta * np.outer(v, np.conj(v)) + (1 - eta) * np.eye(d) / d for v in q.T]
    return Povm(tuple(f"{prefix}{k}" for k in range(d)), np.stack(mats))


class TestTheorem1MinY:
    """The closed-form contour of the main bound: the smallest achievable Y
    at a given X."""

    @staticmethod
    def sharp_qubit_frontier(x):
        return (1 - math.sqrt(max(0.0, 1 - (1 - 2 * x) ** 2))) / 2

    def test_orthogonal_sharp_qubits_at_zero(self):
        c = max_commutator_norm(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)))
        assert theorem1_min_y(0.0, 0.0, 0.0, c) == pytest.approx(0.5, abs=1e-12)

    def test_below_the_sharp_qubit_frontier(self):
        xs = np.linspace(0.0, 0.5, 101)
        ys = theorem1_min_y(xs, 0.0, 0.0, 0.5)
        for x, y in zip(xs.tolist(), ys.tolist()):
            assert 0.0 <= y <= self.sharp_qubit_frontier(x) + 1e-12

    @pytest.mark.parametrize(
        "v_a, v_b, rhs",
        [
            (0.0, 0.0, 0.5),
            (0.1, 0.2, 0.3),
            (0.25, 0.25, 1.0),
            (0.0, 0.25, 0.0),
            (1e-3, 0.2499, 0.7),
        ],
    )
    def test_zero_from_x_equal_to_rhs(self, v_a, v_b, rhs):
        xs = np.array([rhs, rhs * 1.5 + 1e-9, 10 * rhs + 1, 1e308])
        assert (theorem1_min_y(xs, v_a, v_b, rhs) == 0.0).all()

    @pytest.mark.parametrize("v_a, v_b", [(0.0, 0.0), (0.0, 0.1), (0.05, 0.0), (0.02, 0.03)])
    def test_points_lie_on_the_level_set(self, v_a, v_b):
        xs = np.linspace(0.0, 0.5, 51)
        ys = theorem1_min_y(xs, v_a, v_b, 0.5)
        on_curve = [(x, y) for x, y in zip(xs.tolist(), ys.tolist()) if y > 0]
        assert len(on_curve) > 10
        for x, y in on_curve:
            assert abs(theorem1_lhs(x, y, v_a, v_b) - 0.5) <= 1e-12

    def test_extreme_inputs_stay_finite(self):
        # RuntimeWarning is an error under pytest, so overflow or a negative
        # discriminant would fail here
        for args in [
            (1e308, 0.0, 0.0, 0.5),
            (1e308, 0.25, 0.25, 0.5),
            (0.0, 0.25, 0.25, 0.5),
            (0.1, 0.25, 0.25, 1.0),
        ]:
            assert math.isfinite(theorem1_min_y(*args))

    @pytest.mark.parametrize(
        "args",
        [
            (-0.1, 0, 0, 0.5),
            (0.1, -0.1, 0, 0.5),
            (0.1, 0, math.nan, 0.5),
            (np.array([0.1, -1e-3]), 0, 0, 0.5),
            (0.1, 0, 0, -0.5),
        ],
        ids=["x-negative", "v-a-negative", "v-b-nan", "x-array-negative", "rhs-negative"],
    )
    def test_rejects_negative_or_nan(self, args):
        with pytest.raises(ValueError, match="nonnegative"):
            theorem1_min_y(*args)

    def test_frontier_witnesses_lie_on_or_above_it(self):
        rng = np.random.default_rng(83)
        pairs = [
            (noisy_basis_povm(rng, 3, 0.95, "a"), noisy_basis_povm(rng, 3, 0.9, "b")),
            (noisy_basis_povm(rng, 3, 1.0, "a"), noisy_basis_povm(rng, 3, 0.85, "b")),
            (noisy_basis_povm(rng, 2, 0.9, "a"), noisy_basis_povm(rng, 2, 1.0, "b")),
            (random_povm(2, 3, 84), random_povm(2, 2, 85)),
        ]
        binding = 0
        for a, b in pairs:
            v_a, v_b = intrinsic_uncertainty_inf(a), intrinsic_uncertainty_inf(b)
            c = max_commutator_norm(a, b)
            # a short budget gives looser witnesses, every one still verified
            for p in frontier_sweep(a, b, 3, x_max=0.2, y_resolution=1e-2, max_iter=300):
                y_min = theorem1_min_y(p.x_achieved, v_a, v_b, c)
                assert p.y_achieved >= y_min - SLACK_TOL, (p, y_min)
                binding += y_min > 0
        # the contour is above 0 at some points, so the check is not vacuous
        assert binding >= 3


class TestCheckTheorem1:
    def test_commuting_product_reconstruction(self):
        a = Povm(("a0", "a1"), np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
        b = Povm(("b0", "b1"), np.stack([np.diag([0.3, 0.8]), np.diag([0.7, 0.2])]))
        f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
        mats = [a[p.split("|")[0]] @ b[p.split("|")[1]] for p in f_a.source]
        joint = Povm(f_a.source, np.stack(mats))
        report = check_theorem1(a, b, joint, f_a, f_b)
        assert report.X == pytest.approx(0.0, abs=1e-12)
        assert report.Y == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.satisfied

    def test_flat_joint_for_orthogonal_qubits(self):
        a, b = bloch_pair(math.pi / 2)
        joint, f_a, f_b = flat_joint_on_product(a, b, 2)
        report = check_theorem1(a, b, joint, f_a, f_b)
        # marginals are {I/2, I/2}: both accuracies are 1/2
        assert report.X == pytest.approx(0.5, abs=1e-12)
        assert report.Y == pytest.approx(0.5, abs=1e-12)
        assert report.lhs == pytest.approx(3.5, abs=1e-12)
        assert report.rhs == pytest.approx(0.5, abs=1e-12)
        assert report.satisfied

    def test_projective_pair_drops_the_uncertainty_terms(self):
        # V vanishes for projective A and B, so the main bound reads
        # 2XY + X + Y + 4 sqrt(XY)
        a, b = bloch_pair(math.pi / 3)
        joint, f_a, f_b = flat_joint_on_product(a, b, 2)
        report = check_theorem1(a, b, joint, f_a, f_b)
        assert report.V_A == report.V_B == 0.0
        x, y = report.X, report.Y
        assert report.lhs == pytest.approx(2 * x * y + x + y + 4 * math.sqrt(x * y), abs=1e-12)

    def test_randomized_universal_validity(self):
        result = suite_theorem1(trials=100, seed=123)
        assert result.violations == 0, result.details


class TestCheckTheorem2:
    def test_commuting_case(self):
        a = Povm(("a0", "a1"), np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
        b = Povm(("b0", "b1"), np.stack([np.diag([0.3, 0.8]), np.diag([0.7, 0.2])]))
        f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
        mats = [a[p.split("|")[0]] @ b[p.split("|")[1]] for p in f_a.source]
        joint = Povm(f_a.source, np.stack(mats))
        report = check_theorem2(a, b, joint, f_a, f_b)
        assert report.lhs == pytest.approx(0.0, abs=1e-10)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.satisfied

    def test_two_outcome_matches_theorem1_accuracies(self):
        a, b = bloch_pair(math.pi / 2)
        joint, f_a, f_b = flat_joint_on_product(a, b, 2)
        r1 = check_theorem1(a, b, joint, f_a, f_b)
        r2 = check_theorem2(a, b, joint, f_a, f_b)
        assert r2.X == pytest.approx(r1.X, abs=1e-12)
        assert r2.Y == pytest.approx(r1.Y, abs=1e-12)
        assert r2.satisfied

    def test_randomized_universal_validity(self):
        result = suite_theorem2(trials=60, seed=321)
        assert result.violations == 0, result.details


class TestCorollaryJoint:
    def test_noisy_orthogonal_pair_below_threshold(self):
        report = check_corollary_joint(
            noisy_qubit_povm((0, 0, 1), 0.70), noisy_qubit_povm((1, 0, 0), 0.70)
        )
        assert report.lhs == pytest.approx(0.1275, abs=1e-12)
        assert report.rhs == pytest.approx(0.1225, abs=1e-12)
        assert report.satisfied

    def test_noisy_orthogonal_pair_above_threshold(self):
        report = check_corollary_joint(
            noisy_qubit_povm((0, 0, 1), 0.72), noisy_qubit_povm((1, 0, 0), 0.72)
        )
        assert report.lhs == pytest.approx(0.1204, abs=1e-12)
        assert report.rhs == pytest.approx(0.1296, abs=1e-12)
        assert not report.satisfied

    def test_noncommuting_pvms_always_violate(self):
        a, b = bloch_pair(math.pi / 4)
        report = check_corollary_joint(a, b)
        assert report.lhs == pytest.approx(0.0, abs=1e-9)
        assert report.rhs > 0.1
        assert not report.satisfied

    def test_note_marks_one_directional_condition(self):
        report = check_corollary_joint(bloch_pvm((0, 0, 1)), bloch_pvm((0, 0, 1)))
        assert "necessary condition" in report.note


class TestCorollaryPvmInstrument:
    def test_rejects_non_projective_joint(self):
        a, b = bloch_pair(math.pi / 2)
        joint, f_a, f_b = flat_joint_on_product(a, b, 2)
        with pytest.raises(ValueError):
            check_corollary_pvm_instrument(a, b, joint, f_a, f_b)

    def test_sharp_z_instrument_for_orthogonal_qubits(self):
        a, b = bloch_pair(math.pi / 2)
        f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
        # measure sharply along z; embed outcomes into the product set
        mats = {p: np.zeros((2, 2), dtype=complex) for p in f_a.source}
        mats["+|+"] = a["+"]
        mats["-|-"] = a["-"]
        joint = Povm(f_a.source, np.stack([mats[p] for p in f_a.source]))
        report = check_corollary_pvm_instrument(a, b, joint, f_a, f_b)
        assert report.X == pytest.approx(0.0, abs=1e-12)
        assert report.Y == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert report.lhs == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert report.rhs == pytest.approx(0.5, abs=1e-12)
        assert report.satisfied

    def test_randomized_with_projective_instruments(self):
        rng = np.random.default_rng(48)
        for i in range(500):
            dim = int(rng.integers(2, 5))
            a = random_povm(dim, int(rng.integers(2, 5)), int(rng.integers(1e9)))
            b = random_povm(dim, int(rng.integers(2, 5)), int(rng.integers(1e9)))
            # projective joint observable from a random unitary eigenbasis
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, _ = np.linalg.qr(z)
            projs = np.stack([np.outer(q[:, k], q[:, k].conj()) for k in range(dim)])
            joint = Povm(tuple(f"e{k}" for k in range(dim)), projs)
            f_a = OutcomeMap(
                joint.outcomes,
                a.outcomes,
                {o: a.outcomes[int(rng.integers(a.n_outcomes))] for o in joint.outcomes},
            )
            f_b = OutcomeMap(
                joint.outcomes,
                b.outcomes,
                {o: b.outcomes[int(rng.integers(b.n_outcomes))] for o in joint.outcomes},
            )
            report = check_corollary_pvm_instrument(a, b, joint, f_a, f_b)
            assert report.satisfied, f"instance {i}: slack = {report.slack}"


class TestQubitBounds:
    def test_qubit_rhs_values(self):
        assert qubit_rhs(0.0) == 0.0
        assert qubit_rhs(math.pi / 2) == pytest.approx(0.5, abs=1e-15)
        assert qubit_rhs(math.pi / 4) == pytest.approx(math.sqrt(2) / 4, abs=1e-15)

    def test_qubit_rhs_range(self):
        with pytest.raises(ValueError):
            qubit_rhs(-0.1)
        with pytest.raises(ValueError):
            qubit_rhs(2.0)

    def test_commutator_matches_rhs_on_grid(self):
        for theta in np.linspace(0.0, math.pi / 2, 13):
            a, b = bloch_pair(float(theta))
            assert max_commutator_norm(a, b) == pytest.approx(
                qubit_rhs(float(theta)), abs=1e-10
            )

    def test_rhs_monotone_in_theta(self):
        values = [max_commutator_norm(*bloch_pair(t)) for t in np.linspace(0, math.pi / 2, 10)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_heinosaari_values(self):
        assert heinosaari_lower_bound(0.0) == 0.0
        assert heinosaari_lower_bound(math.pi / 2) == pytest.approx(
            1 - 1 / math.sqrt(2), abs=1e-12
        )

    def test_heinosaari_monotone_increasing(self):
        grid = np.linspace(0.0, math.pi / 2, 50)
        vals = [heinosaari_lower_bound(float(t)) for t in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("theta", [-0.1, math.nan, 2.0])
    def test_heinosaari_range(self, theta):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/2\]"):
            heinosaari_lower_bound(theta)

    def test_orthogonal_flat_joint_meets_both_qubit_bounds(self):
        a, b = bloch_pair(math.pi / 2)
        joint, f_a, f_b = flat_joint_on_product(a, b, 2)
        report = check_theorem1(a, b, joint, f_a, f_b)
        assert report.rhs == pytest.approx(0.5, abs=1e-12)
        assert report.satisfied
        # the additive comparison line: X + Y = 1 against Busch-Heinosaari
        assert report.X + report.Y == pytest.approx(1.0, abs=1e-12)
        assert report.X + report.Y >= heinosaari_lower_bound(math.pi / 2)

    @pytest.mark.parametrize("theta", [3 * math.pi / 4, math.pi])
    def test_commutator_at_obtuse_angle_is_that_of_its_supplement(self, theta):
        # E(m) and E(-m) only swap outcomes, so the commutator norm at an
        # obtuse Bloch angle is that of its supplement
        a, b = bloch_pair(theta)
        assert max_commutator_norm(a, b) == pytest.approx(qubit_rhs(math.pi - theta), abs=1e-12)


@pytest.mark.parametrize(
    "check",
    [check_theorem1, check_theorem2, check_corollary_pvm_instrument],
    ids=lambda check: check.__name__,
)
def test_one_dimension_error_before_projectivity(check):
    pair = bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0))
    # a qutrit joint observable that is not projective either
    joint = random_povm(3, 4, 5)
    labels = {o: "+-"[k % 2] for k, o in enumerate(joint.outcomes)}
    f = OutcomeMap(joint.outcomes, ("+", "-"), labels)
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        check(*pair, joint, f, f)


def closed_form_region(theta, grid_size):
    return admissible_region_curves(theta, grid_size, qubit_rhs(theta))


class TestAdmissibleRegion:
    def test_contour_endpoint_values(self):
        region = closed_form_region(math.pi / 2, 201)
        # at X = 0 the product bound needs Y = sin(theta)/2
        assert region.y_product_bound[0] == pytest.approx(0.5, abs=1e-9)
        # at X = 0.5 the bound is already met with Y = 0
        assert region.y_product_bound[-1] == pytest.approx(0.0, abs=1e-9)

    def test_curves_are_read_only(self):
        region = closed_form_region(math.pi / 2, 5)
        for curve in (region.x, region.y_product_bound, region.y_additive_bound):
            assert not curve.flags.writeable

    def test_contour_monotone_nonincreasing(self):
        region = closed_form_region(math.pi / 2, 101)
        y = region.y_product_bound
        assert all(b <= a + 1e-9 for a, b in zip(y, y[1:]))

    def test_contour_points_bracket_the_level_set(self):
        # the returned point meets the bound, and backing off by 1e-10
        # must fall below it
        region = closed_form_region(math.pi / 2, 51)
        for x, y in zip(region.x, region.y_product_bound):
            assert theorem1_lhs(float(x), float(y), 0.0, 0.0) >= 0.5 - 1e-12
            if y > 1e-10:
                below = theorem1_lhs(float(x), float(y) - 1e-10, 0.0, 0.0)
                assert below < 0.5

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2])
    def test_contour_points_lie_on_the_level_set(self, theta):
        # the contour is the closed-form root, so every point with Y > 0
        # meets the bound to rounding
        region = closed_form_region(theta, 201)
        target = math.sin(theta) / 2
        on_curve = [(float(x), float(y)) for x, y in zip(region.x, region.y_product_bound) if y > 0]
        assert len(on_curve) > 50
        for x, y in on_curve:
            assert abs(theorem1_lhs(x, y, 0.0, 0.0) - target) <= 1e-12

    @pytest.mark.parametrize(
        "theta, rhs, message",
        [
            (5.0, 0.5, "theta"),
            (math.nan, 0.5, "theta"),
            (math.pi / 2, -0.1, "rhs"),
            (math.pi / 2, math.nan, "rhs"),
        ],
        ids=["theta-above", "theta-nan", "rhs-negative", "rhs-nan"],
    )
    def test_rejects_bad_range_or_target(self, theta, rhs, message):
        with pytest.raises(ValueError, match=message):
            admissible_region_curves(theta, 11, rhs)

    def test_additive_line(self):
        region = closed_form_region(math.pi / 2, 11)
        h = heinosaari_lower_bound(math.pi / 2)
        for x, y in zip(region.x, region.y_additive_bound):
            assert y == pytest.approx(max(h - float(x), 0.0), abs=1e-15)

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            closed_form_region(1.0, 1)

    def test_curves_cross_for_orthogonal_axes(self):
        region = closed_form_region(math.pi / 2, 200)
        diff = region.y_product_bound - region.y_additive_bound
        interior = (region.y_product_bound > 0) & (region.y_additive_bound > 0)
        signs = np.sign(diff[interior])
        assert (signs > 0).any() and (signs < 0).any()


class TestRandomInstanceGenerator:
    def test_instances_are_well_formed(self):
        a, b, f, to_a, to_b = random_instances(np.random.default_rng(49), 10)
        assert len(a.counts) == len(b.counts) == len(f.counts) == 10
        assert (a.dims == b.dims).all() and (a.dims == f.dims).all()
        # one target per outcome of F, within the outcomes of A and of B
        assert len(to_a) == len(to_b) == f.counts.sum()
        owner = np.repeat(np.arange(10), f.counts)
        assert (to_a < a.counts[owner]).all() and (to_b < b.counts[owner]).all()
        assert (to_a >= 0).all() and (to_b >= 0).all()
        for i in range(10):
            assert a.povm(i).dim == f.povm(i).dim == a.dims[i]
            assert a.povm(i).outcomes == tuple(f"o{k}" for k in range(a.counts[i]))
