import dataclasses
import math

import numpy as np
import pytest

from jointmeas import bounds, distances, feasibility, linalg, povm, sdp
from jointmeas.bounds import (
    SLACK_TOL,
    check_corollary_joint,
    check_theorem1,
    heinosaari_lower_bound,
    max_commutator_norm,
    theorem1_min_y,
)
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
    PovmViolation,
    bloch_pvm,
    intrinsic_uncertainty_inf,
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


def _haar(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def trine_povm():
    mats = []
    for k in range(3):
        ang = 2 * np.pi * k / 3
        mats.append(
            (np.eye(2, dtype=complex) + np.sin(ang) * PAULI_X + np.cos(ang) * PAULI_Z) / 3
        )
    return Povm(("t0", "t1", "t2"), np.stack(mats))


def fourier_mub_pair(d, eta):
    """The computational and Fourier bases of dimension d, each mixed with
    white noise at visibility eta."""
    w = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / math.sqrt(d)
    noise = (1 - eta) * np.eye(d) / d

    def noisy(basis, prefix):
        return Povm(
            tuple(f"{prefix}{k}" for k in range(d)),
            np.stack([eta * np.outer(v, np.conj(v)) + noise for v in basis.T]),
        )

    return noisy(np.eye(d, dtype=complex), "z"), noisy(w, "f")


def mub_threshold(d):
    """Visibility above which the noisy Fourier-conjugate pair is not
    jointly measurable (Carmeli, Heinosaari & Toigo 2012)."""
    return (1 + 1 / (math.sqrt(d) + 1)) / 2


def joint_marginals(seed, noise):
    """Biased qubit pair with unequal visibilities: the marginals of a random
    four-outcome rank-one qubit POVM mixed with `noise` of the flat one, so
    jointly measurable by construction (on the boundary at noise = 0)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    f = linalg.renormalize(np.einsum("ki,kj->kij", v, np.conj(v)), 1e-12)
    f = ((1 - noise) * f + noise * np.eye(2) / 4).reshape(2, 2, 2, 2)
    return Povm(("a0", "a1"), f.sum(axis=1)), Povm(("b0", "b1"), f.sum(axis=0))


def assert_sound_certificate(result, a, b):
    """Every dual certificate must re-verify with numpy alone: each
    X_a + Y_b PSD and sum tr(X_a A_a) + sum tr(Y_b B_b) < 0, with room to
    spare for the shift that would absorb any rounding-level negativity."""
    x, y = result.certificate
    assert x.shape == a.elements.shape and y.shape == b.elements.shape
    lam = min(np.linalg.eigvalsh(xa + yb)[0] for xa in x for yb in y)
    value = sum(np.trace(xa @ ea).real for xa, ea in zip(x, a.elements))
    value += sum(np.trace(yb @ eb).real for yb, eb in zip(y, b.elements))
    trace_a = sum(np.trace(ea).real for ea in a.elements)
    assert lam >= -1e-12
    assert value < 0
    assert value + max(0.0, -lam) * trace_a < 0


def forbid_solves(monkeypatch, message):
    """Make both frontier solvers, lifted Douglas-Rachford and the
    interior-point core, raise AssertionError(message) if they run."""

    def no_solve(*args, **kwargs):
        raise AssertionError(message)

    monkeypatch.setattr(feasibility, "_douglas_rachford", no_solve)
    monkeypatch.setattr(sdp, "solve", no_solve)


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
        a, b = noisy_qubit_povm((0, 0, 1), 0.72), noisy_qubit_povm((1, 0, 0), 0.72)
        result = check_joint_measurability(a, b)
        assert result.status == "infeasible"
        screen = check_corollary_joint(a, b)
        assert screen.slack == pytest.approx(-0.0092, abs=1e-12)
        assert f"(slack = {screen.slack:.3g})" in result.certificate_note

    def test_every_povm_is_jointly_measurable_with_itself(self):
        # nontrivial solve: the symmetrized-product seed of the trine with
        # itself is not positive, so the projections must do real work
        t = trine_povm()
        result = check_joint_measurability(t, t)
        assert result.status == "feasible"
        assert result.iterations > 10
        assert_sound_witness(result, t, t)

    @pytest.mark.parametrize("seed", [13, *range(60, 80)])
    def test_boundary_pair_feasible(self, seed):
        # marginals of a rank-one four-outcome POVM: jointly measurable, but
        # on the boundary, where the joint observable is unique
        a, b = joint_marginals(seed, 0.0)
        result = check_joint_measurability(a, b)
        assert result.status == "feasible"
        assert_sound_witness(result, a, b)

    def test_undecided_only_when_the_budget_runs_out(self):
        a, b = joint_marginals(13, 0.0)
        result = check_joint_measurability(a, b, max_iter=20)
        assert result.status == "undecided"
        assert result.iterations == 20
        assert result.certificate_note.endswith("(budget exhausted)")
        # the last round is cut at the budget
        assert check_joint_measurability(a, b, max_iter=25).iterations <= 25

    def test_seed_is_never_read_for_a_certificate(self, monkeypatch):
        calls = []
        real = feasibility._Pair.certificate

        def counting(self, k):
            calls.append(k)
            return real(self, k)

        monkeypatch.setattr(feasibility._Pair, "certificate", counting)
        # decided by the seed's witness, so no round ran to read
        a = diagonal_povm([[1, 0], [0, 1]], "a")
        b = diagonal_povm([[1, 0], [0, 1]], "b")
        assert check_joint_measurability(a, b).iterations == 0
        assert calls == []
        # one read after each round, the last cut at the budget
        result = check_joint_measurability(*joint_marginals(13, 0.0), max_iter=25)
        assert (result.status, result.iterations) == ("undecided", 25)
        assert len(calls) == math.ceil(25 / feasibility.CERTIFY_EVERY) == 3

    def test_dim_mismatch(self):
        with pytest.raises(ValueError) as err:
            check_joint_measurability(bloch_pvm((0, 0, 1)), random_povm(3, 2, seed=1))
        assert str(err.value) == "dimension mismatch: 2 vs 3"

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
            if result.certificate is not None:
                assert_sound_certificate(result, a, b)
        # random POVMs are unsharp enough that most pairs are compatible
        assert feasible >= 5


class TestMubThreshold:
    """Two Fourier-conjugate bases with white noise are jointly measurable
    exactly up to mub_threshold(d); the paper's necessary condition decides
    the qubit case, and above d = 2 only the dual certificate does."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("offset", [-0.01, -0.003])
    def test_feasible_below(self, d, offset):
        a, b = fourier_mub_pair(d, mub_threshold(d) + offset)
        result = check_joint_measurability(a, b)
        assert result.status == "feasible"
        assert result.certificate is None
        assert_sound_witness(result, a, b)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("offset", [0.003, 0.01])
    def test_infeasible_above(self, d, offset):
        a, b = fourier_mub_pair(d, mub_threshold(d) + offset)
        result = check_joint_measurability(a, b)
        assert result.status == "infeasible"
        assert result.witness is None
        if d >= 3:
            assert "dual certificate" in result.certificate_note
            assert_sound_certificate(result, a, b)


class TestDualCertificate:
    @pytest.fixture
    def certified(self):
        a, b = fourier_mub_pair(3, mub_threshold(3) + 0.01)
        result = check_joint_measurability(a, b)
        assert "dual certificate" in result.certificate_note
        return a, b, result

    def test_noisy_qutrit_pvms_certify_soundly(self):
        # the stalled region of the benchmark corpus: noisy rank-one PVMs in
        # random bases of d = 3 at visibilities 0.68-0.76
        rng = np.random.default_rng(70)
        certified = 0
        for eta in np.linspace(0.68, 0.76, 5):
            a, b = (
                Povm(
                    tuple(f"{p}{k}" for k in range(3)),
                    np.stack([eta * np.outer(v, np.conj(v)) + (1 - eta) * np.eye(3) / 3 for v in u.T]),
                )
                for p, u in (("a", _haar(rng, 3)), ("b", _haar(rng, 3)))
            )
            result = check_joint_measurability(a, b)
            if result.status == "feasible":
                assert_sound_witness(result, a, b)
            if result.certificate is not None:
                certified += 1
                assert result.status == "infeasible"
                assert_sound_certificate(result, a, b)
        assert certified >= 1

    def test_screen_verdict_carries_no_certificate(self):
        result = check_joint_measurability(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)))
        assert result.status == "infeasible"
        assert result.certificate is None

    @pytest.mark.parametrize(
        "a, b",
        [
            # unbiased, inside the Busch boundary |a + b| + |a - b| <= 2
            (noisy_qubit_povm((0, 0, 1), 0.70), noisy_qubit_povm((1, 0, 0), 0.70)),
            (noisy_qubit_povm((0, 0, 1), 0.6), noisy_qubit_povm((1, 0, 0), 0.79)),
            (
                noisy_qubit_povm((0, 0, 1), 0.70),
                noisy_qubit_povm((math.sin(1.2), 0, math.cos(1.2)), 0.70),
            ),
            # biased, with unequal visibilities, inside and on the boundary
            joint_marginals(71, 0.1),
            joint_marginals(72, 0.1),
            joint_marginals(71, 0.0),
            joint_marginals(13, 0.0),
            (trine_povm(), trine_povm()),
            fourier_mub_pair(3, mub_threshold(3) - 0.003),
            fourier_mub_pair(4, mub_threshold(4) - 0.003),
        ],
        ids=[
            "busch-equal", "busch-unequal", "busch-oblique", "biased-71", "biased-72",
            "biased-boundary", "biased-boundary-13", "trine", "mub3-below", "mub4-below",
        ],
    )
    def test_never_issued_for_a_feasible_pair(self, a, b, monkeypatch):
        # soundness does not depend on how the iterate was found: no PSD
        # stack at all, near the feasible set or far from it, may certify
        pair = feasibility._Pair(a, b)
        rng = np.random.default_rng(73)
        seeds = np.stack([*pair.flat_seeds(), pair.product_seed()])
        for scale in (1e-9, 1e-6, 1e-3, 1e-1, 1.0):
            r = rng.standard_normal((8, *seeds.shape[1:])) * (1 + 1j)
            k = linalg.project_psd_stack(seeds[rng.integers(3, size=8)] + scale * r)
            assert [pair.certificate(kl) for kl in k] == [None] * 8

        # nor may the solver's iterates after any round, at full budget and
        # on budgets cut before convergence
        tried = []
        real = feasibility._Pair.certificate

        def recording(self, k):
            found = real(self, k)
            tried.append(found)
            return found

        monkeypatch.setattr(feasibility._Pair, "certificate", recording)
        for max_iter in (1, 3, 10, 60, feasibility.DEFAULT_MAX_ITER):
            result = check_joint_measurability(a, b, max_iter=max_iter)
            assert result.status != "infeasible"
            assert result.certificate is None
        assert all(c is None for c in tried)

    def test_verifier_accepts_the_returned_pair(self, certified):
        a, b, result = certified
        # check-joint's pair is the lifted triple (X, Y, 0) at budgets (0, 0)
        judged = feasibility._Pair(a, b).judge(*result.certificate, np.zeros((3, 3)), 0.0, 0.0)
        value = None if judged is None else judged[0]
        assert value is not None and value < 0
        assert f"{value:.6g}" in result.certificate_note

    @pytest.mark.parametrize("mutation", ["sign-flipped", "under-shifted", "over-shifted"])
    def test_verifier_rejects_a_mutated_pair(self, mutation, certified):
        a, b, result = certified
        x, y = result.certificate
        eye = np.eye(a.dim)
        trace_a = sum(np.trace(e).real for e in a.elements)
        zero = np.zeros((a.dim, a.dim))
        value = feasibility._Pair(a, b).judge(x, y, zero, 0.0, 0.0)[0]
        if mutation == "sign-flipped":
            # fails both conditions
            x, y = -x, -y
        elif mutation == "under-shifted":
            # lowers the value but leaves X_a + Y_b indefinite
            x = x - 1e-3 * np.abs(value) * eye
        else:
            # keeps X_a + Y_b PSD but makes the value positive
            x = x + 2 * np.abs(value) / trace_a * eye
        assert feasibility._Pair(a, b).judge(x, y, zero, 0.0, 0.0) is None
        with pytest.raises(AssertionError):
            assert_sound_certificate(feasibility.FeasibilityResult(
                "infeasible", None, 0.0, 0, certificate=(x, y)), a, b)

    def test_verifier_rejects_a_value_at_rounding_level(self):
        # X_a = s I and Y_b = -s I give X_a + Y_b = 0 and the value
        # s (sum tr A_a - sum tr B_b), zero for a jointly measurable pair
        # but for rounding; s takes the sign that makes it read negative
        checked = 0
        for seed in range(70, 80):
            pair = feasibility._Pair(*joint_marginals(seed, 0.1))
            x = np.stack([np.eye(2, dtype=complex)] * 2)
            value = np.einsum("aij,aji->", x, pair.ea).real - np.einsum("bij,bji->", x, pair.eb).real
            if value != 0:
                x = -1024 * np.sign(value) * x
                assert pair.judge(x, -x, np.zeros((2, 2)), 0.0, 0.0) is None
                checked += 1
        assert checked >= 1

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("offset", [0.003, 0.01, 0.05])
    def test_certificate_bounds_the_zero_budget_frontier(self, d, offset):
        # the paper's joint-measurability condition is the X = Y = 0 corner
        # of its tradeoff: check-joint's pair, read as the lifted triple
        # (X, Y, 0) at the witness tolerance's X budget, proves a lower end
        # of Y there that no frontier witness at X = 0 may undercut
        a, b = fourier_mub_pair(d, mub_threshold(d) + offset)
        result = check_joint_measurability(a, b)
        assert "dual certificate" in result.certificate_note
        pair = feasibility._Pair(a, b)
        zero = np.zeros((d, d))
        judged = pair.judge(*result.certificate, zero, feasibility.WITNESS_MARGINAL_TOL, 0.0)
        assert judged is not None
        root = judged[1]
        assert 0.0 < root <= frontier_point(a, b, 0.0, y_resolution=1e-3).y_achieved

    def test_certified_within_a_budget_shorter_than_one_round(self):
        # the one round is cut at the budget and still ends with a
        # certificate check
        assert feasibility.CERTIFY_EVERY > 7
        a, b = fourier_mub_pair(3, mub_threshold(3) + 0.01)
        result = check_joint_measurability(a, b, max_iter=7)
        assert result.status == "infeasible"
        assert result.iterations == 7
        assert "dual certificate" in result.certificate_note
        assert_sound_certificate(result, a, b)


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

    def test_zero_budget_witness_is_not_mixed_away(self):
        # a witness that meets the zero budget up to rounding is kept as it
        # is; mixing it with A x flat at weight 1 - 0 / X_W = 1 would replace
        # it with that baseline (Y = 0.2504 here)
        pt = frontier_point(random_povm(2, 4, 102), random_povm(2, 3, 202), 0.0, y_resolution=1e-3)
        assert pt.x_achieved <= feasibility.WITNESS_MARGINAL_TOL
        assert pt.y_achieved <= 1e-3

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            frontier_point(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)), -0.1)


class TestTheorem1Bracket:
    """Each frontier search starts at the main bound's contour for valid
    inputs and at 0 for inputs that are not valid POVMs, raised to whatever
    the solvers certify. A point with an X budget is one interior-point
    lane, whose dual is judged once at the lower end it starts from and whose
    primal is offered as a witness."""

    @staticmethod
    def trial_ys(monkeypatch, a, b, x, certify=True):
        """The Y budget of every `judge` call and the point returned.
        Without `certify`, no solve yields a certificate: lifted rounds
        return their iterate with a zero gap, and interior-point lanes keep
        their primal but return zero multipliers."""
        ys = []
        real = feasibility._Pair.judge

        def recording(self, xs, yb, z, x_budget, y_budget):
            ys.append(y_budget)
            return real(self, xs, yb, z, x_budget, y_budget)

        monkeypatch.setattr(feasibility._Pair, "judge", recording)
        if not certify:
            monkeypatch.setattr(
                feasibility, "_douglas_rachford", lambda z, *args: (z, z, np.zeros_like(z))
            )
            real_solve = sdp.solve

            def uncertified(*args):
                return [
                    dataclasses.replace(s, multipliers=np.zeros_like(s.multipliers))
                    for s in real_solve(*args)
                ]

            monkeypatch.setattr(sdp, "solve", uncertified)
        pt = frontier_point(a, b, x)
        return ys, pt

    def test_orthogonal_qubits_at_zero_budget_need_no_solve(self, monkeypatch):
        forbid_solves(monkeypatch, "solver ran where the bound already closes the bracket")
        pt = frontier_point(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)), 0.0)
        assert pt.x_achieved == 0.0
        assert pt.y_achieved == pytest.approx(0.5, abs=1e-12)

    def test_valid_pair_starts_at_the_contour(self, monkeypatch):
        a, b = bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0))
        res = feasibility.FRONTIER_RESOLUTION
        lo = theorem1_min_y(0.1, 0.0, 0.0, max_commutator_norm(a, b)) - SLACK_TOL
        assert lo > 0.05
        # the certified end lies above the contour (Y* = 0.2 here) and the
        # lane's own primal point closes the bracket
        ys, pt = self.trial_ys(monkeypatch, a, b, 0.1)
        assert ys == [lo]
        assert pt.y_lower > lo + 0.1
        assert pt.y_achieved <= pt.y_lower + res
        # with nothing certified, the contour stays the lower end: the lane's
        # one dual was judged there, and so was every lifted round that then
        # ran on the open bracket until the budget was spent; the lane's
        # primal still gives the witness
        certified = pt
        ys, pt = self.trial_ys(monkeypatch, a, b, 0.1, certify=False)
        assert pt.y_lower == lo
        rounds = math.ceil(feasibility.FRONTIER_MAX_ITER / feasibility.DUAL_ROUND_ITERS)
        assert ys == [lo] * (1 + rounds)
        assert pt.y_achieved == certified.y_achieved

    def test_start_is_read_off_the_screen(self, monkeypatch):
        # with both solvers giving no evidence, each lower end stays where
        # it starts: the contour at V_A, V_B and C = 2 rhs of the screen's
        # report, computed by one reducer call for the whole start
        a, b = fourier_mub_pair(3, 0.9)
        xs = [0.0, 0.02, 0.05]
        zero = (np.zeros_like(a.elements), np.zeros_like(b.elements), np.zeros((3, 3), complex))
        monkeypatch.setattr(
            feasibility._Pair,
            "interior_points",
            lambda pair, budgets, max_iter: [(pair.flat_seeds()[0], zero)] * len(budgets),
        )
        monkeypatch.setattr(
            feasibility, "_douglas_rachford", lambda z, *args: (z, z, np.zeros_like(z))
        )
        calls = []
        for module in (bounds, povm, distances):
            real = module.max_norms

            def counting(*args, real=real):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(module, "max_norms", counting)
        points = feasibility._frontier(a, b, xs, 1e-4, feasibility.DUAL_ROUND_ITERS)
        assert len(calls) == 1
        monkeypatch.undo()
        r = check_corollary_joint(a, b)
        for x, pt in zip(xs, points):
            lo = float(theorem1_min_y(x, r.V_A, r.V_B, 2 * r.rhs)) - SLACK_TOL
            assert 0 < lo < pt.y_achieved
            assert pt.y_lower == lo == contour(a, b, x)

    def test_invalid_pair_starts_at_zero(self, monkeypatch):
        # A sums to diag(1.01, 1), which the CLI accepts under --lenient;
        # its renormalized A x flat baseline still meets the budget
        a, b = diagonal_povm([[1, 0], [0.01, 1]], "a"), bloch_pvm((1, 0, 0))
        assert validate_povm(a) != []
        v_a, v_b = intrinsic_uncertainty_inf(a), intrinsic_uncertainty_inf(b)
        assert theorem1_min_y(0.1, v_a, v_b, max_commutator_norm(a, b)) > 0.05
        # the lifted certificate needs no valid POVM, so it still raises
        # the end
        ys, pt = self.trial_ys(monkeypatch, a, b, 0.1)
        assert ys == [0.0]
        assert 0.1 < pt.y_lower <= pt.y_achieved
        certified = pt
        ys, pt = self.trial_ys(monkeypatch, a, b, 0.1, certify=False)
        assert pt.y_lower == 0.0
        rounds = math.ceil(feasibility.FRONTIER_MAX_ITER / feasibility.DUAL_ROUND_ITERS)
        assert ys == [0.0] * (1 + rounds)
        assert pt.y_achieved == certified.y_achieved


class TestSolverBudgets:
    """Budgets a solve cannot run on raise ValueError before any solve."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        forbid_solves(monkeypatch, "solver ran before its budgets were checked")

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
        # X = 0.5 is at the trivial baseline's budget, where the bracket
        # starts closed with lo = hi = 0
        with pytest.raises(ValueError, match=message):
            frontier_point(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)), 0.5, **kwargs)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_frontier_rejects_non_finite_x_budget(self, x):
        a, b = bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0))
        with pytest.raises(ValueError, match="X budget"):
            frontier_point(a, b, x)
        with pytest.raises(ValueError, match="x_max"):
            frontier_sweep(a, b, 6, x_max=x)

    @pytest.mark.parametrize(
        "rows",
        [[[0.5, 0], [0, 0.5]], [[1.2, 0], [-0.2, 1]], [[1, 0], [-1, 0]]],
        ids=["sums-to-half-identity", "negative-eigenvalue", "sums-to-zero"],
    )
    def test_frontier_rejects_a_budget_no_baseline_meets(self, rows):
        # an invalid A (the CLI accepts one under --lenient) can leave the
        # zero budget without a product baseline to start the bisection from
        a, b = diagonal_povm(rows, "a"), bloch_pvm((1, 0, 0))
        with pytest.raises(ValueError, match="X budget 0;"):
            frontier_point(a, b, 0.0)
        with pytest.raises(ValueError, match="X budget 0;"):
            frontier_sweep(a, b, 3)

    @pytest.mark.parametrize(
        "solve",
        [lambda a, b: frontier_point(a, b, 0.1), lambda a, b: frontier_sweep(a, b, 3)],
        ids=["frontier_point", "frontier_sweep"],
    )
    def test_frontier_rejects_a_dimension_mismatch(self, solve):
        with pytest.raises(ValueError) as err:
            solve(bloch_pvm((0, 0, 1)), random_povm(3, 2, seed=1))
        assert str(err.value) == "dimension mismatch: 2 vs 3"

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_check_joint_rejects_nonpositive_max_iter(self, max_iter):
        a, b = random_povm(3, 3, 1), random_povm(3, 3, 2)
        with pytest.raises(ValueError, match="max_iter"):
            check_joint_measurability(a, b, max_iter=max_iter)


class TestConstraintDescription:
    """Each projection of the product-outcome constraint description lands in
    its set and is idempotent, on a two-lane stack."""

    @pytest.fixture
    def pair_and_stack(self):
        rng = np.random.default_rng(60)
        pair = feasibility._Pair(random_povm(3, 2, 61), random_povm(3, 3, 62))
        r = rng.standard_normal((2, 2, 3, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3, 3))
        return pair, (r + np.conj(np.swapaxes(r, -1, -2))) / 2

    def test_project_marginals(self, pair_and_stack):
        pair, f = pair_and_stack
        p = pair.project_marginals(f)
        assert np.abs(pair.gap_a(p)).max() <= 1e-12
        assert np.abs(pair.gap_b(p)).max() <= 1e-12
        assert np.abs(pair.project_marginals(p) - p).max() <= 1e-12

    def test_project_total(self, pair_and_stack):
        # sum(F) = I is implied by the marginals of check-joint and is a row
        # of L's constraints on the frontier; both projections must meet it
        pair, f = pair_and_stack
        n = pair.na * pair.nb
        assert np.abs(pair.gap_total(f)).max() > 1e-3
        assert np.abs(pair.gap_total(pair.project_marginals(f))).max() <= 1e-12
        w = np.concatenate([f.reshape(2, n, 3, 3), pair.gap_a(f), pair.gap_b(f)], axis=1)
        p = pair.project_lifted_l(w)
        assert np.abs(pair.gap_total(p[:, :n].reshape(f.shape))).max() <= 1e-12
        assert np.abs(pair.project_lifted_l(p) - p).max() <= 1e-12

    @pytest.mark.parametrize("skew", [0.0, 1e-9], ids=["hermitian", "skewed"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_marginal_distances_match_d_inf(self, d, skew):
        # X and Y read off the gaps agree with `D_inf` of the marginal POVMs,
        # on raw product stacks and on the cleaned witnesses, also where the
        # targets and the stack carry a rounding-level anti-Hermitian part
        rng = np.random.default_rng(64 + d)
        for trial in range(6):
            seed = 100 * d + trial

            def skewed(e):
                return e + skew * (rng.standard_normal(e.shape) + 1j * rng.standard_normal(e.shape))

            a = random_povm(d, 3, seed)
            b = random_povm(d, 2, seed + 50)
            a = Povm(a.outcomes, skewed(a.elements))
            b = Povm(b.outcomes, skewed(b.elements))
            pair = feasibility._Pair(a, b)
            f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
            f = skewed(random_povm(d, 6, seed + 99).elements.reshape(3, 2, d, d))
            x, y = pair.marginal_distances(f)
            assert abs(x - D_inf(a, Povm(a.outcomes, f.sum(axis=1))).value) <= 1e-15
            assert abs(y - D_inf(b, Povm(b.outcomes, f.sum(axis=0))).value) <= 1e-15
            w, x, y = pair.witness(f)
            assert abs(x - D_inf(a, marginalize(w, f_a)).value) <= 1e-15
            assert abs(y - D_inf(b, marginalize(w, f_b)).value) <= 1e-15

    @pytest.mark.parametrize("sharp", [False, True], ids=["unsharp", "sharp"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_repair_meets_the_a_marginal(self, d, sharp):
        # the repair is a POVM with A's exact marginal, also for a sharp A
        # and F rows whose M_a = sum_b F_ab are rank one (Lüders products of
        # another sharp PVM C, F_ab = C_a B_b C_a), so that M_a's kernel is
        # filled
        rng = np.random.default_rng(70 + d)
        for trial in range(4):
            seed = 100 * d + trial
            b = random_povm(d, 2, seed + 50)
            if sharp:
                a, c = random_basis_pvm(rng, d, "a"), random_basis_pvm(rng, d, "c")
                f = np.einsum("aij,bjk,akl->abil", c.elements, b.elements, c.elements)
                assert np.linalg.matrix_rank(f.sum(axis=1)[0]) == 1
            else:
                a = random_povm(d, 3, seed)
                f = random_povm(d, 3 * 2, seed + 99).elements.reshape(3, 2, d, d)
            pair = feasibility._Pair(a, b)
            assert np.abs(pair.gap_a(f)).max() > 1e-2
            r = pair.repair(f)
            assert np.abs(pair.gap_a(r)).max() <= 1e-12
            assert np.abs(pair.gap_total(r)).max() <= 1e-12
            assert np.linalg.eigvalsh(linalg.hermitian_part(r)).min() >= -1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_repair_of_the_product_baselines(self, d):
        # flat x B becomes the Lüders product A_a^{1/2} B_b A_a^{1/2}, and
        # A x flat, already on A's marginal, stays as it is
        a, b = random_povm(d, 3, 80 + d), random_povm(d, 2, 90 + d)
        pair = feasibility._Pair(a, b)
        w, u = np.linalg.eigh(a.elements)
        root = (u * np.sqrt(w)[:, None]) @ np.conj(np.swapaxes(u, 1, 2))
        luders = np.einsum("aij,bjk,akl->abil", root, b.elements, root)
        a_flat, flat_b = pair.flat_seeds()
        assert np.abs(pair.repair(flat_b) - luders).max() <= 1e-12
        assert np.abs(pair.repair(a_flat) - a_flat).max() <= 1e-12

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_project_lifted_k(self, side, pair_and_stack):
        # K's clips hold each S row (side a) or T row (side b) of the lifted
        # stack within its lane's budget and leave the F rows PSD
        pair, f = pair_and_stack
        n = pair.na * pair.nb
        w = np.concatenate([f.reshape(2, n, 3, 3), pair.gap_a(f), pair.gap_b(f)], axis=1)
        first, count = (0, pair.na) if side == "a" else (pair.na, pair.nb)
        rows = slice(n + first, n + first + count)
        budget = np.array([0.05, 0.4])
        loose = [10.0, 10.0]
        window = pair.lifted_window(*((budget, loose) if side == "a" else (loose, budget)))
        assert (linalg.herm_norm_stack(w[:, rows]).max(axis=1) > budget + 1e-3).all()
        p = linalg.clip_operator_norm_stack(w, *window)
        assert (linalg.herm_norm_stack(p[:, rows]).max(axis=1) <= budget + 1e-12).all()
        assert np.linalg.eigvalsh(p[:, :n]).min() >= -1e-12
        assert np.abs(linalg.clip_operator_norm_stack(p, *window) - p).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_lifted_window_reproduces_the_two_kernel_projection(self, d):
        # one clip into each row's window gives, bit for bit, the PSD
        # projection of the F rows and the [-b, b] clip of the S and T rows,
        # each lane projected alone; the Y budget 0 gives the T rows the
        # window [-0.0, 0.0]
        rng = np.random.default_rng(65 + d)
        pair = feasibility._Pair(random_povm(d, 3, 66), random_povm(d, 2, 67))
        n, rows = pair.na * pair.nb, pair.na * pair.nb + pair.na + pair.nb
        r = rng.standard_normal((2, rows, d, d)) + 1j * rng.standard_normal((2, rows, d, d))
        w = (r + np.conj(np.swapaxes(r, -1, -2))) / 2
        xs, ys = [0.05, 0.3], [0.0, 0.2]
        got = linalg.clip_operator_norm_stack(w, *pair.lifted_window(xs, ys))
        for j in range(2):
            bound = np.array([xs[j]] * pair.na + [ys[j]] * pair.nb)[:, None]
            two_kernels = np.concatenate(
                [
                    linalg.project_psd_stack(w[j, :n]),
                    linalg.clip_operator_norm_stack(w[j, n:], -bound, bound),
                ]
            )
            assert np.array_equal(got[j], two_kernels)


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

    def test_every_witness_passes_the_povm_check(self, monkeypatch):
        validated = []

        def recording(p, *args, **kwargs):
            validated.append(p)
            return validate_povm(p, *args, **kwargs)

        monkeypatch.setattr(feasibility, "validate_povm", recording)
        points = frontier_sweep(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)), 3, y_resolution=1e-2)
        for p in points:
            assert any(p.witness is w for w in validated)

    def test_rejects_negative_x_max_before_solving(self, monkeypatch):
        forbid_solves(monkeypatch, "solver ran before the X budgets were checked")
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

    def test_one_spectral_call_per_lifted_step(self, monkeypatch):
        # K is one window clip a Douglas-Rachford step: the F rows get no
        # PSD projection of their own. Only X = 0 runs lifted rounds; the
        # seed-7 qutrit pair's bracket there stays open, so both rounds run
        calls = {"steps": 0, "project_psd_stack": 0, "clip_operator_norm_stack": 0}
        inside = []

        def counted(name):
            real = getattr(linalg, name)

            def call(*args):
                if inside:
                    calls[name] += 1
                return real(*args)

            monkeypatch.setattr(linalg, name, call)

        counted("project_psd_stack")
        counted("clip_operator_norm_stack")
        real_dr = feasibility._douglas_rachford

        def stepping(z, project_k, project_l, iterations):
            calls["steps"] += iterations
            inside.append(True)
            try:
                return real_dr(z, project_k, project_l, iterations)
            finally:
                inside.pop()

        monkeypatch.setattr(feasibility, "_douglas_rachford", stepping)
        feasibility._frontier(*seed7_qutrit_pair(), [0.0], 1e-3, 2 * feasibility.DUAL_ROUND_ITERS)
        assert calls["steps"] == 2 * feasibility.DUAL_ROUND_ITERS
        assert calls["clip_operator_norm_stack"] == calls["steps"]
        assert calls["project_psd_stack"] == 0

    def test_carry_forward_replaces_a_worse_later_point(self, monkeypatch):
        # the lane at X = 0.002 fails and the lifted round that follows it
        # finds no witness in 60 iterations, so that point keeps the product
        # baseline, far above the point at X = 0.001, whose witness also
        # meets the larger budget
        a, b = random_povm(3, 3, 101), random_povm(3, 3, 201)
        solved = frontier_point(a, b, 0.001, max_iter=60)
        fail_lane_at(monkeypatch, 0.002)
        points = frontier_sweep(a, b, 3, x_max=0.002, max_iter=60)
        alone = frontier_point(a, b, 0.002, max_iter=60)
        x_base, y_base = TestUnverifiedWitnesses.baseline(a, b, 0.002)[1:]
        assert (alone.x_achieved, alone.y_achieved) == (x_base, y_base)
        assert alone.y_achieved > 0.4
        assert points[2].witness is points[1].witness
        assert (points[2].x_achieved, points[2].y_achieved) == (
            points[1].x_achieved,
            points[1].y_achieved,
        )
        assert (points[1].x_achieved, points[1].y_achieved) == (
            solved.x_achieved,
            solved.y_achieved,
        )
        assert points[1].y_achieved == pytest.approx(0.0146875, abs=1e-6)
        # the lower end is the point's own, as the point alone finds it:
        # the lifted round raised it above the main bound's contour
        assert points[2].y_lower == alone.y_lower
        assert contour(a, b, 0.002) < alone.y_lower == pytest.approx(3.6e-4, abs=1e-5)

    def test_certified_lower_ends_carry_backward(self, monkeypatch):
        # the lane at X = 0.001 fails, and neither it nor the 60-iteration
        # lifted round that follows certifies anything on its own, while
        # X = 0.002 certifies 0.013532, which holds at every smaller budget
        a, b = random_povm(3, 3, 101), random_povm(3, 3, 201)
        own = {x: frontier_point(a, b, x, max_iter=60).y_lower for x in (0.0, 0.002)}
        fail_lane_at(monkeypatch, 0.001)
        points = frontier_sweep(a, b, 3, x_max=0.002, max_iter=60)
        assert frontier_point(a, b, 0.001, max_iter=60).y_lower == contour(a, b, 0.001)
        assert contour(a, b, 0.001) < own[0.002]
        assert own[0.002] == pytest.approx(0.013532, abs=1e-6)
        # and it is above the lower end that X = 0 certifies on its own
        assert own[0.0] < own[0.002]
        assert [p.y_lower for p in points] == [own[0.002]] * 3
        assert all(p.y_lower <= p.y_achieved for p in points)

    def test_failed_lane_goes_on_to_lifted_rounds(self, monkeypatch):
        # a lane that fails leaves its point open, so lifted rounds run on
        # it and close the bracket from the baseline and the contour to
        # within the resolution, around the closed form
        a, b = bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0))
        res = feasibility.FRONTIER_RESOLUTION
        y_base = TestUnverifiedWitnesses.baseline(a, b, 0.2)[2]
        fail_lane_at(monkeypatch, 0.2)
        rounds = dr_rounds(monkeypatch)
        pt = frontier_point(a, b, 0.2)
        assert rounds and set(rounds) == {1}
        assert contour(a, b, 0.2) < pt.y_lower <= pt.y_achieved <= pt.y_lower + res < y_base
        assert pt.y_lower <= orthogonal_qubit_frontier(0.2) <= pt.y_achieved + 1e-9
        # in a sweep the failed lane runs alone, the others stay closed
        rounds.clear()
        points = frontier_sweep(a, b, 6, y_resolution=res)
        assert points[2].x_target == pytest.approx(0.2)
        assert set(rounds) == {1}
        assert (points[2].y_lower, points[2].y_achieved) == (pt.y_lower, pt.y_achieved)

    def test_orthogonal_qubits_match_closed_form(self):
        # no POVM lies below the closed form at the X it achieves, and the
        # solver should come within its resolution of it at the X budget
        exact = orthogonal_qubit_frontier
        res = 1e-3
        for p in frontier_sweep(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)), 11, y_resolution=res):
            assert exact(p.x_achieved) - 1e-9 <= p.y_achieved <= exact(p.x_target) + res, p


def fail_lane_at(monkeypatch, x):
    """Make the interior-point lane of the X budget x fail, as a lane that
    broke down at its first step: its rows are the A x flat baseline and
    its dual triple is zero, so nothing it returns verifies."""
    real = feasibility._Pair.interior_points

    def failing(pair, budgets, max_iter):
        zero = (np.zeros_like(pair.ea), np.zeros_like(pair.eb), np.zeros_like(pair.eye))
        return [
            (pair.flat_seeds()[0], zero) if abs(b - x) <= feasibility.WITNESS_MARGINAL_TOL else lane
            for b, lane in zip(budgets, real(pair, budgets, max_iter))
        ]

    monkeypatch.setattr(feasibility._Pair, "interior_points", failing)


def contour(a, b, x):
    """The lower end a frontier point starts from: the main bound's
    smallest Y at the X budget x, less SLACK_TOL and at least 0."""
    v_a, v_b = intrinsic_uncertainty_inf(a), intrinsic_uncertainty_inf(b)
    return max(0.0, float(theorem1_min_y(x, v_a, v_b, max_commutator_norm(a, b))) - SLACK_TOL)


def orthogonal_qubit_frontier(x):
    """Y(X) = (1 - sqrt(1 - (1 - 2X)^2)) / 2, the exact frontier of the
    sharp z/x qubit pair."""
    return (1 - math.sqrt(max(0.0, 1 - (1 - 2 * x) ** 2))) / 2


def random_basis_pvm(rng, d, prefix):
    u = _haar(rng, d)
    return Povm(tuple(f"{prefix}{k}" for k in range(d)), np.einsum("ik,jk->kij", u, np.conj(u)))


def noisy_pvm_pair(seed, d):
    """The first two random-basis PVMs of dimension d drawn from `seed`."""
    rng = np.random.default_rng(seed)
    return random_basis_pvm(rng, d, "a"), random_basis_pvm(rng, d, "b")


def seed7_qutrit_pair():
    """The first two random-basis qutrit PVMs drawn from seed 7."""
    return noisy_pvm_pair(7, 3)


def dr_rounds(monkeypatch):
    """Wrap `_douglas_rachford` to record the lane count of every round."""
    rounds = []
    real = feasibility._douglas_rachford

    def counting(z, *args):
        rounds.append(z.shape[0])
        return real(z, *args)

    monkeypatch.setattr(feasibility, "_douglas_rachford", counting)
    return rounds


def ipm_lanes(monkeypatch):
    """Wrap `sdp.solve` to record, for every solve, each lane's iteration
    count, or None for a lane that did not converge."""
    solves = []
    real = sdp.solve

    def counting(*args):
        solved = real(*args)
        solves.append([s.iterations if s.error < sdp.GAP_TOL else None for s in solved])
        return solved

    monkeypatch.setattr(sdp, "solve", counting)
    return solves


def dual_rounds(pair, x_budgets, y_budgets, n_rounds=8):
    """Lifted Douglas-Rachford runs at fixed budgets, one lane per budget
    pair: the dual triples read after each of n_rounds rounds of
    DUAL_ROUND_ITERS iterations, as lists of one triple per lane."""
    window = pair.lifted_window(x_budgets, y_budgets)
    z = np.repeat(pair.lifted_start()[None], len(x_budgets), axis=0)
    rounds = []
    for _ in range(n_rounds):
        _, z, gap = feasibility._douglas_rachford(
            z,
            lambda w: linalg.clip_operator_norm_stack(w, *window),
            pair.project_lifted_l,
            feasibility.DUAL_ROUND_ITERS,
        )
        rounds.append(pair.lifted_certificates(gap))
    return rounds


class TestLiftedCertificate:
    """The frontier's lifted rounds: certificates of the lifted problem are
    verified before they move a lower end, and no lower end passes a
    witness or the closed form."""

    XS = [0.1, 0.2, 0.3, 0.4]

    @pytest.fixture
    def certified(self):
        # 1e-2 below the frontier at X = 0.2: infeasible by a wide margin
        pair = feasibility._Pair(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)))
        x, y = 0.2, orthogonal_qubit_frontier(0.2) - 1e-2
        triple = dual_rounds(pair, [x], [y])[0][0]
        return pair, x, y, triple

    def test_lifted_maps_project_onto_the_affine_set(self):
        pair = feasibility._Pair(random_povm(3, 2, 61), random_povm(3, 3, 62))
        rng = np.random.default_rng(63)
        r = rng.standard_normal((2, 2 * 3 + 2 + 3, 3, 3)) * (1 + 1j)
        p = pair.project_lifted_l(r)
        n = pair.na * pair.nb
        f = p[:, :n].reshape(2, pair.na, pair.nb, 3, 3)
        assert np.abs(pair.gap_a(f) - p[:, n : n + pair.na]).max() <= 1e-12
        assert np.abs(pair.gap_b(f) - p[:, n + pair.na :]).max() <= 1e-12
        assert np.abs(pair.gap_total(f)).max() <= 1e-12
        assert np.abs(pair.project_lifted_l(p) - p).max() <= 1e-12

    def test_never_verified_above_the_frontier(self):
        # 1e-5 above the closed form every probe is feasible, at the budget
        # the certificate is judged at too; no round may certify it
        pair = feasibility._Pair(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)))
        xs = [x + feasibility.WITNESS_MARGINAL_TOL for x in self.XS]
        ys = [orthogonal_qubit_frontier(x) + 1e-5 for x in self.XS]
        for triples in dual_rounds(pair, xs, ys):
            for x, y, triple in zip(xs, ys, triples):
                assert pair.judge(*triple, x, y) is None

    def test_verified_root_lies_between_probe_and_frontier(self, certified):
        pair, x, y, triple = certified
        judged = pair.judge(*triple, x, y)
        assert judged is not None
        root = judged[1]
        assert y < root <= orthogonal_qubit_frontier(x)

    @pytest.mark.parametrize("mutation", ["sign-flipped", "under-shifted", "over-shifted"])
    def test_verifier_rejects_a_mutated_triple(self, mutation, certified):
        pair, x, y, (xs, ys, z) = certified
        root = pair.judge(xs, ys, z, x, y)[1]
        value = root - y  # > 0, a scale for the mutations
        if mutation == "sign-flipped":
            xs, ys, z = -xs, -ys, -z
        elif mutation == "under-shifted":
            # Z lowered below PSD: the value drops but X_a + Y_b + Z is
            # indefinite
            z = z - 1e-3 * value * np.eye(2)
        else:
            # Z raised: X_a + Y_b + Z stays PSD but the value turns positive
            slope = sum(np.abs(np.linalg.eigvalsh(yb)).sum() for yb in ys)
            z = z + slope * value * np.eye(2)
        assert pair.judge(xs, ys, z, x, y) is None

    def test_verifier_rejects_a_value_at_rounding_level(self):
        # X_a = -s I, Y_b = s I and Z = 0 give X_a + Y_b + Z = 0 and, at
        # zero budgets, the value s (sum tr B_b - sum tr A_a): zero for a
        # valid pair but for rounding; s takes the sign that makes it read
        # negative
        checked = 0
        for seed in range(70, 80):
            pair = feasibility._Pair(*joint_marginals(seed, 0.1))
            eye = np.stack([np.eye(2, dtype=complex)] * 2)
            trace_a = np.einsum("aij,aji->", eye, pair.ea).real
            value = np.einsum("bij,bji->", eye, pair.eb).real - trace_a
            if value != 0:
                s = -1024 * np.sign(value)
                assert pair.judge(-s * eye, s * eye, 0 * eye[0], 0.0, 0.0) is None
                checked += 1
        assert checked >= 1

    def test_qubit_sweep_lower_ends_bracket_the_frontier(self):
        # on the 6- and 20-point sweeps every bracket holds the closed form
        # and is at most a tenth of the resolution wide, X near 0.45
        # included, where bisection probes used to stall
        a, b = bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0))
        exact = orthogonal_qubit_frontier
        for n_points in (6, 20):
            for p in frontier_sweep(a, b, n_points, y_resolution=1e-4):
                assert p.y_lower <= exact(p.x_target), p
                assert exact(p.x_achieved) - 1e-9 <= p.y_achieved, p
                assert p.y_lower <= p.y_achieved <= p.y_lower + 1e-5, p

    def test_qutrit_lower_end_stays_below_the_witness(self):
        # the certified ends stall below the best witness on this pair;
        # bisection from the certified ends alone reached Y 0.30981, 0.21488
        # and 0.10829 here
        a, b = seed7_qutrit_pair()
        points = feasibility._frontier(a, b, [0.05, 0.1, 0.2], 1e-2, feasibility.FRONTIER_MAX_ITER)
        bisected = [0.3098054148022764, 0.21488236628722124, 0.10828738592585266]
        for p, y_bisected in zip(points, bisected):
            assert 0.0 < p.y_lower <= p.y_achieved <= y_bisected, p
            assert p.x_achieved <= p.x_target + feasibility.WITNESS_MARGINAL_TOL

    def test_qutrit_brackets_narrow_at_fine_resolution(self):
        # the interior-point lanes close every bracket with an X budget to
        # the witness allowance's width, around the optima 0.2796585,
        # 0.2008974 and 0.0994496 (7 decimals); bisection with probes that
        # gave up reached the Y values below. X = 0 runs lifted rounds,
        # which the A x flat mix once left at that baseline's Y, 0.19
        # above the lower end
        a, b = seed7_qutrit_pair()
        res = 1e-3
        zero, *points = feasibility._frontier(
            a, b, [0.0, 0.05, 0.1, 0.2], res, feasibility.FRONTIER_MAX_ITER
        )
        assert 0.0 < zero.y_lower <= zero.y_achieved < zero.y_lower + 0.02, zero
        assert zero.x_achieved <= feasibility.WITNESS_MARGINAL_TOL
        bisected = [0.2847579152992282, 0.20801086416455034, 0.10093924013178356]
        optima = [0.2796585, 0.2008974, 0.0994496]
        for p, y_bisected, y_opt in zip(points, bisected, optima):
            assert 0.0 < p.y_lower <= p.y_achieved <= y_bisected, p
            assert p.y_achieved - p.y_lower <= 2e-6, p
            assert p.y_lower - 5e-8 <= y_opt <= p.y_achieved + 5e-8, p
            assert p.x_achieved <= p.x_target + feasibility.WITNESS_MARGINAL_TOL

    def test_ququart_bracket_closes(self):
        # the first two PVMs of noisy_pvm(default_rng(11), 4, 1.0), whose
        # lifted rounds ended 1.6e-3 wide after 2,000 iterations; the
        # optimum is 0.3440985 (7 decimals)
        a, b = noisy_pvm_pair(11, 4)
        p = frontier_point(a, b, 0.1)
        assert 0.0 < p.y_lower <= p.y_achieved <= p.y_lower + 2e-6, p
        assert p.y_lower - 5e-8 <= 0.3440985 <= p.y_achieved + 5e-8, p
        assert p.x_achieved <= 0.1 + feasibility.WITNESS_MARGINAL_TOL

    def test_zero_budget_bracket_closes(self):
        # the A x flat mix turned every overshooting witness of this pair
        # into that baseline (Y 0.4401) and left [0.05216, 0.06289]
        pt = frontier_point(random_povm(3, 4, 105), random_povm(3, 2, 205), 0.0, y_resolution=1e-3)
        assert pt.x_achieved <= feasibility.WITNESS_MARGINAL_TOL
        assert 0.0 < pt.y_lower <= pt.y_achieved <= pt.y_lower + 1e-3

    def test_qubit_sweep_needs_no_probe(self, monkeypatch):
        # a deterministic count, not a timing: the 6-point sweep's four open
        # points (X = 0 and 0.5 start closed) are the lanes of one
        # interior-point solve, each converged within 15 iterations, and no
        # lifted round runs
        rounds = dr_rounds(monkeypatch)
        solves = ipm_lanes(monkeypatch)
        frontier_sweep(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)), 6, y_resolution=1e-4)
        assert rounds == []
        assert len(solves) == 1 and len(solves[0]) == 4
        assert all(iters is not None and iters <= 15 for iters in solves[0]), solves

    @pytest.mark.parametrize("x", [0.1, 0.2, 0.3])
    def test_sharp_qutrit_mubs_close_with_no_probe(self, x, monkeypatch):
        a, b = fourier_mub_pair(3, 1.0)
        res = feasibility.FRONTIER_RESOLUTION
        rounds = dr_rounds(monkeypatch)
        solves = ipm_lanes(monkeypatch)
        pt = frontier_point(a, b, x, y_resolution=res)
        assert rounds == []
        assert len(solves) == 1 and solves[0][0] is not None and solves[0][0] <= 15, solves
        assert 0.0 <= pt.y_achieved - pt.y_lower < res


class TestUnverifiedWitnesses:
    """A witness that fails its checks is never reported: check-joint does
    not call the pair feasible, and a frontier point keeps the witness it
    had before."""

    @pytest.fixture
    def solving(self, monkeypatch):
        """A flag that turns on when the first Douglas-Rachford round or
        interior-point solve runs."""
        started = []

        def flagging(real):
            def call(*args):
                started.append(True)
                return real(*args)

            return call

        real_dr = feasibility._douglas_rachford
        monkeypatch.setattr(feasibility, "_douglas_rachford", flagging(real_dr))
        monkeypatch.setattr(sdp, "solve", flagging(sdp.solve))
        return started

    @staticmethod
    def reject_witnesses(monkeypatch, active):
        """Every POVM validated while `active` is nonempty fails the check;
        returns the POVMs it rejected."""
        rejected = []

        def failing(p):
            if not active:
                return validate_povm(p)
            rejected.append(p)
            return [PovmViolation("positivity", p.outcomes[0], 1.0)]

        monkeypatch.setattr(feasibility, "validate_povm", failing)
        return rejected

    @pytest.mark.parametrize("defect", ["fails-validation", "misses-marginals"])
    def test_check_joint_is_not_feasible_on_an_unverified_witness(self, defect, monkeypatch):
        # at visibility 0.70 the orthogonal pair is jointly measurable, and
        # an unpatched check returns a verified witness
        a, b = noisy_qubit_povm((0, 0, 1), 0.70), noisy_qubit_povm((1, 0, 0), 0.70)
        assert check_joint_measurability(a, b).status == "feasible"
        if defect == "fails-validation":
            seen = self.reject_witnesses(monkeypatch, [True])
        else:
            seen = []
            real = feasibility._Pair.witness

            def missing(pair, f):
                found = real(pair, f)
                seen.append(found)
                return found[0], 1.0, 1.0

            monkeypatch.setattr(feasibility._Pair, "witness", missing)
        result = check_joint_measurability(a, b, max_iter=40)
        assert seen
        assert result.status == "undecided"
        assert result.witness is None
        assert result.iterations == 40

    @staticmethod
    def baseline(a, b, x):
        """The best product baseline within the X budget x."""
        pair = feasibility._Pair(a, b)
        fits = [
            bl
            for f in pair.flat_seeds()
            if (bl := pair.witness(f)) is not None
            and bl[1] <= x + feasibility.WITNESS_MARGINAL_TOL
        ]
        return min(fits, key=lambda bl: bl[2])

    @pytest.mark.parametrize("defect", ["cleaning-fails", "mix-fails"])
    def test_frontier_point_keeps_its_earlier_witness(self, defect, solving, monkeypatch):
        a, b = random_povm(3, 3, 101), random_povm(3, 3, 201)
        x = 0.05
        w_base, x_base, y_base = self.baseline(a, b, x)
        # unpatched, the rounds find a witness better than the baseline
        assert frontier_point(a, b, x, max_iter=60).y_achieved < y_base
        solving.clear()
        if defect == "cleaning-fails":
            seen = self.reject_witnesses(monkeypatch, solving)
        else:
            # each offer's first cleaning overshoots the budget, and the
            # cleaning of its mix with the repair fails
            seen = []
            real = feasibility._Pair.witness

            def overshooting(pair, f):
                found = real(pair, f)
                if not solving or found is None:
                    return found
                seen.append(found)
                return (found[0], 1.0, found[2]) if len(seen) % 2 else None

            monkeypatch.setattr(feasibility._Pair, "witness", overshooting)
        point = frontier_point(a, b, x, max_iter=60)
        assert seen
        assert (point.x_achieved, point.y_achieved) == (x_base, y_base)
        assert np.array_equal(point.witness.elements, w_base.elements)
        assert validate_povm(point.witness) == []
        assert point.y_lower <= point.y_achieved
