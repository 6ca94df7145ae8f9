"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <n> ... PASS/FAIL` line (visible with
`pytest -s` or in the captured output) and asserts at the stated tolerance
and runtime limit.
"""

import math
import time

import numpy as np
import pytest

from jointmeas.bounds import (
    check_corollary_joint,
    check_theorem1,
    heinosaari_lower_bound,
    max_commutator_norm,
)
from jointmeas.cli import cli_dispatch
from jointmeas.feasibility import check_joint_measurability, frontier_sweep
from jointmeas.distances import D_inf, D_l1
from jointmeas.povm import (
    bloch_pvm,
    noisy_qubit_povm,
    random_povm,
    validate_povm,
)
from jointmeas.selftest import (
    suite_metric_axioms,
    suite_povm_invariants,
    suite_theorem1,
    suite_theorem2,
)
from jointmeas.smearing import coordinate_maps, marginalize


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{label}]: {status}{suffix}")


def bloch_pair(theta):
    return bloch_pvm((0, 0, 1)), bloch_pvm((math.sin(theta), 0, math.cos(theta)))


def test_acceptance_1_qubit_commutator_norm():
    start = time.perf_counter()
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 2):
        a, b = bloch_pair(theta)
        worst = max(worst, abs(max_commutator_norm(a, b) - math.sin(theta) / 2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, "qubit commutator norm sin(theta)/2", ok, f"max dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_acceptance_2_theorem1_universal_validity():
    start = time.perf_counter()
    result = suite_theorem1(trials=1000, seed=20260810)
    elapsed = time.perf_counter() - start
    ok = result.violations == 0 and elapsed < 60.0
    report(2, "theorem1 on 1000 random instances", ok, f"{elapsed:.1f}s")
    assert result.violations == 0, result.details
    assert elapsed < 60.0


def test_acceptance_3_theorem2_universal_validity():
    start = time.perf_counter()
    result = suite_theorem2(trials=500, seed=20260811)
    elapsed = time.perf_counter() - start
    ok = result.violations == 0 and elapsed < 60.0
    report(3, "theorem2 on 500 random instances", ok, f"{elapsed:.1f}s")
    assert result.violations == 0, result.details
    assert elapsed < 60.0


def test_acceptance_4_joint_measurability_threshold():
    start = time.perf_counter()

    below = check_corollary_joint(
        noisy_qubit_povm((0, 0, 1), 0.70), noisy_qubit_povm((1, 0, 0), 0.70)
    )
    above = check_corollary_joint(
        noisy_qubit_povm((0, 0, 1), 0.72), noisy_qubit_povm((1, 0, 0), 0.72)
    )
    # closed forms: sqrt(V_A V_B) = (1 - eta^2)/4, rhs = eta^2 / 4
    assert below.lhs == pytest.approx((1 - 0.70**2) / 4, abs=1e-12)
    assert below.rhs == pytest.approx(0.70**2 / 4, abs=1e-12)
    assert below.lhs == pytest.approx(0.1275, abs=1e-4)
    assert below.rhs == pytest.approx(0.1225, abs=1e-4)
    assert below.satisfied
    assert above.lhs == pytest.approx((1 - 0.72**2) / 4, abs=1e-12)
    assert above.rhs == pytest.approx(0.72**2 / 4, abs=1e-12)
    assert above.lhs == pytest.approx(0.1204, abs=1e-4)
    assert above.rhs == pytest.approx(0.1296, abs=1e-4)
    assert not above.satisfied

    feasible = check_joint_measurability(
        noisy_qubit_povm((0, 0, 1), 0.70), noisy_qubit_povm((1, 0, 0), 0.70)
    )
    assert feasible.status == "feasible"
    assert feasible.witness is not None
    assert validate_povm(feasible.witness) == []
    a70 = noisy_qubit_povm((0, 0, 1), 0.70)
    b70 = noisy_qubit_povm((1, 0, 0), 0.70)
    f_a, f_b = coordinate_maps(a70.outcomes, b70.outcomes)
    assert D_inf(a70, marginalize(feasible.witness, f_a)).value <= 1e-6
    assert D_inf(b70, marginalize(feasible.witness, f_b)).value <= 1e-6

    infeasible = check_joint_measurability(
        noisy_qubit_povm((0, 0, 1), 0.72), noisy_qubit_povm((1, 0, 0), 0.72)
    )
    assert infeasible.status == "infeasible"
    assert "necessary condition violated" in infeasible.certificate_note

    elapsed = time.perf_counter() - start
    report(
        4,
        "noisy-qubit threshold eta 0.70 vs 0.72",
        elapsed < 30.0,
        f"solver: {feasible.status}/{infeasible.status}, {elapsed:.1f}s",
    )
    assert elapsed < 30.0


def test_acceptance_5_admissible_region_curves(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "curves.csv"
    code = cli_dispatch(
        ["qubit-demo", "--theta", repr(math.pi / 2), "--grid", "100", "--out", str(out)]
    )
    assert code == 0
    rows = [list(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
    xs = np.array([r[0] for r in rows])
    y1 = np.array([r[1] for r in rows])
    y2 = np.array([r[2] for r in rows])

    # symmetric point of curve 1: interpolate the crossing of y1(x) with the
    # diagonal, and compare to the positive root of 2X^2 + 6X = 1/2
    expected_sym = (-6 + math.sqrt(36 + 4)) / 4
    gap = y1 - xs
    k = int(np.argmax(gap <= 0))
    assert k > 0, "curve 1 never crosses the diagonal on the grid"
    t = gap[k - 1] / (gap[k - 1] - gap[k])
    sym_x = float(xs[k - 1] + t * (xs[k] - xs[k - 1]))
    sym_err = abs(sym_x - expected_sym)

    # curve 2 is the line X + Y = 1 - 1/sqrt(2) wherever Y > 0
    expected_sum = 1 - 1 / math.sqrt(2)
    positive = y2 > 0
    sum_err = float(np.abs((xs + y2)[positive] - expected_sum).max())
    assert heinosaari_lower_bound(math.pi / 2) == pytest.approx(expected_sum, abs=1e-12)

    # the curves cross inside (0, 0.5)^2: the sign of y1 - y2 changes while
    # both curves are strictly inside the square
    inside = (y1 > 0) & (y2 > 0) & (y1 < 0.5) & (y2 < 0.5) & (xs > 0) & (xs < 0.5)
    signs = np.sign((y1 - y2)[inside])
    crosses = bool((signs > 0).any() and (signs < 0).any())

    elapsed = time.perf_counter() - start
    ok = sym_err <= 1e-4 and sum_err <= 1e-9 and crosses and elapsed < 5.0
    report(
        5,
        "admissible-region curves at theta = pi/2",
        ok,
        f"sym point {sym_x:.6f} (err {sym_err:.1e}), line err {sum_err:.1e}, "
        f"crossing {crosses}, {elapsed:.1f}s",
    )
    assert sym_err <= 1e-4
    assert sum_err <= 1e-9
    assert crosses
    assert elapsed < 5.0


def test_acceptance_6_distance_duality():
    start = time.perf_counter()
    rng = np.random.default_rng(20260812)
    worst_witness = 0.0
    worst_exceed = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        p = random_povm(dim, n, int(rng.integers(2**32)))
        q = random_povm(dim, n, int(rng.integers(2**32)))

        # 1000 random mixed states, vectorized
        g = rng.standard_normal((1000, dim, dim)) + 1j * rng.standard_normal((1000, dim, dim))
        rho = g @ np.conj(np.swapaxes(g, -1, -2))
        rho /= np.einsum("sii->s", rho).real[:, None, None]
        prob_p = np.einsum("sij,aji->sa", rho, p.elements).real
        prob_q = np.einsum("sij,aji->sa", rho, q.elements).real

        for dv, sampled in (
            (D_inf(p, q), np.abs(prob_p - prob_q).max(axis=1)),
            (D_l1(p, q), np.abs(prob_p - prob_q).sum(axis=1) / 2),
        ):
            w = dv.witness_state
            wp = np.einsum("ij,aji->a", w, p.elements).real
            wq = np.einsum("ij,aji->a", w, q.elements).real
            at_witness = (
                np.abs(wp - wq).max()
                if isinstance(dv.witness, str)
                else np.abs(wp - wq).sum() / 2
            )
            worst_witness = max(worst_witness, abs(at_witness - dv.value))
            worst_exceed = max(worst_exceed, float(sampled.max()) - dv.value)

    elapsed = time.perf_counter() - start
    ok = worst_witness <= 1e-8 and worst_exceed <= 1e-9 and elapsed < 60.0
    report(
        6,
        "closed-form distance duality",
        ok,
        f"witness dev {worst_witness:.1e}, max exceed {worst_exceed:.1e}, {elapsed:.1f}s",
    )
    assert worst_witness <= 1e-8
    assert worst_exceed <= 1e-9
    assert elapsed < 60.0


def test_acceptance_7_frontier_containment():
    start = time.perf_counter()
    a = bloch_pvm((0, 0, 1))
    b = bloch_pvm((1, 0, 0))
    points = frontier_sweep(a, b, 20, x_max=0.5, y_resolution=1e-4)
    f_a, f_b = coordinate_maps(a.outcomes, b.outcomes)
    h = heinosaari_lower_bound(math.pi / 2)

    min_slack = math.inf
    min_line = math.inf
    for pt in points:
        assert validate_povm(pt.witness) == []
        assert pt.x_achieved <= pt.x_target + 1e-6
        rep = check_theorem1(a, b, pt.witness, f_a, f_b)
        min_slack = min(min_slack, rep.slack)
        min_line = min(min_line, pt.x_achieved + pt.y_achieved - h)
    ys = [pt.y_achieved for pt in points]
    monotone = all(later <= earlier + 1e-6 for earlier, later in zip(ys, ys[1:]))

    elapsed = time.perf_counter() - start
    ok = min_slack >= -1e-9 and min_line >= -1e-9 and monotone and elapsed < 600.0
    report(
        7,
        "frontier containment for theta = pi/2",
        ok,
        f"min bound slack {min_slack:.2e}, min line margin {min_line:.2e}, {elapsed:.0f}s",
    )
    assert min_slack >= -1e-9
    assert min_line >= -1e-9
    assert monotone
    assert elapsed < 600.0


def test_acceptance_8_invariant_suites():
    start = time.perf_counter()
    metric = suite_metric_axioms(1000, 20260813)
    invariants = suite_povm_invariants(1000, 20260814)
    elapsed = time.perf_counter() - start
    violations = metric.violations + invariants.violations
    ok = violations == 0 and elapsed < 60.0
    report(8, "metric axioms and invariant suites", ok, f"{elapsed:.1f}s")
    assert metric.violations == 0, metric.details
    assert invariants.violations == 0, invariants.details
    assert elapsed < 60.0
