"""The lane-batched interior-point core on the frontier's LMI: lanes do not
interact, the qubit lanes reach the closed form, its duals pass `judge` only
as they are, X = 0 and pairs above its size never reach it, and lanes split
into batches by the size of their Schur complement."""

import numpy as np
import pytest

from jointmeas import feasibility, sdp
from jointmeas.feasibility import WITNESS_MARGINAL_TOL, frontier_point
from jointmeas.povm import bloch_pvm

from test_feasibility import dr_rounds, orthogonal_qubit_frontier, seed7_qutrit_pair


def qubit_pair():
    return feasibility._Pair(bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0)))


def assert_same_solution(got, want):
    assert (got.iterations, got.error) == (want.iterations, want.error)
    assert np.array_equal(got.groups, want.groups)
    assert np.array_equal(got.multipliers, want.multipliers)


@pytest.mark.parametrize("max_iter", [100, 12], ids=["converged", "capped"])
def test_batched_lanes_equal_single_lanes(max_iter, monkeypatch):
    # the seed-7 lanes converge after different numbers of steps, so lanes
    # leave the batch one after another; at a cap of 12 some lanes run out
    # first. X = 0 has no interior, and its lane stalls short of GAP_TOL;
    # at X = 0.49 the factorization of M fails for one lane of the batch
    factorized = []
    real = sdp._cholesky

    def recording(m):
        factors, ok = real(m)
        factorized.append(ok)
        return factors, ok

    monkeypatch.setattr(sdp, "_cholesky", recording)
    pair = feasibility._Pair(*seed7_qutrit_pair())
    xs = [0.05, 0.0, 0.2, 0.1, 0.49]
    incidence, y_col, constants = pair.frontier_lmi(xs)
    batched = sdp.solve(incidence, y_col, constants, max_iter)
    converged = [s.iterations for s in batched if s.error < sdp.GAP_TOL]
    assert batched[1].error > sdp.GAP_TOL
    if max_iter == 12:
        assert 0 < len(converged) < 3
    else:
        assert len(converged) == 3 and len(set(converged)) > 1
        assert any(ok.any() and not ok.all() for ok in factorized)
    for j, want in enumerate(batched):
        assert_same_solution(sdp.solve(incidence, y_col, constants[j : j + 1], max_iter)[0], want)


def test_orthogonal_qubits_reach_the_closed_form():
    pair = qubit_pair()
    xs = [0.1, 0.2, 0.3, 0.4]
    for solved in sdp.solve(*pair.frontier_lmi(xs), 100):
        assert solved.error < sdp.GAP_TOL
        assert solved.iterations <= 15
    for x, (f, triple) in zip(xs, pair.interior_points(xs, 100)):
        _, x_w, y_w = pair.witness(f)
        assert x_w <= x + 1e-8
        assert abs(y_w - orthogonal_qubit_frontier(x)) <= 1e-6
        root = pair.judge(*triple, x, 0.0)[1]
        assert abs(root - orthogonal_qubit_frontier(x)) <= 1e-6


def test_judge_refuses_a_dual_with_z_lowered():
    pair = qubit_pair()
    x = 0.2 + WITNESS_MARGINAL_TOL / 2
    (_, (xs, ys, z)), = pair.interior_points([x], 100)
    judged = pair.judge(xs, ys, z, x + WITNESS_MARGINAL_TOL / 2, 0.0)
    assert judged is not None
    assert judged[1] == pytest.approx(orthogonal_qubit_frontier(0.2), abs=2e-6)
    assert pair.judge(xs, ys, z - 1e-3 * np.eye(2), x + WITNESS_MARGINAL_TOL / 2, 0.0) is None


def test_zero_budget_never_calls_the_solver(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the interior-point core ran at X = 0")

    monkeypatch.setattr(sdp, "solve", no_solve)
    rounds = []
    real = feasibility._douglas_rachford

    def counting(z, *args):
        rounds.append(len(z))
        return real(z, *args)

    monkeypatch.setattr(feasibility, "_douglas_rachford", counting)
    point = frontier_point(*seed7_qutrit_pair(), 0.0, max_iter=120)
    # the bracket is open at X = 0, so the lifted rounds ran instead
    assert rounds == [1, 1]
    assert 0.0 < point.y_lower <= point.y_achieved
    assert point.x_achieved <= WITNESS_MARGINAL_TOL


def test_large_pairs_stay_on_lifted_rounds(monkeypatch):
    # a pair whose Schur complement has more than SDP_MAX_ROWS rows runs
    # lifted rounds at an X budget above 0, as every point did before
    a, b = seed7_qutrit_pair()
    rows = feasibility._Pair(a, b).schur_rows
    assert rows == 8 * 9 + 1 <= feasibility.SDP_MAX_ROWS
    monkeypatch.setattr(feasibility, "SDP_MAX_ROWS", rows - 1)

    def no_solve(*args, **kwargs):
        raise AssertionError("the interior-point core ran on a pair above its size")

    monkeypatch.setattr(sdp, "solve", no_solve)
    rounds = dr_rounds(monkeypatch)
    point = frontier_point(a, b, 0.1, y_resolution=1e-3, max_iter=120)
    assert rounds == [1, 1]
    assert 0.0 < point.y_lower <= point.y_achieved
    assert point.x_achieved <= 0.1 + WITNESS_MARGINAL_TOL


def test_lanes_split_into_batches_by_schur_size(monkeypatch):
    # with room for two lanes' M a solve, three lanes run as two solves of
    # two and one lanes, and each lane keeps its bits
    pair = feasibility._Pair(*seed7_qutrit_pair())
    xs = [0.05, 0.1, 0.2]
    whole = pair.interior_points(xs, 100)
    sizes = []
    real = sdp.solve

    def recording(incidence, scalar, constants, max_iter):
        sizes.append(len(constants))
        return real(incidence, scalar, constants, max_iter)

    monkeypatch.setattr(sdp, "solve", recording)
    monkeypatch.setattr(feasibility, "SDP_BATCH_ENTRIES", 3 * pair.schur_rows**2 - 1)
    split = pair.interior_points(xs, 100)
    assert sizes == [2, 1]
    for (f, triple), (f_whole, triple_whole) in zip(split, whole):
        assert np.array_equal(f, f_whole)
        assert all(np.array_equal(u, v) for u, v in zip(triple, triple_whole))
