"""Accuracy-tradeoff inequalities for approximate joint measurement.

Every bound has the same shape: a function of the two reconstruction
accuracies X = D(A, f_A(F)) and Y = D(B, f_B(F)) (plus intrinsic
uncertainties of A and B) on the left, and a noncommutativity measure of the
pair (A, B) on the right. The main inequality

    2XY + X + Y + 2 sqrt(2X + V(A)) sqrt(2Y + V(B))  >=  max_{a,b} ||[A_a, B_b]||

holds for every choice of joint observable F and outcome functions, in the
uniform distance with V the elementwise intrinsic uncertainty; the
total-variation version replaces every max over outcomes by a max over
outcome subsets. Specializations: projective A and B (V = 0), exactly
reproduced marginals (X = Y = 0, a necessary condition for joint
measurability), projective F (the square-root term drops), and sharp qubit
pairs at Bloch angle theta (right side sin(theta)/2), where the bound is
compared against the additive bound of Busch and Heinosaari. Every check that
takes a joint observable F runs through one evaluator, `_tradeoff`,
parameterized by the metric and the specialization.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import linalg
from .distances import D_inf, D_l1
from .povm import (
    Povm,
    bloch_pvm,
    intrinsic_uncertainty_inf,
    intrinsic_uncertainty_l1,
    is_pvm,
)
from .smearing import OutcomeMap, marginalize
from .subsets import CHUNK_BITS, gray_walk

# Bounds are reported satisfied when lhs - rhs >= -SLACK_TOL. All quantities
# are O(1), so an absolute threshold is appropriate.
SLACK_TOL = 1e-9


@dataclass(frozen=True)
class TradeoffReport:
    """Evaluated left and right side of one tradeoff inequality."""

    inequality_id: str
    X: float
    Y: float
    V_A: float
    V_B: float
    lhs: float
    rhs: float
    note: str = ""

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def satisfied(self) -> bool:
        return self.slack >= -SLACK_TOL


def max_commutator_norm(a: Povm, b: Povm) -> float:
    """max over outcome pairs (a, b) of ||[A_a, B_b]||."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ea = linalg.hermitian_part(a.elements)
    eb = linalg.hermitian_part(b.elements)
    prod = np.einsum("aij,bjk->abik", ea, eb)
    return float(linalg.commutator_norm_stack(prod).max())


def max_subset_commutator_norm(a: Povm, b: Povm) -> float:
    """max over subset pairs (D_A, D_B) of ||[sum_{a in D_A} A_a, sum_{b in D_B} B_b]||.

    Complementing either subset only flips the sign of the commutator (the
    elements sum to the identity), so one representative of each complement
    pair suffices on both sides. Blocks of A-sums are commuted against each
    stack of B-sums, so no norm call sees much more than one stack.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    what = "the subset commutator bound"
    ea = linalg.hermitian_part(a.elements)
    eb = linalg.hermitian_part(b.elements)
    best = 0.0
    for sums_a in gray_walk(ea, what):
        for sums_b in gray_walk(eb, what):
            block = max(1, 2**CHUNK_BITS // len(sums_b))
            for k in range(0, len(sums_a), block):
                prod = sums_a[k : k + block, None] @ sums_b
                best = max(best, float(linalg.commutator_norm_stack(prod).max()))
    return best


def theorem1_lhs(x: float, y: float, v_a: float, v_b: float) -> float:
    """Left side of the main tradeoff bound:
    2XY + X + Y + 2 sqrt(2X + V_A) sqrt(2Y + V_B)."""
    for name, v in (("X", x), ("Y", y), ("V_A", v_a), ("V_B", v_b)):
        if not v >= 0:
            raise ValueError(f"{name} must be nonnegative, got {v}")
    return 2 * x * y + x + y + 2 * math.sqrt(2 * x + v_a) * math.sqrt(2 * y + v_b)


def theorem1_min_y(x, v_a: float, v_b: float, rhs: float):
    """The smallest Y >= 0 with theorem1_lhs(X, Y, V_A, V_B) >= rhs, for a
    scalar or an array of X; no accuracy pair below it is achievable.

    The left side is a quadratic in u = sqrt(Y + V_B/2),
    (2X + 1) u^2 + 2 sqrt(2(2X + V_A)) u + X - (2X + 1) V_B/2 - rhs, and the
    contour is Y = u^2 - V_B/2 at its nonnegative root, floored at 0. X is
    clipped at rhs first, which keeps the discriminant >= 0, and Y = 0 for
    X >= rhs. At V_A = V_B = 0 the arithmetic is that of the projective
    contour, a quadratic in s = sqrt(Y) with linear term 4 sqrt(X) s, bit
    for bit.
    """
    for name, v in (("X", x), ("V_A", v_a), ("V_B", v_b), ("rhs", rhs)):
        if not np.all(np.asarray(v) >= 0):
            raise ValueError(f"{name} must be nonnegative, got {v}")
    xc = np.minimum(x, rhs)
    p = 2 * xc + 1
    w = 2 * (2 * xc + v_a)
    u = (np.sqrt(w - p * (xc - p * v_b / 2 - rhs)) - np.sqrt(w)) / p
    # u^2 - V_B/2 can round to +1e-17 where the true value is 0 (X = rhs
    # = V_A = 0), so X >= rhs is set to 0 outright
    return np.where(xc < rhs, np.maximum(u**2 - v_b / 2, 0.0), 0.0)[()]


def _tradeoff(
    inequality_id: str,
    a: Povm,
    b: Povm,
    f_povm: Povm,
    f_a: OutcomeMap,
    f_b: OutcomeMap,
    *,
    metric: str = "inf",
    sharp: str | None = None,
    lhs: Callable[[float, float], float] | None = None,
    rhs: float | None = None,
) -> TradeoffReport:
    """One member of the tradeoff family, with F marginalized along f_a, f_b.

    `metric` "inf" pairs the uniform distance with the elementwise commutator
    norm, "l1" the total-variation distance with the subset commutator norm.
    With `sharp` None, V_A and V_B are the metric's intrinsic uncertainties;
    otherwise they are 0 and `sharp` says what is projective: "pair" (A and
    B) or "joint" (F), checked by `is_pvm`.
    `lhs(X, Y)` replaces the main left side, `rhs` the commutator norm.

    The distances, uncertainties and norms are read as module globals at call
    time, so a wrapper installed on this module sees every call.
    """
    if a.dim != b.dim or a.dim != f_povm.dim:
        raise ValueError("all POVMs must share one dimension")
    if sharp == "pair" and not (is_pvm(a) and is_pvm(b)):
        raise ValueError("both observables must be projective for this bound")
    if sharp == "joint" and not is_pvm(f_povm):
        raise ValueError("the joint observable must be projective for this bound")
    if metric == "l1":
        dist, uncertainty, commutator = D_l1, intrinsic_uncertainty_l1, max_subset_commutator_norm
    else:
        dist, uncertainty, commutator = D_inf, intrinsic_uncertainty_inf, max_commutator_norm
    x = dist(a, marginalize(f_povm, f_a)).value
    y = dist(b, marginalize(f_povm, f_b)).value
    if sharp is None:
        v_a, v_b = uncertainty(a), uncertainty(b)
    else:
        v_a = v_b = 0.0
    return TradeoffReport(
        inequality_id=inequality_id,
        X=x,
        Y=y,
        V_A=v_a,
        V_B=v_b,
        lhs=theorem1_lhs(x, y, v_a, v_b) if lhs is None else lhs(x, y),
        rhs=commutator(a, b) if rhs is None else rhs,
    )


def check_theorem1(
    a: Povm, b: Povm, f_povm: Povm, f_a: OutcomeMap, f_b: OutcomeMap
) -> TradeoffReport:
    """Evaluate the main (uniform-distance) tradeoff bound.

    The inequality holds for every valid input; a violated report signals an
    implementation bug, not an interesting instance.
    """
    return _tradeoff("theorem1", a, b, f_povm, f_a, f_b)


def check_theorem2(
    a: Povm, b: Povm, f_povm: Povm, f_a: OutcomeMap, f_b: OutcomeMap
) -> TradeoffReport:
    """Evaluate the total-variation tradeoff bound (subset-summed quantities
    on both sides)."""
    return _tradeoff("theorem2", a, b, f_povm, f_a, f_b, metric="l1")


def check_corollary_pvm(
    a: Povm, b: Povm, f_povm: Povm, f_a: OutcomeMap, f_b: OutcomeMap
) -> TradeoffReport:
    """Uniform-distance bound for a projective pair (intrinsic uncertainties
    vanish): 2XY + X + Y + 4 sqrt(XY) >= max ||[A_a, B_b]||."""
    return _tradeoff("cor_pvm_inf", a, b, f_povm, f_a, f_b, sharp="pair")


def check_corollary_joint(a: Povm, b: Povm) -> TradeoffReport:
    """Necessary condition for exact joint measurability:
    sqrt(V(A) V(B)) >= (1/2) max ||[A_a, B_b]||.

    A violated report proves the pair is NOT jointly measurable; a satisfied
    report is inconclusive.
    """
    v_a = intrinsic_uncertainty_inf(a)
    v_b = intrinsic_uncertainty_inf(b)
    return TradeoffReport(
        inequality_id="cor_joint",
        X=0.0,
        Y=0.0,
        V_A=v_a,
        V_B=v_b,
        lhs=math.sqrt(v_a * v_b),
        rhs=max_commutator_norm(a, b) / 2,
        note=(
            "necessary condition only: a violation certifies that the pair is "
            "not jointly measurable; satisfaction is inconclusive"
        ),
    )


def check_corollary_pvm_instrument(
    a: Povm, b: Povm, f_povm: Povm, f_a: OutcomeMap, f_b: OutcomeMap
) -> TradeoffReport:
    """Tradeoff bound when the joint observable itself is projective:
    2XY + X + Y >= max ||[A_a, B_b]||."""
    return _tradeoff(
        "cor_pvm_instrument", a, b, f_povm, f_a, f_b,
        sharp="joint", lhs=lambda x, y: 2 * x * y + x + y,
    )


def _bloch_angle(n, m) -> float:
    u = np.asarray(n, dtype=float).reshape(-1)
    v = np.asarray(m, dtype=float).reshape(-1)
    return float(np.arccos(np.clip(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)), -1, 1)))


def qubit_rhs(theta: float) -> float:
    """Commutator-norm bound sin(theta)/2 for two sharp qubit observables at
    Bloch angle theta in [0, pi/2]."""
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    return math.sin(theta) / 2


def heinosaari_lower_bound(theta: float) -> float:
    """Busch-Heinosaari additive bound for sharp qubit pairs:
    X + Y >= sqrt(1/2) (cos(theta/2) + sin(theta/2) - 1)."""
    return math.sqrt(0.5) * (math.cos(theta / 2) + math.sin(theta / 2) - 1)


def check_qubit_pair(n, m, f_povm: Povm, f_a: OutcomeMap, f_b: OutcomeMap) -> TradeoffReport:
    """Specialize the projective-pair bound to two Bloch-sphere qubit
    observables; the right side is sin(theta)/2 in closed form."""
    a, b = bloch_pvm(n), bloch_pvm(m)
    theta = _bloch_angle(n, m)
    # E(m) and E(-m) only swap outcomes, so an obtuse angle has the same
    # commutator norm as its supplement
    rhs = qubit_rhs(min(theta, math.pi - theta))
    return _tradeoff("qubit", a, b, f_povm, f_a, f_b, sharp="pair", rhs=rhs)


def check_heinosaari(n, m, f_povm: Povm, f_a: OutcomeMap, f_b: OutcomeMap) -> TradeoffReport:
    """Additive comparison bound for sharp qubit pairs: X + Y against the
    Busch-Heinosaari value."""
    a, b = bloch_pvm(n), bloch_pvm(m)
    rhs = heinosaari_lower_bound(_bloch_angle(n, m))
    return _tradeoff(
        "heinosaari", a, b, f_povm, f_a, f_b,
        sharp="pair", lhs=lambda x, y: x + y, rhs=rhs,
    )


@dataclass(frozen=True, eq=False)
class AdmissibleRegion:
    """Boundary curves of the accuracy pairs (X, Y) not excluded by the two
    qubit bounds, on a shared X grid."""

    theta: float
    x: np.ndarray
    y_product_bound: np.ndarray  # contour of 2XY + X + Y + 4 sqrt(XY) = sin(theta)/2
    y_additive_bound: np.ndarray  # line X + Y = Busch-Heinosaari bound


def admissible_region_curves(theta: float, grid_size: int, rhs: float) -> AdmissibleRegion:
    """Sample both qubit bound curves on a uniform X grid over [0, 1/2].

    The product-bound contour is the smallest Y >= 0 with
    2XY + X + Y + 4 sqrt(XY) >= rhs: `theorem1_min_y` with V_A = V_B = 0,
    so Y = 0 once X >= rhs. `rhs` is the commutator norm of the pair at
    Bloch angle theta in [0, pi/2], which `qubit_rhs(theta)` gives in closed
    form; it is at most 1/2, so the contour reaches Y = 0 by X = 1/2, where
    the sweep ends.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    qubit_rhs(theta)  # range check
    if not 0 <= rhs < math.inf:
        raise ValueError(f"rhs must be finite and nonnegative, got {rhs}")
    h = heinosaari_lower_bound(theta)
    xs = np.linspace(0.0, 0.5, grid_size)
    y1 = theorem1_min_y(xs, 0.0, 0.0, rhs)
    y2 = np.maximum(h - xs, 0.0)
    for arr in (xs, y1, y2):
        arr.setflags(write=False)
    return AdmissibleRegion(theta=theta, x=xs, y_product_bound=y1, y_additive_bound=y2)
