"""Accuracy-tradeoff inequalities for approximate joint measurement.

Every bound has the same shape: a function of the two reconstruction
accuracies X = D(A, f_A(F)) and Y = D(B, f_B(F)) (plus intrinsic
uncertainties of A and B) on the left, and a noncommutativity measure of the
pair (A, B) on the right. The main inequality

    2XY + X + Y + 2 sqrt(2X + V(A)) sqrt(2Y + V(B))  >=  max_{a,b} ||[A_a, B_b]||

holds for every choice of joint observable F and outcome functions, in the
uniform distance with V the elementwise intrinsic uncertainty. The
total-variation version replaces every max over outcomes by a max over
outcome subsets; a projective F drops V and the square-root term; exactly
reproduced marginals (X = Y = 0) give a necessary condition for joint
measurability that takes no F. Projective A and B need no case of their
own: V vanishes, and for sharp qubits at Bloch angle theta the right side
is sin(theta)/2, which `qubit-demo` compares against the additive bound of
Busch and Heinosaari. Every check that takes F runs through one evaluator,
`tradeoff_reports`, which takes many instances at once as `povm.Ragged`
stacks and reduces all their maxima (X, Y, V_A, V_B and the commutator norm
of each) with one `subsets.max_norms` call, which returns each quantity in
instance order; each report is the one its instance gives alone, and the
`check_*` functions are its case of one instance. The commutator norms are
`Segments`, except that a subset pair of more than CHUNK_BITS + 2
outcomes in all (8 x 8 outcomes, say) is one `subsets.Products` walk per
instance, whose commutators are bounded before any is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .distances import difference_walks
from .povm import (
    Povm,
    Ragged,
    projective,
    require_same_dim,
    require_same_outcomes,
    shape_groups,
    uncertainty_walks,
)
from .smearing import OutcomeMap, marginals, outcome_choice
from .subsets import Products, Segments, gray_products, max_norms, one_stack

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


def commutator_walks(metric: str, a: Ragged, b: Ragged) -> list[tuple[np.ndarray, object]]:
    """The `povm.metric_walks` kin whose maxima are the commutator norms of
    `metric` of the item pairs of two stacks of the same dimensions: the
    Hermitian i[A_a, B_b] of every outcome pair ("inf"), or of every pair
    of subset sums ("l1", from `subsets.gray_products`). The items of one
    dimension and pair of outcome counts are multiplied side by side; "l1"
    pairs that take more than one stack go one item at a time, as
    `subsets.Products`, which raise a CapacityError where n_A + n_B - 1
    passes SUBSET_ENUMERATION_LIMIT.

    For "l1", complementing either subset only flips the sign of the
    commutator (the elements sum to the identity), so one representative
    of each complement pair suffices on both sides.
    """
    walks, what = [], "the subset commutator bound"
    for items, (ea, eb) in shape_groups(a.hermitian, b.hermitian):
        d = ea.shape[-1]
        if metric != "l1":
            # one einsum, not gray_products' matmul: an ulp here moves the frontier's contour start
            prods = np.einsum("xaij,xbjk->xabik", ea, eb).reshape(len(items), -1, d, d)
        elif one_stack(ea.shape[-3], eb.shape[-3]):
            prods = gray_products(ea, eb, what)
        else:
            walks += [([i], Products.of(x, y, what)) for i, x, y in zip(items, ea, eb)]
            continue
        walks.append((items, Segments.of(linalg.commutator_stack(prods))))
    return walks


def _commutator_norm(metric: str, a: Povm, b: Povm) -> float:
    require_same_dim(a, b)
    return float(max_norms([commutator_walks(metric, a.stack, b.stack)], 1)[0][0][0])


def max_commutator_norm(a: Povm, b: Povm) -> float:
    """max over outcome pairs (a, b) of ||[A_a, B_b]||."""
    return _commutator_norm("inf", a, b)


def max_subset_commutator_norm(a: Povm, b: Povm) -> float:
    """max over subset pairs (D_A, D_B) of ||[sum_{a in D_A} A_a, sum_{b in D_B} B_b]||."""
    return _commutator_norm("l1", a, b)


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


# each tradeoff inequality's metric, and whether its F must be projective
_INEQUALITIES = {
    "theorem1": ("inf", False),
    "theorem2": ("l1", False),
    "cor_pvm_instrument": ("inf", True),
}


def tradeoff_reports(
    inequality_id: str,
    a: Ragged,
    b: Ragged,
    f_povm: Ragged,
    to_a: np.ndarray,
    to_b: np.ndarray,
) -> list[TradeoffReport]:
    """One report of a member of the tradeoff family for each instance i:
    item i of the stacks A, B and F, with F marginalized to A and B
    (`smearing.marginals`) by the target choices `to_a` and `to_b`, one per
    outcome of F, item by item. The three stacks hold items of the same
    dimensions.

    "theorem1" pairs the uniform distance with the elementwise commutator
    norm, "theorem2" the total-variation distance with the subset
    commutator norm; V_A and V_B are the metric's intrinsic uncertainties.
    For "cor_pvm_instrument", a uniform-distance member, F must be
    projective (checked by `povm.projective`), V_A = V_B = 0 and the
    left side is 2XY + X + Y. Every maximum of every instance is reduced
    by one `subsets.max_norms` call.
    """
    metric, instrument = _INEQUALITIES[inequality_id]
    if not a.dims.tolist() == b.dims.tolist() == f_povm.dims.tolist():
        raise ValueError("the instances' POVMs differ in dimension")
    if instrument and not projective(f_povm).all():
        raise ValueError("the joint observable must be projective for this bound")
    quantities = [
        difference_walks(metric, a, marginals(f_povm, to_a, a.counts)),
        difference_walks(metric, b, marginals(f_povm, to_b, b.counts)),
    ]
    if not instrument:
        quantities += [uncertainty_walks(metric, a), uncertainty_walks(metric, b)]
    quantities.append(commutator_walks(metric, a, b))
    found = [values.tolist() for values, _, _ in max_norms(quantities, len(a.counts))]
    xs, ys, *vs, rhs = found
    reports = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        if instrument:
            v_a = v_b = 0.0
            lhs = 2 * x * y + x + y
        else:
            v_a, v_b = vs[0][i], vs[1][i]
            lhs = theorem1_lhs(x, y, v_a, v_b)
        reports.append(
            TradeoffReport(
                inequality_id=inequality_id, X=x, Y=y, V_A=v_a, V_B=v_b, lhs=lhs, rhs=rhs[i]
            )
        )
    return reports


def _one_instance(
    inequality_id: str, a: Povm, b: Povm, f_povm: Povm, f_a: OutcomeMap, f_b: OutcomeMap
) -> TradeoffReport:
    """`tradeoff_reports` of one instance, with the checks of the POVMs and
    maps that the stacks cannot see."""
    require_same_dim(a, b)
    require_same_dim(a, f_povm)
    choices = []
    for p, f in ((a, f_a), (b, f_b)):
        choices.append(outcome_choice(f_povm.outcomes, f))
        require_same_outcomes(p.outcomes, f.target)
    stacks = (a.stack, b.stack, f_povm.stack)
    return tradeoff_reports(inequality_id, *stacks, *choices)[0]


def check_theorem1(
    a: Povm, b: Povm, f_povm: Povm, f_a: OutcomeMap, f_b: OutcomeMap
) -> TradeoffReport:
    """Evaluate the main (uniform-distance) tradeoff bound.

    The inequality holds for every valid input; a violated report signals an
    implementation bug, not an interesting instance.
    """
    return _one_instance("theorem1", a, b, f_povm, f_a, f_b)


def check_theorem2(
    a: Povm, b: Povm, f_povm: Povm, f_a: OutcomeMap, f_b: OutcomeMap
) -> TradeoffReport:
    """Evaluate the total-variation tradeoff bound (subset-summed quantities
    on both sides)."""
    return _one_instance("theorem2", a, b, f_povm, f_a, f_b)


def check_corollary_joint(a: Povm, b: Povm) -> TradeoffReport:
    """Necessary condition for exact joint measurability:
    sqrt(V(A) V(B)) >= (1/2) max ||[A_a, B_b]||.

    A violated report proves the pair is NOT jointly measurable; a satisfied
    report is inconclusive. Its three maxima are one `subsets.max_norms`
    call.
    """
    require_same_dim(a, b)
    sa, sb = a.stack, b.stack
    walks = [uncertainty_walks("inf", sa), uncertainty_walks("inf", sb)]
    walks.append(commutator_walks("inf", sa, sb))
    v_a, v_b, commutator = (float(values[0]) for values, _, _ in max_norms(walks, 1))
    return TradeoffReport(
        inequality_id="cor_joint",
        X=0.0,
        Y=0.0,
        V_A=v_a,
        V_B=v_b,
        lhs=math.sqrt(v_a * v_b),
        rhs=commutator / 2,
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
    return _one_instance("cor_pvm_instrument", a, b, f_povm, f_a, f_b)


def qubit_rhs(theta: float) -> float:
    """Commutator-norm bound sin(theta)/2 for two sharp qubit observables at
    Bloch angle theta in [0, pi/2]."""
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    return math.sin(theta) / 2


def heinosaari_lower_bound(theta: float) -> float:
    """Busch-Heinosaari additive bound for sharp qubit pairs:
    X + Y >= sqrt(1/2) (cos(theta/2) + sin(theta/2) - 1), at Bloch angle theta
    in [0, pi/2]."""
    qubit_rhs(theta)  # range check
    return math.sqrt(0.5) * (math.cos(theta / 2) + math.sin(theta / 2) - 1)


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
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    h = heinosaari_lower_bound(theta)  # range-checks theta
    if not 0 <= rhs < math.inf:
        raise ValueError(f"rhs must be finite and nonnegative, got {rhs}")
    xs = linalg.read_only(np.linspace(0.0, 0.5, grid_size))
    y1 = linalg.read_only(theorem1_min_y(xs, 0.0, 0.0, rhs))
    y2 = linalg.read_only(np.maximum(h - xs, 0.0))
    return AdmissibleRegion(theta=theta, x=xs, y_product_bound=y1, y_additive_bound=y2)
