"""Joint-measurability decisions and accuracy-frontier sweeps.

Whether two POVMs A and B admit a single joint observable reproducing both
is decided (approximately) as a convex feasibility problem. Any joint
observable with arbitrary outcomes and maps can be pushed forward along
x -> (f_A(x), f_B(x)) to one on the product outcome set with the same
marginals, so the search space is fixed to product outcomes with coordinate
projections.

The feasibility engine is Dykstra's alternating-projection scheme (plain
alternating projections can cycle; Dykstra converges to the projection onto
the intersection). The constraint sets, each with a closed-form orthogonal
projection, are the product PSD cone and affine or spectrally-clipped
marginal constraints. The solver is lane-stacked: axis 0 of its iterate
indexes independent problems, each stopping on its own. A joint-measurability
check is one lane; a frontier sweep runs the bisection probes of all its grid
points together, one lane per point, so each projection is one stacked
eigendecomposition instead of one per point.

Infeasibility is only ever certified analytically, through the necessary
condition sqrt(V(A) V(B)) >= (1/2) max ||[A_a, B_b]||; projection methods
produce no dual certificate, so a stalled solve reports `undecided` with its
residual rather than claiming infeasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bounds import SLACK_TOL, TradeoffReport, check_corollary_joint
from .distances import D_inf
from .povm import Povm, validate_povm
from .smearing import coordinate_maps

# Solver defaults. The stagnation rule declares a solve stuck when the best
# residual improves by less than STAGNATION_EPS over STAGNATION_WINDOW
# consecutive iterations.
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 5000
STAGNATION_WINDOW = 500
STAGNATION_EPS = 1e-12

# Frontier defaults: sweep range, Y resolution, and each probe's solver budget.
FRONTIER_X_MAX = 0.5
FRONTIER_RESOLUTION = 1e-4
FRONTIER_TOL = 1e-7
FRONTIER_MAX_ITER = 2000

# A feasible witness must survive these checks after cleanup.
WITNESS_VALIDATE_TOL = 1e-7
WITNESS_MARGINAL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of a joint-measurability decision.

    status `feasible` comes with a verified witness POVM on the product
    outcome set; `infeasible` only ever arises from an analytic certificate
    (recorded in certificate_note); `undecided` means the iteration budget
    ran out or the residual stagnated without a certificate.
    """

    status: str  # "feasible" | "infeasible" | "undecided"
    witness: Povm | None
    residual: float
    iterations: int
    certificate_note: str = ""
    screen_report: TradeoffReport | None = None


@dataclass(frozen=True, eq=False)
class FrontierPoint:
    """One point of the achievable accuracy frontier: the best found Y given
    an X budget, with the witness achieving it."""

    x_target: float
    x_achieved: float
    y_achieved: float
    witness: Povm


def _marginal_deviation(f: np.ndarray, targets: np.ndarray, axis: int) -> float:
    """Largest operator-norm deviation of a marginal family from its target."""
    return float(linalg.herm_norm_stack(f.sum(axis=axis) - targets).max())


def _product_seed(a: Povm, b: Povm) -> np.ndarray:
    """Symmetrized products (A_a B_b + B_b A_a)/2, PSD-projected and
    renormalized to sum to the identity.

    For commuting pairs this is already an exact joint observable; elsewhere
    it is a warm start.
    """
    ea = linalg.hermitian_part(a.elements)
    eb = linalg.hermitian_part(b.elements)
    sym = linalg.hermitian_part(np.einsum("aij,bjk->abik", ea, eb))
    seed = linalg.renormalize(linalg.project_psd_stack(sym), 1e-12)
    if seed is None:
        # degenerate seed; fall back to a product of A with a flat weight on b
        return _conditional_seed(a, b)
    return seed


def _conditional_seed(a: Povm, b: Povm) -> np.ndarray:
    """F_(a,b) = A_a w_b with weights w_b = tr(B_b)/dim: a valid product
    POVM whose A-marginal is exactly A."""
    w = np.einsum("bii->b", b.elements).real / b.dim
    return np.einsum("aij,b->abij", linalg.hermitian_part(a.elements), w)


def _mirror_seed(a: Povm, b: Povm) -> np.ndarray:
    """F_(a,b) = w_a B_b with weights w_a = tr(A_a)/dim: a valid product
    POVM whose B-marginal is exactly B."""
    w = np.einsum("aii->a", a.elements).real / a.dim
    return np.einsum("a,bij->abij", w, linalg.hermitian_part(b.elements))


def _cleanup(f: np.ndarray, outcomes: tuple[str, ...]) -> Povm | None:
    """Turn a near-feasible iterate into an exact POVM: clip each element to
    the PSD cone, then conjugate by the inverse square root of the sum.
    Returns None if the sum is too ill-conditioned to renormalize."""
    na, nb, d, _ = f.shape
    g = linalg.renormalize(linalg.project_psd_stack(f), 1e-6)
    if g is None:
        return None
    return Povm(outcomes, linalg.hermitian_part(g).reshape(na * nb, d, d))


def _project_psd(f: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    return linalg.project_psd_stack(f)


def _dykstra(
    start: np.ndarray,
    projections,
    residual_fn,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, list[float], list[int], list[bool]]:
    """Lane-stacked cyclic Dykstra iteration.

    Axis 0 of `start` indexes independent problems (lanes). Every projection
    and `residual_fn` is called as `fn(x, lanes)`, where row j of x belongs
    to the original lane `lanes[j]`, so per-lane parameters are sliced with
    `lanes`; `residual_fn` returns one residual per row. Each lane stops on
    its own (residual <= tol, stagnation, or max_iter) and then leaves the
    stack with its iterate, residual and iteration count frozen. A lane's
    arithmetic is the same as if it ran alone.

    `projections` must end with the PSD-cone projection so that the iterates
    handed to `residual_fn` (and returned) are always positive semidefinite.
    Returns (iterates, residuals, iterations, converged), the last three
    with one entry per lane.
    """
    n = start.shape[0]
    out = start.copy()
    x = start
    corrections = [np.zeros_like(x) for _ in projections]
    lanes = np.arange(n)
    lane_list = lanes.tolist()
    # per-lane stagnation bookkeeping in Python floats: cheaper than masks
    # for the few lanes a stack holds
    best = [math.inf] * n
    best_at = [0] * n
    residuals = [math.inf] * n
    iterations = [max_iter] * n
    converged = [False] * n
    for it in range(1, max_iter + 1):
        for i, proj in enumerate(projections):
            shifted = x + corrections[i]
            y = proj(shifted, lanes)
            corrections[i] = shifted - y
            x = y
        keep = []
        for j, (lane, r) in enumerate(zip(lane_list, residual_fn(x, lanes).tolist())):
            residuals[lane] = r
            if r <= tol:
                converged[lane] = True
            elif r < best[lane] - STAGNATION_EPS:
                best[lane] = r
                best_at[lane] = it
            if converged[lane] or it - best_at[lane] >= STAGNATION_WINDOW:
                out[lane] = x[j]
                iterations[lane] = it
            else:
                keep.append(j)
        if not keep:
            return out, residuals, iterations, converged
        if len(keep) < len(lane_list):
            x = x[keep]
            corrections = [c[keep] for c in corrections]
            lanes = lanes[keep]
            lane_list = lanes.tolist()
    out[lanes] = x
    return out, residuals, iterations, converged


def check_joint_measurability(
    a: Povm,
    b: Povm,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> FeasibilityResult:
    """Decide whether A and B admit a joint observable with both as exact
    marginals.

    Runs the analytic infeasibility screen first, then Dykstra projections
    between the product PSD cone and the affine set of correct marginals.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    screen = check_corollary_joint(a, b)
    if screen.slack < -SLACK_TOL:
        return FeasibilityResult(
            status="infeasible",
            witness=None,
            residual=math.inf,
            iterations=0,
            certificate_note=(
                "necessary condition violated: sqrt(V_A V_B) = "
                f"{screen.lhs:.6g} < {screen.rhs:.6g} = max commutator norm / 2 "
                f"(slack = {screen.slack:.3g})"
            ),
            screen_report=screen,
        )

    f_a, _ = coordinate_maps(a.outcomes, b.outcomes)
    product_labels = f_a.source
    na, nb, d = a.n_outcomes, b.n_outcomes, a.dim
    ea = linalg.hermitian_part(a.elements)
    eb = linalg.hermitian_part(b.elements)
    eye = np.eye(d, dtype=complex)

    def proj_marginals(f: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        # orthogonal projection onto {marg_A = A and marg_B = B}; the
        # total-sum constraint is implied but enters the closed form
        ra = f.sum(axis=2) - ea
        rb = f.sum(axis=1) - eb
        rt = f.sum(axis=(1, 2)) - eye
        return f - ra[:, :, None] / nb - rb[:, None] / na + rt[:, None, None] / (na * nb)

    def residual(f: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        dev = np.concatenate([f.sum(axis=2) - ea, f.sum(axis=1) - eb], axis=1)
        return linalg.herm_norm_stack(dev).max(axis=1)

    def finish_feasible(f: np.ndarray, iters: int) -> FeasibilityResult | None:
        witness = _cleanup(f, product_labels)
        if witness is None:
            return None
        arr = witness.elements.reshape(na, nb, d, d)
        dev_a = _marginal_deviation(arr, ea, axis=1)
        dev_b = _marginal_deviation(arr, eb, axis=0)
        if validate_povm(witness, completeness_tol=WITNESS_VALIDATE_TOL) or max(
            dev_a, dev_b
        ) > WITNESS_MARGINAL_TOL:
            return None
        return FeasibilityResult(
            status="feasible",
            witness=witness,
            residual=max(dev_a, dev_b),
            iterations=iters,
            certificate_note="witness marginals verified",
            screen_report=screen,
        )

    f0 = _product_seed(a, b)[None]
    if residual(f0, None)[0] <= tol:
        result = finish_feasible(f0[0], 0)
        if result is not None:
            return result

    f_final, res, iters, converged = _dykstra(
        f0, [proj_marginals, _project_psd], residual, tol, max_iter
    )
    res, iters, converged = res[0], iters[0], converged[0]
    if converged:
        result = finish_feasible(f_final[0], iters)
        if result is not None:
            return result
    return FeasibilityResult(
        status="undecided",
        witness=None,
        residual=res,
        iterations=iters,
        certificate_note=(
            "no analytic certificate; projection residual "
            f"{res:.3e} after {iters} iterations "
            + ("(converged witness failed verification)" if converged else "(stalled or budget exhausted)")
        ),
        screen_report=screen,
    )


# --- accuracy frontier -----------------------------------------------------


def _query(
    ea: np.ndarray,
    eb: np.ndarray,
    x_bounds: list[float],
    y_bounds: list[float],
    start: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[list[bool], np.ndarray]:
    """For each lane j: is there a product-outcome POVM with A-marginal
    within x_bounds[j] and B-marginal within y_bounds[j] of the targets
    (operator-norm intervals)? Every lane starts from `start`; returns the
    per-lane verdicts and final iterates."""
    na = ea.shape[0]
    nb = eb.shape[0]
    d = ea.shape[1]
    eye = np.eye(d, dtype=complex)
    k = na * nb
    xb = np.array(x_bounds, dtype=float)
    yb = np.array(y_bounds, dtype=float)
    n = len(xb)
    # bound per row of the residual stack [sum; A marginals; B marginals]
    bounds = np.concatenate(
        [np.zeros((n, 1)), np.repeat(xb[:, None], na, axis=1), np.repeat(yb[:, None], nb, axis=1)],
        axis=1,
    )

    def proj_sum(f: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return f + ((eye - f.sum(axis=(1, 2))) / k)[:, None, None]

    def proj_ball_a(f: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        z = f.sum(axis=2) - ea
        zc = linalg.clip_operator_norm_stack(z, xb[lanes, None, None])
        return f + ((zc - z) / nb)[:, :, None]

    def proj_ball_b(f: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        z = f.sum(axis=1) - eb
        zc = linalg.clip_operator_norm_stack(z, yb[lanes, None, None])
        return f + ((zc - z) / na)[:, None]

    def residual(f: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        dev = np.concatenate(
            [(f.sum(axis=(1, 2)) - eye)[:, None], f.sum(axis=2) - ea, f.sum(axis=1) - eb],
            axis=1,
        )
        return (linalg.herm_norm_stack(dev) - bounds[lanes]).max(axis=1)

    f, _, _, converged = _dykstra(
        np.repeat(start[None], n, axis=0),
        [proj_sum, proj_ball_a, proj_ball_b, _project_psd],
        residual,
        tol,
        max_iter,
    )
    return converged, f


def _frontier(
    a: Povm,
    b: Povm,
    xs: list[float],
    y_resolution: float,
    tol: float,
    max_iter: int,
) -> list[FrontierPoint]:
    """Frontier points for the X budgets `xs` (finite and nonnegative, as
    the callers check), bisected together.

    Each point bisects on Y with one convex feasibility query per probe. In
    each round every point still bisecting contributes one probe, and the
    round's probes run as one stacked Dykstra solve whose lanes do not
    interact, so every point equals what it would be on its own.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if not 0 < y_resolution < math.inf:
        raise ValueError(f"y_resolution must be finite and positive, got {y_resolution}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    f_map_a, _ = coordinate_maps(a.outcomes, b.outcomes)
    product_labels = f_map_a.source
    na, nb, d = a.n_outcomes, b.n_outcomes, a.dim
    ea = linalg.hermitian_part(a.elements)
    eb = linalg.hermitian_part(b.elements)

    def achieved(witness: Povm) -> tuple[Povm, float, float]:
        arr = witness.elements.reshape(na, nb, d, d)
        x = D_inf(a, Povm(a.outcomes, arr.sum(axis=1))).value
        y = D_inf(b, Povm(b.outcomes, arr.sum(axis=0))).value
        return witness, x, y

    # Feasible fallbacks: A tensored with a flat outcome weight has A itself
    # as its A-marginal (any budget); its mirror, a flat weight tensored with
    # B, has B itself as its B-marginal (budgets >= D_inf(A, w I)).
    flat_b = _cleanup(_conditional_seed(a, b), product_labels)
    if flat_b is None:
        raise RuntimeError("baseline product witness could not be constructed")
    baselines = [achieved(flat_b)]
    flat_a = _cleanup(_mirror_seed(a, b), product_labels)
    if flat_a is not None:
        baselines.append(achieved(flat_a))
    best = [
        min((bl for bl in baselines if bl[1] <= x + WITNESS_MARGINAL_TOL), key=lambda bl: bl[2])
        for x in xs
    ]
    seed = _product_seed(a, b)

    lo = [0.0] * len(xs)
    hi = [bl[2] for bl in best]
    while active := [p for p in range(len(xs)) if hi[p] - lo[p] > y_resolution]:
        mids = [(lo[p] + hi[p]) / 2 for p in active]
        ok, f = _query(ea, eb, [xs[p] for p in active], mids, seed, tol, max_iter)
        for j, p in enumerate(active):
            witness = _cleanup(f[j], product_labels) if ok[j] else None
            if witness is not None:
                found = achieved(witness)
                if found[1] <= xs[p] + WITNESS_MARGINAL_TOL:
                    best[p] = found
                    hi[p] = min(mids[j], found[2])
                    continue
            lo[p] = mids[j]

    return [
        FrontierPoint(x_target=x, x_achieved=x_w, y_achieved=y_w, witness=w)
        for x, (w, x_w, y_w) in zip(xs, best)
    ]


def frontier_point(
    a: Povm,
    b: Povm,
    x_target: float,
    y_resolution: float = FRONTIER_RESOLUTION,
    tol: float = FRONTIER_TOL,
    max_iter: int = FRONTIER_MAX_ITER,
) -> FrontierPoint:
    """Best found B-side accuracy given an A-side budget.

    Minimizes Y = D_inf(B, marg_B(F)) over product-outcome POVMs F subject to
    D_inf(A, marg_A(F)) <= x_target, by bisecting on Y with one convex
    feasibility query per probe (the one-lane case of `frontier_sweep`'s
    batched bisection). The bisection starts from the better of two product
    baselines, A x flat and flat x B, so budgets at or above D_inf(A, w I)
    return Y = 0 up to rounding. The returned achieved values are computed
    from the cleaned-up witness, so they are exact properties of a genuine
    POVM whatever the solver did.
    """
    if not 0 <= x_target < math.inf:
        raise ValueError(f"X budget must be finite and nonnegative, got {x_target}")
    return _frontier(a, b, [x_target], y_resolution, tol, max_iter)[0]


def frontier_sweep(
    a: Povm,
    b: Povm,
    n_points: int,
    x_max: float = FRONTIER_X_MAX,
    y_resolution: float = FRONTIER_RESOLUTION,
    tol: float = FRONTIER_TOL,
    max_iter: int = FRONTIER_MAX_ITER,
) -> list[FrontierPoint]:
    """Frontier points on a uniform x_target grid over [0, x_max].

    All points bisect together: each round runs the probes of every point
    still bisecting as one stacked solve, and each point comes out as
    `frontier_point` would give it alone. The points are then made
    monotone: a witness found under a smaller X budget is also valid under a
    larger one, so it replaces any later point the solver did worse on.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not 0 <= x_max < math.inf:
        raise ValueError(f"x_max must be finite and nonnegative, got {x_max}")
    xs = np.linspace(0.0, x_max, n_points) if n_points > 1 else np.array([x_max])
    points = _frontier(
        a, b, [float(x) for x in xs], y_resolution=y_resolution, tol=tol, max_iter=max_iter
    )

    # carry the best witness forward so Y is nonincreasing in the budget
    monotone: list[FrontierPoint] = []
    for i, pt in enumerate(points):
        if monotone and pt.y_achieved > monotone[-1].y_achieved:
            prev = monotone[-1]
            pt = FrontierPoint(
                x_target=pt.x_target,
                x_achieved=prev.x_achieved,
                y_achieved=prev.y_achieved,
                witness=prev.witness,
            )
        monotone.append(pt)
    return monotone
