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
marginal constraints.

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


def _herm(x: np.ndarray) -> np.ndarray:
    return linalg.hermitian_part(x)


def _marginal_deviation(f: np.ndarray, targets: np.ndarray, axis: int) -> float:
    """Largest operator-norm deviation of a marginal family from its target."""
    return float(linalg.herm_norm_stack(f.sum(axis=axis) - targets).max())


def _sum_deviation(f: np.ndarray, dim: int) -> float:
    return float(linalg.herm_norm_stack(f.sum(axis=(0, 1)) - np.eye(dim)))


def _product_seed(a: Povm, b: Povm) -> np.ndarray:
    """Symmetrized products (A_a B_b + B_b A_a)/2, PSD-projected and
    renormalized to sum to the identity.

    For commuting pairs this is already an exact joint observable; elsewhere
    it is a warm start.
    """
    ea = _herm(a.elements)
    eb = _herm(b.elements)
    sym = _herm(np.einsum("aij,bjk->abik", ea, eb))
    f0 = linalg.project_psd_stack(sym)
    s = f0.sum(axis=(0, 1))
    w, u = np.linalg.eigh(_herm(s))
    if w[0] <= 1e-12 * max(1.0, float(w[-1])):
        # degenerate seed; fall back to a product of A with a flat weight on b
        return _conditional_seed(a, b)
    inv_sqrt = (u * (1.0 / np.sqrt(w))) @ np.conj(u.T)
    return inv_sqrt @ f0 @ inv_sqrt


def _conditional_seed(a: Povm, b: Povm) -> np.ndarray:
    """F_(a,b) = A_a w_b with weights w_b = tr(B_b)/dim: a valid product
    POVM whose A-marginal is exactly A."""
    w = np.einsum("bii->b", b.elements).real / b.dim
    return np.einsum("aij,b->abij", _herm(a.elements), w)


def _cleanup(f: np.ndarray, outcomes: tuple[str, ...]) -> Povm | None:
    """Turn a near-feasible iterate into an exact POVM: clip each element to
    the PSD cone, then conjugate by the inverse square root of the sum.
    Returns None if the sum is too ill-conditioned to renormalize."""
    na, nb, d, _ = f.shape
    g = linalg.project_psd_stack(f)
    s = g.sum(axis=(0, 1))
    w, u = np.linalg.eigh(_herm(s))
    if w[0] <= 1e-6:
        return None
    inv_sqrt = (u * (1.0 / np.sqrt(w))) @ np.conj(u.T)
    g = _herm(inv_sqrt @ g @ inv_sqrt)
    return Povm(outcomes, g.reshape(na * nb, d, d))


def _dykstra(
    start: np.ndarray,
    projections,
    residual_fn,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, int, bool]:
    """Cyclic Dykstra iteration.

    `projections` must end with the PSD-cone projection so that the iterate
    handed to `residual_fn` (and returned) is always positive semidefinite.
    Returns (iterate, residual, iterations, converged).
    """
    x = start.copy()
    corrections = [np.zeros_like(x) for _ in projections]
    best = math.inf
    best_at = 0
    r = math.inf
    for it in range(1, max_iter + 1):
        for i, proj in enumerate(projections):
            shifted = x + corrections[i]
            y = proj(shifted)
            corrections[i] = shifted - y
            x = y
        r = residual_fn(x)
        if r <= tol:
            return x, r, it, True
        if r < best - STAGNATION_EPS:
            best = r
            best_at = it
        elif it - best_at >= STAGNATION_WINDOW:
            return x, r, it, False
    return x, r, max_iter, False


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
    ea = _herm(a.elements)
    eb = _herm(b.elements)
    eye = np.eye(d, dtype=complex)

    def proj_marginals(f: np.ndarray) -> np.ndarray:
        # orthogonal projection onto {marg_A = A and marg_B = B}; the
        # total-sum constraint is implied but enters the closed form
        ra = f.sum(axis=1) - ea
        rb = f.sum(axis=0) - eb
        rt = f.sum(axis=(0, 1)) - eye
        return f - ra[:, None] / nb - rb[None, :] / na + rt / (na * nb)

    def residual(f: np.ndarray) -> float:
        return max(
            _marginal_deviation(f, ea, axis=1),
            _marginal_deviation(f, eb, axis=0),
        )

    def finish_feasible(f: np.ndarray, iters: int, res: float) -> FeasibilityResult | None:
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

    f0 = _product_seed(a, b)
    r0 = residual(f0)
    if r0 <= tol:
        result = finish_feasible(f0, 0, r0)
        if result is not None:
            return result

    f_final, res, iters, converged = _dykstra(
        f0,
        [proj_marginals, linalg.project_psd_stack],
        residual,
        tol,
        max_iter,
    )
    if converged:
        result = finish_feasible(f_final, iters, res)
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
    x_bound: float,
    y_bound: float,
    start: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[bool, np.ndarray]:
    """Is there a product-outcome POVM with A-marginal within x_bound and
    B-marginal within y_bound of the targets (operator-norm intervals)?"""
    na = ea.shape[0]
    nb = eb.shape[0]
    d = ea.shape[1]
    eye = np.eye(d, dtype=complex)
    k = na * nb

    def proj_sum(f: np.ndarray) -> np.ndarray:
        return f + (eye - f.sum(axis=(0, 1))) / k

    def proj_ball_a(f: np.ndarray) -> np.ndarray:
        m = f.sum(axis=1)
        z = m - ea
        zc = linalg.clip_operator_norm_stack(z, x_bound)
        return f + ((zc - z) / nb)[:, None]

    def proj_ball_b(f: np.ndarray) -> np.ndarray:
        m = f.sum(axis=0)
        z = m - eb
        zc = linalg.clip_operator_norm_stack(z, y_bound)
        return f + ((zc - z) / na)[None, :]

    def residual(f: np.ndarray) -> float:
        ra = float((linalg.herm_norm_stack(f.sum(axis=1) - ea) - x_bound).max())
        rb = float((linalg.herm_norm_stack(f.sum(axis=0) - eb) - y_bound).max())
        return max(_sum_deviation(f, d), ra, rb, 0.0)

    f, res, _, converged = _dykstra(
        start,
        [proj_sum, proj_ball_a, proj_ball_b, linalg.project_psd_stack],
        residual,
        tol,
        max_iter,
    )
    return converged, f


def frontier_point(
    a: Povm,
    b: Povm,
    x_target: float,
    y_resolution: float = 1e-4,
    tol: float = 1e-7,
    max_iter: int = 2000,
) -> FrontierPoint:
    """Best found B-side accuracy given an A-side budget.

    Minimizes Y = D_inf(B, marg_B(F)) over product-outcome POVMs F subject to
    D_inf(A, marg_A(F)) <= x_target, by bisecting on Y with one convex
    feasibility query per probe. The returned achieved values are computed
    from the cleaned-up witness, so they are exact properties of a genuine
    POVM whatever the solver did.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if x_target < 0:
        raise ValueError("x_target must be nonnegative")
    f_map_a, _ = coordinate_maps(a.outcomes, b.outcomes)
    product_labels = f_map_a.source
    na, nb, d = a.n_outcomes, b.n_outcomes, a.dim
    ea = _herm(a.elements)
    eb = _herm(b.elements)

    def achieved(witness: Povm) -> tuple[float, float]:
        arr = witness.elements.reshape(na, nb, d, d)
        x = D_inf(a, Povm(a.outcomes, arr.sum(axis=1))).value
        y = D_inf(b, Povm(b.outcomes, arr.sum(axis=0))).value
        return x, y

    # Feasible fallback for any x_target: A tensored with a flat outcome
    # weight has A itself as its A-marginal.
    best = _cleanup(_conditional_seed(a, b), product_labels)
    if best is None:
        raise RuntimeError("baseline product witness could not be constructed")
    _, y_base = achieved(best)
    seed = _product_seed(a, b)

    lo, hi = 0.0, y_base
    while hi - lo > y_resolution:
        mid = (lo + hi) / 2
        ok, f_mid = _query(ea, eb, x_target, mid, seed, tol, max_iter)
        witness = _cleanup(f_mid, product_labels) if ok else None
        if witness is not None:
            x_w, y_w = achieved(witness)
            if x_w <= x_target + WITNESS_MARGINAL_TOL:
                best = witness
                hi = min(mid, y_w)
                continue
        lo = mid

    x_fin, y_fin = achieved(best)
    return FrontierPoint(x_target=x_target, x_achieved=x_fin, y_achieved=y_fin, witness=best)


def frontier_sweep(
    a: Povm,
    b: Povm,
    n_points: int,
    x_max: float = 0.5,
    y_resolution: float = 1e-4,
    tol: float = 1e-7,
    max_iter: int = 2000,
) -> list[FrontierPoint]:
    """Frontier points on a uniform x_target grid over [0, x_max].

    Points are solved independently and then made monotone: a witness found
    under a smaller X budget is also valid under a larger one, so it replaces
    any later point the solver did worse on.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    xs = np.linspace(0.0, x_max, n_points) if n_points > 1 else np.array([x_max])

    points = [
        frontier_point(a, b, float(x), y_resolution=y_resolution, tol=tol, max_iter=max_iter)
        for x in xs
    ]

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
