"""Joint-measurability decisions and accuracy-frontier sweeps.

Whether two POVMs A and B admit a single joint observable reproducing both
is decided (approximately) as a convex feasibility problem. Any joint
observable with arbitrary outcomes and maps can be pushed forward along
x -> (f_A(x), f_B(x)) to one on the product outcome set with the same
marginals, so the search space is fixed to product outcomes with coordinate
projections.

Both problems run Douglas-Rachford splitting (Lions & Mercier 1979) between
a convex set K and an affine set L, each with a closed-form orthogonal
projection. A joint-measurability check takes K the product PSD cone and L
the affine set of correct marginals. A frontier point lifts the problem:
its K also holds the marginal gaps within the X and Y budgets, and its L
ties those gaps to F. One private `_Pair` describes the sets for both: it
holds the product labels and the Hermitian targets, writes every marginal
constraint through the gaps marg_A(F) - A, marg_B(F) - B and sum(F) - I,
and provides the projections, the seeds, one dual-certificate verifier,
and the cleanup, POVM check and marginal distances X and Y of every
witness. The iteration is lane-stacked: axis 0 of an iterate may index
independent problems, and it acts on every lane alone. A frontier sweep
runs every open grid point as one lane of one solve, and its K clips the
eigenvalues of every row into a window, so each projection onto K is one
stacked eigendecomposition of the F, S and T rows of all lanes together
instead of one per point and per kind of row.

Each frontier point brackets Y. The upper end is the better of two product
baselines. The lower end starts at the paper's main bound, solved for Y at
the point's X budget (`bounds.theorem1_min_y`; 0 for inputs that are not
valid POVMs, outside the inequality's premise). Rounds of lifted
Douglas-Rachford at the X budget and the certified lower end then move both
ends. A verified Farkas certificate has a value affine in Y, so it proves a
whole interval of Y unreachable and the lower end jumps to its root. A
round without such a jump offers the lane's last point of K as a witness:
its F rows cleaned and, where they overshoot the X budget, mixed with their
own repair onto A's exact marginal (the instrument form) just enough to
meet it. A point stops once its bracket is within the resolution or its
iteration budget is spent, and a bracket left open is reported as it
stands.

`infeasible` has two sources. The analytic screen is the paper's necessary
condition sqrt(V(A) V(B)) >= (1/2) max ||[A_a, B_b]||. The dual certificate
is read off the Douglas-Rachford gap: for an infeasible pair the gap between
the PSD point and the marginal point of a step tends to the minimal
displacement vector between the sets (Bauschke, Hare & Moursi 2016; Banjac,
Goulart, Stellato & Boyd 2019), X_a + Y_b, a Farkas certificate of the SDP
dual (Wolf, Perez-Garcia & Fernandez 2009) once shifted to be positive. A
check stops for one of three reasons: a verified witness, a verified
certificate, or an exhausted iteration budget, which it reports as
`undecided` with its residual. The paper reads joint measurability as the
X = Y = 0 corner of its tradeoff, and so does the verifier: a check's pair
(X, Y) is the frontier's lifted triple (X, Y, 0) at budgets (0, 0). Every
certificate of either problem is re-verified from its triple and the
targets alone, by `_Pair.judge`, before it counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .bounds import SLACK_TOL, check_corollary_joint, max_commutator_norm, theorem1_min_y
from .povm import Povm, intrinsic_uncertainty_inf, require_same_dim, validate_povm
from .smearing import coordinate_maps

# Solver defaults.
DEFAULT_MAX_ITER = 5000

# Frontier defaults: sweep range, Y resolution, and each point's
# Douglas-Rachford budget.
FRONTIER_X_MAX = 0.5
FRONTIER_RESOLUTION = 1e-4
FRONTIER_MAX_ITER = 2000

# A feasible witness, once cleaned and past `validate_povm`, must reproduce
# the target marginals within this distance.
WITNESS_MARGINAL_TOL = 1e-6

# check-joint looks for a witness and a dual certificate every CERTIFY_EVERY
# iterations. The certificate's re-check allows CERTIFICATE_ULPS machine
# epsilons per rounding bound.
CERTIFY_EVERY = 10
CERTIFICATE_ULPS = 64

# The frontier runs rounds of DUAL_ROUND_ITERS Douglas-Rachford iterations.
# A round whose certified lower end moves by less than DUAL_MIN_JUMP Y
# resolutions offers its primal point as a witness.
DUAL_ROUND_ITERS = 60
DUAL_MIN_JUMP = 1e-2


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of a joint-measurability decision.

    status `feasible` comes with a verified witness POVM on the product
    outcome set. `infeasible` comes from the analytic screen or from a
    verified dual certificate; certificate_note names which, and for the
    screen it carries the screen's numbers (`bounds.check_corollary_joint`
    returns the full report). A dual
    certificate is kept in `certificate` as the pair (X, Y), shapes
    (n_A, d, d) and (n_B, d, d), with every X_a + Y_b positive semidefinite
    and sum tr(X_a A_a) + sum tr(Y_b B_b) < 0. `undecided` means neither a
    verified witness nor a certificate was found before the iteration
    budget ran out.
    """

    status: str  # "feasible" | "infeasible" | "undecided"
    witness: Povm | None
    residual: float
    iterations: int
    certificate_note: str = ""
    certificate: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class FrontierPoint:
    """One point of the achievable accuracy frontier: the best found Y given
    an X budget, with the witness achieving it, and y_lower, a certified
    lower end: no POVM within the X budget has a Y below it. y_lower is the
    larger of the main bound's contour (for valid POVMs) and the best root
    of a verified lifted dual certificate, at the point's budget or, in a
    sweep, at a larger one. The witness is the best of the
    product baselines and the cleaned primal points of the point's
    Douglas-Rachford rounds. y_achieved - y_lower is the certified error; it
    is within the resolution unless the iteration budget ran out first."""

    x_target: float
    x_achieved: float
    y_achieved: float
    witness: Povm
    y_lower: float


def _check_solve(a: Povm, b: Povm, max_iter: int) -> None:
    """Raise ValueError for a pair or a budget no solve can run on."""
    require_same_dim(a, b)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


class _Pair:
    """The product-outcome search space of a POVM pair A, B (same dimension).

    An iterate F has shape (..., n_A, n_B, d, d), with or without a leading
    lane axis. Every marginal constraint is written through the three gaps
    marg_A(F) - A, marg_B(F) - B and sum(F) - I. Two pairs of sets are
    described, each set with its closed-form orthogonal projection: the
    product PSD cone and the correct marginals of check-joint, and the
    lifted K and L of the frontier (below). Each problem reads its dual
    certificates off its own Douglas-Rachford gap, and `judge` verifies
    them all as lifted triples from the targets alone. Every witness is
    measured the same way too: its X and Y are the largest norms of its
    A-side and B-side gaps.
    """

    def __init__(self, a: Povm, b: Povm):
        f_a, _ = coordinate_maps(a.outcomes, b.outcomes)
        self.labels = f_a.source
        self.na, self.nb, self.d = a.n_outcomes, b.n_outcomes, a.dim
        self.ea = linalg.hermitian_part(a.elements)
        self.eb = linalg.hermitian_part(b.elements)
        self.wb = np.einsum("bii->b", self.eb).real / self.d  # tr(B_b)/d
        self.eye = np.eye(self.d, dtype=complex)

    def gap_a(self, f: np.ndarray) -> np.ndarray:
        return f.sum(axis=-3) - self.ea

    def gap_b(self, f: np.ndarray) -> np.ndarray:
        return f.sum(axis=-4) - self.eb

    def gap_total(self, f: np.ndarray) -> np.ndarray:
        return f.sum(axis=(-4, -3)) - self.eye

    def project_marginals(self, f: np.ndarray) -> np.ndarray:
        """Onto {marg_A = A and marg_B = B}; the total-sum constraint is
        implied but enters the closed form."""
        return (
            f
            - self.gap_a(f)[..., None, :, :] / self.nb
            - self.gap_b(f)[..., None, :, :, :] / self.na
            + self.gap_total(f)[..., None, None, :, :] / (self.na * self.nb)
        )

    def product_seed(self) -> np.ndarray:
        """Symmetrized products (A_a B_b + B_b A_a)/2, PSD-projected and
        renormalized to sum to the identity; A x flat if that sum is too
        close to singular.

        For commuting pairs this is already an exact joint observable;
        elsewhere it is a warm start.
        """
        sym = linalg.hermitian_part(np.einsum("aij,bjk->abik", self.ea, self.eb))
        flat = linalg.project_psd_stack(sym).reshape(self.na * self.nb, self.d, self.d)
        seed = linalg.renormalize(flat, 1e-12)
        return self.flat_seeds()[0] if seed is None else seed.reshape(sym.shape)

    def flat_seeds(self) -> tuple[np.ndarray, np.ndarray]:
        """A x flat, F_ab = A_a tr(B_b)/d, whose A-marginal is exactly A, and
        its mirror flat x B, F_ab = tr(A_a)/d B_b, whose B-marginal is
        exactly B. Both are valid product POVMs."""
        wa = np.einsum("aii->a", self.ea).real / self.d
        return np.einsum("aij,b->abij", self.ea, self.wb), np.einsum("a,bij->abij", wa, self.eb)

    def certificate(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
        """The dual certificate read off a PSD iterate k, shape
        (n_A, n_B, d, d): (X, Y, value) if it proves that no joint
        observable exists, else None.

        X_a + Y_b is k_ab minus its projection onto the marginal
        constraints (after a Douglas-Rachford step, also the normal part of
        the gap k - l, since l meets the marginals), shifted by
        t = max(0, -min lambda_min(X_a + Y_b)) on X so that every X_a + Y_b
        is PSD; the shift adds t sum tr(A_a) to the value. The pair is the
        lifted triple (X, Y, 0) at budgets (0, 0), and only one that `judge`
        accepts there is returned, with its value.
        """
        rt = self.gap_total(k) / (2 * self.na * self.nb)
        x = self.gap_a(k) / self.nb - rt
        y = self.gap_b(k) / self.na - rt
        lam = np.linalg.eigvalsh(x[:, None] + y[None]).min()
        x = x + np.maximum(0.0, -lam) * self.eye
        judged = self.judge(x, y, np.zeros_like(self.eye), 0.0, 0.0)
        return None if judged is None else (x, y, judged[0])

    # The lifted frontier problem has variables (F, S, T), stacked as the rows
    # of a (..., N, d, d) array with N = n_A n_B + n_A + n_B: F_ab in row
    # a n_B + b, then S_a, then T_b. It asks whether the convex set
    # K = {F_ab >= 0} x {||S_a|| <= x} x {||T_b|| <= y} meets the affine set
    # L = {marg_A(F) - S = A, marg_B(F) - T = B, sum(F) = I}. Each factor of
    # K bounds a row's eigenvalues, to [0, inf), [-x, x] or [-y, y], so the
    # projection onto K clips every row into its window (`lifted_window`).

    @cached_property
    def lifted_maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """L's constraint matrix C, real with one column per row of the
        stack, acts the same way on every matrix entry. Returns the
        projector I - C^T (C C^T)^-1 C onto L's direction, the offset stack
        C^T (C C^T)^-1 (A; B; I) that moves it onto L, and (C C^T)^-1 C,
        which reads least-squares multipliers (X_a; Y_b; Z) off a stack.
        Each of the first n_A + n_B rows of C alone touches its own S or T
        column, so C has full row rank and L is never empty, whatever the
        targets."""
        na, nb = self.na, self.nb
        n = na * nb
        c = np.zeros((na + nb + 1, n + na + nb))
        for a in range(na):
            c[a, a * nb : (a + 1) * nb] = 1.0
        for b in range(nb):
            c[na + b, b:n:nb] = 1.0
        c[-1, :n] = 1.0
        c[: na + nb, n:] = -np.eye(na + nb)
        read = np.linalg.solve(c @ c.T, c)
        targets = np.concatenate([self.ea, self.eb, self.eye[None]])
        offset = np.einsum("mn,mij->nij", read, targets)
        return np.eye(n + na + nb) - c.T @ read, offset, read

    def lifted_start(self) -> np.ndarray:
        """The product seed F with S and T its marginal gaps: a point of L."""
        f = self.product_seed()
        return np.concatenate([f.reshape(-1, self.d, self.d), self.gap_a(f), self.gap_b(f)])

    def lifted_window(
        self, x_budgets: list[float], y_budgets: list[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """K as one eigenvalue window (lower, upper) per row of a lane stack,
        each of shape (n, N, 1), one lane per budget pair: [0, inf) on the F
        rows, [-x, x] on the S rows and [-y, y] on the T rows."""
        n = self.na * self.nb
        upper = np.empty((len(x_budgets), n + self.na + self.nb, 1))
        upper[:, :n] = np.inf
        upper[:, n : n + self.na, 0] = np.array(x_budgets)[:, None]
        upper[:, n + self.na :, 0] = np.array(y_budgets)[:, None]
        lower = -upper
        lower[:, :n] = 0.0
        return lower, upper

    def project_lifted_k(self, w: np.ndarray, window: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Onto K, for a lane stack w of shape (n, N, d, d) and its
        `lifted_window`: every row's eigenvalues clipped into its window,
        by one stacked eigendecomposition."""
        return linalg.clip_operator_norm_stack(w, *window)

    def project_lifted_l(self, w: np.ndarray) -> np.ndarray:
        """Onto L, for a lane stack w of shape (n, N, d, d)."""
        direction, offset, _ = self.lifted_maps
        return _act_on_rows(direction, w) + offset

    def lifted_certificates(self, g: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Dual triples (X, Y, Z) read off a lane stack of lifted gaps
        g = k - l, one per lane: the least-squares multipliers of g in the
        range of C^T, whose F rows are X_a + Y_b + Z, with Z shifted by
        t = max(0, -min lambda_min(X_a + Y_b + Z)) so that every X_a + Y_b + Z
        is PSD. `judge` judges them."""
        lam = linalg.hermitian_part(_act_on_rows(self.lifted_maps[2], g))
        x, y, z = lam[:, : self.na], lam[:, self.na : -1], lam[:, -1]
        low = np.linalg.eigvalsh(x[:, :, None] + y[:, None] + z[:, None, None]).min(axis=(1, 2, 3))
        z = z + np.maximum(0.0, -low)[:, None, None] * self.eye
        return list(zip(x, y, z))

    def judge(
        self, x: np.ndarray, y: np.ndarray, z: np.ndarray, x_budget: float, y_budget: float
    ) -> tuple[float, float] | None:
        """If the dual triple (X, Y, Z), shapes (n_A, d, d), (n_B, d, d) and
        (d, d), proves that no POVM F on the product outcomes has marginals
        within x_budget of A and y_budget of B, returns its value
        base = sum tr(X_a A_a) + x_budget sum ||X_a||_1 + sum tr(Y_b B_b)
        + tr Z and the lower end of Y that it proves; else None. Every dual
        certificate is judged here: check-joint's pair (X, Y) is the triple
        (X, Y, 0) at budgets (0, 0), where base is its value.

        Any such F has sum_ab tr((X_a + Y_b + Z) F_ab) at most
        base + Y sum ||Y_b||_1, and at least 0 when every X_a + Y_b + Z is
        PSD. So a negative bound rules out every Y below the root
        -base / sum ||Y_b||_1, all of it recomputed here from the triple and
        the targets alone. The eigenvalues may read up to `slack` low from
        rounding, and an extra shift of Z by 2 slack (adding 2 slack d)
        would absorb any true negativity that hides; the traces and trace
        norms each carry their own rounding, and the margin, affine in Y,
        enters the root. A trace norm is computed only where it counts: the
        X one for a nonzero X budget, the Y one once the bound at Y = 0 is
        negative.
        """
        scale = (
            np.linalg.norm(x, axis=(1, 2)).max()
            + np.linalg.norm(y, axis=(1, 2)).max()
            + np.linalg.norm(z)
        )
        ulp = CERTIFICATE_ULPS * np.finfo(float).eps * scale
        slack = ulp * self.d
        fixed = 2 * slack * self.d + ulp * self.d * (
            (self.na + self.nb + 1) * self.d + x_budget * self.na
        )
        base = float(
            np.einsum("aij,aji->", x, self.ea).real
            + (x_budget * np.abs(np.linalg.eigvalsh(x)).sum() if x_budget else 0.0)
            + np.einsum("bij,bji->", y, self.eb).real
            + np.trace(z).real
        )
        if base + fixed >= 0:
            return None
        lam = np.linalg.eigvalsh(linalg.hermitian_part(x[:, None] + y[None] + z)).min()
        slope = float(np.abs(np.linalg.eigvalsh(y)).sum()) + ulp * self.d * self.nb
        if lam < -slack or base + fixed + y_budget * slope >= 0:
            return None
        return base, float(-(base + fixed) / slope)

    def marginal_distances(self, f: np.ndarray) -> tuple[float, float]:
        """X and Y of an iterate F, shape (n_A, n_B, d, d): the largest
        operator norm of its A-side gaps marg_A(F) - A and of its B-side
        gaps marg_B(F) - B."""
        norms = linalg.herm_norm_stack(np.concatenate([self.gap_a(f), self.gap_b(f)]))
        return float(norms[: self.na].max()), float(norms[self.na :].max())

    def witness(self, f: np.ndarray) -> tuple[Povm, float, float] | None:
        """Turn a near-feasible iterate into an exact POVM: clip each element
        to the PSD cone, then conjugate by the inverse square root of the
        sum. Returns the POVM with its `marginal_distances` X and Y, or None
        if the sum is too ill-conditioned to renormalize or the result fails
        the POVM check."""
        g = linalg.renormalize(
            linalg.project_psd_stack(f).reshape(self.na * self.nb, self.d, self.d), 1e-6
        )
        if g is None:
            return None
        g = linalg.hermitian_part(g)
        w = Povm(self.labels, g)
        if validate_povm(w):
            return None
        return (w, *self.marginal_distances(g.reshape(f.shape)))

    @cached_property
    def sqrt_a(self) -> np.ndarray:
        """A_a^{1/2}, the square root of each A effect's PSD part."""
        w, u = np.linalg.eigh(self.ea)
        return (u * np.sqrt(np.maximum(w, 0.0))[:, None]) @ np.conj(np.swapaxes(u, -1, -2))

    def repair(self, f: np.ndarray) -> np.ndarray:
        """F rows f, shape (n_A, n_B, d, d), moved onto A's exact marginal in
        the instrument form F'_ab = A_a^{1/2} G_ab A_a^{1/2} (Heinosaari &
        Ziman 2012): G_a is f_a conjugated by the pseudo-inverse square root
        of M_a = sum_b f_ab, with M_a's kernel filled at weights tr(B_b)/d.
        A x flat stays; flat x B becomes the Lüders product."""
        w, u = np.linalg.eigh(linalg.hermitian_part(f.sum(axis=1)))
        kept = w > 1e-10
        uh = np.conj(np.swapaxes(u, -1, -2))
        inv_sqrt = (u / np.sqrt(np.where(kept, w, np.inf))[:, None]) @ uh
        kernel = (u * ~kept[:, None]) @ uh
        g = inv_sqrt[:, None] @ f @ inv_sqrt[:, None] + kernel[:, None] * self.wb[:, None, None]
        return self.sqrt_a[:, None] @ g @ self.sqrt_a[:, None]


def _act_on_rows(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A real matrix m applied along the row axis of a lane stack w, shape
    (n, N, d, d): one real matrix product per lane, whose rounding does not
    depend on the rest of the stack."""
    n, rows, d, _ = w.shape
    out = m @ np.ascontiguousarray(w).reshape(n, rows, d * d).view(float)
    return out.view(complex).reshape(n, m.shape[0], d, d)


def _douglas_rachford(
    z: np.ndarray, project_k, project_l, iterations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`iterations` lane-stacked Douglas-Rachford steps
    z <- z + P_L(2k - z) - k, with k = P_K(z), for a convex set K and an
    affine set L (Lions & Mercier 1979). Returns z, and k and the gap k - l
    of the last step. The gap tends to the minimal displacement vector
    between the sets (Bauschke, Hare & Moursi 2016): zero when they meet,
    and a separating (Farkas) direction when they do not. Every operation
    acts on each lane alone."""
    for _ in range(iterations):
        k = project_k(z)
        gap = k - project_l(2 * k - z)
        z = z - gap
    return z, k, gap


def check_joint_measurability(
    a: Povm,
    b: Povm,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FeasibilityResult:
    """Decide whether A and B admit a joint observable with both as exact
    marginals.

    Runs the analytic infeasibility screen first, then Douglas-Rachford
    between the product PSD cone and the affine set of correct marginals,
    from the symmetrized-product seed, in rounds of CERTIFY_EVERY iterations
    (the last cut at max_iter). The seed is iteration 0: there and after
    each round the PSD point k is cleaned into a witness if its marginal
    residual is within WITNESS_MARGINAL_TOL, and only after a round is k read
    for a dual certificate (if no witness passed). Returns the first witness
    or certificate that passes verification, or `undecided` at max_iter.
    """
    _check_solve(a, b, max_iter)
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
        )

    pair = _Pair(a, b)
    z = k = pair.product_seed()
    iters = 0
    while True:
        res = max(pair.marginal_distances(k))
        found = pair.witness(k) if res <= WITNESS_MARGINAL_TOL else None
        if found is not None and (dev := max(found[1:])) <= WITNESS_MARGINAL_TOL:
            return FeasibilityResult(
                status="feasible",
                witness=found[0],
                residual=dev,
                iterations=iters,
                certificate_note="witness marginals verified",
            )
        # A certificate is read off a Douglas-Rachford iterate only: the seed is not one.
        if iters > 0 and (certificate := pair.certificate(k)) is not None:
            x, y, value = certificate
            return FeasibilityResult(
                status="infeasible",
                witness=None,
                residual=res,
                iterations=iters,
                certificate_note=(
                    "dual certificate from the Douglas-Rachford gap: sum tr(X_a A_a) + "
                    f"sum tr(Y_b B_b) = {value:.6g} < 0 with every X_a + Y_b >= 0"
                ),
                certificate=(x, y),
            )
        if iters == max_iter:
            break
        steps = min(CERTIFY_EVERY, max_iter - iters)
        z, k, _ = _douglas_rachford(z, linalg.project_psd_stack, pair.project_marginals, steps)
        iters += steps
    return FeasibilityResult(
        status="undecided",
        witness=None,
        residual=res,
        iterations=iters,
        certificate_note=(
            "neither the screen nor a dual certificate decided; projection residual "
            f"{res:.3e} after {iters} iterations (budget exhausted)"
        ),
    )


# --- accuracy frontier -----------------------------------------------------


def _frontier(
    a: Povm,
    b: Povm,
    xs: list[float],
    y_resolution: float,
    max_iter: int,
) -> list[FrontierPoint]:
    """Frontier points for the X budgets `xs` (ascending, finite and
    nonnegative, as the callers ensure), bracketed together.

    Each point's bracket runs from lo to hi = the Y of its best witness,
    first a product baseline. lo starts at the main bound's smallest Y at
    the X budget x, less SLACK_TOL and never above hi (0 unless both inputs
    pass `validate_povm`). A point whose bracket is wider than y_resolution
    is one lane of a lifted Douglas-Rachford solve at X budget
    x + WITNESS_MARGINAL_TOL (the most any witness may spend) and Y budget
    lo. Each round of DUAL_ROUND_ITERS iterations restarts from its last
    point of K, and then, for each lane:

    - a certificate read off the gap and verified by `_Pair.judge` raises
      lo to its root (never above hi);
    - if lo did not move by DUAL_MIN_JUMP resolutions, the F rows of the
      last point of K are cleaned by `_Pair.witness`, mixed with their own
      `_Pair.repair` at weight t = 1 - x / X_W if their X_W overshoots
      x + WITNESS_MARGINAL_TOL, and cleaned again; the result lowers hi if
      it meets that budget and beats the best witness so far;
    - the next round runs at the new lo.

    A lane stops once hi <= lo + y_resolution, and every lane stops after
    max_iter iterations in all, its bracket left as it stands. lo moves only
    on a verified certificate. No lanes interact, so every point's solve is
    the one it would run on its own. Then each point keeps the best witness
    of any budget up to its own, and the highest certified lo of any budget
    from its own up, which is its y_lower: a certificate for a budget holds
    at every smaller one. The last point's bracket is its own.
    """
    _check_solve(a, b, max_iter)
    if not 0 < y_resolution < math.inf:
        raise ValueError(f"y_resolution must be finite and positive, got {y_resolution}")
    pair = _Pair(a, b)

    # Feasible fallbacks: A tensored with a flat outcome weight has A itself
    # as its A-marginal (any budget); its mirror, a flat weight tensored with
    # B, has B itself as its B-marginal (budgets >= D_inf(A, w I)). Only
    # invalid inputs, accepted leniently, can leave a budget with neither.
    baselines = [bl for f in pair.flat_seeds() if (bl := pair.witness(f)) is not None]
    best = []
    for x in xs:
        fits = [bl for bl in baselines if bl[1] <= x + WITNESS_MARGINAL_TOL]
        if not fits:
            raise ValueError(
                f"no product baseline meets the X budget {x:.12g}; "
                "the inputs may not be valid POVMs"
            )
        best.append(min(fits, key=lambda bl: bl[2]))

    lo = [0.0] * len(xs)
    # Theorem 1 rules out every Y below its contour, so the search starts
    # there; inputs that are not valid POVMs lie outside its premise and
    # start at 0
    if not validate_povm(a) and not validate_povm(b):
        v_a, v_b = intrinsic_uncertainty_inf(a), intrinsic_uncertainty_inf(b)
        ys = theorem1_min_y(np.array(xs), v_a, v_b, max_commutator_norm(a, b)) - SLACK_TOL
        lo = [min(bl[2], max(0.0, y)) for bl, y in zip(best, ys.tolist())]

    def offer(p: int, f: np.ndarray) -> None:
        """Keep F rows f, cleaned, as point p's witness if they beat it. One
        that overshoots the X budget is mixed with its own `_Pair.repair`,
        whose A-marginal is exactly A, at weight t = 1 - x / X_W: every A-side
        gap scales by 1 - t, and Y moves little, as the repair stays close."""
        if (found := pair.witness(f)) is None:
            return
        if found[1] > xs[p] + WITNESS_MARGINAL_TOL:
            t = 1 - xs[p] / found[1]
            g = found[0].elements.reshape(f.shape)
            if (found := pair.witness((1 - t) * g + t * pair.repair(g))) is None:
                return
        if found[1] <= xs[p] + WITNESS_MARGINAL_TOL and found[2] < best[p][2]:
            best[p] = found

    # (the test is hi > lo + resolution, not hi - lo > resolution: a bracket
    # closed at exactly one resolution, as rounded, stays closed)
    active = [p for p in range(len(xs)) if best[p][2] > lo[p] + y_resolution]
    z = np.repeat(pair.lifted_start()[None], len(active), axis=0)
    used = 0
    while active and used < max_iter:
        steps = min(DUAL_ROUND_ITERS, max_iter - used)
        budgets = [xs[p] + WITNESS_MARGINAL_TOL for p in active]
        window = pair.lifted_window(budgets, [lo[p] for p in active])
        # each round restarts from the last point of K: the iterate itself
        # has drifted along the gap of the old Y
        _, z, gap = _douglas_rachford(
            z, lambda w: pair.project_lifted_k(w, window), pair.project_lifted_l, steps
        )
        used += steps
        keep = []
        for j, (p, triple) in enumerate(zip(active, pair.lifted_certificates(gap))):
            start = lo[p]
            if (judged := pair.judge(*triple, budgets[j], start)) is not None:
                lo[p] = min(best[p][2], judged[1])
            if lo[p] - start < DUAL_MIN_JUMP * y_resolution:
                offer(p, z[j, : pair.na * pair.nb].reshape(pair.na, pair.nb, pair.d, pair.d))
            if best[p][2] > lo[p] + y_resolution:
                keep.append(j)
        active = [active[j] for j in keep]
        z = z[keep]

    # carry the best witness forward: one that meets a smaller X budget
    # meets every larger one, so Y is nonincreasing in the budget
    for p in range(1, len(xs)):
        if best[p][2] > best[p - 1][2]:
            best[p] = best[p - 1]
    # and the certified lower ends backward: no POVM within a budget has a
    # Y below a larger budget's lower end, so Y stays above it too
    for p in range(len(xs) - 2, -1, -1):
        lo[p] = max(lo[p], lo[p + 1])
    return [
        FrontierPoint(x_target=x, x_achieved=x_w, y_achieved=y_w, witness=w, y_lower=y_l)
        for x, (w, x_w, y_w), y_l in zip(xs, best, lo)
    ]


def frontier_point(
    a: Povm,
    b: Povm,
    x_target: float,
    y_resolution: float = FRONTIER_RESOLUTION,
    max_iter: int = FRONTIER_MAX_ITER,
) -> FrontierPoint:
    """Best found B-side accuracy given an A-side budget.

    Minimizes Y = D_inf(B, marg_B(F)) over product-outcome POVMs F subject to
    D_inf(A, marg_A(F)) <= x_target (the one-lane case of `frontier_sweep`).
    The bracket's upper end starts at the better of two product baselines,
    A x flat and flat x B, so budgets at or above D_inf(A, w I) return
    Y = 0 up to rounding. Its lower end starts at the smallest Y the paper's
    main bound allows at x_target, so the orthogonal sharp qubits at X = 0
    need no solve; it is 0 for inputs that fail `validate_povm` (accepted
    leniently), which the bound does not cover. Rounds of lifted
    Douglas-Rachford at the lower end then raise it by verified dual
    certificates and lower the upper end by their cleaned primal points,
    each mixed with its repair onto A's exact marginal to meet the budget;
    the lower end is returned as y_lower. The rounds stop once the bracket is
    within y_resolution or after max_iter iterations, so y_achieved -
    y_lower can exceed y_resolution when the budget runs out. The returned
    achieved values are computed from the cleaned-up witness, so they are
    exact properties of a genuine POVM whatever the solver did.
    """
    if not 0 <= x_target < math.inf:
        raise ValueError(f"X budget must be finite and nonnegative, got {x_target}")
    return _frontier(a, b, [x_target], y_resolution, max_iter)[0]


def frontier_sweep(
    a: Povm,
    b: Povm,
    n_points: int,
    x_max: float = FRONTIER_X_MAX,
    y_resolution: float = FRONTIER_RESOLUTION,
    max_iter: int = FRONTIER_MAX_ITER,
) -> list[FrontierPoint]:
    """Frontier points on a uniform x_target grid over [0, x_max].

    All points run together: every point whose bracket is open is one lane
    of one stacked Douglas-Rachford solve, and each point's solve runs as
    `frontier_point` would run it alone, to within y_resolution unless
    max_iter ran out first. The points are monotone: a witness found under
    a smaller X budget is also valid under a larger one, so it replaces any
    later point the solver did worse on, and a lower end certified under a
    larger budget also holds under a smaller one, so it raises any earlier
    point's y_lower that is below it.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    if not 0 <= x_max < math.inf:
        raise ValueError(f"x_max must be finite and nonnegative, got {x_max}")
    xs = np.linspace(0.0, x_max, n_points) if n_points > 1 else np.array([x_max])
    return _frontier(a, b, [float(x) for x in xs], y_resolution=y_resolution, max_iter=max_iter)
