"""A lane-batched primal-dual interior-point solver for block LMIs.

The problem is, for each lane, the linear matrix inequality

    minimize t  over Hermitian d x d G_j and real t
    subject to  C_k + sum_j g_kj G_j + e_k t I >= 0  for every block k,

with every block d x d. The real incidence g (blocks x groups) and the
scalar column e are shared by all lanes; the constants C_k are each lane's
own. The frontier's lifted problem has this form (`feasibility._Pair.
frontier_lmi`): its groups are the product outcomes but the last, whose
element is I minus the others, and t is the Y budget.

The free variables u are the coordinates of every G_j in the orthonormal
Hermitian basis H_p (Re tr(H_p H_q) = delta_pq: the E_ii, then
(E_ij + E_ji)/sqrt 2 and i(E_ij - E_ji)/sqrt 2 for i < j), then t. With
A*(u) = -(sum_j g_kj G_j + e_k t I)_k and b = (0, ..., 0, -1) the pair is

    (D) max b^T u  s.t.  Z = C - A*(u) >= 0,
    (P) min <C, X>  s.t.  A(X) = b, X >= 0,

where X holds one multiplier per block. The iteration is HKM path following
(Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 6, 1996) with
Mehrotra's predictor-corrector (SIAM J. Optim. 2, 1992), from X = Z = I and
u = 0. Each step solves M du = r_p - A(R_c Z^-1) + A(X R_d Z^-1) and sets
dZ = R_d - A*(du) and dX = herm((R_c - X dZ) Z^-1): the predictor with
R_c = -XZ, the corrector with R_c = sigma mu I - XZ - dX_aff dZ_aff and
sigma = (mu_aff / mu)^3. Both steps go STEP_FRACTION of the way to the
boundary, X and Z each by its own length.

The Schur complement M = A K A* is assembled from the incidence, not as a
dense product: K_k[p, q] = Re tr(H_p X_k H_q Z_k^-1), and the group pair
(j, l) of M sums g_kj g_kl K_k over the blocks k. M is factored once a step
(a Cholesky factor and its inverse), and the factor serves the predictor
and the corrector alike.

The cost at these sizes is call overhead, not flops, so all blocks of all
lanes are one (lanes, blocks, d, d) stack and each operation of a step is
one stacked call. Only stacked `matmul`, elementwise operations, per-lane
reductions and per-matrix `np.linalg` calls touch a lane, so a lane's bits
do not depend on the rest of the batch. A lane's error is the largest of
its relative gap and its relative primal and dual infeasibilities. It
leaves the batch once that error is below GAP_TOL, and also once its
Cholesky factorization fails, its error has not improved for STALL_STEPS
steps, or it has taken max_iter steps. Close to the optimum the Schur
complement grows ill-conditioned, and on nearly degenerate lanes (a tiny X
budget, or d = 4) the factorization can break down at an error just above
GAP_TOL. So every lane returns its best iterate, the one of lowest error,
whichever way it left. Nothing here is trusted: the caller verifies the
primal and the dual of every lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import hermitian_part, read_only

# A lane has converged once its relative gap and its relative primal and dual
# infeasibilities are all below GAP_TOL.
GAP_TOL = 1e-8
# Each step goes this fraction of the way to the boundary of the cone.
STEP_FRACTION = 0.95
# A lane whose error has not fallen below its lowest for this many steps
# has stalled and leaves the batch.
STALL_STEPS = 5


@dataclass(frozen=True, eq=False)
class Solution:
    """One lane's best iterate: the group variables G_j, shape
    (groups, d, d), the block multipliers X_k (the dual), shape
    (blocks, d, d), the step it was reached at, and its error, the largest
    of its relative gap and relative infeasibilities; the lane converged if
    the error is below GAP_TOL."""

    groups: np.ndarray
    multipliers: np.ndarray
    iterations: int
    error: float


@cache
def _basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis H_p as its columns vec(H_p), shape (d^2, d^2) complex, and
    as the real map `read` (d^2, 2 d^2) from a matrix's entries, viewed as
    interleaved floats, to the coordinates Re tr(H_p M); its transpose maps
    coordinates back to a Hermitian matrix."""
    h = np.zeros((d, d, d * d), dtype=complex)
    h[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    p = d
    for i in range(d):
        for j in range(i + 1, d):
            h[i, j, p] = h[j, i, p] = 1 / np.sqrt(2)
            h[i, j, p + 1], h[j, i, p + 1] = 1j / np.sqrt(2), -1j / np.sqrt(2)
            p += 2
    cols = read_only(h.reshape(d * d, d * d))
    return cols, read_only(np.stack([cols.real.T, cols.imag.T], axis=-1).reshape(d * d, -1))


def _cholesky(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a lane stack (lanes, ..., n, n), and which
    lanes have them: a lane with a matrix that is not positive definite gets
    identity factors and False."""
    try:
        return np.linalg.cholesky(m), np.ones(len(m), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    factors = np.broadcast_to(np.eye(m.shape[-1], dtype=m.dtype), m.shape).copy()
    ok = np.zeros(len(m), dtype=bool)
    for j in range(len(m)):
        try:
            factors[j] = np.linalg.cholesky(m[j])
            ok[j] = True
        except np.linalg.LinAlgError:
            pass
    return factors, ok


def solve(
    incidence: np.ndarray, scalar: np.ndarray, constants: np.ndarray, max_iter: int
) -> list[Solution]:
    """Solve the LMI of the module docstring for every lane: `incidence` g
    (blocks, groups) and `scalar` e (blocks,) real, `constants` C Hermitian,
    shape (lanes, blocks, d, d). Returns one Solution per lane: its best
    iterate when it converged, stalled, failed or ran out of its max_iter
    steps."""
    lanes, blocks, d, _ = constants.shape
    groups = incidence.shape[1]
    cols, read = _basis(d)
    cols_h, read_t = np.conj(cols.T), np.ascontiguousarray(read.T)
    eye = np.eye(d, dtype=complex)
    eye_coords = np.zeros(d * d)
    eye_coords[:d] = 1.0
    n_g = groups * d * d
    b = np.zeros(n_g + 1)
    b[-1] = -1.0
    # pairs[j l, k] = g_kj g_kl: the blocks that reach group pair (j, l) of M
    pairs = (incidence[:, :, None] * incidence[:, None, :]).reshape(blocks, -1).T
    g_t = np.ascontiguousarray(incidence.T)
    ge = g_t * scalar
    scalar_eye = scalar[:, None] * eye_coords
    ee = scalar * scalar

    def coords(w):
        """Re tr(H_p W_k) of a stack of blocks (n, blocks, d, d)."""
        return np.ascontiguousarray(w).reshape(len(w), blocks, d * d).view(float) @ read_t

    def forward(v):
        """The blocks sum_j g_kj G_j + e_k t I of coordinates v, (n, n_g + 1)."""
        out = incidence @ v[:, :n_g].reshape(len(v), groups, d * d)
        out += scalar_eye * v[:, -1, None, None]
        return (out @ read).view(complex).reshape(len(v), blocks, d, d)

    def adjoint(w):
        """The coordinates of -A(W), the adjoint of `forward`."""
        c_w = coords(w)
        t = (c_w[..., :d].sum(axis=2) * scalar).sum(axis=1, keepdims=True)
        return np.concatenate([(g_t @ c_w).reshape(len(w), n_g), t], axis=1)

    def group_matrices(v):
        return (v[:n_g].reshape(groups, d * d) @ read).view(complex).reshape(groups, d, d)

    c = constants
    c_norm = np.sqrt((np.abs(c) ** 2).sum(axis=(1, 2, 3)))
    x = np.broadcast_to(eye, c.shape).copy()
    z = x.copy()
    u = np.zeros((lanes, n_g + 1))
    lane = np.arange(lanes)
    alive = np.ones(lanes, dtype=bool)
    # each lane's lowest error so far, with its iterate and step
    best = np.full(lanes, np.inf)
    best_u, best_x, best_it = u.copy(), x.copy(), np.zeros(lanes, dtype=int)
    out: list = [None] * lanes
    for it in range(max_iter + 1):
        xz = x @ z
        gap = np.trace(xz, axis1=-2, axis2=-1).real.sum(axis=1)
        rd = c + forward(u) - z
        rp = b + adjoint(x)
        p_obj = (np.conj(c) * x).real.sum(axis=(1, 2, 3))
        error = np.maximum(
            gap / (1 + np.abs(p_obj) + np.abs(u[:, -1])),
            np.maximum(
                np.sqrt((rp * rp).sum(axis=1)) / 2,
                np.sqrt((np.abs(rd) ** 2).sum(axis=(1, 2, 3))) / (1 + c_norm),
            ),
        )
        better = alive & (error < best)
        best = np.where(better, error, best)
        best_u[better], best_x[better], best_it[better] = u[better], x[better], it
        leave = (
            ~alive
            | ~np.isfinite(error)
            | (best < GAP_TOL)
            | (it - best_it >= STALL_STEPS)
            | (it == max_iter)
        )
        for j in np.flatnonzero(leave):
            out[lane[j]] = Solution(
                group_matrices(best_u[j]), best_x[j], int(best_it[j]), float(best[j])
            )
        if leave.all():
            break
        if leave.any():
            keep = ~leave
            c, c_norm, x, z, u, lane = c[keep], c_norm[keep], x[keep], z[keep], u[keep], lane[keep]
            best, best_u, best_x, best_it = best[keep], best_u[keep], best_x[keep], best_it[keep]
            xz, gap, rd, rp = xz[keep], gap[keep], rd[keep], rp[keep]
        mu = gap / (blocks * d)

        factors, alive = _cholesky(np.concatenate([x, z], axis=1))
        inv = np.linalg.inv(factors)
        inv_h = np.conj(np.swapaxes(inv, -1, -2))
        zi = inv_h[:, blocks:] @ inv[:, blocks:]
        x_rd = x @ rd
        n = len(x)
        # K_k = Re(H^* (X_k kron Z_k^-T) H), the map H -> X_k H Z_k^-1
        kron = x[..., :, None, :, None] * np.swapaxes(zi, -1, -2)[..., None, :, None, :]
        k = (cols_h @ kron.reshape(n, blocks, d * d, d * d) @ cols).real
        k_eye = k @ eye_coords
        m = np.empty((n, n_g + 1, n_g + 1))
        m[:, :n_g, :n_g] = (
            (pairs @ k.reshape(n, blocks, -1))
            .reshape(n, groups, groups, d * d, d * d)
            .transpose(0, 1, 3, 2, 4)
            .reshape(n, n_g, n_g)
        )
        m[:, :n_g, -1] = m[:, -1, :n_g] = (ge @ k_eye).reshape(n, n_g)
        m[:, -1, -1] = (k_eye[..., :d].sum(axis=2) * ee).sum(axis=1)
        m_factor, m_ok = _cholesky(m)
        alive &= m_ok
        m_inv = np.linalg.inv(m_factor)
        m_inv_t = np.swapaxes(m_inv, -1, -2)

        def direction(rc):
            rhs = rp + adjoint((rc - x_rd) @ zi)
            du = (m_inv_t @ (m_inv @ rhs[:, :, None]))[:, :, 0]
            dz = rd + forward(du)
            return du, hermitian_part((rc - x @ dz) @ zi), dz

        def steps(dx, dz):
            """Step lengths for X and Z: min(1, STEP_FRACTION of the way to
            the boundary), from the eigenvalues of L^-1 dX L^-*."""
            low = np.linalg.eigvalsh(inv @ np.concatenate([dx, dz], axis=1) @ inv_h)[..., 0]
            low_x, low_z = low[:, :blocks].min(axis=1), low[:, blocks:].min(axis=1)
            return (
                1 / np.maximum(1, -low_x / STEP_FRACTION),
                1 / np.maximum(1, -low_z / STEP_FRACTION),
            )

        _, dx, dz = direction(-xz)
        ax, az = steps(dx, dz)
        x_aff = x + ax[:, None, None, None] * dx
        z_aff = z + az[:, None, None, None] * dz
        mu_aff = np.trace(x_aff @ z_aff, axis1=-2, axis2=-1).real.sum(axis=1) / (blocks * d)
        sigma_mu = (mu_aff / mu) ** 3 * mu
        du, dx, dz = direction(sigma_mu[:, None, None, None] * eye - xz - dx @ dz)
        ax, az = steps(dx, dz)
        x = x + ax[:, None, None, None] * dx
        z = z + az[:, None, None, None] * dz
        u = u + az[:, None] * du
    return out
