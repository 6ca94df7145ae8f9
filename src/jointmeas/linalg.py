"""Dense complex linear algebra for small operator matrices.

Everything here works on plain numpy arrays (square, complex). Matrices are
small (qubits up to a few dozen dimensions), so eigendecomposition-based
formulas are used throughout instead of iterative methods.

Each spectral rule has one kernel, which works on a stack of shape
(..., d, d): operator norms (`herm_norm_stack`, which also reads the
commutator norms off the Hermitian i[X, Y] of `commutator_stack`), PSD
projection (`project_psd_stack`) and spectral clipping
(`clip_operator_norm_stack`), which clips each matrix's eigenvalues into
its own window [lower, upper]. The PSD projection is the window [0, inf),
but it keeps its own kernel and does not call the clip. A single matrix
is a stack of one. The kernels do not validate their input and hold no
tolerance of their own; callers check it once at the boundary (the `Povm`
constructor and `povm.validate_povm`).

`herm_norm_bound_stack` bounds each operator norm from above without an
eigensolver, from the trace and the Frobenius norm alone
(Wolkowicz & Styan, "Bounds for eigenvalues using traces", Linear Algebra
Appl. 29, 1980). `subsets.max_norms` uses it, on H and on H^2, to skip
the eigenvalue solves of subset sums that cannot reach a running maximum
(on H^2 alone for the matrices it bounds from `subsets.Halves` or
`subsets.Products`).
"""

from __future__ import annotations

import numpy as np


def read_only(m: np.ndarray) -> np.ndarray:
    """`m` itself, made read-only in place: the one place arrays are frozen."""
    m.setflags(write=False)
    return m


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*) / 2 along the last two axes (works on stacked matrices)."""
    return (m + m.swapaxes(-1, -2).conj()) / 2


# --- stacked kernels (shape (..., d, d)) ---


def herm_norm_stack(ms: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of (nearly) Hermitian matrices: the larger
    magnitude of the two ends of each ascending spectrum."""
    w = np.linalg.eigvalsh(hermitian_part(ms))
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def herm_norm_bound_stack(ms: np.ndarray) -> np.ndarray:
    """Upper bounds on the norms `herm_norm_stack` returns, from traces
    alone: with t = tr(H)/d, every eigenvalue of a Hermitian H obeys
    |lambda| <= |t| + sqrt((d - 1)/d) ||H - t I||_F (Wolkowicz & Styan, 1980).

    For a nearly Hermitian M, t = Re tr(M)/d is the trace of its Hermitian
    part H, and ||M - t I||_F >= ||H - t I||_F, so the bound holds for H.
    The traceless part is summed entry by entry: the shortcut
    ||M||_F^2 - d t^2 cancels on a near-scalar matrix and can undershoot
    the norm by about 1e-8 relative.
    """
    d = ms.shape[-1]
    t = np.einsum("...ii->...", ms).real / d
    dev = (ms - t[..., None, None] * np.eye(d)).view(np.float64)
    return np.abs(t) + np.sqrt((d - 1) / d) * np.sqrt(np.einsum("...ij,...ij->...", dev, dev))


def commutator_stack(prods: np.ndarray) -> np.ndarray:
    """i[X, Y] for Hermitian pairs, from their products P = XY: for
    Hermitian X and Y, [X, Y] = P - P*, and i[X, Y] is Hermitian with the
    same norm."""
    return 1j * (prods - prods.swapaxes(-1, -2).conj())


def project_psd_stack(ms: np.ndarray) -> np.ndarray:
    """Per-matrix PSD projection of a stack: the nearest (Frobenius) PSD
    matrix, by clipping the Hermitian part's negative eigenvalues to zero."""
    w, u = np.linalg.eigh(hermitian_part(ms))
    w = np.maximum(w, 0.0)  # what np.clip(w, 0.0, None) computes, without its wrappers
    return (u * w[..., None, :]) @ u.swapaxes(-1, -2).conj()


def clip_operator_norm_stack(
    ms: np.ndarray, lower: float | np.ndarray, upper: float | np.ndarray
) -> np.ndarray:
    """Per-matrix spectral clipping of a stack: each eigenvalue of each
    matrix's Hermitian part clipped into its window [lower, upper], the
    nearest (Frobenius) Hermitian matrix with its spectrum there.

    `lower` and `upper` are floats or arrays that broadcast against the
    stack's eigenvalues, shape (..., d): a (P, n, 1) window gives each
    matrix ms[p, i] of a (P, n, d, d) stack its own. [-b, b] bounds the
    operator norm by b, and [0, inf) projects onto the PSD cone, so one
    call projects onto the frontier's whole lifted K, PSD rows and
    norm-ball rows alike. Its only caller is the lifted Douglas-Rachford
    of the frontier's points at X = 0, points an interior-point lane left
    open, and pairs too large for the core; the other X > 0 points run the
    interior-point core of `sdp`, which calls no spectral kernel here.

    The name predates the window and stays: `perfbench/layers.py` spans
    this kernel and `project_psd_stack` by name and reads the frontier's
    iteration count off this one's calls, so that figure counts only the
    lifted Douglas-Rachford steps. For the same reason `project_psd_stack` does not
    call it, which would count one projection under both names.
    """
    w, u = np.linalg.eigh(hermitian_part(ms))
    w = np.clip(w, lower, upper)
    return (u * w[..., None, :]) @ u.swapaxes(-1, -2).conj()


def renormalize(g: np.ndarray, floor: float) -> np.ndarray | None:
    """Conjugate each group of a stack (..., n, d, d) by S^(-1/2), where S
    is the group's sum over axis -3, so that every group sums to the
    identity. The leading axes index the groups; one eigendecomposition
    serves all their sums, and each group gets the bits it would get alone.

    Returns None when any group's S is too close to singular:
    lambda_min(S) <= floor * max(1, lambda_max(S)).
    """
    s = g.sum(axis=-3)
    w, u = np.linalg.eigh(hermitian_part(s))
    if (w[..., 0] <= floor * np.maximum(1.0, w[..., -1])).any():
        return None
    inv_sqrt = (u * (1.0 / np.sqrt(w))[..., None, :]) @ u.swapaxes(-1, -2).conj()
    inv_sqrt = inv_sqrt[..., None, :, :]
    return inv_sqrt @ g @ inv_sqrt
