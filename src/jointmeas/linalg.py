"""Dense complex linear algebra for small operator matrices.

Everything here works on plain numpy arrays (square, complex). Matrices are
small (qubits up to a few dozen dimensions), so eigendecomposition-based
formulas are used throughout instead of iterative methods.
"""

from __future__ import annotations

import numpy as np

# A matrix counts as Hermitian when ||M - M*||_max <= rtol * max(1, ||M||_max).
# The relative form absorbs roundoff accumulated by repeated cone projections.
HERMITICITY_RTOL = 1e-9


def as_operator(m) -> np.ndarray:
    """Coerce input to a square complex matrix of dimension >= 1.

    Raises ValueError for non-square, empty, or non-finite input.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix dimension must be >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*) / 2 along the last two axes (works on stacked matrices)."""
    return (m + np.conj(np.swapaxes(m, -1, -2))) / 2


def hermitian_defects(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix Hermiticity defect ||M - M*||_max of a stack, and the
    defect each matrix is allowed, HERMITICITY_RTOL * max(1, ||M||_max)."""
    defect = np.abs(ms - np.conj(np.swapaxes(ms, -1, -2))).max(axis=(-2, -1))
    allowed = HERMITICITY_RTOL * np.maximum(1.0, np.abs(ms).max(axis=(-2, -1)))
    return defect, allowed


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within tolerance and return the symmetrized matrix."""
    a = as_operator(m)
    defect, allowed = hermitian_defects(a)
    if defect > allowed:
        raise ValueError(f"{name} is not Hermitian: ||M - M*||_max = {defect:.3e}")
    return hermitian_part(a)


def herm_eig(m, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix: (eigenvalues ascending, unitary).

    The input is symmetrized before factoring; non-Hermitian input (beyond
    tolerance) raises ValueError.
    """
    return np.linalg.eigh(require_hermitian(m, name))


def op_norm(m) -> float:
    """Operator norm (largest singular value).

    For Hermitian input this is the largest absolute eigenvalue; the general
    case is computed as sqrt(||M*M||), through the same Hermitian kernel.
    """
    a = as_operator(m)
    defect, allowed = hermitian_defects(a)
    if defect <= allowed:
        return float(herm_norm_stack(a))
    return float(np.sqrt(herm_norm_stack(np.conj(a.T) @ a)))


def commutator(x, y) -> np.ndarray:
    """XY - YX.  Inputs must share dimensions."""
    a = as_operator(x)
    b = as_operator(y)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def commutator_norm(x, y) -> float:
    """||[X, Y]|| for Hermitian X, Y."""
    a = require_hermitian(x, "first operator")
    b = require_hermitian(y, "second operator")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(commutator_norm_stack(a @ b))


def psd_check(m, tol: float) -> bool:
    """True iff the minimum eigenvalue of the (Hermitian) input is >= -tol."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    w = np.linalg.eigvalsh(require_hermitian(m))
    return bool(w[0] >= -tol)


def project_psd(m) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix.

    Eigendecomposes the symmetrized input and clips negative eigenvalues to
    zero. Idempotent.
    """
    return project_psd_stack(require_hermitian(m))


def clip_operator_norm(m, bound: float) -> np.ndarray:
    """Nearest (Frobenius) Hermitian matrix with operator norm <= bound.

    Clips the spectrum of the symmetrized input into [-bound, bound].
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return clip_operator_norm_stack(require_hermitian(m), bound)


# --- stacked kernels (shape (..., d, d)) ---
# op_norm, commutator_norm, project_psd and clip_operator_norm are their
# one-matrix case.


def herm_norm_stack(ms: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of (nearly) Hermitian matrices."""
    w = np.linalg.eigvalsh(hermitian_part(ms))
    return np.abs(w).max(axis=-1)


def commutator_norm_stack(prods: np.ndarray) -> np.ndarray:
    """Commutator norms ||[X, Y]|| of Hermitian pairs, from their products
    P = XY: for Hermitian X and Y, [X, Y] = P - P*, and i[X, Y] is Hermitian
    with the same norm."""
    return herm_norm_stack(1j * (prods - np.conj(np.swapaxes(prods, -1, -2))))


def project_psd_stack(ms: np.ndarray) -> np.ndarray:
    """Per-matrix PSD projection of a stack."""
    w, u = np.linalg.eigh(hermitian_part(ms))
    w = np.clip(w, 0.0, None)
    return (u * w[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))


def clip_operator_norm_stack(ms: np.ndarray, bound: float | np.ndarray) -> np.ndarray:
    """Per-matrix spectral clipping of a stack into [-bound, bound].

    `bound` is a float or an array that broadcasts against the stack's
    eigenvalues, shape (..., d): a (P, 1, 1) bound gives each group
    ms[p] of a (P, n, d, d) stack its own bound.
    """
    w, u = np.linalg.eigh(hermitian_part(ms))
    w = np.clip(w, -bound, bound)
    return (u * w[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))


def renormalize(g: np.ndarray, floor: float) -> np.ndarray | None:
    """Conjugate a stack by S^(-1/2), where S is its sum over the leading
    axes, so that the result sums to the identity.

    Returns None when S is too close to singular:
    lambda_min(S) <= floor * max(1, lambda_max(S)).
    """
    s = g.sum(axis=tuple(range(g.ndim - 2)))
    w, u = np.linalg.eigh(hermitian_part(s))
    if w[0] <= floor * max(1.0, float(w[-1])):
        return None
    inv_sqrt = (u * (1.0 / np.sqrt(w))) @ np.conj(u.T)
    return inv_sqrt @ g @ inv_sqrt
