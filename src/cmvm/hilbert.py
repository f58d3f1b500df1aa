"""Dense finite-dimensional operator helpers.

Everything downstream (noise models, stochastic integrals, quadratic
variation, moment bounds) works with coordinates in fixed orthonormal bases,
so vectors, operators and covariance fields are plain float64 arrays. This
module holds the dimension cap of the package and the two operator
computations with actual content: the operator norm, which normalizes
covariance operators, and the PSD square root, which turns a covariance
into a sampling factor and into the Hilbert-Schmidt weight of the brackets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_DIM", "op_norm", "psd_sqrt"]

# Dense-matrix regime for the whole package; larger spaces would call for a
# different backend, so constructors refuse them outright.
MAX_DIM = 64

# Relative tolerance of psd_sqrt's symmetry and negativity checks.
_PSD_TOL = 1e-10


def _check_dim(dim: int, name: str) -> None:
    if dim < 1 or dim > MAX_DIM:
        raise ValueError(f"{name} dimension {dim} outside supported range 1..{MAX_DIM}")


def _finite_matrix(op) -> np.ndarray:
    m = np.asarray(op, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def op_norm(op) -> float:
    """Operator (spectral) norm of a dense operator."""
    m = _finite_matrix(op)
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if m.shape[0] == m.shape[1] and np.abs(m - m.T).max(initial=0.0) <= 1e-12 * scale:
        # symmetric fast path: largest |eigenvalue|
        return float(np.max(np.abs(np.linalg.eigvalsh(m)), initial=0.0))
    return float(np.linalg.norm(m, 2))


def psd_sqrt(op) -> np.ndarray:
    """Symmetric square root of a positive semidefinite operator.

    Uses an eigendecomposition; eigenvalues in [-_PSD_TOL*scale, 0) are
    treated as rounding noise and clipped to zero. Non-finite entries,
    asymmetry or genuinely negative eigenvalues beyond the tolerance raise
    ValueError.

    Args:
        op: square symmetric PSD matrix.

    Returns:
        Read-only array S with S @ S == op up to rounding.
    """
    m = _finite_matrix(op)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    asym = float(np.abs(m - m.T).max(initial=0.0))
    if asym > _PSD_TOL * scale:
        raise ValueError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds {_PSD_TOL:.1e}*{scale:.3e}"
        )
    sym = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    lam_scale = max(1.0, float(np.abs(eigvals).max(initial=0.0)))
    if eigvals.min(initial=0.0) < -_PSD_TOL * lam_scale:
        raise ValueError(
            f"matrix is not positive semidefinite: eigenvalue {eigvals.min():.3e}"
        )
    root = eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    root.setflags(write=False)
    return root
