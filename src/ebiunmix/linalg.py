"""Dense real matrix primitives: centering, covariance, symmetric eigen, SVD.

Matrices are plain 2-D float ndarrays, validated at operation boundaries
(finite entries, at least one row and column). The channel count p is tiny
(4 in the target application, never more than a handful), so the
eigensolver is a cyclic Jacobi iteration: provably convergent, simple, and
exact enough that every downstream tolerance is met with a wide margin.
The SVD is computed through the p x p Gram matrix rather than
bidiagonalization, which is both simpler and faster when n >> p.

Sign convention: every eigenvector / right-singular-vector column is
normalized so its largest-magnitude entry is positive, making outputs
deterministic across runs.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InsufficientDataError,
    InvalidInputError,
    JacobiConvergenceError,
)

# Jacobi stops when every off-diagonal magnitude is below this fraction of
# the Frobenius norm of the input; hard cap on sweeps guards pathological input.
JACOBI_OFF_DIAG_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100

# Singular values below this fraction of the largest are treated as exactly
# zero so rank deficiency cannot leak NaN into downstream stages.
SVD_RANK_TOL = 1e-12

_SYMMETRY_TOL = 1e-9


def check_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float matrix (>=1 row, >=1 col, all finite)."""
    a = np.asarray(data, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"{name} must have at least one row and column, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def check_number(value, name: str, integral: bool = False) -> None:
    """Reject a bool, or a value that is not a real (integral=True: an integer) number."""
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "an integer" if integral else "a real number"
        raise InvalidInputError(f"{name} must be {expected}, got {value!r}")


def _sign_normalize_columns(v: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each column is positive."""
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * np.where(peak < 0, -1.0, 1.0)


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix.

    sym_eigen returns the eigenvalues sorted descending and the eigenvector
    columns orthonormal and sign-normalized.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: input = U @ diag(D) @ V.T; svd returns orthonormal U columns,
    an orthogonal V, and D nonnegative and sorted descending."""

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray


def center_columns(data) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each column's mean.

    Returns:
        (centered, means): centered matrix of the same shape, and the vector
        of per-column arithmetic means.
    """
    a = check_matrix(data, "data")
    means = a.mean(axis=0)
    return a - means, means


def covariance(centered) -> np.ndarray:
    """Sample covariance (1/(n-1)) X^T X of an already column-centered matrix."""
    x = check_matrix(centered, "centered")
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(f"covariance needs at least 2 rows, got {n}")
    c = x.T @ x / (n - 1)
    return 0.5 * (c + c.T)


def sym_eigen(m) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Each sweep visits every pair i < j whose off-diagonal entry exceeds the
    threshold and applies the plane rotation J = [[c, s], [-s, c]] that
    zeroes it: A <- J^T A J on columns and rows i, j, and V <- V J.
    Sweeps stop once every off-diagonal magnitude is at most
    JACOBI_OFF_DIAG_TOL times the Frobenius norm of the input, with a hard
    cap of JACOBI_MAX_SWEEPS sweeps.

    Raises:
        InvalidInputError: non-square or asymmetric input.
        JacobiConvergenceError: threshold not reached within the sweep cap.
    """
    a = check_matrix(m, "m")
    p = a.shape[0]
    if a.shape[1] != p:
        raise InvalidInputError(f"matrix must be square, got {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > _SYMMETRY_TOL * scale:
        raise InvalidInputError("matrix is not symmetric within tolerance")

    a = 0.5 * (a + a.T)
    v = np.eye(p)
    thresh = JACOBI_OFF_DIAG_TOL * float(np.linalg.norm(a))
    upper = np.triu_indices(p, 1)
    for sweeps in range(JACOBI_MAX_SWEEPS + 1):
        off = float(np.abs(a[upper]).max(initial=0.0))
        if off <= thresh:
            break
        if sweeps == JACOBI_MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"off-diagonal mass {off:.3e} above threshold {thresh:.3e} "
                f"after {sweeps} sweeps",
                sweeps=sweeps,
            )
        for i, j in zip(*upper):
            if abs(a[i, j]) <= thresh:
                continue
            theta = (a[j, j] - a[i, i]) / (2.0 * a[i, j])
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            rot = np.array([[c, s], [-s, c]])
            pair = [i, j]
            a[:, pair] = a[:, pair] @ rot
            a[pair] = rot.T @ a[pair]
            v[:, pair] = v[:, pair] @ rot

    vals = np.diag(a)
    order = np.argsort(-vals, kind="stable")
    return SymEigen(vals[order], _sign_normalize_columns(v[:, order]))


def svd(data) -> SvdResult:
    """Thin SVD of a tall matrix via eigendecomposition of the p x p Gram matrix.

    Singular values are sqrt of the Gram eigenvalues; U columns come from
    Y V / d. Singular values below SVD_RANK_TOL times the largest are set to
    exactly zero and their U columns are filled by Gram-Schmidt against the
    existing columns, so rank-deficient input never produces NaN.

    Raises:
        DimensionError: fewer rows than columns.
    """
    y = check_matrix(data, "data")
    n, p = y.shape
    if n < p:
        raise DimensionError(f"svd requires rows >= cols, got {y.shape}")

    eig = sym_eigen(y.T @ y)
    d = np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    v = eig.eigenvectors

    d_max = float(d[0])
    zero = d <= SVD_RANK_TOL * d_max if d_max > 0.0 else np.ones(p, dtype=bool)
    d = np.where(zero, 0.0, d)

    u = np.zeros((n, p))
    for j in range(p):
        if not zero[j]:
            u[:, j] = y @ v[:, j] / d[j]
    if zero.any():
        u = _fill_orthonormal_columns(u, np.flatnonzero(zero), np.flatnonzero(~zero))
    return SvdResult(u, d, v)


def _fill_orthonormal_columns(u: np.ndarray, empty: np.ndarray, filled: np.ndarray) -> np.ndarray:
    """Fill the `empty` columns of u with unit vectors orthogonal to all others."""
    n = u.shape[0]
    u = u.copy()
    taken = list(filled)
    for j in empty:
        for basis in range(n):
            cand = np.zeros(n)
            cand[basis] = 1.0
            # two Gram-Schmidt passes keep orthogonality at round-off level
            for _ in range(2):
                for k in taken:
                    cand -= (u[:, k] @ cand) * u[:, k]
            nrm = float(np.linalg.norm(cand))
            if nrm > 0.5:
                cand /= nrm
                if cand[int(np.argmax(np.abs(cand)))] < 0:
                    cand = -cand
                u[:, j] = cand
                taken.append(j)
                break
        else:
            raise InvalidInputError("could not complete orthonormal basis")
    return u
