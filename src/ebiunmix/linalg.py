"""Dense real matrix primitives: input checks, symmetric eigen, SVD.

The input checks cover matrices and scalar parameters alike: check_number
is the one rule for what a scalar parameter accepts and how a refusal reads.

Matrices are plain 2-D float ndarrays, validated at operation boundaries
(real, finite entries, at least one row and column). The channel count p
is tiny (4 in the target application, never more than a handful), so the
eigensolver is a cyclic Jacobi iteration: provably convergent, simple, and
exact enough that every downstream tolerance is met with a wide margin.

Work on values of this size runs on Python floats, because numpy's ~1-2 us
per call costs more than the arithmetic: Jacobi's symmetry test, rotations,
order and signs here, and the k-sized steps of PCA, FastICA and the
matching. It keeps numpy's bits. On finite values, elementwise arithmetic,
sqrt, abs, max and a stable sort round or choose alike; a sum is the one
place the two differ. numpy's sum along a contiguous axis adds up to 7 terms
in order, which Python's sum repeats, and from 8 terms on sums pairwise
with 8 accumulators, so short_sum hands 8 or more terms to np.sum.

The SVD is computed through the p x p Gram matrix rather than
bidiagonalization, which is both simpler and faster when n >> p; it needs
full column rank under RANK_TOL, the one numerical-rank rule: a Gram or
covariance eigenvalue at or below 1e-12 times the largest is zero.

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
    InvalidInputError,
    JacobiConvergenceError,
)

# Jacobi stops when every off-diagonal magnitude is below this fraction of
# the Frobenius norm of the input; hard cap on sweeps guards pathological input.
JACOBI_OFF_DIAG_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100

# A Gram or covariance eigenvalue at or below this fraction of the largest is
# numerically zero: svd, fit_pca's negative floor and whiten's cutoff read it.
RANK_TOL = 1e-12

_SYMMETRY_TOL = 1e-9


def check_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float matrix (>=1 row, >=1 col, real, all finite)."""
    a = np.asarray(data)
    if np.iscomplexobj(a):
        raise InvalidInputError(
            f"{name} is complex; pass each complex channel as two real columns "
            f"(real and imaginary part)"
        )
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"{name} must have at least one row and column, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def check_number(value, name: str, integral: bool = False, *, above=None, at_least=None,
                 below=None) -> None:
    """Reject a bool, a value that is not a real (integral=True: an integer)
    number, or one that fails a given bound: value > above, value >= at_least,
    value < below. NaN fails every bound. Give at most one lower bound, and a
    lower bound wherever below is given.
    """
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "an integer" if integral else "a real number"
        raise InvalidInputError(f"{name} must be {expected}, got {value!r}")
    if ((above is None or value > above) and (at_least is None or value >= at_least)
            and (below is None or value < below)):
        return
    if below is not None:
        span = f"in ({above}, {below})" if at_least is None else f"in [{at_least}, {below})"
    else:
        span = f"> {above}" if at_least is None else f">= {at_least}"
    raise InvalidInputError(f"{name} must be {span}, got {value}")


def sample_mean(x: np.ndarray) -> np.ndarray:
    """Column means of an (n x k) sample matrix, summed in sample order.

    With k >= 2 columns on the inner axis (|row stride| > |column stride|:
    C order, or rows of a C-order array taken with a step), x.mean(axis=0)
    adds the rows one after another, and so does einsum("ij->j"), at about a
    third of the cost at n = 1000: the bits are the same. At k = 1, or with
    the samples on the inner axis (F order), mean sums pairwise, which
    einsum does not reproduce, so those go to mean itself.
    """
    if x.shape[1] < 2 or abs(x.strides[0]) <= abs(x.strides[1]):
        return x.mean(axis=0)
    return np.einsum("ij->j", x) / x.shape[0]


def short_sum(xs: list) -> float:
    """Sum of a list of floats with the bits of numpy's sum along a contiguous
    axis: term after term below 8 terms; from 8 on numpy sums pairwise, with
    8 accumulators, so np.sum itself adds them."""
    return sum(xs) if len(xs) < 8 else float(np.sum(xs))


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
    """Thin SVD: input = U @ diag(D) @ V.T; svd returns U columns orthonormal
    to ~eps * (D[0] / D[-1])^2 (at most ~2e-4, as D[-1] > 1e-6 * D[0]), an
    orthogonal V, and D positive and sorted descending."""

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray


def sym_eigen(m) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Each sweep visits every pair i < j whose off-diagonal entry exceeds the
    threshold and applies the plane rotation J = [[c, s], [-s, c]] that
    zeroes it: A <- J^T A J on columns and rows i, j, and V <- V J.
    Sweeps stop once every off-diagonal magnitude is at most
    JACOBI_OFF_DIAG_TOL times the Frobenius norm of the input, with a hard
    cap of JACOBI_MAX_SWEEPS sweeps. It runs on lists of Python floats (see
    the module docstring), the norm included: math.hypot of the entries.

    Raises:
        InvalidInputError: non-square or asymmetric input, or a Frobenius
            norm past the largest float, where no rotation would run.
        JacobiConvergenceError: threshold not reached within the sweep cap.
    """
    a = check_matrix(m, "m")
    p = a.shape[0]
    if a.shape[1] != p:
        raise InvalidInputError(f"matrix must be square, got {a.shape}")
    rows = a.tolist()
    upper = [(i, j) for i in range(p) for j in range(i + 1, p)]
    scale = max(1.0, max(abs(x) for row in rows for x in row))
    if any(abs(rows[i][j] - rows[j][i]) > _SYMMETRY_TOL * scale for i, j in upper):
        raise InvalidInputError("matrix is not symmetric within tolerance")

    a = [[0.5 * (x + y) for x, y in zip(row, col)] for row, col in zip(rows, zip(*rows))]
    norm = math.hypot(*(x for row in a for x in row))
    if norm == math.inf:  # the symmetrised entries or their norm overflow
        raise InvalidInputError("matrix is too large: its Frobenius norm overflows a float")
    thresh = JACOBI_OFF_DIAG_TOL * norm
    v = np.eye(p).tolist()
    for sweeps in range(JACOBI_MAX_SWEEPS + 1):
        off = max((abs(a[i][j]) for i, j in upper), default=0.0)
        if off <= thresh:
            break
        if sweeps == JACOBI_MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"off-diagonal mass {off:.3e} above threshold {thresh:.3e} "
                f"after {sweeps} sweeps",
                sweeps=sweeps,
            )
        for i, j in upper:
            aij = a[i][j]
            if abs(aij) <= thresh:
                continue
            theta = (a[j][j] - a[i][i]) / (2.0 * aij)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            for row in a + v:  # columns i, j: A <- A J and V <- V J
                x, y = row[i], row[j]
                row[i] = x * c - y * s
                row[j] = x * s + y * c
            ai, aj = a[i], a[j]  # rows i, j: A <- J^T A
            a[i] = [c * x - s * y for x, y in zip(ai, aj)]
            a[j] = [s * x + c * y for x, y in zip(ai, aj)]

    # descending and stable, as argsort(-eigenvalues, kind="stable"); each
    # column times -1.0 where its first largest-magnitude entry is negative
    order = sorted(range(p), key=lambda i: -a[i][i])
    columns = []
    for i in order:
        col = [row[i] for row in v]
        sign = -1.0 if max(col, key=abs) < 0 else 1.0
        columns.append([x * sign for x in col])
    return SymEigen(np.array([a[i][i] for i in order]), np.array(columns).T)


def svd(data) -> SvdResult:
    """Thin SVD of a tall, full-column-rank matrix via the p x p Gram matrix.

    Singular values are the square roots of the Gram eigenvalues, V its
    eigenvectors, and U = Y V / d, whose U^T U departs from I by about
    eps * (d[0] / d[-1])^2: ~2e-4 at the rank bound.

    Raises:
        DimensionError: fewer rows than columns.
        InvalidInputError: rank deficient, the smallest Gram eigenvalue at or
            below RANK_TOL times the largest (d[-1] <= 1e-6 * d[0]; an
            all-zero matrix included).
    """
    y = check_matrix(data, "data")
    n, p = y.shape
    if n < p:
        raise DimensionError(f"svd requires rows >= cols, got {y.shape}")

    eig = sym_eigen(y.T @ y)
    d = np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    if eig.eigenvalues[-1] <= RANK_TOL * eig.eigenvalues[0]:
        raise InvalidInputError(
            f"matrix is rank deficient: singular values {d[0]:.3e} to {d[-1]:.3e}"
        )
    v = eig.eigenvectors
    return SvdResult(y @ v / d, d, v)
