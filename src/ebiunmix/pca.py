"""Principal component analysis: fit, project, reduce dimension, whiten.

The fit route is the covariance path (p x p symmetric eigenproblem), which
is the cheap direction when n >> p; the SVD route exists in linalg and is
cross-checked against this one in the test suite.

The default retained dimension is 2 (one cardiac and one respiratory target
source); callers can override it.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import SignalMatrix
from .errors import (
    DegenerateComponentError,
    DimensionError,
    InsufficientDataError,
    InvalidInputError,
)
from .linalg import center_columns, check_matrix, covariance, sym_eigen

DEFAULT_RETAINED = 2

# Eigenvalues this far below zero (relative to the largest) are floating-point
# noise and are clamped to 0; anything more negative indicates a broken input.
_EIGENVALUE_CLAMP = 1e-12


@dataclass(frozen=True)
class PcaModel:
    """Fitted principal components.

    fit_pca returns orthonormal loadings columns, the covariance
    eigenvectors in descending eigenvalue order; eigenvalues are the
    per-component score variances, nonnegative; 1 <= retained <= p.
    """

    means: np.ndarray
    loadings: np.ndarray
    eigenvalues: np.ndarray
    retained: int

    @property
    def n_channels(self) -> int:
        return self.loadings.shape[0]


def _samples(data) -> np.ndarray:
    if isinstance(data, SignalMatrix):
        return data.samples
    return check_matrix(data, "data")


def fit_pca(data, retained: int | None = None) -> PcaModel:
    """Fit principal components from the sample covariance of `data`.

    Args:
        data: SignalMatrix or (n x p) array, n >= p.
        retained: dimension to keep; defaults to min(2, p).
    """
    x = _samples(data)
    n, p = x.shape
    if n < p:
        raise InsufficientDataError(f"need at least as many samples as channels, got {x.shape}")
    centered, means = center_columns(x)
    eig = sym_eigen(covariance(centered))

    lam = eig.eigenvalues
    floor = -_EIGENVALUE_CLAMP * max(1.0, float(lam[0]))
    if np.any(lam < floor):
        raise InvalidInputError(f"covariance produced eigenvalue {lam.min():.3e} below clamp range")
    lam = np.clip(lam, 0.0, None)

    if retained is not None:
        if not (1 <= retained <= p):
            raise DimensionError(f"retained must be in [1, {p}], got {retained}")
        k = int(retained)
    else:
        k = min(DEFAULT_RETAINED, p)
    return PcaModel(means=means, loadings=eig.eigenvectors, eigenvalues=lam, retained=k)


def project(model: PcaModel, data, k: int) -> np.ndarray:
    """Scores on the first k components: (data - means) @ loadings[:, :k]."""
    x = _samples(data)
    if not (1 <= k <= model.n_channels):
        raise DimensionError(f"k must be in [1, {model.n_channels}], got {k}")
    if x.shape[1] != model.n_channels:
        raise DimensionError(f"data has {x.shape[1]} channels, model has {model.n_channels}")
    return (x - model.means) @ model.loadings[:, :k]


def whiten(model: PcaModel, data, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce to k dimensions and scale scores to unit variance.

    Returns:
        (white, whitening, dewhitening): white = (data - means) @ whitening
        has identity sample covariance; white @ dewhitening + means is the
        rank-k reconstruction of the data.

    Raises:
        DegenerateComponentError: a retained eigenvalue is numerically zero.
    """
    x = _samples(data)
    if not (1 <= k <= model.n_channels):
        raise DimensionError(f"k must be in [1, {model.n_channels}], got {k}")
    if x.shape[1] != model.n_channels:
        raise DimensionError(f"data has {x.shape[1]} channels, model has {model.n_channels}")
    lam = model.eigenvalues[:k]
    cutoff = _EIGENVALUE_CLAMP * max(float(model.eigenvalues[0]), 0.0)
    bad = np.flatnonzero(lam <= cutoff)
    if bad.size:
        raise DegenerateComponentError(
            f"component {bad[0]} has near-zero variance ({lam[bad[0]]:.3e}); "
            f"reduce k or drop the degenerate channel",
            component=int(bad[0]),
        )
    scale = np.sqrt(lam)
    whitening = model.loadings[:, :k] / scale
    dewhitening = scale[:, None] * model.loadings[:, :k].T
    white = (x - model.means) @ whitening
    return white, whitening, dewhitening


def explained_variance(model: PcaModel, k: int) -> float:
    """Fraction of total variance carried by the first k components."""
    if not (1 <= k <= model.n_channels):
        raise DimensionError(f"k must be in [1, {model.n_channels}], got {k}")
    total = float(model.eigenvalues.sum())
    if total <= 0.0:
        return 1.0
    return float(model.eigenvalues[:k].sum()) / total
