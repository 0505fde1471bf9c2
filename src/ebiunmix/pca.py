"""Principal component analysis: fit, project, reduce dimension, whiten.

fit_pca centers the columns, forms the sample covariance (1/(n-1)) X^T X
and solves that p x p symmetric eigenproblem, which is the cheap direction
when n >> p; the SVD route exists in linalg and is cross-checked against
this one in the test suite.

The means are linalg.sample_mean's: each column summed sequentially in
sample order, the bits of numpy's x.mean(axis=0) on C-ordered input (and
on the strided rows decimate returns); a single channel or F-ordered input
goes to x.mean(axis=0) itself, whose sum is pairwise there. The
eigenvalue clamp and whiten's near-zero test (both at linalg.RANK_TOL, the
one numerical-rank rule) and explained_variance's sums run on Python floats
with numpy's bits (see the linalg module docstring).

fit_pca, project and whiten take their data by dsp's one rule for sample
data (dsp._samples): a SignalMatrix as checked when it was built, any other
array through check_matrix.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import _samples
from .errors import (
    DegenerateComponentError,
    DimensionError,
    InsufficientDataError,
    InvalidInputError,
)
from .linalg import RANK_TOL, sample_mean, short_sum, sym_eigen


@dataclass(frozen=True)
class PcaModel:
    """Fitted principal components.

    fit_pca returns orthonormal loadings columns, the covariance
    eigenvectors in descending eigenvalue order; eigenvalues are the
    per-component score variances, nonnegative.
    """

    means: np.ndarray
    loadings: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_channels(self) -> int:
        return self.loadings.shape[0]


def _check_k(model: PcaModel, k: int, x: np.ndarray | None = None) -> None:
    """Reject k outside [1, p], and samples x whose channel count is not the model's p."""
    p = model.n_channels
    if not (1 <= k <= p):
        raise DimensionError(f"k must be in [1, {p}], got {k}")
    if x is not None and x.shape[1] != p:
        raise DimensionError(f"data has {x.shape[1]} channels, model has {p}")


def _check_sample_count(n: int, p: int, counted: str = "{} samples") -> None:
    """fit_pca's rule, n >= max(p, 2); counted.format(n) opens the refusal."""
    if n < max(p, 2):
        need = f"the {p} channels" if p > 1 else "the 2 that PCA needs"
        raise InsufficientDataError(f"{counted.format(n)}, fewer than {need}")


def _check_whiten_count(n: int, k: int, counted: str = "{} samples") -> None:
    """whiten's rule, n >= k + 1: centred, n samples span at most n - 1
    directions; counted.format(n) opens the refusal."""
    if n <= k:
        raise InsufficientDataError(
            f"{counted.format(n)}, fewer than the {k + 1} that whitening {k} components needs"
        )


def fit_pca(data) -> PcaModel:
    """Fit principal components from the sample covariance of `data`, a
    SignalMatrix or (n x p) array with n >= max(p, 2)."""
    x = _samples(data, "data")
    n, p = x.shape
    _check_sample_count(n, p)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails sym_eigen's check
        means = sample_mean(x)
        centered = x - means
        cov = centered.T @ centered / (n - 1)
    eig = sym_eigen(cov)  # sym_eigen symmetrises

    lam = eig.eigenvalues.tolist()  # descending: the last is the least
    floor = -RANK_TOL * max(1.0, lam[0])
    if lam[-1] < floor:
        raise InvalidInputError(f"covariance produced eigenvalue {lam[-1]:.3e} below clamp range")
    clamped = np.array([0.0 if x <= 0.0 else x for x in lam])  # as np.clip: -0.0 becomes 0.0
    return PcaModel(means=means, loadings=eig.eigenvectors, eigenvalues=clamped)


def project(model: PcaModel, data, k: int) -> np.ndarray:
    """Scores on the first k components: (data - means) @ loadings[:, :k]."""
    x = _samples(data, "data")
    _check_k(model, k, x)
    return (x - model.means) @ model.loadings[:, :k]


def whiten(model: PcaModel, data, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce to k dimensions and scale scores to unit variance.

    Returns:
        (white, whitening, dewhitening): white = (data - means) @ whitening
        has identity sample covariance; white @ dewhitening + means is the
        rank-k approximation of the data.

    Raises:
        InsufficientDataError: data has k or fewer samples, too few for an
            identity covariance in k dimensions.
        DegenerateComponentError: a retained eigenvalue is numerically zero.
    """
    x = _samples(data, "data")
    _check_k(model, k, x)
    _check_whiten_count(x.shape[0], k)
    lam = model.eigenvalues.tolist()
    cutoff = RANK_TOL * max(lam[0], 0.0)
    bad = next((i for i in range(k) if lam[i] <= cutoff), None)
    if bad is not None:
        raise DegenerateComponentError(
            f"component {bad} has near-zero variance ({lam[bad]:.3e}); "
            f"reduce k or drop the degenerate channel",
            component=bad,
        )
    scale = np.sqrt(model.eigenvalues[:k])
    whitening = model.loadings[:, :k] / scale
    dewhitening = scale[:, None] * model.loadings[:, :k].T
    white = (x - model.means) @ whitening
    return white, whitening, dewhitening


def explained_variance(model: PcaModel, k: int) -> float:
    """Fraction of total variance carried by the first k components."""
    _check_k(model, k)
    lam = model.eigenvalues.tolist()
    total = short_sum(lam)
    if total <= 0.0:
        return 1.0
    return short_sum(lam[:k]) / total
