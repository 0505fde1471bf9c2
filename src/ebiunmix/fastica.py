"""FastICA: fixed-point estimation of an unmixing matrix on whitened data.

Each unmixing vector w is driven to a maximum of non-Gaussianity by the
update

    w+ = E{x g(w.x)} - E{g'(w.x)} w

with either symmetric decorrelation of all rows after every update (the
default; all components are treated equally) or deflation (one component at
a time, Gram-Schmidt against those already found).

The usual ICA sign/permutation ambiguity is canonicalized after
convergence: components are ordered by descending non-Gaussianity score
E{G(s)} - E{G(nu)} with G = log cosh and nu standard normal, and each
component's sign is fixed so its skewness is nonnegative (falling back to
"largest-magnitude sample positive" when skewness is negligible). Identical
input and seed therefore give bit-identical results.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateComponentError,
    DimensionError,
    InvalidInputError,
    NonWhiteInputError,
)
from .linalg import check_matrix, sym_eigen

# E[log cosh X] for X ~ N(0, 1); the test suite re-derives this by quadrature.
GAUSSIAN_LOGCOSH_MEAN = 0.3745672074914380

CONTRASTS = ("logcosh", "pow3")
ORTHOGONALIZATIONS = ("symmetric", "deflation")

_WHITENESS_TOL = 1e-3
_SKEWNESS_TOL = 1e-3
_DECORRELATION_EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class IcaConfig:
    contrast: str = "logcosh"
    max_iterations: int = 200
    tolerance: float = 1e-6
    orthogonalization: str = "symmetric"
    seed: int = 0

    def __post_init__(self):
        if self.contrast not in CONTRASTS:
            raise InvalidInputError(f"contrast must be one of {CONTRASTS}, got {self.contrast!r}")
        if self.orthogonalization not in ORTHOGONALIZATIONS:
            raise InvalidInputError(
                f"orthogonalization must be one of {ORTHOGONALIZATIONS}, "
                f"got {self.orthogonalization!r}"
            )
        if self.max_iterations < 1:
            raise InvalidInputError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (self.tolerance > 0):
            raise InvalidInputError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-fit diagnostic: converged iff final_delta < tolerance."""

    iterations_used: int
    final_delta: float
    converged: bool
    per_iteration_deltas: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "iterations_used": self.iterations_used,
            "final_delta": self.final_delta,
            "converged": self.converged,
            "per_iteration_deltas": list(self.per_iteration_deltas),
        }


@dataclass(frozen=True)
class IcaModel:
    """Fitted unmixing matrix W (k x k, rows orthonormal in whitened space).

    mixing_estimate is the estimated mixing back to the original channel
    space (dewhitening composed with W^T) when the fit was given the
    dewhitening transform; otherwise it is W^T, the mixing within the
    whitened space itself.
    """

    unmixing: np.ndarray
    mixing_estimate: np.ndarray
    convergence: ConvergenceReport

    def __post_init__(self):
        w = check_matrix(self.unmixing, "unmixing")
        k = w.shape[0]
        if w.shape[1] != k:
            raise DimensionError(f"unmixing must be square, got {w.shape}")
        if np.abs(w @ w.T - np.eye(k)).max() > 1e-6:
            raise InvalidInputError("unmixing rows are not orthonormal within 1e-6")
        a = check_matrix(self.mixing_estimate, "mixing_estimate")
        if a.shape[1] != k:
            raise DimensionError(f"mixing_estimate must have {k} columns, got {a.shape}")
        object.__setattr__(self, "unmixing", w)
        object.__setattr__(self, "mixing_estimate", a)

    @property
    def n_components(self) -> int:
        return self.unmixing.shape[0]


def contrast_eval(contrast: str, u):
    """Contrast nonlinearity and its derivative, elementwise.

    logcosh: g = tanh(u), g' = 1 - tanh(u)^2 (derivative pair of log cosh).
    pow3:    g = u^3,     g' = 3 u^2.
    """
    if contrast == "logcosh":
        g = np.tanh(u)
        return g, 1.0 - g * g
    if contrast == "pow3":
        return u**3, 3.0 * u**2
    raise InvalidInputError(f"unknown contrast {contrast!r}")


def _logcosh(u: np.ndarray) -> np.ndarray:
    # log(cosh(u)) without overflow for large |u|
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)


def _symmetric_decorrelate(w: np.ndarray) -> np.ndarray:
    """W <- (W W^T)^(-1/2) W via spectral decomposition.

    An ill-conditioned update can leave round-off of order eps * cond after
    one pass, so the transform is repeated until the rows are orthonormal to
    near machine precision (a second pass always suffices: the input to it is
    already close to orthonormal).
    """
    k = w.shape[0]
    for _ in range(3):
        eig = sym_eigen(w @ w.T)
        if float(eig.eigenvalues[-1]) <= _DECORRELATION_EIGENVALUE_FLOOR:
            bad = int(np.argmin(eig.eigenvalues))
            raise DegenerateComponentError(
                f"unmixing update became rank-deficient (eigenvalue "
                f"{eig.eigenvalues[-1]:.3e})",
                component=bad,
            )
        v = eig.eigenvectors
        w = (v / np.sqrt(eig.eigenvalues)) @ v.T @ w
        if float(np.abs(w @ w.T - np.eye(k)).max()) <= 1e-12:
            break
    return w


def _check_white(x: np.ndarray) -> None:
    n, k = x.shape
    if n < 2:
        raise NonWhiteInputError("need at least 2 samples to verify whiteness")
    cov = x.T @ x / (n - 1)
    dev = float(np.abs(cov - np.eye(k)).max())
    if dev > _WHITENESS_TOL:
        raise NonWhiteInputError(
            f"input covariance deviates from identity by {dev:.3e} "
            f"(tolerance {_WHITENESS_TOL}); whiten the data first"
        )


def fit_fastica(white, config: IcaConfig = IcaConfig(), dewhitening=None) -> IcaModel:
    """Estimate the unmixing matrix of whitened data by fixed-point iteration.

    Args:
        white: (n x k) matrix with identity sample covariance (checked).
        config: contrast, tolerance, iteration cap, orthogonalization, seed.
        dewhitening: optional (k x p) transform back to channel space; when
            given, the model's mixing_estimate is expressed in that space.

    Non-convergence is not an error: the model is returned with
    convergence.converged = False so the caller can report it.
    """
    x = check_matrix(white, "white")
    _check_white(x)
    n, k = x.shape

    rng = np.random.default_rng(config.seed)
    w0 = _symmetric_decorrelate(rng.standard_normal((k, k)))

    if config.orthogonalization == "symmetric":
        w, report = _fit_symmetric(x, w0, config)
    else:
        w, report = _fit_deflation(x, w0, config)

    w = _canonicalize(x, w)

    if dewhitening is None:
        mixing = w.T
    else:
        dw = check_matrix(dewhitening, "dewhitening")
        if dw.shape[0] != k:
            raise DimensionError(f"dewhitening must have {k} rows, got {dw.shape}")
        mixing = dw.T @ w.T
    return IcaModel(unmixing=w, mixing_estimate=mixing, convergence=report)


def _update(x: np.ndarray, w: np.ndarray, contrast: str) -> np.ndarray:
    """One fixed-point step for every row of w at once."""
    n = x.shape[0]
    g, g_prime = contrast_eval(contrast, x @ w.T)
    return (g.T @ x) / n - g_prime.mean(axis=0)[:, None] * w


def _fit_symmetric(x, w, config) -> tuple[np.ndarray, ConvergenceReport]:
    deltas = []
    for _ in range(config.max_iterations):
        w_new = _symmetric_decorrelate(_update(x, w, config.contrast))
        delta = float(np.abs(1.0 - np.abs(np.sum(w_new * w, axis=1))).max())
        deltas.append(delta)
        w = w_new
        if delta < config.tolerance:
            break
    return w, ConvergenceReport(
        iterations_used=len(deltas),
        final_delta=deltas[-1],
        converged=deltas[-1] < config.tolerance,
        per_iteration_deltas=tuple(deltas),
    )


def _fit_deflation(x, w0, config) -> tuple[np.ndarray, ConvergenceReport]:
    k = w0.shape[0]
    n = x.shape[0]
    w = np.zeros((k, k))
    deltas = []
    finals = []
    for comp in range(k):
        wc = w0[comp].copy()
        for _ in range(config.max_iterations):
            g, g_prime = contrast_eval(config.contrast, x @ wc)
            wc_new = (x.T @ g) / n - g_prime.mean() * wc
            # Gram-Schmidt against components already extracted
            for prev in range(comp):
                wc_new -= (wc_new @ w[prev]) * w[prev]
            nrm = float(np.linalg.norm(wc_new))
            if nrm <= _DECORRELATION_EIGENVALUE_FLOOR:
                raise DegenerateComponentError(
                    f"deflation update vanished for component {comp}", component=comp
                )
            wc_new /= nrm
            delta = float(abs(1.0 - abs(wc_new @ wc)))
            deltas.append(delta)
            wc = wc_new
            if delta < config.tolerance:
                break
        finals.append(deltas[-1])
        w[comp] = wc
    final = max(finals)
    return w, ConvergenceReport(
        iterations_used=len(deltas),
        final_delta=final,
        converged=final < config.tolerance,
        per_iteration_deltas=tuple(deltas),
    )


def _canonicalize(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Fix component order and signs (see module docstring)."""
    s = x @ w.T
    score = _logcosh(s).mean(axis=0) - GAUSSIAN_LOGCOSH_MEAN
    order = np.argsort(-score, kind="stable")
    w = w[order]
    s = s[:, order]
    for i in range(w.shape[0]):
        col = s[:, i]
        var = float(np.mean(col * col))
        skew = float(np.mean(col**3)) / var**1.5 if var > 0 else 0.0
        if abs(skew) >= _SKEWNESS_TOL:
            flip = skew < 0
        else:
            flip = col[int(np.argmax(np.abs(col)))] < 0
        if flip:
            w[i] = -w[i]
    return w


def separate(model: IcaModel, white) -> np.ndarray:
    """Independent components S = white @ W^T (rows = samples)."""
    x = check_matrix(white, "white")
    k = model.n_components
    if x.shape[1] != k:
        raise DimensionError(f"white has {x.shape[1]} columns, unmixing expects {k}")
    return x @ model.unmixing.T
