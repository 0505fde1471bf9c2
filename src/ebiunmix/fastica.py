"""FastICA: fixed-point estimation of an unmixing matrix on whitened data.

Each unmixing vector w is driven to a maximum of non-Gaussianity by the
update

    w+ = E{x g(w.x)} - E{g'(w.x)} w

applied to all rows at once, each step followed by symmetric decorrelation
W <- (W W^T)^(-1/2) W, so every component is treated equally (Hyvarinen
1999, "Fast and robust fixed-point algorithms for ICA"), from a random
orthonormal start. (W W^T)^(-1/2) W is the orthogonal polar factor of W. At
k = 2, the size the default chain fits, it is taken in closed form (Higham
1986, "Computing the polar decomposition - with applications"). At every
other k, scaled Newton steps, which converge quadratically at any condition
number, bring the update near orthogonal, and Newton-Schulz steps, which
need only matrix products, polish it (Higham & Schreiber 1990, "Fast polar
decomposition of an arbitrary matrix"). At every k an update counts as
numerically singular when cond_F(W) = |W|_F |W^-1|_F exceeds 1e8.

The usual ICA sign/permutation ambiguity is canonicalized after
convergence: components are ordered by the signed score E{G(s)} - E{G(nu)},
G = log cosh and nu standard normal, highest first. A super-Gaussian
component (the cardiac pulse train) scores below zero, so it sorts after
near-Gaussian ones: the sign, not only the distance from Gaussian, sets the
order. Each component's sign is fixed so its skewness is nonnegative
(falling back to "largest-magnitude sample positive" when skewness is
negligible). Identical input and seed therefore give bit-identical results.
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
from .linalg import check_matrix, check_number, sym_eigen

# E[log cosh X] for X ~ N(0, 1); the test suite re-derives this by quadrature.
GAUSSIAN_LOGCOSH_MEAN = 0.3745672074914380

CONTRASTS = ("logcosh", "pow3")

_WHITENESS_TOL = 1e-3
_SKEWNESS_TOL = 1e-3
_ORTHONORMAL_TOL = 1e-14
# The rank test at every k: 1 / cond_F(W) = 1 / (|W|_F |W^-1|_F) must exceed
# it; at k = 2, |W^-1|_F = |W|_F / |det W|.
_MIN_INVERSE_COND = 1e-8
# The Newton phase hands over to Newton-Schulz after the step whose zeta is
# within this of 1 (see _scaled_newton for why that lands in its basin).
_NEWTON_HANDOVER = 0.2
# Guards only: up to cond_F(W) = 1e8 the Newton phase takes at most 5 steps
# and the polish at most 4.
_NEWTON_MAX_STEPS = 8
_NEWTON_SCHULZ_MAX_STEPS = 8


@dataclass(frozen=True)
class IcaConfig:
    contrast: str = "logcosh"
    max_iterations: int = 200
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_number(self.max_iterations, "max_iterations", integral=True, at_least=1)
        check_number(self.seed, "seed", integral=True, at_least=0)
        # the delta 1 - |<w+, w>| never exceeds 1
        check_number(self.tolerance, "tolerance", above=0, below=1)
        if self.contrast not in CONTRASTS:
            raise InvalidInputError(f"contrast must be one of {CONTRASTS}, got {self.contrast!r}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-fit diagnostic: converged iff final_delta < tolerance."""

    iterations_used: int
    final_delta: float
    converged: bool
    per_iteration_deltas: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class IcaModel:
    """Fitted unmixing matrix W; fit_fastica returns it k x k, rows orthonormal.

    mixing_estimate is the estimated mixing back to the original channel
    space (dewhitening composed with W^T) when the fit was given the
    dewhitening transform; otherwise it is W^T, the mixing within the
    whitened space itself.
    """

    unmixing: np.ndarray
    mixing_estimate: np.ndarray
    convergence: ConvergenceReport

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
    u2 = u * u  # pow3; IcaConfig admits no other name
    return u2 * u, 3.0 * u2


def _logcosh(u: np.ndarray) -> np.ndarray:
    # log(cosh(u)) without overflow for large |u|
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)


def _symmetric_decorrelate(w: np.ndarray) -> np.ndarray:
    """W <- (W W^T)^(-1/2) W: in closed form at k = 2, else by _scaled_newton.

    With W = [[a, b], [c, d]], sigma = sign(det W) and (p, q) = (a + sigma d,
    b - sigma c), the polar factor is [[p, q], [-sigma q, sigma p]] / |(p, q)|:
    the rotation (sigma = 1) or reflection (sigma = -1) nearest W. |(p, q)| is
    the sum of W's singular values, so the division loses no precision.

    Raises:
        DegenerateComponentError: W is not finite or numerically singular:
            1 / cond_F(W) is not above _MIN_INVERSE_COND, which at k = 2 reads
            |det W| / |W|_F^2. A W whose squared entries under- or overflow
            fails it too. component is the row of W nearest the span of the
            others, at k = 2 the shorter row.
    """
    if w.shape[0] != 2:
        return _scaled_newton(w)
    (a, b), (c, d) = w.tolist()
    det = a * d - b * c
    norm2 = a * a + b * b + c * c + d * d
    if not abs(det) > _MIN_INVERSE_COND * norm2:  # a NaN or infinite W fails it
        raise DegenerateComponentError(
            f"unmixing rows not orthonormal: 2 x 2 update numerically singular "
            f"(|det W| = {abs(det):.3e}, |W|_F^2 = {norm2:.3e})",
            component=int(c * c + d * d < a * a + b * b),  # the shorter row
        )
    sigma = 1.0 if det > 0 else -1.0
    p, q = a + sigma * d, b - sigma * c
    h = math.hypot(p, q)
    p, q = p / h, q / h
    return np.array([[p, q], [-sigma * q, sigma * p]])


def _scaled_newton(w: np.ndarray) -> np.ndarray:
    """W <- (W W^T)^(-1/2) W at any k: scaled Newton steps, then _newton_schulz.

    A step X <- (zeta X + X^-T / zeta) / 2, zeta = (|X^-1|_F / |X|_F)^(1/2),
    keeps the singular vectors and maps each singular value s to
    (zeta s + 1 / (zeta s)) / 2, so it converges quadratically at any
    condition number (Higham 1986). After one step every singular value is
    at least 1, hence zeta <= 1, and zeta >= 1 - _NEWTON_HANDOVER bounds the
    largest: at k <= 4 the step taken with that zeta leaves all of them in
    [1, 1.33], inside |X X^T - I|_2 < 1, where each Newton-Schulz step
    squares the error (Higham & Schreiber 1990). The first step never hands
    over: zeta is 1 for a W with singular values 1e4 and 1e-4 too. At larger
    k the bound loosens; _newton_schulz's scaling into (0, 1] keeps the
    polish convergent at any k.

    Raises:
        DegenerateComponentError: as _symmetric_decorrelate; the row of W
            nearest the span of the others is the column of W^-1 with the
            largest norm.
    """
    try:
        inv = np.linalg.inv(w)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        inv = np.full_like(w, np.nan)
    norm, inv_norm = math.sqrt(np.vdot(w, w)), math.sqrt(np.vdot(inv, inv))
    cond = norm * inv_norm
    if not 0.0 < _MIN_INVERSE_COND * cond < 1.0:  # 0 when |W|_F underflows; NaN fails
        k, unit = w.shape[0], inv / inv_norm
        raise DegenerateComponentError(
            f"unmixing rows not orthonormal: {k} x {k} update numerically singular "
            f"(|W|_F |W^-1|_F = {cond:.3e})",
            component=int(np.argmax((unit * unit).sum(axis=0))),
        )
    x = w
    for step in range(_NEWTON_MAX_STEPS):
        zeta = math.sqrt(inv_norm / norm)
        x = (0.5 * zeta) * x + (0.5 / zeta) * inv.T
        if step and abs(zeta - 1.0) <= _NEWTON_HANDOVER:
            break
        inv = np.linalg.inv(x)
        norm, inv_norm = math.sqrt(np.vdot(x, x)), math.sqrt(np.vdot(inv, inv))
    return _newton_schulz(x)


def _newton_schulz(w: np.ndarray) -> np.ndarray:
    """Polish a near-orthogonal W to (W W^T)^(-1/2) W by Newton-Schulz steps.

    W is divided by the square root of the largest row sum of |W W^T|, at
    least its largest singular value, so all singular values lie in (0, 1].
    Each step W <- 3/2 W - 1/2 W W^T W keeps the singular vectors and moves
    every singular value towards 1 (Hyvarinen & Oja 2000), until
    max |W W^T - I| <= _ORTHONORMAL_TOL.

    Raises:
        DegenerateComponentError: W is zero or not finite, or not
            orthonormal within the _NEWTON_SCHULZ_MAX_STEPS guard.
    """
    eye = np.eye(w.shape[0])
    wwt = w @ w.T
    scale = math.sqrt(np.abs(wwt).sum(axis=1).max())
    residual = eye - wwt
    if scale > 0:  # a NaN scale fails the test too
        w = w / scale
        for _ in range(_NEWTON_SCHULZ_MAX_STEPS):
            residual = eye - w @ w.T
            if np.abs(residual).max() <= _ORTHONORMAL_TOL:  # a NaN residual fails it
                return w
            w = w + 0.5 * residual @ w  # = 3/2 W - 1/2 W W^T W
    error = np.abs(residual).max(axis=1)
    raise DegenerateComponentError(
        f"unmixing rows not orthonormal within {_NEWTON_SCHULZ_MAX_STEPS} Newton-Schulz steps "
        f"(max |W W^T - I| = {error.max():.3e})",
        component=int(np.argmax(error)),
    )


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
        config: contrast, tolerance, iteration cap, seed.
        dewhitening: optional (k x p) transform back to channel space; when
            given, the model's mixing_estimate is expressed in that space.

    Non-convergence is not an error: the model is returned with
    convergence.converged = False so the caller can report it. An update
    that cannot be decorrelated (numerically rank-deficient, or not finite)
    ends the iteration early the same way, with the last orthonormal W.
    """
    x = check_matrix(white, "white")
    _check_white(x)
    n, k = x.shape

    a = np.random.default_rng(config.seed).standard_normal((k, k))
    w = sym_eigen(a + a.T).eigenvectors.T  # orthonormal by construction
    deltas = []
    for _ in range(config.max_iterations):
        g, g_prime = contrast_eval(config.contrast, x @ w.T)
        try:
            w_new = _symmetric_decorrelate((g.T @ x) / n - g_prime.mean(axis=0)[:, None] * w)
        except DegenerateComponentError:
            break  # keep the last orthonormal w; the report says not converged
        deltas.append(float(np.abs(1.0 - np.abs(np.sum(w_new * w, axis=1))).max()))
        w = w_new
        if deltas[-1] < config.tolerance:
            break
    final = deltas[-1] if deltas else 1.0  # 1.0: the first update already lost rank
    report = ConvergenceReport(
        iterations_used=len(deltas),
        final_delta=final,
        converged=final < config.tolerance,
        per_iteration_deltas=tuple(deltas),
    )
    w = _canonicalize(x, w)

    if dewhitening is None:
        mixing = w.T
    else:
        dw = check_matrix(dewhitening, "dewhitening")
        if dw.shape[0] != k:
            raise DimensionError(f"dewhitening must have {k} rows, got {dw.shape}")
        mixing = dw.T @ w.T
    return IcaModel(unmixing=w, mixing_estimate=mixing, convergence=report)


def _canonicalize(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Fix component order and signs (see module docstring)."""
    s = x @ w.T
    score = _logcosh(s).mean(axis=0) - GAUSSIAN_LOGCOSH_MEAN
    order = np.argsort(-score, kind="stable")
    s = s[:, order]
    s2 = s * s
    skew = np.mean(s2 * s, axis=0) / np.mean(s2, axis=0) ** 1.5
    peak = s[np.argmax(np.abs(s), axis=0), np.arange(s.shape[1])]
    flip = np.where(np.abs(skew) >= _SKEWNESS_TOL, skew < 0, peak < 0)
    return np.where(flip[:, None], -w[order], w[order])


def separate(model: IcaModel, white) -> np.ndarray:
    """Independent components S = white @ W^T (rows = samples)."""
    x = check_matrix(white, "white")
    k = model.n_components
    if x.shape[1] != k:
        raise DimensionError(f"white has {x.shape[1]} columns, unmixing expects {k}")
    return x @ model.unmixing.T
