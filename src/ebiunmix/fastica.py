"""FastICA: fixed-point estimation of an unmixing matrix on whitened data.

Each unmixing vector w is driven to a maximum of non-Gaussianity by the
update

    w+ = E{x g(w.x)} - E{g'(w.x)} w

applied to all rows at once, each step followed by symmetric decorrelation
W <- (W W^T)^(-1/2) W, so every component is treated equally (Hyvarinen
1999, "Fast and robust fixed-point algorithms for ICA"), from a random
orthonormal start. (W W^T)^(-1/2) W is the orthogonal polar factor U V^T of
the SVD W = U diag(s) V^T (Higham 1986, "Computing the polar decomposition -
with applications"). At k = 2, the size the default chain fits, it is taken
in closed form; at every other k from one LAPACK SVD, refined by one
first-order correction to rounding level. At every k an update is refused
(the decorrelation returns None and the fit stops) when cond_F(W) =
|W|_F |W^-1|_F exceeds 1e8; an update with an infinite or NaN entry is
refused before the SVD, which can fail to return on an infinite one.

The usual ICA sign/permutation ambiguity is canonicalized after
convergence: components are ordered by the signed score E{G(s)} - E{G(nu)},
G = log cosh and nu standard normal, highest first. A super-Gaussian
component (the cardiac pulse train) scores below zero, so it sorts after
near-Gaussian ones: the sign, not only the distance from Gaussian, sets the
order. Each component's sign is fixed so its skewness is nonnegative
(falling back to "largest-magnitude sample positive" when skewness is
negligible). Identical input and seed therefore give bit-identical results.

Which fits run to the iteration cap rests on their last bits, so every
sample-axis statistic keeps one summation order: linalg.sample_mean sums
each column sequentially in sample order, the bits of numpy's axis-0 mean
on C-ordered input, and hands a single column (k = 1) or F-ordered input to
that mean itself, which sums pairwise there. x @ W^T takes W^T as a C-order
copy, which BLAS multiplies faster than the transposed view, with equal
bits for n >= 2; separate keeps the view, since a single-row x is
multiplied in another order with the copy.

The k-sized work runs on Python floats with numpy's bits (the linalg module
docstring has the rule): the whiteness deviation, each step's delta
max|1 - |<w+, w>||, whose k-term dot products go through linalg.short_sum
(numpy's pairwise sum from 8 terms on), and the canonical order, skew test
and sign flips, taken from the k moments of the unpermuted components.

fit_fastica and separate take white by dsp's one rule for sample data
(dsp._samples): a SignalMatrix as checked when it was built, any other
array through check_matrix. The dewhitening matrix is always checked.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dsp import _samples
from .errors import DimensionError, InvalidInputError, NonWhiteInputError
from .linalg import check_matrix, check_number, sample_mean, short_sum, sym_eigen

# E[log cosh X] for X ~ N(0, 1); the test suite re-derives this by quadrature.
GAUSSIAN_LOGCOSH_MEAN = 0.3745672074914380

CONTRASTS = ("logcosh", "pow3")

_WHITENESS_TOL = 1e-3
_SKEWNESS_TOL = 1e-3
# The rank test at every k: 1 / cond_F(W) = 1 / (|W|_F |W^-1|_F) must exceed
# it; at k = 2, |W^-1|_F = |W|_F / |det W|.
_MIN_INVERSE_COND = 1e-8


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


def _symmetric_decorrelate(w: np.ndarray) -> np.ndarray | None:
    """W <- (W W^T)^(-1/2) W: in closed form at k = 2, else by _polar_svd.

    With W = [[a, b], [c, d]], sigma = sign(det W) and (p, q) = (a + sigma d,
    b - sigma c), the polar factor is [[p, q], [-sigma q, sigma p]] / |(p, q)|:
    the rotation (sigma = 1) or reflection (sigma = -1) nearest W. |(p, q)| is
    the sum of W's singular values, so the division loses no precision.

    Returns None when 1 / cond_F(W) is not above _MIN_INVERSE_COND, which at
    k = 2 reads |det W| / |W|_F^2; a zero singular value, a NaN or infinite
    entry, or squared entries that under- or overflow all fail it.
    """
    if w.shape[0] != 2:
        return _polar_svd(w)
    (a, b), (c, d) = w.tolist()
    det = a * d - b * c
    norm2 = a * a + b * b + c * c + d * d
    if not abs(det) > _MIN_INVERSE_COND * norm2:  # a NaN or infinite W fails it
        return None
    sigma = 1.0 if det > 0 else -1.0
    p, q = a + sigma * d, b - sigma * c
    h = math.hypot(p, q)
    p, q = p / h, q / h
    return np.array([[p, q], [-sigma * q, sigma * p]])


def _polar_svd(w: np.ndarray) -> np.ndarray | None:
    """W <- (W W^T)^(-1/2) W at any k: the polar factor from one SVD W = U diag(s) V^T.

    U V^T alone is as accurate as the SVD's normwise backward error allows:
    off by up to about eps |W| / (s_i + s_j), 3e-13 at cond(W) = 1e4. One
    correction step takes it to rounding level: the polar factor is
    U (I + Omega) V^T with Omega skew, and to first order (C - C^T)_ij =
    Omega_ij (s_i + s_j), C = U^T W V. W V is formed in long double, since
    its columns for small s_j cancel; where long double is plain double the
    step still runs, with less gain.

    Returns None as _symmetric_decorrelate does, with cond_F(W) =
    (sum s^2 sum s^-2)^(1/2), or when |W|_F^2 is not finite: such a W never
    reaches the SVD, which can fail to return on an infinite entry.
    """
    if not math.isfinite(np.vdot(w, w)):
        return None
    u, s, vt = np.linalg.svd(w)
    sv = s.tolist()  # Python floats: 1 / x overflows to inf without a warning
    if not sv[-1] > 0.0:  # s is descending
        return None
    cond = math.sqrt(sum(x * x for x in sv) * sum(1.0 / x / x for x in sv))
    if not _MIN_INVERSE_COND * cond < 1.0:  # NaN (0 * inf) when |W|_F^2 underflows
        return None
    c = u.T @ np.matmul(w, vt.T, dtype=np.longdouble).astype(float)
    return (u + u @ ((c - c.T) / (s[:, None] + s))) @ vt


def _check_white(x: np.ndarray) -> None:
    n = x.shape[0]
    if n < 2:
        raise NonWhiteInputError("need at least 2 samples to verify whiteness")
    cov = (x.T @ x / (n - 1)).tolist()
    dev = max(abs(c - 1.0 if i == j else c) for i, row in enumerate(cov) for j, c in enumerate(row))
    if dev > _WHITENESS_TOL:
        raise NonWhiteInputError(
            f"input covariance deviates from identity by {dev:.3e} "
            f"(tolerance {_WHITENESS_TOL}); whiten the data first"
        )


def fit_fastica(white, config: IcaConfig = IcaConfig(), dewhitening=None) -> IcaModel:
    """Estimate the unmixing matrix of whitened data by fixed-point iteration.

    Args:
        white: SignalMatrix or (n x k) array with identity sample covariance
            (checked).
        config: contrast, tolerance, iteration cap, seed.
        dewhitening: optional (k x p) transform back to channel space; when
            given, the model's mixing_estimate is expressed in that space.

    Non-convergence is not an error: the model is returned with
    convergence.converged = False so the caller can report it. An update
    that _symmetric_decorrelate refuses (numerically rank-deficient, or not
    finite: it returns None) ends the iteration early the same way, with the
    last orthonormal W.
    """
    x = _samples(white, "white")
    _check_white(x)
    n, k = x.shape

    a = np.random.default_rng(config.seed).standard_normal((k, k))
    w = sym_eigen(a + a.T).eigenvectors.T  # orthonormal by construction
    deltas = []
    for _ in range(config.max_iterations):
        g, g_prime = contrast_eval(config.contrast, x @ w.T.copy())
        w_new = _symmetric_decorrelate((g.T @ x) / n - sample_mean(g_prime)[:, None] * w)
        if w_new is None:
            break  # keep the last orthonormal w; the report says not converged
        deltas.append(max(abs(1.0 - abs(short_sum([a * b for a, b in zip(r_new, r)])))
                          for r_new, r in zip(w_new.tolist(), w.tolist())))
        w = w_new
        if deltas[-1] < config.tolerance:
            break
    final = deltas[-1] if deltas else 1.0  # 1.0: the first update was refused
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
    s = x @ w.T.copy()
    s2 = s * s
    score = (sample_mean(_logcosh(s)) - GAUSSIAN_LOGCOSH_MEAN).tolist()
    skew = (sample_mean(s2 * s) / sample_mean(s2) ** 1.5).tolist()
    rows = w.tolist()
    out = []
    for i in sorted(range(len(rows)), key=lambda i: -score[i]):  # as a stable argsort
        if abs(skew[i]) >= _SKEWNESS_TOL:
            flip = skew[i] < 0
        else:  # the first largest-magnitude sample decides
            flip = s[np.argmax(np.abs(s[:, i])), i] < 0
        out.append([-v for v in rows[i]] if flip else rows[i])
    return np.array(out)


def separate(model: IcaModel, white) -> np.ndarray:
    """Independent components S = white @ W^T (rows = samples)."""
    x = _samples(white, "white")
    k = model.n_components
    if x.shape[1] != k:
        raise DimensionError(f"white has {x.shape[1]} columns, unmixing expects {k}")
    return x @ model.unmixing.T
