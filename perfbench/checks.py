"""Output checks computed apart from ebiunmix, with numpy and scipy only.

Each check returns None when the output passes and a one-line reason when it
does not. None of them reads a stored copy of earlier output: the reference
is recomputed from the inputs (scipy's lfilter, numpy's eigvalsh,
corrcoef, loadtxt and rfft) or is a property the method guarantees
(white components, orthonormal unmixing, exact reconstruction, canonical
order).
"""

import itertools
import math

import numpy as np

SEPARATION_FLOOR = 0.95  # matched |rho| each component must reach
FILTER_RTOL = 1e-12
EIGEN_RTOL = 1e-9
WHITE_TOL = 1e-6
ORTHONORMAL_TOL = 1e-6
RECONSTRUCT_RTOL = 1e-9
PERIODOGRAM_RTOL = 1e-12
SKEW_TOL = 1e-3  # below this |skew| the sign rule falls back to the largest sample


def check_filter(x, b, a, y):
    """y must equal scipy.signal.lfilter(b, a, x) from zero state."""
    from scipy.signal import lfilter

    ref = lfilter(b, a, x, axis=0)
    if y.shape != ref.shape:
        return f"filter output shape {y.shape}, expected {ref.shape}"
    scale = max(float(np.abs(ref).max()), np.finfo(float).tiny)
    err = float(np.abs(y - ref).max()) / scale
    if not err <= FILTER_RTOL:
        return f"filter output differs from lfilter by {err:.3e} relative"
    return None


def check_pca_eigenvalues(x, eigenvalues):
    """PCA eigenvalues must equal eigvalsh of the sample covariance (1/(n-1))."""
    ref = np.sort(np.linalg.eigvalsh(np.cov(x, rowvar=False)))[::-1]
    got = np.asarray(eigenvalues, dtype=float)
    if got.shape != ref.shape:
        return f"{got.size} eigenvalues, expected {ref.size}"
    err = float(np.abs(got - ref).max()) / float(ref[0])
    if not err <= EIGEN_RTOL:
        return f"PCA eigenvalues differ from eigvalsh by {err:.3e} relative"
    return None


def check_white(components):
    """Component sample covariance must be the identity."""
    cov = np.atleast_2d(np.cov(components, rowvar=False))
    dev = float(np.abs(cov - np.eye(cov.shape[0])).max())
    if not dev <= WHITE_TOL:
        return f"component covariance deviates from identity by {dev:.3e}"
    return None


def check_orthonormal(w):
    w = np.asarray(w, dtype=float)
    dev = float(np.abs(w @ w.T - np.eye(w.shape[0])).max())
    if not dev <= ORTHONORMAL_TOL:
        return f"unmixing rows deviate from orthonormal by {dev:.3e}"
    return None


def frame_truth(truth, frame_len, factor):
    """Truth sources framed and decimated the way the pipeline frames input."""
    n_frames = truth.shape[0] // frame_len
    return [truth[k * frame_len:(k + 1) * frame_len:factor] for k in range(n_frames)]


def matched_abs_rho(components, truth):
    """|rho| of each truth source with the component assigned to it.

    The assignment maximises the summed |rho| over every injective map of
    truth sources to components (at most 4 components, so exhaustive).
    """
    k, m = components.shape[1], truth.shape[1]
    corr = np.abs(np.corrcoef(components, truth, rowvar=False)[:k, k:])
    best = max(
        itertools.permutations(range(k), m),
        key=lambda comps: sum(corr[c, j] for j, c in enumerate(comps)),
    )
    return [float(corr[c, j]) for j, c in enumerate(best)]


def check_separation(rhos):
    worst = min(rhos)
    if not worst >= SEPARATION_FLOOR:
        return f"matched |rho| {worst:.4f} below {SEPARATION_FLOOR}"
    return None


def check_reconstruction(sources, mixing, x):
    """sources @ mixing.T must rebuild the centred preprocessed frame."""
    centred = x - x.mean(axis=0)
    err = float(np.abs(sources @ mixing.T - centred).max()) / float(np.abs(centred).max())
    if not err <= RECONSTRUCT_RTOL:
        return f"S @ A_est.T misses the centred frame by {err:.3e} relative"
    return None


def _logcosh(u):
    return np.logaddexp(u, -u) - math.log(2.0)


def check_canonical_order(sources):
    """Descending mean log cosh; each component skewed nonnegative.

    The Gaussian reference E{G(nu)} shifts every score equally, so the order
    of mean log cosh is the order of non-Gaussianity.
    """
    score = _logcosh(sources).mean(axis=0)
    if np.any(np.diff(score) > 0):
        return f"components not in descending non-Gaussianity: {np.round(score, 6).tolist()}"
    for i in range(sources.shape[1]):
        s = sources[:, i]
        var = float(np.mean(s * s))
        skew = float(np.mean(s**3)) / var**1.5
        if abs(skew) >= SKEW_TOL:
            if skew < 0:
                return f"component {i} has negative skew {skew:.4f}"
        elif s[int(np.argmax(np.abs(s)))] < 0:
            return f"component {i} has near-zero skew and a negative largest sample"
    return None


def load_csv(path):
    """(rate_hz or None, labels, samples) of a CSV the CLI wrote, via loadtxt."""
    rate = None
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first.startswith("#"):
            rate = float(first.split("=", 1)[1])
            header = fh.readline()
        else:
            header = first
    skip = 2 if rate is not None else 1
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return rate, header.strip().split(","), data


def check_csv_equals(path, expected):
    """The CSV's data rows must read back as `expected`, bit for bit."""
    _, _, data = load_csv(path)
    if data.shape != expected.shape:
        return f"{path.name}: shape {data.shape}, expected {expected.shape}"
    if not np.array_equal(data, expected):
        bad = int(np.count_nonzero(data != expected))
        return f"{path.name}: {bad} cells differ from the generated samples"
    return None


def check_periodogram(components_path, periodogram_path):
    """Periodogram CSV must equal |rfft|^2 / n of its components CSV."""
    rate, _, comp = load_csv(components_path)
    _, _, pg = load_csv(periodogram_path)
    x = comp[:, 1:]  # drop time_s
    n = x.shape[0]
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    power = np.abs(np.fft.rfft(x, axis=0)) ** 2 / n
    if pg.shape != (freqs.size, 1 + x.shape[1]):
        return f"{periodogram_path.name}: shape {pg.shape}, expected {(freqs.size, 1 + x.shape[1])}"
    if not np.array_equal(pg[:, 0], freqs):
        return f"{periodogram_path.name}: frequency column differs from rfftfreq"
    err = float(np.abs(pg[:, 1:] - power).max()) / float(power.max())
    if not err <= PERIODOGRAM_RTOL:
        return f"{periodogram_path.name}: power differs from rfft by {err:.3e} relative"
    return None
