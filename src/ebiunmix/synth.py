"""Ground-truth cardiac/respiratory sources and four-channel pseudo-EBI mixtures.

Stands in for a measured dataset so separation quality can be scored against
known sources. The cardiac source is a quasi-periodic train of Gaussian
volume-pulse bumps (fixed template, per-beat interval jitter); the
respiratory source is a small harmonic series. Both are returned zero-mean,
unit-variance. Mixing is a fixed full-column-rank channel matrix plus white
Gaussian noise.

`correlation_injection` amplitude-modulates the cardiac pulse train with the
respiratory signal. The modulation acts on the nonnegative physical pulse
waveform (the zero-baseline bump train), which is what makes the mixed
sources measurably correlated; modulating the zero-mean source would leave
the sample correlation at noise level.

All randomness flows from the explicit seed passed to each call; there is no
global random state.
"""

import math
import warnings

import numpy as np

from .dsp import SignalMatrix
from .errors import InvalidInputError
from .linalg import check_matrix, check_number, sym_eigen

CARDIAC_DEFAULT_HZ = 1.2
RESPIRATORY_DEFAULT_HZ = 0.25

# Gaussian bump with 60 ms full width at half maximum.
CARDIAC_BUMP_SIGMA_S = 0.060 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

DEFAULT_MIXING = (
    (1.0, 0.8),
    (0.6, 1.0),
    (0.9, -0.4),
    (-0.3, 1.1),
)


def _normalize(x: np.ndarray, source: str) -> np.ndarray:
    """x shifted and scaled to zero mean, unit variance.

    Raises:
        InvalidInputError: x is constant, so no scale gives it unit variance.
    """
    x = x - x.mean()
    sd = x.std()
    if sd == 0.0:
        raise InvalidInputError(
            f"the {source} source is constant over n={x.size} samples, so it cannot have "
            "unit variance"
        )
    return x / sd


def _check_source(n: int, rate_hz: float, fundamental_hz: float) -> None:
    check_number(n, "n", integral=True, at_least=1)
    check_number(rate_hz, "rate_hz", above=0, below=math.inf)
    check_number(fundamental_hz, "fundamental_hz", above=0, below=rate_hz / 2.0)  # below Nyquist


def gen_cardiac(n: int, rate_hz: float, seed, *, fundamental_hz: float = CARDIAC_DEFAULT_HZ,
                jitter_pct: float = 2.0) -> np.ndarray:
    """Quasi-periodic pulse train: one Gaussian bump per beat.

    Beat intervals are 1/fundamental scaled by (1 + u), u drawn uniformly in
    +-jitter_pct/100 per beat, so jitter_pct < 100 keeps every interval
    positive. Output is zero-mean unit-variance.

    Raises:
        InvalidInputError: a parameter out of range, or no beat's pulse
            reaches into the recording (the first beat falls at half a period).
    """
    _check_source(n, rate_hz, fundamental_hz)
    check_number(jitter_pct, "jitter_pct", at_least=0, below=100)
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate_hz
    sig = np.zeros(n)
    sigma = CARDIAC_BUMP_SIGMA_S
    period = 1.0 / fundamental_hz
    center = 0.5 * period
    end = n / rate_hz + 5.0 * sigma
    while center < end:
        lo = max(0, int((center - 5.0 * sigma) * rate_hz))
        hi = min(n, int((center + 5.0 * sigma) * rate_hz) + 1)
        if hi > lo:
            sig[lo:hi] += np.exp(-0.5 * ((t[lo:hi] - center) / sigma) ** 2)
        jitter = (jitter_pct / 100.0) * rng.uniform(-1.0, 1.0)
        center += period * (1.0 + jitter)
    return _normalize(sig, "cardiac")


def gen_respiratory(n: int, rate_hz: float, seed, *,
                    fundamental_hz: float = RESPIRATORY_DEFAULT_HZ,
                    harmonics: int = 3) -> np.ndarray:
    """Harmonic series: sinusoids at m * fundamental weighted 1/m, with
    seeded phases; zero-mean unit-variance. Harmonics at/above Nyquist are
    dropped with a warning.

    Raises:
        InvalidInputError: a parameter out of range, or n = 1, where the
            series is constant.
    """
    _check_source(n, rate_hz, fundamental_hz)
    check_number(harmonics, "harmonics", integral=True, at_least=1)
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate_hz
    sig = np.zeros(n)
    for m in range(1, harmonics + 1):
        freq = m * fundamental_hz
        phase = rng.uniform(0.0, 2.0 * math.pi)
        if freq >= rate_hz / 2.0:
            warnings.warn(
                f"harmonic {m} at {freq} Hz is at/above Nyquist; truncated", stacklevel=2
            )
            break
        sig += np.sin(2.0 * math.pi * freq * t + phase) / m
    return _normalize(sig, "respiratory")


def effective_sources(sources, correlation_injection: float) -> np.ndarray:
    """Sources as actually mixed, after correlation injection.

    Column 0 is taken as the cardiac source, column 1 as respiratory. With
    injection c > 0 the cardiac column is shifted to its nonnegative physical
    baseline, multiplied by (1 + c * respiratory), and re-centered.
    """
    s = check_matrix(sources, "sources")
    check_number(correlation_injection, "correlation_injection", at_least=0, below=1)
    c = correlation_injection
    if c <= 0.0 or s.shape[1] < 2:
        return s
    s = s.copy()
    pulse = s[:, 0] - s[:, 0].min()
    modulated = (1.0 + c * s[:, 1]) * pulse
    s[:, 0] = modulated - modulated.mean()
    return s


def mix(sources, mixing, seed, rate_hz: float = 1000.0, noise_sigma: float = 0.0) -> SignalMatrix:
    """Combine source columns into channels: sources @ mixing^T + noise.

    mixing is (channels x sources) with full column rank; the noise is iid
    Gaussian with noise_sigma, drawn from the given seed.
    """
    s = check_matrix(sources, "sources")
    a = check_matrix(mixing, "mixing")
    if a.shape[1] > a.shape[0]:
        raise InvalidInputError(f"mixing needs at least as many channels as sources, got {a.shape}")
    sv = np.sqrt(np.clip(sym_eigen(a.T @ a).eigenvalues, 0, None))
    if sv[-1] <= 1e-6 * sv[0]:
        raise InvalidInputError(
            f"mixing matrix is rank deficient: singular values {sv[0]:.3e} to {sv[-1]:.3e}"
        )
    check_number(noise_sigma, "noise_sigma", at_least=0, below=math.inf)
    if a.shape[1] != s.shape[1]:
        raise InvalidInputError(f"mixing expects {a.shape[1]} sources, got {s.shape[1]}")
    channels = s @ a.T
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        channels = channels + noise_sigma * rng.standard_normal(channels.shape)
    return SignalMatrix(channels, rate_hz)


def default_scenario(
    n: int = 25000,
    rate_hz: float = 1000.0,
    seed: int = 0,
    noise_sigma: float = 0.05,
    correlation_injection: float = 0.0,
    cardiac_hz: float = CARDIAC_DEFAULT_HZ,
    jitter_pct: float = 2.0,
    resp_hz: float = RESPIRATORY_DEFAULT_HZ,
    harmonics: int = 3,
    mixing=None,
) -> tuple[SignalMatrix, SignalMatrix]:
    """Generate a four-channel mixture plus its ground-truth source pair.

    cardiac_hz and jitter_pct go to gen_cardiac, resp_hz and harmonics to
    gen_respiratory; mixing defaults to DEFAULT_MIXING.

    Returns:
        (mixture, truth): mixture has one channel per mixing row; truth holds
        the two sources exactly as mixed (so a perfect unmixer scores
        correlation 1 against it), labeled "cardiac" and "respiratory".
    """
    check_number(seed, "seed", integral=True, at_least=0)
    seed_cardiac, seed_resp, seed_noise = np.random.SeedSequence(seed).spawn(3)
    sources = effective_sources(np.column_stack([
        gen_cardiac(n, rate_hz, seed_cardiac, fundamental_hz=cardiac_hz, jitter_pct=jitter_pct),
        gen_respiratory(n, rate_hz, seed_resp, fundamental_hz=resp_hz, harmonics=harmonics),
    ]), correlation_injection)
    mixture = mix(sources, DEFAULT_MIXING if mixing is None else mixing, seed_noise, rate_hz,
                  noise_sigma)
    return mixture, SignalMatrix(sources, rate_hz, ("cardiac", "respiratory"))
