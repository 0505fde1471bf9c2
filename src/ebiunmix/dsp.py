"""Framing, decimation, and second-order Butterworth low-pass filtering.

Operates on SignalMatrix values: immutable (n samples x p channels) blocks
with a sample rate and channel labels. All operations are pure; frames may
be processed concurrently by the caller.

apply_filter evaluates the biquad block by block from zero state, not sample
by sample. At the pipeline's settings (40 Hz at 100 Hz or 1 kHz) it matches
the difference equation to about 1e-15 relative to the output's peak.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FilterDesignError, FilterStabilityError, InvalidInputError
from .linalg import check_matrix, check_number

SQRT2 = math.sqrt(2.0)
# Samples per block of _biquad_pass. Each sample costs a _BLOCK-long dot
# product and each block one Python-level carry step; 32 and 128 were both
# slower than 64 on 10^3-sample calls, and the error does not grow with it.
_BLOCK = 64


@dataclass(frozen=True)
class SignalMatrix:
    """Multichannel time-series block: rows are samples, columns are channels."""

    samples: np.ndarray
    sample_rate_hz: float
    channel_labels: tuple = ()

    def __post_init__(self):
        a = check_matrix(self.samples, "samples").copy()
        a.flags.writeable = False
        check_number(self.sample_rate_hz, "sample_rate_hz")
        if not (0 < self.sample_rate_hz < math.inf):
            raise InvalidInputError(
                f"sample_rate_hz must be a finite number > 0, got {self.sample_rate_hz}"
            )
        labels = tuple(self.channel_labels) or tuple(f"ch{i + 1}" for i in range(a.shape[1]))
        if len(labels) != a.shape[1]:
            raise InvalidInputError(
                f"{len(labels)} labels for {a.shape[1]} channels"
            )
        object.__setattr__(self, "samples", a)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "channel_labels", labels)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    def times(self) -> np.ndarray:
        """Sample instants in seconds, starting at 0."""
        return np.arange(self.n_samples) / self.sample_rate_hz


@dataclass(frozen=True)
class BiquadCoefficients:
    """Normalized difference-equation coefficients (a0 = 1).

    y[k] = b0 x[k] + b1 x[k-1] + b2 x[k-2] - a1 y[k-1] - a2 y[k-2]
    """

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def __post_init__(self):
        vals = (self.b0, self.b1, self.b2, self.a1, self.a2)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidInputError("biquad coefficients must be finite")

    def pole_magnitudes(self) -> np.ndarray:
        return np.abs(np.roots([1.0, self.a1, self.a2]))

    def is_stable(self) -> bool:
        """Both poles strictly inside the unit circle (the stability triangle)."""
        return bool(abs(self.a2) < 1.0 and abs(self.a1) < 1.0 + self.a2)

    def dc_gain(self) -> float:
        return (self.b0 + self.b1 + self.b2) / (1.0 + self.a1 + self.a2)


def frame_signal(signal: SignalMatrix, frame_len: int) -> list[SignalMatrix]:
    """Split a signal into back-to-back frames; a trailing partial frame is dropped.

    Returns an empty list when frame_len exceeds the signal length.
    """
    if frame_len < 1:
        raise InvalidInputError(f"frame_len must be >= 1, got {frame_len}")
    return [
        SignalMatrix(
            signal.samples[start : start + frame_len],
            signal.sample_rate_hz,
            signal.channel_labels,
        )
        for start in range(0, signal.n_samples - frame_len + 1, frame_len)
    ]


def decimate(signal: SignalMatrix, factor: int) -> SignalMatrix:
    """Keep every factor-th sample starting at index 0; rate divides by factor."""
    if int(factor) != factor or factor < 1:
        raise InvalidInputError(f"decimation factor must be an integer >= 1, got {factor}")
    factor = int(factor)
    return SignalMatrix(
        signal.samples[::factor],
        signal.sample_rate_hz / factor,
        signal.channel_labels,
    )


def design_butterworth_lp2(cutoff_hz: float, sample_rate_hz: float) -> BiquadCoefficients:
    """Second-order low-pass Butterworth biquad via prewarped bilinear transform.

    Realizes the analog prototype H(s) = 1 / (s^2 + sqrt(2) s + 1) with
    prewarping K = tan(pi * cutoff / rate), so the magnitude response is
    exactly 1/sqrt(2) at the cutoff and exactly 1 at DC.

    Raises:
        FilterDesignError: rate not a finite number > 0, or cutoff not strictly
            between 0 and Nyquist.
    """
    try:
        check_number(sample_rate_hz, "sample_rate_hz")
    except InvalidInputError as exc:
        raise FilterDesignError(str(exc)) from None
    if not (0 < sample_rate_hz < math.inf):
        raise FilterDesignError(f"sample_rate_hz must be a finite number > 0, got {sample_rate_hz}")
    if not (0.0 < cutoff_hz < sample_rate_hz / 2.0):
        raise FilterDesignError(
            f"cutoff {cutoff_hz} Hz must lie strictly between 0 and "
            f"Nyquist ({sample_rate_hz / 2.0} Hz)"
        )
    k = math.tan(math.pi * cutoff_hz / sample_rate_hz)
    norm = 1.0 + SQRT2 * k + k * k
    coeffs = BiquadCoefficients(
        b0=k * k / norm,
        b1=2.0 * k * k / norm,
        b2=k * k / norm,
        a1=2.0 * (k * k - 1.0) / norm,
        a2=(1.0 - SQRT2 * k + k * k) / norm,
    )
    if not coeffs.is_stable():
        raise FilterDesignError("designed filter is unstable; parameters out of range")
    return coeffs


def frequency_response(coeffs: BiquadCoefficients, freqs_hz, sample_rate_hz: float) -> np.ndarray:
    """Complex response of the biquad at the given frequencies (Hz)."""
    z = np.exp(2j * np.pi * np.asarray(freqs_hz, dtype=float) / sample_rate_hz)
    num = coeffs.b0 + coeffs.b1 / z + coeffs.b2 / z**2
    den = 1.0 + coeffs.a1 / z + coeffs.a2 / z**2
    return num / den


def apply_filter(signal: SignalMatrix, coeffs: BiquadCoefficients) -> SignalMatrix:
    """Run the biquad difference equation over each channel, zero initial state.

    Raises:
        FilterStabilityError: coefficients with poles on/outside the unit circle.
    """
    if not coeffs.is_stable():
        raise FilterStabilityError(
            f"unstable biquad rejected (pole magnitudes {coeffs.pole_magnitudes()})"
        )
    y = _biquad_pass(signal.samples, coeffs)
    return SignalMatrix(y, signal.sample_rate_hz, signal.channel_labels)


def _biquad_pass(x: np.ndarray, c: BiquadCoefficients) -> np.ndarray:
    """Zero-state biquad over the columns of x, _BLOCK samples at a time.

    The numerator is three shifted array operations. The recursive part of
    each block is its zero-state response, a matmul with the lower-triangular
    Toeplitz matrix of the first _BLOCK taps h of 1 / (1 + a1 z^-1 + a2 z^-2),
    plus the response to the last two outputs of the previous block, which
    are h[t + 1] and -a2 h[t] per unit of y[-1] and y[-2].
    """
    n, p = x.shape
    m = -(-n // _BLOCK)
    v = np.zeros((m * _BLOCK, p))
    v[:n] = c.b0 * x
    v[1:n] += c.b1 * x[:-1]
    v[2:n] += c.b2 * x[:-2]
    h = np.empty(_BLOCK + 1)
    h[0], h[1] = 1.0, -c.a1
    for i in range(2, _BLOCK + 1):
        h[i] = -c.a1 * h[i - 1] - c.a2 * h[i - 2]
    toeplitz = np.tril(h[np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))])
    y = np.matmul(toeplitz, v.reshape(m, _BLOCK, p))
    g1, g2 = h[1:, None], -c.a2 * h[:-1, None]
    for k in range(1, m):
        y[k] += g1 * y[k - 1, -1] + g2 * y[k - 1, -2]
    return y.reshape(m * _BLOCK, p)[:n]
