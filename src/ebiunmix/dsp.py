"""Framing, decimation, and second-order Butterworth low-pass filtering.

Operates on SignalMatrix values: immutable (n samples x p channels) blocks
with a sample rate and channel labels. All operations are pure; frames may
be processed concurrently by the caller.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FilterDesignError, FilterStabilityError, InvalidInputError
from .linalg import check_matrix

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SignalMatrix:
    """Multichannel time-series block: rows are samples, columns are channels."""

    samples: np.ndarray
    sample_rate_hz: float
    channel_labels: tuple = ()

    def __post_init__(self):
        a = check_matrix(self.samples, "samples").copy()
        a.flags.writeable = False
        if not (self.sample_rate_hz > 0):
            raise InvalidInputError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
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
        return bool(np.all(self.pole_magnitudes() < 1.0))

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
        FilterDesignError: cutoff not strictly between 0 and Nyquist.
    """
    if not (sample_rate_hz > 0):
        raise FilterDesignError(f"sample_rate_hz must be > 0, got {sample_rate_hz}")
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
    y = np.empty_like(x)
    p = x.shape[1]
    x1 = np.zeros(p)
    x2 = np.zeros(p)
    y1 = np.zeros(p)
    y2 = np.zeros(p)
    for t in range(x.shape[0]):
        xt = x[t]
        yt = c.b0 * xt + c.b1 * x1 + c.b2 * x2 - c.a1 * y1 - c.a2 * y2
        y[t] = yt
        x2, x1 = x1, xt
        y2, y1 = y1, yt
    return y
