"""Framing, decimation, and second-order Butterworth low-pass filtering.

Operates on SignalMatrix values: immutable (n samples x p channels) blocks
with a sample rate and channel labels. All operations are pure; frames may
be processed concurrently by the caller.

Caller input is validated and copied once, when a SignalMatrix is built from
it. That is the package's one rule for sample data, stated by _samples and
read through it by the pca, fastica and metrics stages: a SignalMatrix is
taken as checked when it was built, any other array goes through
check_matrix. A stage output is not checked again: framing and decimation
return read-only views of their read-only input, and the filter a fresh
array that is marked read-only. The filter alone tests its output for non-finite
entries: it can overflow a finite input, and it carries through any inf or
NaN of the pipeline's first-sample subtraction, which runs just before it.

apply_filter evaluates the biquad block by block from zero state, not sample
by sample; only the last two outputs of each block are carried into the
next, one Python float step per block and channel. The carry then reaches
every row of the blocks through two matrix products whose kernels hold one
nonzero term per output entry, so each entry is one rounded product on any
BLAS kernel, and the add runs along the samples. At the pipeline's settings
(40 Hz at 100 Hz or 1 kHz) it matches the difference equation to about 1e-15
relative to the output's peak.
"""

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import FilterDesignError, FilterStabilityError, InvalidInputError
from .linalg import check_matrix, check_number

SQRT2 = math.sqrt(2.0)
# Samples per block of _biquad_pass. Each sample costs a _BLOCK-long dot
# product, and each block and channel a few float operations of the carry.
# Timed with the carry as spread products, best of 4 rounds at 10^3 and 10^4
# samples x 4 channels on a 2-core x86-64 VM, 32 was ~12 % slower than 64 and
# 128 ~8-16 % slower. The error does not grow with the block size, but the
# rounding depends on it: another value changes the output bits, so it stays.
_BLOCK = 64


@dataclass(frozen=True)
class SignalMatrix:
    """Multichannel time-series block: rows are samples, columns are channels.

    The constructor validates and copies samples, so later changes to the
    caller's array do not reach it; the copy is read-only. Stage outputs, and
    the arrays read_csv has parsed and checked, are built with _derived
    instead: read-only views or fresh arrays, not copied and not checked again.
    """

    samples: np.ndarray
    sample_rate_hz: float
    channel_labels: tuple = ()

    def __post_init__(self):
        a = check_matrix(self.samples, "samples").copy()
        a.flags.writeable = False
        check_number(self.sample_rate_hz, "sample_rate_hz", above=0, below=math.inf)
        labels = self.channel_labels
        if isinstance(labels, (str, bytes)) or not isinstance(labels, Iterable):
            raise InvalidInputError(
                f"channel_labels must be a sequence of labels, got {type(labels).__name__} {labels!r}"
            )
        labels = tuple(labels) or tuple(f"ch{i + 1}" for i in range(a.shape[1]))
        if len(labels) != a.shape[1]:
            raise InvalidInputError(
                f"{len(labels)} labels for {a.shape[1]} channels"
            )
        object.__setattr__(self, "samples", a)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "channel_labels", labels)

    @classmethod
    def _derived(cls, samples: np.ndarray, sample_rate_hz: float,
                 channel_labels: tuple) -> "SignalMatrix":
        """A stage output derived from validated SignalMatrix values, or values
        already checked as the constructor would check them, taken as it is.

        samples is marked read-only; nothing is copied or checked. Of the
        stages, only apply_filter tests for entries that overflowed.
        """
        samples.flags.writeable = False
        signal = object.__new__(cls)
        object.__setattr__(signal, "samples", samples)
        object.__setattr__(signal, "sample_rate_hz", sample_rate_hz)
        object.__setattr__(signal, "channel_labels", channel_labels)
        return signal

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


def _samples(data, name: str) -> np.ndarray:
    """A SignalMatrix's samples, checked when it was built; any other data by check_matrix."""
    return data.samples if isinstance(data, SignalMatrix) else check_matrix(data, name)


def frame_signal(signal: SignalMatrix, frame_len: int) -> list[SignalMatrix]:
    """Split a signal into back-to-back frames; a trailing partial frame is dropped.

    Returns an empty list when frame_len exceeds the signal length.
    """
    check_number(frame_len, "frame_len", integral=True, at_least=1)
    return [
        SignalMatrix._derived(
            signal.samples[start : start + frame_len],
            signal.sample_rate_hz,
            signal.channel_labels,
        )
        for start in range(0, signal.n_samples - frame_len + 1, frame_len)
    ]


def decimate(signal: SignalMatrix, factor: int) -> SignalMatrix:
    """Keep every factor-th sample starting at index 0; rate divides by factor."""
    check_number(factor, "factor", integral=True, at_least=1)
    return SignalMatrix._derived(
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
        FilterDesignError: rate not in (0, inf), cutoff not a real number,
            cutoff not strictly between 0 and Nyquist, or cutoff / rate so
            close to 0 or 1/2 that a rounded pole lands on the unit circle.
    """
    try:
        check_number(sample_rate_hz, "sample_rate_hz", above=0, below=math.inf)
        check_number(cutoff_hz, "cutoff_hz")
    except InvalidInputError as exc:
        raise FilterDesignError(str(exc)) from None
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
    if not coeffs.is_stable():  # stable in exact arithmetic; a pole rounded onto |z| = 1
        raise FilterDesignError(f"cutoff {cutoff_hz} Hz at rate {sample_rate_hz} Hz is too "
                                "close to 0 or to Nyquist for a double-precision biquad")
    return coeffs


def frequency_response(coeffs: BiquadCoefficients, freqs_hz, sample_rate_hz: float) -> np.ndarray:
    """Complex response of the biquad at the given frequencies (Hz).

    Raises:
        InvalidInputError: rate not in (0, inf), or a frequency whose phase
            step 2 pi f / rate is not finite (f itself NaN or inf, or so large
            against the rate that the step overflows).
    """
    check_number(sample_rate_hz, "sample_rate_hz", above=0, below=math.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        phase = 2j * np.pi * np.asarray(freqs_hz, dtype=float) / sample_rate_hz
    if not np.isfinite(phase).all():
        raise InvalidInputError(
            f"freqs_hz must hold finite frequencies, with a finite phase step at {sample_rate_hz} Hz"
        )
    z = np.exp(phase)
    num = coeffs.b0 + coeffs.b1 / z + coeffs.b2 / z**2
    den = 1.0 + coeffs.a1 / z + coeffs.a2 / z**2
    return num / den


def apply_filter(signal: SignalMatrix, coeffs: BiquadCoefficients) -> SignalMatrix:
    """Run the biquad difference equation over each channel, zero initial state.

    Raises:
        FilterStabilityError: coefficients with poles on/outside the unit circle.
        InvalidInputError: the output overflowed to non-finite entries.
    """
    if not coeffs.is_stable():
        raise FilterStabilityError(
            f"unstable biquad rejected (pole magnitudes {coeffs.pole_magnitudes()})"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test below
        y = _biquad_pass(signal.samples, coeffs)
    if not np.isfinite(y).all():  # with the constructor's message
        raise InvalidInputError("samples contains non-finite entries")
    return SignalMatrix._derived(y, signal.sample_rate_hz, signal.channel_labels)


def _biquad_pass(x: np.ndarray, c: BiquadCoefficients) -> np.ndarray:
    """Zero-state biquad over the columns of x, _BLOCK samples at a time.

    The block realisation of Burrus (1972). The numerator is three shifted
    array operations. The recursive part of each block is its zero-state
    response, a matmul with the Toeplitz kernel of _block_kernel, plus the
    response g1 y[-1] + g2 y[-2] to the last two outputs of the previous
    block. Only those two outputs of each block feed the next, so the carry
    runs on Python floats over the block boundaries alone.

    It then reaches whole blocks as two matrix products, last @ spread1 and
    prev @ spread2: a row of the p carried outputs of a block times the
    spread kernel is the block's carry response in y's own row order, so the
    add to y runs along the samples. The products are exact roundings: an
    entry's one nonzero term is g[t] y[-1] and every other term is a zero, so
    whatever a BLAS kernel's order of terms or use of FMA, the entry is that
    one product, rounded once. Every output is rounded as
    y0 + (g1 y[-1] + g2 y[-2]), the order of the plain block-by-block loop.
    """
    n, p = x.shape
    m = -(-n // _BLOCK)
    v = np.empty((m * _BLOCK, p))
    y = np.empty((m * _BLOCK, p))  # scratch for the numerator, then the output
    v[n:] = 0.0
    np.multiply(c.b0, x, out=v[:n])
    v[1:n] += np.multiply(c.b1, x[:-1], out=y[1:n])
    v[2:n] += np.multiply(c.b2, x[:-2], out=y[2:n])
    toeplitz, g1, g2, spread1, spread2 = _block_kernel(c, p)
    v3, y3 = v.reshape(m, _BLOCK, p), y.reshape(m, _BLOCK, p)
    np.matmul(toeplitz, v3, out=y3)
    if m == 1:
        return y[:n]
    # last[j][k] and prev[j][k] become the final y[-1] and y[-2] of block k
    g11, g12, g21, g22 = g1[-1].item(), g2[-1].item(), g1[-2].item(), g2[-2].item()
    last, prev = y3[:-1, -1].T.tolist(), y3[:-1, -2].T.tolist()
    for a_col, b_col in zip(last, prev):
        a, b = a_col[0], b_col[0]
        for k in range(1, m - 1):
            a, b = a_col[k] + (g11 * a + g12 * b), b_col[k] + (g21 * a + g22 * b)
            a_col[k], b_col[k] = a, b
    last, prev = np.array(last).T, np.array(prev).T  # row k: block k's p outputs
    # v is free now. The two carry products of up to m // 2 blocks fit in it,
    # laid out as the blocks of y, so the add runs along the samples.
    scratch, w = v.reshape(-1), m // 2
    for s in range(0, m - 1, w):
        e = min(s + w, m - 1)
        size = (e - s) * _BLOCK * p
        carry = np.matmul(last[s:e], spread1, out=scratch[:size].reshape(e - s, -1))
        carry += np.matmul(prev[s:e], spread2, out=scratch[size : 2 * size].reshape(e - s, -1))
        y3[s + 1 : e + 1] += carry.reshape(e - s, _BLOCK, p)
    return y[:n]


@functools.lru_cache(maxsize=16)
def _block_kernel(c: BiquadCoefficients, p: int) -> tuple[np.ndarray, ...]:
    """(toeplitz, g1, g2, spread1, spread2) of _biquad_pass for p channels.

    h holds the first _BLOCK + 1 taps of 1 / (1 + a1 z^-1 + a2 z^-2). The
    lower-triangular Toeplitz matrix of h[:_BLOCK] maps a block's numerator
    to its zero-state response; g1 = h[1:] and g2 = -a2 h[:-1] give the
    response to a unit y[-1] and y[-2]. spread1 and spread2 are those
    responses laid out for p channels: the p x (_BLOCK p) matrix with
    spread[j, t p + j] = g[t] and zeros elsewhere, so that a row of p carried
    outputs times it is a block of carry responses in the order of y's rows.
    The arrays are built once per coefficient set and channel count and are
    read-only, as every such call shares them.
    """
    h = [1.0, -c.a1]
    for i in range(2, _BLOCK + 1):
        h.append(-c.a1 * h[i - 1] - c.a2 * h[i - 2])
    h = np.array(h)
    toeplitz = np.tril(h[np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))])
    g1, g2 = h[1:], -c.a2 * h[:-1]
    spread = np.zeros((2, p, _BLOCK, p))
    channel = np.arange(p)
    spread[0, channel, :, channel], spread[1, channel, :, channel] = g1, g2
    kernel = (toeplitz, g1, g2, *spread.reshape(2, p, _BLOCK * p))
    for a in kernel:
        a.flags.writeable = False
    return kernel
