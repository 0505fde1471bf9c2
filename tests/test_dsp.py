"""Tests for framing, decimation, and the Butterworth low-pass stage."""
import math
import re
import warnings

import numpy as np
import pytest

from ebiunmix.dsp import (
    _BLOCK,
    BiquadCoefficients,
    SignalMatrix,
    apply_filter,
    decimate,
    design_butterworth_lp2,
    frame_signal,
    frequency_response,
)
from ebiunmix.errors import FilterDesignError, FilterStabilityError, InvalidInputError

from oracles import analog_lp2_response, biquad_recursion, block_biquad_reference, periodogram


def make_signal(samples, rate=1000.0):
    return SignalMatrix(np.asarray(samples, dtype=float), rate)


class TestSignalMatrix:
    def test_default_labels(self):
        sig = make_signal(np.zeros((5, 3)))
        assert sig.channel_labels == ("ch1", "ch2", "ch3")

    def test_samples_read_only(self):
        sig = make_signal(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            sig.samples[0, 0] = 1.0

    def test_label_count_must_match(self):
        with pytest.raises(InvalidInputError):
            SignalMatrix(np.zeros((5, 2)), 100.0, ("only-one",))

    @pytest.mark.parametrize("channels, labels", [
        (3, "xyz"), (1, "ch1"), (2, b"ab"), (1, b"a"), (2, None), (1, 5), (1, 2.0),
    ])
    def test_single_string_labels_rejected(self, channels, labels):
        with pytest.raises(InvalidInputError, match="channel_labels must be a sequence of labels"):
            SignalMatrix(np.zeros((3, channels)), 1.0, labels)

    def test_rejects_complex_samples(self):
        with pytest.raises(InvalidInputError, match="two real columns"):
            SignalMatrix(np.array([[1 + 2j, 3j], [1.0, 2.0]]), 100.0)

    def test_rejects_bad_rate(self):
        for rate in (0.0, np.inf, np.nan, True, "5"):
            with pytest.raises(InvalidInputError, match="sample_rate_hz"):
                SignalMatrix(np.zeros((5, 2)), rate)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            make_signal([[np.nan, 0.0]])


class TestFrameSignal:
    def test_paper_frame_arithmetic(self):
        sig = make_signal(np.arange(25000 * 4, dtype=float).reshape(25000, 4))
        frames = frame_signal(sig, 10000)
        assert len(frames) == 2
        assert all(f.n_samples == 10000 for f in frames)
        # trailing 5000 samples dropped
        assert frames[1].samples[-1, 0] == sig.samples[19999, 0]

    def test_exact_fit_single_frame(self):
        sig = make_signal(np.zeros((128, 2)))
        frames = frame_signal(sig, 128)
        assert len(frames) == 1

    def test_too_long_frame_returns_empty(self):
        sig = make_signal(np.zeros((10, 1)))
        assert frame_signal(sig, 11) == []

    def test_zero_frame_len_rejected(self):
        with pytest.raises(InvalidInputError):
            frame_signal(make_signal(np.zeros((10, 1))), 0)

    @pytest.mark.parametrize("frame_len", [True, 2.0, "5"])
    def test_non_integer_frame_len_rejected(self, frame_len):
        with pytest.raises(InvalidInputError, match="frame_len must be an integer"):
            frame_signal(make_signal(np.zeros((10, 1))), frame_len)

    def test_concatenation_recovers_truncated_input(self, rng):
        sig = make_signal(rng.standard_normal((1050, 3)))
        frames = frame_signal(sig, 100)
        joined = np.vstack([f.samples for f in frames])
        assert np.array_equal(joined, sig.samples[:1000])

    def test_frames_inherit_metadata(self):
        sig = SignalMatrix(np.zeros((20, 2)), 250.0, ("a", "b"))
        frame = frame_signal(sig, 10)[0]
        assert frame.sample_rate_hz == 250.0
        assert frame.channel_labels == ("a", "b")


class TestDecimate:
    def test_paper_rates(self):
        sig = make_signal(np.zeros((10000, 4)), rate=1000.0)
        out = decimate(sig, 10)
        assert out.n_samples == 1000
        assert out.sample_rate_hz == 100.0

    def test_factor_one_identity(self, rng):
        sig = make_signal(rng.standard_normal((17, 2)))
        out = decimate(sig, 1)
        assert np.array_equal(out.samples, sig.samples)
        assert out.sample_rate_hz == sig.sample_rate_hz

    def test_index_arithmetic(self):
        sig = make_signal(np.arange(10, dtype=float).reshape(10, 1))
        out = decimate(sig, 3)
        assert out.samples[:, 0].tolist() == [0.0, 3.0, 6.0, 9.0]

    def test_zero_factor_rejected(self):
        with pytest.raises(InvalidInputError):
            decimate(make_signal(np.zeros((5, 1))), 0)

    @pytest.mark.parametrize("factor", [True, 2.0])
    def test_non_integer_factor_rejected(self, factor):
        with pytest.raises(InvalidInputError, match="factor must be an integer"):
            decimate(make_signal(np.zeros((5, 1))), factor)

    def test_composition(self, rng):
        sig = make_signal(rng.standard_normal((1000, 2)))
        once = decimate(decimate(sig, 4), 3)
        direct = decimate(sig, 12)
        assert np.array_equal(once.samples, direct.samples)
        assert once.sample_rate_hz == pytest.approx(direct.sample_rate_hz)


class TestButterworthDesign:
    CASES = [(40.0, 1000.0), (40.0, 100.0), (0.3, 10.0), (100.0, 250.0), (5.0, 44100.0)]

    @pytest.mark.parametrize("cutoff,rate", CASES)
    def test_minus_3db_at_cutoff(self, cutoff, rate):
        coeffs = design_butterworth_lp2(cutoff, rate)
        mag = abs(frequency_response(coeffs, [cutoff], rate)[0])
        assert mag == pytest.approx(0.70711, abs=1e-5)

    @pytest.mark.parametrize("cutoff,rate", CASES)
    def test_unit_dc_gain(self, cutoff, rate):
        coeffs = design_butterworth_lp2(cutoff, rate)
        assert coeffs.dc_gain() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cutoff,rate", CASES)
    def test_stable(self, cutoff, rate):
        coeffs = design_butterworth_lp2(cutoff, rate)
        assert np.all(coeffs.pole_magnitudes() < 1.0)

    def test_stability_triangle_matches_pole_roots(self):
        grid = np.linspace(-2.5, 2.5, 101)
        for a1 in grid:
            for a2 in grid:
                if min(abs(abs(a2) - 1.0), abs(abs(a1) - (1.0 + a2))) < 1e-6:
                    continue  # on the boundary np.roots' round-off decides
                coeffs = BiquadCoefficients(1.0, 0.0, 0.0, a1, a2)
                poles_inside = bool(np.all(np.abs(np.roots([1.0, a1, a2])) < 1.0))
                assert coeffs.is_stable() == poles_inside, (a1, a2)

    @pytest.mark.parametrize("field,value", [("b0", math.nan), ("a1", math.inf), ("a2", -math.inf)])
    def test_non_finite_coefficient_rejected(self, field, value):
        coeffs = dict(b0=1.0, b1=0.0, b2=0.0, a1=0.0, a2=0.0)
        coeffs[field] = value
        with pytest.raises(InvalidInputError, match="biquad coefficients must be finite"):
            BiquadCoefficients(**coeffs)

    @pytest.mark.parametrize("a2", [-0.9, -0.25, 0.0, 0.3, 0.999])
    def test_pole_on_unit_circle_is_unstable(self, a2):
        for a1 in (1.0 + a2, -(1.0 + a2)):  # a pole at -1 or at +1
            assert not BiquadCoefficients(1.0, 0.0, 0.0, a1, a2).is_stable()
        for a1 in (-1.5, 0.0, 1.5):  # a2 = 1: complex poles of modulus 1
            assert not BiquadCoefficients(1.0, 0.0, 0.0, a1, 1.0).is_stable()

    def test_matches_analog_prototype_oracle(self):
        cutoff, rate = 40.0, 1000.0
        coeffs = design_butterworth_lp2(cutoff, rate)
        freqs = np.logspace(np.log10(0.5), np.log10(499.0), 50)
        mine = np.abs(frequency_response(coeffs, freqs, rate))
        oracle = analog_lp2_response(freqs, cutoff, rate)
        assert np.abs(mine - oracle).max() < 1e-6

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, 50.0, 80.0])
    def test_invalid_cutoffs_rejected(self, cutoff):
        with pytest.raises(FilterDesignError):
            design_butterworth_lp2(cutoff, 100.0)

    @pytest.mark.parametrize("cutoff", [1e-7, 2e-6, 500.0 - 2e-6])
    def test_cutoff_too_close_to_0_or_nyquist_rejected(self, cutoff):
        # the bilinear design is stable for every cutoff in (0, Nyquist), but
        # at these ratios the rounded a1, a2 put a pole on the unit circle
        message = (f"cutoff {cutoff} Hz at rate 1000.0 Hz is too close to 0 or to Nyquist "
                   "for a double-precision biquad")
        with pytest.raises(FilterDesignError, match=re.escape(message)):
            design_butterworth_lp2(cutoff, 1000.0)

    @pytest.mark.parametrize("cutoff", [True, "40", None])
    def test_cutoff_that_is_not_a_number_rejected(self, cutoff):
        with pytest.raises(FilterDesignError, match="cutoff_hz must be a real number"):
            design_butterworth_lp2(cutoff, 100.0)

    @pytest.mark.parametrize("rate", [0.0, -100.0, np.inf, np.nan, True, "5"])
    def test_invalid_rate_rejected(self, rate):
        with pytest.raises(FilterDesignError, match="sample_rate_hz"):
            design_butterworth_lp2(40.0, rate)

    @pytest.mark.parametrize("freq,rate,message", [
        (10.0, -1000.0, "sample_rate_hz"),
        (10.0, True, "sample_rate_hz"),
        (10.0, 0.0, "sample_rate_hz"),
        (10.0, np.nan, "sample_rate_hz"),
        (np.nan, 1000.0, "freqs_hz"),
        (np.inf, 1000.0, "freqs_hz"),
    ])
    def test_frequency_response_refuses_bad_rate_or_frequency(self, freq, rate, message):
        coeffs = design_butterworth_lp2(40.0, 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=message):
                frequency_response(coeffs, [1.0, freq], rate)


class TestApplyFilter:
    def test_zero_in_zero_out(self):
        coeffs = design_butterworth_lp2(40.0, 1000.0)
        out = apply_filter(make_signal(np.zeros((100, 3))), coeffs)
        assert np.array_equal(out.samples, np.zeros((100, 3)))

    def test_dc_step_settles_to_unity(self):
        coeffs = design_butterworth_lp2(40.0, 1000.0)
        out = apply_filter(make_signal(np.ones((2000, 1))), coeffs)
        assert out.samples[-1, 0] == pytest.approx(1.0, abs=1e-6)

    def test_stopband_rolloff_at_least_12db_per_octave(self):
        # white noise through the filter: band power above 2x cutoff must fall
        # by >= 12 dB per octave on average (2nd-order asymptotic slope)
        rng = np.random.default_rng(99)
        rate, cutoff = 1000.0, 40.0
        coeffs = design_butterworth_lp2(cutoff, rate)
        x = rng.standard_normal((2**15, 1))
        y = apply_filter(make_signal(x, rate), coeffs)
        freqs, power = periodogram(y.samples[:, 0], rate)
        lo = power[(freqs >= 2 * cutoff) & (freqs < 4 * cutoff)].mean()
        hi = power[(freqs >= 4 * cutoff) & (freqs < 8 * cutoff)].mean()
        drop_db = 10.0 * np.log10(lo / hi)  # the two bands sit one octave apart
        assert drop_db >= 12.0

    def test_linearity(self, rng):
        coeffs = design_butterworth_lp2(30.0, 500.0)
        x = rng.standard_normal((300, 2))
        y = rng.standard_normal((300, 2))
        a, b = 1.7, -0.4
        left = apply_filter(make_signal(a * x + b * y, 500.0), coeffs).samples
        right = (
            a * apply_filter(make_signal(x, 500.0), coeffs).samples
            + b * apply_filter(make_signal(y, 500.0), coeffs).samples
        )
        assert np.abs(left - right).max() < 1e-9

    def test_time_invariance(self, rng):
        coeffs = design_butterworth_lp2(30.0, 500.0)
        shift = 7
        x = rng.standard_normal((400, 1))
        shifted = np.vstack([np.zeros((shift, 1)), x[:-shift]])
        y = apply_filter(make_signal(x, 500.0), coeffs).samples
        y_shifted = apply_filter(make_signal(shifted, 500.0), coeffs).samples
        assert np.abs(y_shifted[shift:] - y[:-shift]).max() < 1e-9

    def test_unstable_coefficients_rejected(self):
        unstable = BiquadCoefficients(b0=1.0, b1=0.0, b2=0.0, a1=0.0, a2=1.5)
        with pytest.raises(FilterStabilityError):
            apply_filter(make_signal(np.zeros((10, 1))), unstable)


class TestStageOutputs:
    """Stage outputs are read-only views or fresh arrays of a validated signal."""

    STAGES = ("frame_signal", "decimate", "apply_filter")

    @staticmethod
    def outputs(signal):
        return {
            "frame_signal": frame_signal(signal, _BLOCK)[1],
            "decimate": decimate(signal, 3),
            "apply_filter": apply_filter(signal, design_butterworth_lp2(40.0, 1000.0)),
        }

    @pytest.mark.parametrize("stage", STAGES)
    def test_output_is_read_only(self, rng, stage):
        out = self.outputs(make_signal(rng.standard_normal((3 * _BLOCK, 3))))[stage]
        assert not out.samples.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out.samples[0, 0] = 1.0

    def test_caller_array_changed_later_reaches_no_output(self, rng):
        source = rng.standard_normal((3 * _BLOCK, 3))
        signal = make_signal(source)
        outputs = self.outputs(signal)
        kept = {stage: out.samples.copy() for stage, out in outputs.items()}
        source[:] = 7.0
        for stage, again in self.outputs(signal).items():
            assert np.array_equal(outputs[stage].samples, kept[stage]), stage
            assert np.array_equal(again.samples, kept[stage]), stage
            assert not np.shares_memory(outputs[stage].samples, source), stage

    def test_filter_overflow_rejected_without_a_warning(self):
        x = np.zeros((3 * _BLOCK, 2))
        x[_BLOCK, 1] = 1.5e308  # finite, but b1 * x overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="samples contains non-finite entries"):
                apply_filter(make_signal(x), design_butterworth_lp2(40.0, 100.0))


class TestApplyFilterOracles:
    """apply_filter runs block by block; these pin it to the per-sample recursion.

    Errors are max |y - ref| relative to max |ref|. At the pipeline's settings
    (40 Hz at 100 Hz and at 1 kHz) the bound is 1e-12; both routes land near
    1e-15. At a cutoff of 5e-4 of the rate the poles sit close to 1, the
    recursion's impulse response grows large before it decays, and the block
    route loses more to cancellation (about 1e-11 against 1e-12), so the bound
    there is 1e-10.
    """

    SETTINGS = [(40.0, 100.0, 1e-12), (40.0, 1000.0, 1e-12), (0.5, 1000.0, 1e-10)]
    LENGTHS = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000, 10001]

    @staticmethod
    def relative_error(y, ref):
        return np.abs(y - ref).max() / max(np.abs(ref).max(), np.finfo(float).tiny)

    @pytest.mark.parametrize("cutoff,rate,tol", SETTINGS)
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("channels", [1, 4])
    def test_matches_recursion_and_lfilter(self, cutoff, rate, tol, n, channels):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        rng = np.random.default_rng(n * 10 + channels)
        dc = 10.0 * np.arange(1, channels + 1)  # per-channel baselines, as in real EBI
        x = rng.standard_normal((n, channels)) + dc
        coeffs = design_butterworth_lp2(cutoff, rate)
        y = apply_filter(make_signal(x, rate), coeffs).samples
        assert y.shape == x.shape
        assert self.relative_error(y, biquad_recursion(x, coeffs)) <= tol
        b, a = [coeffs.b0, coeffs.b1, coeffs.b2], [1.0, coeffs.a1, coeffs.a2]
        assert self.relative_error(y, lfilter(b, a, x, axis=0)) <= tol

    @pytest.mark.parametrize("cutoff,rate", [setting[:2] for setting in SETTINGS])
    # 3 blocks with a one-sample last block, 3 whole blocks, and 8 and 157
    # blocks, whose carries fill the scratch's two halves with 4 + 3 and 78 + 78
    @pytest.mark.parametrize("n", LENGTHS + [2 * _BLOCK + 1, 3 * _BLOCK, 7 * _BLOCK + 5, 10000])
    @pytest.mark.parametrize("channels", [1, 2, 3, 4, 5])
    def test_bit_identical_to_whole_block_carry(self, cutoff, rate, n, channels):
        rng = np.random.default_rng(n * 10 + channels)
        x = rng.standard_normal((n, channels)) + 10.0 * np.arange(1, channels + 1)
        if channels >= 3:  # a dead electrode after the first-sample shift, and a flat one
            x[:, 1], x[:, 2] = 0.0, 7.5
        coeffs = design_butterworth_lp2(cutoff, rate)
        y = apply_filter(make_signal(x, rate), coeffs).samples
        ref = block_biquad_reference(x, coeffs, _BLOCK)
        assert np.array_equal(y, ref)
        assert np.array_equal(np.signbit(y), np.signbit(ref))

    @pytest.mark.parametrize("cutoff,rate,tol", SETTINGS)
    @pytest.mark.parametrize("at", [_BLOCK - 2, _BLOCK - 1, 2 * _BLOCK - 1])
    @pytest.mark.parametrize("channels", [1, 4])
    def test_impulse_response_crosses_block_boundaries(self, cutoff, rate, tol, at, channels):
        # An impulse in one of a block's last two samples reaches the next
        # block only through the carry of those two outputs.
        x = np.zeros((4 * _BLOCK + 3, channels))
        x[at] = np.arange(1, channels + 1)  # a different height per channel
        coeffs = design_butterworth_lp2(cutoff, rate)
        y = apply_filter(make_signal(x, rate), coeffs).samples
        assert self.relative_error(y, biquad_recursion(x, coeffs)) <= tol

    def test_equal_coefficients_give_equal_output(self, rng):
        x = make_signal(rng.standard_normal((5 * _BLOCK + 7, 4)) + 10.0)
        first = design_butterworth_lp2(40.0, 1000.0)
        second = BiquadCoefficients(first.b0, first.b1, first.b2, first.a1, first.a2)
        assert second == first and second is not first
        y = apply_filter(x, first).samples
        apply_filter(make_signal(rng.standard_normal((3 * _BLOCK, 2))), second)
        assert np.array_equal(apply_filter(x, second).samples, y)

    def test_leaves_input_unchanged(self, rng):
        x = rng.standard_normal((3 * _BLOCK + 5, 4)) + 100.0
        before = x.copy()
        signal = make_signal(x)
        apply_filter(signal, design_butterworth_lp2(40.0, 1000.0))
        assert np.array_equal(x, before)
        assert np.array_equal(signal.samples, before)
