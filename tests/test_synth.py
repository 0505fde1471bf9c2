"""Tests for the synthetic source generators and the channel mixer."""
import math
import re

import numpy as np
import pytest

from ebiunmix.errors import InvalidInputError
from ebiunmix.pipeline import PipelineConfig, run_pipeline
from ebiunmix.synth import (
    _MIX_BLOCK,
    DEFAULT_MIXING,
    default_scenario,
    effective_sources,
    gen_cardiac,
    gen_respiratory,
    mix,
)

from oracles import peak_frequency, periodogram


class TestGenCardiac:
    def test_spectral_peak_at_fundamental(self):
        # 12 beats over 10 s: all harmonics fall on exact FFT bins
        sig = gen_cardiac(n=10000, rate_hz=1000.0, seed=0, fundamental_hz=1.2, jitter_pct=0.0)
        peak = peak_frequency(sig, 1000.0)
        assert abs(peak - 1.2) <= 0.1 + 1e-9  # within one bin

    def test_same_seed_identical(self):
        a = gen_cardiac(5000, 1000.0, seed=7)
        b = gen_cardiac(5000, 1000.0, seed=7)
        assert np.array_equal(a, b)

    def test_zero_mean_unit_variance(self):
        sig = gen_cardiac(20000, 1000.0, seed=1)
        assert abs(sig.mean()) < 1e-12
        assert sig.std() == pytest.approx(1.0, abs=1e-12)

    def test_fundamental_above_nyquist_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_cardiac(100, rate_hz=2.0, seed=0, fundamental_hz=1.2)

    @pytest.mark.parametrize("gen", [gen_cardiac, gen_respiratory])
    @pytest.mark.parametrize("rate", [math.inf, -5.0])
    def test_rate_outside_0_inf_rejected(self, gen, rate):
        message = f"rate_hz must be in (0, inf), got {rate}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            gen(1000, rate, 0)

    def test_recording_that_ends_before_the_first_beat_rejected(self):
        # the first beat falls at half a period, 5 s, after this 3 s recording
        with pytest.raises(InvalidInputError, match="cardiac source is constant over n=3000"):
            gen_cardiac(3000, 1000.0, 0, fundamental_hz=0.1)


class TestGenRespiratory:
    def test_single_harmonic_is_pure_tone(self):
        sig = gen_respiratory(n=4000, rate_hz=1000.0, seed=3, harmonics=1)
        assert np.sqrt(np.mean(sig**2)) == pytest.approx(1.0, abs=1e-9)
        assert peak_frequency(sig, 1000.0) == pytest.approx(0.25, abs=0.25)
        # a pure on-bin tone concentrates essentially all energy in one bin
        _, power = periodogram(sig.reshape(-1, 1), 1000.0)
        assert power[1:, 0].max() / power[1:, 0].sum() > 0.999

    def test_spectral_peak_at_fundamental(self):
        sig = gen_respiratory(n=40000, rate_hz=1000.0, seed=5)
        assert peak_frequency(sig, 1000.0) == pytest.approx(0.25, abs=0.025)

    def test_seed_changes_phase_not_magnitude(self):
        # n chosen so every harmonic lands on an exact FFT bin
        a = gen_respiratory(n=4000, rate_hz=1000.0, seed=1, harmonics=3)
        b = gen_respiratory(n=4000, rate_hz=1000.0, seed=2, harmonics=3)
        assert not np.allclose(a, b)
        mag_a = np.abs(np.fft.rfft(a))
        mag_b = np.abs(np.fft.rfft(b))
        assert np.abs(mag_a - mag_b).max() < 1e-6 * mag_a.max()

    def test_one_sample_rejected(self):
        with pytest.raises(InvalidInputError, match="respiratory source is constant over n=1"):
            gen_respiratory(1, 1000.0, 0)

    def test_harmonic_above_nyquist_truncated_with_warning(self):
        with pytest.warns(UserWarning):
            sig = gen_respiratory(n=2000, rate_hz=1.2, seed=0, fundamental_hz=0.25, harmonics=5)
        # 3rd harmonic at 0.75 Hz exceeds the 0.6 Hz Nyquist, so the
        # spectrum must contain only the first two
        freqs, power = periodogram(sig.reshape(-1, 1), 1.2)
        above = power[freqs > 0.55, 0].sum()
        assert above < 1e-3 * power[1:, 0].sum()


class TestMix:
    def test_identity_mixing_passthrough(self, rng):
        sources = rng.standard_normal((100, 2))
        out = mix(sources, np.eye(2), seed=0)
        assert np.array_equal(out.samples, sources)
        assert out.sample_rate_hz == 1000.0

    def test_noiseless_mixture_recoverable_by_least_squares(self, rng):
        sources = rng.standard_normal((2000, 2))
        out = mix(sources, DEFAULT_MIXING, seed=0)
        recovered = out.samples @ np.linalg.pinv(DEFAULT_MIXING).T
        assert np.abs(recovered - sources).max() < 1e-9

    @pytest.mark.parametrize("n", [1, _MIX_BLOCK - 1, _MIX_BLOCK, _MIX_BLOCK + 1, 200_000])
    def test_product_in_row_blocks_is_bit_equal_to_whole(self, rng, n):
        sources = rng.standard_normal((n, 2))
        mixing = np.asarray(DEFAULT_MIXING)
        out = mix(sources, mixing, seed=0)
        assert out.samples.tobytes() == (sources @ mixing.T).tobytes()

    def test_correlation_injection_measurable(self):
        _, truth = default_scenario(n=25000, seed=7, correlation_injection=0.3, noise_sigma=0.0)
        rho = np.corrcoef(truth.samples.T)[0, 1]
        assert 0.05 < abs(rho) < 0.6
        assert rho != 0.0

    def test_no_injection_returns_sources_unchanged(self, rng):
        sources = rng.standard_normal((100, 2))
        assert np.array_equal(effective_sources(sources, 0.0), sources)

    @pytest.mark.parametrize("c", [-0.1, 1.0, float("nan")])
    def test_bad_correlation_injection_rejected(self, rng, c):
        with pytest.raises(InvalidInputError, match="correlation_injection"):
            effective_sources(rng.standard_normal((10, 2)), c)

    def test_rank_deficient_mixing_rejected(self, rng):
        rank_one = np.array([[1.0, 2.0], [2.0, 4.0], [0.5, 1.0], [3.0, 6.0]])
        with pytest.raises(InvalidInputError, match="mixing matrix is rank deficient"):
            mix(rng.standard_normal((10, 2)), rank_one, seed=0)

    def test_nearly_rank_deficient_mixing_rejected(self, rng):
        # a singular-value ratio of 2.7e-14, below svd's own rank tolerance
        with pytest.raises(InvalidInputError, match="mixing matrix is rank deficient"):
            mix(rng.standard_normal((10, 2)), np.diag([1.0, 2.7e-14]), seed=0)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_bad_noise_sigma_rejected(self, rng, sigma):
        with pytest.raises(InvalidInputError, match="noise_sigma"):
            mix(rng.standard_normal((10, 2)), DEFAULT_MIXING, seed=0, noise_sigma=sigma)

    @pytest.mark.parametrize("rate", [True, "1000"])
    def test_rate_that_is_not_a_number_rejected(self, rng, rate):
        with pytest.raises(InvalidInputError, match="sample_rate_hz must be a real number"):
            mix(rng.standard_normal((10, 2)), DEFAULT_MIXING, seed=0, rate_hz=rate)

    def test_more_sources_than_channels_rejected(self, rng):
        with pytest.raises(InvalidInputError, match="mixing needs at least as many channels"):
            mix(rng.standard_normal((10, 3)), np.ones((2, 3)), seed=0)

    def test_source_count_mismatch_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            mix(rng.standard_normal((10, 3)), DEFAULT_MIXING, seed=0)


class TestScenario:
    def test_sources_nearly_uncorrelated_without_injection(self):
        _, truth = default_scenario(n=100000, seed=21, correlation_injection=0.0)
        rho = np.corrcoef(truth.samples.T)[0, 1]
        assert abs(rho) < 0.05

    def test_deterministic(self):
        a_mix, a_truth = default_scenario(n=5000, seed=42)
        b_mix, b_truth = default_scenario(n=5000, seed=42)
        assert np.array_equal(a_mix.samples, b_mix.samples)
        assert np.array_equal(a_truth.samples, b_truth.samples)

    def test_full_pipeline_smoke(self):
        mixture, truth = default_scenario(n=25000, rate_hz=1000.0, seed=0)
        components, report = run_pipeline(mixture, PipelineConfig(), truth)
        assert len(components) == 2
        assert not report.any_frame_failed

    @pytest.mark.parametrize("knob, value", [
        ("cardiac_hz", 1.5),
        ("jitter_pct", 5.0),
        ("resp_hz", 0.3),
        ("harmonics", 2),
        ("noise_sigma", 0.2),
        ("correlation_injection", 0.2),
    ])
    def test_every_knob_acts(self, knob, value):
        base, _ = default_scenario(n=5000, seed=3)
        changed, _ = default_scenario(n=5000, seed=3, **{knob: value})
        assert not np.array_equal(changed.samples, base.samples)

    @pytest.mark.parametrize("kwargs", [
        {"n": 0},
        {"cardiac_hz": 0.0},
        {"cardiac_hz": 600.0},
        {"resp_hz": -0.25},
        {"resp_hz": 500.0},
        {"jitter_pct": -1.0},
        {"harmonics": 0},
        {"jitter_pct": float("nan")},
        {"jitter_pct": float("inf")},
        {"seed": -1},
        {"seed": 1.5},
        {"n": 2500.0},
        {"n": True},
        {"harmonics": 2.5},
        {"rate_hz": "1000"},
        {"cardiac_hz": None},
        {"jitter_pct": "2"},
        {"noise_sigma": "0.1"},
        {"correlation_injection": "0.3"},
        {"resp_hz": True},
        {"rate_hz": True, "cardiac_hz": 0.3, "resp_hz": 0.1},  # True is not 1 Hz
        {"jitter_pct": 100.0},  # an interval of (1 + u) periods reaches 0 at u = -1
        {"jitter_pct": 150.0},
    ])
    def test_bad_source_parameter_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            default_scenario(**{"n": 1000, **kwargs})

    def test_labels_and_shapes(self):
        mixture, truth = default_scenario(n=3000, seed=1)
        assert mixture.n_channels == 4
        assert truth.channel_labels == ("cardiac", "respiratory")
        assert mixture.n_samples == truth.n_samples == 3000
