"""Tests for the end-to-end pipeline and CSV round-tripping."""
import functools
import json
import re
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ebiunmix import cli, dsp, fastica, linalg, metrics, pca, pipeline, synth
from ebiunmix.dsp import SignalMatrix, decimate, frame_signal
from ebiunmix.errors import (
    CsvFormatError,
    DegenerateComponentError,
    DimensionError,
    FilterDesignError,
    InsufficientDataError,
    InvalidInputError,
)
from ebiunmix.fastica import ConvergenceReport, IcaConfig
from ebiunmix.metrics import SeparationReport
from ebiunmix.pipeline import (
    PipelineConfig,
    process_frame,
    read_csv,
    run_pipeline,
    write_csv,
)
from ebiunmix.synth import default_scenario

from oracles import newton_schulz_polar, read_csv_reference


def strip_timings(report_dict):
    clean = json.loads(json.dumps(report_dict))
    clean.pop("total_seconds", None)
    for frame in clean["frames"]:
        frame.pop("seconds", None)
    return clean


class TestRunPipeline:
    def test_default_frame_arithmetic(self):
        mixture, _ = default_scenario(n=25000, seed=0)
        components, report = run_pipeline(mixture, PipelineConfig())
        assert len(components) == 2
        for comp in components:
            assert comp.samples.shape == (1000, 2)
            assert comp.sample_rate_hz == 100.0
            assert comp.channel_labels == ("ic1", "ic2")
        assert not report.any_frame_failed
        assert len(report.frames) == 2

    def test_pca_only_collinear_input(self):
        t = np.linspace(-1.0, 1.0, 2000)
        sig = SignalMatrix(np.column_stack([t, 2.0 * t]), 1000.0)
        config = PipelineConfig(
            frame_len=2000, decimation_factor=1, retained_components=1, mode="pca_only"
        )
        components, report = run_pipeline(sig, config)
        assert components[0].channel_labels == ("pc1",)
        assert report.frames[0].explained_variance >= 0.999

    def test_scoring_against_truth(self):
        mixture, truth = default_scenario(n=25000, seed=4)
        _, report = run_pipeline(mixture, PipelineConfig(), truth)
        for frame in report.frames:
            matching = frame.matching
            assert matching is not None
            assert min(abs(r) for r in matching["correlations"]) >= 0.95
            assert matching["amari_index"] < 0.1
            assert max(matching["leakage"]) < 0.3

    def test_component_spectra_split_cardiac_and_respiratory(self):
        from oracles import peak_frequency

        mixture, truth = default_scenario(n=25000, seed=0)
        components, report = run_pipeline(mixture, PipelineConfig(), truth)
        for comp, frame in zip(components, report.frames):
            peak_by_truth = {
                true: peak_frequency(comp.samples[:, est], comp.sample_rate_hz)
                for est, true in frame.matching["assignment"]
            }
            assert abs(peak_by_truth[0] - 1.2) <= 0.15  # cardiac pulse rate
            assert abs(peak_by_truth[1] - 0.25) <= 0.15  # respiratory rate

    def test_ica_only_whitens_at_full_rank(self):
        mixture, _ = default_scenario(n=12000, seed=2)
        config = PipelineConfig(mode="ica_only")
        components, report = run_pipeline(mixture, config)
        assert components[0].samples.shape == (1000, 4)
        assert report.frames[0].retained == 4

    @pytest.mark.parametrize("retained", [None, 2, 4, 5])
    def test_ica_only_warns_that_retained_components_is_unused(self, retained):
        mixture, _ = default_scenario(n=20000, seed=2)
        config = PipelineConfig(mode="ica_only", retained_components=retained)
        _, report = run_pipeline(mixture, config)
        assert report.config["retained_components"] == retained
        assert [frame.retained for frame in report.frames] == [4, 4]
        expected = [] if retained in (None, 4) else [
            f"retained_components={retained} was not used: ica_only whitens at full rank, "
            "4 components"
        ]
        assert report.warnings == expected

    def test_filter_before_decimate(self):
        mixture, truth = default_scenario(n=25000, seed=6)
        config = PipelineConfig(filter_position="before_decimate")
        _, report = run_pipeline(mixture, config, truth)
        assert not report.any_frame_failed
        for frame in report.frames:
            assert min(abs(r) for r in frame.matching["correlations"]) >= 0.95

    def test_frame_error_recorded_and_other_frames_processed(self):
        mixture, _ = default_scenario(n=25000, seed=1)
        samples = mixture.samples.copy()
        samples[:10000, 3] = 7.0  # a dead electrode in frame 0 only
        config = PipelineConfig(mode="ica_only")
        components, report = run_pipeline(SignalMatrix(samples, mixture.sample_rate_hz), config)
        assert report.any_frame_failed
        assert len(report.frames) == 2
        assert components[0] is None
        assert report.frames[0].stage == "whiten"
        assert report.frames[0].error.startswith("DegenerateComponentError")
        assert report.frames[1].ok and components[1] is not None

    @pytest.mark.parametrize("spike_rows,values", [
        ((0, 10), (1e308, -1e308)),  # the first-sample subtraction overflows
        ((10,), (1.5e308,)),  # finite after it, the filter's numerator overflows
    ])
    def test_overflow_fails_its_frame_alone_without_a_warning(self, spike_rows, values):
        mixture, _ = default_scenario(n=20000, seed=1)
        samples = mixture.samples.copy()
        samples[list(spike_rows), 3] = values  # frame 0 only, on rows decimation keeps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            components, report = run_pipeline(
                SignalMatrix(samples, mixture.sample_rate_hz), PipelineConfig()
            )
        assert components[0] is None
        assert report.frames[0].stage == "preprocess"
        assert report.frames[0].error == "InvalidInputError: samples contains non-finite entries"
        assert report.frames[1].ok and components[1] is not None

    def test_covariance_overflow_fails_its_frame_alone_without_a_warning(self):
        mixture, _ = default_scenario(n=20000, seed=1)
        samples = mixture.samples.copy()
        samples[:10000] *= 1e160  # frame 0 only: finite through the filter, not its covariance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            components, report = run_pipeline(
                SignalMatrix(samples, mixture.sample_rate_hz), PipelineConfig()
            )
        assert components[0] is None
        assert report.frames[0].stage == "pca"
        assert report.frames[0].error == "InvalidInputError: m contains non-finite entries"
        assert report.frames[1].ok and components[1] is not None

    @pytest.mark.parametrize("mode", pipeline.MODES)
    def test_outputs_read_only_and_apart_from_the_caller_array(self, mode):
        mixture, truth = default_scenario(n=20000, seed=3)
        source = mixture.samples.copy()
        signal = SignalMatrix(source, mixture.sample_rate_hz)
        config = PipelineConfig(mode=mode)
        frames = frame_signal(signal, config.frame_len)
        components, _ = run_pipeline(signal, config, truth)
        kept = [c.samples.copy() for c in components]
        for comp in components:
            assert not comp.samples.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                comp.samples[0, 0] = 1.0
            assert not np.shares_memory(comp.samples, source)
            assert not np.shares_memory(comp.samples, signal.samples)
        source[:] = 0.0  # the caller's array, after the SignalMatrix copied it
        assert all(np.array_equal(f.samples, mixture.samples[i * 10000:(i + 1) * 10000])
                   for i, f in enumerate(frames))
        again, _ = run_pipeline(signal, config, truth)
        for comp, before, after in zip(components, kept, again):
            assert np.array_equal(comp.samples, before)
            assert np.array_equal(after.samples, before)

    @pytest.mark.parametrize("cutoff_hz,position", [
        (50.0, "after_decimate"),  # the post-decimation Nyquist itself
        (60.0, "after_decimate"),
        (500.0, "before_decimate"),
    ])
    def test_unrealisable_cutoff_raises_once_before_framing(self, monkeypatch, cutoff_hz, position):
        mixture, _ = default_scenario(n=25000, seed=1)
        monkeypatch.setattr(pipeline, "process_frame", None)  # never reached
        with pytest.raises(FilterDesignError, match="Nyquist"):
            run_pipeline(mixture, PipelineConfig(cutoff_hz=cutoff_hz, filter_position=position))

    @pytest.mark.parametrize("frame_len,decimation_factor,ok", [
        (30, 10, False),  # 3 decimated samples for 4 channels
        (31, 10, True),
        (3, 1, False),
        (4, 1, True),
    ])
    def test_short_decimated_frame_raises_once_before_framing(
        self, monkeypatch, frame_len, decimation_factor, ok
    ):
        mixture, _ = default_scenario(n=2000, seed=1)
        calls = []

        def record_frame(frame, config, idx, truth):  # the frame's stages never run
            calls.append(idx)
            return None, pipeline.FrameResult(idx)

        monkeypatch.setattr(pipeline, "process_frame", record_frame)
        config = PipelineConfig(frame_len=frame_len, decimation_factor=decimation_factor)
        if ok:
            run_pipeline(mixture, config)
            assert len(calls) == 2000 // frame_len
        else:
            with pytest.raises(InsufficientDataError, match="fewer than the 4 channels"):
                run_pipeline(mixture, config)
            assert calls == []

    def test_non_convergence_reported_not_fatal(self):
        mixture, _ = default_scenario(n=25000, seed=3)
        config = PipelineConfig(ica=IcaConfig(max_iterations=1))
        components, report = run_pipeline(mixture, config)
        assert not report.any_frame_failed
        assert all(not f.convergence["converged"] for f in report.frames)
        assert all(c is not None for c in components)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_2x2_closed_form_matches_newton_schulz(self, monkeypatch, seed):
        mixture, _ = default_scenario(n=60000, seed=seed)
        config = PipelineConfig(ica=IcaConfig(seed=seed))
        components, report = run_pipeline(mixture, config)
        # the general path: one SVD
        monkeypatch.setattr(fastica, "_symmetric_decorrelate", fastica._polar_svd)
        reference, ref_report = run_pipeline(mixture, config)
        assert len(report.frames) == len(ref_report.frames) == 6
        for frame, ref in zip(report.frames, ref_report.frames):
            assert frame.ok and ref.ok and frame.retained == 2
            assert frame.convergence["iterations_used"] == ref.convergence["iterations_used"]
            assert np.abs(np.array(frame.W) - np.array(ref.W)).max() <= 1e-12
        for c, r in zip(components, reference):  # a swap or sign flip would differ by O(1)
            assert np.abs(c.samples - r.samples).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ica_only_svd_polar_matches_newton_schulz(self, monkeypatch, seed):
        mixture, _ = default_scenario(n=60000, seed=seed)
        config = PipelineConfig(mode="ica_only", ica=IcaConfig(seed=seed))
        _, report = run_pipeline(mixture, config)
        monkeypatch.setattr(fastica, "_symmetric_decorrelate", newton_schulz_polar)
        _, ref_report = run_pipeline(mixture, config)
        assert len(report.frames) == len(ref_report.frames) == 6
        both = [(f, r) for f, r in zip(report.frames, ref_report.frames)
                if f.convergence["converged"] and r.convergence["converged"]]
        assert len(both) >= 3
        for frame, ref in both:
            assert frame.retained == 4
            assert frame.convergence["iterations_used"] == ref.convergence["iterations_used"]
            assert np.abs(np.array(frame.W) - np.array(ref.W)).max() <= 1e-12

    def test_truth_length_mismatch_rejected(self):
        mixture, truth = default_scenario(n=25000, seed=0)
        short = SignalMatrix(truth.samples[:-1], truth.sample_rate_hz, truth.channel_labels)
        with pytest.raises(DimensionError):
            run_pipeline(mixture, PipelineConfig(), short)

    def test_truth_rate_mismatch_rejected(self):
        mixture, truth = default_scenario(n=25000, seed=0)
        slow = SignalMatrix(truth.samples, 250.0, truth.channel_labels)
        message = "truth is sampled at 250.0 Hz, signal at 1000.0 Hz"
        with pytest.raises(InvalidInputError, match=message):
            run_pipeline(mixture, PipelineConfig(), slow)

    @pytest.mark.parametrize("field,value", [
        ("frame_len", 5000.0), ("frame_len", True), ("decimation_factor", "10"),
        ("retained_components", 2.0), ("cutoff_hz", "40"), ("cutoff_hz", False),
        ("cutoff_hz", None), ("ica", None), ("ica", {"seed": 1}),
        ("filter_position", "sideways"), ("mode", "ica"),  # a value outside the list
    ])
    def test_wrong_config_type_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            PipelineConfig(**{field: value})

    def test_config_accepts_int_cutoff_and_numpy_ints(self):
        config = PipelineConfig(frame_len=np.int64(5000), cutoff_hz=40)
        assert config.frame_len == 5000 and config.cutoff_hz == 40

    def test_too_few_channels_rejected(self):
        sig = SignalMatrix(np.random.default_rng(0).standard_normal((100, 1)), 100.0)
        with pytest.raises(DimensionError):
            run_pipeline(sig, PipelineConfig(retained_components=2))

    @pytest.mark.parametrize("mode", ["pca_only", "pca_then_ica"])
    def test_frame_with_fewer_channels_than_retained_fails_at_pca(self, mode):
        frame = SignalMatrix(np.random.default_rng(0).standard_normal((1000, 3)), 1000.0)
        components, result = process_frame(frame, PipelineConfig(retained_components=4, mode=mode))
        assert components is None
        assert result.stage == "pca"
        assert result.error.startswith("DimensionError:")

    @pytest.mark.parametrize("mode", pipeline.MODES)
    @pytest.mark.parametrize("channels", range(1, 6))
    @pytest.mark.parametrize("retained", [None, 1, 2, 3, 4, 5])
    def test_up_front_checks_agree_with_frame_stages(self, mode, channels, retained):
        # run_pipeline refuses up front exactly the configs whose every frame fails at
        # pca or whiten, at decimated frame lengths 1, 2, channels - 1, channels and 100
        for decimated_len in sorted({1, 2, channels - 1, channels, 100} - {0}):
            frame_len = 10 * decimated_len  # decimated by the default 10
            samples = np.random.default_rng(channels).standard_normal((2 * frame_len, channels))
            signal = SignalMatrix(samples, 1000.0)
            config = PipelineConfig(frame_len=frame_len, retained_components=retained, mode=mode)
            frames = frame_signal(signal, frame_len)
            results = [process_frame(f, config, i)[1] for i, f in enumerate(frames)]
            try:
                run_pipeline(signal, config)
                refused = False
            except (DimensionError, InsufficientDataError):
                refused = True
            assert {r.stage in ("pca", "whiten") for r in results} == {refused}, decimated_len

    @pytest.mark.parametrize("n", [10, 9999])
    def test_signal_shorter_than_a_frame_rejected(self, n):
        sig = SignalMatrix(np.zeros((n, 4)), 1000.0)
        message = f"frame_len 10000 exceeds the signal's {n} samples; no whole frame to process"
        with pytest.raises(InsufficientDataError, match=re.escape(message)):
            run_pipeline(sig, PipelineConfig())

    @pytest.mark.parametrize("n,warnings", [
        (20000, []),
        (20001, ["the last 1 of 20001 samples fill no whole frame of 10000 and were not processed"]),
        (29999, ["the last 9999 of 29999 samples fill no whole frame of 10000 and were not processed"]),
        (10000, []),
    ])
    def test_unprocessed_tail_warns(self, n, warnings):
        mixture, _ = default_scenario(n=n, seed=0)
        _, report = run_pipeline(mixture, PipelineConfig())
        assert len(report.frames) == n // 10000
        assert report.warnings == warnings

    def test_package_errors_recorded_per_frame(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateComponentError("unmixing update became rank-deficient", component=1)

        monkeypatch.setattr(pipeline, "fit_fastica", degenerate)
        mixture, _ = default_scenario(n=25000, seed=1)
        components, report = run_pipeline(mixture, PipelineConfig())
        assert components == [None, None]
        assert [f.stage for f in report.frames] == ["ica", "ica"]
        assert all(f.error.startswith("DegenerateComponentError:") for f in report.frames)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("fit_pca() got an unexpected keyword argument")

        monkeypatch.setattr(pipeline, "fit_pca", broken)
        mixture, _ = default_scenario(n=25000, seed=1)
        with pytest.raises(TypeError):
            run_pipeline(mixture, PipelineConfig())

    def test_report_json_serializable_with_expected_keys(self):
        mixture, truth = default_scenario(n=25000, seed=5)
        _, report = run_pipeline(mixture, PipelineConfig(), truth)
        payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert set(payload) == {"config", "frames", "warnings", "n_frames", "total_seconds"}
        frame = payload["frames"][0]
        for key in ("eigenvalues", "explained_variance", "W", "A_est", "convergence", "matching"):
            assert frame[key] is not None
        assert len(frame["eigenvalues"]) == 4
        assert len(frame["W"]) == 2
        assert list(frame["convergence"]) == [f.name for f in fields(ConvergenceReport)]
        assert list(frame["matching"]) == [f.name for f in fields(SeparationReport)]


def _shift_cases():
    rng = np.random.default_rng(26)
    x = rng.standard_normal((1000, 4)) * 1e3 + np.array([1e4, -2.0, 0.0, 5.0])
    x[0, 2] = 0.0
    x[1::7, 2] = -0.0  # -0.0 - 0.0 keeps its sign bit
    x[3::5, 0] = x[0, 0]  # rows equal to the first give +0.0
    whole = SignalMatrix(x, 1000.0)
    return {
        "contiguous": whole,
        "decimated": decimate(whole, 10),
        "one_row": SignalMatrix(x[:1], 1000.0),
        "one_channel": SignalMatrix(x[:, 2:3], 1000.0),
    }


class TestFromFirstSample:
    @pytest.mark.parametrize("case", ["contiguous", "decimated", "one_row", "one_channel"])
    def test_bit_equal_to_the_broadcast_subtraction(self, case):
        frame = _shift_cases()[case]
        expected = frame.samples - frame.samples[0]
        out = pipeline._from_first_sample(frame)
        assert np.array_equal(out.samples, expected)
        assert np.array_equal(np.signbit(out.samples), np.signbit(expected))
        assert out.samples.flags.c_contiguous and not out.samples.flags.writeable
        assert (out.sample_rate_hz, out.channel_labels) == (frame.sample_rate_hz, frame.channel_labels)

    def test_overflow_gives_inf_without_a_warning_and_fails_at_preprocess(self):
        x = np.zeros((10000, 4))
        x[0, 1], x[20, 1] = 1.5e308, -1.5e308  # rows decimation keeps
        frame = SignalMatrix(x, 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pipeline._from_first_sample(frame)
            comp, result = process_frame(frame, PipelineConfig(), 0)
        assert out.samples[20, 1] == -np.inf
        assert np.isfinite(np.delete(out.samples, 20, axis=0)).all()
        assert comp is None and result.stage == "preprocess"
        assert result.error == "InvalidInputError: samples contains non-finite entries"


class TestValidatedOnce:
    """The stages take a SignalMatrix's samples as checked when it was built,
    and still check every other array a caller passes."""

    @pytest.mark.parametrize("mode", ["pca_then_ica", "ica_only"])
    def test_three_check_matrix_scans_per_frame(self, monkeypatch, mode):
        # the k x p dewhitening, the PCA covariance and FastICA's random start
        mixture, truth = default_scenario(n=10000, seed=5)
        names, check_matrix = [], linalg.check_matrix

        def counted(data, name="matrix"):
            names.append(name)
            return check_matrix(data, name)

        for module in (cli, dsp, fastica, linalg, metrics, pca, pipeline, synth):
            if "check_matrix" in vars(module):
                monkeypatch.setattr(module, "check_matrix", counted)
        _, result = process_frame(mixture, PipelineConfig(mode=mode), 0, truth)
        assert result.ok and result.matching is not None
        assert sorted(names) == ["dewhitening", "m", "m"]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _frame():
        """(white, ica, truth) of one frame, white and truth as SignalMatrix values."""
        mixture, truth = default_scenario(n=10000, seed=5)
        config = PipelineConfig()
        processed = pipeline._preprocess(mixture, config)
        white, _, _ = pca.whiten(pca.fit_pca(processed), processed, 2)
        white = SignalMatrix(white, processed.sample_rate_hz)
        return white, fastica.fit_fastica(white), decimate(truth, config.decimation_factor)

    @staticmethod
    def _run(stage, white, ica, truth):
        """stage's result on white (and truth), as bytes or the report's repr."""
        if stage == "fit_fastica":
            model = fastica.fit_fastica(white, IcaConfig(seed=3))
            return model.unmixing.tobytes(), model.mixing_estimate.tobytes(), model.convergence
        if stage == "separate":
            return fastica.separate(ica, white).tobytes()
        return repr(metrics.match_components(white, truth))

    @pytest.mark.parametrize("stage", ["fit_fastica", "separate", "match_components"])
    def test_signal_matrix_and_its_samples_give_equal_bits(self, stage):
        white, ica, truth = self._frame()
        expected = self._run(stage, white, ica, truth)
        assert self._run(stage, white.samples, ica, truth.samples) == expected

    @pytest.mark.parametrize("bad,message", [(np.nan, "contains non-finite entries"),
                                             (1j, "is complex")], ids=["nan", "complex"])
    @pytest.mark.parametrize("stage,argument", [("fit_fastica", "white"), ("separate", "white"),
                                                ("match_components", "estimated"),
                                                ("match_components", "truth")])
    def test_bad_array_refused(self, stage, argument, bad, message):
        white, ica, truth = self._frame()
        x, y = white.samples, truth.samples
        spoiled = (y if argument == "truth" else x) + 0 * bad  # complex for 1j
        spoiled[3, 1] = bad
        if argument == "truth":
            y = spoiled
        else:
            x = spoiled
        with pytest.raises(InvalidInputError, match=f"^{argument} {message}"):
            self._run(stage, x, ica, y)


class TestDeterminismAndFrameIndependence:
    def test_identical_runs_identical_reports(self):
        mixture, truth = default_scenario(n=25000, seed=8)
        comps_a, report_a = run_pipeline(mixture, PipelineConfig(), truth)
        comps_b, report_b = run_pipeline(mixture, PipelineConfig(), truth)
        assert strip_timings(report_a.to_dict()) == strip_timings(report_b.to_dict())
        for a, b in zip(comps_a, comps_b):
            assert np.array_equal(a.samples, b.samples)

    def test_frames_independent_of_processing_order(self):
        mixture, _ = default_scenario(n=25000, seed=9)
        config = PipelineConfig()
        _, report = run_pipeline(mixture, config)

        frames = frame_signal(mixture, config.frame_len)
        # process frame 1 before frame 0; results must match the in-order run
        for idx in (1, 0):
            comp, result = process_frame(frames[idx], config, idx)
            assert result.W == report.frames[idx].W
            assert result.convergence == report.frames[idx].convergence


@functools.lru_cache(maxsize=None)
def _mixture(seed):
    return default_scenario(n=20000, seed=seed)[0].samples


def _components(samples, position):
    components, report = run_pipeline(
        SignalMatrix(samples, 1000.0), PipelineConfig(filter_position=position)
    )
    assert len(components) == 2 and not report.any_frame_failed
    return np.stack([c.samples for c in components])


class TestMetamorphic:
    """What must not change the separated components (each of unit variance).

    Tolerance 1e-9 absolute throughout. Offsets of up to 1e4 round each
    sample by up to eps * 1e4, about 2e-12, and the channel order changes
    the order of the Jacobi rotations; the largest deviation seen was 6e-12
    (seeds 0-5, both filter positions). Overall gains of either sign from
    1e-100 to 1e100 moved the components by at most 6.2e-14 (seeds 0-3,
    both positions), 1e80 included: there the squares of the covariance's
    entries overflow, which sym_eigen's stopping threshold must survive.
    """

    @settings(max_examples=10)
    @given(
        seed=st.integers(0, 3),
        position=st.sampled_from(("after_decimate", "before_decimate")),
        offsets=st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=4),
    )
    def test_invariant_to_per_channel_dc_offsets(self, seed, position, offsets):
        x = _mixture(seed)
        shifted = _components(x + np.array(offsets), position)
        assert np.abs(shifted - _components(x, position)).max() <= 1e-9

    @settings(max_examples=10)
    @given(
        seed=st.integers(0, 3),
        position=st.sampled_from(("after_decimate", "before_decimate")),
        order=st.permutations(range(4)),
    )
    def test_invariant_to_channel_permutation(self, seed, position, order):
        x = _mixture(seed)
        permuted = _components(x[:, order], position)
        assert np.abs(permuted - _components(x, position)).max() <= 1e-9

    @settings(max_examples=10)
    @given(
        seed=st.integers(0, 3),
        position=st.sampled_from(("after_decimate", "before_decimate")),
        exponent=st.floats(-3.0, 3.0) | st.floats(-100.0, 100.0),
        sign=st.sampled_from((-1.0, 1.0)),
    )
    @example(seed=0, position="after_decimate", exponent=80.0, sign=1.0)
    def test_invariant_to_overall_gain(self, seed, position, exponent, sign):
        x = _mixture(seed)
        scaled = _components(x * (sign * 10.0**exponent), position)
        assert np.abs(scaled - _components(x, position)).max() <= 1e-9


class TestCsvIO:
    def test_round_trip_exact(self, rng, tmp_path):
        samples = rng.standard_normal((50, 3)) * np.array([1e-7, 1.0, 1e9])
        sig = SignalMatrix(samples, 997.5, ("left", "right", "aux"))
        path = tmp_path / "sig.csv"
        write_csv(sig, path)
        back = read_csv(path)
        assert np.array_equal(back.samples, sig.samples)
        assert back.sample_rate_hz == sig.sample_rate_hz
        assert back.channel_labels == sig.channel_labels

    @pytest.mark.parametrize("labels, bad", [
        (("a,b", "c"), "a,b"),
        (("a\nb", "c"), "a\nb"),
        (("a\rb", "c"), "a\rb"),
        (("a", " c"), " c"),
        (("a", 3), 3),
        (("#a", "c"), "#a"),
        (("",), ""),
        (("1", "2e3"), "1"),
    ])
    def test_label_that_would_not_read_back_rejected(self, tmp_path, labels, bad):
        path = tmp_path / "sig.csv"
        sig = SignalMatrix(np.zeros((3, len(labels))), 100.0, labels)
        with pytest.raises(InvalidInputError, match=re.escape(repr(bad))):
            write_csv(sig, path)
        assert not path.exists()

    @pytest.mark.parametrize("labels", [("Δz_µΩ", "c"), ("a", "#b"), ("", ""), ("x y", "c")])
    def test_labels_round_trip(self, tmp_path, labels):
        path = tmp_path / "sig.csv"
        write_csv(SignalMatrix(np.ones((3, len(labels))), 100.0, labels), path)
        assert read_csv(path).channel_labels == labels

    def test_rate_comment_parsed(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# rate_hz=1000\nch1,ch2\n1.0,2.0\n3.5,-4.0\n")
        sig = read_csv(path)
        assert sig.sample_rate_hz == 1000.0
        assert sig.samples.tolist() == [[1.0, 2.0], [3.5, -4.0]]

    def test_missing_rate_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("ch1\n1.0\n")
        with pytest.raises(CsvFormatError):
            read_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# rate_hz=100\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line_number == 2

    def test_ragged_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# rate_hz=100\nch1,ch2\n1.0,2.0\n3.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line_number == 4

    def test_non_numeric_cell_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# rate_hz=100\nch1,ch2\n1.0,2.0\nfoo,4.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line_number == 4

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_rejected_with_line_number(self, tmp_path, cell):
        path = tmp_path / "in.csv"
        path.write_text(f"# rate_hz=100\nch1,ch2\n1.0,2.0\n{cell},4.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line_number == 4
        assert repr(cell) in str(err.value)

    def test_non_finite_cell_located_past_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# rate_hz=100\n\nch1,ch2\n1.0,2.0\n# note\n\n3.0,-inf\n5.0,6.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line_number == 7

    @pytest.mark.parametrize("text", [
        "# rate_hz=100\nch1,ch2\n1.0,2.0\n",
        "ch1,ch2\n# rate_hz=100\n1.0,2.0\n",
    ], ids=["before_comment", "before_header"])
    def test_byte_order_mark_skipped(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text("\ufeff" + text, encoding="utf-8")
        sig = read_csv(path)
        assert sig.channel_labels == ("ch1", "ch2")
        assert sig.sample_rate_hz == 100.0
        assert np.array_equal(sig.samples, [[1.0, 2.0]])

    @pytest.mark.parametrize("rate", ["abc", "0", "-5", "nan", "inf", "1_000"])
    def test_bad_rate_rejected_at_its_line(self, tmp_path, rate):
        path = tmp_path / "in.csv"
        path.write_text(f"# source=lab\n\n# rate_hz={rate}\nch1,ch2\n1.0,2.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line_number == 3
        assert repr(rate) in str(err.value)

    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 4),
        data=st.data(),
    )
    def test_round_trip_exact_for_any_finite_float(self, tmp_path, rows, cols, data):
        edge = st.sampled_from([
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
        ])
        cell = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
        samples = np.array(
            data.draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
        ).reshape(rows, cols)
        path = tmp_path / "sig.csv"
        write_csv(SignalMatrix(samples, 1000.0), path)
        back = read_csv(path).samples
        assert back.shape == samples.shape
        assert np.array_equal(back.view(np.uint64), samples.view(np.uint64))  # -0.0 kept

    def test_comments_crlf_and_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(
            b"ch1,ch2\r\n  \r\n# rate_hz=250\r\n1.5, -2\r\n\t\r\n# note\r\n3,4e-3 \r\n"
        )
        sig = read_csv(path)
        assert sig.sample_rate_hz == 250.0
        assert sig.channel_labels == ("ch1", "ch2")
        assert sig.samples.tolist() == [[1.5, -2.0], [3.0, 4e-3]]

    @pytest.mark.parametrize("text,line,message", [
        ("ch1,ch2\n# rate_hz=abc\n1.0,2.0\n", 2, "rate_hz must be a finite number > 0, got 'abc'"),
        ("# rate_hz=100\r\nch1,ch2\r\n\r\n1.0,2.0\r\n3.0,foo\r\n", 5, "non-numeric cell 'foo'"),
        ("# rate_hz=100\nch1,ch2\n1.0,2.0\n4.0 # x,5.0\n", 4, "non-numeric cell '4.0 # x'"),
        ("# rate_hz=100\nch1,ch2\n1.0,2.0 # x\n", 3, "non-numeric cell '2.0 # x'"),
        ("# rate_hz=100\nch1,ch2\n1.0,2.0\n1_000,2.0\n", 4, "non-numeric cell '1_000'"),
        ("# rate_hz=100\nnan,inf\n1.0,2.0\n", 2, "expected a header row"),
        ("# rate_hz=100\nch1,ch2\n1.0,2.0,3.0\n4.0,5.0\n", 3, "expected 2 columns, found 3"),
        ("# rate_hz=100\nch1,ch2\n1.0,2.0,3.0\n4.0,5.0,6.0\n", 3, "expected 2 columns, found 3"),
        ("# rate_hz=100\nch1,ch2\n1.0,2.0\n3.0,\n", 4, "non-numeric cell ''"),
    ], ids=["rate-after-header", "crlf", "inline-hash", "trailing-hash", "underscore",
            "nan-inf-header", "wide-first-row", "all-rows-wide", "empty-cell"])
    def test_bad_input_rejected_at_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(CsvFormatError, match=re.escape(message)) as err:
            read_csv(path)
        assert err.value.line_number == line

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# rate_hz=100\nch1,ch2\n")
        with pytest.raises(CsvFormatError):
            read_csv(path)

    def test_large_file_parses_in_bounded_memory(self, tmp_path):
        n = 100000
        rng = np.random.default_rng(1)
        sig = SignalMatrix(rng.standard_normal((n, 4)), 1000.0)
        path = tmp_path / "big.csv"
        write_csv(sig, path)

        tracemalloc.start()
        back = read_csv(path)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert back.samples.shape == (n, 4)
        data_bytes = back.samples.nbytes
        # streaming parse: peak well below the ~20x of a read-all-text approach
        assert peak < 5 * data_bytes + 10 * 1024 * 1024


def _read_outcome(reader, path):
    """What reader makes of path: the signal's sample bytes, labels and rate, or
    the exception's type, message and line number."""
    try:
        sig = reader(path)
    except Exception as exc:  # noqa: BLE001 - both readers must fail alike
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return sig.samples.shape, sig.samples.tobytes(), sig.channel_labels, sig.sample_rate_hz


_EXTRA_LINES = ["# note=x", "# plain note", "#", "  # source = lab ", "", " ", "\t", " \t ", "\x0c"]
_GOOD_RATES = ["1000.0", "250", " 44.1 ", "1e3"]
_BAD_RATES = ["abc", "0", "-5", "nan", "inf", "1_000", ""]
_ODD_CELLS = ["1_000", "4.0 # note", "nan", "inf", "-inf", "1e999", "abc", "", " 1.5 ", "-0.0", "+2"]


@st.composite
def _csv_files(draw):
    """CSV text as the reader meets it: a header (or a numeric one, or none), rows
    of %.17g cells with odd cells and ragged rows mixed in, and comment, blank,
    whitespace-only and rate_hz lines anywhere, with LF or CRLF and a BOM or not.
    Each kind of fault, an empty body among them, is drawn about one time in
    three, so about a quarter of the files take the stream path."""
    sometimes = st.integers(0, 2).map(lambda v: v == 2)  # shrinks toward no fault
    n_cols = draw(st.integers(1, 3))
    good = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}")
    cell = st.one_of(good, st.sampled_from(_ODD_CELLS)) if draw(sometimes) else good
    widths = (max(1, n_cols - 1), n_cols + 1) if draw(sometimes) else (n_cols, n_cols)
    row = st.lists(cell, min_size=widths[0], max_size=widths[1])
    header = draw(st.sampled_from(["numeric", "none"])) if draw(sometimes) else "labels"
    lines = {
        "labels": [",".join(f"ch{i + 1}" for i in range(n_cols))],
        "numeric": [",".join(["1.0"] * n_cols)],
        "none": [],
    }[header]
    rows = draw(st.lists(row, min_size=0 if draw(sometimes) else 1, max_size=4))
    lines += [",".join(cells) for cells in rows]
    extras = draw(st.lists(st.sampled_from(_EXTRA_LINES), max_size=3)) if draw(sometimes) else []
    for extra in extras:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if not draw(sometimes):  # rate_hz missing one time in three
        rate = draw(st.sampled_from(_BAD_RATES if draw(sometimes) else _GOOD_RATES))
        at = draw(st.integers(0, len(lines))) if draw(sometimes) else 0
        lines.insert(at, f"# rate_hz={rate}")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.booleans()) else "") + text


class TestCsvReaderPaths:
    """read_csv streams the data rows into numpy's parser and falls back to a
    line scan; both must give what the line scan alone gave."""

    @settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_csv_files())
    @example(text="# rate_hz=100\nch1,ch2\n1.0,2.0\n# note=x\n\n3.0,4.0\n")
    @example(text="# rate_hz=100\r\nch1,ch2\r\n1.0,2.0\r\n \r\n3.0,4.0\r\n# rate_hz=50\r\n")
    @example(text="\ufeff# rate_hz=100\nch1\n1.0\n\t\n2.0\n")
    @example(text="# rate_hz=100\nch1,ch2\n")
    @example(text="# rate_hz=100\nch1,ch2\n\n\n")
    @example(text="ch1,ch2\n1.0,2.0\n")
    def test_same_result_as_line_scan(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_outcome(read_csv, path) == _read_outcome(read_csv_reference, path)

    @staticmethod
    def _count_walks(monkeypatch) -> list:
        """A list that gains one entry each time a _CsvLines walk starts."""
        walks, walk = [], pipeline._CsvLines.__iter__

        def counted(lines):
            walks.append(lines)
            return walk(lines)

        monkeypatch.setattr(pipeline._CsvLines, "__iter__", counted)
        return walks

    @pytest.mark.parametrize("kind", ["mixture", "truth", "one_column", "one_row"])
    def test_written_files_never_enter_the_line_scan(self, tmp_path, monkeypatch, kind):
        mixture, truth = default_scenario(n=3000, seed=2)
        sig = {
            "mixture": mixture,
            "truth": truth,
            "one_column": SignalMatrix(mixture.samples[:, :1], 250.0, ("z",)),
            "one_row": SignalMatrix(mixture.samples[:1], 1000.0),
        }[kind]
        path = tmp_path / "sig.csv"
        write_csv(sig, path)

        walks = self._count_walks(monkeypatch)
        back = read_csv(path)
        assert len(walks) == 1, "a file written by write_csv took the line scan"
        assert back.samples.tobytes() == sig.samples.tobytes()
        assert back.channel_labels == sig.channel_labels
        assert back.sample_rate_hz == sig.sample_rate_hz

    @pytest.mark.parametrize("text", [
        "# rate_hz=100\nch1,ch2\n# note=x\n1.0,2.0\n3.0,4.0\n",  # a comment after the header
        "ch1,ch2\n# rate_hz=100\n1.0,2.0\n3.0,4.0\n",  # rate_hz only after the header
        "# rate_hz=100\nch1,ch2\n1.0,2.0\n \t\n3.0,4.0\n",  # a whitespace-only row
    ])
    def test_legal_files_numpy_refuses_take_the_line_scan(self, tmp_path, monkeypatch, text):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        walks = self._count_walks(monkeypatch)
        back = read_csv(path)
        assert len(walks) == 2
        assert back.samples.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert back.channel_labels == ("ch1", "ch2") and back.sample_rate_hz == 100.0
