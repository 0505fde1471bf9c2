"""Tests for the end-to-end pipeline and CSV round-tripping."""
import json
import tracemalloc

import numpy as np
import pytest

from ebiunmix import pipeline
from ebiunmix.dsp import SignalMatrix, frame_signal
from ebiunmix.errors import CsvFormatError, DegenerateComponentError, DimensionError
from ebiunmix.fastica import IcaConfig
from ebiunmix.pipeline import (
    PipelineConfig,
    process_frame,
    read_csv,
    run_pipeline,
    write_csv,
)
from ebiunmix.synth import default_scenario


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

    def test_filter_before_decimate(self):
        mixture, truth = default_scenario(n=25000, seed=6)
        config = PipelineConfig(filter_position="before_decimate")
        _, report = run_pipeline(mixture, config, truth)
        assert not report.any_frame_failed
        for frame in report.frames:
            assert min(abs(r) for r in frame.matching["correlations"]) >= 0.95

    def test_frame_error_recorded_and_other_frames_processed(self):
        mixture, _ = default_scenario(n=25000, seed=1)
        # 60 Hz cutoff is above the 50 Hz post-decimation Nyquist: every
        # frame fails at the preprocess stage but the run still completes
        config = PipelineConfig(cutoff_hz=60.0)
        components, report = run_pipeline(mixture, config)
        assert report.any_frame_failed
        assert len(report.frames) == 2
        for comp, frame in zip(components, report.frames):
            assert comp is None
            assert frame.stage == "preprocess"
            assert "cutoff" in frame.error

    def test_non_convergence_reported_not_fatal(self):
        mixture, _ = default_scenario(n=25000, seed=3)
        config = PipelineConfig(ica=IcaConfig(max_iterations=1))
        components, report = run_pipeline(mixture, config)
        assert not report.any_frame_failed
        assert all(not f.convergence["converged"] for f in report.frames)
        assert all(c is not None for c in components)

    def test_truth_length_mismatch_rejected(self):
        mixture, truth = default_scenario(n=25000, seed=0)
        short = SignalMatrix(truth.samples[:-1], truth.sample_rate_hz, truth.channel_labels)
        with pytest.raises(DimensionError):
            run_pipeline(mixture, PipelineConfig(), short)

    def test_too_few_channels_rejected(self):
        sig = SignalMatrix(np.random.default_rng(0).standard_normal((100, 1)), 100.0)
        with pytest.raises(DimensionError):
            run_pipeline(sig, PipelineConfig(retained_components=2))

    def test_short_signal_warns_and_produces_nothing(self):
        sig = SignalMatrix(np.zeros((10, 4)), 1000.0)
        components, report = run_pipeline(sig, PipelineConfig())
        assert components == []
        assert report.frames == []
        assert len(report.warnings) == 1
        assert "frame_len 10000 exceeds signal length 10" in report.warnings[0]

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
        payload = json.loads(json.dumps(report.to_dict()))
        assert set(payload) == {"config", "frames", "warnings", "n_frames", "total_seconds"}
        frame = payload["frames"][0]
        for key in ("eigenvalues", "explained_variance", "W", "A_est", "convergence", "matching"):
            assert frame[key] is not None
        assert len(frame["eigenvalues"]) == 4
        assert len(frame["W"]) == 2


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

    @pytest.mark.parametrize("rate", ["abc", "0", "-5", "nan"])
    def test_bad_rate_rejected_at_its_line(self, tmp_path, rate):
        path = tmp_path / "in.csv"
        path.write_text(f"# source=lab\n\n# rate_hz={rate}\nch1,ch2\n1.0,2.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line_number == 3
        assert repr(rate) in str(err.value)

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
