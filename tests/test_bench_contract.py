"""The names and call shapes the benchmark's tracer relies on (perfbench/spans.py).

The benchmark rebinds functions by name at run time and reads their
arguments by position, so a rename or a changed signature would break it
without failing any other test. This file only reads perfbench/spans.py.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from ebiunmix import cli
from ebiunmix.pipeline import PipelineConfig, process_frame, run_pipeline
from ebiunmix.synth import default_scenario

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves(spans):
    for module_name, attr, _, _ in spans.TRACE_POINTS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"


def test_process_frame_takes_frame_index_third():
    params = list(inspect.signature(process_frame).parameters.values())
    assert params[2].name == "frame_index"
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_capture_reads_every_frame(spans):
    mixture, truth = default_scenario(n=25000, seed=0)
    capture = spans.Capture()
    with spans.hooks(capture.wrap):
        components, report = run_pipeline(mixture, PipelineConfig(), truth)
    assert not report.any_frame_failed
    assert sorted(capture.frames) == [0, 1]
    for idx, comp in enumerate(components):
        kept = capture.frames[idx]
        assert set(kept) == {"filter", "pca", "ica", "sources"}
        assert np.array_equal(kept["sources"], comp.samples)
        assert kept["filter"][3].shape == kept["filter"][0].shape


def test_tracer_counts_one_pass(spans):
    mixture, _ = default_scenario(n=25000, seed=0)
    tracer = spans.Tracer()
    with tracer.traced_pass(0) as root:
        root(lambda: run_pipeline(mixture, PipelineConfig()))
    counts = tracer.pass_summary(0)["counts"]
    assert counts["pipeline.frames"] == 2
    assert counts["dsp.filter_samples"] == 2 * 1000 * 4
    assert counts["fastica.iterations"] > 0


def test_tracer_counts_csv_rows_read(spans, tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out-dir", str(data), "--stem", "s", "--n", "12000"]) == 0
    inputs = [data / "s_mixture.csv", data / "s_truth.csv"]
    argv = ["run", "--input", str(inputs[0]), "--truth", str(inputs[1]),
            "--out-dir", str(tmp_path / "out")]
    tracer = spans.Tracer()
    with tracer.traced_pass(0) as root:
        assert root(lambda: cli.main(argv)) == 0
    # each file: one rate comment, one header, then one line per row
    rows = sum(len(path.read_text().splitlines()) - 2 for path in inputs)
    assert rows == 2 * 12000
    assert tracer.pass_summary(0)["counts"]["pipeline.read_csv_rows"] == rows
