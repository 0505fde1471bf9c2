"""Pinned outcomes of the default pipeline on degenerate, real-shaped input.

Each row runs one scenario from tests/scenarios.py through run_pipeline with
the default config, in ica_only and in pca_then_ica (the real-shaped rows in
both filter positions too), and pins what happens: the failed frames grouped
by stage and exception type, and the least |rho| of a matched component
against truth (for the degenerate rows in pca_then_ica only). The
correlated-source rows run default_scenario's correlation_injection and hold
each source's |rho| against the least-squares ceiling of any linear unmixer;
the model-violation rows (a delayed cardiac, a contact-drift third source) do
the same for the cardiac at 2 and 3 retained components. Four degenerate rows
also run through `ebi-unmix run --truth` from CSV files, which pins the exit
code next to the failed frames. A change that moves a row states it in
CHANGES.md.
"""
import collections
import functools
import json

import numpy as np
import pytest

from ebiunmix.cli import main
from ebiunmix.dsp import decimate, frame_signal
from ebiunmix.pipeline import (
    FILTER_POSITIONS,
    PipelineConfig,
    _preprocess,
    run_pipeline,
    write_csv,
)
from ebiunmix.synth import default_scenario

from oracles import ls_ceiling, pair_correlation
from scenarios import (
    DEAD_KINDS,
    contact_drift,
    dc_baselines,
    dead_column,
    delayed_cardiac,
    scaled_column,
    unequal_noise,
)

SEED, N = 7, 60_000  # 6 frames of the default 10 000 samples

SCENARIOS = {
    **{f"col{c}x1e{e}": functools.partial(scaled_column, column=c, gain=10.0**e)
       for e in (3, 4, 5) for c in range(4)},
    **{f"dead-{kind}": functools.partial(dead_column, kind=kind) for kind in DEAD_KINDS},
}

NOT_WHITE = "ica/NonWhiteInputError"
DEGENERATE = "whiten/DegenerateComponentError"

# scenario: (ica_only's failed frames, pca_then_ica's least |rho|); no
# pca_then_ica frame fails, since k = 2 never reaches the weak direction
EXPECTED = {
    "col0x1e3": ({}, 0.9968),
    "col1x1e3": ({}, 0.9969),
    "col2x1e3": ({}, 0.9966),
    "col3x1e3": ({}, 0.9970),
    "col0x1e4": ({NOT_WHITE: 4}, 0.9968),
    "col1x1e4": ({}, 0.9969),
    "col2x1e4": ({NOT_WHITE: 2}, 0.9966),
    "col3x1e4": ({NOT_WHITE: 5}, 0.9970),
    "col0x1e5": ({DEGENERATE: 6}, 0.9968),
    "col1x1e5": ({DEGENERATE: 6}, 0.9969),
    "col2x1e5": ({DEGENERATE: 6}, 0.9966),
    "col3x1e5": ({DEGENERATE: 6}, 0.9970),
    "dead-zeros": ({DEGENERATE: 6}, 0.9968),
    "dead-constant": ({DEGENERATE: 6}, 0.9968),
    "dead-copy": ({DEGENERATE: 6}, 0.9968),
    "dead-noise": ({DEGENERATE: 6}, 0.9968),
}


def _failed_groups(stage_errors) -> dict:
    """The failed frames counted by stage and exception type, from the
    (stage, error) pair of every frame."""
    return dict(collections.Counter(
        f"{stage}/{error.split(':')[0]}" for stage, error in stage_errors if error is not None))


@pytest.mark.parametrize("mode", ["ica_only", "pca_then_ica"])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_degenerate_input_outcome(scenario, mode):
    mixture, truth = SCENARIOS[scenario](SEED, N)
    _, report = run_pipeline(mixture, PipelineConfig(mode=mode), truth)
    assert len(report.frames) == 6
    failed = _failed_groups((frame.stage, frame.error) for frame in report.frames)
    ica_only_failed, least_rho = EXPECTED[scenario]
    if mode == "ica_only":
        assert failed == ica_only_failed
    else:
        assert not failed
        rho = min(abs(r) for frame in report.frames for r in frame.matching["correlations"])
        assert rho == pytest.approx(least_rho, abs=1e-4)


# scenario: the exit code of `ebi-unmix run --truth` in (ica_only, pca_then_ica).
# An exit of 2 is the library row's defect at the command line: ica_only fails
# frames on a channel at 1e4 or 1e5 times the gain, and on a dead channel, frame
# by frame instead of once up front.
EXPECTED_EXIT = {
    "col1x1e4": (0, 0),
    "col0x1e4": (2, 0),
    "col0x1e5": (2, 0),
    "dead-zeros": (2, 0),
}


@pytest.mark.parametrize("scenario", list(EXPECTED_EXIT))
def test_cli_exit_class(scenario, tmp_path):
    mixture, truth = SCENARIOS[scenario](SEED, N)
    write_csv(mixture, tmp_path / "mixture.csv")
    write_csv(truth, tmp_path / "truth.csv")
    ica_only_failed, _ = EXPECTED[scenario]
    for mode, code, expected_failed in zip(("ica_only", "pca_then_ica"), EXPECTED_EXIT[scenario],
                                           (ica_only_failed, {})):
        out = tmp_path / mode
        assert main(["run", "--input", str(tmp_path / "mixture.csv"),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--mode", mode, "--out-dir", str(out)]) == code
        frames = json.loads((out / "mixture_report.json").read_text())["frames"]
        assert len(frames) == 6
        assert _failed_groups((frame["stage"], frame["error"]) for frame in frames) == expected_failed


REAL_SHAPED = {
    "dc-1e1": functools.partial(dc_baselines, scale=10.0),
    "dc-1e4": functools.partial(dc_baselines, scale=1e4),
    "noise-unequal": functools.partial(unequal_noise, sigmas=(0.02, 0.05, 0.08, 0.1)),
}

# (scenario, filter_position): least |rho| in (ica_only, pca_then_ica); no
# frame fails. The DC rows are equal at both scales: the filter starts from
# each channel's first sample, and the baseline is gone before PCA.
EXPECTED_REAL_SHAPED = {
    ("dc-1e1", "after_decimate"): (0.9955, 0.9971),
    ("dc-1e1", "before_decimate"): (0.9855, 0.9861),
    ("dc-1e4", "after_decimate"): (0.9955, 0.9971),
    ("dc-1e4", "before_decimate"): (0.9855, 0.9861),
    ("noise-unequal", "after_decimate"): (0.9918, 0.9965),
    ("noise-unequal", "before_decimate"): (0.9849, 0.9859),
}


def _correlations(scenario, position, mode):
    mixture, truth = REAL_SHAPED[scenario](SEED, N)
    config = PipelineConfig(mode=mode, filter_position=position)
    _, report = run_pipeline(mixture, config, truth)
    assert len(report.frames) == 6
    assert all(frame.ok for frame in report.frames)
    return np.array([frame.matching["correlations"] for frame in report.frames])


@pytest.mark.parametrize("mode", ["ica_only", "pca_then_ica"])
@pytest.mark.parametrize("position", FILTER_POSITIONS)
@pytest.mark.parametrize("scenario", list(REAL_SHAPED))
def test_real_shaped_input_outcome(scenario, position, mode):
    rho = np.abs(_correlations(scenario, position, mode)).min()
    least_rho = EXPECTED_REAL_SHAPED[scenario, position][mode == "pca_then_ica"]
    assert rho == pytest.approx(least_rho, abs=1e-4)


@pytest.mark.parametrize("mode", ["ica_only", "pca_then_ica"])
@pytest.mark.parametrize("position", FILTER_POSITIONS)
def test_dc_baseline_scale_leaves_correlations(position, mode):
    np.testing.assert_allclose(_correlations("dc-1e4", position, mode),
                               _correlations("dc-1e1", position, mode), rtol=0, atol=1e-9)


CORRELATED_SEEDS, CORRELATED_N = (20, 21, 22), 100_000  # 30 frames of 10 000 samples
INJECTIONS = (0.0, 0.3, 0.6, 0.9)

# c: (r, the median per-frame |rho| between the truth columns; pca_then_ica's
# respiratory min and median; ica_only's respiratory median). ica_only's
# respiratory minimum (0.66-0.87 here) is the short-window failure, which does
# not move with c, and changes with the BLAS kernel, so it is not pinned.
EXPECTED_CORRELATED = {
    0.0: (0.0046, 0.9989, 0.9993, 0.9904),
    0.3: (0.1002, 0.9833, 0.9886, 0.9822),
    0.6: (0.1750, 0.9678, 0.9780, 0.9689),
    0.9: (0.2227, 0.9613, 0.9698, 0.9605),
}


@functools.cache
def _correlated(c):
    """Over the frames of every seed: the median r, and per frame the ceiling
    and each mode's |rho|, in truth column order (cardiac first)."""
    config = PipelineConfig()
    r, ceiling, rho = [], [], {"pca_then_ica": [], "ica_only": []}
    for seed in CORRELATED_SEEDS:
        mixture, truth = default_scenario(n=CORRELATED_N, seed=seed, correlation_injection=c)
        for frame, truth_frame in zip(frame_signal(mixture, config.frame_len),
                                      frame_signal(truth, config.frame_len)):
            t = decimate(truth_frame, config.decimation_factor).samples
            r.append(abs(pair_correlation(t[:, 0], t[:, 1])))
            ceiling.append(ls_ceiling(_preprocess(frame, config).samples, t))
        for mode, found in rho.items():
            found.extend(_rho_by_truth(mixture, PipelineConfig(mode=mode), truth))
    assert len(r) == 30
    return float(np.median(r)), np.array(ceiling), {m: np.array(v) for m, v in rho.items()}


def _rho_by_truth(mixture, config, truth):
    """Per frame, the |rho| of the component matched to each truth column, in
    column order; every frame must run clean."""
    _, report = run_pipeline(mixture, config, truth)
    assert all(frame.ok for frame in report.frames)
    rows = []
    for frame in report.frames:
        by_truth = dict(zip((j for _, j in frame.matching["assignment"]),
                            frame.matching["correlations"]))
        rows.append([abs(by_truth[j]) for j in range(truth.n_channels)])
    return rows


@pytest.mark.parametrize("c", INJECTIONS)
def test_correlated_sources_outcome(c):
    r, ceiling, rho = _correlated(c)
    pca_resp, ica_resp = rho["pca_then_ica"][:, 1], rho["ica_only"][:, 1]
    assert ceiling[:, 1].min() >= 0.999 and ceiling[:, 0].min() >= 0.995
    assert min(rho["pca_then_ica"][:, 0].min(), rho["ica_only"][:, 0].min()) >= 0.99
    # the components are uncorrelated, so one that follows the cardiac truth
    # leaves the other at most sqrt(1 - r^2) of the respiratory truth
    assert abs(np.median(pca_resp) - np.sqrt(1.0 - r * r)) <= 0.01
    assert np.median(ica_resp) >= 0.95
    found = (r, pca_resp.min(), np.median(pca_resp), np.median(ica_resp))
    assert found == pytest.approx(EXPECTED_CORRELATED[c], abs=1e-4)


def test_respiratory_falls_as_correlation_rises():
    medians = [np.median(_correlated(c)[2]["pca_then_ica"][:, 1]) for c in INJECTIONS]
    assert all(a > b for a, b in zip(medians, medians[1:]))


VIOLATION_SEEDS, VIOLATION_N = (13, 14, 15), 100_000  # 30 frames of 10 000 samples
VIOLATIONS = {
    "delay-0-30ms": functools.partial(delayed_cardiac, delays_ms=(0, 10, 20, 30)),
    "delay-0-90ms": functools.partial(delayed_cardiac, delays_ms=(0, 30, 60, 90)),
    "contact-drift": contact_drift,
}
FIGURES = ("k2 min", "k2 mean", "k3 min", "k3 mean", "ceiling min", "ceiling mean")

# violation: the cardiac figures over the frames of seeds 13-15, in FIGURES order
EXPECTED_VIOLATIONS = {
    "delay-0-30ms": (0.9143, 0.9164, 0.8747, 0.8805, 0.9973, 0.9976),
    "delay-0-90ms": (0.4102, 0.5056, 0.9810, 0.9817, 0.9865, 0.9872),
    "contact-drift": (0.0024, 0.8819, 0.9946, 0.9966, 0.9969, 0.9971),
}

# Bands fixed on seeds 10-12 before seeds 13-15 ran: each figure there +-0.02,
# except the k = 2 drift figures, which turn on the draw (its min was 0.216 on
# seeds 0-2 and 0.661 on 10-12): min in [0.1, 0.9], mean +-0.05.
BANDS = {
    "delay-0-30ms": ((0.894, 0.934), (0.896, 0.936), (0.855, 0.895), (0.861, 0.901),
                     (0.977, 1.0), (0.978, 1.0)),
    "delay-0-90ms": ((0.408, 0.448), (0.485, 0.525), (0.961, 1.0), (0.962, 1.0),
                     (0.967, 1.0), (0.967, 1.0)),
    "contact-drift": ((0.1, 0.9), (0.863, 0.963), (0.976, 1.0), (0.977, 1.0),
                      (0.977, 1.0), (0.977, 1.0)),
}
# The figures of seeds 13-15 that fell outside their band: in seed 15's frame
# 9, neither of the two components follows the cardiac (|rho| 0.002).
OUTSIDE_BAND = {"contact-drift": {"k2 min"}}


@functools.cache
def _violation(name):
    """The cardiac |rho| min and mean over the frames at k = 2 and k = 3, and
    the same of the least-squares ceiling."""
    config = PipelineConfig()
    rho, ceiling = {2: [], 3: []}, []
    for seed in VIOLATION_SEEDS:
        mixture, truth = VIOLATIONS[name](seed, VIOLATION_N)
        for k, found in rho.items():
            found.extend(row[0] for row in _rho_by_truth(
                mixture, PipelineConfig(retained_components=k), truth))
        for frame, truth_frame in zip(frame_signal(mixture, config.frame_len),
                                      frame_signal(truth, config.frame_len)):
            t = decimate(truth_frame, config.decimation_factor).samples
            ceiling.append(ls_ceiling(_preprocess(frame, config).samples, t)[0])
    assert len(ceiling) == 30
    return tuple(float(f(v)) for v in (rho[2], rho[3], ceiling) for f in (np.min, np.mean))


@pytest.mark.parametrize("name", list(VIOLATIONS))
def test_model_violation_outcome(name):
    found = _violation(name)
    assert found == pytest.approx(EXPECTED_VIOLATIONS[name], abs=1e-4)
    outside = {f for f, x, (lo, hi) in zip(FIGURES, found, BANDS[name]) if not lo <= x <= hi}
    assert outside == OUTSIDE_BAND.get(name, set())
