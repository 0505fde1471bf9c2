"""Pinned outcomes of the default pipeline on degenerate, real-shaped input.

Each row runs one scenario from tests/scenarios.py through run_pipeline with
the default config, in ica_only and in pca_then_ica (the real-shaped rows in
both filter positions too), and pins what happens: the failed frames grouped
by stage and exception type, and the least |rho| of a matched component
against truth (for the degenerate rows in pca_then_ica only). A change that
moves a row states it in CHANGES.md.
"""
import collections
import functools

import numpy as np
import pytest

from ebiunmix.pipeline import FILTER_POSITIONS, PipelineConfig, run_pipeline

from scenarios import DEAD_KINDS, dc_baselines, dead_column, scaled_column, unequal_noise

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


@pytest.mark.parametrize("mode", ["ica_only", "pca_then_ica"])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_degenerate_input_outcome(scenario, mode):
    mixture, truth = SCENARIOS[scenario](SEED, N)
    _, report = run_pipeline(mixture, PipelineConfig(mode=mode), truth)
    assert len(report.frames) == 6
    failed = collections.Counter(
        f"{frame.stage}/{frame.error.split(':')[0]}" for frame in report.frames if not frame.ok
    )
    ica_only_failed, least_rho = EXPECTED[scenario]
    if mode == "ica_only":
        assert dict(failed) == ica_only_failed
    else:
        assert not failed
        rho = min(abs(r) for frame in report.frames for r in frame.matching["correlations"])
        assert rho == pytest.approx(least_rho, abs=1e-4)


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
