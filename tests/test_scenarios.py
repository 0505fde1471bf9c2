"""Pinned outcomes of the default pipeline on degenerate, real-shaped input.

Each row runs one scenario from tests/scenarios.py through run_pipeline with
the default config, in ica_only and in pca_then_ica, and pins what happens:
the failed frames grouped by stage and exception type, and in pca_then_ica
the least |rho| of a matched component against truth. A change that moves
a row states it in CHANGES.md.
"""
import collections
import functools

import pytest

from ebiunmix.pipeline import PipelineConfig, run_pipeline

from scenarios import DEAD_KINDS, dead_column, scaled_column

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
