"""Blind separation of cardiac and respiratory components from multichannel
electrical bio-impedance recordings: framing, decimation, Butterworth
low-pass, PCA whitening, and FastICA, plus a synthetic-signal generator and
separation-quality metrics."""

from .dsp import (
    BiquadCoefficients,
    SignalMatrix,
    apply_filter,
    decimate,
    design_butterworth_lp2,
    frame_signal,
    frequency_response,
)
from .fastica import (
    ConvergenceReport,
    IcaConfig,
    IcaModel,
    fit_fastica,
    separate,
)
from .linalg import (
    SvdResult,
    SymEigen,
    svd,
    sym_eigen,
)
from .metrics import SeparationReport, amari_index, match_components
from .pca import PcaModel, explained_variance, fit_pca, project, whiten
from .pipeline import (
    FrameResult,
    PipelineConfig,
    RunReport,
    process_frame,
    read_csv,
    run_pipeline,
    write_csv,
)
from .synth import (
    default_scenario,
    effective_sources,
    gen_cardiac,
    gen_respiratory,
    mix,
)

__version__ = "0.1.0"

__all__ = [
    "BiquadCoefficients",
    "ConvergenceReport",
    "FrameResult",
    "IcaConfig",
    "IcaModel",
    "PcaModel",
    "PipelineConfig",
    "RunReport",
    "SeparationReport",
    "SignalMatrix",
    "SvdResult",
    "SymEigen",
    "amari_index",
    "apply_filter",
    "decimate",
    "default_scenario",
    "design_butterworth_lp2",
    "effective_sources",
    "explained_variance",
    "fit_fastica",
    "fit_pca",
    "frame_signal",
    "frequency_response",
    "gen_cardiac",
    "gen_respiratory",
    "match_components",
    "mix",
    "process_frame",
    "project",
    "read_csv",
    "run_pipeline",
    "separate",
    "svd",
    "sym_eigen",
    "whiten",
    "write_csv",
]
