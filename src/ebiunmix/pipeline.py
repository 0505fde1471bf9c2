"""End-to-end processing pipeline and CSV I/O.

Per frame: decimate -> low-pass filter (before or after decimation, as
configured) -> PCA whitening with dimension reduction -> FastICA ->
canonically ordered components. When ground-truth sources are supplied they
are framed and decimated identically and each frame's components are scored
against them.

A stage failure inside one frame (any of the package's ValueError or
RuntimeError family) is recorded in the report (stage name plus message) and
the remaining frames still run; other exceptions propagate.

CSV format (also written by the synth generator):

    # rate_hz=1000.0
    ch1,ch2,ch3,ch4
    0.1,0.2,0.3,0.4
    ...

Comment lines are `# key=value` and must include rate_hz; the single header
row holds channel labels; every following row is one sample.
"""

import array
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dsp import SignalMatrix, apply_filter, decimate, design_butterworth_lp2, frame_signal
from .errors import CsvFormatError, DimensionError, InvalidInputError
from .fastica import IcaConfig, fit_fastica, separate
from .metrics import match_components
from .pca import explained_variance, fit_pca, project, whiten

FILTER_POSITIONS = ("after_decimate", "before_decimate")
MODES = ("pca_only", "ica_only", "pca_then_ica")


@dataclass(frozen=True)
class PipelineConfig:
    frame_len: int = 10000
    decimation_factor: int = 10
    cutoff_hz: float = 40.0
    filter_position: str = "after_decimate"
    retained_components: int = 2
    ica: IcaConfig = field(default_factory=IcaConfig)
    mode: str = "pca_then_ica"

    def __post_init__(self):
        if self.frame_len < 1:
            raise InvalidInputError(f"frame_len must be >= 1, got {self.frame_len}")
        if self.decimation_factor < 1:
            raise InvalidInputError(
                f"decimation_factor must be >= 1, got {self.decimation_factor}"
            )
        if not (self.cutoff_hz > 0):
            raise InvalidInputError(f"cutoff_hz must be > 0, got {self.cutoff_hz}")
        if self.filter_position not in FILTER_POSITIONS:
            raise InvalidInputError(
                f"filter_position must be one of {FILTER_POSITIONS}, got {self.filter_position!r}"
            )
        if self.retained_components < 1:
            raise InvalidInputError(
                f"retained_components must be >= 1, got {self.retained_components}"
            )
        if self.mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class FrameResult:
    """Everything recorded about one processed frame."""

    index: int
    stage: str | None = None  # name of the failed stage, None when clean
    error: str | None = None
    eigenvalues: list | None = None
    explained_variance: float | None = None
    retained: int | None = None
    W: list | None = None
    A_est: list | None = None
    convergence: dict | None = None
    matching: dict | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class RunReport:
    config: dict
    frames: list
    warnings: list = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def any_frame_failed(self) -> bool:
        return any(not f.ok for f in self.frames)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "frames": [asdict(f) for f in self.frames],
            "warnings": list(self.warnings),
            "n_frames": len(self.frames),
            "total_seconds": self.total_seconds,
        }


def run_pipeline(
    signal: SignalMatrix, config: PipelineConfig = PipelineConfig(), truth: SignalMatrix | None = None
) -> tuple[list[SignalMatrix], RunReport]:
    """Process every frame of `signal`; returns per-frame components and a report.

    Frames are independent: each uses ICA seed config.ica.seed + frame index,
    so results do not depend on processing order.
    """
    if signal.n_channels < config.retained_components:
        raise DimensionError(
            f"input has {signal.n_channels} channels, fewer than "
            f"retained_components={config.retained_components}"
        )
    t_start = time.perf_counter()
    report = RunReport(config=asdict(config), frames=[])

    frames = frame_signal(signal, config.frame_len)
    if not frames:
        report.warnings.append(
            f"frame_len {config.frame_len} exceeds signal length {signal.n_samples}; nothing to do"
        )
    truth_frames: list[SignalMatrix | None] = [None] * len(frames)
    if truth is not None:
        if truth.n_samples != signal.n_samples:
            raise DimensionError(
                f"truth has {truth.n_samples} samples, signal has {signal.n_samples}"
            )
        truth_frames = frame_signal(truth, config.frame_len)

    components = []
    for idx, frame in enumerate(frames):
        frame_components, result = process_frame(frame, config, idx, truth_frames[idx])
        components.append(frame_components)
        report.frames.append(result)

    report.total_seconds = time.perf_counter() - t_start
    return components, report


def process_frame(
    frame: SignalMatrix,
    config: PipelineConfig,
    frame_index: int = 0,
    truth_frame: SignalMatrix | None = None,
) -> tuple[SignalMatrix | None, FrameResult]:
    """Run the per-frame stages; never raises for stage failures.

    Returns (components, result) where components is None when a stage
    raised a ValueError or RuntimeError; the result then carries the stage
    name and error message.
    """
    result = FrameResult(index=frame_index)
    t0 = time.perf_counter()
    stage = "preprocess"
    try:
        processed = _preprocess(frame, config)
        truth_processed = (
            decimate(truth_frame, config.decimation_factor) if truth_frame is not None else None
        )

        stage = "pca"
        model = fit_pca(processed, retained=config.retained_components)
        result.eigenvalues = model.eigenvalues.tolist()

        if config.mode == "pca_only":
            k = model.retained
            result.retained = k
            result.explained_variance = explained_variance(model, k)
            scores = project(model, processed, k)
            out = SignalMatrix(
                scores, processed.sample_rate_hz, tuple(f"pc{i + 1}" for i in range(k))
            )
        else:
            # ica_only whitens at full rank, mirroring the "no PCA reduction" trial
            k = processed.n_channels if config.mode == "ica_only" else model.retained
            result.retained = k
            result.explained_variance = explained_variance(model, k)

            stage = "whiten"
            white, _, dewhitening = whiten(model, processed, k)

            stage = "ica"
            ica_config = replace(config.ica, seed=config.ica.seed + frame_index)
            ica = fit_fastica(white, ica_config, dewhitening=dewhitening)
            result.W = ica.unmixing.tolist()
            result.A_est = ica.mixing_estimate.tolist()
            result.convergence = ica.convergence.to_dict()

            sources = separate(ica, white)
            out = SignalMatrix(
                sources, processed.sample_rate_hz, tuple(f"ic{i + 1}" for i in range(k))
            )

        if truth_processed is not None:
            stage = "match"
            result.matching = match_components(out.samples, truth_processed.samples).to_dict()
    except (ValueError, RuntimeError) as exc:  # the package's error family
        result.stage = stage
        result.error = f"{type(exc).__name__}: {exc}"
        result.seconds = time.perf_counter() - t0
        return None, result

    result.seconds = time.perf_counter() - t0
    return out, result


def _preprocess(frame: SignalMatrix, config: PipelineConfig) -> SignalMatrix:
    if config.filter_position == "before_decimate":
        coeffs = design_butterworth_lp2(config.cutoff_hz, frame.sample_rate_hz)
        frame = apply_filter(frame, coeffs)
        return decimate(frame, config.decimation_factor)
    frame = decimate(frame, config.decimation_factor)
    coeffs = design_butterworth_lp2(config.cutoff_hz, frame.sample_rate_hz)
    return apply_filter(frame, coeffs)


# ---------------------------------------------------------------------------
# CSV I/O


def write_csv(signal: SignalMatrix, path) -> None:
    """Write a SignalMatrix; floats use %.17g so values round-trip exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# rate_hz={signal.sample_rate_hz!r}\n")
        fh.write(",".join(signal.channel_labels) + "\n")
        for row in signal.samples:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_csv(path) -> SignalMatrix:
    """Parse a SignalMatrix CSV, streaming line by line.

    Raises:
        CsvFormatError: missing rate_hz, missing header, ragged rows, or
            non-numeric cells; carries the 1-based line number.
    """
    meta: dict[str, str] = {}
    labels: tuple | None = None
    values = array.array("d")
    n_rows = 0
    n_cols = 0
    last_line = 0
    rate_line = 0

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            last_line = line_no
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                    if key.strip() == "rate_hz":
                        rate_line = line_no
                continue
            cells = [c.strip() for c in line.split(",")]
            if labels is None:
                if _all_numeric(cells):
                    raise CsvFormatError(
                        "expected a header row of channel labels, found numeric data",
                        line_number=line_no,
                    )
                labels = tuple(cells)
                n_cols = len(labels)
                continue
            if len(cells) != n_cols:
                raise CsvFormatError(
                    f"expected {n_cols} columns, found {len(cells)}", line_number=line_no
                )
            try:
                values.extend(float(c) for c in cells)
            except ValueError:
                bad = next(c for c in cells if not _is_numeric(c))
                raise CsvFormatError(f"non-numeric cell {bad!r}", line_number=line_no) from None
            n_rows += 1

    if "rate_hz" not in meta:
        raise CsvFormatError("missing required '# rate_hz=' comment", line_number=last_line)
    try:
        rate = float(meta["rate_hz"])
    except ValueError:
        rate = float("nan")
    if not (rate > 0):
        raise CsvFormatError(
            f"rate_hz must be a number > 0, got {meta['rate_hz']!r}", line_number=rate_line
        )
    if labels is None:
        raise CsvFormatError("missing header row", line_number=last_line)
    if n_rows == 0:
        raise CsvFormatError("no data rows", line_number=last_line)

    samples = np.frombuffer(values, dtype=float).reshape(n_rows, n_cols)
    return SignalMatrix(samples, rate, labels)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _all_numeric(cells) -> bool:
    return all(_is_numeric(c) for c in cells)
