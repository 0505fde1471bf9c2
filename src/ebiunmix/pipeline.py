"""End-to-end processing pipeline and CSV I/O.

Per frame: decimate -> low-pass filter (before or after decimation, as
configured) -> PCA whitening with dimension reduction -> FastICA ->
canonically ordered components. Each channel is filtered relative to the
frame's first sample, so a DC baseline does not enter the zero-state filter
as a step. When ground-truth sources are supplied they are framed and
decimated identically and each frame's components are scored against them.

A cutoff the filter's rate cannot realise, a signal shorter than one frame, or
a decimated frame too short for PCA or whitening fails the run before framing.

A stage failure inside one frame (any of the package's ValueError or
RuntimeError family) is recorded in the report (stage name plus message) and
the remaining frames still run; other exceptions propagate.

CSV format (also written by the synth generator):

    # rate_hz=1000.0
    ch1,ch2,ch3,ch4
    0.1,0.2,0.3,0.4
    ...

`# key=value` comment lines may sit anywhere and must include rate_hz; blank
lines are skipped. The single header row holds channel labels; every
following row is one sample. Cells use numpy's float syntax (so no `1_000`),
and a `#` inside a row is an error, not a comment. write_csv refuses labels
that this header row would not read back as: a label with a comma, a line
break or surrounding whitespace, a first label starting with `#`, a lone
empty label, or labels that read as numbers.

read_csv streams the data rows from the open file into numpy's C parser once
the header is read. A file it cannot stream (a comment or whitespace-only line
after the header, rate_hz only after it, or a fault) is walked again line by
line: the same result, or the CsvFormatError of the first faulty line. The
writer lays out the %.17g text of a block of cells with whole-array numpy
operations, about 130 ns per cell against about 450 for CPython's per-cell
%.17g, which still formats zeros, subnormals, |x| <= 1e-6, |x| >= 1e17, inf
and nan (see write_csv).
"""

import functools
import itertools
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dsp import (
    BiquadCoefficients,
    SignalMatrix,
    apply_filter,
    decimate,
    design_butterworth_lp2,
    frame_signal,
)
from .errors import CsvFormatError, DimensionError, InsufficientDataError, InvalidInputError
from .fastica import IcaConfig, fit_fastica, separate
from .linalg import check_number
from .metrics import match_components
from .pca import (
    _check_sample_count,
    _check_whiten_count,
    explained_variance,
    fit_pca,
    project,
    whiten,
)

FILTER_POSITIONS = ("after_decimate", "before_decimate")
MODES = ("pca_only", "ica_only", "pca_then_ica")


@dataclass(frozen=True)
class PipelineConfig:
    frame_len: int = 10000
    decimation_factor: int = 10
    cutoff_hz: float = 40.0
    filter_position: str = "after_decimate"
    retained_components: int | None = None  # None: the mode's own dimension, see dimension()
    ica: IcaConfig = field(default_factory=IcaConfig)
    mode: str = "pca_then_ica"

    def __post_init__(self):
        for name in ("frame_len", "decimation_factor"):
            check_number(getattr(self, name), name, integral=True, at_least=1)
        if self.retained_components is not None:
            check_number(self.retained_components, "retained_components", integral=True, at_least=1)
        check_number(self.cutoff_hz, "cutoff_hz", above=0)
        if self.filter_position not in FILTER_POSITIONS:
            raise InvalidInputError(
                f"filter_position must be one of {FILTER_POSITIONS}, got {self.filter_position!r}"
            )
        if not isinstance(self.ica, IcaConfig):
            raise InvalidInputError(f"ica must be an IcaConfig, got {self.ica!r}")
        if self.mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {self.mode!r}")

    def dimension(self, n_channels: int) -> int:
        """Components whitened and separated: n_channels in ica_only (full
        rank), else retained_components, by default 2 (cardiac and respiratory).

        Raises:
            DimensionError: fewer channels than that (never in ica_only).
        """
        if self.mode == "ica_only":
            return n_channels
        k = 2 if self.retained_components is None else self.retained_components
        if k <= n_channels:
            return k
        raise DimensionError(f"input has {n_channels} channels, fewer than retained_components={k}")


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
        return {**asdict(self), "n_frames": len(self.frames)}


def run_pipeline(
    signal: SignalMatrix, config: PipelineConfig = PipelineConfig(), truth: SignalMatrix | None = None
) -> tuple[list[SignalMatrix], RunReport]:
    """Process every frame of `signal`; returns per-frame components and a report.

    Frames are independent: each uses ICA seed config.ica.seed + frame index,
    so results do not depend on processing order. Samples after the last
    whole frame are not processed; report.warnings says how many.
    retained_components left at None keeps 2 components in pca_only and
    pca_then_ica; ica_only always whitens at full rank, and report.warnings
    says so when retained_components is set to another dimension.

    Raises (once, before any frame runs):
        DimensionError: the signal has fewer channels than
            config.dimension() keeps (never in ica_only), or truth has a
            different number of samples.
        FilterDesignError: the cutoff is not below the Nyquist frequency of
            the rate the filter runs at.
        InsufficientDataError: the signal is shorter than one frame, or a
            decimated frame has fewer samples than fit_pca needs,
            max(channels, 2), or, where the mode whitens k components, than
            whiten needs, k + 1.
        InvalidInputError: truth is sampled at a different rate than signal.
    """
    _preflight(signal, config, truth)
    t_start = time.perf_counter()
    report = RunReport(config=asdict(config), frames=[])
    if config.mode == "ica_only" and config.retained_components not in (None, signal.n_channels):
        report.warnings.append(
            f"retained_components={config.retained_components} was not used: ica_only "
            f"whitens at full rank, {signal.n_channels} components"
        )

    frames = frame_signal(signal, config.frame_len)
    unprocessed = signal.n_samples - len(frames) * config.frame_len
    if unprocessed:
        report.warnings.append(
            f"the last {unprocessed} of {signal.n_samples} samples fill no whole frame of "
            f"{config.frame_len} and were not processed"
        )
    truth_frames = [None] * len(frames) if truth is None else frame_signal(truth, config.frame_len)

    components = []
    for idx, frame in enumerate(frames):
        frame_components, result = process_frame(frame, config, idx, truth_frames[idx])
        components.append(frame_components)
        report.frames.append(result)

    report.total_seconds = time.perf_counter() - t_start
    return components, report


def _preflight(signal: SignalMatrix, config: PipelineConfig, truth: SignalMatrix | None) -> None:
    """The checks that fail a run once, before any frame runs: the frame stages'
    own checks, and the truth's sample count and rate; see run_pipeline."""
    k = config.dimension(signal.n_channels)
    _lowpass(config, signal.sample_rate_hz)
    n = -(-config.frame_len // config.decimation_factor)
    counted = (f"frame_len {config.frame_len} decimated by {config.decimation_factor} leaves"
               " {} samples per frame")
    _check_sample_count(n, signal.n_channels, counted)
    if config.mode != "pca_only":
        _check_whiten_count(n, k, counted)
    if config.frame_len > signal.n_samples:
        raise InsufficientDataError(f"frame_len {config.frame_len} exceeds the signal's "
                                    f"{signal.n_samples} samples; no whole frame to process")
    if truth is not None:
        _check_pair(truth, signal, "truth", "signal")


def _check_pair(truth: SignalMatrix, signal: SignalMatrix, truth_name, signal_name) -> None:
    """The rule for scoring against a truth, whose refusals name both sides: as
    many samples as the signal (else DimensionError), at its rate (else InvalidInputError)."""
    if truth.n_samples != signal.n_samples:
        raise DimensionError(f"{truth_name} has {truth.n_samples} samples, "
                             f"{signal_name} has {signal.n_samples}")
    if truth.sample_rate_hz != signal.sample_rate_hz:
        raise InvalidInputError(f"{truth_name} is sampled at {truth.sample_rate_hz} Hz, "
                                f"{signal_name} at {signal.sample_rate_hz} Hz")


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

        stage = "pca"
        model = fit_pca(processed)
        result.eigenvalues = model.eigenvalues.tolist()
        # ica_only whitens at full rank, mirroring the "no PCA reduction" trial
        k = config.dimension(processed.n_channels)
        result.retained = k
        result.explained_variance = explained_variance(model, k)

        rate, labels = processed.sample_rate_hz, tuple(f"pc{i + 1}" for i in range(k))
        if config.mode == "pca_only":
            samples = project(model, processed, k)
        else:
            stage = "whiten"
            white, _, dewhitening = whiten(model, processed, k)
            white = SignalMatrix._derived(white, rate, labels)  # the whitened PC scores

            stage = "ica"
            ica_config = replace(config.ica, seed=config.ica.seed + frame_index)
            ica = fit_fastica(white, ica_config, dewhitening=dewhitening)
            result.W = ica.unmixing.tolist()
            result.A_est = ica.mixing_estimate.tolist()
            result.convergence = dict(vars(ica.convergence))

            samples, labels = separate(ica, white), tuple(f"ic{i + 1}" for i in range(k))
        out = SignalMatrix._derived(samples, rate, labels)

        if truth_frame is not None:
            stage = "match"
            truth = decimate(truth_frame, config.decimation_factor)
            result.matching = dict(vars(match_components(out, truth)))
    except (ValueError, RuntimeError) as exc:  # the package's error family
        result.stage = stage
        result.error = f"{type(exc).__name__}: {exc}"
        out = None
    result.seconds = time.perf_counter() - t0
    return out, result


def _lowpass(config: PipelineConfig, rate_hz: float) -> BiquadCoefficients:
    """The low-pass biquad for input at rate_hz, at the rate the filter runs at."""
    if config.filter_position == "after_decimate":
        rate_hz = rate_hz / config.decimation_factor
    return design_butterworth_lp2(config.cutoff_hz, rate_hz)


def _preprocess(frame: SignalMatrix, config: PipelineConfig) -> SignalMatrix:
    coeffs = _lowpass(config, frame.sample_rate_hz)
    # decimate keeps sample 0, so after_decimate subtracts the same first
    # sample from a frame a decimation factor shorter
    if config.filter_position == "before_decimate":
        return decimate(apply_filter(_from_first_sample(frame), coeffs), config.decimation_factor)
    return apply_filter(_from_first_sample(decimate(frame, config.decimation_factor)), coeffs)


def _from_first_sample(frame: SignalMatrix) -> SignalMatrix:
    """Each channel minus its first sample: the zero-state filter starts at rest.

    The output is a fresh C-ordered array, bit for bit samples - samples[0].
    It is filled one channel at a time, a subtract of one float along the
    samples: numpy's broadcast of a p-vector over n rows runs its inner loop
    once per row, p elements long, and costs about twice as much at p = 4.
    An entry that overflows becomes inf without a warning; the filter that
    follows rejects it.
    """
    x = frame.samples
    samples = np.empty(x.shape)
    with np.errstate(over="ignore"):
        for j, first in enumerate(x[0].tolist()):
            np.subtract(x[:, j], first, out=samples[:, j])
    return SignalMatrix._derived(samples, frame.sample_rate_hz, frame.channel_labels)


# ---------------------------------------------------------------------------
# CSV I/O


# Rows per block in _write_table: each block's cells are laid out and joined
# by a handful of whole-array numpy operations, and at 1024 rows the block's
# slots and text stay well under 1 MB, so memory does not grow with the file.
_WRITE_BLOCK = 1024


def write_csv(signal: SignalMatrix, path) -> None:
    """Write a SignalMatrix; floats use %.17g so values round-trip exactly.

    The bytes are those of a row-by-row %.17g formatter, made without a
    per-cell Python step for cells with 1e-6 < |x| < 1e17 (see _csv_rows).
    CPython rounds each cell to 17 digits on its own, by Gay's correctly
    rounded conversion (Gay 1990, "Correctly rounded binary-decimal and
    decimal-binary conversions"). Here a block of cells gets the same digits
    from Dekker's error-free product (Dekker 1971, "A floating-point
    technique for extending the available precision", Numer. Math. 18):
    |x| times an exact power of ten is the 17-digit integer plus a remainder,
    both exact, so rounding half to even is exact too. Zeros, subnormals,
    |x| <= 1e-6, |x| >= 1e17, inf and nan are still formatted by %.17g, one
    cell at a time, in their place in the same block.

    Raises:
        InvalidInputError: the label row would not read back as the channel
            labels (see _label_row); no file is written.
    """
    row = _label_row(signal.channel_labels)
    _write_table(path, f"# rate_hz={signal.sample_rate_hz!r}\n{row}\n", signal.samples)


def _label_row(labels: tuple) -> str:
    """The CSV header row for labels, if read_csv reads it back as those labels."""
    for label in labels:
        if not isinstance(label, str) or label != label.strip() or any(c in label for c in ",\n\r"):
            raise InvalidInputError(
                f"channel label {label!r} would not read back from a CSV header row: labels "
                "are strings without commas, line breaks or leading or trailing whitespace"
            )
    row = ",".join(labels)
    if not row or row.startswith("#"):
        raise InvalidInputError(
            f"channel label {labels[0]!r} would make the CSV header row "
            f"{'blank' if not row else 'a comment'}"
        )
    if _numbers(row) is not None:
        raise InvalidInputError(f"channel labels {labels!r} would make a numeric CSV header row")
    return row


def _write_table(path, header: str, samples: np.ndarray) -> None:
    """Write header text, then each row of samples as comma-joined %.17g cells."""
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        for start in range(0, samples.shape[0], _WRITE_BLOCK):
            fh.write(_csv_rows(samples[start:start + _WRITE_BLOCK]))


# Powers of ten 10**k, k = 0..22, all exact in a float (5**22 < 2**53), and
# Veltkamp's split of each into a high and a low half of 26 bits.
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = 134217729.0  # 2**27 + 1
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _product_with_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p + e exactly a * 10**k: Dekker's two-product, exact where
    no partial product under- or overflows, as for _csv_rows' 1e-6 < a < 1e17."""
    hi, lo = _POW10_HI[k], _POW10_LO[k]
    p = a * _POW10[k]
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return p, a_lo * lo - (((p - a_hi * hi) - a_lo * hi) - a_hi * lo)


# The slot of a cell outside the fast range, but for its separator: a %.17g
# placeholder, which the block's one bytes % fills.
_FORMAT_SLOT = np.frombuffer(b"%.17g".ljust(47, b"\0"), np.uint8)


@functools.cache
def _slot_tables():
    """The lookup tables of _csv_rows, from broadcast operations on first use,
    so an import that writes no CSV builds none. _csv_rows only reads them.

    A cell's slot is 48 bytes: its sign (byte 0), the "0.000" prefix (1-5),
    the 17 digits at 6, 8, .., 38, each followed by a byte for the decimal
    point, the "e-0X" suffix (40-43), padding and the separator (47). Every
    byte that the text does not use is NUL.

    Returns (lead, groups, last_digit, templates):
    - lead[negative * 10 + d]: bytes 0-7 with the sign and first digit d;
    - groups[g]: the 4 digits of g, 0 <= g < 10**4, at even bytes of 8;
    - last_digit[j, g]: where g is the j-th group of 4 digits (digits
      4j + 1 .. 4j + 4), the index of its last nonzero digit, or 0 if g is 0;
    - templates[(E + 6) * 17 + last]: for decimal exponent E and last nonzero
      digit, the slot's constant bytes, 0xFF at the bytes the kept digits,
      sign and separator fill, and 0 at every byte the text leaves out.
    All but last_digit are viewed as uint64 words, 8 bytes each.
    """
    digits = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)
    lead = np.full((2, 10, 8), 0xFF, np.uint8)
    lead[:, :, 0] = np.array([0, ord("-")], np.uint8)[:, None]
    lead[:, :, 6] = digits
    # groups and last_digit on the grid of 4 digits (a, b, c, d), g = abcd
    groups = np.full((10, 10, 10, 10, 8), 0xFF, np.uint8)
    groups[..., 0], groups[..., 2] = digits[:, None, None, None], digits[:, None, None]
    groups[..., 4], groups[..., 6] = digits[:, None], digits
    nonzero = (np.arange(10) > 0).astype(np.uint8)
    last = np.maximum(np.maximum(nonzero[:, None, None, None], 2 * nonzero[:, None, None]),
                      np.maximum(3 * nonzero[:, None], 4 * nonzero)).ravel()  # 1-based; 0 if g = 0
    last_digit = np.where(last > 0, last + np.arange(0, 16, 4, dtype=np.uint8)[:, None], 0)

    # small integer types keep the (23, 17, 48) intermediates small
    exp = np.arange(-6, 17, dtype=np.int8)[:, None, None]  # %.17g writes E < -4 as d.ddde-0X
    kept = np.arange(17, dtype=np.int8)[:, None]  # index of the last digit written
    byte = np.arange(48, dtype=np.int8)
    is_digit = (6 <= byte) & (byte < 40) & (byte % 2 == 0)
    is_after = (7 <= byte) & (byte < 40) & (byte % 2 == 1)
    point = np.where(exp >= 0, exp, 0)  # the digit the point follows
    has_point = ((exp >= 0) & (kept > exp)) | ((exp < -4) & (kept > 0))
    prefix = np.frombuffer(b"\x000.000", np.uint8)[np.minimum(byte, 5)]
    suffix = np.frombuffer(b"e-0", np.uint8)[np.clip(byte - 40, 0, 2)] - (byte == 43) * exp
    filled = (byte == 0) | (byte == 47) | is_digit & ((byte - 6) // 2 <= np.maximum(kept, exp))
    templates = (
        np.uint8(0xFF) * filled
        + np.uint8(ord(".")) * (is_after & ((byte - 7) // 2 == point) & has_point)
        + prefix * ((-4 <= exp) & (exp < 0) & (1 <= byte) & (byte <= 1 - exp))
        + suffix * ((exp < -4) & (40 <= byte) & (byte < 44))
    ).astype(np.uint8)
    return (lead.reshape(20, 8).view(np.uint64)[:, 0], groups.reshape(-1, 8).view(np.uint64)[:, 0],
            last_digit.astype(np.uint8), templates.reshape(-1, 48).view(np.uint64))


def _csv_rows(block: np.ndarray) -> bytes:
    """The %.17g text of a 2-d block of floats, one comma-joined row a line.

    A cell with 1e-6 < |x| < 1e17 is N * 10**(E - 16): N = round half to
    even of |x| * 10**(16 - E), the 17-digit integer that %.17g writes, from
    E = floor(log10 |x|). That E is set one up or down where log10 misses
    (|x| * 10**(16 - E) outside [1e16, 1e17)); no float in the range rounds
    up to 10**17. N's digits and the slot tables lay each cell out in a
    48-byte slot, and dropping the NUL bytes leaves the text. Every other
    cell is formatted by %.17g.
    """
    lead, groups, last_digit, templates = _slot_tables()
    rows, cols = block.shape
    x = block.ravel()
    magnitude = np.abs(x)
    fast = (magnitude > 1e-6) & (magnitude < 1e17)
    a = np.where(fast, magnitude, 1.0)  # the others get a stand-in with E = 0
    exp = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    p, e = _product_with_pow10(a, 16 - exp)
    up = (p > 1e17) | ((p == 1e17) & (e >= 0))  # p + e >= 1e17: E one too low
    down = (p < 1e16) | ((p == 1e16) & (e < 0))  # p + e < 1e16: E one too high
    if up.any() or down.any():
        exp += up
        exp -= down
        p, e = _product_with_pow10(a, 16 - exp)
    # p >= 1e16 is an even integer, so p + e rounds half to even as e does
    first, rest = np.divmod(p.astype(np.int64) + np.rint(e).astype(np.int64), 10**16)
    high, low = np.divmod(rest, 10**8)
    g = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))  # the 4-digit groups
    last = np.maximum.reduce([last_digit[j].take(gj) for j, gj in enumerate(g)])
    slots = templates.take((exp + 6) * 17 + last, axis=0)
    slots[:, 0] &= lead.take((x < 0) * 10 + first)
    for j, gj in enumerate(g):
        slots[:, j + 1] &= groups.take(gj)
    text = slots.view(np.uint8).reshape(rows, cols, 48)
    text[:, :, 47] = ord(",")
    text[:, -1, 47] = ord("\n")
    slow = np.flatnonzero(~fast)
    text.reshape(-1, 48)[slow, :47] = _FORMAT_SLOT  # the text holds no other %
    joined = slots.tobytes().translate(None, b"\0")
    return joined % tuple(x[slow].tolist()) if slow.size else joined


def read_csv(path) -> SignalMatrix:
    """Parse a SignalMatrix CSV: one reader with one fallback.

    The lines up to the header are read one by one. Where the header is a
    label row, the next line holds data and rate_hz is already valid, the rest
    of the file streams into np.loadtxt, which skips an empty line as the line
    scan does and refuses a comment or whitespace-only one. Otherwise, or when
    numpy refuses the rows, the file is walked again line by line from its
    start: the same result for a legal file, else the error at its first fault.

    Raises:
        CsvFormatError: numeric or missing header, ragged rows, non-numeric or
            non-finite cells, missing or bad rate_hz, or no data rows; carries
            the 1-based line number.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
        lines = _CsvLines(fh)
        header = next(iter(lines), None)
        if header is not None and _numbers(header[1]) is not None:
            raise CsvFormatError(
                "expected a header row of channel labels, found numeric data", line_number=header[0]
            )
        labels = () if header is None else _labels(header[1])
        first = fh.readline()  # loadtxt warns on a stream with no data row
        early_rate = lines.meta.get("rate_hz", ("",))[0]  # from the lines before the header
        streams = header is not None and first.strip() and _rate(early_rate) is not None
        samples = _table(itertools.chain([first], fh), len(labels)) if streams else None
        if samples is None:
            data = (line for _, line in itertools.islice(lines, 1, None))  # after the header
            first = next(data, None)
            if first is not None:
                samples = _table(itertools.chain([first], data), len(labels))
                if samples is None:
                    _raise_at_bad_row(lines, len(labels))

    rate_text, rate_line = lines.meta.get("rate_hz", (None, lines.line_no))
    if rate_text is None:
        raise CsvFormatError("missing required '# rate_hz=' comment", line_number=rate_line)
    rate = _rate(rate_text)
    if rate is None:
        raise CsvFormatError(
            f"rate_hz must be a finite number > 0, got {rate_text!r}", line_number=rate_line
        )
    if header is None:
        raise CsvFormatError("missing header row", line_number=lines.line_no)
    if samples is None:
        raise CsvFormatError("no data rows", line_number=lines.line_no)
    return SignalMatrix._derived(samples, rate, labels)


def _table(data, n_cols: int) -> np.ndarray | None:
    """The data rows as an (n, n_cols) array of finite floats; None if numpy
    refuses them or they are not that."""
    try:
        samples = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return samples if samples.shape[1] == n_cols and np.isfinite(samples).all() else None


def _labels(header: str) -> tuple:
    """The channel labels of a header row."""
    return tuple(c.strip() for c in header.split(","))


def _rate(text: str) -> float | None:
    """The rate_hz comment's value, if it is one finite number > 0."""
    rate = _numbers(text)
    return rate.item() if rate is not None and rate.shape == (1,) and 0 < rate[0] < np.inf else None


class _CsvLines:
    """(line number, stripped line) of each header or data line of an open CSV,
    from its start. `# key=value` comments go to meta as key -> (value, line
    number); line_no is the number of the last line read."""

    def __init__(self, fh):
        self.fh, self.meta, self.line_no = fh, {}, 0

    def __iter__(self):
        self.fh.seek(0)
        for self.line_no, raw in enumerate(iter(self.fh.readline, ""), start=1):
            line = raw.strip()
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    self.meta[key.strip()] = (value.strip(), self.line_no)
            elif line:
                yield self.line_no, line


def _raise_at_bad_row(lines: _CsvLines, n_cols: int) -> None:
    """Raise CsvFormatError at the first data row that is ragged, non-numeric or non-finite."""
    rows = iter(lines)
    next(rows)  # the header
    for line_no, line in rows:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != n_cols:
            raise CsvFormatError(
                f"expected {n_cols} columns, found {len(cells)}", line_number=line_no
            )
        values = _numbers(line)
        if values is not None and np.isfinite(values).all():
            continue  # one parse per good row; only the bad row is judged cell by cell
        for cell in cells:
            values = _numbers(cell)
            if values is None or not np.isfinite(values).all():
                kind = "non-numeric" if values is None else "non-finite"
                raise CsvFormatError(f"{kind} cell {cell!r}", line_number=line_no)


def _numbers(text: str) -> np.ndarray | None:
    """The comma-separated numbers in text, read as the data rows are; None if one is not."""
    try:
        return np.loadtxt([text], delimiter=",", comments=None, ndmin=1) if text else None
    except ValueError:
        return None
