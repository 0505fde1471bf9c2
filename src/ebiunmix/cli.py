"""Command-line front end: `ebi-unmix {run,synth,eval,filter-design}`.

run           process a CSV recording through the separation pipeline
synth         generate a synthetic mixture + ground-truth CSV pair
eval          score estimated components against ground-truth sources
filter-design print biquad coefficients and a frequency-response table

A flag sets the library value its dest names: a PipelineConfig or IcaConfig
field (`run --decimate` sets decimation_factor) or a default_scenario
parameter (`synth --rate` sets rate_hz). Config precedence for `run`:
command-line flags > --config JSON file > built-in defaults. The config file
(UTF-8, a byte-order mark skipped) takes the keys of the report's "config"
block (PipelineConfig fields, with IcaConfig fields under "ica"); any other
key is an error. The ICA seed follows the same rule (--seed > the file's
ica.seed > 0), and `synth` takes --seed, then 0. `eval` pairs its two files
by run_pipeline's rule for a truth and its samples.
"""

import argparse
import inspect
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .dsp import SignalMatrix, design_butterworth_lp2, frequency_response
from .errors import InvalidInputError
from .fastica import CONTRASTS, IcaConfig
from .linalg import check_number
from .metrics import match_components
from .pipeline import (
    FILTER_POSITIONS,
    MODES,
    PipelineConfig,
    _check_pair,
    _preflight,
    _write_table,
    read_csv,
    run_pipeline,
    write_csv,
)
from .synth import default_scenario

# Read once: the traced benchmark rebinds the name default_scenario to a wrapper.
_SCENARIO_PARAMETERS = tuple(inspect.signature(default_scenario).parameters)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebi-unmix",
        description="Separate cardiac and respiratory components from multichannel recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cfg, ica = PipelineConfig, IcaConfig

    run = sub.add_parser("run", help="run the separation pipeline on a CSV recording")
    run.set_defaults(handler=_cmd_run)
    run.add_argument("--input", required=True, help="input CSV (see README for format)")
    run.add_argument("--config", help="JSON config file; flags override its values")
    run.add_argument("--truth", help="ground-truth source CSV for scoring")
    run.add_argument("--out-dir", default=".", help="directory for outputs (default: cwd)")
    run.add_argument("--frame-len", type=int, help=f"samples per frame (default {cfg.frame_len})")
    run.add_argument("--decimate", dest="decimation_factor", type=int,
                     help=f"decimation factor (default {cfg.decimation_factor})")
    run.add_argument("--cutoff-hz", type=float,
                     help=f"low-pass cutoff in Hz (default {cfg.cutoff_hz:g})")
    run.add_argument("--filter-position", choices=FILTER_POSITIONS,
                     help=f"where the filter runs (default {cfg.filter_position})")
    run.add_argument("--components", dest="retained_components", type=int,
                     help="retained dimension (default 2; ica_only: the channel count)")
    run.add_argument("--contrast", choices=CONTRASTS, help=f"ICA contrast (default {ica.contrast})")
    run.add_argument("--tol", dest="tolerance", type=float,
                     help=f"ICA convergence tolerance in (0, 1) (default {ica.tolerance:g})")
    run.add_argument("--max-iter", dest="max_iterations", type=int,
                     help=f"ICA iteration cap (default {ica.max_iterations})")
    run.add_argument("--seed", type=int, help=f"ICA seed (default {ica.seed})")
    run.add_argument("--mode", choices=MODES, help=f"pipeline mode (default {cfg.mode})")

    synth = sub.add_parser("synth", help="generate a synthetic mixture and its ground truth")
    synth.set_defaults(handler=_cmd_synth)
    synth.add_argument("--out-dir", default=".", help="output directory")
    synth.add_argument("--stem", default="ebi_synth", help="output file stem")
    synth.add_argument("--n", type=int, help="number of samples")
    synth.add_argument("--rate", dest="rate_hz", type=float, help="sample rate in Hz")
    synth.add_argument("--seed", type=int, help="generation seed (default 0)")
    synth.add_argument("--noise-sigma", type=float, help="channel noise sigma")
    synth.add_argument("--correlation-injection", type=float,
                       help="respiratory->cardiac amplitude modulation depth in [0,1)")
    synth.add_argument("--cardiac-hz", type=float, help="cardiac fundamental")
    synth.add_argument("--resp-hz", type=float, help="respiratory fundamental")
    synth.add_argument("--jitter-pct", type=float, help="beat interval jitter %%")
    synth.add_argument("--harmonics", type=int, help="respiratory harmonic count")

    ev = sub.add_parser("eval", help="score component CSV against ground-truth CSV")
    ev.set_defaults(handler=_cmd_eval)
    ev.add_argument("--components", required=True, help="estimated components CSV")
    ev.add_argument("--truth", required=True, help="ground-truth sources CSV")
    ev.add_argument("--out", help="write the JSON report here instead of stdout")

    fd = sub.add_parser("filter-design", help="print biquad coefficients and response table")
    fd.set_defaults(handler=_cmd_filter_design)
    fd.add_argument("--cutoff-hz", type=float, required=True)
    fd.add_argument("--rate", type=float, required=True)
    fd.add_argument("--points", type=int, default=25, help="response table rows")

    return parser


def _given(args, names) -> dict:
    """The values of args under names that a flag set (argparse leaves the rest None)."""
    return {name: value for name in names if (value := getattr(args, name, None)) is not None}


def _section(section, cls, where: str, args) -> dict:
    """A config-file section, with the flags named after fields of cls over
    it; rejects keys that are not fields of cls."""
    if not isinstance(section, dict):
        raise InvalidInputError(f"config {where} must be a JSON object")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(section) - set(names))
    if unknown:
        raise InvalidInputError(
            f"unknown key(s) in config {where}: {', '.join(map(repr, unknown))}"
        )
    return {**section, **_given(args, names)}


def _build_config(args) -> PipelineConfig:
    file_cfg: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            file_cfg = json.load(fh)
    top = _section(file_cfg, PipelineConfig, "file", args)  # no flag is named ica
    ica = _section(top.pop("ica", {}), IcaConfig, "section 'ica'", args)
    return PipelineConfig(**top, ica=IcaConfig(**ica))


def _with_time_column(signal: SignalMatrix) -> SignalMatrix:
    extended = np.column_stack([signal.times(), signal.samples])
    return SignalMatrix._derived(
        extended, signal.sample_rate_hz, ("time_s",) + signal.channel_labels
    )


def _read_without_time(path, flag: str) -> SignalMatrix:
    """The CSV at path without its time_s column; refuses a file with no other column."""
    signal = read_csv(path)
    if "time_s" not in signal.channel_labels:
        return signal
    keep = [i for i, lab in enumerate(signal.channel_labels) if lab != "time_s"]
    if not keep:
        raise InvalidInputError(f"{flag} file {path} holds no signal column besides time_s")
    return SignalMatrix._derived(signal.samples[:, keep], signal.sample_rate_hz,
                                 tuple(signal.channel_labels[i] for i in keep))


def _write_periodogram(signal: SignalMatrix, path) -> None:
    n = signal.n_samples
    freqs = np.fft.rfftfreq(n, d=1.0 / signal.sample_rate_hz)
    power = np.abs(np.fft.rfft(signal.samples, axis=0)) ** 2 / n
    header = ",".join(("freq_hz",) + signal.channel_labels) + "\n"
    _write_table(path, header, np.column_stack([freqs, power]))


def _cmd_run(args) -> int:
    config = _build_config(args)
    signal = _read_without_time(args.input, "--input")
    truth = _read_without_time(args.truth, "--truth") if args.truth else None

    _preflight(signal, config, truth)
    out_dir = Path(args.out_dir)  # made once the run is not refused, before any frame runs
    out_dir.mkdir(parents=True, exist_ok=True)

    components, report = run_pipeline(signal, config, truth)
    stem = Path(args.input).stem
    for idx, comp in enumerate(components):
        if comp is None:
            continue
        write_csv(_with_time_column(comp), out_dir / f"{stem}_f{idx}_components.csv")
        _write_periodogram(comp, out_dir / f"{stem}_f{idx}_periodogram.csv")

    report_path = out_dir / f"{stem}_report.json"
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    for frame in report.frames:
        if frame.ok:
            status = "no ICA" if frame.convergence is None else (
                "converged" if frame.convergence["converged"] else "NOT converged")
            print(f"frame {frame.index}: ok ({status}, {frame.seconds:.3f}s)")
        else:
            print(f"frame {frame.index}: FAILED at {frame.stage}: {frame.error}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(f"report: {report_path}")
    return 2 if report.any_frame_failed else 0


def _cmd_synth(args) -> int:
    mixture, truth = default_scenario(**_given(args, _SCENARIO_PARAMETERS))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mixture_path = out_dir / f"{args.stem}_mixture.csv"
    truth_path = out_dir / f"{args.stem}_truth.csv"
    write_csv(mixture, mixture_path)
    write_csv(truth, truth_path)
    shape = f"{mixture.n_samples} x {mixture.n_channels} @ {mixture.sample_rate_hz} Hz"
    print(f"wrote {mixture_path} ({shape})")
    print(f"wrote {truth_path}")
    return 0


def _cmd_eval(args) -> int:
    components = _read_without_time(args.components, "--components")
    truth = _read_without_time(args.truth, "--truth")
    _check_pair(truth, components, f"--truth file {args.truth}",
                f"--components file {args.components}")
    report = match_components(components, truth)
    payload = asdict(report)
    payload["estimated_labels"] = list(components.channel_labels)
    payload["truth_labels"] = list(truth.channel_labels)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"report: {args.out}")
    else:
        print(text)
    return 0


def _cmd_filter_design(args) -> int:
    check_number(args.points, "--points", integral=True, at_least=1)
    coeffs = design_butterworth_lp2(args.cutoff_hz, args.rate)
    print(f"# 2nd-order Butterworth low-pass, cutoff {args.cutoff_hz} Hz @ {args.rate} Hz")
    for name in ("b0", "b1", "b2", "a1", "a2"):
        print(f"{name} = {getattr(coeffs, name):.17g}")
    nyquist = args.rate / 2.0
    freqs = np.logspace(np.log10(args.cutoff_hz / 10.0), np.log10(nyquist * 0.999), args.points)
    mag = np.abs(frequency_response(coeffs, freqs, args.rate))
    print("freq_hz,magnitude,db")
    for f, m in zip(freqs, mag):
        db = -np.inf if m == 0 else 20.0 * np.log10(m)
        print(f"{f:.6g},{m:.6g},{db:.4g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
