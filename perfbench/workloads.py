"""The four workloads: how each builds its input, runs one pass, and is checked.

A pass goes once over the whole recording through the public API
(`ebiunmix.run_pipeline`, or `ebiunmix.cli.main(argv)` in process). An
operation is one frame separated; it fails when a stage raises or when its
output fails a check in checks.py.
"""

import contextlib
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

import checks

RATE_HZ = 1000.0
FRAME_LEN = 10000
DECIMATION = 10
DC_BASELINE = 10.0 * np.array([1.0, 2.0, 3.0, 4.0])
# ica_full_rank's recording does not follow --seed (see README.md). It is the
# head of this one (seed, samples), whose frame 5 raises
# DegenerateComponentError; default_scenario normalises over the whole
# length, so the head must be cut from the full recording.
ICA_FIXED = (0, 200_000)

KNOWN_FAULTS = {  # (workload, failure group) -> the program fault behind it
    ("raw_rate_dc", "check/separation"): (
        "apply_filter starts every frame from zero state, so a per-channel DC "
        "baseline injects a start-up transient that breaks the separation"
    ),
    ("ica_full_rank", "ica/DegenerateComponentError"): (
        "_symmetric_decorrelate raises 'unmixing update became rank-deficient' "
        "where FastICA non-convergence should be flagged, not raised"
    ),
}


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Verdicts:
    """Per-frame outcome of one checked pass."""

    def __init__(self):
        self.frames = []  # failure group per frame, None when the frame passed
        self.examples = {}  # failure group -> first message
        self.problems = []  # check failures not tied to one frame
        self.rhos = []  # matched |rho| of every frame that produced components

    def frame(self, program_error=None, failed_checks=()):
        if program_error is not None:
            stage, message = program_error
            group = f"{stage}/{message.split(':', 1)[0]}"
            self.examples.setdefault(group, message)
        elif failed_checks:
            group = "check/" + "+".join(name for name, _ in failed_checks)
            self.examples.setdefault(group, "; ".join(msg for _, msg in failed_checks))
        else:
            group = None
        self.frames.append(group)

    @property
    def failed(self):
        return sum(g is not None for g in self.frames)

    def groups(self):
        out = {}
        for g in self.frames:
            if g is not None:
                out[g] = out.get(g, 0) + 1
        return out


def _frame_checks(captured, sources, w, truth_frame, full_rank):
    """(check name, message) of every check one frame's outputs fail."""
    found = []

    def run(name, reason):
        if reason is not None:
            found.append((name, reason))

    if "filter" in captured:
        run("filter", checks.check_filter(*captured["filter"]))
    if "pca" in captured:
        run("pca", checks.check_pca_eigenvalues(*captured["pca"]))
    run("white", checks.check_white(sources))
    run("orthonormal", checks.check_orthonormal(w))
    run("canonical_order", checks.check_canonical_order(sources))
    if full_rank:
        _, mixing = captured["ica"]
        run("reconstruction", checks.check_reconstruction(sources, mixing, captured["pca"][0]))
    rhos = checks.matched_abs_rho(sources, truth_frame)
    # At full rank FastICA leaves the respiratory estimate mixed with the two
    # Gaussian noise directions (the reason for the PCA reduction), so there
    # the floor holds for the cardiac source (truth column 0) alone.
    run("separation", checks.check_separation(rhos[:1] if full_rank else rhos))
    return found, rhos


class LibraryWorkload:
    """`run_pipeline(mixture, config, truth)` over one synthetic recording."""

    def __init__(self, name, n, smoke_n, dc=False, fixed=None, **config):
        self.name = name
        self.n, self.smoke_n = n, smoke_n
        self.dc, self.fixed, self.config = dc, fixed, config

    def generate(self, eb, seed, scale):
        """The recording for `seed` as arrays, and the seconds spent in default_scenario."""
        n = self.n if scale == "full" else self.smoke_n
        seed, gen_n = self.fixed or (seed, n)  # smoke scale cuts the same head
        t0 = time.perf_counter()
        mixture, truth = eb.default_scenario(n=gen_n, rate_hz=RATE_HZ, seed=seed)
        scenario_s = time.perf_counter() - t0
        x = mixture.samples[:n] + DC_BASELINE if self.dc else mixture.samples[:n]
        return {"mixture": x, "truth": truth.samples[:n]}, scenario_s

    def load(self, eb, arrays, seed, scale, out_dir):
        # One array at a time, each freed once SignalMatrix has copied it.
        mixture = eb.SignalMatrix(arrays["mixture"], RATE_HZ)
        truth = eb.SignalMatrix(arrays["truth"], RATE_HZ, ("cardiac", "respiratory"))
        return {
            "mixture": mixture,
            "truth": truth,
            "config": eb.PipelineConfig(**self.config),
            "recorded_s": mixture.n_samples / RATE_HZ,
            "frames": mixture.n_samples // FRAME_LEN,
        }

    def warm_up(self, eb, inputs):
        m, t = inputs["mixture"], inputs["truth"]
        head = lambda s: eb.SignalMatrix(s.samples[:FRAME_LEN], s.sample_rate_hz, s.channel_labels)
        eb.run_pipeline(head(m), inputs["config"], head(t))

    def run_pass(self, eb, inputs):
        return eb.run_pipeline(inputs["mixture"], inputs["config"], inputs["truth"])

    def digest(self, inputs, output):
        components, report = output
        return _digest(
            *(b"" if c is None else c.samples.tobytes() for c in components),
            [(f.stage, f.error, f.W, f.A_est, f.convergence) for f in report.frames],
        )

    def check(self, eb, inputs, seed, capture, output):
        components, report = output
        v = Verdicts()
        truth = checks.frame_truth(inputs["truth"].samples, FRAME_LEN, DECIMATION)
        if len(report.frames) != inputs["frames"]:
            v.problems.append(f"{len(report.frames)} frames reported, expected {inputs['frames']}")
        full_rank = inputs["config"].mode == "ica_only"
        for f, comp in zip(report.frames, components):
            if not f.ok:
                v.frame((f.stage, f.error))
                continue
            captured = capture.frames[f.index]
            if not np.array_equal(captured["sources"], comp.samples):
                v.problems.append(f"frame {f.index}: returned components differ from separate()")
            found, rhos = _frame_checks(captured, comp.samples, f.W, truth[f.index], full_rank)
            v.rhos.extend(rhos)
            v.frame(failed_checks=found)
        return v

    def cleanup(self, inputs):
        pass


class CliSession:
    """The README session in process: `synth`, then `run --truth`."""

    name = "cli_session"

    def __init__(self, n, smoke_n):
        self.n, self.smoke_n = n, smoke_n

    def generate(self, eb, seed, scale):
        return {}, 0.0  # synth generates the recording inside each pass

    def load(self, eb, arrays, seed, scale, out_dir):
        n = self.n if scale == "full" else self.smoke_n
        work = Path(out_dir) / f"work_{self.name}_{seed}_{time.time_ns()}"
        work.mkdir(parents=True)
        data, results = work / "data", work / "results"
        return {
            "work": work,
            "n": n,
            "mixture_csv": data / "session_mixture.csv",
            "truth_csv": data / "session_truth.csv",
            "results": results,
            "synth_argv": ["synth", "--out-dir", str(data), "--stem", "session",
                           "--n", str(n), "--seed", str(seed)],
            "run_argv": ["run", "--input", str(data / "session_mixture.csv"),
                         "--truth", str(data / "session_truth.csv"),
                         "--out-dir", str(results), "--seed", "0"],
            "recorded_s": n / RATE_HZ,
            "frames": n // FRAME_LEN,
        }

    def warm_up(self, eb, inputs):
        warm = inputs["work"] / "warm"
        with contextlib.redirect_stdout(io.StringIO()):
            eb.cli.main(["synth", "--out-dir", str(warm), "--stem", "w", "--n", str(FRAME_LEN)])
            eb.cli.main(["run", "--input", str(warm / "w_mixture.csv"),
                         "--truth", str(warm / "w_truth.csv"), "--out-dir", str(warm)])
        shutil.rmtree(warm)

    def run_pass(self, eb, inputs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc_synth = eb.cli.main(inputs["synth_argv"])
            rc_run = eb.cli.main(inputs["run_argv"])
        return rc_synth, rc_run, out.getvalue()

    def _report(self, inputs):
        with open(inputs["results"] / "session_mixture_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("total_seconds")
        for frame in report["frames"]:
            frame.pop("seconds")
        return report

    def digest(self, inputs, output):
        files = [inputs["mixture_csv"], inputs["truth_csv"]]
        files += sorted(inputs["results"].glob("*.csv"))
        return _digest(output[:2], *(p.read_bytes() for p in files),
                       json.dumps(self._report(inputs), sort_keys=True))

    def check(self, eb, inputs, seed, capture, output):
        rc_synth, rc_run, _ = output
        v = Verdicts()
        report = self._report(inputs)
        frames = report["frames"]
        expected_rc = 2 if any(f["error"] for f in frames) else 0
        if rc_synth != 0 or rc_run != expected_rc:
            v.problems.append(f"exit codes synth={rc_synth} run={rc_run}, expected 0 and {expected_rc}")
        if len(frames) != inputs["frames"]:
            v.problems.append(f"{len(frames)} frames reported, expected {inputs['frames']}")
        mixture, truth = eb.default_scenario(n=inputs["n"], rate_hz=RATE_HZ, seed=seed)
        for path, expected in ((inputs["mixture_csv"], mixture), (inputs["truth_csv"], truth)):
            reason = checks.check_csv_equals(path, expected.samples)
            if reason:
                v.problems.append(reason)
        truth_frames = checks.frame_truth(truth.samples, FRAME_LEN, DECIMATION)
        for f in frames:
            if f["error"]:
                v.frame((f["stage"], f["error"]))
                continue
            k = f["index"]
            comp_csv = inputs["results"] / f"session_mixture_f{k}_components.csv"
            pg_csv = inputs["results"] / f"session_mixture_f{k}_periodogram.csv"
            sources = checks.load_csv(comp_csv)[2][:, 1:]
            found, rhos = _frame_checks(capture.frames[k], sources, f["W"], truth_frames[k], False)
            reason = checks.check_periodogram(comp_csv, pg_csv)
            if reason:
                found.append(("periodogram", reason))
            v.rhos.extend(rhos)
            v.frame(failed_checks=found)
        return v

    def cleanup(self, inputs):
        shutil.rmtree(inputs["work"], ignore_errors=True)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        LibraryWorkload("recording_default", n=200_000, smoke_n=30_000),
        LibraryWorkload("raw_rate_dc", n=100_000, smoke_n=20_000, dc=True,
                        filter_position="before_decimate"),
        LibraryWorkload("ica_full_rank", n=60_000, smoke_n=60_000, fixed=ICA_FIXED,
                        mode="ica_only"),
        CliSession(n=25_000, smoke_n=20_000),  # the README session
    )
}
