"""ebiunmix benchmark: one workload (or all four) through the public API.

    python3 perfbench/run.py --workload recording_default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics (setup_s, xrealtime, peak_rss_mb,
mean_abs_rho); with --trace 1 it carries the per-layer metrics of a traced
run instead. Either way it also gives the operations (frames separated)
attempted and failed, and `correct`, which is true when every output check
passed on the frames that did not fail. A results file with the run record
goes to perfbench/out/. `--workload all` runs each workload in its own
process, prints a table and, as its last line, one JSON object per workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("recording_default", "raw_rate_dc", "ica_full_rank", "cli_session")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# Other tenants of the host slow this process by up to 2x, in bursts and in
# spells that outlast a run. A fixed calibration workload (_calibrate) runs
# before each set-up and between timed passes (about CALIBRATION_SHARE of the
# run). End-to-end times are scaled by CALIBRATION_REF_S / calibration time:
# a set-up by the calibration just before it, the mean pass by the mean
# calibration, as both means average the same spells of load. CALIBRATION_REF_S
# is the mean calibration on a 2-core virtual machine with a quiet host.
CALIBRATION_REF_S = 0.045
CALIBRATION_SHARE = 0.15


def _limit_threads():
    """One BLAS thread: the load is one process on at most nproc threads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


SRC = ROOT / "src"
# One set-up in a fresh interpreter: import ebiunmix (numpy included), then
# generate the workload's input. Prints its timings; saves the arrays if asked.
_SETUP = """
import json, sys, time
src, here, name, seed, scale, save = sys.argv[1:]
sys.path[:0] = [src, here]
t0 = time.perf_counter()
import ebiunmix, ebiunmix.cli
t1 = time.perf_counter()
import numpy, workloads
t2 = time.perf_counter()
arrays, scenario_s = workloads.WORKLOADS[name].generate(ebiunmix, int(seed), scale)
t3 = time.perf_counter()
if save != "-":
    numpy.savez(save, **arrays)
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "scenario_s": scenario_s}))
"""


# One pass in a fresh interpreter that does nothing else, so its peak RSS is
# the workload's alone and repeats from run to run.
_ONE_PASS = """
import resource, sys
src, here, name, seed, scale, arrays, out_dir = sys.argv[1:]
sys.path[:0] = [src, here]
import ebiunmix, ebiunmix.cli, numpy, workloads
wl = workloads.WORKLOADS[name]
with numpy.load(arrays) as npz:
    inputs = wl.load(ebiunmix, npz, int(seed), scale, out_dir)
try:
    wl.run_pass(ebiunmix, inputs)
finally:
    wl.cleanup(inputs)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)  # KiB on Linux
"""


def _import_package():
    """Import ebiunmix from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ebiunmix
        import ebiunmix.cli  # noqa: F401  (cli_session calls ebiunmix.cli.main)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ebiunmix from {SRC}: {exc}")
    if Path(ebiunmix.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: ebiunmix came from {ebiunmix.__file__}, not {SRC}")
    return ebiunmix


def _set_up(name, seed, scale, save):
    """Timings of one fresh-interpreter set-up; the arrays go to `save` unless "-"."""
    out = subprocess.run(
        [sys.executable, "-c", _SETUP, str(SRC), str(HERE), name, str(seed), scale, str(save)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    return json.loads(out.stdout)


def _peak_rss_mb(name, seed, scale, arrays_path, out_dir):
    """Peak RSS of a fresh interpreter that loads the input and runs one pass."""
    out = subprocess.run(
        [sys.executable, "-c", _ONE_PASS, str(SRC), str(HERE), name, str(seed), scale,
         str(arrays_path), str(out_dir)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    return float(out.stdout)


def _calibrate(np):
    """Seconds for a fixed mix of the kinds of work the pipeline does, none of
    it ebiunmix code: a per-sample loop of small array operations, small
    symmetric eigenproblems, and float formatting and parsing."""
    x = np.linspace(0.0, 1.0, 4 * 4000).reshape(4000, 4)
    y = np.empty_like(x)
    t0 = time.perf_counter()
    x1 = x2 = y1 = y2 = np.zeros(4)
    for t in range(x.shape[0]):
        xt = x[t]
        yt = 0.2 * xt + 0.4 * x1 + 0.2 * x2 - 0.3 * y1 - 0.1 * y2
        y[t] = yt
        x2, x1, y2, y1 = x1, xt, y1, yt
    m = x.T @ y
    m = m + m.T
    for _ in range(300):
        w, v = np.linalg.eigh(m)
        m = (v * w) @ v.T
    for row in y:
        sum(float(c) for c in ",".join(f"{v:.17g}" for v in row).split(","))
    return time.perf_counter() - t0


def _run_record(seed, seconds, trace, scale):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "scale": scale,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace, scale="full", out_dir=OUT):
    """Set up, time passes for `seconds`, check one pass; the result dict."""
    eb = _import_package()
    import numpy as np  # ebiunmix has imported it already
    import workloads

    wl = workloads.WORKLOADS[name]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Each set-up runs in a fresh interpreter, so it imports ebiunmix cold; the
    # last one saves its arrays for this process and for the peak-RSS pass.
    arrays_path = out_dir / f"setup_{name}_{seed}_{os.getpid()}.npz"
    setups = []
    for i in range(SETUP_REPEATS):
        calibration = _calibrate(np)  # the host's speed just before this set-up
        setups.append(_set_up(name, seed, scale, arrays_path if i == SETUP_REPEATS - 1 else "-"))
        setups[-1]["calibration_s"] = calibration
    setup_s = statistics.median(
        [(s["import_s"] + s["build_s"]) * CALIBRATION_REF_S / s["calibration_s"] for s in setups])
    with np.load(arrays_path) as npz:  # reads each array when load() asks for it
        inputs = wl.load(eb, npz, seed, scale, out_dir)

    try:
        wl.warm_up(eb, inputs)
        tracer = spans.Tracer() if trace else None
        plain_s, traced_s, digests, traced_ids, calibration_s = [], [], set(), [], []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or not plain_s or (trace and not traced_s)):
            if sum(calibration_s) <= CALIBRATION_SHARE * (time.perf_counter() - start):
                calibration_s.append(_calibrate(np))
            pass_id = len(plain_s) + len(traced_s)
            if trace and len(traced_s) < len(plain_s):
                with tracer.traced_pass(pass_id) as root:
                    t0 = time.perf_counter()
                    output = root(lambda: wl.run_pass(eb, inputs))
                    traced_s.append(time.perf_counter() - t0)
                traced_ids.append(pass_id)
            else:
                t0 = time.perf_counter()
                output = wl.run_pass(eb, inputs)
                plain_s.append(time.perf_counter() - t0)
            digests.add(wl.digest(inputs, output))
        peak_rss_mb = _peak_rss_mb(name, seed, scale, arrays_path, out_dir)

        capture = spans.Capture()
        with spans.hooks(capture.wrap):
            output = wl.run_pass(eb, inputs)
        digests.add(wl.digest(inputs, output))
        verdicts = wl.check(eb, inputs, seed, capture, output)
    finally:
        wl.cleanup(inputs)
        arrays_path.unlink()

    slowdown = statistics.mean(calibration_s) / CALIBRATION_REF_S
    problems = list(verdicts.problems)
    if len(digests) != 1:
        problems.append(f"outputs differ between passes ({len(digests)} distinct digests)")
    passes = len(plain_s) + len(traced_s)
    failures = {
        g: {"per_pass": n, "example": verdicts.examples[g],
            "known_fault": workloads.KNOWN_FAULTS.get((name, g))}
        for g, n in verdicts.groups().items()
    }
    rhos = verdicts.rhos
    record = _run_record(seed, seconds, trace, scale)
    result = {
        "workload": name,
        "record": record,
        "frames_per_pass": inputs["frames"],
        "passes": passes,
        "plain_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "calibration_s": calibration_s,
        "slowdown": slowdown,
        "xrealtime_unscaled": inputs["recorded_s"] / statistics.mean(plain_s),
        "setup": {"runs": setups},
        "failures": failures,
        "problems": problems,
    }
    if trace:
        scenario_s = [s["scenario_s"] for s in setups]
        layers, layer_problems = _per_layer(tracer, traced_ids, plain_s, traced_s, scenario_s, name)
        problems.extend(layer_problems)
        metrics = layers
        spans_path = out_dir / f"{name}_seed{seed}_spans.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
        result["spans_file"] = spans_path.name
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "xrealtime": _metric(inputs["recorded_s"] / statistics.mean(plain_s) * slowdown, "x"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "mean_abs_rho": _metric(sum(rhos) / len(rhos) if rhos else 0.0, "1"),
        }
    summary = {
        "correct": not problems,
        "attempted": inputs["frames"] * passes,
        "failed": verdicts.failed * passes,
        "metrics": metrics,
    }
    result.update(summary)
    with open(out_dir / f"{name}_seed{seed}_trace{int(bool(trace))}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result, summary


def _per_layer(tracer, traced_ids, plain_s, traced_s, scenario_s, name):
    """Per-layer metrics: medians over traced passes; counts must repeat exactly."""
    summaries = [tracer.pass_summary(i) for i in traced_ids]
    problems = []

    def med(values):
        return statistics.median(values)

    def layer(key):
        return med([s["layers"][key] for s in summaries])

    def count(key):
        values = {s["counts"].get(key, 0) for s in summaries}
        if len(values) != 1:
            problems.append(f"count {key} differs between passes: {sorted(values)}")
        return max(values)

    def rate(n, s):
        return n / s if s > 0 else 0.0

    filter_samples = count("dsp.filter_samples")
    iterations = count("fastica.iterations")
    calls_set = {s["sym_eigen_calls"] for s in summaries}
    if len(calls_set) != 1:
        problems.append(f"sym_eigen calls differ between passes: {sorted(calls_set)}")
    calls = max(calls_set)
    untraced = med(plain_s)
    traced = med(traced_s)
    overhead = traced - untraced
    unattributed = max(abs(s["root_self_s"]) for s in summaries)
    if unattributed > abs(overhead) + 1e-3:
        problems.append(f"layer self times miss the traced pass by {unattributed:.4f} s")

    m = {}
    for key in spans.SELF_TIME_LAYERS:
        m[key] = _metric(layer(key), "s")
    if name != "cli_session":  # the library workloads generate their input in setup
        m["synth.scenario_s"] = _metric(med(scenario_s), "s")
    m["dsp.filter_samples"] = _metric(filter_samples, "count")
    m["dsp.filter_ns_per_sample"] = _metric(
        1e9 * rate(m["dsp.filter_s"]["value"], filter_samples), "ns")
    m["pipeline.frames"] = _metric(count("pipeline.frames"), "count")
    m["pipeline.read_csv_rows_per_s"] = _metric(
        rate(count("pipeline.read_csv_rows"), m["pipeline.read_csv_s"]["value"]), "1/s")
    m["pipeline.write_csv_rows_per_s"] = _metric(
        rate(count("pipeline.write_csv_rows"), m["pipeline.write_csv_s"]["value"]), "1/s")
    m["linalg.sym_eigen_calls"] = _metric(calls, "count")
    m["linalg.sym_eigen_us_per_call"] = _metric(
        1e6 * rate(m["linalg.sym_eigen_s"]["value"], calls), "us")
    m["fastica.iterations"] = _metric(iterations, "count")
    m["fastica.unconverged_frames"] = _metric(count("fastica.unconverged_frames"), "count")
    m["fastica.us_per_iteration"] = _metric(
        1e6 * rate(med([s["fit_fastica_s"] for s in summaries]), iterations), "us")
    m["trace.pass_s"] = _metric(traced, "s")
    m["trace.untraced_pass_s"] = _metric(untraced, "s")
    m["trace.overhead_s"] = _metric(overhead, "s")
    m["trace.overhead_share"] = _metric(overhead / untraced, "1")
    m["trace.unattributed_s"] = _metric(unattributed, "s")
    m["trace.spans_per_pass"] = _metric(med([s["spans"] for s in summaries]), "count")
    return m, problems


def _run_all(args):
    """Each workload in its own process (peak RSS is per process); print a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, r in results.items():
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, v in r["metrics"].items():
            print(f"  {metric:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _limit_threads()
    if args.workload == "all":
        _run_all(args)
        return 0
    _, summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
