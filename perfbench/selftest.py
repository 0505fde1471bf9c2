"""The benchmark's own tests: a smoke run of every workload, and proof that
each output check rejects a wrong answer.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The file name keeps the repository's default pytest collection from picking
these up; name the file to run them.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Failure groups each workload is expected to show on every pass.
EXPECTED_FAILURES = {
    "recording_default": {},
    "raw_rate_dc": {"check/separation": "all"},
    "ica_full_rank": {"ica/DegenerateComponentError": 1},
    "cli_session": {},
}


def _smoke(trace):
    run._limit_threads()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name in run.WORKLOAD_NAMES:
            result, summary = run.run_workload(name, seed=3, seconds=0, trace=trace,
                                               scale="smoke", out_dir=tmp)
            yield name, result, summary


def _assert_smoke(trace, metric_key):
    names = {m["name"] for m in BENCHMARK[metric_key]}
    for name, result, summary in _smoke(trace):
        assert summary["correct"], (name, result["problems"])
        assert summary["attempted"] == result["frames_per_pass"] * result["passes"] >= 1
        expected = {
            g: result["frames_per_pass"] if n == "all" else n
            for g, n in EXPECTED_FAILURES[name].items()
        }
        got = {g: f["per_pass"] for g, f in result["failures"].items()}
        assert got == expected, (name, got)
        assert summary["failed"] == sum(expected.values()) * result["passes"]
        assert set(summary["metrics"]) == names, (name, set(summary["metrics"]) ^ names)


def test_smoke_end_to_end():
    _assert_smoke(0, "end_to_end")


def test_smoke_traced():
    _assert_smoke(1, "per_layer")


def _sources(n=1000):
    """A white pair: cardiac-like pulse train and skewed respiratory wave, canonical order."""
    t = np.arange(n) / 100.0
    cardiac = np.exp(-0.5 * ((t % 0.8 - 0.4) / 0.03) ** 2)
    resp = np.sin(2 * np.pi * 0.25 * t) + 0.5 * np.sin(2 * np.pi * 0.5 * t + 0.7)
    s = np.column_stack([cardiac, resp])
    s = s - s.mean(axis=0)
    lam, v = np.linalg.eigh(np.cov(s, rowvar=False))
    s = s @ (v / np.sqrt(lam)) @ v.T  # symmetric whitening keeps each wave's shape
    s = s[:, np.argsort(-np.log(np.cosh(s)).mean(axis=0))]
    return s * np.sign((s**3).mean(axis=0))


def test_filter_check_rejects_a_one_sample_shift():
    from scipy.signal import lfilter

    b, a = (0.2, 0.4, 0.2), (1.0, -0.3, 0.1)
    x = np.random.default_rng(1).standard_normal((500, 4))
    y = lfilter(b, a, x, axis=0)
    assert checks.check_filter(x, b, a, y) is None
    shifted = np.vstack([np.zeros((1, 4)), y[:-1]])
    assert checks.check_filter(x, b, a, shifted) is not None


def test_separation_check_rejects_a_component_mixed_30_percent():
    truth = _sources()
    assert checks.check_separation(checks.matched_abs_rho(truth, truth)) is None
    mixed = truth.copy()
    mixed[:, 0] = 0.7 * truth[:, 0] + 0.3 * truth[:, 1]
    assert checks.check_separation(checks.matched_abs_rho(mixed, truth)) is not None


def test_orthonormal_check_rejects_a_non_orthonormal_w():
    c, s = np.cos(0.3), np.sin(0.3)
    w = np.array([[c, -s], [s, c]])
    assert checks.check_orthonormal(w) is None
    sheared = w.copy()
    sheared[0] += 1e-3 * sheared[1]
    assert checks.check_orthonormal(sheared) is not None


def test_csv_check_rejects_a_cell_changed_in_its_last_digit():
    samples = np.random.default_rng(2).standard_normal((50, 4))
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        path = Path(tmp) / "m.csv"
        lines = ["# rate_hz=1000.0", "ch1,ch2,ch3,ch4"]
        lines += [",".join(f"{v:.17g}" for v in row) for row in samples]
        path.write_text("\n".join(lines) + "\n")
        assert checks.check_csv_equals(path, samples) is None
        for row in range(2, len(lines)):  # the first cell whose last digit carries value
            cells = lines[row].split(",")
            mantissa, sep, exp = cells[0].partition("e")
            bumped = mantissa[:-1] + str((int(mantissa[-1]) + 1) % 10) + sep + exp
            if float(bumped) != float(cells[0]):
                lines[row] = ",".join([bumped] + cells[1:])
                break
        path.write_text("\n".join(lines) + "\n")
        assert checks.check_csv_equals(path, samples) is not None


def test_white_and_canonical_checks_reject_wrong_components():
    s = _sources()
    assert checks.check_white(s) is None
    assert checks.check_white(1.01 * s) is not None
    assert checks.check_canonical_order(s) is None
    assert checks.check_canonical_order(s[:, ::-1]) is not None
    assert checks.check_canonical_order(-s) is not None


def test_reconstruction_check_rejects_a_wrong_mixing():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((400, 3)) @ rng.standard_normal((3, 3)) + 5.0
    centred = x - x.mean(axis=0)
    u, d, vt = np.linalg.svd(centred, full_matrices=False)
    sources, mixing = u * np.sqrt(len(x) - 1), (vt.T * d) / np.sqrt(len(x) - 1)
    assert checks.check_reconstruction(sources, mixing, x) is None
    assert checks.check_reconstruction(sources, 1.001 * mixing, x) is not None


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then exit nonzero
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
