"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
on success). Tolerances are pinned here and nowhere else.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ebiunmix.cli import main as cli_main
from ebiunmix.dsp import design_butterworth_lp2, frequency_response
from ebiunmix.linalg import svd, sym_eigen
from ebiunmix.metrics import amari_index
from ebiunmix.pca import fit_pca, whiten
from ebiunmix.pipeline import PipelineConfig, run_pipeline
from ebiunmix.synth import default_scenario

from oracles import amari_loops, det_cofactor


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException as exc:
        print(f"[acceptance] criterion {number} ({name}): FAIL -- {exc}")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_whitening_correctness():
    with criterion(1, "whitening correctness"):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((5000, 4)) @ (
                rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
            )
            model = fit_pca(data)
            white, _, _ = whiten(model, data, 4)
            cov = white.T @ white / (len(white) - 1)
            worst = max(worst, float(np.abs(cov - np.eye(4)).max()))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-6, f"worst covariance deviation {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_eigen_svd_cross_validation():
    with criterion(2, "eigen/SVD cross-validation"):
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            data = rng.standard_normal((400, 4)) @ rng.standard_normal((4, 4))
            centered = data - data.mean(axis=0)
            lam_eigen = sym_eigen(centered.T @ centered / (len(data) - 1)).eigenvalues
            d = svd(centered).D
            lam_svd = d**2 / (len(data) - 1)
            rel = np.abs(lam_eigen - lam_svd).max() / lam_svd[0]
            assert rel < 1e-8, f"seed {seed}: relative mismatch {rel:.3e}"


def test_criterion_3_filter_spec():
    with criterion(3, "Butterworth filter spec"):
        rng = np.random.default_rng(2)
        cases = [(40.0, 1000.0), (40.0, 100.0), (0.5, 25.0), (100.0, 250.0)]
        while len(cases) < 20:
            rate = float(rng.uniform(20.0, 48000.0))
            cases.append((float(rng.uniform(0.01, 0.45)) * rate, rate))
        for cutoff, rate in cases:
            coeffs = design_butterworth_lp2(cutoff, rate)
            mag = abs(frequency_response(coeffs, [cutoff], rate)[0])
            assert abs(mag - 0.70711) <= 1e-5, f"|H({cutoff})| = {mag} at rate {rate}"
            assert abs(coeffs.dc_gain() - 1.0) <= 1e-9


def test_criterion_4_separation_at_desk_scale():
    with criterion(4, "separation on the default synthetic scenario"):
        t0 = time.perf_counter()
        passes = 0
        details = []
        for seed in range(20):
            mixture, truth = default_scenario(
                n=25000, rate_hz=1000.0, seed=seed, noise_sigma=0.05,
                correlation_injection=0.0,
            )
            _, report = run_pipeline(mixture, PipelineConfig(), truth)
            ok = not report.any_frame_failed and all(
                min(abs(r) for r in f.matching["correlations"]) >= 0.95
                and f.matching["amari_index"] < 0.1
                for f in report.frames
            )
            passes += ok
            details.append(
                (seed, [round(min(abs(r) for r in f.matching["correlations"]), 4)
                        for f in report.frames])
            )
        elapsed = time.perf_counter() - t0
        assert passes >= 18, f"only {passes}/20 seeds passed: {details}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def _cardiac_leakage(report):
    """Mean over frames of the leakage of the component assigned to truth column 0."""
    values = []
    for frame in report.frames:
        matching = frame.matching
        for (est, true), leak in zip(matching["assignment"], matching["leakage"]):
            if true == 0:
                values.append(leak)
    return float(np.mean(values))


def test_criterion_5_correlated_sources_increase_cardiac_leakage():
    with criterion(5, "correlation injection raises cardiac leakage"):
        wins = 0
        for seed in range(20):
            leakage = {}
            for c in (0.0, 0.3):
                mixture, truth = default_scenario(
                    n=25000, rate_hz=1000.0, seed=seed, noise_sigma=0.05,
                    correlation_injection=c,
                )
                _, report = run_pipeline(mixture, PipelineConfig(), truth)
                assert not report.any_frame_failed
                leakage[c] = _cardiac_leakage(report)
            wins += leakage[0.3] > leakage[0.0]
        assert wins >= 18, f"leakage increased in only {wins}/20 seeds"


def test_criterion_6_pca_preprocessing_beats_ica_alone():
    with criterion(6, "pca_then_ica vs ica_only"):
        medians = {}
        for mode in ("pca_then_ica", "ica_only"):
            per_seed = []
            for seed in range(20):
                mixture, truth = default_scenario(
                    n=25000, rate_hz=1000.0, seed=seed, noise_sigma=0.05,
                )
                _, report = run_pipeline(mixture, PipelineConfig(mode=mode), truth)
                assert not report.any_frame_failed
                rhos = [
                    abs(r) for f in report.frames for r in f.matching["correlations"]
                ]
                per_seed.append(float(np.mean(rhos)))
            medians[mode] = float(np.median(per_seed))
        print(
            f"[acceptance]   median matched |rho|: pca_then_ica="
            f"{medians['pca_then_ica']:.4f} ica_only={medians['ica_only']:.4f}"
        )
        assert medians["pca_then_ica"] >= medians["ica_only"], f"medians: {medians}"


def test_criterion_7_byte_identical_reruns(tmp_path):
    with criterion(7, "determinism of CLI outputs"):
        data_dir = tmp_path / "data"
        code = cli_main(
            ["synth", "--out-dir", str(data_dir), "--stem", "det", "--n", "25000",
             "--seed", "11"]
        )
        assert code == 0
        mixture = data_dir / "det_mixture.csv"
        truth = data_dir / "det_truth.csv"

        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = cli_main(
                ["run", "--input", str(mixture), "--truth", str(truth),
                 "--out-dir", str(out), "--seed", "5"]
            )
            assert code == 0
            outputs.append(out)

        for k in range(2):
            for suffix in ("components", "periodogram"):
                name = f"det_mixture_f{k}_{suffix}.csv"
                a = (outputs[0] / name).read_bytes()
                b = (outputs[1] / name).read_bytes()
                assert a == b, f"{name} differs between runs"

        reports = []
        for out in outputs:
            payload = json.loads((out / "det_mixture_report.json").read_text())
            payload.pop("total_seconds")
            for frame in payload["frames"]:
                frame.pop("seconds")
            reports.append(payload)
        assert reports[0] == reports[1], "reports differ beyond timing fields"


def test_criterion_8_oracle_equivalence():
    with criterion(8, "trace/determinant and Amari oracle equivalence"):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((4, 4))
            m = 0.5 * (m + m.T)
            eig = sym_eigen(m)
            assert abs(eig.eigenvalues.sum() - np.trace(m)) < 1e-9
            det = det_cofactor(m)
            assert abs(np.prod(eig.eigenvalues) - det) <= 1e-8 * max(1.0, abs(det))
        for seed in range(100):
            rng = np.random.default_rng(10000 + seed)
            p = rng.uniform(-1.0, 1.0, size=(4, 4))
            assert amari_index(p, np.eye(4)) == pytest.approx(amari_loops(p), abs=1e-12)
