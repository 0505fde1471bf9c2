"""Tests for the ebi-unmix command line interface."""
import json

import numpy as np
import pytest

from ebiunmix.cli import main
from ebiunmix.pipeline import read_csv


def run_cli(*argv):
    return main(list(argv))


def synth_files(tmp_path, seed="5", extra=()):
    out = tmp_path / "data"
    code = run_cli(
        "synth", "--out-dir", str(out), "--stem", "demo", "--n", "25000", "--seed", seed, *extra
    )
    assert code == 0
    return out / "demo_mixture.csv", out / "demo_truth.csv"


class TestSynthCommand:
    def test_writes_mixture_and_truth(self, tmp_path):
        mixture_path, truth_path = synth_files(tmp_path)
        mixture = read_csv(mixture_path)
        truth = read_csv(truth_path)
        assert mixture.samples.shape == (25000, 4)
        assert truth.channel_labels == ("cardiac", "respiratory")
        assert mixture.sample_rate_hz == 1000.0


class TestRunCommand:
    def test_full_run_outputs(self, tmp_path, capsys):
        mixture_path, truth_path = synth_files(tmp_path)
        out = tmp_path / "results"
        code = run_cli(
            "run",
            "--input", str(mixture_path),
            "--truth", str(truth_path),
            "--out-dir", str(out),
            "--seed", "0",
        )
        assert code == 0
        report = json.loads((out / "demo_mixture_report.json").read_text())
        assert report["n_frames"] == 2
        for k in range(2):
            comp_path = out / f"demo_mixture_f{k}_components.csv"
            comp = read_csv(comp_path)
            assert comp.channel_labels == ("time_s", "ic1", "ic2")
            assert comp.samples.shape == (1000, 3)
            period = (out / f"demo_mixture_f{k}_periodogram.csv").read_text().splitlines()
            assert period[0] == "freq_hz,ic1,ic2"
            assert len(period) == 1 + 501  # rfft bins of a 1000-sample frame
        for frame in report["frames"]:
            assert min(abs(r) for r in frame["matching"]["correlations"]) >= 0.95
        assert "frame 0: ok" in capsys.readouterr().out

    def test_deterministic_outputs_byte_identical(self, tmp_path):
        mixture_path, truth_path = synth_files(tmp_path, seed="9")
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = run_cli(
                "run",
                "--input", str(mixture_path),
                "--truth", str(truth_path),
                "--out-dir", str(out),
                "--seed", "7",
            )
            assert code == 0
            outs.append(out)
        for k in range(2):
            name = f"demo_mixture_f{k}_components.csv"
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        reports = []
        for out in outs:
            payload = json.loads((out / "demo_mixture_report.json").read_text())
            payload.pop("total_seconds")
            for frame in payload["frames"]:
                frame.pop("seconds")
            reports.append(payload)
        assert reports[0] == reports[1]

    def test_frame_errors_exit_code_2(self, tmp_path, capsys):
        mixture_path, _ = synth_files(tmp_path)
        code = run_cli(
            "run",
            "--input", str(mixture_path),
            "--out-dir", str(tmp_path / "bad"),
            "--cutoff-hz", "60",  # above post-decimation Nyquist of 50 Hz
        )
        assert code == 2
        assert "FAILED at preprocess" in capsys.readouterr().out

    def test_config_file_and_flag_precedence(self, tmp_path):
        mixture_path, _ = synth_files(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frame_len": 5000, "ica": {"seed": 3, "tolerance": 1e-5}}))
        out = tmp_path / "cfgout"
        code = run_cli(
            "run",
            "--input", str(mixture_path),
            "--config", str(cfg),
            "--out-dir", str(out),
            "--frame-len", "12500",  # flag beats config file
        )
        assert code == 0
        report = json.loads((out / "demo_mixture_report.json").read_text())
        assert report["config"]["frame_len"] == 12500
        assert report["config"]["ica"]["seed"] == 3
        assert report["config"]["ica"]["tolerance"] == 1e-5
        assert report["n_frames"] == 2

    def test_report_config_fed_back_rebuilds_same_config(self, tmp_path):
        mixture_path, _ = synth_files(tmp_path)
        first = tmp_path / "first"
        code = run_cli(
            "run",
            "--input", str(mixture_path),
            "--out-dir", str(first),
            "--frame-len", "12500",
            "--cutoff-hz", "30",
            "--contrast", "pow3",
            "--seed", "4",
        )
        assert code == 0
        config = json.loads((first / "demo_mixture_report.json").read_text())["config"]
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(config))
        second = tmp_path / "second"
        code = run_cli("run", "--input", str(mixture_path), "--config", str(cfg),
                       "--out-dir", str(second))
        assert code == 0
        assert json.loads((second / "demo_mixture_report.json").read_text())["config"] == config

    @pytest.mark.parametrize("file_config,key", [
        ({"filter_order": 2}, "filter_order"),
        ({"frame-len": 5000}, "frame-len"),
        ({"ica": {"max_iter": 5}}, "max_iter"),
    ], ids=["filter_order", "frame-len", "ica.max_iter"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, file_config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_config))
        code = run_cli("run", "--input", str(tmp_path / "unread.csv"), "--config", str(cfg))
        assert code == 1
        err = capsys.readouterr().err
        assert "error: unknown key" in err and repr(key) in err

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        mixture_path, _ = synth_files(tmp_path)
        monkeypatch.setenv("EBI_UNMIX_SEED", "31")
        out = tmp_path / "envout"
        code = run_cli("run", "--input", str(mixture_path), "--out-dir", str(out))
        assert code == 0
        report = json.loads((out / "demo_mixture_report.json").read_text())
        assert report["config"]["ica"]["seed"] == 31

    def test_missing_input_reports_error(self, tmp_path, capsys):
        code = run_cli("run", "--input", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_components_against_truth(self, tmp_path):
        mixture_path, truth_path = synth_files(tmp_path)
        out = tmp_path / "results"
        run_cli(
            "run",
            "--input", str(mixture_path),
            "--truth", str(truth_path),
            "--out-dir", str(out),
            "--seed", "0",
        )
        # score the frame-0 components against the same slice of the truth
        truth = read_csv(truth_path)
        from ebiunmix.dsp import SignalMatrix
        from ebiunmix.pipeline import write_csv

        truth_frame = SignalMatrix(
            truth.samples[:10000][::10], 100.0, truth.channel_labels
        )
        truth_frame_path = tmp_path / "truth_f0.csv"
        write_csv(truth_frame, truth_frame_path)

        report_path = tmp_path / "eval.json"
        code = run_cli(
            "eval",
            "--components", str(out / "demo_mixture_f0_components.csv"),
            "--truth", str(truth_frame_path),
            "--out", str(report_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert min(abs(r) for r in payload["correlations"]) >= 0.95
        assert payload["estimated_labels"] == ["ic1", "ic2"]  # time_s dropped

    def test_eval_prints_to_stdout_without_out(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        from ebiunmix.dsp import SignalMatrix
        from ebiunmix.pipeline import write_csv

        x = rng.standard_normal((500, 2))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(SignalMatrix(x, 100.0), a)
        write_csv(SignalMatrix(x[:, ::-1].copy(), 100.0), b)
        code = run_cli("eval", "--components", str(a), "--truth", str(b))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["assignment"] == [[0, 1], [1, 0]]


class TestFilterDesignCommand:
    def test_prints_coefficients_and_table(self, capsys):
        code = run_cli("filter-design", "--cutoff-hz", "40", "--rate", "100", "--points", "10")
        assert code == 0
        out = capsys.readouterr().out
        assert "b0 = " in out and "a2 = " in out
        table = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert len(table) == 10

    def test_bad_design_reports_error(self, capsys):
        code = run_cli("filter-design", "--cutoff-hz", "60", "--rate", "100")
        assert code == 1
        assert "error:" in capsys.readouterr().err
