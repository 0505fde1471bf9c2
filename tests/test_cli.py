"""Tests for the ebi-unmix command line interface."""
import inspect
import io
import json
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ebiunmix import cli, pipeline
from ebiunmix.cli import _build_config, _write_periodogram, build_parser, main
from ebiunmix.dsp import SignalMatrix
from ebiunmix.fastica import IcaConfig
from ebiunmix.pipeline import _WRITE_BLOCK, PipelineConfig, _csv_rows, read_csv, write_csv
from ebiunmix.synth import default_scenario

from oracles import csv_text, periodogram


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

    FLAGS = {  # flag: (the default_scenario parameter it sets, a value other than the default)
        "--n": ("n", 3000),
        "--rate": ("rate_hz", 500.0),
        "--seed": ("seed", 4),
        "--noise-sigma": ("noise_sigma", 0.1),
        "--correlation-injection": ("correlation_injection", 0.2),
        "--cardiac-hz": ("cardiac_hz", 1.5),
        "--jitter-pct": ("jitter_pct", 5.0),
        "--resp-hz": ("resp_hz", 0.3),
        "--harmonics": ("harmonics", 2),
    }

    def test_source_flags_match_default_scenario(self, tmp_path):
        # one flag per parameter, each setting the parameter its dest names
        assert {name for name, _ in self.FLAGS.values()} == set(
            inspect.signature(default_scenario).parameters)
        argv = [str(a) for flag, (_, value) in self.FLAGS.items() for a in (flag, value)]
        assert run_cli("synth", "--out-dir", str(tmp_path), "--stem", "s", *argv) == 0
        expected = default_scenario(**dict(self.FLAGS.values()))
        for signal, name in zip(expected, ("s_mixture.csv", "s_truth.csv")):
            write_csv(signal, tmp_path / "expected.csv")
            assert (tmp_path / name).read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_flags_reach_a_wrapped_default_scenario(self, tmp_path, monkeypatch):
        # a wrapper that takes (*args, **kwargs), as a tracer's does, still gets every flag
        run_cli("synth", "--out-dir", str(tmp_path / "plain"), "--n", "3000", "--rate", "500")
        monkeypatch.setattr(cli, "default_scenario", lambda *a, **kw: default_scenario(*a, **kw))
        run_cli("synth", "--out-dir", str(tmp_path / "wrapped"), "--n", "3000", "--rate", "500")
        for name in ("ebi_synth_mixture.csv", "ebi_synth_truth.csv"):
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "wrapped" / name).read_bytes() == plain
            assert b"# rate_hz=500.0" in plain

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        assert run_cli("synth", "--out-dir", str(tmp_path), "--n", "1000", "--seed", "-1") == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value", [
        ("--noise-sigma", "inf"), ("--correlation-injection", "1.0"), ("--jitter-pct", "150"),
    ])
    def test_bad_mixture_flag_exits_1(self, tmp_path, capsys, flag, value):
        assert run_cli("synth", "--out-dir", str(tmp_path), "--n", "1000", flag, value) == 1
        assert f"error: {flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_recording_that_ends_before_the_first_beat_exits_1(self, tmp_path, capsys):
        # at 0.1 Hz the first beat falls at 5 s: the 3 s cardiac truth would be all zeros
        argv = ("synth", "--out-dir", str(tmp_path), "--n", "3000", "--cardiac-hz", "0.1")
        assert run_cli(*argv) == 1
        assert "error: the cardiac source is constant over n=3000" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def test_environment_seed_is_not_read(tmp_path, monkeypatch):
    # the seed is --seed, then the config file's ica.seed, then 0: the
    # environment is not a run input, so EBI_UNMIX_SEED changes nothing
    assert run_cli("synth", "--out-dir", str(tmp_path / "flag"), "--n", "20000", "--seed", "0") == 0
    monkeypatch.setenv("EBI_UNMIX_SEED", "31")
    assert run_cli("synth", "--out-dir", str(tmp_path / "env"), "--n", "20000") == 0
    for name in ("ebi_synth_mixture.csv", "ebi_synth_truth.csv"):
        assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()
    out = tmp_path / "run"
    assert run_cli("run", "--input", str(tmp_path / "env" / "ebi_synth_mixture.csv"),
                   "--out-dir", str(out)) == 0
    report = json.loads((out / "ebi_synth_mixture_report.json").read_text())
    assert report["config"]["ica"]["seed"] == 0


class TestWriterBytes:
    """Both CSV writers produce exactly the bytes of a row-by-row %.17g formatter."""

    LABELS = ("ch1", "Δz_µΩ", "ch3")

    def test_write_csv(self, tmp_path):
        samples = np.array([
            [-0.0, 5e-324, 1e308],
            [-1e308, 1.2345678901234567e-300, -2.5e-7],
            [0.1, -3.0, 123456789.0],
        ])
        path = tmp_path / "signal.csv"
        write_csv(SignalMatrix(samples, 1000.0, self.LABELS), path)
        expected = csv_text(["# rate_hz=1000.0", ",".join(self.LABELS)], samples)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_write_periodogram(self, tmp_path, rng):
        # power spans subnormal (1e-160 squared), ordinary and 1e300-scale values
        samples = rng.standard_normal((101, 3)) * np.array([1e-160, 1.0, 1e150])
        path = tmp_path / "periodogram.csv"
        _write_periodogram(SignalMatrix(samples, 100.0, self.LABELS), path)
        freqs, power = periodogram(samples, 100.0)
        expected = csv_text(
            [",".join(("freq_hz",) + self.LABELS)], np.column_stack([freqs, power])
        )
        assert path.read_bytes() == expected.encode("utf-8")


def savetxt_text(x):
    """np.savetxt's row-by-row %.17g rows of x."""
    fh = io.StringIO()
    np.savetxt(fh, x, fmt="%.17g", delimiter=",")
    return fh.getvalue()


ROW_COUNTS = [1, _WRITE_BLOCK - 1, _WRITE_BLOCK, _WRITE_BLOCK + 1, 2 * _WRITE_BLOCK + 3]
SPECIAL_VALUES = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308]


class TestWriterBlocks:
    """Both CSV writers match np.savetxt on row counts around the block length."""

    @pytest.mark.parametrize("p", [1, 5])
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_write_csv(self, tmp_path, rng, n, p):
        x = rng.standard_normal((n, p))
        # special values at both ends, so in the first and the last block
        x.flat[:len(SPECIAL_VALUES)] = SPECIAL_VALUES[:x.size]
        x.flat[-len(SPECIAL_VALUES):] = SPECIAL_VALUES[-x.size:]
        sig = SignalMatrix(x, 250.0)
        path = tmp_path / "signal.csv"
        write_csv(sig, path)
        header = f"# rate_hz=250.0\n{','.join(sig.channel_labels)}\n"
        assert path.read_bytes() == (header + savetxt_text(x)).encode("utf-8")

    @pytest.mark.parametrize("p", [1, 5])
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_write_periodogram(self, tmp_path, rng, rows, p):
        # n samples give n // 2 + 1 frequency rows; the scales make subnormal
        # and 1e300-scale powers
        x = rng.standard_normal((max(1, 2 * (rows - 1)), p)) * np.geomspace(1e-160, 1e150, p)
        sig = SignalMatrix(x, 250.0)
        path = tmp_path / "periodogram.csv"
        _write_periodogram(sig, path)
        table = np.column_stack(periodogram(x, 250.0))
        assert table.shape[0] == rows
        header = ",".join(("freq_hz",) + sig.channel_labels) + "\n"
        assert path.read_bytes() == (header + savetxt_text(table)).encode("utf-8")


def per_cell_text(x):
    """The rows of x as per-cell %.17g texts, joined by commas, as bytes."""
    return csv_text([], x).encode("utf-8")


def below_power_of_ten(k):
    """The largest float below 10**k."""
    power, nearest = Fraction(10) ** k, float(Fraction(10) ** k)
    return nearest if Fraction(nearest) < power else float(np.nextafter(nearest, 0.0))


# The positive floats in the kernel's fast range, 1e-6 < x < 1e17, are one run
# of bit patterns; with the sign bit set, so are the negative ones.
FAST_BITS = tuple(np.array([np.nextafter(1e-6, 1.0), np.nextafter(1e17, 0.0)])
                  .view(np.uint64).tolist())


class TestWriterKernel:
    """_csv_rows, the writers' block kernel, gives the bytes of per-cell %.17g
    for every float: exact digits in the fast range, %.17g outside it."""

    @pytest.mark.parametrize("p", [1, 5])
    @given(bits=st.lists(st.one_of(
        st.integers(0, 2**64 - 1),  # every float64, nan, inf, subnormals and -0.0 among them
        st.integers(*FAST_BITS),
        st.integers(*FAST_BITS).map(lambda b: b + 2**63),
    ), min_size=5, max_size=200))
    def test_float64_bit_patterns(self, p, bits):
        x = np.array(bits[:len(bits) // p * p], np.uint64).view(np.float64).reshape(-1, p)
        assert _csv_rows(x) == per_cell_text(x)

    def test_ulps_around_powers_of_ten(self):
        # where floor(log10 |x|) may miss by one: 3 ulps each side of 1e-7 .. 1e18
        powers = np.array([float(f"1e{k}") for k in range(-7, 19)])
        x = powers[:, None]
        for _ in range(3):
            x = np.column_stack([np.nextafter(x[:, 0], 0.0), x, np.nextafter(x[:, -1], np.inf)])
        for block in (x, -x, x.reshape(-1, 1)):
            assert _csv_rows(block) == per_cell_text(block)

    def test_edges_of_the_fast_range(self):
        # 1e-6 itself (just below 10**-6) and 1e17 take %.17g, their inner neighbours the kernel
        x = np.array([[1e-6, np.nextafter(1e-6, 1.0), np.nextafter(1e17, 0.0), 1e17]])
        assert _csv_rows(x) == b"9.9999999999999995e-07,1.0000000000000002e-06," \
                               b"99999999999999984,1e+17\n"
        assert _csv_rows(-x) == per_cell_text(-x)

    def test_exact_ties_round_half_to_even(self, rng):
        # M / 4 with M odd and |x| near 1e15: x * 10 ends in 5, a tie at the 17th digit
        quarters = (rng.integers(4 * 10**15, 36 * 10**15, 4096) | 1) / 4.0
        # and one row per exponent E = -6 .. 15: q / 2**(17 - E), q odd, is exact
        # with 18 digits, the last a 5
        rows = []
        for e in range(-6, 16):
            first = -(-Fraction(10) ** e * 2 ** (17 - e) // 1) | 1
            row = [float(q / Fraction(2) ** (17 - e)) for q in range(first, first + 10, 2)]
            assert all(Fraction(v) * Fraction(10) ** (17 - e) % 10 == 5 for v in row)
            rows.append(row)
        for x in (quarters.reshape(-1, 4), np.array(rows), -np.array(rows)):
            assert _csv_rows(x) == per_cell_text(x)

    def test_no_float_in_the_fast_range_rounds_up_to_a_power_of_ten(self):
        # 17 digits keep the largest float below each 10**k, k = -5 .. 17, below it,
        # so the kernel needs no carry into the next exponent; the floats that
        # do carry, such as 1e-14 and 1e98, lie outside the range
        below = np.array([[below_power_of_ten(k) for k in range(-5, 18)]])
        assert all(text.lstrip(b"0.").startswith(b"9") for text in _csv_rows(below).split(b","))
        assert _csv_rows(below) == per_cell_text(below)
        carry = np.array([[below_power_of_ten(-14), below_power_of_ten(98)]])
        assert _csv_rows(carry) == b"1e-14,1e+98\n"

    def test_block_of_fallback_cells_only(self):
        x = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-6, -1e-7, 1e17, -1e300,
                      np.inf, -np.inf, np.nan, -5e-324]).reshape(3, 4)
        assert _csv_rows(x) == per_cell_text(x)

    def test_fallback_cells_on_both_sides_of_a_block_boundary(self, tmp_path, rng):
        x = rng.standard_normal((_WRITE_BLOCK + 1, 3))
        x[_WRITE_BLOCK - 1, -1], x[_WRITE_BLOCK, 0] = 0.0, -1e-300
        path = tmp_path / "signal.csv"
        write_csv(SignalMatrix(x, 250.0), path)
        assert path.read_bytes() == b"# rate_hz=250.0\nch1,ch2,ch3\n" + per_cell_text(x)


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
        warning = "the last 5000 of 25000 samples fill no whole frame of 10000"
        assert report["warnings"] == [f"{warning} and were not processed"]
        lines = capsys.readouterr().out.splitlines()[-4:]  # after synth's two lines
        assert lines[0].startswith("frame 0: ok") and lines[1].startswith("frame 1: ok")
        assert lines[2] == f"warning: {report['warnings'][0]}"
        assert lines[3] == f"report: {out / 'demo_mixture_report.json'}"

    def test_ica_only_prints_that_components_is_unused(self, tmp_path, capsys):
        mixture_path, _ = synth_files(tmp_path)
        out = tmp_path / "ica_only5"
        code = run_cli(
            "run",
            "--input", str(mixture_path),
            "--out-dir", str(out),
            "--mode", "ica_only",
            "--components", "5",
        )
        assert code == 0
        report = json.loads((out / "demo_mixture_report.json").read_text())
        assert [frame["retained"] for frame in report["frames"]] == [4, 4]
        unused = "retained_components=5 was not used: ica_only whitens at full rank, 4 components"
        assert report["warnings"][0] == unused
        assert f"warning: {unused}" in capsys.readouterr().out.splitlines()

    def test_plain_ica_only_run_prints_no_unused_warning(self, tmp_path, capsys):
        mixture_path, _ = synth_files(tmp_path)
        out = tmp_path / "ica_only"
        code = run_cli("run", "--input", str(mixture_path), "--out-dir", str(out),
                       "--mode", "ica_only")
        assert code == 0
        report = json.loads((out / "demo_mixture_report.json").read_text())
        assert report["config"]["retained_components"] is None
        assert [frame["retained"] for frame in report["frames"]] == [4, 4]
        assert not any("was not used" in w for w in report["warnings"])
        assert "was not used" not in capsys.readouterr().out

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
        mixture = read_csv(mixture_path)
        samples = mixture.samples.copy()
        samples[:10000, 3] = 7.0  # a dead electrode in frame 0 only
        dead_path = tmp_path / "dead.csv"
        write_csv(SignalMatrix(samples, mixture.sample_rate_hz, mixture.channel_labels), dead_path)
        code = run_cli(
            "run",
            "--input", str(dead_path),
            "--out-dir", str(tmp_path / "bad"),
            "--mode", "ica_only",
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "frame 0: FAILED at whiten: DegenerateComponentError" in out
        assert "frame 1: ok" in out

    @pytest.mark.parametrize("flags,message", [
        (("--tol", "1.5"), "tolerance must be in (0, 1), got 1.5"),
        (("--frame-len", "30"),
         "frame_len 30 decimated by 10 leaves 3 samples per frame, fewer than the 4 channels"),
        (("--seed", "-1"), "seed must be >= 0, got -1"),
        (("--frame-len", "40", "--mode", "ica_only"),
         "frame_len 40 decimated by 10 leaves 4 samples per frame, "
         "fewer than the 5 that whitening 4 components needs"),
        (("--cutoff-hz", "1e-7"), "cutoff 1e-07 Hz at rate 100.0 Hz is too close to 0 or to "
                                  "Nyquist for a double-precision biquad"),
        (("--frame-len", "30000"),
         "frame_len 30000 exceeds the signal's 25000 samples; no whole frame to process"),
        (("--cutoff-hz", "60"),  # above the post-decimation Nyquist of 50 Hz
         "cutoff 60.0 Hz must lie strictly between 0 and Nyquist (50.0 Hz)"),
        (("--input", "one_channel.csv", "--components", "1", "--frame-len", "10"),
         "frame_len 10 decimated by 10 leaves 1 samples per frame, fewer than the 2 that PCA needs"),
    ], ids=["tol", "frame-len", "seed", "frame-len-ica-only", "cutoff-near-0",
            "frame-len-over-signal", "cutoff-over-nyquist", "one-channel"])
    def test_unworkable_config_exits_1(self, tmp_path, capsys, monkeypatch, flags, message):
        mixture_path, _ = synth_files(tmp_path)
        mixture = read_csv(mixture_path)
        monkeypatch.chdir(tmp_path)  # one_channel.csv: the mixture's first channel alone
        write_csv(SignalMatrix(mixture.samples[:, :1], mixture.sample_rate_hz,
                               mixture.channel_labels[:1]), "one_channel.csv")
        capsys.readouterr()
        # a second --input in flags replaces the mixture (argparse keeps the last)
        code = run_cli(
            "run", "--input", str(mixture_path), "--out-dir", str(tmp_path / "bad"), *flags
        )
        assert code == 1
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "FAILED" not in captured.out
        assert not (tmp_path / "bad").exists()  # the output directory is not made

    def test_out_dir_that_cannot_be_made_exits_1_before_any_frame(
        self, tmp_path, capsys, monkeypatch
    ):
        mixture_path, _ = synth_files(tmp_path)
        (tmp_path / "file").write_text("")

        def process_frame(*args):
            raise AssertionError("a frame ran before the output directory was made")

        monkeypatch.setattr(pipeline, "process_frame", process_frame)
        capsys.readouterr()
        code = run_cli(
            "run", "--input", str(mixture_path), "--out-dir", str(tmp_path / "file" / "x")
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_config_with_byte_order_mark_builds_the_same_config(self, tmp_path):
        text = json.dumps({"frame_len": 5000, "ica": {"seed": 3}})
        (tmp_path / "plain.json").write_text(text, encoding="utf-8")
        (tmp_path / "bom.json").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom.json").read_bytes().startswith(b"\xef\xbb\xbf")
        plain, bom = (_build_config(build_parser().parse_args(
            ["run", "--input", "unread.csv", "--config", str(tmp_path / name)]))
            for name in ("plain.json", "bom.json"))
        assert bom == plain == PipelineConfig(frame_len=5000, ica=IcaConfig(seed=3))

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
        ({"ica": {"orthogonalization": "symmetric"}}, "orthogonalization"),
    ], ids=["filter_order", "frame-len", "ica.max_iter", "ica.orthogonalization"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, file_config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_config))
        code = run_cli("run", "--input", str(tmp_path / "unread.csv"), "--config", str(cfg))
        assert code == 1
        err = capsys.readouterr().err
        assert "error: unknown key" in err and repr(key) in err

    @pytest.mark.parametrize("file_config,message", [
        ({"frame_len": 5000.0}, "frame_len must be an integer, got 5000.0"),
        ({"cutoff_hz": "40"}, "cutoff_hz must be a real number, got '40'"),
        ({"ica": {"max_iterations": 200.0}}, "max_iterations must be an integer, got 200.0"),
        ([], "config file must be a JSON object"),
        ({"ica": 5}, "config section 'ica' must be a JSON object"),
        ({"filter_position": "sideways"}, "filter_position must be one of"),
        ({"mode": "ica"}, "mode must be one of"),
    ], ids=["frame_len-float", "cutoff_hz-str", "ica.max_iterations-float", "top-list",
            "ica-int", "filter_position-outside", "mode-outside"])
    def test_wrong_config_type_rejected(self, tmp_path, capsys, file_config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_config))
        code = run_cli("run", "--input", str(tmp_path / "unread.csv"), "--config", str(cfg))
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_missing_input_reports_error(self, tmp_path, capsys):
        code = run_cli("run", "--input", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRunTimeColumn:
    """run drops a time_s column from --input and --truth, as eval does."""

    @staticmethod
    def _run(mixture_path, truth_path, out):
        argv = ["run", "--input", str(mixture_path), "--out-dir", str(out), "--seed", "0"]
        assert run_cli(*argv, *(["--truth", str(truth_path)] if truth_path else [])) == 0
        return json.loads((out / "demo_mixture_report.json").read_text())["frames"]

    def test_truth_time_column_gives_the_same_matching(self, tmp_path):
        mixture_path, truth_path = synth_files(tmp_path)
        timed = tmp_path / "timed_truth.csv"
        write_csv(cli._with_time_column(read_csv(truth_path)), timed)
        plain = self._run(mixture_path, truth_path, tmp_path / "plain")
        with_time = self._run(mixture_path, timed, tmp_path / "timed")
        assert [f["matching"] for f in with_time] == [f["matching"] for f in plain]
        assert plain[0]["matching"]["assignment"] == [[0, 1], [1, 0]]

    def test_input_time_column_gives_byte_identical_components(self, tmp_path):
        mixture_path, _ = synth_files(tmp_path)
        timed = tmp_path / "timed" / "demo_mixture.csv"
        timed.parent.mkdir()
        write_csv(cli._with_time_column(read_csv(mixture_path)), timed)
        self._run(mixture_path, None, tmp_path / "plain")
        frames = self._run(timed, None, tmp_path / "timed" / "out")
        assert [f["retained"] for f in frames] == [2, 2]
        for k in range(2):
            for kind in ("components", "periodogram"):
                name = f"demo_mixture_f{k}_{kind}.csv"
                assert ((tmp_path / "timed" / "out" / name).read_bytes()
                        == (tmp_path / "plain" / name).read_bytes())

    def test_input_with_only_time_exits_1(self, tmp_path, capsys):
        time_only = tmp_path / "time.csv"
        write_csv(SignalMatrix(np.arange(500.0)[:, None] / 100.0, 100.0, ("time_s",)), time_only)
        code = run_cli("run", "--input", str(time_only), "--out-dir", str(tmp_path / "out"))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --input file {time_only} holds no signal column besides time_s\n"
        assert not (tmp_path / "out").exists()


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
        x = rng.standard_normal((500, 2))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(SignalMatrix(x, 100.0), a)
        write_csv(SignalMatrix(x[:, ::-1].copy(), 100.0), b)
        code = run_cli("eval", "--components", str(a), "--truth", str(b))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["assignment"] == [[0, 1], [1, 0]]

    def test_time_column_alone_exits_1(self, tmp_path, capsys):
        x = np.random.default_rng(0).standard_normal((500, 2))
        time_only = tmp_path / "a.csv"
        signal = tmp_path / "b.csv"
        write_csv(SignalMatrix(np.arange(500.0)[:, None] / 100.0, 100.0, ("time_s",)), time_only)
        write_csv(SignalMatrix(x, 100.0), signal)
        for flag, components, truth in (("--components", time_only, signal),
                                        ("--truth", signal, time_only)):
            code = run_cli("eval", "--components", str(components), "--truth", str(truth))
            assert code == 1
            captured = capsys.readouterr()
            message = f"error: {flag} file {time_only} holds no signal column besides time_s"
            assert message in captured.err
            assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("samples,rate,message", [
    (3000, 1000.0, "{truth} has 3000 samples, {signal} has 2000"),
    (2000, 500.0, "{truth} is sampled at 500.0 Hz, {signal} at 1000.0 Hz"),
], ids=["samples", "rate"])
def test_truth_pairing_refusal_names_both_sides(tmp_path, capsys, command, samples, rate,
                                                message):
    # run --truth and eval pair a truth with its signal by one rule; run names
    # the two sides as run_pipeline does, eval by its two files
    x = np.random.default_rng(0).standard_normal((3000, 4))
    signal, truth = tmp_path / "signal.csv", tmp_path / "truth.csv"
    write_csv(SignalMatrix(x[:2000], 1000.0), signal)
    write_csv(SignalMatrix(x[:samples, :2], rate), truth)
    if command == "run":
        argv = ("run", "--input", signal, "--truth", truth, "--frame-len", "1000",
                "--out-dir", tmp_path / "out")
        sides = {"truth": "truth", "signal": "signal"}
    else:
        argv = ("eval", "--components", signal, "--truth", truth)
        sides = {"truth": f"--truth file {truth}", "signal": f"--components file {signal}"}
    assert run_cli(*map(str, argv)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(**sides)}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


class TestRunFlags:
    """Each run flag sets the config field its dest names, and only that."""

    FLAGS = {  # flag: (the field it sets, a value other than the default)
        "--frame-len": ("frame_len", 5000),
        "--decimate": ("decimation_factor", 5),
        "--cutoff-hz": ("cutoff_hz", 30.0),
        "--filter-position": ("filter_position", "before_decimate"),
        "--components": ("retained_components", 3),
        "--mode": ("mode", "ica_only"),
        "--contrast": ("contrast", "pow3"),
        "--max-iter": ("max_iterations", 50),
        "--tol": ("tolerance", 1e-4),
        "--seed": ("seed", 6),
    }

    def test_every_config_field_has_its_flag(self):
        names = {name for name, _ in self.FLAGS.values()}
        assert names == {f.name for f in fields(PipelineConfig) if f.name != "ica"} | {
            f.name for f in fields(IcaConfig)}

    @pytest.mark.parametrize("flag", list(FLAGS))
    def test_run_flag_sets_its_field(self, flag):
        name, value = self.FLAGS[flag]
        config = _build_config(build_parser().parse_args(
            ["run", "--input", "unread.csv", flag, str(value)]))
        built, default = self._values(config), self._values(PipelineConfig())
        assert built[name] == value
        assert {key for key in default if built[key] != default[key]} == {name}

    @staticmethod
    def _values(config):
        """The fields of config and of its IcaConfig, by name."""
        values = asdict(config)
        values.update(values.pop("ica"))
        return values


class TestFilterDesignCommand:
    def test_prints_coefficients_and_table(self, capsys):
        code = run_cli("filter-design", "--cutoff-hz", "40", "--rate", "100", "--points", "10")
        assert code == 0
        out = capsys.readouterr().out
        assert "b0 = " in out and "a2 = " in out
        table = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert len(table) == 10

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_1_rejected(self, capsys, points):
        code = run_cli("filter-design", "--cutoff-hz", "40", "--rate", "100", "--points", points)
        assert code == 1
        captured = capsys.readouterr()
        assert f"error: --points must be >= 1, got {points}" in captured.err
        assert captured.out == ""

    def test_bad_design_reports_error(self, capsys):
        code = run_cli("filter-design", "--cutoff-hz", "60", "--rate", "100")
        assert code == 1
        assert "error:" in capsys.readouterr().err
