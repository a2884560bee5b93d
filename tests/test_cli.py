import csv
import dataclasses
import os
import re

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import FS, glottal_pulse_train, run_python
from modepitch import evaluation
from modepitch.audio import SampleBuffer, load_wav, save_wav
from modepitch.cli import DEFAULT_SNRS, OUT_DIR_ENV, main
from modepitch.corpus import generate_corpus, write_noise_set
from modepitch.emd import EmdConfig
from modepitch.estimators import EstimatorConfig
from modepitch.separation import ESTIMATORS, AnalysisConfig, ProConfig
from modepitch.vad import VadConfig


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def two_tone_wav(tmp_path):
    t = np.arange(FS) / FS
    x = 0.4 * np.sin(2 * np.pi * 200 * t) + 0.4 * np.sin(2 * np.pi * 40 * t)
    path = tmp_path / "twotone.wav"
    save_wav(path, SampleBuffer(x, FS))
    return str(path)


@pytest.fixture
def vowel_wav(tmp_path):
    buf = glottal_pulse_train(120.0, duration_s=0.6)
    path = tmp_path / "vowel.wav"
    save_wav(path, buf)
    return str(path)


@pytest.fixture
def short_wav(tmp_path):
    # 50 ms at 8 kHz: shorter than one 90 ms analysis frame
    path = tmp_path / "short.wav"
    save_wav(path, glottal_pulse_train(120.0, duration_s=0.05))
    return str(path)


def assert_click_error(result, message):
    """A click error: exit 1, "Error: <message>" printed, no traceback."""
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {message}" in result.output
    assert "Traceback" not in result.output


def _synth(runner, out_dir, *args):
    """The corpus ``synth`` writes to OUT_DIR with ARGS; its directory."""
    result = runner.invoke(main, ["synth", "--out-dir", str(out_dir), *args])
    assert result.exit_code == 0, result.output
    return out_dir


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


class TestHelpDocSync:
    def test_every_config_knob_in_help(self, runner):
        # the three settable values are the analysis commands' only
        # configuration; a new option on any of them fails here
        knobs = {"--emd-ensemble-size", "--emd-wgn-std-ratio", "--seed"}
        own = {
            "decompose": {"-o", "--output", "--emd-max-imfs"},
            "track": {"--estimator", "--pro", "--raw", "-o", "--output"},
            "separate": {"-o", "--output"},
            "bench": {"--manifest", "--noise-dir", "--snrs", "--estimators",
                      "--methods", "--gate", "--jobs", "--dump-mixes", "-o",
                      "--output"}}
        for command, flags in own.items():
            params = main.commands[command].params
            assert {opt for p in params for opt in (*p.opts, *p.secondary_opts)
                    if opt.startswith("-")} == flags | knobs, command
            result = runner.invoke(main, [command, "--help"])
            assert result.exit_code == 0
            for flag in knobs:
                assert flag in result.output, f"{flag} missing from {command}"

    @pytest.mark.parametrize("command", ["decompose", "track", "separate", "bench"])
    def test_flags_reach_the_analysis(self, runner, vowel_wav, tmp_path, monkeypatch,
                                      command):
        # the analysis call of each command gets the flags' EmdConfig, and
        # bench mixes with the same seed
        seen = {}

        class Reached(Exception):
            pass

        def analysis(*args, **kwargs):
            seen["args"], seen["kwargs"] = args, kwargs
            raise Reached

        name = {"decompose": "eemd_decompose", "bench": "run_benchmark"}.get(
            command, "analyze_utterance")
        monkeypatch.setattr(f"modepitch.cli.{name}", analysis)
        if command == "bench":
            manifest = generate_corpus(tmp_path / "corpus", count=1, duration_ms=200.0)
            noise_dir = tmp_path / "noises"
            write_noise_set(noise_dir, kinds=("white",), duration_ms=500.0)
            args = ["--manifest", manifest, "--noise-dir", str(noise_dir), "--jobs", "1"]
        else:
            args = [vowel_wav]
        result = runner.invoke(main, [command, *args, "-o", str(tmp_path / "out"),
                                      "--seed", "3", "--emd-ensemble-size", "2",
                                      "--emd-wgn-std-ratio", "0.3"])
        assert isinstance(result.exception, Reached), result.output
        # decompose passes cfg.emd second, the others the whole cfg last
        if command == "decompose":
            assert seen["args"][1] == EmdConfig(2, 0.3, 3)
        else:
            assert seen["args"][-1] == AnalysisConfig(emd=EmdConfig(2, 0.3, 3))
        if command == "bench":
            assert seen["kwargs"]["seed"] == 3

    def test_settable_fields_and_fixed_constants(self):
        # the EEMD ensemble, noise ratio and seed are the only settable knobs;
        # every other frame, estimator, sift, region and VAD value is a class
        # constant holding its published default, readable as cfg.<name>
        assert [f.name for f in dataclasses.fields(AnalysisConfig)] == ["emd"]
        assert [f.name for f in dataclasses.fields(EmdConfig)] == [
            "ensemble_size", "wgn_std_ratio", "rng_seed"]
        constants = {
            EmdConfig: {"sift_stop_sd": 0.2, "max_sift_iters": 50},
            EstimatorConfig: {
                "f_min": 50.0, "hht_num_imfs": 3,
                "f_max": 400.0, "swipe_f_max": 500.0, "shr_threshold": 0.4,
                "shr_max_harmonics": 8, "swipe_bins_per_octave": 48,
                "swipe_num_peaks": 5, "pefac_num_harmonics": 10,
                "pefac_compression": 0.5, "bins_per_octave": 48},
            ProConfig: {"gamma_hz": 200.0, "k_imfs": 4},
            VadConfig: {"frame_ms": 25.0, "hangover_frames": 2,
                        "zcr_max": 0.48, "energy_min_ratio": 0.1}}
        for cls, values in constants.items():
            for name, value in values.items():
                assert getattr(cls, name) == getattr(cls(), name) == value
        assert not hasattr(EstimatorConfig, "window")
        assert (AnalysisConfig.frame.frame_len_ms, AnalysisConfig.frame.hop_ms) == \
            (90.0, 10.0)
        for section, cls in (("estimator", EstimatorConfig), ("pro", ProConfig),
                             ("vad", VadConfig)):
            assert getattr(AnalysisConfig, section) == getattr(AnalysisConfig(), section) \
                == cls()

    @pytest.mark.parametrize("command,name", [
        ("decompose", "<stem>_modes.wav"),
        ("track", "<stem>_<estimator>_<method>.csv"),
        ("separate", "<stem>_regions.csv"),
        ("bench", "bench_report.csv")])
    def test_output_help_names_the_default(self, runner, command, name):
        # one dollar sign before the variable, however click wraps the line
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        text = "".join(result.output.split())
        assert f"[default:${OUT_DIR_ENV}/{name}]" in text
        assert text.count("$") == 1

    def test_track_offers_the_pipeline_estimators(self, runner):
        assert ESTIMATORS == ("pefac", "shr", "swipe", "hht")
        result = runner.invoke(main, ["track", "--help"])
        assert "[pefac|shr|swipe|hht]" in result.output

    def test_default_snr_grid(self, runner):
        assert DEFAULT_SNRS == (-15.0, -10.0, -5.0, 0.0, 5.0)
        result = runner.invoke(main, ["bench", "--help"])
        assert "-15,-10,-5,0,5" in result.output.replace(" ", "")


class TestUnreadableInput:
    @pytest.mark.parametrize("command", [["decompose"], ["track"], ["track", "--pro"],
                                         ["separate"]])
    def test_non_wav_input_is_click_error(self, runner, tmp_path, command):
        notes = tmp_path / "notes.wav"
        notes.write_text("not audio\n")
        result = runner.invoke(main, [command[0], str(notes), *command[1:],
                                      "-o", str(tmp_path / "out")])
        assert_click_error(result, f"unreadable WAV file {notes}")
        assert not (tmp_path / "out").exists()


class TestOutputPath:
    @pytest.mark.parametrize("bad", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["decompose", "track", "separate", "bench"])
    def test_bad_output_is_click_error_before_any_input_is_read(self, runner, tmp_path,
                                                                command, bad):
        # every input is unreadable, so reading one first would say so instead
        notes = tmp_path / "notes.wav"
        notes.write_text("not audio\n")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("missing.wav missing.f0\n")
        args = ([command, str(notes)] if command != "bench" else
                [command, "--manifest", str(manifest), "--noise-dir", str(tmp_path)])
        if bad == "missing":
            out, message = tmp_path / "missing" / "x.csv", \
                f"output directory {tmp_path / 'missing'} does not exist"
        else:
            out, message = tmp_path, f"output {tmp_path} is a directory"
        result = runner.invoke(main, [*args, "-o", str(out)])
        assert_click_error(result, message)
        assert result.output.count("Error:") == 1
        assert not (tmp_path / "missing").exists()


class TestDecompose:
    def test_two_tone_reports_modes(self, runner, two_tone_wav, tmp_path):
        out = str(tmp_path / "modes.wav")
        result = runner.invoke(main, [
            "decompose", two_tone_wav, "-o", out,
            "--emd-ensemble-size", "2", "--seed", "1"])
        assert result.exit_code == 0, result.output
        n_modes = int(result.output.split(" IMFs")[0].strip().split()[-1])
        assert n_modes >= 2
        assert "IMF_1" in result.output
        assert os.path.exists(out)

    def test_max_imfs_bounds_decomposition_only(self, runner, tmp_path):
        # the pipeline sifts only the modes it reads; decompose still
        # honours --emd-max-imfs past them
        vowel = glottal_pulse_train(150.0, duration_s=0.5).samples
        noise = 0.05 * np.random.default_rng(0).standard_normal(vowel.size)
        path = tmp_path / "noisy_vowel.wav"
        save_wav(path, SampleBuffer(vowel + noise, FS))
        result = runner.invoke(main, [
            "decompose", str(path), "-o", str(tmp_path / "modes.wav"),
            "--emd-ensemble-size", "5", "--emd-max-imfs", "6"])
        assert result.exit_code == 0, result.output
        n_modes = int(result.output.split(" IMFs")[0])
        assert 4 < n_modes <= 6
        assert "IMF_5" in result.output

    def test_monotone_ramp_zero_imfs(self, runner, tmp_path):
        path = tmp_path / "ramp.wav"
        save_wav(path, SampleBuffer(np.linspace(-0.5, 0.5, 4000), FS))
        out = str(tmp_path / "ramp_modes.wav")
        result = runner.invoke(main, [
            "decompose", str(path), "-o", out,
            "--emd-ensemble-size", "1", "--emd-wgn-std-ratio", "0"])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("0 IMFs")

    def test_leading_silence_plain_emd(self, runner, tmp_path):
        # 16-bit samples repeat, and the first 100 ms are exact zeros: the
        # sift's plateau branch runs, and the leading flat run is no extremum
        x = glottal_pulse_train(120.0, duration_s=0.5).samples.copy()
        x[:FS // 10] = 0.0
        path = tmp_path / "silence_first.wav"
        save_wav(path, SampleBuffer(x, FS))
        out = tmp_path / "silence_first_modes.wav"
        result = runner.invoke(main, ["decompose", str(path), "-o", str(out),
                                      "--emd-wgn-std-ratio", "0"])
        assert result.exit_code == 0, result.output
        assert "Traceback" not in result.output
        n_modes = int(result.output.split(" IMFs")[0])
        assert n_modes >= 1 and load_wav(out).samples.size == x.size
        assert f"modes written to {out}" in result.output

    def test_missing_file_nonzero_exit(self, runner):
        result = runner.invoke(main, ["decompose", "/nope/missing.wav"])
        assert result.exit_code != 0
        assert "missing.wav" in result.output


class TestTrack:
    def test_raw_hht_csv(self, runner, vowel_wav, tmp_path):
        out = str(tmp_path / "track.csv")
        result = runner.invoke(main, [
            "track", vowel_wav, "--estimator", "hht", "-o", out,
            "--emd-ensemble-size", "4"])
        assert result.exit_code == 0, result.output
        lines = open(out).read().splitlines()
        assert lines[0] == "time_ms,voiced,f0_hz"
        f0s = [float(line.split(",")[2]) for line in lines[1:]
               if line.split(",")[2]]
        assert f0s and abs(np.median(f0s) - 120.0) / 120.0 <= 0.2

    def test_pro_csv_has_region_columns(self, runner, vowel_wav, tmp_path):
        out = str(tmp_path / "track_pro.csv")
        result = runner.invoke(main, [
            "track", vowel_wav, "--estimator", "hht", "--pro", "-o", out,
            "--emd-ensemble-size", "4"])
        assert result.exit_code == 0, result.output
        header = open(out).read().splitlines()[0]
        for column in ("region", "mean_f0", "selected_imfs",
                       "raw_candidates", "corrected_candidates"):
            assert column in header

    def test_unknown_estimator_usage_error(self, runner, vowel_wav):
        result = runner.invoke(main, ["track", vowel_wav, "--estimator", "yin"])
        assert result.exit_code == 2
        assert "estimator" in result.output

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_wgn_std_ratio_is_bad_configuration(self, runner, vowel_wav,
                                                           tmp_path, ratio):
        # a NaN ratio made every region low and exited 0 with a wrong track
        out = tmp_path / "t.csv"
        result = runner.invoke(main, ["track", vowel_wav, "--pro", "--emd-ensemble-size",
                                      "2", "--emd-wgn-std-ratio", ratio, "-o", str(out)])
        assert_click_error(result, "bad configuration: wgn_std_ratio must be a finite "
                                   f"number >= 0, got {float(ratio)!r}")
        assert not out.exists()

    def test_negative_seed_is_bad_configuration_before_analysis(
            self, runner, vowel_wav, tmp_path, monkeypatch):
        # it used to fail inside the EEMD, after the WAV and the VAD, with
        # numpy's "expected non-negative integer"
        def no_read(path):
            raise AssertionError("the input was read")

        monkeypatch.setattr("modepitch.cli.load_wav", no_read)
        out = tmp_path / "t.csv"
        result = runner.invoke(main, ["track", vowel_wav, "--pro", "--seed", "-1",
                                      "-o", str(out)])
        assert_click_error(result, "bad configuration: rng_seed must be non-negative, got -1")
        assert not out.exists()

    def test_input_shorter_than_one_frame_is_click_error(self, runner, short_wav,
                                                          tmp_path):
        out = tmp_path / "t.csv"
        result = runner.invoke(main, ["track", short_wav, "--estimator", "swipe",
                                      "-o", str(out)])
        assert_click_error(result, "buffer of 400 samples is shorter than one "
                                   "90.0 ms frame (720 samples)")
        assert not out.exists()

    def test_hop_rounding_to_zero_samples_is_click_error(self, runner, tmp_path):
        # below 50 Hz the fixed 10 ms hop holds no sample
        wav = tmp_path / "rate40.wav"
        save_wav(wav, SampleBuffer(np.sin(np.arange(40.0)), 40))
        out = tmp_path / "t.csv"
        result = runner.invoke(main, ["track", str(wav), "--estimator", "swipe",
                                      "-o", str(out)])
        assert_click_error(result, "hop_ms=10.0 rounds to 0 samples at 40 Hz")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["track", "--estimator", "shr"], ["separate"]])
    def test_vad_frame_under_two_samples_is_click_error(self, runner, tmp_path,
                                                        command):
        wav = tmp_path / "rate51.wav"
        save_wav(wav, SampleBuffer(np.sin(np.arange(51.0)), 51))
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [command[0], str(wav), *command[1:],
                                      "-o", str(out)])
        assert_click_error(result, "a 25.0 ms VAD frame holds 1 sample at 51 Hz; "
                                   "the zero-crossing rate needs at least 2")
        assert result.output.count("Error:") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--frame-window", "rectangular"), ("--vad-hop-ms", "20"),
        ("--emd-sift-stop-sd", "0.2"), ("--emd-max-sift-iters", "50"),
        ("--estimator-f-max", "400"), ("--estimator-swipe-f-max", "500"),
        ("--estimator-shr-threshold", "0.4"), ("--estimator-shr-max-harmonics", "8"),
        ("--estimator-swipe-bins-per-octave", "48"),
        ("--estimator-swipe-num-peaks", "5"),
        ("--estimator-pefac-num-harmonics", "10"),
        ("--estimator-pefac-compression", "0.5"),
        ("--estimator-bins-per-octave", "48"), ("--estimator-window", "hann"),
        ("--vad-zcr-max", "0.48"), ("--vad-energy-min-ratio", "0.1"),
        ("--emd-max-imfs", "2"), ("--frame-frame-len-ms", "90"),
        ("--frame-hop-ms", "20"), ("--estimator-f-min", "50"),
        ("--estimator-hht-num-imfs", "3"), ("--pro-gamma-hz", "150"),
        ("--pro-k-imfs", "4"), ("--vad-frame-ms", "25"),
        ("--vad-hangover-frames", "2"), ("--config", "cfg.json"),
        pytest.param("--print-config", None, id="--print-config"),
        ("--emd-rng-seed", "1")])
    def test_removed_flag_usage_error(self, runner, vowel_wav, tmp_path, flag, value):
        # every removed flag is a usage error on each analysis command; the
        # mode cap is decompose's own flag, since the others sift the modes
        # they read
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("missing.wav missing.f0\n")
        commands = [["track", vowel_wav, "--estimator", "shr"],
                    ["separate", vowel_wav],
                    ["bench", "--manifest", str(manifest), "--noise-dir",
                     str(tmp_path), "--jobs", "1"]]
        if flag != "--emd-max-imfs":
            commands.append(["decompose", vowel_wav])
        for command in commands:
            result = runner.invoke(main, [*command, "-o", str(tmp_path / "t.csv"),
                                          flag, *([value] if value else [])])
            assert result.exit_code == 2, command
            assert flag in result.output
            assert "Traceback" not in result.output
        assert not (tmp_path / "t.csv").exists()

    def test_pro_rows_on_the_analysis_grid(self, runner, vowel_wav, tmp_path):
        # one row per 90 ms frame on the 10 ms hop, and the VAD follows it
        out = str(tmp_path / "track_pro.csv")
        result = runner.invoke(main, [
            "track", vowel_wav, "--estimator", "shr", "--pro", "-o", out,
            "--emd-ensemble-size", "2"])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
        times = [float(row[0]) for row in rows]
        assert len(times) == (600 - 90) // 10 + 1
        assert times == [10.0 * i for i in range(len(times))]
        assert any(row[3] for row in rows)  # voiced frames carry a region


class TestSeparate:
    def test_regions_csv(self, runner, vowel_wav, tmp_path):
        out = str(tmp_path / "regions.csv")
        result = runner.invoke(main, [
            "separate", vowel_wav, "-o", out, "--emd-ensemble-size", "4"])
        assert result.exit_code == 0, result.output
        lines = open(out).read().splitlines()
        assert lines[0] == "time_ms,region,mean_f0,imf_a,imf_b"
        regions = [line.split(",")[1] for line in lines[1:]]
        assert regions and set(regions) <= {"low", "high"}
        # a 120 Hz vowel should be overwhelmingly low-frequency
        assert regions.count("low") / len(regions) >= 0.8

    def test_negative_seed_is_bad_configuration_before_analysis(
            self, runner, vowel_wav, tmp_path, monkeypatch):
        # it used to fail inside the EEMD, after the WAV and the VAD, with
        # numpy's "expected non-negative integer"
        def no_read(path):
            raise AssertionError("the input was read")

        monkeypatch.setattr("modepitch.cli.load_wav", no_read)
        out = tmp_path / "r.csv"
        result = runner.invoke(main, ["separate", vowel_wav, "--seed", "-1",
                                      "-o", str(out)])
        assert_click_error(result, "bad configuration: rng_seed must be non-negative, got -1")
        assert not out.exists()

    def test_input_shorter_than_one_frame_is_click_error(self, runner, short_wav,
                                                          tmp_path):
        out = tmp_path / "r.csv"
        result = runner.invoke(main, ["separate", short_wav, "-o", str(out),
                                      "--emd-ensemble-size", "2"])
        assert_click_error(result, "buffer of 400 samples is shorter than one "
                                   "90.0 ms frame (720 samples)")
        assert not out.exists()

    def test_removed_inner_estimator_flag_usage_error(self, runner, vowel_wav, tmp_path):
        result = runner.invoke(main, [
            "separate", vowel_wav, "-o", str(tmp_path / "r.csv"),
            "--emd-ensemble-size", "2", "--pro-inner-estimator", "shr"])
        assert result.exit_code == 2
        assert "--pro-inner-estimator" in result.output


class TestSynthAndBench:
    def test_synth_writes_corpus_and_noises(self, runner, tmp_path):
        out_dir = tmp_path / "corpus"
        result = runner.invoke(main, [
            "synth", "--out-dir", str(out_dir), "--count", "2",
            "--duration-ms", "300", "--seed", "5", "--sample-rate", "16000"])
        assert result.exit_code == 0, result.output
        assert (out_dir / "manifest.txt").is_file()
        noises = sorted((out_dir / "noises").glob("*.wav"))
        assert len(noises) == 6
        wavs = [*out_dir.glob("utt_*.wav"), *noises]
        assert len(wavs) == 8 and {load_wav(w).sample_rate_hz for w in wavs} == {16000}

    @pytest.mark.parametrize("args,message", [
        (["--duration-ms", "100"], "duration_ms must be at least 200 ms"),
        (["--sample-rate", "0"], "sample_rate_hz must be at least 1, got 0"),
        (["--sample-rate", "-8000"], "sample_rate_hz must be at least 1, got -8000"),
        (["--count", "0"], "count must be at least 1, got 0"),
        (["--count", "-2"], "count must be at least 1, got -2"),
        (["--low-fraction", "2"], "low_fraction must lie in [0, 1], got 2.0"),
        (["--low-fraction", "-1"], "low_fraction must lie in [0, 1], got -1.0"),
        (["--sample-rate", "50"], "hop_ms=10.0 rounds to 0 samples at 50 Hz"),
        (["--sample-rate", "400"], "corpus sample_rate_hz must exceed 6200 Hz, "
                                   "twice the 3100 Hz top formant, got 400"),
        (["--count", "1", "--seed", "-1"], "seed must be non-negative, got -1")])
    def test_bad_synth_option_is_click_error(self, runner, tmp_path, args, message):
        # every option is checked before the corpus directory is made
        out_dir = tmp_path / "corpus"
        result = runner.invoke(main, ["synth", "--out-dir", str(out_dir), *args])
        assert_click_error(result, message)
        assert not out_dir.exists()

    def test_bench_runs_and_is_deterministic(self, runner, tmp_path):
        corpus_dir = tmp_path / "corpus"
        manifest = generate_corpus(corpus_dir, count=1, seed=0, duration_ms=300.0)
        noise_dir = tmp_path / "noises"
        write_noise_set(noise_dir, kinds=("white",), duration_ms=1000.0, seed=0)
        outputs = []
        for run in range(2):
            out = str(tmp_path / f"report{run}.csv")
            result = runner.invoke(main, [
                "bench", "--manifest", manifest, "--noise-dir", str(noise_dir),
                "--snrs", "5", "--estimators", "shr", "--methods", "raw",
                "--jobs", "1", "--seed", "3", "-o", out,
                "--emd-ensemble-size", "2"])
            assert result.exit_code == 0, result.output
            outputs.append(open(out, "rb").read())
        assert outputs[0] == outputs[1]
        text = outputs[0].decode()
        assert text.splitlines()[0].startswith("noise,snr_db")
        assert len(text.splitlines()) == 2

    def test_bench_prints_mean_ge_per_key(self, runner, tmp_path):
        # synth's six noises x one SNR x the default shr, swipe and hht x raw
        # and pro; after the cells line, one line per estimator/method key,
        # each the mean of that key's ge_percent over the report's cells
        corpus = _synth(runner, tmp_path, "--count", "2", "--duration-ms", "300")
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "bench", "--manifest", str(corpus / "manifest.txt"),
            "--noise-dir", str(corpus / "noises"), "--snrs", "0",
            "--jobs", "1", "-o", str(out), "--emd-ensemble-size", "2"])
        assert result.exit_code == 0, result.output
        ges = {}
        with open(out) as fh:
            for row in csv.DictReader(fh):
                ges.setdefault((row["estimator"], row["method"]), []).append(
                    float(row["ge_percent"]))
        lines = result.output.splitlines()
        assert lines[-8].startswith("36 cells written to")
        assert lines[-7] == "mean GE by estimator/method:"
        assert len(ges) == 6 and all(len(v) == 6 for v in ges.values())
        for line, key in zip(lines[-6:], sorted(ges)):
            assert re.fullmatch(r"  (shr|swipe|hht) +(raw|pro) +: +[0-9.]+%", line), line
            est, meth, colon, value = line.split()
            assert (est, meth, colon) == (*key, ":")
            # the CSV holds 4 decimals, the summary 1
            assert float(value.rstrip("%")) == pytest.approx(np.mean(ges[key]),
                                                             abs=0.0501)

    def test_bench_unknown_estimator_fails(self, runner, tmp_path):
        # the name is rejected once, before any utterance is mixed or scored
        manifest = generate_corpus(tmp_path / "corpus", count=1, seed=0,
                                   duration_ms=300.0)
        noise_dir = tmp_path / "noises"
        write_noise_set(noise_dir, kinds=("white",), duration_ms=1000.0, seed=0)
        result = runner.invoke(main, [
            "bench", "--manifest", manifest, "--noise-dir", str(noise_dir),
            "--snrs", "5", "--estimators", "shr,yin", "--methods", "raw",
            "--jobs", "1", "-o", str(tmp_path / "r.csv"), "--emd-ensemble-size", "2"])
        assert result.exit_code == 1
        assert result.output.count("unknown estimator 'yin'") == 1
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("args,message", [
        (["--snrs", "0,5,0"], "SNR 0.0 is listed twice"),
        (["--snrs", "inf,inf"], "SNR inf is listed twice"),
        (["--estimators", "swipe,swipe"], "estimator 'swipe' is listed twice"),
        (["--methods", "raw,pro,raw"], "method 'raw' is listed twice")])
    def test_bench_repeated_grid_value_is_click_error(self, runner, tmp_path, monkeypatch,
                                                      args, message):
        # one Error: line before anything is mixed; repeats once wrote one
        # cell's rows twice, with different numbers
        manifest = generate_corpus(tmp_path / "corpus", count=1, seed=0,
                                   duration_ms=300.0)
        noise_dir = tmp_path / "noises"
        write_noise_set(noise_dir, kinds=("white",), duration_ms=1000.0, seed=0)

        def no_mixing(mix):
            raise AssertionError("mixed before the grid was checked")
        monkeypatch.setattr(evaluation, "mix_at_snr", no_mixing)
        result = runner.invoke(main, [
            "bench", "--manifest", manifest, "--noise-dir", str(noise_dir),
            "--snrs", "5", "--estimators", "shr", "--methods", "raw", *args,
            "--jobs", "1", "-o", str(tmp_path / "r.csv"), "--emd-ensemble-size", "2"])
        assert_click_error(result, message)
        assert result.output.count("Error:") == 1
        assert not (tmp_path / "r.csv").exists()

    def test_dump_mixes_materializes_wavs(self, runner, tmp_path, monkeypatch):
        # each WAV holds the mix run_benchmark scored for its (noise, SNR,
        # utterance): analyses run noise-major, then SNR, then utterance
        manifest = generate_corpus(tmp_path / "c", count=2, seed=0,
                                   duration_ms=300.0)
        noise_dir = tmp_path / "n"
        write_noise_set(noise_dir, kinds=("pink", "white"), duration_ms=800.0, seed=0)
        scored = []

        def analyze(mixed, *args):
            scored.append(mixed.samples)
            return real_analyze(mixed, *args)
        real_analyze = evaluation.analyze_utterance
        monkeypatch.setattr(evaluation, "analyze_utterance", analyze)
        mixes = tmp_path / "mixes"
        result = runner.invoke(main, [
            "bench", "--manifest", manifest, "--noise-dir", str(noise_dir),
            "--snrs", "0,5", "--estimators", "shr", "--methods", "raw",
            "--jobs", "1", "--dump-mixes", str(mixes), "--seed", "4",
            "-o", str(tmp_path / "r.csv"), "--emd-ensemble-size", "2"])
        assert result.exit_code == 0, result.output
        names = [f"utt_{u:03d}_{tag}_{noise}_{snr}dB.wav" for noise in ("pink", "white")
                 for snr in (0, 5) for u, tag in enumerate(("low", "high"))]
        assert sorted(p.name for p in mixes.glob("*.wav")) == sorted(names)
        assert len(scored) == len(names)
        for name, samples in zip(names, scored):
            pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0) / 32768.0
            np.testing.assert_array_equal(load_wav(mixes / name).samples, pcm)

    def test_dump_mixes_rejects_two_items_of_one_name(self, runner, tmp_path,
                                                      monkeypatch):
        # an item is named by its WAV's stem, so a/utt.wav and b/utt.wav (the
        # TIMIT layout) are both 'utt': their dumped mixes once overwrote each
        # other; without --dump-mixes such a corpus still runs
        corpus = tmp_path / "corpus"
        generate_corpus(corpus, count=1, seed=0, duration_ms=300.0)
        for sub in ("a", "b"):
            (corpus / sub).mkdir()
            for ext in ("wav", "f0"):
                (corpus / sub / f"utt.{ext}").write_bytes(
                    (corpus / f"utt_000_high.{ext}").read_bytes())
        manifest = corpus / "nested.txt"
        manifest.write_text("a/utt.wav a/utt.f0\nb/utt.wav b/utt.f0\n")
        noise_dir = tmp_path / "noises"
        write_noise_set(noise_dir, kinds=("white",), duration_ms=1000.0, seed=0)
        args = ["bench", "--manifest", str(manifest), "--noise-dir", str(noise_dir),
                "--snrs", "5", "--estimators", "shr", "--methods", "raw",
                "--jobs", "1", "-o", str(tmp_path / "r.csv"), "--emd-ensemble-size", "2"]

        def no_mixing(mix):
            raise AssertionError("mixed before the names were checked")
        with monkeypatch.context() as patch:
            patch.setattr(evaluation, "mix_at_snr", no_mixing)
            result = runner.invoke(main, [*args, "--dump-mixes", str(tmp_path / "m")])
        assert_click_error(result, "--dump-mixes: two corpus items are named 'utt'")
        assert result.output.count("Error:") == 1
        assert not (tmp_path / "r.csv").exists()
        assert not (tmp_path / "m").exists()
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert len(_rows(tmp_path / "r.csv")) == 1

    @pytest.mark.parametrize("args,message", [
        (["--snrs", "abc"], "--snrs: could not convert string to float: 'abc'"),
        (["--snrs", ""], "--snrs names no values"),
        (["--snrs", ","], "--snrs names no values"),
        (["--estimators", " , "], "--estimators names no values"),
        (["--methods", ""], "--methods names no values"),
        ([], "[Errno 2] No such file or directory"),
        (["--snrs", "0,nan"], "--snrs: SNR must be a number of dB or inf, got nan"),
        (["--snrs", "-inf,5"], "--snrs: SNR must be a number of dB or inf, got -inf")])
    def test_bad_bench_input_is_click_error(self, runner, tmp_path, args, message):
        # the option lists are read before the manifest, whose WAV is missing
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("missing.wav missing.f0\n")
        noise_dir = tmp_path / "noises"
        write_noise_set(noise_dir, kinds=("white",), duration_ms=500.0)
        result = runner.invoke(main, ["bench", "--manifest", str(manifest),
                                      "--noise-dir", str(noise_dir), "--jobs", "1",
                                      "-o", str(tmp_path / "r.csv"), *args])
        assert_click_error(result, message)
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_bench_jobs_below_one_usage_error(self, runner, tmp_path, jobs):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("missing.wav missing.f0\n")
        out = tmp_path / "r.csv"
        result = runner.invoke(main, ["bench", "--manifest", str(manifest),
                                      "--noise-dir", str(tmp_path), "--jobs", jobs,
                                      "-o", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for '--jobs'" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_empty_manifest_fails_before_work(self, runner, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("")
        noise_dir = tmp_path / "noises"
        write_noise_set(noise_dir, kinds=("white",), duration_ms=500.0)
        result = runner.invoke(main, [
            "bench", "--manifest", str(manifest), "--noise-dir", str(noise_dir)])
        assert result.exit_code != 0
        assert "no utterances" in str(result.output) + str(result.exception)

    def test_out_dir_env_var(self, runner, vowel_wav, tmp_path, monkeypatch):
        out_dir = tmp_path / "envout"
        out_dir.mkdir()
        monkeypatch.setenv("MODEPITCH_OUT_DIR", str(out_dir))
        result = runner.invoke(main, ["track", vowel_wav, "--estimator", "pefac"])
        assert result.exit_code == 0, result.output
        written = list(out_dir.glob("*.csv"))
        assert len(written) == 1


class TestRecipes:
    """The README's command chains, run through the CLI end to end."""

    def test_separate_and_track_pro_agree_on_regions(self, runner, tmp_path):
        # both commands run the same decomposition (one --seed, one ensemble
        # size) and read one region table, so every row of track --pro that
        # has a region carries separate's region, mean F0 and mode pair
        wav = _synth(runner, tmp_path, "--count", "1", "--no-noises", "--seed", "2") \
            / "utt_000_high.wav"
        emd = ["--seed", "3", "--emd-ensemble-size", "5"]
        regions, track = tmp_path / "regions.csv", tmp_path / "track.csv"
        for command in (["separate", str(wav), "-o", str(regions)],
                        ["track", str(wav), "--estimator", "swipe", "--pro",
                         "-o", str(track)]):
            result = runner.invoke(main, [*command, *emd])
            assert result.exit_code == 0, result.output
        separated = [(t, region, f0, f"{a}+{b}" if a else "")
                     for t, region, f0, a, b in _rows(regions)]
        tracked = [(row[0], *row[3:6]) for row in _rows(track) if row[3]]
        assert separated and separated == tracked

    def test_bench_dump_then_track_pro(self, runner, tmp_path):
        # the separate-and-correct recipe: bench prints hht's raw and pro
        # mean GE and dumps the babble mix, and a --pro track of that mix
        # writes the raw and corrected candidate columns
        corpus = _synth(runner, tmp_path / "demo", "--count", "1", "--low-fraction", "0",
                        "--seed", "1")
        mixes = corpus / "mixes"
        emd = ["--emd-ensemble-size", "20", "--seed", "1"]
        result = runner.invoke(main, [
            "bench", "--manifest", str(corpus / "manifest.txt"),
            "--noise-dir", str(corpus / "noises"), "--snrs", "0", "--estimators", "hht",
            "--jobs", "1", "--dump-mixes", str(mixes),
            "-o", str(corpus / "bench_report.csv"), *emd])
        assert result.exit_code == 0, result.output
        for method in ("raw", "pro"):
            assert re.search(rf"^  hht +{method} +: +[0-9.]+%$", result.output, re.M), method
        mix = mixes / "utt_000_high_babble_0dB.wav"
        assert mix.is_file()
        track = corpus / "track.csv"
        result = runner.invoke(main, ["track", str(mix), "--estimator", "hht", "--pro",
                                      "-o", str(track), *emd])
        assert result.exit_code == 0, result.output
        assert ",raw_candidates,corrected_candidates," in track.read_text().splitlines()[0]


class TestEntryPoint:
    """``python -m modepitch.cli`` in a fresh interpreter: each exit status
    comes from the process itself, and no traceback is printed."""

    def test_track_pro_exits_0_without_heavy_imports(self, tmp_path):
        # LAPACK comes from numpy's OpenBLAS (or scipy's _flapack extension
        # loaded by file), WAV I/O is numpy and only a pooled bench loads
        # multiprocessing, so a track of an 8 kHz WAV imports none of them
        generate_corpus(tmp_path, count=1)
        wav = tmp_path / "utt_000_high.wav"
        out = tmp_path / "track.csv"
        result = run_python("-X", "importtime", "-m", "modepitch.cli", "track", str(wav),
                            "--pro", "--emd-ensemble-size", "2", "-o", str(out))
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert f"track written to {out}" in result.stdout and out.is_file()
        heavy = re.findall(r"\| +(scipy\.(?:linalg|io|signal)|multiprocessing"
                           r"|concurrent\.futures\.process)$", result.stderr, re.M)
        assert not heavy, heavy

    def test_unreadable_input_exits_1(self, tmp_path):
        notes = tmp_path / "notes.wav"
        notes.write_text("not audio\n")
        result = run_python("-m", "modepitch.cli", "track", str(notes),
                            "-o", str(tmp_path / "t.csv"))
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith(f"Error: unreadable WAV file {notes}")
        assert "Traceback" not in result.stderr

    def test_mode_cap_outside_decompose_exits_2(self, vowel_wav, tmp_path):
        result = run_python("-m", "modepitch.cli", "track", vowel_wav, "--pro",
                            "--emd-max-imfs", "2", "-o", str(tmp_path / "t.csv"))
        assert result.returncode == 2, result.stderr
        assert "Error:" in result.stderr and "--emd-max-imfs" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "t.csv").exists()
