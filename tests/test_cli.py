import dataclasses
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import FS, glottal_pulse_train
from modepitch import evaluation
from modepitch.audio import SampleBuffer, load_wav, save_wav
from modepitch.cli import CONFIG_SECTIONS, DEFAULT_SNRS, main
from modepitch.corpus import generate_corpus, write_noise_set
from modepitch.emd import EmdConfig
from modepitch.estimators import EstimatorConfig
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


class TestHelpDocSync:
    def test_every_config_knob_in_help(self, runner):
        # every dataclass config field must be reachable as a CLI flag
        for command in ("track", "bench"):
            result = runner.invoke(main, [command, "--help"])
            assert result.exit_code == 0
            for section, cls in CONFIG_SECTIONS.items():
                for field in dataclasses.fields(cls):
                    flag = f"--{section}-{field.name.replace('_', '-')}"
                    assert flag in result.output, f"{flag} missing from {command}"

    def test_settable_fields_and_fixed_constants(self):
        # twelve settable knobs; every other estimator, sift and VAD value is a
        # class constant holding its published default, readable as cfg.<name>
        assert {section: [f.name for f in dataclasses.fields(cls)]
                for section, cls in CONFIG_SECTIONS.items()} == {
            "frame": ["frame_len_ms", "hop_ms"],
            "emd": ["max_imfs", "ensemble_size", "wgn_std_ratio", "rng_seed"],
            "estimator": ["f_min", "hht_num_imfs"],
            "pro": ["gamma_hz", "k_imfs"],
            "vad": ["frame_ms", "hangover_frames"]}
        constants = {
            EmdConfig: {"sift_stop_sd": 0.2, "max_sift_iters": 50},
            EstimatorConfig: {
                "f_max": 400.0, "swipe_f_max": 500.0, "shr_threshold": 0.4,
                "shr_max_harmonics": 8, "swipe_bins_per_octave": 48,
                "swipe_num_peaks": 5, "pefac_num_harmonics": 10,
                "pefac_compression": 0.5, "bins_per_octave": 48},
            VadConfig: {"zcr_max": 0.48, "energy_min_ratio": 0.1}}
        for cls, values in constants.items():
            for name, value in values.items():
                assert getattr(cls, name) == getattr(cls(), name) == value
        assert not hasattr(EstimatorConfig, "window")

    def test_default_snr_grid(self, runner):
        assert DEFAULT_SNRS == (-15.0, -10.0, -5.0, 0.0, 5.0)
        result = runner.invoke(main, ["bench", "--help"])
        assert "-15,-10,-5,0,5" in result.output.replace(" ", "")


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

    def test_print_config_emits_json(self, runner, vowel_wav, tmp_path):
        out = str(tmp_path / "t.csv")
        result = runner.invoke(main, [
            "track", vowel_wav, "--estimator", "pefac", "-o", out,
            "--print-config", "--pro-gamma-hz", "230"])
        assert result.exit_code == 0, result.output
        blob = result.output[:result.output.rindex("}") + 1]
        config = json.loads(blob)
        assert config["pro"]["gamma_hz"] == 230.0
        assert config["emd"]["ensemble_size"] == 100

    def test_config_file_layering(self, runner, vowel_wav, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"pro": {"gamma_hz": 210.0},
                                        "emd": {"ensemble_size": 3}}))
        out = str(tmp_path / "t.csv")
        result = runner.invoke(main, [
            "track", vowel_wav, "--estimator", "pefac", "-o", out,
            "--config", str(cfg_path), "--pro-gamma-hz", "220",
            "--print-config"])
        assert result.exit_code == 0, result.output
        config = json.loads(result.output[:result.output.rindex("}") + 1])
        assert config["pro"]["gamma_hz"] == 220.0   # flag beats file
        assert config["emd"]["ensemble_size"] == 3  # file beats default

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_no_hht_mode_is_bad_configuration(self, runner, vowel_wav, tmp_path, value):
        out = tmp_path / "t.csv"
        result = runner.invoke(main, [
            "track", vowel_wav, "--estimator", "hht", "-o", str(out),
            "--estimator-hht-num-imfs", value])
        assert result.exit_code == 1
        assert "bad configuration: hht_num_imfs must be at least 1" in result.output
        assert not out.exists()

    def test_frame_too_short_for_f_min_is_bad_configuration(self, runner, vowel_wav,
                                                           tmp_path):
        # 30 ms holds 1.5 periods of the 50 Hz floor: no frame could be scored
        out = tmp_path / "t.csv"
        result = runner.invoke(main, [
            "track", vowel_wav, "--estimator", "swipe", "--pro", "-o", str(out),
            "--frame-frame-len-ms", "30"])
        assert result.exit_code == 1
        assert ("bad configuration: frame of 30.0 ms is shorter than two pitch "
                "periods at f_min=50.0 Hz") in result.output
        assert not out.exists()

    def test_input_shorter_than_one_frame_is_click_error(self, runner, short_wav,
                                                          tmp_path):
        out = tmp_path / "t.csv"
        result = runner.invoke(main, ["track", short_wav, "--estimator", "swipe",
                                      "-o", str(out)])
        assert_click_error(result, "buffer of 400 samples is shorter than one "
                                   "90.0 ms frame (720 samples)")
        assert not out.exists()

    def test_hop_rounding_to_zero_samples_is_click_error(self, runner, vowel_wav,
                                                         tmp_path):
        out = tmp_path / "t.csv"
        result = runner.invoke(main, ["track", vowel_wav, "--estimator", "swipe",
                                      "-o", str(out), "--frame-hop-ms", "0.05"])
        assert_click_error(result, "hop_ms=0.05 rounds to 0 samples at 8000 Hz")
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
        ("--vad-zcr-max", "0.48"), ("--vad-energy-min-ratio", "0.1")])
    def test_removed_flag_usage_error(self, runner, vowel_wav, tmp_path, flag, value):
        result = runner.invoke(main, [
            "track", vowel_wav, "--estimator", "shr", "-o", str(tmp_path / "t.csv"),
            flag, value])
        assert result.exit_code == 2
        assert flag in result.output

    @pytest.mark.parametrize("section,name,value", [
        ("frame", "window", "rectangular"), ("vad", "hop_ms", 20.0),
        ("emd", "sift_stop_sd", 0.2), ("emd", "max_sift_iters", 50),
        ("estimator", "f_max", 400.0), ("estimator", "swipe_f_max", 500.0),
        ("estimator", "shr_threshold", 0.4), ("estimator", "shr_max_harmonics", 8),
        ("estimator", "swipe_bins_per_octave", 48),
        ("estimator", "swipe_num_peaks", 5),
        ("estimator", "pefac_num_harmonics", 10),
        ("estimator", "pefac_compression", 0.5),
        ("estimator", "bins_per_octave", 48), ("estimator", "window", "hann"),
        ("vad", "zcr_max", 0.48), ("vad", "energy_min_ratio", 0.1)])
    def test_config_file_naming_removed_field_rejected(self, runner, vowel_wav,
                                                       tmp_path, section, name, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({section: {name: value}}))
        result = runner.invoke(main, [
            "track", vowel_wav, "--estimator", "shr", "-o", str(tmp_path / "t.csv"),
            "--config", str(cfg_path)])
        assert result.exit_code == 1
        assert f"unknown config field {section}.{name}" in result.output

    def test_pro_on_20_ms_hop(self, runner, vowel_wav, tmp_path):
        # the VAD follows the analysis hop, so a non-default hop just works
        out = str(tmp_path / "track_pro.csv")
        result = runner.invoke(main, [
            "track", vowel_wav, "--estimator", "shr", "--pro", "-o", out,
            "--emd-ensemble-size", "2", "--frame-hop-ms", "20"])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
        times = [float(row[0]) for row in rows]
        assert len(times) == (600 - 90) // 20 + 1
        assert times == [20.0 * i for i in range(len(times))]
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

    def test_config_file_naming_removed_field_rejected(self, runner, vowel_wav,
                                                       tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"pro": {"smooth_frames": 3}}))
        result = runner.invoke(main, [
            "separate", vowel_wav, "-o", str(tmp_path / "r.csv"),
            "--emd-ensemble-size", "2", "--config", str(cfg_path)])
        assert result.exit_code == 1
        assert "unknown config field pro.smooth_frames" in result.output


class TestSynthAndBench:
    def test_synth_writes_corpus_and_noises(self, runner, tmp_path):
        out_dir = str(tmp_path / "corpus")
        result = runner.invoke(main, [
            "synth", "--out-dir", out_dir, "--count", "2",
            "--duration-ms", "300", "--seed", "5"])
        assert result.exit_code == 0, result.output
        assert os.path.exists(os.path.join(out_dir, "manifest.txt"))
        noise_dir = os.path.join(out_dir, "noises")
        assert len([f for f in os.listdir(noise_dir) if f.endswith(".wav")]) == 6

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
                                   "twice the 3100 Hz top formant, got 400")])
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
