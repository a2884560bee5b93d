import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import modepitch
from modepitch.audio import (
    FrameSpec,
    NoisyMix,
    SampleBuffer,
    load_wav,
    measured_snr_db,
    mix_at_snr,
    resample,
    save_wav,
)

FS = 16000


class TestSampleBuffer:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleBuffer(np.array([]), FS)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SampleBuffer(np.array([0.0, np.nan]), FS)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SampleBuffer(np.zeros(10), 0)

    def test_samples_read_only(self):
        buf = SampleBuffer(np.zeros(10), FS)
        with pytest.raises(ValueError):
            buf.samples[0] = 1.0


class TestLoadWav:
    def test_int16_scaling(self, tmp_path):
        # constant 16384 in 16-bit PCM is exactly half full scale
        path = tmp_path / "const.wav"
        wavfile.write(path, FS, np.full(100, 16384, dtype=np.int16))
        buf = load_wav(path)
        assert buf.sample_rate_hz == FS
        np.testing.assert_allclose(buf.samples, 0.5)

    def test_sine_roundtrip_dominant_bin(self, tmp_path):
        path = tmp_path / "a440.wav"
        t = np.arange(FS) / FS
        sine = (0.6 * np.sin(2 * np.pi * 440 * t) * 32767).astype(np.int16)
        wavfile.write(path, FS, sine)
        buf = load_wav(path)
        assert len(buf) == FS
        spectrum = np.abs(np.fft.rfft(buf.samples))
        dominant_hz = np.argmax(spectrum) * FS / len(buf)
        assert abs(dominant_hz - 440) < 1.0

    def test_empty_wav_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        wavfile.write(path, FS, np.array([], dtype=np.int16))
        with pytest.raises(ValueError, match="zero-length"):
            load_wav(path)

    def test_stereo_downmix(self, tmp_path):
        path = tmp_path / "stereo.wav"
        left = np.full(50, 8192, dtype=np.int16)
        right = np.full(50, 16384, dtype=np.int16)
        wavfile.write(path, FS, np.stack([left, right], axis=1))
        buf = load_wav(path)
        np.testing.assert_allclose(buf.samples, 0.375)

    def test_float32_passthrough(self, tmp_path):
        path = tmp_path / "f32.wav"
        wavfile.write(path, FS, np.full(50, 0.25, dtype=np.float32))
        np.testing.assert_allclose(load_wav(path).samples, 0.25)

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "rt.wav"
        original = SampleBuffer(np.linspace(-0.9, 0.9, 200), FS)
        save_wav(path, original)
        loaded = load_wav(path)
        np.testing.assert_allclose(loaded.samples, original.samples, atol=1e-4)


class TestMixAtSnr:
    def test_equal_power_zero_db_gain_is_unity(self, rng):
        clean = SampleBuffer(rng.standard_normal(4000), FS)
        # same-power noise: mixing at 0 dB must add it unscaled
        noise_data = rng.standard_normal(4000)
        noise_data *= np.sqrt(np.mean(clean.samples ** 2) / np.mean(noise_data ** 2))
        noise = SampleBuffer(noise_data, FS)
        mixed = mix_at_snr(NoisyMix(clean, noise, snr_db=0.0, seed=0))
        residual = mixed.samples - clean.samples
        np.testing.assert_allclose(np.mean(residual ** 2),
                                   np.mean(noise.samples ** 2), rtol=1e-9)

    def test_minus_15_db_gain_closed_form(self):
        # unit-power clean and noise: g = 10^(15/20)
        n = 8000
        t = np.arange(n)
        clean = SampleBuffer(np.sqrt(2) * np.sin(2 * np.pi * 100 * t / FS), FS)
        noise = SampleBuffer(np.sqrt(2) * np.sin(2 * np.pi * 333 * t / FS), FS)
        mixed = mix_at_snr(NoisyMix(clean, noise, snr_db=-15.0, seed=0))
        residual = mixed.samples - clean.samples
        gain = np.sqrt(np.mean(residual ** 2) / np.mean(noise.samples ** 2))
        expected = 10.0 ** (15.0 / 20.0) * np.sqrt(
            np.mean(clean.samples ** 2) / np.mean(noise.samples ** 2))
        assert gain == pytest.approx(expected, rel=1e-6)
        assert gain == pytest.approx(5.6234, abs=2e-3)

    def test_all_zero_clean_rejected(self):
        clean = SampleBuffer(np.zeros(100) + 0.0, FS)
        with pytest.raises(ValueError, match="SNR undefined"):
            mix_at_snr(NoisyMix(clean, SampleBuffer(np.ones(100), FS), 0.0))

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_unreachable_snr_rejected(self, rng, snr_db):
        # NaN gives a NaN gain and -inf a zero division; both must name snr_db
        clean = SampleBuffer(rng.standard_normal(100), FS)
        noise = SampleBuffer(rng.standard_normal(100), FS)
        with pytest.raises(ValueError, match=r"snr_db must be a number of dB or \+inf"):
            mix_at_snr(NoisyMix(clean, noise, snr_db))

    def test_infinite_snr_mixes_no_noise(self, rng):
        clean = SampleBuffer(rng.standard_normal(100), FS)
        noise = SampleBuffer(rng.standard_normal(100), FS)
        mixed = mix_at_snr(NoisyMix(clean, noise, math.inf))
        np.testing.assert_array_equal(mixed.samples, clean.samples)

    def test_deterministic_given_seed(self, rng):
        clean = SampleBuffer(rng.standard_normal(2000), FS)
        noise = SampleBuffer(rng.standard_normal(5000), FS)
        a = mix_at_snr(NoisyMix(clean, noise, 3.0, seed=42))
        b = mix_at_snr(NoisyMix(clean, noise, 3.0, seed=42))
        assert np.array_equal(a.samples, b.samples)
        c = mix_at_snr(NoisyMix(clean, noise, 3.0, seed=43))
        assert not np.array_equal(a.samples, c.samples)

    def test_rate_mismatch_resamples_noise(self, rng):
        clean = SampleBuffer(rng.standard_normal(2000), 16000)
        noise = SampleBuffer(rng.standard_normal(2000), 8000)
        mixed = mix_at_snr(NoisyMix(clean, noise, 5.0, seed=0))
        assert mixed.sample_rate_hz == 16000
        assert measured_snr_db(mixed, clean) == pytest.approx(5.0, abs=0.01)

    @settings(max_examples=60, deadline=None)
    @given(snr_db=st.floats(min_value=-30, max_value=30),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    def test_achieved_snr_within_hundredth_db(self, snr_db, seed):
        gen = np.random.default_rng(seed % 1000)
        clean = SampleBuffer(gen.standard_normal(3000) + 0.01, FS)
        noise = SampleBuffer(gen.standard_normal(7000) + 0.01, FS)
        mixed = mix_at_snr(NoisyMix(clean, noise, snr_db, seed=seed))
        assert measured_snr_db(mixed, clean) == pytest.approx(snr_db, abs=0.01)


class TestResample:
    def test_alias_rejection(self):
        # a tone above the target Nyquist must be suppressed by >= 60 dB
        fs_in, fs_out = 16000, 8000
        t = np.arange(fs_in) / fs_in
        buf = SampleBuffer(0.5 * np.sin(2 * np.pi * 5000 * t), fs_in)
        out = resample(buf, fs_out)
        in_rms = np.sqrt(np.mean(buf.samples ** 2))
        out_rms = np.sqrt(np.mean(out.samples[100:-100] ** 2))
        assert 20 * np.log10(in_rms / max(out_rms, 1e-30)) >= 60.0

    def test_tone_preserved(self):
        fs_in, fs_out = 8000, 16000
        t = np.arange(fs_in) / fs_in
        buf = SampleBuffer(0.5 * np.sin(2 * np.pi * 440 * t), fs_in)
        out = resample(buf, fs_out)
        spectrum = np.abs(np.fft.rfft(out.samples))
        assert abs(np.argmax(spectrum) * fs_out / len(out) - 440) < 2.0

    @pytest.mark.parametrize("fs_out", [7999, 16001])
    def test_rate_off_by_one_is_exact(self, fs_out):
        # rates whose ratio has no small-denominator approximation
        fs_in = 8000
        t = np.arange(fs_in) / fs_in
        buf = SampleBuffer(0.5 * np.sin(2 * np.pi * 1000 * t), fs_in)
        out = resample(buf, fs_out)
        assert out.sample_rate_hz == fs_out
        assert len(out) == math.ceil(len(buf) * fs_out / fs_in)
        spectrum = np.abs(np.fft.rfft(out.samples))
        assert abs(np.argmax(spectrum) * fs_out / len(out) - 1000) < 2.0


class TestFrameSignal:
    def test_92_frames_for_one_second(self):
        frames = FrameSpec(frame_len_ms=90, hop_ms=10).frames(np.ones(FS), FS)  # 1000 ms
        assert len(frames) == 92  # floor((1000-90)/10)+1

    def test_exact_single_frame(self):
        x = np.arange(int(0.090 * FS), dtype=np.float64)
        frames = FrameSpec(frame_len_ms=90, hop_ms=10).frames(x, FS)
        assert frames.shape == (1, x.size)
        np.testing.assert_array_equal(frames[0], x)

    def test_hop_longer_than_frame_rejected(self):
        with pytest.raises(ValueError):
            FrameSpec(frame_len_ms=10, hop_ms=20)


class TestFrameSpecFrames:
    @settings(max_examples=150, deadline=None)
    @given(rate=st.sampled_from([8000, 11025, 16000, 22050]),
           frame_len_ms=st.floats(1.0, 100.0), hop_frac=st.floats(0.0, 1.0),
           n=st.integers(0, 3000))
    def test_rows_are_hop_slices(self, rate, frame_len_ms, hop_frac, n):
        spec = FrameSpec(frame_len_ms=frame_len_ms,
                         hop_ms=1.0 + hop_frac * (frame_len_ms - 1.0))
        flen, hop = spec.frame_len(rate), spec.hop(rate)
        x = np.arange(n, dtype=np.float64)
        if n < flen:
            with pytest.raises(ValueError, match="shorter than one"):
                spec.frames(x, rate)
            return
        rows = spec.frames(x, rate)
        assert rows.shape == (spec.num_frames(n, rate), flen)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(row, x[i * hop:i * hop + flen])
        # every whole frame is a row: the next one would run past the end
        assert len(rows) * hop + flen > n
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    @pytest.mark.parametrize("kwargs,name", [
        (dict(hop_ms=0.05), "hop_ms"),
        (dict(frame_len_ms=0.05, hop_ms=0.05), "frame_len_ms")])
    def test_grid_rounding_to_zero_samples_rejected(self, kwargs, name):
        spec = FrameSpec(**kwargs)
        with pytest.raises(ValueError,
                           match=f"{name}=0.05 rounds to 0 samples at 8000 Hz"):
            spec.num_frames(8000, 8000)
        with pytest.raises(ValueError, match="rounds to 0 samples"):
            spec.frames(np.ones(8000), 8000)


def _run_python(code: str) -> None:
    """Run code in a fresh interpreter that imports this modepitch."""
    src = str(Path(modepitch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestDeferredImports:
    """`import modepitch` loads no scipy module beyond scipy.linalg; WAV
    I/O and resampling load theirs on first use."""

    def test_package_import_skips_heavy_scipy(self):
        _run_python(
            "import sys, modepitch, modepitch.cli\n"
            "loaded = [m for m in ('scipy.signal', 'scipy.io', 'scipy.stats',"
            " 'scipy.sparse') if m in sys.modules]\n"
            "assert not loaded, loaded\n")

    def test_load_wav_imports_wavfile(self, tmp_path):
        path = tmp_path / "tone.wav"
        wavfile.write(path, FS, np.zeros(FS // 10, dtype=np.int16) + 100)
        _run_python(
            "import sys, modepitch\n"
            "assert 'scipy.io' not in sys.modules\n"
            f"buf = modepitch.load_wav({str(path)!r})\n"
            "assert len(buf) == 1600\n"
            "assert 'scipy.io' in sys.modules\n")
