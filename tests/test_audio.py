import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from conftest import run_python, traced_peak
from modepitch import audio
from modepitch.audio import (
    FrameSpec,
    NoisyMix,
    SampleBuffer,
    load_wav,
    measured_snr_db,
    mix_at_snr,
    resample,
    save_wav,
    save_wav_multichannel,
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

    @pytest.mark.parametrize("rate", [8000.5, 8000.0, True, np.True_, "8000", None])
    def test_rate_must_be_an_integer(self, rate):
        with pytest.raises(TypeError, match="sample_rate_hz must be an integer, got "):
            SampleBuffer(np.zeros(10), rate)

    def test_numpy_integer_rate_becomes_int(self):
        buf = SampleBuffer(np.zeros(10), np.int64(FS))
        assert buf.sample_rate_hz == FS and type(buf.sample_rate_hz) is int

    def test_writeable_input_is_copied(self):
        values = np.zeros(10)
        buf = SampleBuffer(values, FS)
        values[0] = 1.0
        assert buf.samples is not values and buf.samples[0] == 0.0
        assert values.flags.writeable

    def test_read_only_view_is_copied(self):
        # the view's base stays writeable, so the buffer must not share it
        base = np.zeros(10)
        view = base[2:]
        view.setflags(write=False)
        buf = SampleBuffer(view, FS)
        base[2] = 1.0
        assert buf.samples is not view and buf.samples[0] == 0.0

    def test_slice_of_a_buffer_shares_its_memory(self):
        # the base is read-only and owns its data, so no one can write it
        buf = SampleBuffer(np.arange(10.0), FS)
        seg = SampleBuffer(buf.samples[2:7], FS)
        assert np.shares_memory(seg.samples, buf.samples)
        assert not seg.samples.flags.writeable

    def test_read_only_owning_array_is_kept(self):
        values = np.zeros(10)
        values.setflags(write=False)
        assert SampleBuffer(values, FS).samples is values

    @pytest.mark.parametrize("values", [np.zeros(10, dtype=np.float32), [0.0] * 10])
    def test_other_inputs_become_read_only_float64(self, values):
        samples = SampleBuffer(values, FS).samples
        assert samples.dtype == np.float64 and not samples.flags.writeable


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


def copying_mix(mix):
    """mix_at_snr's samples as built before it wrote in place: a gathered
    noise segment and a new array per step. The oracle the in-place mix
    must match bit for bit."""
    clean, noise = mix.clean, mix.noise
    if noise.sample_rate_hz != clean.sample_rate_hz:
        noise = resample(noise, clean.sample_rate_hz)
    n = len(clean)
    offset = int(np.random.default_rng(mix.seed).integers(0, len(noise)))
    segment = noise.samples[(offset + np.arange(n)) % len(noise)]
    p_clean = float(np.mean(clean.samples ** 2))
    p_noise = float(np.mean(segment ** 2))
    gain = math.sqrt(p_clean / (p_noise * 10.0 ** (mix.snr_db / 10.0)))
    return clean.samples + gain * segment


class TestMixInPlace:
    @settings(max_examples=80, deadline=None)
    @given(n_clean=st.integers(1, 3000), n_noise=st.integers(1, 7000),
           snr_db=st.one_of(st.floats(-30, 30), st.just(math.inf)),
           noise_rate=st.sampled_from([FS, 8000]), seed=st.integers(0, 2 ** 31))
    def test_equals_copying_mix(self, n_clean, n_noise, snr_db, noise_rate, seed):
        # noise both shorter and longer than the clean signal, so the
        # circular read wraps zero, one or many times
        gen = np.random.default_rng(seed)
        mix = NoisyMix(SampleBuffer(gen.standard_normal(n_clean) + 0.01, FS),
                       SampleBuffer(gen.standard_normal(n_noise) + 0.01, noise_rate),
                       snr_db, seed=seed)
        assert np.array_equal(mix_at_snr(mix).samples, copying_mix(mix))

    def test_work_memory_bounded_by_the_output(self, rng):
        # the segment is read, scaled and adopted in place; the gathered
        # segment, its index arrays and the buffer's copy peaked at 4.0x
        mix = NoisyMix(SampleBuffer(rng.standard_normal(48_000), FS),
                       SampleBuffer(rng.standard_normal(48_000), FS), 0.0, seed=1)
        peak, out = traced_peak(lambda: mix_at_snr(mix))
        assert peak < 2.5 * out.samples.nbytes


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
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr


class TestDeferredImports:
    """Importing the package loads nothing; reading WAV files and the
    paper's analysis load no scipy module (the two LAPACK routines come from
    numpy's OpenBLAS, or from scipy's _flapack extension loaded by file) and
    no process pool; resample loads scipy.signal on first use."""

    def test_package_import_loads_no_submodule(self):
        _run_python(
            "import sys, modepitch\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.startswith('modepitch.') or m.split('.')[0] == 'numpy']\n"
            "assert not loaded, loaded\n")

    def test_package_import_skips_heavy_scipy(self, tmp_path):
        path = tmp_path / "vowel.wav"
        t = np.arange(4800) / 8000
        save_wav(path, SampleBuffer(0.3 * np.sin(2 * np.pi * 150 * t)
                                    + 0.2 * np.sin(2 * np.pi * 300 * t), 8000))
        _run_python(
            "import sys, modepitch, modepitch.cli\n"
            "from modepitch.audio import load_wav\n"
            "from modepitch.emd import EmdConfig\n"
            "from modepitch.separation import AnalysisConfig, analyze_utterance\n"
            f"buf = load_wav({str(path)!r})\n"
            "out = analyze_utterance(buf, ['hht', 'swipe'], ['pro'],\n"
            "                        AnalysisConfig(emd=EmdConfig(ensemble_size=2)))\n"
            "assert len(out) == 2\n"
            "loaded = [m for m in ('scipy.linalg', 'scipy.io', 'scipy.signal',"
            " 'scipy.sparse', 'scipy._lib', 'concurrent.futures.process',"
            " 'multiprocessing') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "from modepitch import _lapack\n"
            "if _lapack.BACKEND == 'numpy':\n"
            "    assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "if _lapack.BACKEND == 'numpy' and sys.platform.startswith('linux'):\n"
            "    with open('/proc/self/maps') as maps:\n"
            "        blas = {line.split()[-1] for line in maps if 'openblas' in line}\n"
            "    assert len(blas) == 1, blas  # numpy's own, and no second runtime\n")

    def test_load_wav_skips_scipy_io(self, tmp_path):
        path = tmp_path / "tone.wav"
        wavfile.write(path, FS, np.zeros(FS // 10, dtype=np.int16) + 100)
        _run_python(
            "import sys\n"
            "from modepitch.audio import load_wav\n"
            f"buf = load_wav({str(path)!r})\n"
            "assert len(buf) == 1600\n"
            "assert 'scipy.io' not in sys.modules\n")

    def test_resample_imports_signal(self):
        _run_python(
            "import sys, numpy as np\n"
            "from modepitch.audio import SampleBuffer, resample\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "assert len(resample(SampleBuffer(np.ones(80), 8000), 16000)) == 160\n"
            "assert 'scipy.signal' in sys.modules\n")


def _scipy_load(path) -> tuple[int, np.ndarray]:
    """What load_wav returned when scipy.io.wavfile read the file for it."""
    rate, data = wavfile.read(path)
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples = samples / 32768.0
    return rate, samples.mean(axis=1) if samples.ndim == 2 else samples


def _wav_image(chunks: list[tuple[bytes, bytes]]) -> bytes:
    """A RIFF/WAVE file of the given (id, body) chunks, each odd body padded."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data
                              + b"\0" * (len(data) % 2) for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestWavOracle:
    """The numpy RIFF reader and writer against scipy.io.wavfile."""

    @pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_reads_and_writes_like_scipy(self, tmp_path, dtype, channels):
        gen = np.random.default_rng(channels)
        scale = 9000 if dtype == np.int16 else 0.4
        data = (gen.standard_normal((777, channels)) * scale).astype(dtype)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
        wavfile.write(theirs, 11025, data[:, 0] if channels == 1 else data)
        audio._write_riff(ours, 11025, data)
        assert ours.read_bytes() == theirs.read_bytes()
        rate, expected = _scipy_load(theirs)
        buf = load_wav(theirs)
        assert buf.sample_rate_hz == rate == 11025
        np.testing.assert_array_equal(buf.samples, expected)

    def test_save_wav_writes_scipy_bytes(self, tmp_path):
        buf = SampleBuffer(np.sin(np.linspace(0.0, 40.0, 1001)) * 1.2, 8000)
        save_wav(tmp_path / "ours.wav", buf)
        pcm = np.round(np.clip(buf.samples, -1, 1) * 32767).astype(np.int16)
        wavfile.write(tmp_path / "theirs.wav", 8000, pcm)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "theirs.wav").read_bytes()

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_save_wav_multichannel_writes_scipy_bytes(self, tmp_path, channels):
        rows = [np.random.default_rng(k).standard_normal(501) for k in range(channels)]
        save_wav_multichannel(tmp_path / "ours.wav", rows, 16000)
        stacked = np.stack([r.astype(np.float32) for r in rows], axis=1)
        wavfile.write(tmp_path / "theirs.wav", 16000, stacked)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "theirs.wav").read_bytes()

    def test_list_chunk_with_pad_byte_and_extensible_format(self, tmp_path):
        pcm = np.array([[100, -200], [300, -400], [32767, -32768]], dtype=np.int16)
        guid = struct.pack("<I", 1) + bytes.fromhex("000010008000 00aa00389b71")
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 2, 8000, 32000, 4, 16, 22, 16, 3) + guid
        path = tmp_path / "ext.wav"
        path.write_bytes(_wav_image([(b"LIST", b"INFOisft\x03\x00\x00\x00ab\0"),
                                     (b"fmt ", fmt), (b"JUNK", b"x"),
                                     (b"data", pcm.tobytes())]))
        rate, expected = _scipy_load(path)
        buf = load_wav(path)
        assert buf.sample_rate_hz == rate == 8000
        np.testing.assert_array_equal(buf.samples, expected)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32])
    def test_other_pcm_widths_rejected(self, tmp_path, dtype):
        path = tmp_path / "pcm.wav"
        wavfile.write(path, FS, np.arange(1, 50, dtype=dtype))
        name = np.dtype(dtype).name
        with pytest.raises(ValueError, match=f"^unsupported encoding {name} in "
                                             f"{re.escape(str(path))} \\(expected 16-bit "
                                             "PCM or 32- or 64-bit float\\)$"):
            load_wav(path)

    @pytest.mark.parametrize("content", [b"not audio\n", b"RIFF\0\0\0\0WAVE",
                                         b"RIFF\x0c\0\0\0WAVEfmt \x02\0\0\0ab"])
    def test_non_riff_or_truncated_is_unreadable(self, tmp_path, content):
        path = tmp_path / "notes.wav"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^unreadable WAV file {re.escape(str(path))}: "):
            load_wav(path)
        with pytest.raises(Exception):
            wavfile.read(path)

    def test_missing_file_is_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "missing.wav")
