import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FS, tone
from modepitch.audio import FrameSpec, SampleBuffer, frame_signal
from modepitch.vad import (
    VadConfig,
    _frame_features,
    _majority_hold,
    detect_voiced,
    voiced_segments,
)


def majority_hold_loop(mask, hangover):
    """Frame-by-frame oracle for _majority_hold."""
    if hangover == 0 or mask.size == 0:
        return mask
    n = mask.size
    padded = np.concatenate([[0], np.cumsum(mask.astype(np.int64))])
    out = np.empty(n, dtype=bool)
    for i in range(n):
        lo = max(0, i - hangover)
        hi = min(n - 1, i + hangover)
        votes = padded[hi + 1] - padded[lo]
        out[i] = votes * 2 > (hi - lo + 1)
    return out


def voiced_segments_loop(mask):
    """Frame-by-frame oracle for voiced_segments."""
    out = []
    start = None
    for i, v in enumerate(mask):
        if v and start is None:
            start = i
        elif not v and start is not None:
            out.append((start, i - 1))
            start = None
    if start is not None:
        out.append((start, len(mask) - 1))
    return out


def zcr_loop(x):
    signs = np.sign(x)
    signs[signs == 0] = -1.0
    flips = signs[1:] * signs[:-1] < 0
    return float(flips.mean()) if flips.size else 0.0


def detect_voiced_loop(buf, cfg):
    """Oracle for detect_voiced over a list of Frame objects; returns the
    mask and the per-frame energies, zero-crossing rates and spread flags."""
    frames = frame_signal(buf, cfg.frame_spec())
    energies = np.array([float(np.mean(f.samples ** 2)) for f in frames])
    zcrs = np.array([zcr_loop(f.samples) for f in frames])
    moving = np.array([np.ptp(f.samples) > 0 for f in frames])
    mean_energy = float(energies.mean())
    if mean_energy == 0.0:
        mask = np.zeros(len(frames), dtype=bool)
    else:
        raw = ((zcrs < cfg.zcr_max) & (energies > cfg.energy_min_ratio * mean_energy)
               & moving)
        mask = majority_hold_loop(raw, cfg.hangover_frames) & moving
    return mask, energies, zcrs, moving


class TestDetectVoiced:
    def test_pure_tone_all_voiced(self):
        mask = detect_voiced(tone(120.0, 1.0), VadConfig())
        assert mask.all()

    def test_quiet_noise_all_unvoiced(self, rng):
        # white noise at 1% of a loud tone's energy: fails both gates
        voice = tone(120.0, 0.5).samples
        noise = rng.standard_normal(len(voice))
        noise *= np.sqrt(0.01 * np.mean(voice ** 2) / np.mean(noise ** 2))
        buf = SampleBuffer(np.concatenate([voice, noise]), FS)
        mask = detect_voiced(buf, VadConfig())
        n_voice_frames = VadConfig().frame_spec().num_frames(len(voice), FS)
        assert not mask[n_voice_frames + 2:].any()

    def test_tone_silence_tone_boundaries(self):
        cfg = VadConfig()
        seg = tone(150.0, 0.4).samples
        gap = np.zeros(int(0.4 * FS))
        buf = SampleBuffer(np.concatenate([seg, gap, seg]), FS)
        mask = detect_voiced(buf, cfg)
        spec = cfg.frame_spec()
        hop = spec.hop(FS)
        flen = spec.frame_len(FS)
        truth = []
        for i in range(len(mask)):
            window = buf.samples[i * hop:i * hop + flen]
            truth.append(np.mean(window ** 2) > 0.01)
        truth = np.array(truth)
        disagreements = np.flatnonzero(mask != truth)
        # transitions may smear by the hangover, but no more than 2 frames
        for i in disagreements:
            boundary_dist = np.min(np.abs(
                np.flatnonzero(np.diff(truth.astype(int)) != 0) - i))
            assert boundary_dist <= 2

    def test_mask_length_matches_frame_count(self, rng):
        for n_ms in (300, 777, 1234):
            n = int(n_ms * FS / 1000)
            buf = SampleBuffer(rng.standard_normal(n), FS)
            cfg = VadConfig()
            mask = detect_voiced(buf, cfg)
            assert len(mask) == len(frame_signal(buf, cfg.frame_spec()))

    @pytest.mark.parametrize("hop_ms", [5.0, 10.0, 20.0, 25.0])
    def test_frames_follow_analysis_hop(self, hop_ms, rng):
        # VAD frame i is vad.frame_ms long and starts where analysis frame i does
        buf = SampleBuffer(rng.standard_normal(int(0.777 * FS)), FS)
        cfg = VadConfig()
        spec = cfg.frame_spec(FrameSpec(hop_ms=hop_ms))
        assert (spec.frame_len_ms, spec.hop_ms) == (cfg.frame_ms, hop_ms)
        mask = detect_voiced(buf, cfg, FrameSpec(hop_ms=hop_ms))
        assert len(mask) == spec.num_frames(len(buf), FS)

    @settings(max_examples=30, deadline=None)
    @given(gain=st.floats(min_value=1e-4, max_value=1e4), seed=st.integers(0, 99))
    def test_amplitude_scale_invariance(self, gain, seed):
        gen = np.random.default_rng(seed)
        voice = tone(130.0, 0.3).samples
        noise = 0.02 * gen.standard_normal(int(0.3 * FS))
        base = np.concatenate([voice, noise])
        mask_1 = detect_voiced(SampleBuffer(base, FS), VadConfig())
        mask_g = detect_voiced(SampleBuffer(base * gain, FS), VadConfig())
        np.testing.assert_array_equal(mask_1, mask_g)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            detect_voiced(SampleBuffer(np.ones(10), FS), VadConfig())

    def test_all_zero_unvoiced(self):
        mask = detect_voiced(SampleBuffer(np.zeros(FS) + 0.0, FS), VadConfig())
        assert not mask.any()

    def test_constant_input_unvoiced(self):
        # zero crossings 0 and energy at the utterance mean pass both gates
        mask = detect_voiced(SampleBuffer(np.full(FS, 0.3), FS), VadConfig())
        assert not mask.any()

    def test_constant_run_inside_voicing_unvoiced(self):
        # a held sample between two tones: its frames have no spread, and the
        # voiced frames around them must not vote them voiced
        cfg = VadConfig()
        seg = tone(150.0, 0.4).samples
        buf = SampleBuffer(np.concatenate([seg, np.full(int(0.1 * FS), 0.3), seg]), FS)
        mask = detect_voiced(buf, cfg)
        flat = np.array([np.ptp(f.samples) == 0
                         for f in frame_signal(buf, cfg.frame_spec())])
        assert flat.sum() >= 5
        assert not mask[flat].any()
        assert mask[~flat].mean() > 0.9


class TestLoopOracle:
    @settings(max_examples=150, deadline=None)
    @given(rate=st.sampled_from([8000, 11025, 16000, 22050]),
           duration_ms=st.integers(26, 700), seed=st.integers(0, 2**32 - 1),
           noise=st.floats(0.0, 1.0), held=st.booleans(), clip=st.booleans(),
           silent_tail=st.booleans(), hangover=st.integers(0, 3))
    def test_matches_frame_loop(self, rate, duration_ms, seed, noise, held, clip,
                                silent_tail, hangover):
        gen = np.random.default_rng(seed)
        n = int(duration_ms * rate / 1000)
        t = np.arange(n) / rate
        x = (gen.uniform(0.0, 1.0) * np.sin(2 * np.pi * gen.uniform(60, 450) * t)
             + noise * gen.standard_normal(n))
        if held:
            start = int(gen.integers(0, n))
            x[start:start + int(gen.integers(1, n + 1))] = gen.uniform(-1.0, 1.0)
        if clip:
            x = np.clip(x, -0.3, 0.3)
        if silent_tail:
            x[n - int(gen.integers(1, n + 1)):] = 0.0
        buf = SampleBuffer(x, rate)
        cfg = VadConfig(hangover_frames=hangover)
        mask, energies, zcrs, moving = detect_voiced_loop(buf, cfg)
        got_energies, got_zcrs, got_moving = _frame_features(buf, cfg.frame_spec())
        np.testing.assert_array_equal(detect_voiced(buf, cfg), mask)
        assert np.array_equal(got_energies, energies)
        assert np.array_equal(got_zcrs, zcrs)
        np.testing.assert_array_equal(got_moving, moving)

    @settings(max_examples=100, deadline=None)
    @given(mask=st.lists(st.booleans(), max_size=30), hangover=st.integers(0, 4))
    def test_majority_hold_matches_loop(self, mask, hangover):
        mask = np.array(mask, dtype=bool)
        np.testing.assert_array_equal(_majority_hold(mask, hangover),
                                      majority_hold_loop(mask, hangover))


class TestVoicedSegments:
    def test_runs_extracted(self):
        mask = np.array([0, 1, 1, 1, 0, 0, 1, 1, 0], dtype=bool)
        assert voiced_segments(mask) == [(1, 3), (6, 7)]

    def test_open_ended_run(self):
        mask = np.array([0, 0, 1, 1], dtype=bool)
        assert voiced_segments(mask) == [(2, 3)]

    def test_empty(self):
        assert voiced_segments(np.zeros(5, dtype=bool)) == []

    @settings(max_examples=200, deadline=None)
    @given(mask=st.lists(st.booleans(), max_size=40))
    def test_matches_loop(self, mask):
        got = voiced_segments(np.array(mask, dtype=bool))
        assert got == voiced_segments_loop(mask)
        assert all(type(i) is int for run in got for i in run)
