import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtbtrs
from scipy.signal import lfilter

from conftest import FS, traced_peak
from modepitch import corpus
from modepitch.audio import FrameSpec
from modepitch.corpus import (
    NOISE_KINDS,
    SynthUtteranceSpec,
    generate_corpus,
    load_manifest,
    make_noise,
    read_reference,
    synthesize_utterance,
    write_noise_set,
    write_reference,
)
from modepitch.spectral import autocorrelation
from modepitch.track import FramePitchTrack


class TestSynthesize:
    def test_flat_contour_acf_period(self):
        spec = SynthUtteranceSpec(f0_contour=((0, 120.0), (600, 120.0)),
                                  duration_ms=600, jitter_pct=0.0, rng_seed=0)
        buf, _ = synthesize_utterance(spec)
        period = FS / 120.0
        r = autocorrelation(buf.samples, int(2.5 * period))
        lo, hi = int(period * 0.9), int(period * 1.1)
        peak = lo + int(np.argmax(r[lo:hi]))
        assert abs(peak - period) <= 1.5

    def test_linear_contour_truth_is_linear(self):
        spec = SynthUtteranceSpec(f0_contour=((0, 200.0), (600, 300.0)),
                                  duration_ms=600, jitter_pct=0.0, rng_seed=0)
        _, truth = synthesize_utterance(spec)
        t = truth.frame_times_ms + 45.0  # frame centers
        expected = 200.0 + (300.0 - 200.0) * t / 600.0
        np.testing.assert_allclose(truth.f0_hz, expected, rtol=1e-12)

    def test_jitter_bounded(self):
        spec = SynthUtteranceSpec(f0_contour=((0, 100.0), (1000, 100.0)),
                                  duration_ms=1000, jitter_pct=1.0, rng_seed=5)
        buf, _ = synthesize_utterance(spec)
        # measure pulse periods from the excitation peaks
        x = np.abs(np.diff(buf.samples, prepend=0.0))
        nominal = FS / 100.0
        peaks = []
        i = 0
        while i < len(x) - 1:
            j = i + int(0.5 * nominal) + int(np.argmax(x[i + int(0.5 * nominal):
                                                         i + int(1.5 * nominal)]))
            peaks.append(j)
            i = j
            if j + int(1.5 * nominal) >= len(x):
                break
        periods = np.diff(peaks)
        deviation = np.abs(periods - nominal) / nominal
        assert np.max(deviation) <= 0.03  # 1% sigma clipped at 3 sigma

    def test_truth_grid_matches_analysis_frames(self):
        spec = SynthUtteranceSpec(f0_contour=((0, 150.0), (500, 150.0)),
                                  duration_ms=500, rng_seed=1)
        buf, truth = synthesize_utterance(spec)
        assert len(truth) == FrameSpec().num_frames(len(buf), FS)
        assert truth.voiced_mask.all()

    def test_contour_bounds_enforced(self):
        with pytest.raises(ValueError):
            SynthUtteranceSpec(f0_contour=((0, 450.0),), duration_ms=300)

    def test_min_duration_enforced(self):
        with pytest.raises(ValueError):
            SynthUtteranceSpec(f0_contour=((0, 100.0),), duration_ms=100)

    @pytest.mark.parametrize("jitter", [-5.0, -1e-9, 30.000001, 200.0])
    def test_jitter_outside_0_30_rejected(self, jitter):
        with pytest.raises(ValueError, match=r"jitter_pct must lie in \[0, 30\]"):
            SynthUtteranceSpec(f0_contour=((0, 100.0),), jitter_pct=jitter)

    @pytest.mark.parametrize("contour", [((600, 300.0), (0, 100.0)),
                                         ((0, 100.0), (300, 150.0), (300, 200.0)),
                                         ((0, 100.0), (float("nan"), 150.0))])
    def test_knot_times_must_strictly_increase(self, contour):
        with pytest.raises(ValueError, match="knot times must strictly increase"):
            SynthUtteranceSpec(f0_contour=contour)

    @pytest.mark.parametrize("contour", [((float("nan"), 100.0),),
                                         ((float("-inf"), 100.0), (0, 150.0)),
                                         ((0, 100.0), (float("inf"), 150.0))])
    def test_knot_times_must_be_finite(self, contour):
        with pytest.raises(ValueError, match="knot times must be finite"):
            SynthUtteranceSpec(f0_contour=contour)

    def test_work_memory_bounded_by_the_output(self):
        # filtered, scaled and adopted in place; a new array per stage and
        # the buffer's copy peaked at 2.24x
        spec = SynthUtteranceSpec(f0_contour=((0, 120.0), (3000, 220.0)),
                                  duration_ms=3000, rng_seed=1, sample_rate_hz=16_000)
        peak, (buf, _) = traced_peak(lambda: synthesize_utterance(spec))
        assert peak < 1.5 * buf.samples.nbytes


def filtered(a, x):
    """A filtered copy of x: ``corpus._all_pole`` on a copy, which it
    overwrites."""
    y = np.array(x, dtype=np.float64)
    corpus._all_pole(a, y)
    return y


def per_pulse_synthesis(spec):
    """The pulse loop as first written, one numpy call per step of each
    pulse: the oracle the batched jitter draw must match bit for bit."""
    fs = spec.sample_rate_hz
    n = int(round(spec.duration_ms * fs / 1000.0))
    rng = np.random.default_rng(spec.rng_seed)

    pulses = np.zeros(n)
    t = 0.0
    while t < n:
        pulses[int(t)] += 1.0
        f0 = float(np.interp(1000.0 * t / fs, *spec.knots()))
        period = fs / f0
        if spec.jitter_pct > 0:
            wobble = np.clip(rng.standard_normal(), -3.0, 3.0)
            period *= 1.0 + wobble * spec.jitter_pct / 100.0
        t += period

    # -6 dB/oct glottal tilt, then the formant cascade
    x = filtered([1.0, -0.95], pulses)
    for freq, bw in spec.formant_set:
        x = filtered(corpus._resonator_coeffs(freq, bw, fs), x)
    peak = np.max(np.abs(x))
    if peak > 0:
        x = 0.5 * x / peak
    buf = corpus.SampleBuffer(x, fs)

    frame = FrameSpec()
    n_frames = frame.num_frames(n, fs)
    times = np.arange(n_frames) * frame.hop_ms
    truth_f0 = np.interp(times + frame.frame_len_ms / 2.0, *spec.knots())
    truth = FramePitchTrack(frame_times_ms=times, f0_hz=truth_f0,
                            voiced_mask=np.ones(n_frames, dtype=bool))
    return buf, truth


@st.composite
def synth_specs(draw):
    duration = draw(st.floats(200.0, 3000.0))
    times = sorted(draw(st.lists(st.floats(0.0, duration), min_size=1, max_size=5,
                                 unique=True)))
    return SynthUtteranceSpec(
        f0_contour=tuple((t, draw(st.floats(50.0, 400.0))) for t in times),
        duration_ms=duration,
        jitter_pct=draw(st.sampled_from([0.0, 0.5, 1.0, 30.0])),
        rng_seed=draw(st.integers(0, 2 ** 31)),
        sample_rate_hz=draw(st.sampled_from([8000, 11025, 16000, 22050])),
    )


def assert_same_synthesis(got, want):
    (got_buf, got_truth), (want_buf, want_truth) = got, want
    assert got_buf.sample_rate_hz == want_buf.sample_rate_hz
    assert np.array_equal(got_buf.samples, want_buf.samples)
    assert np.array_equal(got_truth.frame_times_ms, want_truth.frame_times_ms)
    assert np.array_equal(got_truth.f0_hz, want_truth.f0_hz)
    assert np.array_equal(got_truth.voiced_mask, want_truth.voiced_mask)


class TestPulseLoopOracle:
    @settings(max_examples=120, deadline=None)
    @given(spec=synth_specs())
    def test_synthesize_equals_per_pulse_loop(self, spec):
        assert_same_synthesis(synthesize_utterance(spec), per_pulse_synthesis(spec))

    @pytest.mark.parametrize("jitter", [0.0, 30.0])
    def test_synthesize_equals_per_pulse_loop_at_jitter_bounds(self, jitter):
        # 400 Hz at 8 kHz with 30% jitter: periods down to 2 samples, the
        # most pulses the up-front draw must cover
        spec = SynthUtteranceSpec(f0_contour=((0, 400.0),), duration_ms=3000,
                                  jitter_pct=jitter, rng_seed=2)
        assert_same_synthesis(synthesize_utterance(spec), per_pulse_synthesis(spec))

    def test_synthesize_equals_per_pulse_loop_on_16_khz_three_knot_contour(self):
        spec = SynthUtteranceSpec(f0_contour=((0, 110.0), (300, 380.0), (600, 90.0)),
                                  jitter_pct=1.0, rng_seed=11, sample_rate_hz=16000)
        assert_same_synthesis(synthesize_utterance(spec), per_pulse_synthesis(spec))

    def test_synthesize_equals_per_pulse_loop_on_a_subnormal_knot_gap(self):
        # knots one subnormal step apart: the slope between them is inf, so
        # only np.interp's exact-at-a-knot rule keeps the first F0 finite
        spec = SynthUtteranceSpec(f0_contour=((0.0, 50.0), (5e-324, 51.0)))
        assert_same_synthesis(synthesize_utterance(spec), per_pulse_synthesis(spec))

    @pytest.mark.parametrize("contour", [
        ((-50.0, 100.0), (100.0, 300.0), (5000.0, 60.0)),  # every pulse between knots
        ((250.0, 120.0), (260.0, 380.0)),                  # before the first, past the last
        ((0.0, 100.0), (10.0, 59.9), (30.0, 101.7)),       # a pulse on the 10 ms knot
    ])
    def test_synthesize_equals_per_pulse_loop_on_each_side_of_the_knots(self, contour):
        spec = SynthUtteranceSpec(f0_contour=contour, jitter_pct=0.0, rng_seed=3)
        assert_same_synthesis(synthesize_utterance(spec), per_pulse_synthesis(spec))

    @pytest.mark.parametrize("fs", [8000, 16000])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_make_noise_equals_per_pulse_loop(self, monkeypatch, fs, kind):
        fast = make_noise(kind, 3 * fs, fs, seed=5)
        monkeypatch.setattr(corpus, "synthesize_utterance", per_pulse_synthesis)
        slow = make_noise(kind, 3 * fs, fs, seed=5)
        assert np.array_equal(fast.samples, slow.samples)


def _lfilter_all_pole(a, x):
    x[...] = lfilter([1.0], a, x)


@st.composite
def all_pole_cases(draw):
    """Every denominator corpus filters with: the glottal tilt, the hum
    rumble, and formant resonators over the ranges corpus draws."""
    fs = draw(st.sampled_from([8000, 16000, 22050]))
    kind = draw(st.sampled_from(["tilt", "hum", "formant"]))
    if kind == "tilt":
        a = [1.0, -0.95]
    elif kind == "hum":
        a = [1.0, -0.98]
    else:
        freq = draw(st.floats(300.0, 3100.0))
        bw = draw(st.floats(80.0, 200.0))
        a = corpus._resonator_coeffs(freq, bw, fs)
    n = draw(st.integers(0, 5000))
    seed = draw(st.integers(0, 2 ** 31))
    return a, np.random.default_rng(seed).standard_normal(n)


class TestAllPole:
    @settings(max_examples=150, deadline=None)
    @given(case=all_pole_cases())
    def test_matches_lfilter(self, case):
        a, x = case
        got = filtered(a, x)
        want = lfilter([1.0], a, x)
        assert got.shape == want.shape
        scale = np.max(np.abs(want), initial=0.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("fs", [8000, 16000])
    def test_synthesize_matches_lfilter(self, monkeypatch, fs):
        spec = SynthUtteranceSpec(f0_contour=((0, 110.0), (600, 260.0)),
                                  duration_ms=600, rng_seed=4, sample_rate_hz=fs)
        fast, _ = synthesize_utterance(spec)
        monkeypatch.setattr(corpus, "_all_pole", _lfilter_all_pole)
        slow, _ = synthesize_utterance(spec)
        np.testing.assert_allclose(fast.samples, slow.samples, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_make_noise_matches_lfilter(self, monkeypatch, kind):
        fast = make_noise(kind, 8000, FS, seed=3)
        monkeypatch.setattr(corpus, "_all_pole", _lfilter_all_pole)
        slow = make_noise(kind, 8000, FS, seed=3)
        np.testing.assert_allclose(fast.samples, slow.samples, rtol=0, atol=1e-12)


def full_band_all_pole(a, x):
    """The all-pole solve as first written, one LAPACK call over a band as
    long as the signal: the oracle the blocked solve must match bit for
    bit."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    band = np.tile(a, (x.size, 1)).T
    return dtbtrs(band, x, uplo="L", diag="U")[0]


@st.composite
def blocked_cases(draw):
    """Every denominator corpus filters with, over lengths around the block
    edges, driven by impulse trains (as synthesis is) or by noise."""
    fs = draw(st.sampled_from([8000, 16000, 22050]))
    kind = draw(st.sampled_from(["tilt", "hum", "formant"]))
    if kind == "tilt":
        a = [1.0, -0.95]
    elif kind == "hum":
        a = [1.0, -0.98]
    else:
        a = corpus._resonator_coeffs(draw(st.floats(300.0, 3100.0)),
                                     draw(st.floats(80.0, 200.0)), fs)
    n = draw(st.one_of(st.integers(0, 5000), st.sampled_from([2047, 2048, 2049, 4097])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    if draw(st.booleans()):
        x = np.zeros(n)
        x[::draw(st.integers(2, 400))] = 1.0
    else:
        x = rng.standard_normal(n)
    return a, x


class TestBlockedAllPole:
    @settings(max_examples=150, deadline=None)
    @given(case=blocked_cases())
    def test_equals_full_band_solve(self, case):
        a, x = case
        got = filtered(a, x)
        assert got.shape == x.shape
        assert np.array_equal(got, full_band_all_pole(a, x))

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("a", [[1.0], [1.0, -0.95],
                                   corpus._resonator_coeffs(2500.0, 160.0, 8000)])
    def test_any_block_length_equals_full_band_solve(self, monkeypatch, a, block):
        # blocks shorter than the filter order carry history across blocks
        x = np.random.default_rng(block).standard_normal(50)
        monkeypatch.setattr(corpus, "_BLOCK_ROWS", block)
        assert np.array_equal(filtered(a, x), full_band_all_pole(a, x))

    @pytest.mark.parametrize("a", [[1.0, -0.95], corpus._resonator_coeffs(500.0, 80.0, 8000)])
    def test_work_memory_bounded_by_the_output(self, a):
        # the full-band solve peaks at 3x (order 1) and 4x (order 2)
        x = np.random.default_rng(0).standard_normal(100_000)
        tracemalloc.start()
        try:
            corpus._all_pole(a, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes


def copying_synthesis(spec):
    """synthesize_utterance's samples as built before synthesis wrote in
    place: a new array per filter stage (the full-band solve) and per
    scaling step. The oracle the in-place synthesis must match bit for
    bit."""
    fs = spec.sample_rate_hz
    n = int(round(spec.duration_ms * fs / 1000.0))
    knots_t, knots_f = spec.knots()
    min_period = fs / knots_f.max() * (1.0 - 3.0 * spec.jitter_pct / 100.0)
    wobble = np.clip(np.random.default_rng(spec.rng_seed).standard_normal(
        int(n / min_period) + 2), -3.0, 3.0)
    scales = (1.0 + wobble * spec.jitter_pct / 100.0).tolist()
    pulses = np.zeros(n)
    t = 0.0
    i = 0
    while t < n:
        pulses[int(t)] += 1.0
        f0 = float(np.interp(1000.0 * t / fs, knots_t, knots_f))
        t += fs / f0 * scales[i]
        i += 1
    x = full_band_all_pole([1.0, -0.95], pulses)
    for freq, bw in spec.formant_set:
        x = full_band_all_pole(corpus._resonator_coeffs(freq, bw, fs), x)
    peak = np.max(np.abs(x))
    if peak > 0:
        x = 0.5 * x / peak
    return x


def copying_noise(kind, n_samples, fs, seed):
    """make_noise's samples as built before it wrote in place, each step a
    new array and babble voices from `copying_synthesis`: the oracle the
    in-place noise must match bit for bit."""
    rng = np.random.default_rng(seed)
    if kind == "white":
        x = rng.standard_normal(n_samples)
    elif kind == "pink":
        spec = np.fft.rfft(rng.standard_normal(n_samples))
        freqs = np.fft.rfftfreq(n_samples, 1.0 / fs)
        freqs[0] = freqs[1] if freqs.size > 1 else 1.0
        x = np.fft.irfft(spec / np.sqrt(freqs), n_samples)
    elif kind == "shaped":
        spec = np.fft.rfft(rng.standard_normal(n_samples))
        freqs = np.fft.rfftfreq(n_samples, 1.0 / fs)
        gain = 1.0 / np.sqrt(1.0 + (freqs / 500.0) ** 2)
        x = np.fft.irfft(spec * gain, n_samples)
    elif kind == "hum":
        times = np.arange(n_samples) / fs
        x = np.zeros(n_samples)
        for h, amp in ((1, 1.0), (2, 0.7), (3, 0.45), (4, 0.3)):
            phase = rng.uniform(0, 2 * np.pi)
            x += np.sin(2 * np.pi * 55.0 * h * times + phase) * amp
        x += full_band_all_pole([1.0, -0.98], rng.standard_normal(n_samples)) * 0.3
    elif kind == "bursts":
        x = 0.1 * rng.standard_normal(n_samples)
        for _ in range(max(1, n_samples // (fs // 4))):
            start = int(rng.integers(0, max(1, n_samples - fs // 20)))
            width = int(rng.integers(fs // 100, fs // 20))
            stop = min(n_samples, start + width)
            x[start:stop] += rng.standard_normal(stop - start) * np.hanning(stop - start)
    else:
        assert kind == "babble"
        x = np.zeros(n_samples)
        duration_ms = 1000.0 * n_samples / fs
        for _ in range(6):
            f0_base = float(rng.uniform(70, 320))
            knots = tuple((t, float(np.clip(f0_base * rng.uniform(0.8, 1.25), 50, 400)))
                          for t in np.linspace(0, duration_ms, 5))
            voice = copying_synthesis(SynthUtteranceSpec(
                f0_contour=knots, duration_ms=max(200.0, duration_ms),
                formant_set=tuple((float(rng.uniform(lo, hi)), float(rng.uniform(80, 200)))
                                  for lo, hi in corpus.BABBLE_FORMANT_RANGES),
                jitter_pct=1.0, rng_seed=int(rng.integers(0, 2 ** 31)), sample_rate_hz=fs))
            x[:len(voice)] += voice[:n_samples]
    rms = float(np.sqrt(np.mean(x ** 2)))
    return x / rms if rms > 0 else x


class TestCopyingOracle:
    @settings(max_examples=60, deadline=None)
    @given(spec=synth_specs())
    def test_synthesize_equals_copying_synthesis(self, spec):
        assert np.array_equal(synthesize_utterance(spec)[0].samples, copying_synthesis(spec))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(NOISE_KINDS),
           n=st.one_of(st.integers(300, 6000), st.sampled_from([2047, 2048, 2049, 4097])),
           fs=st.sampled_from([8000, 16000, 22050]), seed=st.integers(0, 2 ** 31))
    def test_make_noise_equals_copying_noise(self, kind, n, fs, seed):
        assert np.array_equal(make_noise(kind, n, fs, seed).samples,
                              copying_noise(kind, n, fs, seed))

    @pytest.mark.parametrize("fs", [8000, 16000, 22050])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_make_noise_equals_copying_noise_at_each_rate(self, kind, fs):
        assert np.array_equal(make_noise(kind, 6000, fs, seed=9).samples,
                              copying_noise(kind, 6000, fs, seed=9))


class TestNoise:
    # multiples of the output's bytes; building through temporaries and
    # copying into the buffer peaked at white 3.0, pink 5.5, babble 3.32,
    # hum 3.14, bursts 3.0 and shaped 6.0
    WORK_MEMORY_BOUNDS = {"white": 2.5, "pink": 4.0, "babble": 2.8, "hum": 2.5,
                          "bursts": 2.5, "shaped": 4.0}

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_work_memory_bounded_by_the_output(self, kind):
        peak, out = traced_peak(lambda: make_noise(kind, 48_000, 16_000, seed=0))
        assert peak < self.WORK_MEMORY_BOUNDS[kind] * out.samples.nbytes

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_unit_rms_and_deterministic(self, kind):
        a = make_noise(kind, 8000, FS, seed=3)
        b = make_noise(kind, 8000, FS, seed=3)
        assert np.array_equal(a.samples, b.samples)
        assert np.sqrt(np.mean(a.samples ** 2)) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_sample_count_and_rate_bounds(self, kind):
        # rejected before any work, so no empty-slice warning or FFT error
        with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
            make_noise(kind, 0, FS)
        with pytest.raises(ValueError, match="n_samples must be at least 1, got -5"):
            make_noise(kind, -5, FS)
        # one floor for every kind: below it babble's 10 ms hop rounds to 0
        # samples, and below 20 Hz bursts has no room for a burst width
        assert corpus.MIN_NOISE_RATE_HZ == 51
        for fs in (50, 19, 3, 0, -1):
            with pytest.raises(ValueError, match="noise sample_rate_hz must be at "
                                                 f"least 51 Hz, got {fs}$"):
                make_noise(kind, 8000, fs)
        assert np.abs(make_noise(kind, 1, FS).samples).tolist() == [1.0]
        # babble's floor is twice its top formant; every other kind accepts 51
        floor = 6001 if kind == "babble" else 51
        if kind == "babble":
            with pytest.raises(ValueError, match="babble sample_rate_hz must exceed "
                                                 "6000 Hz, twice the 3000 Hz top "
                                                 "formant, got 6000$"):
                make_noise(kind, 8000, 6000)
        for n in (1, 7, 3 * 51):  # the floor itself is accepted
            assert len(make_noise(kind, n, floor, seed=2)) == n

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown noise"):
            make_noise("ocean", 1000, FS)

    def test_pink_rolls_off(self):
        buf = make_noise("pink", 32768, FS, seed=1)
        spec = np.abs(np.fft.rfft(buf.samples)) ** 2
        freqs = np.fft.rfftfreq(len(buf), 1 / FS)
        low = spec[(freqs > 50) & (freqs < 200)].mean()
        high = spec[(freqs > 2000) & (freqs < 3500)].mean()
        assert low > 5 * high


class TestManifest:
    def test_reference_roundtrip(self, tmp_path):
        track = FramePitchTrack(
            frame_times_ms=np.array([0.0, 10.0, 20.0]),
            f0_hz=np.array([100.0, np.nan, 250.0]),
            voiced_mask=np.array([True, False, True]))
        path = tmp_path / "ref.f0"
        write_reference(path, track)
        loaded = read_reference(path)
        np.testing.assert_allclose(loaded.frame_times_ms, track.frame_times_ms)
        np.testing.assert_array_equal(loaded.voiced_mask, track.voiced_mask)
        assert loaded.f0_hz[0] == pytest.approx(100.0, abs=1e-3)
        assert np.isnan(loaded.f0_hz[1])

    def test_generate_and_load_corpus(self, tmp_path):
        manifest = generate_corpus(tmp_path / "corpus", count=4, seed=0,
                                   duration_ms=300.0)
        items = load_manifest(manifest)
        assert len(items) == 4
        low_items = [i for i in items if "low" in i.name]
        high_items = [i for i in items if "high" in i.name]
        assert len(low_items) == 2 and len(high_items) == 2
        for item in low_items:
            assert np.nanmax(item.truth.f0_hz) <= 200.0
        for item in high_items:
            assert np.nanmin(item.truth.f0_hz) > 200.0

    def test_corpus_rate_floor(self, tmp_path):
        # at or below twice the top 3100 Hz formant a resonator would sit at
        # or above the Nyquist frequency and alias (the 400 Hz contour
        # ceiling is far below it)
        assert corpus.CORPUS_FORMANT_RANGES[-1][1] == 3100.0
        rejected = tmp_path / "rejected"
        with pytest.raises(ValueError, match="corpus sample_rate_hz must exceed "
                                             "6200 Hz, .* got 6200$"):
            generate_corpus(rejected, count=1, duration_ms=200.0, sample_rate_hz=6200)
        assert not rejected.exists()
        manifest = generate_corpus(tmp_path / "accepted", count=1, duration_ms=200.0,
                                   sample_rate_hz=8000)
        assert load_manifest(manifest)[0].audio.sample_rate_hz == 8000

    @pytest.mark.parametrize("kinds,rate,message", [
        (NOISE_KINDS, 50, "noise sample_rate_hz must be at least 51 Hz, got 50$"),
        (("white", "ocean"), 8000, "unknown noise kind 'ocean'")])
    def test_rejected_noise_set_leaves_no_directory(self, tmp_path, kinds, rate,
                                                    message):
        out_dir = tmp_path / "noises"
        with pytest.raises(ValueError, match=message):
            write_noise_set(out_dir, kinds=kinds, sample_rate_hz=rate)
        assert not out_dir.exists()

    def test_negative_seed_named_before_any_directory(self, tmp_path):
        # numpy's own message named neither the seed nor its caller
        for write in (generate_corpus, write_noise_set):
            out_dir = tmp_path / write.__name__
            with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
                write(out_dir, seed=-1)
            assert not out_dir.exists()

    @pytest.mark.parametrize("line", ["a.wav", "a.wav b.f0 c"])
    def test_manifest_line_without_two_fields_named(self, tmp_path, line):
        path = tmp_path / "manifest.txt"
        path.write_text(f"# header\n\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"manifest {path} line 3: expected 'wav_path ref_path', got '{line}'")):
            load_manifest(path)

    @pytest.mark.parametrize("line", ["10.0", "10.0 120.0 1", "10.0 high"])
    def test_reference_line_without_two_numbers_named(self, tmp_path, line):
        path = tmp_path / "ref.f0"
        path.write_text(f"0.0 120.0\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"reference file {path} line 2: expected 'time_ms f0_hz' numbers, "
                f"got '{line}'")):
            read_reference(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="no utterances"):
            load_manifest(path)
