import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FS, glottal_pulse_train, tone, traced_peak
from modepitch.audio import Frame, FrameSpec, NoisyMix, SampleBuffer, mix_at_snr
from modepitch.corpus import SynthUtteranceSpec, make_noise, synthesize_utterance
from modepitch.emd import EmdConfig, ImfSet, eemd_decompose
from modepitch.estimators import (
    CANDIDATE,
    FRAME_ESTIMATORS,
    EstimatorConfig,
    hht_candidates,
    harmonic_summation_scores,
    pefac_estimate,
    pick,
    shr_estimate,
    subharmonic_ratio_curves,
    swipe_apvd,
    swipe_estimate,
)
from modepitch import estimators, separation, spectral
from modepitch.separation import analyze_utterance, check_keys, imf_pitch_vector
from modepitch.spectral import LogSpectrum, Spectrum

CFG = EstimatorConfig()


def harmonic_comb(f0, amps, duration_s=0.5, fs=FS):
    """Sum of sinusoids at k*f0 with the given per-harmonic amplitudes."""
    t = np.arange(int(duration_s * fs)) / fs
    x = sum(a * np.sin(2 * np.pi * f0 * (k + 1) * t)
            for k, a in enumerate(amps))
    return SampleBuffer(0.5 * x / np.max(np.abs(x)), fs)


def frames_of(buf):
    fs = buf.sample_rate_hz
    return [SampleBuffer(row, fs) for row in FrameSpec().frames(buf.samples, fs)]


def first_frame(buf):
    return frames_of(buf)[0]


def candidate_rows(rows):
    """CANDIDATE array from rows of (f0, salience) pairs, None for an empty
    slot; every row has as many slots as the longest."""
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), np.nan, CANDIDATE)
    for i, row in enumerate(rows):
        for k, c in enumerate(row):
            if c is not None:
                out[i, k] = c
    return out


def select_loop(cands):
    """Per-row oracle for pick: the filled slots as (f0_hz, salience)
    pairs, then the most salient by max(), which keeps the first of equal
    keys."""
    picks = []
    for row in cands:
        filled = [(float(c["f0_hz"]), float(c["salience"]))
                  for c in row if not np.isnan(c["f0_hz"])]
        best = max(filled, key=lambda c: c[1], default=None)
        picks.append(np.nan if best is None else best[0])
    return np.array(picks)


def sample(logspec, log2_f):
    """Linear interpolation of a single log spectrum at arbitrary
    log2-frequency positions."""
    return np.interp(logspec.index(log2_f), np.arange(len(logspec.values)), logspec.values)


def brute_force_harmonic_summation(logspec, cand_hz, num_harmonics):
    """Per-candidate loop transcribing the harmonic-summation comb."""
    top_log2 = logspec.grid_log2()[-1]
    scores = np.empty(cand_hz.size)
    for i, f0 in enumerate(cand_hz):
        base = math.log2(f0)
        h_max = min(num_harmonics, int(2.0 ** (top_log2 - base) - 0.5))
        if h_max < 1:
            scores[i] = -np.inf
            continue
        h = np.arange(1, h_max + 1)
        weights = 1.0 / np.sqrt(h)
        peaks = sample(logspec, base + np.log2(h))
        valleys_lo = sample(logspec, base + np.log2(h - 0.5))
        valleys_hi = sample(logspec, base + np.log2(h + 0.5))
        scores[i] = float(np.dot(weights, peaks - 0.5 * (valleys_lo + valleys_hi)))
    return scores


def brute_force_subharmonic_curves(logspec, cand_hz, max_harmonics):
    """Per-candidate loop transcribing the SH and SS sums."""
    top_log2 = logspec.grid_log2()[-1]
    sh = np.empty(cand_hz.size)
    ss = np.empty(cand_hz.size)
    for i, f0 in enumerate(cand_hz):
        base = math.log2(f0)
        n_max = max(min(max_harmonics, int(2.0 ** (top_log2 - base))), 1)
        n = np.arange(1, n_max + 1)
        sh[i] = float(np.sum(sample(logspec, base + np.log2(n))))
        ss[i] = float(np.sum(sample(logspec, base + np.log2(n - 0.5))))
    return sh, ss


# Per-row oracles: the pickers the estimators ran one frame at a time
# before every row of a call was picked in array code.

def parabolic_refine(y, i):
    """Fractional index of the peak around y[i], by parabola through 3 points."""
    if i <= 0 or i >= y.size - 1:
        return float(i)
    if not (np.isfinite(y[i - 1]) and np.isfinite(y[i]) and np.isfinite(y[i + 1])):
        return float(i)
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return float(i)
    return i + 0.5 * (y[i - 1] - y[i + 1]) / denom


def refined_peak(scores, cands, bins_per_octave, f_lo, f_hi):
    """F0 at the parabola-refined score maximum, clipped to [f_lo, f_hi],
    and the maximum score itself."""
    best = int(np.argmax(scores))
    refined = parabolic_refine(scores, best)
    f0 = float(np.clip(cands[0] * 2.0 ** (refined / bins_per_octave), f_lo, f_hi))
    return f0, float(scores[best])


def per_frame(pairs, live):
    """(f0_hz, salience) of each frame from an iterable of per-frame pairs:
    two floats for a single frame, else two arrays with NaN at the frames
    in which live is False."""
    f0, salience = np.array(list(pairs)).reshape(live.shape + (2,)).T
    if live.ndim == 0:
        return float(f0), float(salience)
    return np.where(live, f0, np.nan), np.where(live, salience, np.nan)


def shr_pick(sh, ss, cands, cfg):
    """(f0_hz, salience) of one frame's harmonic-sum peak, demoted one
    octave when the subharmonic-to-harmonic ratio exceeds the threshold."""
    best = int(np.argmax(sh))
    sh_best = float(sh[best])
    ss_best = float(ss[best])
    shr = ss_best / sh_best if sh_best > 0 else 0.0
    f0 = float(cands[best])
    if shr > cfg.shr_threshold and f0 / 2.0 >= cfg.f_min:
        f0 /= 2.0
    total = sh_best + ss_best
    return f0, max(0.0, (sh_best - ss_best) / total) if total > 0 else 0.0


def frame_estimate_loop(name, frame, cfg=CFG):
    """Oracle for the frame estimators: their own spectra and scores,
    picked row by row."""
    if name == "pefac":
        cands, scores = estimators.pefac_scores(frame, cfg)
        return per_frame((refined_peak(row, cands, cfg.bins_per_octave, cfg.f_min, cfg.f_max)
                          for row in scores.reshape(-1, cands.size)),
                         ~np.isnan(scores[..., 0]))
    spec, live = estimators._frame_spectrum(frame, cfg, spectral.magnitude_spectrum)
    if name == "swipe":
        cands = spectral.log_grid(cfg.f_min, cfg.swipe_f_max, cfg.swipe_bins_per_octave)
        scores = swipe_apvd(spec, cands, cfg.swipe_num_peaks)
        return per_frame((refined_peak(row, cands, cfg.swipe_bins_per_octave,
                                       cfg.f_min, cfg.swipe_f_max)
                          for row in scores.reshape(-1, cands.size)), live)
    logspec = estimators._log_spectrum(spec, cfg, cfg.shr_max_harmonics)
    cands = spectral.log_grid(cfg.f_min, cfg.f_max, cfg.bins_per_octave)
    sh, ss = subharmonic_ratio_curves(logspec, cands, cfg.shr_max_harmonics)
    return per_frame((shr_pick(a, b, cands, cfg) for a, b in
                      zip(sh.reshape(-1, cands.size), ss.reshape(-1, cands.size))), live)


def first_acf_peak(r, tau_min, tau_max):
    """Smallest lag in [tau_min, tau_max] that is a local maximum:
    r(t) > r(t-1) and r(t) >= r(t+1)."""
    hi = min(tau_max, r.size - 2)
    for tau in range(max(tau_min, 1), hi + 1):
        if r[tau] > r[tau - 1] and r[tau] >= r[tau + 1]:
            return tau
    return None


def acf_candidate(r, fs):
    """(f0_hz, salience) one window's envelope ACF r gives, or None."""
    if r[0] <= 0.0:
        return None
    tau0 = first_acf_peak(r, int(math.ceil(fs / CFG.f_max)), int(math.floor(fs / CFG.f_min)))
    if tau0 is None or r[tau0] <= 0.0:
        return None
    return np.clip(fs / parabolic_refine(r, tau0), CFG.f_min, CFG.f_max), r[tau0] / r[0]


def hht_candidates_loop(imfs):
    """Oracle for hht_candidates: one window of one mode at a time."""
    frame, fs = FrameSpec(), imfs.sample_rate_hz
    max_lag = min(int(math.floor(fs / CFG.f_min)) + 1, frame.frame_len(fs) - 1)
    out = np.full((frame.num_frames(imfs.residual.size, fs), CFG.hht_num_imfs),
                  np.nan, CANDIDATE)
    for k in range(CFG.hht_num_imfs):
        for i, w in enumerate(frame.frames(spectral.envelope(imfs.modes[k]), fs)):
            mean = w.mean()
            w = w - mean
            if w.std() <= 1e-4 * mean:
                continue
            cand = acf_candidate(spectral.autocorrelation(w, max_lag), fs)
            if cand is not None:
                out[i, k] = cand
    return out


def random_log_spectrum(rng):
    """300 random values on a 48-per-octave grid from 25 Hz (top ~1.9 kHz)."""
    return LogSpectrum(values=rng.uniform(0, 1, 300), log2_f_start=math.log2(25.0),
                       step_log2=1 / 48)


def random_candidates(rng, top_hz):
    """Candidates from 50 Hz to past the spectrum's top, so their combs run
    from full length through truncated to none left (a single clamped
    harmonic for SHR)."""
    return np.sort(np.exp(rng.uniform(np.log(50.0), np.log(1.2 * top_hz), 200)))


class TestPefac:
    def test_clean_pulse_train_within_3_hz(self):
        buf = glottal_pulse_train(120.0, duration_s=1.0)
        for frame in frames_of(buf)[:20]:
            f0, _ = pefac_estimate(frame, CFG)
            assert f0 == pytest.approx(120.0, abs=3.0)

    def test_pulse_train_at_0db_white(self):
        buf = glottal_pulse_train(120.0, duration_s=1.2)
        noise = make_noise("white", len(buf), FS, seed=7)
        noisy = mix_at_snr(NoisyMix(buf, noise, 0.0, seed=1))
        frames = frames_of(noisy)
        assert len(frames) >= 100
        est = np.array([pefac_estimate(f, CFG)[0] for f in frames])
        within = np.abs(est - 120.0) / 120.0 <= 0.20
        assert within.mean() >= 0.90

    def test_all_zero_frame_rejected(self):
        frame = SampleBuffer(np.zeros(1000), FS)
        with pytest.raises(ValueError, match="degenerate"):
            pefac_estimate(frame, CFG)

    def test_short_frame_rejected(self):
        short = SampleBuffer(np.ones(int(0.03 * FS)), FS)  # 30 ms < 2/f_min
        with pytest.raises(ValueError, match="short"):
            pefac_estimate(short, CFG)

    def test_comb_matches_brute_force(self, rng):
        for _ in range(5):
            logspec = random_log_spectrum(rng)
            top_hz = 2.0 ** logspec.grid_log2()[-1]
            cands = random_candidates(rng, top_hz)
            # the comb's default harmonic count is the PEFAC constant
            fast = harmonic_summation_scores(logspec, cands)
            slow = brute_force_harmonic_summation(logspec, cands, CFG.pefac_num_harmonics)
            assert np.isinf(slow).any() and np.isfinite(slow).any()
            assert (cands > top_hz / 10.5).any()  # truncated combs
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)


class TestShr:
    def test_no_subharmonics_returns_fundamental(self):
        buf = harmonic_comb(200.0, [1.0] * 8)
        f0, salience = shr_estimate(first_frame(buf), CFG)
        grid_step = 200.0 * (2 ** (1 / 48.0) - 1)
        assert f0 == pytest.approx(200.0, abs=2 * grid_step)
        assert salience > 0.5

    def test_shr_low_on_clean_comb(self):
        # invariant: subharmonic-to-harmonic ratio of a pure comb <= 0.05
        from modepitch.spectral import log_grid, magnitude_spectrum, next_pow2, to_log_frequency
        buf = harmonic_comb(200.0, [1.0] * 8)
        frame = first_frame(buf)
        spec = magnitude_spectrum(frame.samples, FS, next_pow2(4 * len(frame.samples)))
        logspec = to_log_frequency(spec, 25.0, 3400.0, 48)
        cands = log_grid(50.0, 400.0, 48)
        sh, ss = subharmonic_ratio_curves(logspec, cands, 8)
        best = int(np.argmax(sh))
        assert ss[best] / sh[best] <= 0.05

    def test_curves_match_brute_force(self, rng):
        for _ in range(5):
            logspec = random_log_spectrum(rng)
            top_hz = 2.0 ** logspec.grid_log2()[-1]
            cands = random_candidates(rng, top_hz)
            sh, ss = subharmonic_ratio_curves(logspec, cands)  # default: the SHR constant
            slow_sh, slow_ss = brute_force_subharmonic_curves(logspec, cands,
                                                              CFG.shr_max_harmonics)
            assert (cands > top_hz / 8).any() and (cands > top_hz).any()
            np.testing.assert_allclose(sh, slow_sh, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ss, slow_ss, rtol=0, atol=1e-12)

    def test_strong_subharmonics_halve_the_pick(self):
        # 200 Hz harmonics at full strength plus 100 Hz odd harmonics at 80%
        amps = [0.8 if k % 2 == 0 else 1.0 for k in range(16)]
        buf = harmonic_comb(100.0, amps)
        f0, _ = shr_estimate(first_frame(buf), CFG)
        assert f0 == pytest.approx(100.0, rel=0.03)

    def test_flat_spectrum_low_salience(self, rng):
        buf = SampleBuffer(0.3 * rng.standard_normal(FS), FS)
        _, salience = shr_estimate(first_frame(buf), CFG)
        assert salience <= 0.3


class TestSwipe:
    def test_sawtooth_matched(self):
        t = np.arange(FS) / FS
        saw = 0.5 * (2.0 * ((150.0 * t) % 1.0) - 1.0)
        buf = SampleBuffer(saw, FS)
        f0, _ = swipe_estimate(first_frame(buf), CFG)
        grid_step = 150.0 * (2 ** (1 / 48.0) - 1)
        assert f0 == pytest.approx(150.0, abs=2 * grid_step)

    def test_pure_tone_positive_first_distance(self):
        # valleys at 0.5 f0 and 1.5 f0 hold no energy, so d_1(f0) > 0
        buf = tone(200.0)
        frame = first_frame(buf)
        from modepitch.spectral import magnitude_spectrum, next_pow2
        spec = magnitude_spectrum(frame.samples, FS, next_pow2(4 * len(frame.samples)))
        scores = swipe_apvd(spec, np.array([200.0]), num_peaks=1)
        assert scores[0] > 0

    def test_micro_instance_matches_brute_force(self, rng):
        # 64-bin synthetic spectrum scored against a direct transcription
        bins = rng.uniform(0, 1, 64)
        spec = Spectrum(bins=bins, bin_hz=25.0)
        # at 1200 Hz even the first upper valley (1800 Hz) leaves the
        # 1575 Hz spectrum, so no peak counts and the score is -inf
        cands = np.array([55.0, 80.0, 120.0, 133.7, 250.0, 1200.0])
        fast = swipe_apvd(spec, cands)  # default peak count: the SWIPE constant
        freqs = np.arange(64) * 25.0
        for i, f in enumerate(cands):
            p = min(CFG.swipe_num_peaks, int(freqs[-1] / f - 0.5))
            if p < 1:
                assert fast[i] == -np.inf
                continue
            total = 0.0
            for n in range(1, p + 1):
                peak = np.interp(n * f, freqs, bins)
                v_lo = np.interp((n - 0.5) * f, freqs, bins)
                v_hi = np.interp((n + 0.5) * f, freqs, bins)
                total += peak - 0.5 * (v_lo + v_hi)
            assert fast[i] == pytest.approx(total / p, abs=1e-12)

    def test_search_range_includes_480_sawtooth(self):
        t = np.arange(FS) / FS
        saw = 0.5 * (2.0 * ((480.0 * t) % 1.0) - 1.0)
        f0, _ = swipe_estimate(first_frame(SampleBuffer(saw, FS)), CFG)
        assert f0 == pytest.approx(480.0, rel=0.03)
        assert 50.0 <= f0 <= 500.0


def stack_of_frames(fs, rows, zero_row=None):
    """rows analysis frames of a noisy 160 Hz pulse train at fs, one hop
    apart, with row zero_row set to zeros."""
    buf = glottal_pulse_train(160.0, duration_s=0.1 + 0.01 * rows, fs=fs)
    x = buf.samples + 0.05 * np.random.default_rng(rows).standard_normal(len(buf))
    frames = FrameSpec().frames(x, fs)[:rows].copy()
    if zero_row is not None:
        frames[zero_row] = 0.0
    return frames


STACK_SHAPES = pytest.mark.parametrize(
    "rows,zero_row", [(1, None), (separation._BLOCK_ROWS, 0),
                      (separation._BLOCK_ROWS + 1, separation._BLOCK_ROWS)],
    ids=["one-row", "one-block", "past-a-block"])
RATES = pytest.mark.parametrize("fs", [8000, 16000, 22050])


class TestFrameStacks:
    """A (rows x n) stack gives, row for row, the bits of one-frame calls;
    an all-zero row gives no estimate (NaN), where a one-frame call raises."""

    @RATES
    @STACK_SHAPES
    @pytest.mark.parametrize("name", ["pefac", "shr", "swipe"])
    def test_estimates_equal_one_frame_calls(self, name, fs, rows, zero_row):
        frames = stack_of_frames(fs, rows, zero_row)
        f0, salience = FRAME_ESTIMATORS[name](Frame(frames, fs, 0.0))
        assert f0.shape == salience.shape == (rows,)
        # and the bytes of the per-row oracle
        want = frame_estimate_loop(name, Frame(frames, fs, 0.0))
        assert np.array([f0, salience]).tobytes() == np.array(want).tobytes()
        for i, row in enumerate(frames):
            if i == zero_row:
                assert np.isnan(f0[i]) and np.isnan(salience[i])
                with pytest.raises(ValueError, match="degenerate"):
                    FRAME_ESTIMATORS[name](Frame(row, fs, 0.0))
                continue
            single = FRAME_ESTIMATORS[name](Frame(row, fs, 0.0))
            assert all(type(v) is float for v in single)
            assert (f0[i], salience[i]) == single

    @RATES
    @STACK_SHAPES
    def test_pefac_scores_equal_one_frame_calls(self, fs, rows, zero_row):
        frames = stack_of_frames(fs, rows, zero_row)
        cands, scores = estimators.pefac_scores(Frame(frames, fs, 0.0))
        assert scores.shape == (rows, cands.size)
        for i, row in enumerate(frames):
            if i == zero_row:
                assert np.isnan(scores[i]).all()
                continue
            single_cands, single = estimators.pefac_scores(Frame(row, fs, 0.0))
            assert np.array_equal(single_cands, cands)
            assert np.array_equal(scores[i], single)

    @pytest.mark.parametrize("comb", ["harmonic_summation_scores",
                                      "subharmonic_ratio_curves"])
    def test_log_combs_score_each_spectrum(self, comb, rng):
        views = rng.uniform(0, 1, (3, 300))
        stacked = LogSpectrum(values=views, log2_f_start=math.log2(25.0), step_log2=1 / 48)
        cands = random_candidates(rng, 2.0 ** stacked.grid_log2()[-1])
        got = np.asarray(getattr(estimators, comb)(stacked, cands))
        for i, row in enumerate(views):
            single = getattr(estimators, comb)(
                LogSpectrum(values=row, log2_f_start=math.log2(25.0), step_log2=1 / 48), cands)
            assert np.array_equal(got[..., i, :], np.asarray(single))

    def test_swipe_apvd_scores_each_spectrum(self, rng):
        bins = rng.uniform(0, 1, (3, 257))
        cands = random_candidates(rng, 250 * 15.625 / 5)
        got = swipe_apvd(Spectrum(bins=bins, bin_hz=15.625), cands)
        for i, row in enumerate(bins):
            assert np.array_equal(got[i], swipe_apvd(Spectrum(bins=row, bin_hz=15.625), cands))


def mixed_stack(fs):
    """Analysis frames that take every branch of the picks: a silent
    lead-in (all-zero rows), an utterance in babble at 0 dB, white noise,
    and a comb whose strong subharmonics demote SHR's pick to 100 Hz."""
    buf, _ = synthesize_utterance(SynthUtteranceSpec(
        f0_contour=((0, 120.0), (400, 220.0)), duration_ms=400, rng_seed=1,
        sample_rate_hz=fs))
    noisy = mix_at_snr(NoisyMix(buf, make_noise("babble", len(buf), fs, seed=2), 0.0, seed=3))
    white = 0.3 * np.random.default_rng(fs).standard_normal(fs // 5)
    comb = harmonic_comb(100.0, [0.8 if k % 2 == 0 else 1.0 for k in range(16)],
                         duration_s=0.2, fs=fs).samples
    x = np.concatenate([np.zeros(fs // 10), noisy.samples, white, comb])
    return FrameSpec().frames(x, fs)


def mixed_modes(fs):
    """Three modes that pass, in turn and each at its own time, through
    silence, a 125 Hz envelope (a peak in range), a 20 Hz envelope (no peak
    below 1/f_min), an unmodulated carrier (the depth floor) and noise."""
    t = np.arange(int(0.3 * fs)) / fs
    carrier = np.cos(2 * np.pi * 1000 * t)
    pieces = [np.zeros_like(t), carrier * (1 + 0.5 * np.cos(2 * np.pi * 125 * t)),
              carrier * (1 + 0.5 * np.cos(2 * np.pi * 20 * t)), carrier,
              np.random.default_rng(fs).standard_normal(t.size)]
    modes = [np.concatenate(pieces[k:] + pieces[:k]) for k in range(CFG.hht_num_imfs)]
    return ImfSet(np.array(modes), np.zeros(len(modes[0])), fs)


class TestArrayPicks:
    """Each call picks every row's peak in array code, byte for byte what
    the per-row oracles pick. The F0 takes 2**x per value with libm's pow,
    since numpy's array power may round the last bit differently."""

    @RATES
    @pytest.mark.parametrize("name", ["pefac", "shr", "swipe"])
    def test_noisy_stack_equals_per_row_oracle(self, name, fs):
        frame = Frame(mixed_stack(fs), fs, 0.0)
        f0, salience = FRAME_ESTIMATORS[name](frame)
        want = frame_estimate_loop(name, frame)
        assert f0.tobytes() == want[0].tobytes()
        assert salience.tobytes() == want[1].tobytes()
        assert np.isnan(f0[0]) and np.isfinite(f0[-1])
        if name == "shr":
            assert f0[-1] == pytest.approx(100.0, rel=0.03)

    @RATES
    @pytest.mark.parametrize("source", ["mixed", "eemd"])
    def test_hht_equals_per_window_oracle(self, fs, source):
        if source == "mixed":
            imfs = mixed_modes(fs)
        else:
            imfs = eemd_decompose(SampleBuffer(mixed_stack(fs)[::4].ravel(), fs),
                                  EmdConfig(ensemble_size=2, rng_seed=0), CFG.hht_num_imfs)
        want = hht_candidates_loop(imfs)
        assert np.isnan(want["f0_hz"]).any() and not np.isnan(want["f0_hz"]).all()
        assert hht_candidates(imfs).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(y=hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(3, 8)),
                        elements=st.sampled_from([-np.inf, np.nan, 0.0, 1.0, 2.0])
                        | st.floats(-1e3, 1e3)),
           data=st.data())
    def test_refine_matches_scalar_parabola(self, y, data):
        # any index, edges included; repeated values give flat tops
        peak = np.array(data.draw(st.lists(st.integers(0, y.shape[1] - 1),
                                           min_size=len(y), max_size=len(y))))
        want = np.array([parabolic_refine(row, int(i)) for row, i in zip(y, peak)])
        assert estimators._refine(y, peak).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(acfs=hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.just(22)),
                           elements=st.sampled_from([-1.0, 0.0, 1.0, 2.0])
                           | st.floats(-2.0, 2.0).map(lambda v: round(v, 3))))
    def test_first_peak_matches_lag_scan(self, acfs):
        # at 1 kHz the search runs over lags 3..20 of a 22-lag ACF; the
        # ramp windows pass the depth floor, so each window reads one row.
        # Values on a 1e-3 grid tie often and keep r(tau)/r(0) finite.
        fs = 1000
        windows = np.tile(np.arange(float(FrameSpec().frame_len(fs))), (len(acfs), 1))
        with mock.patch.object(estimators, "autocorrelation", side_effect=list(acfs)):
            found, f0, salience = estimators._acf_peaks(windows, fs)
        for i, r in enumerate(acfs):
            want = acf_candidate(r, fs)
            assert found[i] == (want is not None)
            if want is not None:
                assert (f0[i], salience[i]) == want

    @pytest.mark.parametrize("fs", [8000, 16000])
    def test_hht_memory_peak_below_eemd(self, fs):
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 140.0), (600, 180.0)), duration_ms=600, rng_seed=3,
            sample_rate_hz=fs))
        eemd_peak, imfs = traced_peak(lambda: eemd_decompose(
            buf, EmdConfig(ensemble_size=2, rng_seed=0), CFG.hht_num_imfs))
        hht_peak, _ = traced_peak(lambda: hht_candidates(imfs))
        assert hht_peak < eemd_peak


class TestNonFiniteSamples:
    """A NaN or inf sample raises, where the estimators once returned a
    confident 50 Hz for it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["pefac", "shr", "swipe"])
    def test_rejected_in_a_frame_and_in_a_stack(self, name, bad):
        frames = stack_of_frames(FS, 2)
        frames[1, 100] = bad
        for samples in (frames[1], frames):
            with pytest.raises(ValueError, match="non-finite"):
                FRAME_ESTIMATORS[name](Frame(samples, FS, 0.0))


class TestHhtCandidates:
    def _imfset(self, modes, fs=FS):
        return ImfSet(modes, np.zeros(len(modes[0])) + 1e-12, fs)

    def test_am_tone_candidate_at_125(self):
        t = np.arange(FS) / FS
        am = np.cos(2 * np.pi * 1000 * t) * (1 + 0.5 * np.cos(2 * np.pi * 125 * t))
        filler1 = 0.001 * np.cos(2 * np.pi * 300 * t)
        filler2 = 0.001 * np.cos(2 * np.pi * 80 * t)
        cands = hht_candidates(self._imfset([am, filler1, filler2]))
        mode1 = cands["f0_hz"][:, 0]
        mode1 = mode1[~np.isnan(mode1)]
        assert mode1.size, "expected candidates from the AM mode"
        # envelope period 8 ms -> 125 Hz
        assert np.median(mode1) == pytest.approx(125.0, abs=2.0)

    def test_flat_envelope_yields_no_candidate(self):
        t = np.arange(FS) / FS
        flat = np.cos(2 * np.pi * 1000 * t)
        cands = hht_candidates(self._imfset([flat, flat * 0.5, flat * 0.25]))
        assert len(cands) == FrameSpec().num_frames(FS, FS)
        assert np.isnan(cands["f0_hz"]).all() and np.isnan(cands["salience"]).all()

    def test_candidates_per_interval_capped(self):
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 110.0), (500, 110.0)), duration_ms=500, rng_seed=2))
        imfs = eemd_decompose(buf, EmdConfig(ensemble_size=10, rng_seed=0))
        cands = hht_candidates(imfs)
        hop_count = FrameSpec().num_frames(len(buf), FS)
        assert cands.dtype == CANDIDATE
        assert cands.shape == (hop_count, CFG.hht_num_imfs)
        # a slot is empty in both fields or filled in both
        np.testing.assert_array_equal(np.isnan(cands["f0_hz"]),
                                      np.isnan(cands["salience"]))

    def test_synthetic_voiced_has_candidate_near_truth(self):
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 110.0), (500, 110.0)), duration_ms=500, rng_seed=2))
        imfs = eemd_decompose(buf, EmdConfig(ensemble_size=10, rng_seed=0))
        cands = hht_candidates(imfs)
        hits = np.any(np.abs(cands["f0_hz"] - 110.0) / 110.0 <= 0.20, axis=1)
        assert hits.sum() >= 0.8 * len(cands)

    def test_too_few_modes_rejected(self):
        t = np.arange(FS) / FS
        imfs = self._imfset([np.cos(2 * np.pi * 500 * t)] * 2)
        with pytest.raises(ValueError, match="modes"):
            hht_candidates(imfs)

    def test_rate_read_from_the_modes(self):
        # the same AM mode at 16 kHz: lags scale with the rate, F0 does not
        t = np.arange(2 * FS) / (2 * FS)
        am = np.cos(2 * np.pi * 1000 * t) * (1 + 0.5 * np.cos(2 * np.pi * 125 * t))
        quiet = 0.001 * np.cos(2 * np.pi * 300 * t)
        cands = hht_candidates(self._imfset([am, quiet, quiet], fs=2 * FS))
        assert len(cands) == FrameSpec().num_frames(2 * FS, 2 * FS)
        assert np.nanmedian(cands["f0_hz"][:, 0]) == pytest.approx(125.0, abs=2.0)


class TestHhtSelect:
    """pick: the most salient slot of each candidate row."""

    def test_single_candidate_passthrough(self):
        assert pick(candidate_rows([[(110.0, 0.8)]]))[0] == 110.0

    def test_argmax_salience(self):
        cands = candidate_rows([[(100.0, 0.9), (200.0, 0.5), (300.0, 0.5)]])
        assert pick(cands)[0] == 100.0

    def test_tie_goes_to_lowest_mode(self):
        cands = candidate_rows([[(100.0, 0.7), (200.0, 0.7)],
                                [None, (200.0, 0.7), (300.0, 0.7)]])
        np.testing.assert_array_equal(pick(cands), [100.0, 200.0])

    def test_empty_gives_none(self):
        # a row with no candidate gives no estimate, as does a frameless array
        cands = candidate_rows([[None, None, None], [None, (150.0, 0.1), None]])
        np.testing.assert_array_equal(pick(cands), [np.nan, 150.0])
        assert pick(np.full((0, 3), np.nan, CANDIDATE)).shape == (0,)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(
               st.none(),
               st.tuples(st.floats(min_value=1.0, max_value=1600.0),
                         st.one_of(st.sampled_from([0.25, 0.5, 0.75]),  # ties
                                   st.floats(min_value=0.0, max_value=1.0)))),
               min_size=1, max_size=4), min_size=1, max_size=8))
    def test_matches_max_oracle(self, rows):
        cands = candidate_rows(rows)
        np.testing.assert_array_equal(pick(cands), select_loop(cands))


class TestInvariants:
    @pytest.mark.parametrize("name", ["pefac", "shr", "swipe"])
    def test_scale_invariance(self, name):
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 170.0), (500, 170.0)), duration_ms=500, rng_seed=4))
        frame = first_frame(buf)
        base, _ = FRAME_ESTIMATORS[name](frame, CFG)
        for c in (0.01, 3.0, 250.0):
            scaled = SampleBuffer(frame.samples * c, FS)
            assert FRAME_ESTIMATORS[name](scaled, CFG)[0] == pytest.approx(base)

    def test_hht_scale_invariance(self):
        t = np.arange(FS) / FS
        am = np.cos(2 * np.pi * 1000 * t) * (1 + 0.5 * np.cos(2 * np.pi * 125 * t))
        modes = [am, 0.001 * np.cos(2 * np.pi * 300 * t),
                 0.001 * np.cos(2 * np.pi * 80 * t)]
        results = []
        for c in (1.0, 7.5):
            imfs = ImfSet(np.multiply(modes, c), np.zeros(FS) + 1e-12, FS)
            picks = pick(hht_candidates(imfs))
            results.append(picks[~np.isnan(picks)])
        assert results[0].size
        np.testing.assert_allclose(results[0], results[1], rtol=1e-9)

    @pytest.mark.parametrize("name", ["pefac", "shr", "swipe"])
    def test_f0_always_in_range(self, name, rng):
        for seed in range(5):
            gen = np.random.default_rng(seed)
            buf = SampleBuffer(0.4 * gen.standard_normal(int(0.3 * FS)), FS)
            f0, _ = FRAME_ESTIMATORS[name](first_frame(buf), CFG)
            upper = CFG.swipe_f_max if name == "swipe" else CFG.f_max
            assert CFG.f_min <= f0 <= upper

    def test_every_grid_comes_from_log_grid(self, monkeypatch):
        # the candidate grids of pefac, shr, swipe and the per-mode F0, and
        # the log-frequency view pefac and shr read through to_log_frequency
        calls = []
        real_log_grid = spectral.log_grid

        def recording(*args):
            calls.append(args)
            return real_log_grid(*args)
        for module in (spectral, estimators, separation):
            monkeypatch.setattr(module, "log_grid", recording)
        cand_grid = (CFG.f_min, CFG.f_max, CFG.bins_per_octave)
        # log views span f_min/2 up to Nyquist (pefac) or 8.5 f_max (shr)
        expected = {
            "pefac": [(CFG.f_min / 2, FS / 2, CFG.bins_per_octave), cand_grid],
            "shr": [(CFG.f_min / 2, 3400.0, CFG.bins_per_octave), cand_grid],
            "swipe": [(CFG.f_min, CFG.swipe_f_max, CFG.swipe_bins_per_octave)]}
        frame = first_frame(glottal_pulse_train(150.0, duration_s=0.2))
        for name, grids in expected.items():
            calls.clear()
            FRAME_ESTIMATORS[name](frame, CFG)
            assert calls == grids, name
        calls.clear()
        modes = np.tile(frame.samples, (4, 1))
        imf_pitch_vector(ImfSet(modes, np.zeros(frame.samples.size), FS))
        assert calls == [cand_grid] + 4 * expected["pefac"]

    @pytest.mark.parametrize("keys", [([], ["pro"]), (["hht"], [])])
    def test_empty_key_list_rejected(self, keys):
        # before the VAD and EEMD run
        with pytest.raises(ValueError, match="at least one estimator"):
            analyze_utterance(tone(150.0), *keys)

    def test_unknown_estimator_rejected(self):
        assert "yin" not in FRAME_ESTIMATORS
        with pytest.raises(ValueError, match="unknown estimator 'yin'"):
            check_keys(["shr", "yin"], ["raw"])
