import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FS, glottal_pulse_train, tone
from modepitch.audio import FrameSpec, NoisyMix, SampleBuffer, mix_at_snr
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
from modepitch.separation import check_keys, imf_pitch_vector
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
        peaks = logspec.sample(base + np.log2(h))
        valleys_lo = logspec.sample(base + np.log2(h - 0.5))
        valleys_hi = logspec.sample(base + np.log2(h + 0.5))
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
        sh[i] = float(np.sum(logspec.sample(base + np.log2(n))))
        ss[i] = float(np.sum(logspec.sample(base + np.log2(n - 0.5))))
    return sh, ss


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

    def test_unknown_estimator_rejected(self):
        assert "yin" not in FRAME_ESTIMATORS
        with pytest.raises(ValueError, match="unknown estimator 'yin'"):
            check_keys(["shr", "yin"], ["raw"])
