import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from modepitch import emd
from modepitch.audio import SampleBuffer
from modepitch.corpus import SynthUtteranceSpec, synthesize_utterance
from modepitch.emd import (
    EmdConfig,
    ImfSet,
    eemd_decompose,
    emd_decompose,
    mode_energies,
    write_imf_wav,
    _local_extrema,
    _mean_envelope,
)

FS = 8000


def two_tone(duration_s=1.0, fs=FS):
    t = np.arange(int(duration_s * fs)) / fs
    return (SampleBuffer(np.sin(2 * np.pi * 200 * t) + np.sin(2 * np.pi * 40 * t), fs),
            np.sin(2 * np.pi * 200 * t), np.sin(2 * np.pi * 40 * t))


def normalized_corr(a, b):
    return abs(np.dot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def zero_crossings(x):
    s = np.sign(x)
    s[s == 0] = 1
    return int(np.sum(s[1:] != s[:-1]))


class TestLocalExtrema:
    def test_sine_extrema_counts(self):
        t = np.arange(800) / FS
        x = np.sin(2 * np.pi * 100 * t)
        maxima, minima = _local_extrema(x)
        assert len(maxima) == 10
        assert len(minima) in (9, 10)

    def test_monotone_has_none(self):
        maxima, minima = _local_extrema(np.linspace(0, 1, 100))
        assert len(maxima) == 0 and len(minima) == 0

    def test_plateau_counted_once(self):
        x = np.array([0.0, 1.0, 1.0, 1.0, 0.0, -1.0, 0.0])
        maxima, minima = _local_extrema(x)
        assert len(maxima) == 1
        assert len(minima) == 1


def _envelope_oracle(t_ext, v_ext, n):
    """Reference envelope: scipy's natural CubicSpline through the extrema
    and up to two mirrored extrema beyond each end."""
    left_t = (-t_ext[:2])[::-1]
    left_v = (v_ext[:2])[::-1]
    keep = left_t < t_ext[0]
    left_t, left_v = left_t[keep], left_v[keep]
    end = n - 1
    right_t = (2 * end - t_ext[-2:])[::-1]
    right_v = (v_ext[-2:])[::-1]
    keep = right_t > t_ext[-1]
    right_t, right_v = right_t[keep], right_v[keep]
    knots_t = np.concatenate([left_t, t_ext, right_t])
    knots_v = np.concatenate([left_v, v_ext, right_v])
    spline = CubicSpline(knots_t, knots_v, bc_type="natural")
    return spline(np.arange(n))


def _sift_one_imf_oracle(r, cfg):
    """Reference sift step: two CubicSpline envelopes per iteration."""
    n = r.size
    h = r
    for _ in range(cfg.max_sift_iters):
        maxima, minima = _local_extrema(h)
        if maxima.size < 2 or minima.size < 2:
            return None if h is r else h
        upper = _envelope_oracle(maxima, h[maxima], n)
        lower = _envelope_oracle(minima, h[minima], n)
        mean_env = 0.5 * (upper + lower)
        h_new = h - mean_env
        denom = float(np.sum(h * h))
        if denom == 0.0:
            return None if h is r else h
        sd = float(np.sum(mean_env * mean_env)) / denom
        h = h_new
        if sd < cfg.sift_stop_sd:
            break
    return h


@st.composite
def envelope_cases(draw):
    """A signal and two random extremum sets of at least two samples each."""
    n = draw(st.integers(2, 600))
    positions = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 80),
                         unique=True).map(lambda p: np.array(sorted(p), dtype=np.intp))
    seed = draw(st.integers(0, 2 ** 16))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
    h = scale * np.random.default_rng(seed).standard_normal(n)
    return h, draw(positions), draw(positions)


def _case(n, maxima, minima, seed=0):
    h = np.random.default_rng(seed).standard_normal(n)
    return h, np.array(maxima, dtype=np.intp), np.array(minima, dtype=np.intp)


class TestMeanEnvelope:
    @settings(max_examples=200, deadline=None)
    @given(case=envelope_cases())
    # extrema at sample 0 and n-1 drop the mirror of the end extremum
    @example(case=_case(50, [0, 49], [0, 49]))
    @example(case=_case(2, [0, 1], [0, 1]))
    # knots one sample apart, exactly two minima
    @example(case=_case(40, [3, 4, 5, 6], [10, 30]))
    @example(case=_case(300, list(range(1, 299, 2)), [0, 299]))
    def test_matches_cubic_spline(self, case):
        h, maxima, minima = case
        upper = _envelope_oracle(maxima, h[maxima], h.size)
        lower = _envelope_oracle(minima, h[minima], h.size)
        scale = max(np.abs(upper).max(), np.abs(lower).max())
        np.testing.assert_allclose(_mean_envelope(h, maxima, minima),
                                   0.5 * (upper + lower), rtol=0, atol=1e-12 * scale)


def _two_tone_plus_noise(fs):
    buf = two_tone(0.4, fs)[0]
    noise = 0.3 * np.random.default_rng(5).standard_normal(len(buf))
    return SampleBuffer(buf.samples + noise, fs)


def _vowel(fs):
    return synthesize_utterance(SynthUtteranceSpec(
        f0_contour=((0, 140.0), (400, 180.0)), duration_ms=400, rng_seed=1,
        sample_rate_hz=fs))[0]


class TestDecompositionOracle:
    @pytest.mark.parametrize("decompose", [emd_decompose, eemd_decompose])
    @pytest.mark.parametrize("signal,fs", [
        (_two_tone_plus_noise, 8000), (_vowel, 8000), (_vowel, 16000)])
    def test_matches_cubic_spline_sift(self, monkeypatch, decompose, signal, fs):
        buf = signal(fs)
        cfg = EmdConfig(ensemble_size=5, rng_seed=2)
        fast = decompose(buf, cfg)
        monkeypatch.setattr(emd, "_sift_one_imf", _sift_one_imf_oracle)
        slow = decompose(buf, cfg)
        assert len(fast) == len(slow) >= 3
        np.testing.assert_allclose(fast.modes, slow.modes, rtol=0, atol=1e-9)
        np.testing.assert_allclose(fast.residual, slow.residual, rtol=0, atol=1e-9)


def _noisy_vowel(fs):
    buf = _vowel(fs)
    noise = 0.1 * np.random.default_rng(3).standard_normal(len(buf))
    return SampleBuffer(buf.samples + noise, fs)


class TestEmdConfig:
    @pytest.mark.parametrize("size", [0, -1])
    def test_ensemble_below_one_rejected(self, size):
        message = f"ensemble_size must be at least 1, got {size}$"
        with pytest.raises(ValueError, match=message):
            EmdConfig(ensemble_size=size)

    @pytest.mark.parametrize("name", ["ensemble_size", "rng_seed"])
    def test_integer_fields_take_numpy_integers(self, name):
        cfg = EmdConfig(**{name: np.int64(3)})
        assert getattr(cfg, name) == 3 and type(getattr(cfg, name)) is int

    @pytest.mark.parametrize("name", ["ensemble_size", "rng_seed"])
    @pytest.mark.parametrize("value", [2.5, True, np.True_, "3", np.float64(3.0)])
    def test_integer_fields_reject_other_types(self, name, value):
        message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(TypeError, match=message):
            EmdConfig(**{name: value})

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf, -0.1, "0.2", None])
    def test_wgn_std_ratio_finite_and_non_negative(self, ratio):
        message = f"^wgn_std_ratio must be a finite number >= 0, got {re.escape(repr(ratio))}$"
        with pytest.raises(ValueError, match=message):
            EmdConfig(wgn_std_ratio=ratio)

    @pytest.mark.parametrize("ratio", [0, 0.0, np.float32(0.3), 5])
    def test_wgn_std_ratio_accepts_real_numbers(self, ratio):
        assert EmdConfig(wgn_std_ratio=ratio).wgn_std_ratio == ratio


class TestModeCap:
    # sifting is sequential: capping max_imfs at k must leave the first k
    # modes of the uncapped decomposition bit for bit
    @pytest.mark.parametrize("decompose", [emd_decompose, eemd_decompose])
    @pytest.mark.parametrize("fs", [8000, 16000])
    def test_capped_modes_equal_uncapped_prefix(self, decompose, fs):
        buf = _noisy_vowel(fs)
        cfg = EmdConfig(ensemble_size=5, rng_seed=4)
        full = decompose(buf, cfg, 8)
        assert len(full) > 4
        for k in (3, 4):
            capped = decompose(buf, cfg, k)
            assert len(capped) == k
            assert np.array_equal(capped.modes, full.modes[:k])

    @pytest.mark.parametrize("decompose", [emd_decompose, eemd_decompose])
    @pytest.mark.parametrize("max_imfs", [0, -1])
    def test_cap_below_one_rejected(self, decompose, max_imfs):
        message = f"max_imfs must be at least 1, got {max_imfs}$"
        with pytest.raises(ValueError, match=message):
            decompose(_noisy_vowel(FS), EmdConfig(ensemble_size=2), max_imfs)

    def test_default_cap_is_eight(self):
        buf = _noisy_vowel(FS)
        cfg = EmdConfig(ensemble_size=5, rng_seed=4)
        assert emd.DEFAULT_MAX_IMFS == 8
        assert np.array_equal(eemd_decompose(buf, cfg).modes,
                              eemd_decompose(buf, cfg, 8).modes)


class TestEmd:
    def test_two_tone_separation(self):
        buf, tone200, tone40 = two_tone()
        imfs = emd_decompose(buf, EmdConfig())
        assert len(imfs) >= 2
        assert normalized_corr(imfs.modes[0], tone200) >= 0.95
        assert normalized_corr(imfs.modes[1], tone40) >= 0.95

    def test_monotone_ramp_yields_no_imfs(self):
        buf = SampleBuffer(np.linspace(-1, 1, 2000), FS)
        imfs = emd_decompose(buf, EmdConfig())
        assert len(imfs) == 0 and imfs.modes.shape == (0, len(buf))
        np.testing.assert_array_equal(imfs.residual, buf.samples)

    def test_exact_reconstruction(self, rng):
        for _ in range(5):
            x = rng.standard_normal(3000)
            buf = SampleBuffer(x, FS)
            imfs = emd_decompose(buf, EmdConfig())
            err = np.linalg.norm(imfs.reconstruct() - x) / np.linalg.norm(x)
            assert err <= 1e-9

    def test_mode_zero_crossing_rates_decrease(self):
        buf, _, _ = two_tone()
        imfs = emd_decompose(buf, EmdConfig())
        rates = [zero_crossings(m) for m in imfs.modes]
        # non-strict decrease with at most one inversion (sifting is heuristic)
        inversions = sum(1 for a, b in zip(rates, rates[1:]) if b > a)
        assert inversions <= 1

    def test_imf_admissibility(self):
        buf, _, _ = two_tone()
        imfs = emd_decompose(buf, EmdConfig())
        for x in imfs.modes[:2]:
            maxima, minima = _local_extrema(x)
            n_ext = len(maxima) + len(minima)
            assert abs(n_ext - zero_crossings(x)) <= 1

    def test_max_imfs_respected(self, rng):
        buf = SampleBuffer(rng.standard_normal(4096), FS)
        imfs = emd_decompose(buf, EmdConfig(), max_imfs=3)
        assert len(imfs) <= 3

    def test_determinism(self, rng):
        x = rng.standard_normal(2048)
        a = emd_decompose(SampleBuffer(x, FS), EmdConfig())
        b = emd_decompose(SampleBuffer(x, FS), EmdConfig())
        assert len(a) == len(b)
        assert np.array_equal(a.modes, b.modes)


class TestEemd:
    @pytest.mark.parametrize("signal,ensemble_size,wgn_std_ratio", [
        ("two_tone", 1, 0.0),
        ("two_tone", 5, 0.0),
        ("constant", 5, 0.2),   # no spread, so the injected noise is zero too
    ])
    def test_degenerate_ensemble_equals_emd(self, signal, ensemble_size, wgn_std_ratio):
        buf = two_tone(0.5)[0] if signal == "two_tone" \
            else SampleBuffer(np.full(FS // 2, 0.3), FS)
        plain = emd_decompose(buf, EmdConfig())
        degenerate = eemd_decompose(buf, EmdConfig(ensemble_size=ensemble_size,
                                                   wgn_std_ratio=wgn_std_ratio))
        assert np.array_equal(plain.modes, degenerate.modes)
        assert np.array_equal(plain.residual, degenerate.residual)

    def test_two_tone_modes_recovered(self):
        # injected noise occupies the fastest mode slots, so locate each
        # tone's carrier mode instead of pinning indices
        buf, tone200, tone40 = two_tone()
        cfg = EmdConfig(ensemble_size=20, wgn_std_ratio=0.2, rng_seed=0)
        ens = eemd_decompose(buf, cfg)
        best200 = max(normalized_corr(m, tone200) for m in ens.modes)
        best40 = max(normalized_corr(m, tone40) for m in ens.modes)
        assert best200 >= 0.95
        assert best40 >= 0.95

    def test_mixing_reduction_on_intermittent_tone(self):
        # stationary tones never mix under this sift; gating the fast tone
        # on and off induces the classic scale mixing that the noise
        # ensemble exists to suppress
        t = np.arange(FS) / FS
        gate = ((t * 4) % 1.0) < 0.5
        fast = 0.4 * np.sin(2 * np.pi * 200 * t) * gate
        slow_ref = np.sin(2 * np.pi * 40 * t)
        buf = SampleBuffer(fast + slow_ref, FS)

        plain = emd_decompose(buf, EmdConfig())
        plain_leak = normalized_corr(plain.modes[0], slow_ref)
        leaks = []
        for seed in range(20):
            out = eemd_decompose(buf, EmdConfig(ensemble_size=8,
                                                wgn_std_ratio=0.2,
                                                rng_seed=seed))
            k = int(np.argmax([normalized_corr(m, fast) for m in out.modes]))
            leaks.append(normalized_corr(out.modes[k], slow_ref))
        assert np.mean(leaks) < plain_leak

    def test_reconstruction_noise_floor(self, rng):
        n_trials, ratio = 50, 0.2
        x = rng.standard_normal(2048)
        buf = SampleBuffer(x, FS)
        out = eemd_decompose(buf, EmdConfig(ensemble_size=n_trials,
                                            wgn_std_ratio=ratio, rng_seed=3))
        err = np.linalg.norm(out.reconstruct() - x) / np.linalg.norm(x)
        assert err <= 3 * ratio / np.sqrt(n_trials)

    def test_deterministic_given_seed(self, rng):
        x = rng.standard_normal(1024)
        cfg = EmdConfig(ensemble_size=5, rng_seed=11)
        a = eemd_decompose(SampleBuffer(x, FS), cfg)
        b = eemd_decompose(SampleBuffer(x, FS), cfg)
        assert np.array_equal(a.modes, b.modes)

    def test_averaging_linearity(self, rng):
        # the ensemble average equals the arithmetic mean of per-trial modes
        from modepitch.emd import _emd_raw
        x = rng.standard_normal(1024)
        cfg = EmdConfig(ensemble_size=4, wgn_std_ratio=0.1, rng_seed=7)
        out = eemd_decompose(SampleBuffer(x, FS), cfg)
        seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.ensemble_size)
        noise_std = cfg.wgn_std_ratio * float(np.std(x))
        acc = np.zeros((emd.DEFAULT_MAX_IMFS, x.size))
        for seed in seeds:
            gen = np.random.default_rng(seed)
            modes, _ = _emd_raw(x + noise_std * gen.standard_normal(x.size), cfg,
                                emd.DEFAULT_MAX_IMFS)
            for k, m in enumerate(modes):
                acc[k] += m
        acc /= cfg.ensemble_size
        np.testing.assert_allclose(out.modes, acc[:len(out)], atol=1e-12)


class TestImfSet:
    def test_length_mismatch_rejected(self):
        for modes, residual in [(np.ones((2, 50)), np.ones(100)),  # short rows
                                (np.ones(100), np.ones(100)),      # not a matrix
                                (np.ones((2, 100)), np.ones((1, 100)))]:
            with pytest.raises(ValueError, match="rows as long as the 1-D residual"):
                ImfSet(modes, residual, FS)

    def test_arrays_copied_read_only(self):
        modes = np.ones((2, 100))
        imfs = ImfSet(modes, np.zeros(100), FS)
        modes[0, 0] = 5.0
        assert imfs.modes[0, 0] == 1.0 and len(imfs) == 2
        for array in (imfs.modes, imfs.residual):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_wav_dump(self, tmp_path, rng):
        buf = SampleBuffer(rng.standard_normal(2000), FS)
        imfs = emd_decompose(buf, EmdConfig(), max_imfs=4)
        path = tmp_path / "modes.wav"
        write_imf_wav(path, imfs)
        from scipy.io import wavfile
        rate, data = wavfile.read(path)
        assert rate == FS
        assert data.shape == (2000, len(imfs) + 1)
        assert data.dtype == np.float32

    def test_mode_energies(self):
        buf, _, _ = two_tone(0.5)
        imfs = emd_decompose(buf, EmdConfig())
        energies = mode_energies(imfs)
        assert len(energies) == len(imfs)
        assert all(e >= 0 for e in energies)
