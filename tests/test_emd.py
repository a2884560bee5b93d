import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from conftest import traced_peak
from modepitch import emd
from modepitch._lapack import solve_tridiagonal
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
    _mirrored_knots,
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


def copying_local_extrema(x):
    """_local_extrema as it was before it compared neighbours in one pass:
    slope signs carried across plateaus by index, with a leading flat run
    taking the first nonzero sign."""
    d = np.diff(x)
    s = np.sign(d)
    nz = s != 0
    if not nz.any():
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    idx = np.where(nz, np.arange(s.size), nz.argmax())
    np.maximum.accumulate(idx, out=idx)
    s = s[idx]
    change = np.diff(s)
    maxima = np.flatnonzero(change < 0) + 1
    minima = np.flatnonzero(change > 0) + 1
    return maxima, minima


def copying_mirrored_knots(t_ext, v_ext, end):
    """_mirrored_knots as it was before it wrote into one array: masks on
    both mirror pairs and a three-way concatenate."""
    left_t = -t_ext[1::-1]
    right_t = 2 * end - t_ext[:-3:-1]
    keep_l = left_t < t_ext[0]
    keep_r = right_t > t_ext[-1]
    return (np.concatenate([left_t[keep_l], t_ext, right_t[keep_r]]),
            np.concatenate([v_ext[1::-1][keep_l], v_ext, v_ext[:-3:-1][keep_r]]))


def copying_natural_spline(t, v, n):
    """_natural_spline as it was before it wrote its coefficients over the
    factorization rows: new arrays for c1-c3, and dx and slope kept to the
    end."""
    dx = (t[1:] - t[:-1]).astype(np.float64)
    slope = (v[1:] - v[:-1]) / dx
    system = np.empty((4, t.size))
    lower, diag, upper, curv = system
    lower[:-1] = dx
    lower[-2] = 0.0
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    diag[0] = diag[-1] = 1.0
    upper[:-1] = dx
    upper[0] = 0.0
    curv[1:-1] = 6.0 * (slope[1:] - slope[:-1])
    curv[0] = curv[-1] = 0.0
    solve_tridiagonal(system)
    c1 = slope - dx * (2.0 * curv[:-1] + curv[1:]) / 6.0
    c2 = 0.5 * curv[:-1]
    c3 = (curv[1:] - curv[:-1]) / (6.0 * dx)
    bounds = np.minimum(np.maximum(t, 0), n)
    reps = bounds[1:] - bounds[:-1]
    s = np.arange(n, dtype=np.float64)
    s -= np.repeat(t[:-1], reps)
    env = np.repeat(c3, reps)
    env *= s
    env += np.repeat(c2, reps)
    env *= s
    env += np.repeat(c1, reps)
    env *= s
    env += np.repeat(v[:-1], reps)
    return env


def assert_same_bits(got, want):
    """Equal arrays, signed zeros included (a WAV dump writes the sign)."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@st.composite
def flat_ended_signals(draw):
    """1-64 samples, finite floats or noise rounded to a few levels (many
    plateaus), with flat runs of up to 4 samples added at either end."""
    if draw(st.booleans()):
        core = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=1, max_size=56))
    else:
        levels = draw(st.sampled_from([1, 2, 4]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        core = list(np.round(levels * rng.standard_normal(draw(st.integers(1, 56)))))
    lead, trail = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return np.array(core[:1] * lead + core + core[-1:] * trail, dtype=np.float64)[:64]


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

    @pytest.mark.parametrize("x", [[1, 1, 2, 3], [3, 3, 2, 1], [1, 2, 3], [3, 2, 1, 1],
                                   [2, 2, 2], [5], []])
    def test_flat_run_at_an_end_is_no_extremum(self, x):
        # a leading flat run used to carry slope sign 0, so [1, 1, 2, 3]
        # had a minimum at 1 and [3, 3, 2, 1] a maximum at 1
        maxima, minima = _local_extrema(np.array(x, dtype=np.float64))
        assert maxima.size == 0 and minima.size == 0

    def test_flat_run_before_a_turn(self):
        maxima, minima = _local_extrema(np.array([1.0, 1.0, 2.0, 0.0, 0.0, 3.0, 3.0]))
        assert maxima.tolist() == [2] and minima.tolist() == [4]

    @settings(max_examples=300, deadline=None)
    @given(x=flat_ended_signals())
    @example(x=np.array([0.0, 0.0, 0.0, 1.0, -1.0, 1.0, 1.0]))
    @example(x=np.array([1e308, -1e308, 1e308, 5e-324, 0.0, -5e-324]))
    def test_equals_copying_extrema(self, x):
        with np.errstate(over="ignore"):  # the oracle's np.diff of +-1e308
            want = copying_local_extrema(x)
        for got, want in zip(_local_extrema(x), want):
            assert_same_bits(got, want)

    def test_work_memory_bounded(self):
        # neighbours are compared with no difference array, and the maxima
        # and minima are two views of one index array; np.diff, np.sign, the
        # carry index and two masks peaked at 5.15x
        h = np.random.default_rng(0).standard_normal(4650)
        peak, _ = traced_peak(lambda: _local_extrema(h))
        assert peak < 1.5 * h.nbytes


@st.composite
def extremum_sets(draw):
    """2-6 sorted extrema in [0, n-1], one of them at 0 or n-1 when drawn."""
    n = draw(st.integers(2, 300))
    positions = set(draw(st.lists(st.integers(0, n - 1), max_size=6)))
    if draw(st.booleans()):
        positions.add(0)
    if draw(st.booleans()):
        positions.add(n - 1)
    assume(2 <= len(positions) <= 6)
    t_ext = np.array(sorted(positions), dtype=np.intp)
    v_ext = np.random.default_rng(draw(st.integers(0, 2 ** 16))).standard_normal(t_ext.size)
    return t_ext, v_ext, n - 1


class TestMirroredKnots:
    @settings(max_examples=300, deadline=None)
    @given(case=extremum_sets())
    @example(case=(np.array([0, 1]), np.array([1.0, -1.0]), 1))
    @example(case=(np.array([0, 5, 9]), np.array([1.0, -0.0, 2.0]), 9))
    @example(case=(np.array([3, 4]), np.array([1.0, 2.0]), 9))
    def test_equals_copying_knots(self, case):
        for got, want in zip(_mirrored_knots(*case), copying_mirrored_knots(*case)):
            assert_same_bits(got, want)


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
        maxima, minima = copying_local_extrema(h)
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


def _plateau_case(n, levels, seed=0):
    """Noise rounded to a few levels, so that many extrema are plateaus,
    with the extrema the sift would find in it."""
    h = np.round(levels * np.random.default_rng(seed).standard_normal(n)) / levels
    return (h, *_local_extrema(h))


def _sifted_noise(n, steps, seed, scale=1.0):
    """Noise after up to `steps` sift steps, the shapes later sift steps
    build their envelopes on."""
    h = scale * np.random.default_rng(seed).standard_normal(n)
    for _ in range(steps):
        maxima, minima = _local_extrema(h)
        if maxima.size < 2 or minima.size < 2:
            break
        h = h - _mean_envelope(h, maxima, minima)
    return h


class TestNaturalSpline:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 2000), steps=st.integers(0, 3), seed=st.integers(0, 2 ** 16),
           scale=st.sampled_from([1e-6, 1.0, 1e4]))
    def test_equals_copying_spline_on_sifted_noise(self, n, steps, seed, scale):
        h = _sifted_noise(n, steps, seed, scale)
        extrema = [e for e in _local_extrema(h) if e.size >= 2]
        assume(extrema)
        for ext in extrema:
            t, v = _mirrored_knots(ext, h[ext], n - 1)
            assert_same_bits(emd._natural_spline(t, v, n), copying_natural_spline(t, v, n))

    def test_work_memory_bounded(self):
        # c1-c3 go into the solved system's dead rows, and dx and slope are
        # freed before the evaluation's sample-length arrays; new arrays for
        # each peaked at 6.78x
        h = np.random.default_rng(0).standard_normal(4650)
        maxima = _local_extrema(h)[0]
        t, v = _mirrored_knots(maxima, h[maxima], h.size - 1)
        peak, _ = traced_peak(lambda: emd._natural_spline(t, v, h.size))
        assert peak < 5.5 * h.nbytes


class TestMeanEnvelope:
    def test_natural_spline_through_collinear_knots_is_their_line(self):
        t = np.array([-3, 0, 1, 4, 9, 15, 22])
        np.testing.assert_allclose(emd._natural_spline(t, 0.75 * t + 40.0, 20),
                                   0.75 * np.arange(20.0) + 40.0, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", [
        _case(300, list(range(1, 299, 2)), [5, 150, 290]),
        _case(300, [5, 150, 290], list(range(1, 299, 2))),
        _case(50, [0, 49], [1, 48]),
        _plateau_case(400, 2),
    ])
    def test_one_solve_per_envelope(self, monkeypatch, case):
        h, maxima, minima = case
        sizes = []

        def solve(system):
            sizes.append(system.shape[1])
            solve_tridiagonal(system)

        monkeypatch.setattr(emd, "solve_tridiagonal", solve)
        _mean_envelope(h, maxima, minima)
        assert sizes == [_mirrored_knots(maxima, h[maxima], h.size - 1)[0].size,
                         _mirrored_knots(minima, h[minima], h.size - 1)[0].size]

    def test_work_memory_bounded(self):
        # each spline is built, solved and evaluated on its own, its
        # coefficients in the system's dead rows; one system stacking both
        # splines peaked at 14.45x, and new coefficient arrays at 8.44x
        h = np.random.default_rng(0).standard_normal(4650)
        maxima, minima = _local_extrema(h)
        peak, _ = traced_peak(lambda: _mean_envelope(h, maxima, minima))
        assert peak < 7.5 * h.nbytes

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


def copying_mean_envelope(h, maxima, minima):
    """_mean_envelope as it was before it evaluated each spline in place:
    both splines over one 2n index array. The oracle the in-place
    evaluation must match bit for bit."""
    n = h.size
    t_up, v_up = copying_mirrored_knots(maxima, h[maxima], n - 1)
    t_lo, v_lo = copying_mirrored_knots(minima, h[minima], n - 1)
    m = t_up.size
    t = np.concatenate([t_up, t_lo])
    v = np.concatenate([v_up, v_lo])
    ends = [0, m - 1, m, t.size - 1]
    dx = np.diff(t).astype(np.float64)
    slope = np.diff(v) / dx
    system = np.empty((4, t.size))
    lower, diag, upper, curv = system
    lower[:-1] = dx
    lower[[m - 2, m - 1, t.size - 2]] = 0.0
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    diag[ends] = 1.0
    upper[:-1] = dx
    upper[ends[:3]] = 0.0
    curv[1:-1] = 6.0 * np.diff(slope)
    curv[ends] = 0.0
    solve_tridiagonal(system)
    c1 = slope - dx * (2.0 * curv[:-1] + curv[1:]) / 6.0
    c2 = 0.5 * curv[:-1]
    c3 = (curv[1:] - curv[:-1]) / (6.0 * dx)
    bounds = np.clip(t, 0, n)
    bounds[m:] += n
    j = np.repeat(np.arange(t.size - 1), np.diff(bounds))
    t[m:] += n
    s = np.arange(2 * n) - t[j]
    env = ((c3[j] * s + c2[j]) * s + c1[j]) * s + v[j]
    return 0.5 * (env[:n] + env[n:])


def copying_sift_one_imf(r, cfg):
    """_sift_one_imf as it was before it updated h in place."""
    h = r
    for _ in range(cfg.max_sift_iters):
        maxima, minima = copying_local_extrema(h)
        if maxima.size < 2 or minima.size < 2:
            return None if h is r else h
        mean_env = copying_mean_envelope(h, maxima, minima)
        h_new = h - mean_env
        denom = float(np.sum(h * h))
        if denom == 0.0:
            return None if h is r else h
        sd = float(np.sum(mean_env * mean_env)) / denom
        h = h_new
        if sd < cfg.sift_stop_sd:
            break
    return h


def copying_emd(data, cfg, max_imfs):
    """The sift loop as it was before it wrote in place: a list of modes and
    a new remainder per mode."""
    modes = []
    remainder = data.copy()
    while len(modes) < max_imfs:
        imf = copying_sift_one_imf(remainder, cfg)
        if imf is None:
            break
        modes.append(imf)
        remainder = remainder - imf
    return np.reshape(modes, (len(modes), remainder.size)), remainder


def copying_eemd(x, cfg, max_imfs):
    """eemd_decompose's (modes, residual) as built before it wrote in place:
    each trial's noisy input and modes new arrays. The oracle the in-place
    ensemble must match bit for bit."""
    data = x.samples.astype(np.float64)
    noise_std = cfg.wgn_std_ratio * float(np.std(data)) if np.ptp(data) > 0 else 0.0
    if noise_std == 0.0:
        return copying_emd(data, cfg, max_imfs)
    n = data.size
    mode_sums = np.zeros((max_imfs, n))
    residual_sum = np.zeros(n)
    max_modes = 0
    for seed in np.random.SeedSequence(cfg.rng_seed).spawn(cfg.ensemble_size):
        rng = np.random.default_rng(seed)
        modes, remainder = copying_emd(data + noise_std * rng.standard_normal(n), cfg,
                                       max_imfs)
        for k, m in enumerate(modes):
            mode_sums[k] += m
        residual_sum += remainder
        max_modes = max(max_modes, len(modes))
    scale = 1.0 / cfg.ensemble_size
    return mode_sums[:max_modes] * scale, residual_sum * scale


def _oracle_signal(kind, n, fs, seed):
    if kind == "constant":
        return SampleBuffer(np.full(n, 0.3), fs)
    noise = np.random.default_rng(seed).standard_normal(n)
    if kind == "noise":
        return SampleBuffer(noise, fs)
    vowel = synthesize_utterance(SynthUtteranceSpec(
        f0_contour=((0, 120.0), (200, 260.0)), duration_ms=max(200.0, 1000.0 * n / fs),
        rng_seed=seed, sample_rate_hz=fs))[0].samples[:n]
    return SampleBuffer(vowel + 0.05 * noise, fs)


class TestCopyingOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=envelope_cases())
    @example(case=_case(50, [0, 49], [0, 49]))
    @example(case=_case(2, [0, 1], [0, 1]))
    # exactly two maxima or two minima
    @example(case=_case(40, [3, 4, 5, 6], [10, 30]))
    @example(case=_case(120, [20, 100], list(range(2, 118, 5))))
    # the outermost extrema the sift finds (1 and n-2), and an extremum at
    # 0 or n-1, whose own mirror _mirrored_knots drops
    @example(case=_case(60, [1, 30, 58], [1, 20, 40, 58]))
    @example(case=_case(60, [0, 30, 58], [1, 20, 40, 59]))
    # plateau extrema, counted at their end
    @example(case=_plateau_case(500, 2))
    @example(case=_plateau_case(64, 1, seed=3))
    # upper and lower knot counts 10 and more apart
    @example(case=_case(300, list(range(1, 299, 2)), [5, 150, 290]))
    @example(case=_case(300, [0, 299], list(range(1, 299, 3))))
    def test_mean_envelope_equals_copying_envelope(self, case):
        h, maxima, minima = case
        assert_same_bits(_mean_envelope(h, maxima, minima),
                         copying_mean_envelope(h, maxima, minima))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(8, 800), levels=st.sampled_from([1, 2, 4, 64]),
           seed=st.integers(0, 2 ** 16))
    def test_mean_envelope_on_sifted_plateaus_equals_copying_envelope(self, n, levels,
                                                                        seed):
        h, maxima, minima = _plateau_case(n, levels, seed)
        assume(maxima.size >= 2 and minima.size >= 2)
        assert_same_bits(_mean_envelope(h, maxima, minima),
                         copying_mean_envelope(h, maxima, minima))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["vowel", "noise"]), n=st.integers(300, 6000),
           fs=st.sampled_from([8000, 16000, 22050]), ensemble=st.integers(1, 12),
           max_imfs=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
    # the bounds of every range, and the paths with no injected noise
    @example(kind="noise", n=6000, fs=22050, ensemble=12, max_imfs=8, seed=1)
    @example(kind="vowel", n=300, fs=8000, ensemble=1, max_imfs=1, seed=2)
    @example(kind="vowel", n=4650, fs=16000, ensemble=5, max_imfs=4, seed=3)
    @example(kind="constant", n=500, fs=8000, ensemble=5, max_imfs=8, seed=0)
    def test_eemd_equals_copying_eemd(self, kind, n, fs, ensemble, max_imfs, seed):
        x = _oracle_signal(kind, n, fs, seed)
        cfg = EmdConfig(ensemble_size=ensemble, rng_seed=seed)
        got = eemd_decompose(x, cfg, max_imfs)
        modes, residual = copying_eemd(x, cfg, max_imfs)
        assert_same_bits(got.modes, modes)
        assert_same_bits(got.residual, residual)

    @pytest.mark.parametrize("kind", ["vowel", "noise"])
    @pytest.mark.parametrize("max_imfs", [1, 3, 8])
    def test_zero_noise_and_plain_emd_equal_copying_emd(self, kind, max_imfs):
        x = _oracle_signal(kind, 3000, 8000, 4)
        modes, residual = copying_emd(x.samples, EmdConfig(), max_imfs)
        for got in (emd_decompose(x, EmdConfig(), max_imfs),
                    eemd_decompose(x, EmdConfig(wgn_std_ratio=0.0), max_imfs)):
            assert_same_bits(got.modes, modes)
            assert_same_bits(got.residual, residual)

    def test_plain_emd_keeps_negative_zeros(self, monkeypatch):
        # each mode is added into -0.0, so a mode sample of -0.0 keeps its
        # sign (added into +0.0 it would not)
        imf = np.array([-0.0, 0.0, 1.0, -1.0] * 25)
        found = iter([imf, None])
        monkeypatch.setattr(emd, "_sift_one_imf", lambda r, cfg: next(found))
        assert_same_bits(emd_decompose(SampleBuffer(np.ones(100), FS)).modes, imf[None])


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

    @pytest.mark.parametrize("seed", [-1, np.int64(-2 ** 31)])
    def test_negative_seed_rejected(self, seed):
        # numpy's SeedSequence would reject it later without naming the field
        with pytest.raises(ValueError, match=f"^rng_seed must be non-negative, got {seed}$"):
            EmdConfig(rng_seed=seed)

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

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf, -0.1, "0.2", None,
                                       True, False])
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
    def test_work_memory_bounded(self):
        # the noise is drawn into one reused array, modes are summed and
        # subtracted in place, and each spline is solved and evaluated on its
        # own; new arrays per trial, mode and spline term peaked at 35.5x the
        # input, and one system stacking both splines at 22.5x
        x = _oracle_signal("noise", 4650, 8000, 0)
        cfg = EmdConfig(ensemble_size=5, rng_seed=2)
        peak, out = traced_peak(lambda: eemd_decompose(x, cfg, 4))
        assert len(out) == 4
        assert peak < 15.5 * x.samples.nbytes

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(-8, 8), kind=st.sampled_from(["vowel", "noise"]),
           n=st.integers(300, 2000), ensemble=st.integers(1, 4), max_imfs=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16))
    @example(k=-8, kind="vowel", n=2000, ensemble=3, max_imfs=4, seed=0)
    @example(k=8, kind="noise", n=2000, ensemble=3, max_imfs=4, seed=0)
    def test_power_of_two_gain_scales_every_output(self, k, kind, n, ensemble, max_imfs,
                                                   seed):
        # a gain of 2**k scales every sum, product and std exactly, so the
        # sift finds the same extrema and stops at the same step; an absolute
        # threshold anywhere in the sift would break this
        x = _oracle_signal(kind, n, 8000, seed)
        cfg = EmdConfig(ensemble_size=ensemble, rng_seed=seed)
        gain = 2.0 ** k
        base = eemd_decompose(x, cfg, max_imfs)
        scaled = eemd_decompose(SampleBuffer(gain * x.samples, 8000), cfg, max_imfs)
        assert_same_bits(scaled.modes, gain * base.modes)
        assert_same_bits(scaled.residual, gain * base.residual)

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
        x = rng.standard_normal(1024)
        cfg = EmdConfig(ensemble_size=4, wgn_std_ratio=0.1, rng_seed=7)
        out = eemd_decompose(SampleBuffer(x, FS), cfg)
        seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.ensemble_size)
        noise_std = cfg.wgn_std_ratio * float(np.std(x))
        acc = np.zeros((emd.DEFAULT_MAX_IMFS, x.size))
        for seed in seeds:
            gen = np.random.default_rng(seed)
            trial = SampleBuffer(x + noise_std * gen.standard_normal(x.size), FS)
            modes = emd_decompose(trial, cfg, emd.DEFAULT_MAX_IMFS).modes
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

    def test_read_only_owning_arrays_kept(self):
        modes, residual = np.ones((2, 100)), np.zeros(100)
        modes.setflags(write=False)
        residual.setflags(write=False)
        imfs = ImfSet(modes, residual, FS)
        assert imfs.modes is modes and imfs.residual is residual

    def test_read_only_views_copied(self):
        base = np.ones((3, 100))
        modes = base[:2]
        modes.setflags(write=False)
        imfs = ImfSet(modes, np.zeros(100), FS)
        base[0, 0] = 5.0
        assert imfs.modes is not modes and imfs.modes[0, 0] == 1.0

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
