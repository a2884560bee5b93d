import inspect
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FS, glottal_pulse_train, traced_peak
from modepitch import separation
from modepitch.audio import Frame, FrameSpec, NoisyMix, SampleBuffer, mix_at_snr
from modepitch.corpus import (
    SynthUtteranceSpec,
    generate_corpus,
    make_noise,
    synthesize_utterance,
)
from modepitch.emd import EmdConfig, ImfSet, eemd_decompose
from modepitch.evaluation import gross_error
from modepitch.estimators import (
    CANDIDATE,
    FRAME_ESTIMATORS,
    EstimatorConfig,
    hht_candidates,
    pefac_scores,
    pick,
)
from modepitch.separation import (
    HIGH,
    LOW,
    AnalysisConfig,
    FrameDiagnostic,
    FrequencyRegion,
    MethodResult,
    SMOOTH_FRAMES,
    ProConfig,
    _smoothed_argmax_track,
    analyze_utterance,
    correct_candidate,
    distance_matrix,
    imf_pitch_vector,
    region_of,
    select_imf_pair,
)
from modepitch.spectral import log_grid
from modepitch.track import FramePitchTrack, tracks_aligned
from modepitch.vad import VadConfig, detect_voiced, voiced_segments


def smoothed_argmax_loop(cands, scores, valid, window):
    """Frame-by-frame oracle for _smoothed_argmax_track: mean of the valid
    rows in each clipped window, then the argmax candidate."""
    n = scores.shape[0]
    estimates = np.full(n, np.nan)
    half = max(0, window // 2)
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        mask = valid[lo:hi]
        if not mask.any():
            continue
        curve = scores[lo:hi][mask].mean(axis=0)
        estimates[i] = cands[int(np.argmax(curve))]
    return estimates


def per_segment_comb_loop(buf, est, cfg):
    """Raw track of a comb estimator scored the way analyze_utterance once
    did: each voiced segment cut out and re-framed by hand, frame i of the
    segment written to row first + i."""
    fs = buf.sample_rate_hz
    flen, hop = cfg.frame.frame_len(fs), cfg.frame.hop(fs)
    vad_len = cfg.vad.frame_spec.frame_len(fs)
    cands = np.full((cfg.frame.num_frames(len(buf), fs), 1), np.nan, CANDIDATE)
    for first, last in voiced_segments(detect_voiced(buf)):
        seg = buf.samples[first * hop:last * hop + vad_len]
        for i in range(cfg.frame.num_frames(len(seg), fs)):
            frame = Frame(seg[i * hop:i * hop + flen], fs, 1000.0 * i * hop / fs)
            try:
                f0, salience = FRAME_ESTIMATORS[est](frame)
            except ValueError:
                continue
            cands[first + i, 0] = f0, salience
    return pick(cands)


def per_frame_comb_candidates(cands, frames, fs, rows):
    """Oracle for separation._comb_candidates: the loop analyze_utterance ran
    before frames were stacked, one estimator call per voiced frame, a frame
    the estimator rejects (all zeros) left without a candidate."""
    hop_ms = AnalysisConfig.frame.hop_ms
    for est, c in cands.items():
        for i in range(rows.start, rows.stop):
            try:
                c[i, 0] = FRAME_ESTIMATORS[est](Frame(frames[i], fs, i * hop_ms))
            except ValueError:
                pass


def two_pass_analysis(buf, estimators, methods, cfg):
    """Oracle for analyze_utterance's one loop over the voiced segments: the
    two passes it ran before. The segment loop collects each segment's rows
    and its mode evidence; then each comb estimator scores every segment,
    _BLOCK_ROWS rows per call, one estimator after the other; each pro F0 is
    the pick of a copy of the candidate array with every candidate folded.
    The input's peak must need no power-of-two scaling."""
    fs = buf.sample_rate_hz
    frames = cfg.frame.frames(buf.samples, fs)
    n_track = len(frames)
    hop, vad_len = cfg.frame.hop(fs), cfg.vad.frame_spec.frame_len(fs)
    pro, hht = "pro" in methods, "hht" in estimators
    n_modes = max(cfg.pro.k_imfs if pro else 1, cfg.estimator.hht_num_imfs if hht else 1)
    voiced = np.zeros(n_track, dtype=bool)
    mode_f0 = np.full((n_track, cfg.pro.k_imfs), np.nan)
    hht_cands = np.full((n_track, cfg.estimator.hht_num_imfs), np.nan, CANDIDATE)
    segments = []
    for first, last in voiced_segments(detect_voiced(buf)):
        seg = buf.samples[first * hop:last * hop + vad_len]
        n_frames = cfg.frame.num_frames(len(seg), fs)
        rows = slice(first, first + n_frames)
        voiced[rows] = True
        segments.append(rows)
        if n_frames == 0 or not (pro or hht):
            continue
        decomposition = eemd_decompose(SampleBuffer(seg, fs), cfg.emd, n_modes)
        if pro and len(decomposition) >= cfg.pro.k_imfs:
            mode_f0[rows] = separation.imf_pitch_vector(decomposition)
        if hht and len(decomposition) >= cfg.estimator.hht_num_imfs:
            hht_cands[rows] = hht_candidates(decomposition)
    cands = {"hht": hht_cands}
    for est in estimators:
        if est != "hht":
            cands[est] = np.full((n_track, 1), np.nan, CANDIDATE)
            for rows in segments:
                for block in separation._blocks(rows.start, rows.stop):
                    f0, salience = FRAME_ESTIMATORS[est](
                        Frame(frames[block], fs, block.start * cfg.frame.hop_ms))
                    cands[est]["f0_hz"][block, 0] = f0
                    cands[est]["salience"][block, 0] = salience
    voiced_rows = np.flatnonzero(voiced)
    regions = separation._region_table(mode_f0, voiced_rows) if pro else None
    out = {}
    for est in estimators:
        f0 = {"raw": pick(cands[est])}
        if pro:
            folded = cands[est].copy()
            folded["f0_hz"][voiced_rows] = separation._fold(folded["f0_hz"][voiced_rows],
                                                            regions["high"][:, None])
            f0["pro"] = pick(folded)
        for meth in methods:
            track = FramePitchTrack(np.arange(n_track) * cfg.frame.hop_ms, f0[meth],
                                    voiced.copy())
            out[(est, meth)] = (MethodResult(track, regions, cands[est]) if meth == "pro"
                                else MethodResult(track))
    return out


def sparse_pitch_vector(imfs):
    """imf_pitch_vector with the first two frames of a segment and one of
    every four later ones left with too few mode F0s."""
    mode_f0 = imf_pitch_vector(imfs)
    mode_f0[:2] = np.nan
    mode_f0[5::4, 1:] = np.nan
    return mode_f0


def result_bytes(result):
    """A result's track, voicing, frame times, region table and candidate
    array as bytes, and its diagnostics as their repr (which round-trips
    floats exactly and prints NaN equal to NaN)."""
    def raw(a):
        return None if a is None else a.tobytes()
    track = result.track
    return (raw(track.f0_hz), raw(track.voiced_mask), raw(track.frame_times_ms),
            raw(result.region_table), raw(result.candidates), repr(result.diagnostics))


def per_frame_imf_pitch_vector(imfs):
    """Oracle for imf_pitch_vector: the loop it ran before frames were
    stacked, pefac_scores on one mode frame per call, a frame it rejects
    (all zeros) marked invalid."""
    spec, est = AnalysisConfig.frame, EstimatorConfig
    fs = imfs.sample_rate_hz
    cands = log_grid(est.f_min, est.f_max, est.bins_per_octave)
    per_mode = []
    for mode in imfs.modes[:ProConfig.k_imfs]:
        frames = spec.frames(mode, fs)
        scores = np.full((len(frames), cands.size), -np.inf)
        valid = np.zeros(len(frames), dtype=bool)
        for i, row in enumerate(frames):
            try:
                scores[i] = pefac_scores(Frame(row, fs, i * spec.hop_ms))[1]
                valid[i] = True
            except ValueError:
                pass
        per_mode.append(_smoothed_argmax_track(cands, scores, valid))
    return np.column_stack(per_mode)


def voiced_with_a_gap(fs, seconds=0.61):
    """A noisy 150 Hz pulse train at fs whose middle 120 ms are exact zeros."""
    buf = glottal_pulse_train(150.0, duration_s=seconds, fs=fs)
    x = buf.samples + 0.01 * np.random.default_rng(fs).standard_normal(len(buf))
    x[int(0.24 * fs):int(0.36 * fs)] = 0.0
    return x


def classify(mode_f0, rows=None):
    """The FrequencyRegion of each given row (default all) of a mode F0
    matrix, as the pipeline's region pass classifies them."""
    mode_f0 = np.asarray(mode_f0, dtype=np.float64)
    rows = np.arange(len(mode_f0)) if rows is None else np.asarray(rows, dtype=np.intp)
    return separation._region_objects(separation._region_table(mode_f0, rows))


def classify_frames_loop(mode_f0, frames=None):
    """Per-frame oracle for the region pass: each row is cut down to its
    finite entries, the two smallest stable-sorted row sums of their
    distance matrix pick the pair, whose indices map back to mode numbers;
    a row with fewer than two finite entries inherits the region decided
    before it, low at first (the Python loop the pass ran before its
    inheritance became an array pass)."""
    regions = []
    last = LOW
    for i in range(len(mode_f0)) if frames is None else frames:
        row = mode_f0[i]
        valid = np.flatnonzero(np.isfinite(row))
        if valid.size >= 2:
            sub = row[valid]
            order = np.argsort(distance_matrix(sub).sum(axis=1), kind="stable")
            a, b = sorted((int(order[0]), int(order[1])))
            mean_f0 = float(0.5 * (sub[a] + sub[b]))
            region = FrequencyRegion(frame_index=int(i),
                                     region=region_of(mean_f0),
                                     mean_f0=mean_f0,
                                     selected_imfs=(int(valid[a]) + 1, int(valid[b]) + 1))
        else:
            region = FrequencyRegion(frame_index=int(i), region=last,
                                     mean_f0=math.nan, selected_imfs=None)
        regions.append(region)
        last = region.region
    return regions


def fold_chain(f, region):
    """Oracle for the band table: correct_candidate's if-chain before the
    table became its one definition, one branch per band edge at gamma =
    200 Hz."""
    if f < 50.0:
        return f
    if region == LOW:
        if f <= 200.0:
            return f
        if f <= 400.0:
            return 0.5 * f
        return 0.25 * f
    if f <= 100.0:
        return 4.0 * f
    if f <= 200.0:
        return 2.0 * f
    if f <= 400.0:
        return f
    return 0.5 * f


def fold_loop(cands, regions):
    """Oracle for analyze_utterance's array fold: the nested loop it ran
    before the band table, correct_candidate on every candidate of every
    classified frame."""
    folded = cands.copy()
    for r in regions:
        row = folded["f0_hz"][r.frame_index]
        for k in np.flatnonzero(~np.isnan(row)):
            row[k] = correct_candidate(row[k], r.region)
    return folded


def diagnostic_oracle(raw, folded, region):
    """Audit record of one frame from its raw and folded CANDIDATE rows, as
    analyze_utterance built one per classified frame and pro key before it
    kept its evidence as arrays."""
    found = ~np.isnan(raw["f0_hz"])
    raw_f0s = tuple(raw["f0_hz"][found].tolist())
    return FrameDiagnostic(region=region, raw_f0s=raw_f0s,
                           corrected_f0s=tuple(folded["f0_hz"][found].tolist()),
                           out_of_model=any(f < 0.25 * ProConfig.gamma_hz
                                            for f in raw_f0s))


def gapped_utterance(fs):
    """Low, high and low voiced bursts at fs, each followed by 100 ms of
    silence, in white noise."""
    parts = []
    for f0 in (120.0, 310.0, 180.0):
        parts += [glottal_pulse_train(f0, 0.25, fs).samples, np.zeros(fs // 10)]
    x = np.concatenate(parts)
    return x + 0.05 * np.random.default_rng(fs).standard_normal(x.size)


def brute_force_pair(d):
    """Exhaustive smallest-two-row-sum enumeration."""
    sums = d.sum(axis=1)
    best = None
    for i, j in itertools.combinations(range(d.shape[0]), 2):
        key = (sums[i] + sums[j], i, j)
        if best is None or key < best:
            best = key
    return best[1] + 1, best[2] + 1


class TestDistanceMatrix:
    def test_identical_entries_zero_matrix(self):
        d = distance_matrix(np.array([100.0, 100.0, 100.0, 100.0]))
        np.testing.assert_array_equal(d, np.zeros((4, 4)))

    def test_direct_value(self):
        d = distance_matrix(np.array([100.0, 300.0]))
        assert d[0, 1] == pytest.approx(0.5)  # |100-300|/(100+300)

    def test_symmetric_exactly(self, rng):
        v = rng.uniform(50, 400, size=4)
        d = distance_matrix(v)
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), np.zeros(4))

    def test_values_in_unit_interval(self, rng):
        for _ in range(50):
            v = rng.uniform(1e-3, 1e3, size=4)
            d = distance_matrix(v)
            assert np.all((d >= 0) & (d < 1))

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e3),
           seed=st.integers(0, 10 ** 6))
    def test_scale_invariance(self, c, seed):
        v = np.random.default_rng(seed).uniform(50, 400, size=4)
        np.testing.assert_allclose(distance_matrix(c * v), distance_matrix(v),
                                   atol=1e-12)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            distance_matrix(np.array([100.0, 0.0, 50.0, 60.0]))

    def test_batched_rows_equal_one_row_calls(self, rng):
        m = rng.uniform(50, 400, size=(7, 5))
        d = distance_matrix(m)
        assert d.shape == (7, 5, 5)
        for i in range(7):
            np.testing.assert_array_equal(d[i], distance_matrix(m[i]))


class TestSelectImfPair:
    def test_two_close_modes_win(self):
        d = distance_matrix(np.array([100.0, 101.0, 250.0, 400.0]))
        pair, scores = select_imf_pair(d)
        assert pair == (1, 2)
        assert len(scores) == 4

    def test_zero_matrix_tie_break(self):
        pair, _ = select_imf_pair(np.zeros((4, 4)))
        assert pair == (1, 2)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_matches_brute_force(self, seed):
        v = np.random.default_rng(seed).uniform(50, 400, size=4)
        d = distance_matrix(v)
        pair, _ = select_imf_pair(d)
        assert pair == brute_force_pair(d)

    def test_row_sum_not_closest_pair(self):
        # (1, 2) are mutually closest, but mode 3 sits nearer the crowd so
        # row sums prefer (2, 3)
        v = np.array([100.0, 101.0, 350.0, 356.0])
        d = distance_matrix(v)
        assert select_imf_pair(d)[0] == (2, 3)


class TestClassifyRegion:
    """Examples of one frame's region, each a one-row region pass."""

    def test_low_example(self):
        (region,) = classify([[180.0, 190.0, 185.0, 186.0]])
        assert region.region == LOW
        assert region.mean_f0 <= 200.0

    def test_high_example(self):
        (region,) = classify([[210.0, 230.0, 215.0, 214.0]])
        assert region.region == HIGH

    def test_exactly_gamma_is_low(self):
        (region,) = classify([[200.0, 200.0, 200.0, 200.0]])
        assert region.mean_f0 == 200.0
        assert region.region == LOW

    def test_mean_uses_selected_pair_only(self):
        # modes 1 and 2 agree near 100; the pair mean ignores the outliers
        (region,) = classify([[100.0, 101.0, 399.0, 250.0]])
        assert region.selected_imfs == (1, 2)
        assert region.mean_f0 == pytest.approx(100.5)

    def test_missing_entries_excluded(self):
        (region,) = classify([[np.nan, 150.0, 151.0, np.nan]])
        assert region.region == LOW
        assert region.selected_imfs == (2, 3)

    @pytest.mark.parametrize("bad", [0.0, -150.0])
    def test_non_positive_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="strictly positive F0 entries"):
            classify([[150.0, bad, 151.0, 152.0]])

    @pytest.mark.parametrize("f0", [math.nan, math.inf, -math.inf])
    def test_region_of_non_finite_rejected(self, f0):
        # NaN and inf read as high, -inf as low
        with pytest.raises(ValueError, match="frequency must be finite"):
            region_of(f0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           gamma_lo=st.floats(min_value=60, max_value=390),
           gamma_hi=st.floats(min_value=60, max_value=390))
    def test_monotone_in_gamma(self, seed, gamma_lo, gamma_hi):
        # the region is region_of the pair's mean F0, and raising gamma never
        # flips that mean from low to high
        lo, hi = sorted((gamma_lo, gamma_hi))
        (region,) = classify(np.random.default_rng(seed).uniform(60, 390, size=(1, 4)))
        assert region.region == region_of(region.mean_f0, ProConfig.gamma_hz)
        at_lo = region_of(region.mean_f0, lo)
        at_hi = region_of(region.mean_f0, hi)
        assert not (at_lo == LOW and at_hi == HIGH)


class TestClassifyFrames:
    def test_inheritance_defaults_low(self):
        mode_f0 = np.array([[np.nan] * 4, [300.0, 301.0, 60.0, 80.0], [np.nan] * 4])
        regions = classify(mode_f0)
        assert [r.region for r in regions] == [LOW, HIGH, HIGH]
        assert [r.frame_index for r in regions] == [0, 1, 2]
        assert regions[0].selected_imfs is None
        assert np.isnan(regions[0].mean_f0)

    def test_inheritance_follows_given_frames(self):
        # only the listed rows are classified, in order, and a frame without
        # evidence inherits from the frame listed before it, however far back
        mode_f0 = np.full((6, 4), np.nan)
        mode_f0[1] = [300.0, 301.0, 60.0, 80.0]
        mode_f0[3] = [120.0, 121.0, 60.0, 80.0]
        regions = classify(mode_f0, [1, 4, 5])
        assert [r.frame_index for r in regions] == [1, 4, 5]
        assert [r.region for r in regions] == [HIGH, HIGH, HIGH]
        assert [r.selected_imfs is None for r in regions] == [False, True, True]

    def test_matches_per_frame_oracle(self):
        # NaN and infinite entries, whole missing rows, exact ties (F0s on a
        # 25 Hz lattice), F0s on both sides of 1, k from 2 to 6 (the matrix
        # width, whatever ProConfig.k_imfs says), and rows given as None, a
        # sorted list, an array or an empty array; regions must agree to the
        # last bit. Below 8 modes numpy adds a row's terms in
        # order, so the masked zeros leave every row sum exact; from 8 on it
        # sums pairwise, and a pair tied to within rounding can differ
        rng = np.random.default_rng(20260)
        inherited = tied = 0
        for trial in range(300):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(0, 25))
            m = rng.uniform(55.0, 395.0, size=(n, k))
            if trial % 2:
                m = np.round(m / 25.0) * 25.0
            if trial % 3 == 0:  # F0s around 1, any positive value is valid
                m = m / 200.0
            m[rng.random((n, k)) < rng.uniform(0.0, 0.8)] = np.nan
            m[rng.random((n, k)) < 0.02] = np.inf
            m[rng.random(n) < 0.15] = np.nan
            picked = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
            frames = [None, picked.tolist(), picked, np.array([], dtype=np.intp)][trial % 4]
            expected = classify_frames_loop(m, frames)
            assert repr(classify(m, frames)) == repr(expected)
            inherited += sum(r.selected_imfs is None for r in expected)
            tied += sum(len(set(row[np.isfinite(row)])) < np.isfinite(row).sum()
                        for row in m)
        assert inherited > 0 and tied > 0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), coarse=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_inheritance_equals_loop_oracle(self, data, coarse, seed):
        # random usable-mode masks, leading rows without two usable modes,
        # and any subset of the rows; coarse F0s (a 25 Hz lattice) put pair
        # means exactly on gamma
        n = data.draw(st.integers(0, 30), label="frames")
        k = data.draw(st.integers(2, 6), label="modes")
        usable = np.array(data.draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k),
                                    label="usable"), dtype=bool).reshape(n, k)
        usable[:data.draw(st.integers(0, n), label="leading unusable rows")] = False
        picked = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                                    label="rows kept"), dtype=bool)
        frames = data.draw(st.sampled_from([None, np.flatnonzero(picked)]), label="frames")
        f0 = np.random.default_rng(seed).uniform(55.0, 395.0, size=(n, k))
        if coarse:
            f0 = np.round(f0 / 25.0) * 25.0
        m = np.where(usable, f0, np.nan)
        assert repr(classify(m, frames)) == repr(classify_frames_loop(m, frames))

    @pytest.mark.parametrize("bad", [0.0, -150.0])
    def test_non_positive_entry_rejected_not_inherited(self, bad):
        # a bad frame raises; with no other finite entry it must not be
        # taken for a frame without evidence and inherit a region
        mode_f0 = np.array([[150.0, 151.0, 152.0, 153.0], [bad, np.nan, np.nan, np.nan]])
        with pytest.raises(ValueError, match="strictly positive F0 entries"):
            classify(mode_f0)


BAND_EDGES = [float(x) for edge in (50.0, 100.0, 200.0, 400.0)
              for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))]


class TestCorrectCandidate:
    @pytest.mark.parametrize("f_cand,region,expected", [
        (320.0, LOW, 160.0),    # halve into [50, 200]
        (150.0, LOW, 150.0),    # identity branch
        (500.0, LOW, 125.0),    # quarter above 400
        (150.0, HIGH, 300.0),   # double into (200, 400]
        (75.0, HIGH, 300.0),    # quadruple
        (450.0, HIGH, 225.0),   # halve above 400
        (250.0, HIGH, 250.0),   # identity branch
        (200.0, LOW, 200.0),    # boundary stays put
        (400.0, HIGH, 400.0),   # boundary identity
    ])
    def test_piecewise_map(self, f_cand, region, expected):
        assert correct_candidate(f_cand, region) == pytest.approx(expected)

    def test_below_50_passes_through(self):
        assert correct_candidate(30.0, LOW) == 30.0
        assert correct_candidate(30.0, HIGH) == 30.0

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            correct_candidate(0.0, LOW)

    @settings(max_examples=200, deadline=None)
    @given(ratio=st.floats(min_value=0.25, max_value=4.0, exclude_min=True))
    def test_folds_into_the_gamma_bands(self, ratio):
        # above gamma/4 and up to 4 gamma, one fold lands in the frame's band
        gamma = ProConfig.gamma_hz
        f = gamma * ratio
        assert 0.25 * gamma <= correct_candidate(f, LOW) <= gamma
        assert gamma <= correct_candidate(f, HIGH) <= 2.0 * gamma

    def test_matches_transcription_oracle(self):
        def oracle_low(f):
            if 50 <= f <= 200:
                return f
            if 200 < f <= 400:
                return 0.5 * f
            if f > 400:
                return 0.25 * f
            return f

        def oracle_high(f):
            if 50 <= f <= 100:
                return 4 * f
            if 100 < f <= 200:
                return 2 * f
            if 200 < f <= 400:
                return f
            if f > 400:
                return 0.5 * f
            return f

        grid = np.arange(500, 16001) * 0.1  # [50, 1600] at 0.1 Hz
        for f in grid[::37]:
            assert correct_candidate(float(f), LOW) == oracle_low(float(f))
            assert correct_candidate(float(f), HIGH) == oracle_high(float(f))

    @pytest.mark.parametrize("f", [math.nan, math.inf])
    @pytest.mark.parametrize("region", [LOW, HIGH])
    def test_non_finite_rejected(self, f, region):
        # NaN came back as NaN and inf as inf
        with pytest.raises(ValueError, match="positive and finite"):
            correct_candidate(f, region)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_array_fold_equals_correct_candidate(self, data):
        # every slot of a (frames x slots) array folded into its frame's
        # region row equals the one-row call and the if-chain, on (0, 1e4]
        # and at the band edges and their neighbours; NaN slots stay NaN
        n = data.draw(st.integers(1, 8), label="frames")
        slots = data.draw(st.integers(1, 4), label="slots")
        f0 = st.one_of(st.floats(min_value=0.0, max_value=1e4, exclude_min=True),
                       st.sampled_from(BAND_EDGES), st.just(math.nan))
        cands = np.array(data.draw(st.lists(f0, min_size=n * slots, max_size=n * slots),
                                   label="f0")).reshape(n, slots)
        rows = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n,
                                           max_size=n), label="rows"))[:, None]
        folded = separation._fold(cands, rows)
        assert folded.shape == cands.shape
        for (i, j), f in np.ndenumerate(cands):
            if np.isnan(f):
                assert np.isnan(folded[i, j])
            else:
                region = (LOW, HIGH)[rows[i, 0]]
                assert folded[i, j] == correct_candidate(float(f), region) \
                    == fold_chain(float(f), region)

    @settings(max_examples=500, deadline=None)
    @given(ref=st.floats(min_value=1.0, max_value=2 * ProConfig.gamma_hz),
           ratio=st.floats(min_value=0.8, max_value=1.2))
    def test_right_region_keeps_a_near_candidate_near(self, ref, ratio):
        # on a frame whose region is right, a raw candidate within 20% of a
        # reference in the model's range (0, 2 gamma] stays within 20% after
        # the fold, unless 20% around the reference straddles gamma or
        # 2 gamma: references in (166.7, 250] and (333.3, 400] Hz
        gamma = ProConfig.gamma_hz
        lo, hi = 0.8 * ref, 1.2 * ref
        cand = ref * ratio
        assume(lo <= cand <= hi)
        assume(not any(lo <= edge < hi for edge in (gamma, 2.0 * gamma)))
        region = region_of(ref)
        assert lo <= correct_candidate(cand, region) <= hi
        folded = separation._fold(np.array([[cand, math.nan]]), (LOW, HIGH).index(region))
        assert lo <= folded[0, 0] <= hi and np.isnan(folded[0, 1])

    @settings(max_examples=200, deadline=None)
    @given(f=st.floats(min_value=50.0, max_value=800.0, exclude_min=True))
    def test_idempotent_and_in_band_up_to_800(self, f):
        # the single-pass piecewise map is only stable on (50, 800]; above
        # 800 a corrected value can land back in a scaled branch, and
        # exactly 50 maps to the 200 Hz edge of the doubling branch
        low_once = correct_candidate(f, LOW)
        assert 50.0 <= low_once <= 200.0
        assert correct_candidate(low_once, LOW) == low_once
        high_once = correct_candidate(f, HIGH)
        assert 200.0 <= high_once <= 400.0
        assert correct_candidate(high_once, HIGH) == high_once


class TestPickThenFold:
    """The pipeline folds every candidate and picks the most salient folded
    one; that equals folding the most salient raw candidate."""

    @settings(max_examples=300, deadline=None)
    @given(cands=st.lists(st.tuples(
               st.floats(min_value=1.0, max_value=1600.0),
               st.one_of(st.sampled_from([0.25, 0.5, 0.75]),  # forces ties
                         st.floats(min_value=0.0, max_value=1.0))),
               max_size=6),
           region=st.sampled_from([LOW, HIGH]))
    def test_pick_then_fold_equals_fold_then_pick(self, cands, region):
        raw = np.full((1, max(len(cands), 1)), np.nan, CANDIDATE)
        raw[0, :len(cands)] = cands
        folded = raw.copy()
        folded["f0_hz"][0, :len(cands)] = [correct_candidate(f, region)
                                           for f, _ in cands]
        (oracle,), (picked,) = pick(folded), pick(raw)
        if np.isnan(picked):
            assert np.isnan(oracle)
        else:
            assert correct_candidate(picked, region) == oracle


class TestSmoothedArgmaxTrack:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), window=st.sampled_from([0, 1, 3, SMOOTH_FRAMES]),
           coarse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_oracle(self, data, window, coarse, seed):
        # coarse scores (multiples of 0.1) make sums that differ only in
        # rounding order tie or flip the argmax, so the picks check the
        # summation bit for bit
        n = data.draw(st.integers(1, 40), label="frames")
        c = data.draw(st.integers(1, 12), label="candidates")
        valid = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                                   label="valid rows"), dtype=bool)
        dead = np.array(data.draw(st.lists(st.booleans(), min_size=c, max_size=c),
                                  label="-inf columns"), dtype=bool)
        gen = np.random.default_rng(seed)
        if coarse:
            scores = 0.1 * gen.integers(-3, 4, size=(n, c))
        else:
            scores = gen.standard_normal((n, c)) * 10.0 ** gen.uniform(-3, 3, (n, 1))
        scores[:, dead] = -np.inf
        scores[~valid] = -np.inf
        cands = np.sort(gen.uniform(50.0, 400.0, c))
        with mock.patch.object(separation, "SMOOTH_FRAMES", window):
            got = _smoothed_argmax_track(cands, scores, valid)
        want = smoothed_argmax_loop(cands, scores, valid, window)
        assert np.array_equal(got, want, equal_nan=True)

    def test_all_invalid_window_is_nan(self):
        valid = np.array([True] + [False] * 6 + [True])
        scores = np.where(valid[:, None], np.array([[0.0, 1.0]]), -np.inf)
        track = _smoothed_argmax_track(np.array([100.0, 200.0]), scores, valid)
        assert np.isnan(track[3:5]).all()
        assert (track[:3] == 200.0).all() and (track[5:] == 200.0).all()


class TestImfPitchVector:
    def test_identical_modes_agree(self):
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 150.0), (500, 150.0)), duration_ms=500,
            jitter_pct=0.0, rng_seed=1))
        imfs = ImfSet(np.tile(buf.samples, (4, 1)), np.full(len(buf), 1e-12), FS)
        mode_f0 = imf_pitch_vector(imfs)
        spread = np.nanmax(mode_f0, axis=1) - np.nanmin(mode_f0, axis=1)
        assert (spread <= 3.0).all()

    def test_silent_mode_is_nan(self):
        # PEFAC rejects every all-zero frame, so that mode never has evidence
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 150.0), (500, 150.0)), duration_ms=500,
            jitter_pct=0.0, rng_seed=1))
        modes = [buf.samples] * 3 + [np.zeros(len(buf))]
        imfs = ImfSet(modes, np.full(len(buf), 1e-12), FS)
        mode_f0 = imf_pitch_vector(imfs)
        assert mode_f0.shape == (FrameSpec().num_frames(len(buf), FS), 4)
        assert np.isfinite(mode_f0[:, :3]).all() and np.isnan(mode_f0[:, 3]).all()

    def test_too_few_modes_rejected(self):
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 150.0), (500, 150.0)), duration_ms=500, rng_seed=1))
        imfs = ImfSet(np.tile(buf.samples, (3, 1)), np.full(len(buf), 1e-12), FS)
        with pytest.raises(ValueError, match="4 modes"):
            imf_pitch_vector(imfs)

    @pytest.mark.parametrize("fs", [8000, 16000, 22050])
    def test_equals_per_frame_loop(self, fs):
        # modes whose frames cross block boundaries and hold all-zero rows
        x = voiced_with_a_gap(fs)
        modes = [x, 0.5 * x, np.roll(x, fs // 100), np.zeros_like(x)]
        modes[3][:fs // 5] = x[:fs // 5]
        imfs = ImfSet(np.array(modes), np.full(x.size, 1e-12), fs)
        assert FrameSpec().num_frames(x.size, fs) % separation._BLOCK_ROWS
        np.testing.assert_array_equal(imf_pitch_vector(imfs), per_frame_imf_pitch_vector(imfs))


class TestCombCandidates:
    @pytest.mark.parametrize("fs", [8000, 16000, 22050])
    @pytest.mark.parametrize("est", ["pefac", "shr", "swipe"])
    def test_equal_per_frame_loop(self, est, fs):
        # a one-row segment, one that crosses a block boundary, and one
        # over the all-zero frames of the gap
        frames = FrameSpec().frames(voiced_with_a_gap(fs), fs)
        b = separation._BLOCK_ROWS
        segments = [slice(0, 1), slice(2, 2 + b + 1), slice(2 + b + 1, 2 + b + 1),
                    slice(20, 40)]
        assert not frames[25:27].any()
        got = {est: np.full((len(frames), 1), np.nan, CANDIDATE)}
        want = {est: np.full((len(frames), 1), np.nan, CANDIDATE)}
        for rows in segments:
            separation._comb_candidates(got, frames, fs, rows)
            per_frame_comb_candidates(want, frames, fs, rows)
        assert got[est].tobytes() == want[est].tobytes()
        assert np.isnan(got[est]["f0_hz"][25:27]).all()

    def test_block_major_order(self, monkeypatch):
        # every requested comb estimator, in the order requested, scores a
        # block of _BLOCK_ROWS rows (fewer at a segment's end) before the
        # next block starts, across all three voiced segments
        fs, b = 16000, separation._BLOCK_ROWS
        calls = []
        for est in ("pefac", "shr", "swipe"):
            def spy(frame, est=est, real=FRAME_ESTIMATORS[est]):
                calls.append((est, round(frame.start_ms / AnalysisConfig.frame.hop_ms),
                              len(frame.samples)))
                return real(frame)
            monkeypatch.setitem(FRAME_ESTIMATORS, est, spy)
        out = analyze_utterance(SampleBuffer(gapped_utterance(fs), fs),
                                ["swipe", "hht", "pefac"], ["raw"],
                                AnalysisConfig(emd=EmdConfig(ensemble_size=1)))
        segments = voiced_segments(out[("swipe", "raw")].track.voiced_mask)
        assert len(segments) == 3
        assert calls == [(est, start, min(b, last + 1 - start))
                         for first, last in segments
                         for start in range(first, last + 1, b)
                         for est in ("swipe", "pefac")]

    @pytest.mark.parametrize("est", ["pefac", "shr", "swipe"])
    def test_work_memory_does_not_grow_with_the_rows(self, est):
        # 200 frames scored in blocks hold no more memory, beyond their
        # candidate array, than one block does: the bound lets the work grow
        # by 32 bytes a frame, the interpreter objects a longer loop leaves
        # in flight, where each frame's log view kept to the end would add
        # 2.8 KB and its spectrum 32 KB
        fs = 16000
        frames = FrameSpec().frames(glottal_pulse_train(150.0, 2.2, fs).samples, fs)[:200]

        def work_bytes(rows):
            cands = {est: np.full((rows, 1), np.nan, CANDIDATE)}
            peak, _ = traced_peak(lambda: separation._comb_candidates(
                cands, frames[:rows], fs, slice(0, rows)))
            return peak
        work_bytes(200)  # fills the interpreter's and numpy's free lists
        rows = 200 - separation._BLOCK_ROWS
        assert work_bytes(200) <= work_bytes(separation._BLOCK_ROWS) + 32 * rows


class TestPipeline:
    def test_clean_120_vowel_tracked(self):
        buf, truth = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 120.0), (700, 120.0)), duration_ms=700, rng_seed=9))
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=10, rng_seed=0))
        track = analyze_utterance(buf, ["hht"], ["pro"], cfg)[("hht", "pro")].track
        voiced = truth.voiced_mask
        est = track.f0_hz[:len(voiced)]
        good = np.abs(est - 120.0) / 120.0 <= 0.20
        assert np.mean(good[voiced[:len(est)]]) >= 0.95

    def test_silent_input_empty_voiced_track(self):
        silence = SampleBuffer(np.zeros(FS) + 0.0, FS)
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=5, rng_seed=0))
        for key, result in analyze_utterance(silence, ["hht"], ["raw", "pro"],
                                             cfg).items():
            assert not result.track.voiced_mask.any(), key
            assert not result.track.estimated_mask().any(), key

    def test_dc_input_has_no_pitch(self):
        buf = SampleBuffer(np.full(FS, 0.3), FS)
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=5, rng_seed=0))
        out = analyze_utterance(buf, ["pefac", "shr", "swipe", "hht"], ["raw", "pro"], cfg)
        assert len(out) == 8
        for key, result in out.items():
            assert not np.isfinite(result.track.f0_hz).any(), key
            assert not result.track.voiced_mask.any(), key

    def test_high_segment_candidates_corrected_into_band(self):
        # a high-frequency vowel whose raw mode candidates often sit at or
        # below 200 Hz must come out with all corrected candidates in the
        # high band
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 300.0), (600, 300.0)), duration_ms=600, rng_seed=4))
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=10, rng_seed=0))
        result = analyze_utterance(buf, ["hht"], ["pro"], cfg)[("hht", "pro")]
        diags = [d for d in result.diagnostics if d.region.region == HIGH and d.raw_f0s]
        assert diags, "expected high-region frames with candidates"
        for d in diags:
            for corrected in d.corrected_f0s:
                assert 200.0 <= corrected <= 400.0

    def test_pro_lowers_hht_gross_error_on_noisy_high_vowel(self):
        # a 300 Hz vowel in babble at 0 dB, ensemble 20: the fold lowers
        # hht's gross error (25.0% raw, 19.2% pro on x86_64), although only
        # 20 of its 98 raw candidates sit at or below gamma
        clean, truth = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0.0, 300.0), (600.0, 300.0)), duration_ms=600.0,
            rng_seed=1))
        noise = make_noise("babble", 2 * len(clean), clean.sample_rate_hz, seed=2)
        buf = mix_at_snr(NoisyMix(clean, noise, 0.0, seed=1))
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=20, rng_seed=1))
        out = analyze_utterance(buf, ["hht"], ["raw", "pro"], cfg)
        raw_ge = gross_error(out[("hht", "raw")].track, truth)
        pro_ge = gross_error(out[("hht", "pro")].track, truth)
        assert pro_ge < raw_ge

    def test_raw_and_pro_share_grid(self):
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 250.0), (500, 250.0)), duration_ms=500, rng_seed=2))
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=5, rng_seed=0))
        out = analyze_utterance(buf, ["hht"], ["raw", "pro"], cfg)
        raw = out[("hht", "raw")].track
        pro = out[("hht", "pro")].track
        np.testing.assert_array_equal(raw.frame_times_ms, pro.frame_times_ms)
        np.testing.assert_array_equal(raw.voiced_mask, pro.voiced_mask)

    @pytest.mark.parametrize("f0_hz", [120.0, 300.0])
    def test_pro_is_raw_pick_folded_into_shared_regions(self, f0_hz):
        # white noise at 0 dB puts some raw picks in the wrong octave
        clean, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, f0_hz), (500, f0_hz)), duration_ms=500, rng_seed=3))
        buf = mix_at_snr(NoisyMix(clean=clean, snr_db=0.0, seed=2,
                                  noise=make_noise("white", len(clean), FS, seed=1)))
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=5, rng_seed=0))
        estimators = ["shr", "swipe", "hht"]
        out = analyze_utterance(buf, estimators, ["raw", "pro"], cfg)
        regions = out[("shr", "pro")].regions
        assert isinstance(regions, tuple) and regions
        region_at = {r.frame_index: r.region for r in regions}
        voiced = out[("shr", "raw")].track.voiced_mask
        assert sorted(region_at) == list(np.flatnonzero(voiced))
        moved = 0
        for est in estimators:
            raw, pro = out[(est, "raw")], out[(est, "pro")]
            assert pro.region_table is out[("shr", "pro")].region_table
            assert repr(pro.regions) == repr(regions)
            assert raw.regions == () and raw.diagnostics == ()
            np.testing.assert_array_equal(raw.track.voiced_mask, voiced)
            np.testing.assert_array_equal(pro.track.voiced_mask, voiced)
            for i, f in enumerate(raw.track.f0_hz):
                if np.isnan(f):
                    assert np.isnan(pro.track.f0_hz[i])
                else:
                    assert pro.track.f0_hz[i] == correct_candidate(f, region_at[i])
                    moved += pro.track.f0_hz[i] != f
            # each diagnostic folds every raw candidate into its region and
            # flags a raw candidate below gamma / 4
            for d in pro.diagnostics:
                assert d.corrected_f0s == tuple(correct_candidate(f, d.region.region)
                                                for f in d.raw_f0s)
                assert d.out_of_model == any(f < 0.25 * ProConfig.gamma_hz
                                             for f in d.raw_f0s)
        assert moved > 0

    def test_analysis_keeps_its_evidence_as_arrays(self):
        # one grid_pro-shaped analysis (shr, swipe and hht, raw and pro, on a
        # 600 ms vowel) held 41 KB while each pro key kept a FrequencyRegion
        # per voiced frame and a FrameDiagnostic per frame and key; the pro
        # keys now hold one region table and their raw candidate arrays.
        # Kept is what dropping the result frees: what it leaves in the
        # allocators' caches while alive is not the result's
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 150.0), (600, 150.0)), duration_ms=600, rng_seed=1))
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=2, rng_seed=0))
        keys = (["shr", "swipe", "hht"], ["raw", "pro"])
        assert len(analyze_utterance(buf, *keys, cfg)[("hht", "pro")].diagnostics) >= 50
        tracemalloc.start()
        try:
            out = analyze_utterance(buf, *keys, cfg)
            with_result = tracemalloc.get_traced_memory()[0]
            del out
            kept = with_result - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 20_000

    def test_frames_without_mode_evidence_inherit_across_segments(self, monkeypatch):
        # a high vowel, a pause, then a low vowel whose decomposition keeps
        # fewer than k_imfs modes: no frame of the second segment has mode
        # evidence, so each inherits the first segment's last region
        high = glottal_pulse_train(300.0, duration_s=0.4).samples
        low = glottal_pulse_train(120.0, duration_s=0.4).samples
        buf = SampleBuffer(np.concatenate([high, np.zeros(int(0.3 * FS)), low]), FS)
        real_decompose = separation.eemd_decompose
        calls = []

        def decompose(seg, cfg, max_imfs):
            imfs = real_decompose(seg, cfg, max_imfs)
            calls.append(len(imfs))
            if len(calls) == 1:
                return imfs
            kept = imfs.modes[:ProConfig().k_imfs - 1]
            return ImfSet(kept, imfs.reconstruct() - kept.sum(axis=0), FS)
        monkeypatch.setattr(separation, "eemd_decompose", decompose)
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=5, rng_seed=0))
        result = analyze_utterance(buf, ["shr"], ["pro"], cfg)[("shr", "pro")]
        assert len(calls) == 2 and calls[0] >= ProConfig().k_imfs
        (a0, a1), (b0, b1) = voiced_segments(result.track.voiced_mask)
        region_at = {r.frame_index: r for r in result.regions}
        assert sorted(region_at) == [*range(a0, a1 + 1), *range(b0, b1 + 1)]
        handed_over = region_at[a1]
        assert handed_over.region == HIGH and handed_over.selected_imfs is not None
        for i in range(b0, b1 + 1):
            assert region_at[i].region == HIGH
            assert region_at[i].selected_imfs is None and np.isnan(region_at[i].mean_f0)

    @pytest.mark.parametrize("estimators,methods,n_read", [
        (["hht"], ["raw"], EstimatorConfig().hht_num_imfs),
        (["shr", "hht"], ["raw", "pro"], ProConfig().k_imfs)])
    def test_mode_cap_equals_uncapped_oracle(self, monkeypatch, estimators, methods,
                                             n_read):
        # the pipeline sifts exactly the modes its keys read; a run whose
        # decompositions sift all 8 default modes must give the same output
        clean, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 140.0), (500, 260.0)), duration_ms=500, rng_seed=5))
        buf = mix_at_snr(NoisyMix(clean=clean, snr_db=0.0, seed=1,
                                  noise=make_noise("babble", len(clean), FS, seed=2)))
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=5, rng_seed=0))
        real_decompose = separation.eemd_decompose
        monkeypatch.setattr(separation, "eemd_decompose",
                            lambda seg, emd_cfg, _: real_decompose(seg, emd_cfg, 8))
        oracle = analyze_utterance(buf, estimators, methods, cfg)
        assert any(np.isfinite(r.track.f0_hz).any() for r in oracle.values())
        caps = []

        def recording(seg, emd_cfg, max_imfs):
            caps.append(max_imfs)
            return real_decompose(seg, emd_cfg, max_imfs)
        monkeypatch.setattr(separation, "eemd_decompose", recording)
        capped = analyze_utterance(buf, estimators, methods, cfg)
        assert caps and set(caps) == {n_read}
        assert capped.keys() == oracle.keys()
        for key, result in capped.items():
            np.testing.assert_array_equal(result.track.f0_hz, oracle[key].track.f0_hz)
            np.testing.assert_array_equal(result.track.voiced_mask,
                                          oracle[key].track.voiced_mask)
            # repr round-trips floats exactly and prints NaN equal to NaN
            assert repr(result.regions) == repr(oracle[key].regions)
            assert repr(result.diagnostics) == repr(oracle[key].diagnostics)

    @pytest.mark.parametrize("fs", [8000, 16000, 22050])
    def test_outputs_equal_per_frame_scoring(self, fs, monkeypatch):
        # every key, raw and pro, with the comb estimators scoring one frame
        # per call as before frames were stacked
        buf = SampleBuffer(voiced_with_a_gap(fs), fs)
        keys = (["pefac", "shr", "swipe", "hht"], ["raw", "pro"])
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=2, rng_seed=3))
        stacked = analyze_utterance(buf, *keys, cfg)
        monkeypatch.setattr(separation, "_comb_candidates", per_frame_comb_candidates)
        oracle = analyze_utterance(buf, *keys, cfg)
        assert stacked.keys() == oracle.keys()
        for key, result in stacked.items():
            np.testing.assert_array_equal(result.track.f0_hz, oracle[key].track.f0_hz)
            assert repr(result.regions) == repr(oracle[key].regions)
            assert repr(result.diagnostics) == repr(oracle[key].diagnostics)
        assert np.isfinite(stacked[("pefac", "raw")].track.f0_hz).sum() >= 20

    @pytest.mark.parametrize("fs", [8000, 16000, 22050])
    def test_outputs_equal_loop_fold_and_inheritance(self, fs, monkeypatch):
        # every key on three voiced bursts between silent gaps, with the
        # first two frames of each segment and one of every four later ones
        # left with too few mode F0s, so frames default to low, inherit
        # within and across segments, and candidates move; tracks, regions
        # and diagnostics equal those of the per-frame inheritance loop and
        # the nested fold loop over the raw candidate arrays the pipeline
        # picked from
        picked, classified = [], []
        real_region_table = separation._region_table
        monkeypatch.setattr(separation, "imf_pitch_vector", sparse_pitch_vector)
        monkeypatch.setattr(separation, "pick", lambda c: picked.append(c) or pick(c))
        monkeypatch.setattr(separation, "_region_table",
                            lambda *args: classified.append(args) or real_region_table(*args))
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=2, rng_seed=3))
        out = analyze_utterance(SampleBuffer(gapped_utterance(fs), fs), *ALL_KEYS, cfg)
        assert len(voiced_segments(out[("shr", "raw")].track.voiced_mask)) == 3
        ((mode_f0, rows),) = classified
        regions = tuple(classify_frames_loop(mode_f0, rows))
        assert {r.region for r in regions} == {LOW, HIGH}
        assert sum(r.selected_imfs is None for r in regions) >= 10
        assert len(picked) == len(ALL_KEYS[0])  # one pick per estimator
        moved = 0
        for est, raw in zip(ALL_KEYS[0], picked):
            folded = fold_loop(raw, regions)
            moved += np.sum(~np.isnan(raw["f0_hz"]) & (folded["f0_hz"] != raw["f0_hz"]))
            np.testing.assert_array_equal(out[(est, "raw")].track.f0_hz, pick(raw))
            np.testing.assert_array_equal(out[(est, "pro")].track.f0_hz, pick(folded))
            assert repr(out[(est, "pro")].regions) == repr(regions)
            assert repr(out[(est, "pro")].diagnostics) == repr(tuple(
                diagnostic_oracle(raw[r.frame_index], folded[r.frame_index], r)
                for r in regions))
        assert moved > 0

    @pytest.mark.parametrize("fs", [8000, 16000, 22050])
    def test_outputs_equal_two_pass_oracle(self, fs, monkeypatch):
        # every key: the track, voicing, frame times, region table,
        # candidate array and diagnostics of the one segment loop equal
        # those of the two passes byte for byte; sparse mode evidence makes
        # frames inherit their region and the fold move candidates
        monkeypatch.setattr(separation, "imf_pitch_vector", sparse_pitch_vector)
        buf = SampleBuffer(gapped_utterance(fs), fs)
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=2, rng_seed=3))
        got = analyze_utterance(buf, *ALL_KEYS, cfg)
        want = two_pass_analysis(buf, *ALL_KEYS, cfg)
        assert len(voiced_segments(got[("shr", "raw")].track.voiced_mask)) == 3
        assert got.keys() == want.keys() and len(got) == 8
        for key, result in got.items():
            assert result_bytes(result) == result_bytes(want[key]), key
        moved = [np.isfinite(raw) & (pro != raw) for raw, pro in (
            (got[(est, "raw")].track.f0_hz, got[(est, "pro")].track.f0_hz)
            for est in ALL_KEYS[0])]
        assert np.any(moved)

    @pytest.mark.parametrize("fs", [8000, 16000])
    def test_comb_tracks_equal_per_segment_loop(self, fs):
        # two voiced bursts around a pause, so two segments start mid-utterance
        gen = np.random.default_rng(fs)
        bursts = [glottal_pulse_train(f0, duration_s=0.3, fs=fs).samples
                  for f0 in (140.0, 260.0)]
        x = np.concatenate([np.zeros(fs // 10), bursts[0], np.zeros(fs // 5),
                            bursts[1], np.zeros(fs // 10)])
        buf = SampleBuffer(x + 0.005 * gen.standard_normal(x.size), fs)
        cfg = AnalysisConfig()
        out = analyze_utterance(buf, ["pefac", "shr", "swipe"], ["raw"], cfg)
        assert len(voiced_segments(out[("shr", "raw")].track.voiced_mask)) == 2
        for est in ("pefac", "shr", "swipe"):
            f0 = out[(est, "raw")].track.f0_hz
            assert np.isfinite(f0).sum() >= 40, est
            np.testing.assert_array_equal(f0, per_segment_comb_loop(buf, est, cfg))

    def test_frames_too_short_for_f_min_rejected(self):
        # callers hand the frame estimators and the per-mode PEFAC scores
        # frames of any length: 30 ms holds 1.5 periods at 50 Hz and is
        # rejected, 40 ms holds exactly two
        x = glottal_pulse_train(150.0, duration_s=0.04).samples
        for score in (*FRAME_ESTIMATORS.values(), pefac_scores):
            with pytest.raises(ValueError, match=r"frame of 30\.0 ms is shorter than two "
                                                 r"pitch periods at f_min=50\.0 Hz"):
                score(Frame(x[:240], FS, 0.0))
            score(Frame(x, FS, 0.0))

    def test_fixed_constants_keep_frame_and_vad_consistent(self):
        # the VAD frames sit on the analysis hop and must leave no gaps, and a
        # frame spans two pitch periods at f_min, so every frame can be scored
        frame, vad, est = AnalysisConfig.frame, AnalysisConfig.vad, AnalysisConfig.estimator
        assert frame.hop_ms <= vad.frame_ms
        assert frame.frame_len_ms >= 2000.0 / est.f_min

    def test_fixed_constants_are_not_parameters(self):
        # the analysis frame, VAD, estimator and region constants are read
        # where they are used; no function takes one as a parameter
        removed = {
            separation._region_table: {"cfg"},
            separation._smoothed_argmax_track: {"window"},
            tracks_aligned: {"tol_ms"},
            imf_pitch_vector: {"spec", "cfg", "est_cfg"},
            correct_candidate: {"gamma_hz"},
            detect_voiced: {"cfg", "frame"},
            hht_candidates: {"cfg", "frame"},
            synthesize_utterance: {"frame"},
            generate_corpus: {"frame"},
        }
        for fn, names in removed.items():
            assert not names & set(inspect.signature(fn).parameters), fn.__name__
        # the VAD framing is one constant, not a method of the analysis frame
        assert VadConfig.frame_spec == FrameSpec(frame_len_ms=25.0, hop_ms=10.0)

    def test_fixed_frame_spans_two_periods_at_every_rate(self):
        # the frame analyze_utterance cuts is rounded to whole samples; at
        # every rate up to 192 kHz it either holds no sample (an input error)
        # or still spans two periods at f_min
        frame, f_min = AnalysisConfig.frame, AnalysisConfig.estimator.f_min
        rounded_to_zero = 0
        for fs in range(1, 192001):
            try:
                n = frame.frame_len(fs)
            except ValueError as exc:
                assert "rounds to 0 samples" in str(exc)
                rounded_to_zero += 1
                continue
            assert n / fs >= 2.0 / f_min, fs
        assert rounded_to_zero == 5  # 90 ms rounds to a sample from 6 Hz

    def test_hop_rounding_to_zero_samples_rejected(self):
        # below 50 Hz the fixed 10 ms hop holds no sample
        buf = SampleBuffer(np.sin(np.arange(40.0)), 40)
        with pytest.raises(ValueError, match="hop_ms=10.0 rounds to 0 samples at 40 Hz"):
            analyze_utterance(buf, ["shr"], ["raw"], AnalysisConfig())

    def test_vad_runs_on_analysis_hop(self):
        buf = glottal_pulse_train(150.0, duration_s=0.6)
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=2, rng_seed=0))
        out = analyze_utterance(buf, ["shr"], ["raw", "pro"], cfg)
        track = out[("shr", "pro")].track
        n = cfg.frame.num_frames(len(buf), FS)
        np.testing.assert_array_equal(track.frame_times_ms, 10.0 * np.arange(n))
        assert track.voiced_mask.sum() >= n - 2
        assert [r.frame_index for r in out[("shr", "pro")].regions] == \
            list(np.flatnonzero(track.voiced_mask))

    def test_unknown_method_rejected(self):
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 150.0), (500, 150.0)), duration_ms=500, rng_seed=2))
        with pytest.raises(ValueError, match="method"):
            analyze_utterance(buf, ["hht"], ["dcnn"], AnalysisConfig())

    def test_unknown_estimator_rejected(self):
        # a name no estimator answers to must not come back as an all-missing track
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 150.0), (600, 150.0)), duration_ms=600, rng_seed=2))
        for estimators in (["yin"], ["shr", "yin"]):
            with pytest.raises(ValueError, match="unknown estimator 'yin'"):
                analyze_utterance(buf, estimators, ["raw"], AnalysisConfig())


    @pytest.mark.parametrize("estimators,methods,match", [
        (["shr", "shr"], ["raw"], "estimator 'shr' is listed twice"),
        (["swipe", "hht", "swipe"], ["pro"], "estimator 'swipe' is listed twice"),
        (["shr"], ["raw", "pro", "raw"], "method 'raw' is listed twice")])
    def test_repeated_name_rejected(self, estimators, methods, match):
        # a repeated key must not be dropped from the result in silence
        buf = SampleBuffer(voiced_with_a_gap(FS), FS)
        with pytest.raises(ValueError, match=f"^{match}$"):
            analyze_utterance(buf, estimators, methods, AnalysisConfig())


ALL_KEYS = (["pefac", "shr", "swipe", "hht"], ["raw", "pro"])


class TestAnalyzeProperties:
    """Invariants of analyze_utterance over rates, lengths and levels a
    caller can supply: gain, DC offset and clipping (a clip level under the
    offset can make the input constant)."""

    @settings(max_examples=20, deadline=None)
    @given(fs=st.sampled_from([8000, 11025, 16000, 22050]),
           duration_ms=st.integers(90, 600), f0=st.floats(60.0, 380.0),
           gain=st.floats(1e-3, 4.0), dc=st.floats(-0.5, 0.5),
           clip=st.floats(0.05, 1.0), seed=st.integers(0, 2 ** 16))
    def test_tracks_on_the_grid_and_voicing(self, fs, duration_ms, f0, gain, dc,
                                            clip, seed):
        voice = glottal_pulse_train(f0, duration_s=duration_ms / 1000.0, fs=fs).samples
        noise = 0.01 * np.random.default_rng(seed).standard_normal(voice.size)
        x = np.clip(gain * (voice + noise) + dc, -clip, clip)
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=2, rng_seed=seed))
        spec = cfg.frame
        if x.size < spec.frame_len(fs):
            with pytest.raises(ValueError, match="shorter than one"):
                analyze_utterance(SampleBuffer(x, fs), *ALL_KEYS, cfg)
            return
        out = analyze_utterance(SampleBuffer(x, fs), *ALL_KEYS, cfg)
        n_frames = spec.num_frames(x.size, fs)
        for result in out.values():
            track = result.track
            np.testing.assert_array_equal(track.frame_times_ms,
                                          spec.hop_ms * np.arange(n_frames))
            assert track.f0_hz.shape == track.voiced_mask.shape == (n_frames,)
            assert not (np.isfinite(track.f0_hz) & ~track.voiced_mask).any()
            assert np.ptp(x) > 0 or not track.voiced_mask.any()
        gamma = cfg.pro.gamma_hz
        for est in ALL_KEYS[0]:
            np.testing.assert_array_equal(np.isfinite(out[(est, "pro")].track.f0_hz),
                                          np.isfinite(out[(est, "raw")].track.f0_hz))
            # every corrected candidate lies in its frame's closed band, or
            # came from a raw candidate below gamma / 4 on a flagged frame
            for d in out[(est, "pro")].diagnostics:
                low = d.region.region == LOW
                lo, hi = (gamma / 4, gamma) if low else (gamma, 2 * gamma)
                for raw, corrected in zip(d.raw_f0s, d.corrected_f0s):
                    if raw < gamma / 4:
                        assert d.out_of_model and corrected == raw
                    else:
                        assert lo <= corrected <= hi, (d, raw, corrected)
        constant = SampleBuffer(np.full(x.size, x[0]), fs)
        for result in analyze_utterance(constant, *ALL_KEYS, cfg).values():
            assert not result.track.voiced_mask.any()
        with pytest.raises(ValueError, match="shorter than one"):
            analyze_utterance(SampleBuffer(x[:spec.frame_len(fs) - 1], fs), *ALL_KEYS, cfg)


class TestMethodResult:
    def test_views_equal_per_frame_oracles(self):
        # a region table over a subset of rows with inherited frames, and
        # raw candidates on and beside every band edge (gamma / 4 among
        # them), off the model's range, or empty; both views equal the
        # per-frame loops, and a raw key reads none
        rng = np.random.default_rng(33)
        n = 60
        mode_f0 = rng.uniform(55.0, 395.0, size=(n, 4))
        mode_f0[rng.random((n, 4)) < 0.6] = np.nan
        rows = np.flatnonzero(rng.random(n) < 0.8)
        cands = np.full((n, 3), np.nan, CANDIDATE)
        cands["f0_hz"] = rng.choice(BAND_EDGES + [20.0, 75.0, 150.0, 300.0, 900.0, np.nan],
                                    size=(n, 3))
        cands["salience"] = rng.random((n, 3))
        track = FramePitchTrack(10.0 * np.arange(n), np.full(n, np.nan), np.ones(n, bool))
        result = MethodResult(track, separation._region_table(mode_f0, rows), cands)
        regions = classify_frames_loop(mode_f0, rows)
        folded = fold_loop(cands, regions)
        assert {r.region for r in regions} == {LOW, HIGH}
        assert any(r.selected_imfs is None for r in regions)
        assert repr(result.regions) == repr(tuple(regions))
        assert repr(result.diagnostics) == repr(tuple(
            diagnostic_oracle(cands[r.frame_index], folded[r.frame_index], r)
            for r in regions))
        assert any(d.out_of_model for d in result.diagnostics)
        assert MethodResult(track).regions == () and MethodResult(track).diagnostics == ()


class TestFrequencyRegionType:
    def test_rejects_equal_pair(self):
        with pytest.raises(ValueError):
            FrequencyRegion(frame_index=0, region=LOW, mean_f0=100.0,
                            selected_imfs=(2, 2))

    def test_rejects_negative_frame_index(self):
        with pytest.raises(ValueError, match="frame_index must be non-negative"):
            FrequencyRegion(frame_index=-3, region=LOW, mean_f0=1.0, selected_imfs=(1, 2))

    def test_rejects_unknown_region(self):
        with pytest.raises(ValueError):
            FrequencyRegion(frame_index=0, region="mid", mean_f0=100.0,
                            selected_imfs=(1, 2))
