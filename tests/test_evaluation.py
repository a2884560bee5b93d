import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FS
from modepitch.audio import SampleBuffer
from modepitch.corpus import CorpusItem, SynthUtteranceSpec, make_noise, synthesize_utterance
from modepitch.emd import EmdConfig
from modepitch.evaluation import (
    CSV_SCHEMA,
    EvalReport,
    gross_error,
    mean_absolute_error,
    run_benchmark,
    separation_error,
    write_report_csv,
)
from modepitch.separation import HIGH, LOW, AnalysisConfig, FrequencyRegion
from modepitch.track import FramePitchTrack


def track(f0s, voiced=None, times=None):
    f0s = np.asarray(f0s, dtype=float)
    if voiced is None:
        voiced = np.isfinite(f0s)
    if times is None:
        times = np.arange(len(f0s)) * 10.0
    return FramePitchTrack(frame_times_ms=np.asarray(times, dtype=float),
                           f0_hz=f0s, voiced_mask=np.asarray(voiced, dtype=bool))


def naive_gross_error(est, ref, gate_mask):
    """Per-frame counting oracle for the 20% rule."""
    total = errors = 0
    for e, r, gated in zip(est.f0_hz, ref.f0_hz, gate_mask):
        if not gated:
            continue
        total += 1
        if not (np.isfinite(e) and e > 0 and np.isfinite(r) and r > 0):
            errors += 1
        elif abs(e - r) / r > 0.20:
            errors += 1
    return 100.0 * errors / total


def naive_mae(est, ref):
    values = []
    for e, r, v in zip(est.f0_hz, ref.f0_hz, ref.voiced_mask):
        if v and np.isfinite(e) and e > 0 and np.isfinite(r) and r > 0:
            values.append(abs(e - r))
    return sum(values) / len(values)


class TestFramePitchTrack:
    @pytest.mark.parametrize("f0s", [[100.0, -50.0, 0.0], [0.0], [-np.inf, 100.0]])
    def test_non_positive_f0_rejected(self, f0s):
        # NaN is the only no-estimate marker; zero or a negative F0 is an error
        with pytest.raises(ValueError, match="positive"):
            track(f0s, voiced=[True] * len(f0s))

    def test_nan_marks_no_estimate(self):
        t = track([100.0, np.nan, 250.0], voiced=[True, True, False])
        np.testing.assert_array_equal(t.estimated_mask(), [True, False, True])


class TestGrossError:
    def test_perfect_track_zero(self):
        ref = track([100.0] * 10)
        assert gross_error(ref, ref) == 0.0

    def test_19_percent_deviation_not_an_error(self):
        ref = track([100.0] * 8)
        est = track([119.0] * 8)
        assert gross_error(est, ref) == 0.0

    def test_exactly_20_percent_not_an_error(self):
        ref = track([100.0] * 4)
        est = track([120.0] * 4)
        assert gross_error(est, ref) == 0.0

    def test_three_of_ten_doubled(self):
        ref = track([100.0] * 10)
        est = track([200.0] * 3 + [100.0] * 7)
        assert gross_error(est, ref) == pytest.approx(30.0)

    def test_missing_estimates_count_as_errors(self):
        ref = track([100.0] * 4)
        est = track([100.0, np.nan, 100.0, np.nan],
                    voiced=[True, True, True, True])
        assert gross_error(est, ref) == pytest.approx(50.0)

    def test_detected_gate(self):
        ref = track([100.0] * 4)
        est = track([100.0, 130.0, np.nan, 100.0],
                    voiced=[True, True, False, False])
        # detected gate scores only the first two frames
        assert gross_error(est, ref, gate="detected_voiced") == pytest.approx(50.0)

    def test_no_gated_frames_rejected(self):
        ref = track([np.nan] * 3, voiced=[False] * 3)
        with pytest.raises(ValueError):
            gross_error(ref, ref)

    def test_misaligned_tracks_rejected(self):
        ref = track([100.0] * 5)
        est = track([100.0] * 6)
        with pytest.raises(ValueError):
            gross_error(est, ref)

    def test_permutation_invariance(self, rng):
        n = 40
        ref_f0 = rng.uniform(80, 300, n)
        est_f0 = ref_f0 * rng.uniform(0.7, 1.3, n)
        ref = track(ref_f0)
        est = track(est_f0)
        base = gross_error(est, ref)
        perm = rng.permutation(n)
        assert gross_error(track(est_f0[perm]), track(ref_f0[perm])) == \
            pytest.approx(base)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_matches_counting_oracle(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(3, 60))
        ref_f0 = gen.uniform(60, 380, n)
        est_f0 = ref_f0 * gen.uniform(0.5, 2.0, n)
        est_f0[gen.random(n) < 0.2] = np.nan
        voiced = gen.random(n) < 0.8
        if not voiced.any():
            voiced[0] = True
        ref = track(ref_f0, voiced=voiced)
        est = track(est_f0, voiced=np.isfinite(est_f0))
        assert gross_error(est, ref) == pytest.approx(
            naive_gross_error(est, ref, voiced), abs=1e-12)


class TestMae:
    def test_perfect_zero(self):
        ref = track([150.0] * 6)
        assert mean_absolute_error(ref, ref) == 0.0

    def test_hand_sum(self):
        ref = track([100.0] * 4)
        est = track([90.0, 110.0, 100.0, 140.0])
        assert mean_absolute_error(est, ref) == pytest.approx(15.0)

    def test_single_frame(self):
        assert mean_absolute_error(track([105.0]), track([100.0])) == \
            pytest.approx(5.0)

    def test_skips_missing_estimates(self):
        ref = track([100.0] * 3)
        est = track([110.0, np.nan, 90.0], voiced=[True] * 3)
        assert mean_absolute_error(est, ref) == pytest.approx(10.0)

    def test_no_scorable_frames_rejected(self):
        ref = track([100.0] * 3)
        est = track([np.nan] * 3, voiced=[True] * 3)
        with pytest.raises(ValueError):
            mean_absolute_error(est, ref)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_matches_summation_oracle(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 50))
        ref_f0 = gen.uniform(60, 380, n)
        est_f0 = ref_f0 + gen.normal(0, 30, n)
        est_f0 = np.abs(est_f0) + 1.0
        est_f0[gen.random(n) < 0.15] = np.nan
        if not np.isfinite(est_f0).any():
            est_f0[0] = 100.0
        ref = track(ref_f0)
        est = track(est_f0, voiced=np.isfinite(est_f0))
        assert mean_absolute_error(est, ref) == pytest.approx(
            naive_mae(est, ref), abs=1e-12)


class TestSeparationError:
    def _regions(self, labels):
        return [FrequencyRegion(frame_index=i, region=lab, mean_f0=math.nan,
                                selected_imfs=None)
                for i, lab in enumerate(labels)]

    def test_perfect_zero(self):
        ref = track([150.0, 150.0, 300.0, 300.0])
        preds = self._regions([LOW, LOW, HIGH, HIGH])
        assert separation_error(preds, ref) == 0.0

    def test_total_miss(self):
        ref = track([300.0] * 5)
        preds = self._regions([LOW] * 5)
        assert separation_error(preds, ref) == 100.0

    def test_two_of_ten_wrong(self):
        ref = track([100.0] * 10)
        preds = self._regions([LOW] * 8 + [HIGH] * 2)
        assert separation_error(preds, ref) == pytest.approx(20.0)

    def test_boundary_200_is_low(self):
        # the default boundary is ProConfig's gamma: 200 Hz is low, above is high
        ref = track([200.0])
        assert separation_error(self._regions([LOW]), ref) == 0.0
        assert separation_error(self._regions([HIGH]), ref) == 100.0
        assert separation_error(self._regions([HIGH]), track([200.5])) == 0.0
        # a reference of exactly a given gamma is low too
        assert separation_error(self._regions([LOW]), track([150.0]), 150.0) == 0.0
        assert separation_error(self._regions([HIGH]), track([150.5]), 150.0) == 0.0

    def test_unvoiced_frames_not_scored(self):
        ref = track([100.0, np.nan, 100.0], voiced=[True, False, True])
        preds = self._regions([LOW, HIGH, LOW])
        assert separation_error(preds, ref) == 0.0

    def test_no_scored_frames_rejected(self):
        ref = track([np.nan], voiced=[False])
        with pytest.raises(ValueError):
            separation_error(self._regions([LOW]), ref)


def small_corpus(n=2, duration_ms=400.0):
    items = []
    for i in range(n):
        f0 = 150.0 if i % 2 == 0 else 280.0
        spec = SynthUtteranceSpec(f0_contour=((0, f0), (duration_ms, f0)),
                                  duration_ms=duration_ms, rng_seed=60 + i)
        buf, truth = synthesize_utterance(spec)
        items.append(CorpusItem(f"u{i}", buf, truth))
    return items


FAST_CFG = AnalysisConfig(emd=EmdConfig(ensemble_size=4, rng_seed=0))


class TestRunBenchmark:
    def test_report_counts(self):
        corpus = small_corpus(1)
        noises = [("white", make_noise("white", 2 * FS, FS, seed=1))]
        reports, failures = run_benchmark(corpus, noises, [5.0], ["shr"],
                                          ["raw", "pro"], FAST_CFG, seed=0)
        assert len(reports) == 2
        assert not failures
        methods = {r.method for r in reports}
        assert methods == {"raw", "pro"}

    def test_grid_product_rows(self):
        corpus = small_corpus(1)
        noises = [(k, make_noise(k, 2 * FS, FS, seed=i))
                  for i, k in enumerate(("white", "pink"))]
        reports, failures = run_benchmark(corpus, noises, [0.0, 5.0],
                                          ["shr", "swipe"], ["raw"],
                                          FAST_CFG, seed=0)
        assert len(reports) + len(failures) == 2 * 2 * 2 * 1

    def test_deterministic(self):
        corpus = small_corpus(1)
        noises = [("white", make_noise("white", 2 * FS, FS, seed=1))]
        a, _ = run_benchmark(corpus, noises, [0.0], ["shr"], ["raw"],
                             FAST_CFG, seed=7)
        b, _ = run_benchmark(corpus, noises, [0.0], ["shr"], ["raw"],
                             FAST_CFG, seed=7)
        assert a == b

    def test_two_jobs_match_one_job(self, tmp_path):
        # workers must change only where a cell runs, never its report
        corpus = small_corpus(2)
        noises = [(k, make_noise(k, 2 * FS, FS, seed=i))
                  for i, k in enumerate(("white", "babble"))]
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=2, rng_seed=0))
        blobs = []
        for jobs in (1, 2):
            reports, failures = run_benchmark(corpus, noises, [0.0], ["shr", "hht"],
                                              ["raw", "pro"], cfg, seed=3, jobs=jobs)
            assert not failures
            path = tmp_path / f"jobs{jobs}.csv"
            write_report_csv(path, reports)
            blobs.append(path.read_bytes())
        assert len(blobs[0].splitlines()) == 1 + 2 * 1 * 2 * 2
        assert blobs[0] == blobs[1]

    def test_noise_resampled_once_per_rate(self, monkeypatch):
        # 16 kHz utterances with 8 kHz noise: each noise is resampled once,
        # and the reports equal those of resampling inside every mix
        from modepitch import audio, evaluation
        corpus = [CorpusItem(f"u{i}", *synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, f0), (300, f0)), duration_ms=300, rng_seed=70 + i,
            sample_rate_hz=16000))) for i, f0 in enumerate((150.0, 280.0))]
        noises = [(k, make_noise(k, 2 * FS, FS, seed=i))
                  for i, k in enumerate(("white", "pink"))]
        calls = []
        real_resample = audio.resample

        def counting(buf, target_hz):
            calls.append(target_hz)
            return real_resample(buf, target_hz)
        monkeypatch.setattr(audio, "resample", counting)
        monkeypatch.setattr(evaluation, "resample", counting)
        args = (corpus, noises, [0.0, 5.0], ["shr"], ["raw", "pro"], FAST_CFG)
        reports, failures = run_benchmark(*args, seed=3)
        assert calls == [16000] * len(noises)
        assert not failures and len(reports) == 2 * 2 * 2

        calls.clear()
        monkeypatch.setattr(evaluation, "noise_at_rates",
                            lambda noise, corpus: {16000: noise})
        per_mix, _ = run_benchmark(*args, seed=3)
        assert len(calls) == len(noises) * 2 * len(corpus)
        assert repr(reports) == repr(per_mix)

    def test_pool_never_larger_than_the_corpus(self, monkeypatch):
        # the pool starts every worker up front, so it is sized to the
        # utterances a cell has, and one utterance needs no pool at all;
        # run_benchmark imports the pool class when it needs one
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, tasks):
                return map(fn, tasks)

            def shutdown(self):
                pass
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        noises = [("white", make_noise("white", 2 * FS, FS, seed=1))]
        args = (noises, [5.0], ["shr"], ["raw"], FAST_CFG)
        pooled, failures = run_benchmark(small_corpus(2), *args, jobs=10_000)
        assert sizes == [2] and not failures
        serial, _ = run_benchmark(small_corpus(2), *args, jobs=1)
        assert repr(pooled) == repr(serial)
        run_benchmark(small_corpus(1), *args, jobs=4)
        assert sizes == [2]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        noises = [("white", make_noise("white", 2 * FS, FS, seed=1))]
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}$"):
            run_benchmark(small_corpus(1), noises, [5.0], ["shr"], ["raw"],
                          FAST_CFG, jobs=jobs)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([], [("white", make_noise("white", FS, FS))],
                          [0.0], ["shr"], ["raw"], FAST_CFG)

    @pytest.mark.parametrize("estimators,methods,match", [
        (["shr", "yin"], ["raw"], "unknown estimator 'yin'"),
        (["shr"], ["raw", "dcnn"], "unknown method 'dcnn'")])
    def test_unknown_names_rejected_before_mixing(self, monkeypatch, estimators,
                                                  methods, match):
        from modepitch import evaluation

        def no_mixing(mix):
            raise AssertionError("mixed before the names were checked")
        monkeypatch.setattr(evaluation, "mix_at_snr", no_mixing)
        noises = [("white", make_noise("white", 2 * FS, FS, seed=1))]
        with pytest.raises(ValueError, match=match):
            run_benchmark(small_corpus(1), noises, [5.0], estimators, methods,
                          FAST_CFG)

    @pytest.mark.parametrize("noise_names,snrs,estimators,match", [
        (["white", "white"], [5.0], ["shr"], "noise 'white' is listed twice"),
        (["white"], [0.0, 5.0, 0.0], ["shr"], "SNR 0.0 is listed twice"),
        (["white"], [math.inf, math.inf], ["shr"], "SNR inf is listed twice"),
        (["white"], [5.0], ["swipe", "swipe"], "estimator 'swipe' is listed twice")])
    def test_repeated_grid_values_rejected_before_mixing(self, monkeypatch, noise_names,
                                                         snrs, estimators, match):
        # a repeat would report the same cell twice with different numbers,
        # since the mixing seeds follow the noise and SNR indices
        from modepitch import evaluation

        def no_mixing(mix):
            raise AssertionError("mixed before the grid was checked")
        monkeypatch.setattr(evaluation, "mix_at_snr", no_mixing)
        noise = make_noise("white", 2 * FS, FS, seed=1)
        with pytest.raises(ValueError, match=f"^{match}$"):
            run_benchmark(small_corpus(1), [(name, noise) for name in noise_names], snrs,
                          estimators, ["raw"], FAST_CFG)

    def test_unknown_gate_rejected_before_analysis(self, monkeypatch):
        # like an unknown name, an unknown gate must fail the run at once,
        # not once per utterance after every analysis
        from modepitch import evaluation

        def no_analysis(*args):
            raise AssertionError("analyzed before the gate was checked")
        monkeypatch.setattr(evaluation, "analyze_utterance", no_analysis)
        noises = [("white", make_noise("white", 2 * FS, FS, seed=1))]
        with pytest.raises(ValueError, match="^unknown gate 'voiced'$"):
            run_benchmark(small_corpus(1), noises, [5.0], ["shr"], ["raw"],
                          FAST_CFG, gate="voiced")

    def test_failures_recorded_not_fatal(self):
        # an unmixable (all-zero) utterance is recorded as a failure of its
        # cell, while the run and the other utterance's scores survive
        from modepitch.audio import SampleBuffer
        silent_truth = track([100.0] * 5)
        corpus = small_corpus(1) + [
            CorpusItem("silent", SampleBuffer(np.zeros(FS), FS), silent_truth)]
        noises = [("white", make_noise("white", 2 * FS, FS, seed=1))]
        reports, failures = run_benchmark(corpus, noises, [5.0], ["shr"],
                                          ["raw"], FAST_CFG, seed=0)
        assert len(reports) == 1  # cell still reported from the good utterance
        assert len(failures) == 1
        assert failures[0].reason.startswith("silent: ")
        assert "SNR undefined" in failures[0].reason

    def test_all_utterances_failing_marks_cell(self):
        from modepitch.audio import SampleBuffer
        silent_truth = track([100.0] * 5)
        corpus = [CorpusItem("silent", SampleBuffer(np.zeros(FS), FS),
                             silent_truth)]
        noises = [("white", make_noise("white", 2 * FS, FS, seed=1))]
        reports, failures = run_benchmark(corpus, noises, [5.0], ["shr"],
                                          ["raw"], FAST_CFG, seed=0)
        assert not reports
        assert len(failures) == 1
        assert "SNR undefined" in failures[0].reason

    def test_undefined_separation_error_is_nan_not_a_failure(self):
        # a 600 ms 150 Hz vowel whose reference is voiced on its last 3 frames
        # only, with those samples zeroed: no classified frame is reference
        # voiced, so its separation error is undefined, and it is left out of
        # the cell mean as an undefined MAE is; every key is still scored
        # (the whole utterance used to be recorded as failed)
        clean, truth = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 150.0),), duration_ms=600.0))
        voiced = np.arange(len(truth)) >= len(truth) - 3
        hop = round(AnalysisConfig.frame.hop_ms * FS / 1000)
        samples = clean.samples.copy()
        samples[(len(truth) - 3) * hop:] = 0.0
        probe = CorpusItem("probe", SampleBuffer(samples, FS),
                           track(np.where(voiced, truth.f0_hz, np.nan), voiced))
        good = small_corpus(1)
        noises = [("white", make_noise("white", 2 * FS, FS, seed=0))]
        cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=2))
        grid = (noises, [20.0], ["shr"], ["raw", "pro"], cfg)
        reports, failures = run_benchmark([probe], *grid)
        assert failures == []
        assert [(r.method, r.ge_percent, r.frames_scored) for r in reports] == \
            [("raw", 100.0, 3), ("pro", 100.0, 3)]
        assert all(math.isnan(r.mae_hz) and math.isnan(r.sep_error_percent)
                   for r in reports)
        alone = run_benchmark(good, *grid)[0][1]  # the pro cells
        both = run_benchmark(good + [probe], *grid)[0][1]
        assert both.sep_error_percent == alone.sep_error_percent
        assert both.mae_hz == alone.mae_hz
        assert both.ge_percent == pytest.approx((alone.ge_percent + 100.0) / 2)

    def test_csv_schema(self, tmp_path):
        report = EvalReport(noise="white", snr_db=-5.0, estimator="shr",
                            method="raw", ge_percent=12.5, mae_hz=8.25,
                            sep_error_percent=math.nan, frames_scored=120)
        path = tmp_path / "report.csv"
        write_report_csv(path, [report])
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_SCHEMA
        assert lines[0] == ("noise,snr_db,estimator,method,ge_percent,"
                            "mae_hz,sep_error_percent,frames")
        assert lines[1] == "white,-5,shr,raw,12.5000,8.2500,,120"
