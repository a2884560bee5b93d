"""Acceptance gate: one test per criterion, each printing a PASS line.

Exact published-benchmark error tables are not reproducible here (licensed
speech corpora and external baseline internals are unavailable); the
criteria below substitute property checks and a directional synthetic
benchmark at desk scale. Run with `pytest tests/test_acceptance.py -s`.
"""
import itertools
import math
import time

import numpy as np
import pytest

from conftest import FS
from modepitch.audio import NoisyMix, SampleBuffer, measured_snr_db, mix_at_snr
from modepitch.corpus import (
    CorpusItem,
    SynthUtteranceSpec,
    make_noise,
    synthesize_utterance,
    write_noise_set,
    generate_corpus,
    load_manifest,
)
from modepitch.emd import EmdConfig, eemd_decompose, emd_decompose
from modepitch.estimators import FRAME_ESTIMATORS, EstimatorConfig, hht_candidates, pick
from modepitch.evaluation import (
    gross_error,
    mean_absolute_error,
    run_benchmark,
    write_report_csv,
)
from modepitch.separation import (
    HIGH,
    LOW,
    AnalysisConfig,
    correct_candidate,
    distance_matrix,
    select_imf_pair,
)
from modepitch.audio import FrameSpec, frame_signal
from modepitch.track import FramePitchTrack


def _report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_c1_paper_grid_shape(tmp_path):
    """6 noises x 5 SNRs x {raw, pro} x {shr, swipe, hht}: one row per cell."""
    spec = SynthUtteranceSpec(f0_contour=((0, 160.0), (300, 170.0)),
                              duration_ms=300.0, rng_seed=0)
    buf, truth = synthesize_utterance(spec)
    corpus = [CorpusItem("u0", buf, truth)]
    kinds = ("white", "pink", "babble", "hum", "bursts", "shaped")
    noises = [(k, make_noise(k, 2 * FS, FS, seed=i)) for i, k in enumerate(kinds)]
    snrs = [-15.0, -10.0, -5.0, 0.0, 5.0]
    estimators = ["shr", "swipe", "hht"]
    methods = ["raw", "pro"]
    cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=2, rng_seed=0))
    reports, failures = run_benchmark(corpus, noises, snrs, estimators,
                                      methods, cfg, seed=0, jobs=2)
    expected = len(noises) * len(snrs) * len(estimators) * len(methods)
    path = tmp_path / "grid.csv"
    write_report_csv(path, reports)
    rows = path.read_text().splitlines()
    ok = (len(reports) + len(failures) == expected and len(failures) == 0
          and len(rows) == expected + 1)
    _report("C1 paper-grid shape", ok,
            f"{len(reports)} cells (+{len(failures)} recorded failures) of "
            f"{expected}; exact published tables not reproducible at desk "
            "scale, property suite substitutes")


def test_c2_correction_exactness():
    """Exhaustive 0.1 Hz sweep of the correction map vs a transcription oracle."""
    def oracle(f, region):
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

    start = time.monotonic()
    grid = np.arange(500, 16001) * 0.1  # 50.0 .. 1600.0 Hz inclusive
    mismatches = 0
    for f in grid:
        f = float(f)
        if correct_candidate(f, LOW) != oracle(f, LOW):
            mismatches += 1
        if correct_candidate(f, HIGH) != oracle(f, HIGH):
            mismatches += 1
    elapsed = time.monotonic() - start
    _report("C2 correction-map exactness", mismatches == 0 and elapsed < 1.0,
            f"{len(grid)} grid points x 2 regions, {mismatches} mismatches, "
            f"{elapsed:.2f}s")


def test_c3_distance_and_selection_exactness():
    """10,000 random vectors: matrix symmetry and brute-force pair agreement."""
    start = time.monotonic()
    gen = np.random.default_rng(0)
    mismatches = 0
    for _ in range(10_000):
        v = gen.uniform(30.0, 500.0, size=4)
        d = distance_matrix(v)
        if not np.array_equal(d, d.T) or np.any(np.diag(d) != 0):
            mismatches += 1
            continue
        sums = d.sum(axis=1)
        best = min(itertools.combinations(range(4), 2),
                   key=lambda ij: (sums[ij[0]] + sums[ij[1]], ij))
        if select_imf_pair(d)[0] != (best[0] + 1, best[1] + 1):
            mismatches += 1
    elapsed = time.monotonic() - start
    _report("C3 distance/selection exactness", mismatches == 0 and elapsed < 5.0,
            f"10000 vectors, {mismatches} mismatches, {elapsed:.2f}s")


def test_c4_reconstruction():
    """Plain decomposition reconstructs exactly; the noise ensemble stays
    within its injected-noise floor."""
    start = time.monotonic()
    gen = np.random.default_rng(1)
    worst_plain = 0.0
    for _ in range(100):
        n = int(gen.integers(512, 8193))
        x = gen.standard_normal(n)
        imfs = emd_decompose(SampleBuffer(x, FS), EmdConfig())
        err = np.linalg.norm(imfs.reconstruct() - x) / np.linalg.norm(x)
        worst_plain = max(worst_plain, err)

    ratio, trials = 0.2, 100
    bound = 3 * ratio / math.sqrt(trials)
    worst_ensemble = 0.0
    for seed in range(3):
        x = np.random.default_rng(100 + seed).standard_normal(2048)
        out = eemd_decompose(SampleBuffer(x, FS),
                             EmdConfig(ensemble_size=trials,
                                       wgn_std_ratio=ratio, rng_seed=seed))
        err = np.linalg.norm(out.reconstruct() - x) / np.linalg.norm(x)
        worst_ensemble = max(worst_ensemble, err)
    elapsed = time.monotonic() - start
    ok = worst_plain <= 1e-9 and worst_ensemble <= bound and elapsed < 60.0
    _report("C4 reconstruction", ok,
            f"plain worst {worst_plain:.2e} (<=1e-9), ensemble worst "
            f"{worst_ensemble:.4f} (<= {bound}), {elapsed:.1f}s")


def test_c5_metric_oracles():
    """GE and MAE match naive per-frame counting on 1,000 random pairs."""
    start = time.monotonic()
    gen = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(3, 40))
        ref_f0 = gen.uniform(60, 380, n)
        est_f0 = ref_f0 * gen.uniform(0.5, 2.0, n)
        est_f0[gen.random(n) < 0.15] = np.nan
        voiced = gen.random(n) < 0.85
        if not voiced.any():
            voiced[0] = True
        times = np.arange(n) * 10.0
        ref = FramePitchTrack(times, ref_f0, voiced)
        est = FramePitchTrack(times, est_f0, np.isfinite(est_f0))

        total = errors = 0
        values = []
        for e, r, v in zip(est_f0, ref_f0, voiced):
            if not v:
                continue
            total += 1
            usable = np.isfinite(e) and e > 0
            if not usable:
                errors += 1
            elif abs(e - r) / r > 0.20:
                errors += 1
            if v and usable:
                values.append(abs(e - r))
        worst = max(worst, abs(gross_error(est, ref) - 100.0 * errors / total))
        if values:
            worst = max(worst, abs(mean_absolute_error(est, ref) -
                                   sum(values) / len(values)))
    elapsed = time.monotonic() - start
    _report("C5 metric oracles", worst <= 1e-12 and elapsed < 1.0,
            f"1000 pairs, worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_c6_synthetic_end_to_end_improvement():
    """Separate-and-correct beats raw envelope-ACF tracking in every cell,
    and separation errors stay inside the stated bounds."""
    start = time.monotonic()
    gen = np.random.default_rng(3)
    corpus = []
    for i in range(20):
        low = i < 10
        if low:
            base = float(gen.uniform(95, 175))
            cap = 195.0
        else:
            base = float(gen.uniform(225, 340))
            cap = 395.0
        knots = ((0.0, base), (300.0, float(min(cap, base * 1.08))),
                 (600.0, base))
        spec = SynthUtteranceSpec(f0_contour=knots, duration_ms=600.0,
                                  jitter_pct=0.5, rng_seed=500 + i)
        buf, truth = synthesize_utterance(spec)
        corpus.append(CorpusItem(f"u{i:02d}", buf, truth))

    noises = [("white", make_noise("white", 3 * FS, FS, seed=7)),
              ("babble", make_noise("babble", 3 * FS, FS, seed=8))]
    snrs = [-5.0, 0.0, 5.0]
    cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=20, rng_seed=1))
    reports, failures = run_benchmark(corpus, noises, snrs, ["hht"],
                                      ["raw", "pro"], cfg, seed=0, jobs=2)
    assert not failures, failures
    cells = {(r.noise, r.snr_db, r.method): r for r in reports}
    improvement_ok = True
    sep_ok = True
    lines = []
    for noise_name, _ in noises:
        for snr in snrs:
            raw = cells[(noise_name, snr, "raw")]
            pro = cells[(noise_name, snr, "pro")]
            if not pro.ge_percent < raw.ge_percent:
                improvement_ok = False
            if snr == 0.0 and not pro.sep_error_percent <= 15.0:
                sep_ok = False
            if snr == 5.0 and not pro.sep_error_percent <= 10.0:
                sep_ok = False
            lines.append(f"{noise_name}@{snr:+.0f}dB GE {raw.ge_percent:.1f}"
                         f"->{pro.ge_percent:.1f} sep {pro.sep_error_percent:.1f}%")
    elapsed = time.monotonic() - start
    ok = improvement_ok and sep_ok and elapsed < 600.0
    _report("C6 synthetic end-to-end improvement", ok,
            "; ".join(lines) + f"; {elapsed:.0f}s")


def test_c7_estimator_sanity():
    """Each estimator holds >= 95% of frames within 20% on clean vowels."""
    start = time.monotonic()
    cfg = EstimatorConfig()
    results = []
    ok = True
    for f0_true in (120.0, 280.0):
        spec = SynthUtteranceSpec(f0_contour=((0, f0_true), (600, f0_true)),
                                  duration_ms=600.0, jitter_pct=0.0, rng_seed=4)
        buf, _ = synthesize_utterance(spec)
        frames = frame_signal(buf, FrameSpec())
        for name in ("pefac", "shr", "swipe"):
            est = np.array([FRAME_ESTIMATORS[name](fr, cfg).f0_hz
                            for fr in frames])
            frac = float(np.mean(np.abs(est - f0_true) / f0_true <= 0.20))
            results.append(f"{name}@{f0_true:.0f}:{100 * frac:.0f}%")
            ok &= frac >= 0.95
        imfs = eemd_decompose(buf, EmdConfig(ensemble_size=10, rng_seed=0))
        picks = pick(hht_candidates(imfs, cfg))
        frac = float(np.mean(np.abs(picks - f0_true) / f0_true <= 0.20))
        results.append(f"hht@{f0_true:.0f}:{100 * frac:.0f}%")
        ok &= frac >= 0.95
    elapsed = time.monotonic() - start
    _report("C7 estimator sanity", ok and elapsed < 60.0,
            " ".join(results) + f"; {elapsed:.1f}s")


def test_c8_snr_mixing_exactness():
    """500 random (clean, noise, snr) triples land within 0.01 dB."""
    start = time.monotonic()
    gen = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        n = int(gen.integers(800, 4000))
        clean = SampleBuffer(gen.standard_normal(n) + 0.01, FS)
        noise = SampleBuffer(gen.standard_normal(int(n * 1.5)) + 0.01, FS)
        snr = float(gen.uniform(-30.0, 30.0))
        mixed = mix_at_snr(NoisyMix(clean, noise, snr, seed=int(gen.integers(1e6))))
        worst = max(worst, abs(measured_snr_db(mixed, clean) - snr))
    elapsed = time.monotonic() - start
    _report("C8 SNR mixing exactness", worst <= 0.01 and elapsed < 5.0,
            f"500 triples, worst |error| {worst:.2e} dB, {elapsed:.2f}s")


def test_c9_benchmark_determinism(tmp_path):
    """Two identically seeded benchmark runs emit byte-identical CSVs."""
    corpus_dir = tmp_path / "corpus"
    manifest = generate_corpus(corpus_dir, count=2, seed=9, duration_ms=400.0)
    corpus = load_manifest(manifest)
    noise_dir = tmp_path / "noises"
    paths = write_noise_set(noise_dir, kinds=("white", "babble"),
                            duration_ms=1500.0, seed=2)
    from modepitch.audio import load_wav
    noises = [(k, load_wav(p)) for k, p in sorted(paths.items())]
    cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=4, rng_seed=2))
    blobs = []
    for run in range(2):
        reports, failures = run_benchmark(corpus, noises, [0.0, 5.0],
                                          ["shr", "hht"], ["raw", "pro"],
                                          cfg, seed=11, jobs=2)
        assert not failures
        path = tmp_path / f"run{run}.csv"
        write_report_csv(path, reports)
        blobs.append(path.read_bytes())
    _report("C9 benchmark determinism", blobs[0] == blobs[1],
            f"{len(blobs[0])} bytes, byte-identical={blobs[0] == blobs[1]}")
