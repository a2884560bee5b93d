"""Scoring (gross error, MAE, separation error) and batch benchmarking."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import NoisyMix, SampleBuffer, _snr_power_ratio, mix_at_snr, resample
from .corpus import CorpusItem
from .separation import (
    AnalysisConfig,
    FrequencyRegion,
    ProConfig,
    analyze_utterance,
    check_keys,
    region_of,
)
from .track import FramePitchTrack, has_estimate, tracks_aligned

GE_DEVIATION_THRESHOLD = 0.20
CSV_SCHEMA = "noise,snr_db,estimator,method,ge_percent,mae_hz,sep_error_percent,frames"
CSV_SCHEMA_VERSION = 1
GATES = ("ref_voiced", "detected_voiced")  # which voicing gates the GE denominator


@dataclass(frozen=True)
class EvalReport:
    """Scores for one (noise, SNR, estimator, method) cell; a NaN score is undefined."""

    noise: str
    snr_db: float
    estimator: str
    method: str
    ge_percent: float
    mae_hz: float
    sep_error_percent: float  # NaN also for methods without region predictions
    frames_scored: int

    def __post_init__(self):
        if not 0.0 <= self.ge_percent <= 100.0:
            raise ValueError("ge_percent must lie in [0, 100]")
        if not (math.isnan(self.mae_hz) or self.mae_hz >= 0.0):
            raise ValueError("mae_hz must be non-negative")
        if self.frames_scored <= 0:
            raise ValueError("a reportable cell needs frames_scored > 0")

    def csv_row(self) -> str:
        ge, mae, sep = ("" if math.isnan(x) else f"{x:.4f}"
                        for x in (self.ge_percent, self.mae_hz, self.sep_error_percent))
        return (f"{self.noise},{self.snr_db:g},{self.estimator},{self.method},"
                f"{ge},{mae},{sep},{self.frames_scored}")


@dataclass(frozen=True)
class BenchFailure:
    noise: str
    snr_db: float
    estimator: str
    method: str
    reason: str


def _gate_mask(est: FramePitchTrack, ref: FramePitchTrack, gate: str) -> np.ndarray:
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    return (ref if gate == "ref_voiced" else est).voiced_mask.copy()


def gross_error(est: FramePitchTrack, ref: FramePitchTrack,
                gate: str = "ref_voiced") -> float:
    """Percent of gated voiced frames whose estimate misses the reference
    by more than 20%, or is missing entirely.

    Gated frames without a usable reference value (possible under the
    detected_voiced gate) count as errors: a voicing false alarm has no
    correct pitch.
    """
    if not tracks_aligned(est, ref):
        raise ValueError("tracks are not on the same frame grid")
    gated = _gate_mask(est, ref, gate)
    total = int(gated.sum())
    if total == 0:
        raise ValueError("no gated voiced frames to score")
    est_ok = est.estimated_mask()
    ref_ok = has_estimate(ref.f0_hz)
    scorable = gated & est_ok & ref_ok
    with np.errstate(invalid="ignore"):
        deviation = np.abs(est.f0_hz - ref.f0_hz) / ref.f0_hz
    errors = int(np.sum(scorable & (deviation > GE_DEVIATION_THRESHOLD)))
    errors += int(np.sum(gated & ~(est_ok & ref_ok)))
    return 100.0 * errors / total


def mean_absolute_error(est: FramePitchTrack, ref: FramePitchTrack) -> float:
    """Mean |estimate - reference| in Hz over reference-voiced frames where
    both tracks carry an estimate; NaN (undefined) where there is none."""
    if not tracks_aligned(est, ref):
        raise ValueError("tracks are not on the same frame grid")
    scorable = ref.voiced_mask & est.estimated_mask() & has_estimate(ref.f0_hz)
    if not scorable.any():
        return math.nan
    return float(np.mean(np.abs(est.f0_hz[scorable] - ref.f0_hz[scorable])))


def separation_error(pred_regions: list[FrequencyRegion], ref: FramePitchTrack,
                     gamma_hz: float = ProConfig.gamma_hz) -> float:
    """Percent of the predicted frames reference voiced with a reference F0
    whose region disagrees with that F0's (a reference at gamma is low); NaN
    (undefined) where there is none. An index past the reference raises."""
    scored = 0
    wrong = 0
    ref_ok = has_estimate(ref.f0_hz)
    for region in pred_regions:
        i = region.frame_index
        if i >= len(ref):
            raise ValueError(f"predicted frame {i} is past the reference's {len(ref)} frames")
        if not ref.voiced_mask[i] or not ref_ok[i]:
            continue
        scored += 1
        if region.region != region_of(ref.f0_hz[i], gamma_hz):
            wrong += 1
    return 100.0 * wrong / scored if scored else math.nan


# ---------------------------------------------------------------------------
# Benchmark orchestration
# ---------------------------------------------------------------------------

def mix_seed(base_seed: int, noise_idx: int, snr_idx: int, utt_idx: int) -> int:
    """Deterministic per-utterance mixing seed."""
    seq = np.random.SeedSequence((base_seed, noise_idx, snr_idx, utt_idx))
    return int(seq.generate_state(1)[0])


def noise_at_rates(noise: SampleBuffer, corpus: list[CorpusItem]
                   ) -> dict[int, SampleBuffer]:
    """The noise at each sample rate the corpus uses, resampled once per
    rate, so mixing it into an utterance of that rate needs no resample."""
    return {rate: resample(noise, rate)
            for rate in {item.audio.sample_rate_hz for item in corpus}}


def mix_cells(corpus: list[CorpusItem], noises: list[tuple[str, SampleBuffer]],
              snrs: list[float], seed: int = 0):
    """(noise name, snr, one NoisyMix per corpus item) per cell, noise-major.
    Each noise is resampled once per corpus rate, not once per mix, and the
    mixing seeds derive from (seed, noise, snr, utterance) indices only."""
    for n_i, (noise_name, noise_buf) in enumerate(noises):
        at_rate = noise_at_rates(noise_buf, corpus)
        for s_i, snr in enumerate(snrs):
            yield noise_name, snr, [
                NoisyMix(clean=item.audio, noise=at_rate[item.audio.sample_rate_hz],
                         snr_db=snr, seed=mix_seed(seed, n_i, s_i, u_i))
                for u_i, item in enumerate(corpus)]


def _bench_utterance(args):
    """One utterance under one (noise, snr): mix, analyze, score all keys.

    Module-level so a process pool can pickle it. Returns
    {key: (ge, mae, sep, frames)}, or an error string if any step raised.
    A MAE or separation error with nothing to score is its metric's NaN
    (raw keys carry no regions, so raw's separation error is NaN).
    """
    (item, mix, estimators, methods, cfg, gate) = args
    try:
        mixed = mix_at_snr(mix)
        analysis = analyze_utterance(mixed, estimators, methods, cfg)
        frames = int(item.truth.voiced_mask.sum())
        seps = {}  # scored once per method: every key of a method holds one table
        scores = {}
        for (est, meth), result in analysis.items():
            ge = gross_error(result.track, item.truth, gate)
            mae = mean_absolute_error(result.track, item.truth)
            if meth not in seps:
                seps[meth] = separation_error(result.regions, item.truth)
            scores[(est, meth)] = (ge, mae, seps[meth], frames)
        return scores
    except Exception as exc:  # noqa: BLE001 - cell failures are recorded, not fatal
        return f"{type(exc).__name__}: {exc}"


def run_benchmark(corpus: list[CorpusItem], noises: list[tuple[str, SampleBuffer]],
                  snrs: list[float], estimators: list[str], methods: list[str],
                  cfg: AnalysisConfig = AnalysisConfig(), seed: int = 0,
                  gate: str = "ref_voiced", jobs: int = 1
                  ) -> tuple[list[EvalReport], list[BenchFailure]]:
    """Evaluate the full (noise x SNR x estimator x method) grid.

    Each mixed utterance is analyzed once for all estimator/method keys, so
    method comparisons within a cell are paired on identical noisy audio.
    Each report averages the scores of the utterances that succeeded. Every
    failed utterance is recorded once per estimator/method key, with its
    reason prefixed by the corpus item name; a cell with no successful
    utterance is left out of the reports. An unknown name or gate, a grid
    value listed twice and an SNR _snr_power_ratio rejects raise before
    anything is mixed. The mixes are
    those of `mix_cells`, so the result is deterministic for a fixed seed.
    Utterances run in a pool of min(jobs, corpus size) worker processes, or
    in this process when that is 1.
    """
    if not corpus or not noises or not snrs or not estimators or not methods:
        raise ValueError("benchmark grids must be non-empty")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    check_keys(estimators, methods)
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    for kind, values in (("noise", [name for name, _ in noises]), ("SNR", snrs)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{kind} {value!r} is listed twice")
    for snr in snrs:
        _snr_power_ratio(snr)
    reports: list[EvalReport] = []
    failures: list[BenchFailure] = []
    # under fork the pool starts all its workers with the first task, and a
    # cell has one task per utterance
    workers = min(jobs, len(corpus))
    pool = None
    if workers > 1:
        # imported here: it loads multiprocessing, which no serial run needs
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for noise_name, snr, mixes in mix_cells(corpus, noises, snrs, seed):
            tasks = [(item, mix, estimators, methods, cfg, gate)
                     for item, mix in zip(corpus, mixes)]
            if pool is not None:
                outcomes = list(pool.map(_bench_utterance, tasks))
            else:
                outcomes = [_bench_utterance(t) for t in tasks]
            utt_errors = [f"{item.name}: {o}" for item, o in zip(corpus, outcomes)
                          if isinstance(o, str)]
            per_utt = [o for o in outcomes if not isinstance(o, str)]
            for est in estimators:
                for meth in methods:
                    failures += [BenchFailure(noise_name, snr, est, meth, reason)
                                 for reason in utt_errors]
                    cell = [u[(est, meth)] for u in per_utt]
                    if not cell:
                        continue
                    # each score's mean leaves out the utterances where it is NaN
                    defined = [[x for x in column if not math.isnan(x)]
                               for column in list(zip(*cell))[:3]]
                    ge, mae, sep = (float(np.mean(d)) if d else math.nan for d in defined)
                    reports.append(EvalReport(
                        noise=noise_name, snr_db=snr, estimator=est, method=meth,
                        ge_percent=ge, mae_hz=mae, sep_error_percent=sep,
                        frames_scored=sum(c[3] for c in cell)))
    finally:
        if pool is not None:
            pool.shutdown()
    return reports, failures


def write_report_csv(path, reports: list[EvalReport]) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_SCHEMA + "\n")
        for report in reports:
            fh.write(report.csv_row() + "\n")
