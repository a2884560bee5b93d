"""Workload definitions, seeded input synthesis and per-utterance scoring.

Every workload is a stream of jobs. A job is one clean synthetic utterance
mixed with one noise at one SNR, analysed by one `analyze_utterance` call
and scored with `gross_error`, `mean_absolute_error` and `separation_error`,
the same steps and seeds as `modepitch.evaluation._bench_utterance`.

Jobs come in blocks. A block pairs every noise x SNR cell with one low and
one high contour per sample rate, in `run_benchmark`'s loop order (noise,
then SNR, then utterance), so block 0 of a workload is exactly the grid
`run_benchmark` would score for the block's first utterances. Quality
metrics are taken over block 0 only, which makes them a pure function of
the seed; timing covers every job a run completes.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from modepitch import audio, corpus, evaluation, separation
from modepitch.emd import EmdConfig
from modepitch.separation import AnalysisConfig

DURATION_MS = 600.0
NOISE_SAMPLES_S = 3          # noise recordings are 3 s long, as in the C6 grid
CLEAN_BLOCKS = 4             # distinct clean utterances per class and rate: 4 blocks' worth
GATE = "ref_voiced"


@dataclass(frozen=True)
class Workload:
    name: str
    estimators: tuple[str, ...]
    methods: tuple[str, ...]
    ensemble_size: int
    rates: tuple[int, ...]
    noises: tuple[str, ...]
    snrs: tuple[float, ...]

    @property
    def utts_per_block(self) -> int:
        return 2 * len(self.rates)   # one low and one high contour per rate

    @property
    def block_len(self) -> int:
        return len(self.noises) * len(self.snrs) * self.utts_per_block

    def job(self, index: int) -> "Job":
        """Job `index` of the stream, in `run_benchmark`'s loop order
        within each block."""
        block, r = divmod(index, self.block_len)
        noise_idx, r = divmod(r, len(self.snrs) * self.utts_per_block)
        snr_idx, u = divmod(r, self.utts_per_block)
        return Job(index, block * self.utts_per_block + u, noise_idx, snr_idx)

    def rate_of(self, job: "Job") -> int:
        return self.rates[(job.utt // 2) % len(self.rates)]

    def warmup_jobs(self) -> list[int]:
        """The first block-0 job at each sample rate."""
        return [next(j for j in range(self.block_len)
                     if self.rate_of(self.job(j)) == rate) for rate in self.rates]

    def keys(self) -> list[tuple[str, str]]:
        return [(e, m) for e in self.estimators for m in self.methods]

    def config(self, seed: int) -> AnalysisConfig:
        return AnalysisConfig(emd=EmdConfig(ensemble_size=self.ensemble_size,
                                            rng_seed=derive_seed(seed, 1)))


# Why each workload: see BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        # comb estimators and spectra only, at two frame/FFT sizes; no EEMD
        Workload("comb_raw", ("pefac", "shr", "swipe"), ("raw",), 100,
                 (8000, 16000), ("white", "babble"), (0.0, 5.0)),
        # EEMD at the CLI default ensemble, HHT candidates; no comb
        Workload("eemd_hht", ("hht",), ("raw",), 100,
                 (8000,), ("white", "babble"), (0.0, 5.0)),
        # the C6-shaped grid: CLI bench estimators x {raw, pro}, ensemble 20
        Workload("grid_pro", ("shr", "swipe", "hht"), ("raw", "pro"), 20,
                 (8000,), ("white", "babble"), (-5.0, 0.0, 5.0)),
    )
}


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed that depends only on the workload seed and a path."""
    return int(np.random.SeedSequence((seed,) + path).generate_state(1)[0])


@dataclass(frozen=True)
class Job:
    index: int
    utt: int          # global utterance index; picks the mixing seed
    noise_idx: int
    snr_idx: int


@dataclass
class Inputs:
    """Everything a run feeds the program, built from the seed alone."""

    workload: Workload
    seed: int
    cfg: AnalysisConfig
    clean: list[corpus.CorpusItem]                     # indexed by utterance % len
    noises: dict[int, list[tuple[str, audio.SampleBuffer]]]   # per sample rate

    def item(self, job: Job) -> corpus.CorpusItem:
        return self.clean[job.utt % len(self.clean)]

    def noise(self, job: Job) -> audio.SampleBuffer:
        rate = self.item(job).audio.sample_rate_hz
        return self.noises[rate][job.noise_idx][1]

    def snr(self, job: Job) -> float:
        return self.workload.snrs[job.snr_idx]

    def audio_seconds(self, job: Job) -> float:
        return self.item(job).audio.duration_ms / 1000.0


def _clean_utterance(w: Workload, seed: int, u: int) -> corpus.CorpusItem:
    """Utterance u: even u low, odd u high, rates cycling every two.

    Contours follow the C6 recipe: a base F0 drawn from the class band and a
    +8% excursion at mid-utterance, capped below the band edge.
    """
    rate = w.rate_of(Job(0, u, 0, 0))
    rng = np.random.default_rng(derive_seed(seed, 2, u))
    if u % 2 == 0:
        base, cap = float(rng.uniform(95.0, 175.0)), 195.0
    else:
        base, cap = float(rng.uniform(225.0, 340.0)), 395.0
    knots = ((0.0, base), (DURATION_MS / 2, float(min(cap, base * 1.08))),
             (DURATION_MS, base))
    spec = corpus.SynthUtteranceSpec(
        f0_contour=knots, duration_ms=DURATION_MS, jitter_pct=0.5,
        rng_seed=derive_seed(seed, 3, u), sample_rate_hz=rate)
    buf, truth = corpus.synthesize_utterance(spec)
    return corpus.CorpusItem(f"u{u:03d}_{rate}", buf, truth)


def make_inputs(w: Workload, seed: int) -> Inputs:
    clean = [_clean_utterance(w, seed, u)
             for u in range(CLEAN_BLOCKS * w.utts_per_block)]
    noises = {
        rate: [(kind, corpus.make_noise(kind, NOISE_SAMPLES_S * rate, rate,
                                        seed=derive_seed(seed, 4, k, rate)))
               for k, kind in enumerate(w.noises)]
        for rate in w.rates
    }
    return Inputs(w, seed, w.config(seed), clean, noises)


# ---------------------------------------------------------------------------
# One job: mix, analyse, score
# ---------------------------------------------------------------------------

@dataclass
class JobResult:
    job: Job
    analyze_s: float
    analysis: dict | None = None   # key -> MethodResult
    scores: dict | None = None     # key -> (ge, mae, sep, frames)
    error: str | None = None


def run_job(inputs: Inputs, job: Job) -> JobResult:
    """Mix, analyse and score one utterance; a raise marks the job failed.

    Calls go through the module attributes so a tracer that rebinds them
    sees every call.
    """
    item = inputs.item(job)
    noise_buf = inputs.noise(job)
    cfg = inputs.cfg
    w = inputs.workload
    out = JobResult(job, analyze_s=math.nan)
    try:
        mixed = audio.mix_at_snr(audio.NoisyMix(
            clean=item.audio, noise=noise_buf, snr_db=inputs.snr(job),
            seed=evaluation.mix_seed(inputs.seed, job.noise_idx, job.snr_idx,
                                     job.utt)))
        t0 = time.perf_counter()
        analysis = separation.analyze_utterance(mixed, list(w.estimators),
                                                list(w.methods), cfg)
        out.analyze_s = time.perf_counter() - t0
        out.analysis = analysis
        out.scores = score_analysis(analysis, item, cfg.pro.gamma_hz)
    except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
        out.error = f"{type(exc).__name__}: {exc}"
    return out


def score_analysis(analysis: dict, item: corpus.CorpusItem, gamma_hz: float) -> dict:
    """Per-key (ge, mae, sep, frames) with `_bench_utterance`'s rules."""
    scores = {}
    truth = item.truth
    for key, result in analysis.items():
        ge = evaluation.gross_error(result.track, truth, GATE)
        mae = evaluation.mean_absolute_error(result.track, truth) \
            if (result.track.estimated_mask() & truth.voiced_mask).any() \
            else math.nan
        if key[1] == "pro" and result.regions:
            sep = evaluation.separation_error(result.regions, truth, gamma_hz)
        else:
            sep = math.nan
        scores[key] = (ge, mae, sep, int(truth.voiced_mask.sum()))
    return scores


def cell_reports(inputs: Inputs, results: list[JobResult]
                 ) -> list[evaluation.EvalReport]:
    """Average per-utterance scores per (noise, SNR, estimator, method)
    cell, with `run_benchmark`'s arithmetic and cell order."""
    w = inputs.workload
    cells = []
    for n_i, noise in enumerate(w.noises):
        for s_i, snr in enumerate(w.snrs):
            scored = [r.scores for r in results
                      if r.scores is not None and r.job.noise_idx == n_i
                      and r.job.snr_idx == s_i]
            for key in w.keys():
                cell = [s[key] for s in scored if key in s]
                if not cell:
                    continue
                maes = [c[1] for c in cell if not math.isnan(c[1])]
                seps = [c[2] for c in cell if not math.isnan(c[2])]
                cells.append(evaluation.EvalReport(
                    noise=noise, snr_db=snr, estimator=key[0], method=key[1],
                    ge_percent=float(np.mean([c[0] for c in cell])),
                    mae_hz=float(np.mean(maes)) if maes else math.nan,
                    sep_error_percent=float(np.mean(seps)) if seps else math.nan,
                    frames_scored=sum(c[3] for c in cell)))
    return cells


def quality_metrics(cells: list[evaluation.EvalReport], methods) -> dict[str, float]:
    """Mean over cells of GE and MAE per method, and of pro's separation
    error; cells without a value for a metric are left out of its mean."""
    out = {}
    for meth in methods:
        mine = [c for c in cells if c.method == meth]
        maes = [c.mae_hz for c in mine if not math.isnan(c.mae_hz)]
        out[f"ge_{meth}_pct"] = float(np.mean([c.ge_percent for c in mine]))
        out[f"mae_{meth}_hz"] = float(np.mean(maes)) if maes else math.nan
    seps = [c.sep_error_percent for c in cells
            if c.method == "pro" and not math.isnan(c.sep_error_percent)]
    if seps:
        out["sep_err_pct"] = float(np.mean(seps))
    return out
