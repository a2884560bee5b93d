"""Frame-level F0 estimators: harmonic-summation (PEFAC-lite), SHR, SWIPE,
and envelope-ACF candidates from decomposition modes (HHT-Amp style).

PEFAC-lite implements the harmonic-summation comb filter on a log-frequency
power spectrum with a zero-mean normalization, not the full published PEFAC
front end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .audio import Frame, FrameSpec, SampleBuffer
from .emd import ImfSet
from .spectral import (
    LogSpectrum,
    Spectrum,
    autocorrelation,
    envelope,
    log_grid,
    magnitude_spectrum,
    next_pow2,
    power_spectrum,
    to_log_frequency,
)


@dataclass(frozen=True)
class EstimatorConfig:
    """The published estimator constants. They are class attributes, not
    module constants: perfbench and tests read cfg.<name>."""

    f_min: ClassVar[float] = 50.0      # search floor for every estimator
    hht_num_imfs: ClassVar[int] = 3    # modes hht reads candidates from
    f_max: ClassVar[float] = 400.0     # search ceiling for pefac/shr/hht
    swipe_f_max: ClassVar[float] = 500.0  # swipe searches [f_min, 500] Hz
    shr_threshold: ClassVar[float] = 0.4
    shr_max_harmonics: ClassVar[int] = 8
    swipe_bins_per_octave: ClassVar[int] = 48
    swipe_num_peaks: ClassVar[int] = 5
    pefac_num_harmonics: ClassVar[int] = 10
    pefac_compression: ClassVar[float] = 0.5
    bins_per_octave: ClassVar[int] = 48

    def check_frame(self, duration_s: float) -> None:
        """Reject a frame that spans fewer than two pitch periods at f_min."""
        if duration_s < 2.0 / self.f_min:
            raise ValueError(f"frame of {1000 * duration_s:.1f} ms is shorter than "
                             f"two pitch periods at f_min={self.f_min} Hz")


# one pitch candidate per slot of a (frames x slots) array; NaN marks an
# empty slot. The frame estimators return one as an (f0_hz, salience) pair.
CANDIDATE = np.dtype([("f0_hz", np.float64), ("salience", np.float64)])


def _frame_spectrum(frame, cfg: EstimatorConfig, spectrum) -> Spectrum:
    """Validate the frame, zero-pad it to next_pow2(4n) and take its Hann-windowed
    spectrum with `spectrum` (power_spectrum or magnitude_spectrum)."""
    x = np.asarray(frame.samples, dtype=np.float64)
    fs = frame.sample_rate_hz
    cfg.check_frame(x.size / fs)
    if not np.any(x):
        raise ValueError("degenerate frame (all zeros)")
    return spectrum(x, fs, next_pow2(4 * x.size))


def _log_spectrum(spec: Spectrum, cfg: EstimatorConfig,
                  num_harmonics: int) -> LogSpectrum:
    """Log-frequency view from f_min/2 up to the highest flank a comb of
    num_harmonics can reach from f_max, capped at Nyquist."""
    f_hi = min(spec.max_hz, cfg.f_max * (num_harmonics + 0.5))
    return to_log_frequency(spec, cfg.f_min / 2.0, f_hi, cfg.bins_per_octave)


def _parabolic_refine(y: np.ndarray, i: int) -> float:
    """Fractional index of the peak around y[i], by parabola through 3 points."""
    if i <= 0 or i >= y.size - 1:
        return float(i)
    if not (np.isfinite(y[i - 1]) and np.isfinite(y[i]) and np.isfinite(y[i + 1])):
        return float(i)
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return float(i)
    return i + 0.5 * (y[i - 1] - y[i + 1]) / denom


def _refined_peak(scores: np.ndarray, cands: np.ndarray, bins_per_octave: int,
                  f_lo: float, f_hi: float) -> tuple[float, float]:
    """F0 at the parabola-refined score maximum, clipped to [f_lo, f_hi],
    and the maximum score itself."""
    best = int(np.argmax(scores))
    refined = _parabolic_refine(scores, best)
    f0 = float(np.clip(cands[0] * 2.0 ** (refined / bins_per_octave), f_lo, f_hi))
    return f0, float(scores[best])


def _comb(read, cand_hz: np.ndarray, counts: np.ndarray,
          offsets: tuple[float, ...]) -> list[np.ndarray]:
    """Spectrum values at the comb positions (h + offset) * f0, h = 1..count.

    Returns one (candidates x max count) array per offset. Each is filled
    by a single read(f0, h + offset) call over exactly the counted
    positions of every candidate, and holds 0 where h exceeds the count.
    """
    h = np.arange(1, counts.max(initial=0) + 1)
    kept = h <= counts[:, None]
    f0 = np.broadcast_to(cand_hz[:, None], kept.shape)[kept]
    h_kept = np.broadcast_to(h, kept.shape)[kept]
    rows = []
    for offset in offsets:
        values = np.zeros(kept.shape)
        values[kept] = read(f0, h_kept + offset)
        rows.append(values)
    return rows


def _log_reader(logspec: LogSpectrum):
    return lambda f0, h: logspec.sample(np.log2(f0) + np.log2(h))


# ---------------------------------------------------------------------------
# PEFAC-lite: harmonic-summation comb on the log-frequency power spectrum
# ---------------------------------------------------------------------------

def harmonic_summation_scores(logspec: LogSpectrum, cand_hz: np.ndarray,
                              num_harmonics: int = EstimatorConfig.pefac_num_harmonics
                              ) -> np.ndarray:
    """Comb-filter response at each candidate F0.

    The filter places impulses of weight w_h = 1/sqrt(h) at log2(h) for
    h = 1..H and impulses of weight -w_h/2 at the flanking half-harmonic
    positions log2(h -+ 1/2), so its coefficients sum to zero and a flat
    noise spectrum scores exactly zero. The decaying weights resist
    halving errors; keeping them shallow (1/sqrt rather than 1/h) keeps
    bandlimited inputs, whose low harmonics are absent, scorable.
    Harmonics are truncated per candidate where (h + 1/2)*f0 would leave
    the spectrum's support; a candidate left with none scores -inf.
    """
    top_log2 = logspec.grid_log2()[-1]
    counts = np.minimum(num_harmonics,
                        (2.0 ** (top_log2 - np.log2(cand_hz)) - 0.5).astype(int))
    peaks, lo, hi = _comb(_log_reader(logspec), cand_hz, counts, (0.0, -0.5, 0.5))
    weights = 1.0 / np.sqrt(np.arange(1, peaks.shape[1] + 1))
    return np.where(counts >= 1, (peaks - 0.5 * (lo + hi)) @ weights, -np.inf)


def pefac_scores(frame: Frame | SampleBuffer, cfg: EstimatorConfig = EstimatorConfig()
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate grid and comb response for one frame.

    The log-frequency power spectrum is amplitude-compressed
    (power**pefac_compression) before filtering so formant peaks cannot
    drown the harmonic pattern.
    """
    logspec = _log_spectrum(_frame_spectrum(frame, cfg, power_spectrum), cfg,
                            cfg.pefac_num_harmonics)
    compressed = replace(logspec, values=logspec.values ** cfg.pefac_compression)
    cands = log_grid(cfg.f_min, cfg.f_max, cfg.bins_per_octave)
    return cands, harmonic_summation_scores(compressed, cands,
                                            cfg.pefac_num_harmonics)


def pefac_estimate(frame: Frame | SampleBuffer, cfg: EstimatorConfig = EstimatorConfig()
                   ) -> tuple[float, float]:
    """(f0_hz, salience) of the harmonic-summation response's maximum."""
    cands, scores = pefac_scores(frame, cfg)
    return _refined_peak(scores, cands, cfg.bins_per_octave, cfg.f_min, cfg.f_max)


# ---------------------------------------------------------------------------
# SHR: subharmonic-to-harmonic amplitude ratio
# ---------------------------------------------------------------------------

def subharmonic_ratio_curves(logspec: LogSpectrum, cand_hz: np.ndarray,
                             max_harmonics: int = EstimatorConfig.shr_max_harmonics
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic sum SH(F0) and subharmonic sum SS(F0) per candidate.

    SH sums amplitudes at n*F0, SS at (n - 1/2)*F0, n = 1..N, both truncated
    where positions leave the spectrum support (but never below n = 1).
    """
    top_log2 = logspec.grid_log2()[-1]
    counts = np.maximum(np.minimum(
        max_harmonics, (2.0 ** (top_log2 - np.log2(cand_hz))).astype(int)), 1)
    harmonic, subharmonic = _comb(_log_reader(logspec), cand_hz, counts, (0.0, -0.5))
    return harmonic.sum(axis=1), subharmonic.sum(axis=1)


def shr_estimate(frame: Frame | SampleBuffer, cfg: EstimatorConfig = EstimatorConfig()
                 ) -> tuple[float, float]:
    """(f0_hz, salience) of the harmonic-sum peak, demoted one octave when
    the subharmonic-to-harmonic ratio exceeds the threshold."""
    logspec = _log_spectrum(_frame_spectrum(frame, cfg, magnitude_spectrum), cfg,
                            cfg.shr_max_harmonics)
    cands = log_grid(cfg.f_min, cfg.f_max, cfg.bins_per_octave)
    sh, ss = subharmonic_ratio_curves(logspec, cands, cfg.shr_max_harmonics)
    best = int(np.argmax(sh))
    sh_best = float(sh[best])
    ss_best = float(ss[best])
    shr = ss_best / sh_best if sh_best > 0 else 0.0
    f0 = float(cands[best])
    if shr > cfg.shr_threshold and f0 / 2.0 >= cfg.f_min:
        f0 /= 2.0
    total = sh_best + ss_best
    return f0, max(0.0, (sh_best - ss_best) / total) if total > 0 else 0.0


# ---------------------------------------------------------------------------
# SWIPE: average peak-to-valley distance of a harmonic comb
# ---------------------------------------------------------------------------

def swipe_apvd(spec: Spectrum, cand_hz: np.ndarray,
               num_peaks: int = EstimatorConfig.swipe_num_peaks) -> np.ndarray:
    """Average peak-to-valley distance D(f) per candidate.

    d_n(f) = |X(nf)| - ([|X((n-1/2)f)| + |X((n+1/2)f)|]) / 2, averaged over
    the first num_peaks peaks; peaks whose upper valley leaves the spectrum
    are dropped and the average renormalized. A candidate left with no
    peak scores -inf.
    """
    freqs = spec.frequencies()
    counts = np.minimum(num_peaks, (spec.max_hz / cand_hz - 0.5).astype(int))
    peak, lo, hi = _comb(lambda f0, h: np.interp(h * f0, freqs, spec.bins),
                         cand_hz, counts, (0.0, -0.5, 0.5))
    return np.divide((peak - 0.5 * (lo + hi)).sum(axis=1), counts,
                     out=np.full(cand_hz.size, -np.inf), where=counts >= 1)


def swipe_estimate(frame: Frame | SampleBuffer, cfg: EstimatorConfig = EstimatorConfig()
                   ) -> tuple[float, float]:
    """(f0_hz, salience) of the harmonic comb that best matches the
    magnitude spectrum."""
    spec = _frame_spectrum(frame, cfg, magnitude_spectrum)
    cands = log_grid(cfg.f_min, cfg.swipe_f_max, cfg.swipe_bins_per_octave)
    scores = swipe_apvd(spec, cands, cfg.swipe_num_peaks)
    return _refined_peak(scores, cands, cfg.swipe_bins_per_octave,
                         cfg.f_min, cfg.swipe_f_max)


# ---------------------------------------------------------------------------
# HHT-Amp: candidates from the envelope ACF of each decomposition mode
# ---------------------------------------------------------------------------

def _first_acf_peak(r: np.ndarray, tau_min: int, tau_max: int) -> int | None:
    """Smallest lag in [tau_min, tau_max] that is a local maximum:
    r(t) > r(t-1) and r(t) >= r(t+1)."""
    hi = min(tau_max, r.size - 2)
    for tau in range(max(tau_min, 1), hi + 1):
        if r[tau] > r[tau - 1] and r[tau] >= r[tau + 1]:
            return tau
    return None


def hht_candidates(imfs: ImfSet) -> np.ndarray:
    """Candidates of every analysis frame as a (frames x hht_num_imfs)
    CANDIDATE array: slot k holds the candidate of mode k + 1, if any.

    Mode k contributes f0 = fs / tau0 where tau0 is the smallest lag of a
    local ACF maximum of its instantaneous-amplitude envelope, searched in
    [fs/f_max, fs/f_min]. The envelope mean is removed per window before the
    ACF so the lag peak is not dragged by the raw envelope's DC pedestal;
    salience is the normalized peak r(tau0)/r(0). Modes with no peak in
    range leave their slot empty (NaN) for that interval. Modes shorter
    than one frame raise ValueError.
    """
    cfg, frame = EstimatorConfig, FrameSpec()  # the analysis frame
    if len(imfs) < cfg.hht_num_imfs:
        raise ValueError(
            f"need {cfg.hht_num_imfs} modes for candidate extraction, "
            f"got {len(imfs)}")
    fs = imfs.sample_rate_hz
    tau_min = int(math.ceil(fs / cfg.f_max))
    tau_max = int(math.floor(fs / cfg.f_min))
    max_lag = min(tau_max + 1, frame.frame_len(fs) - 1)
    out = np.full((frame.num_frames(imfs.residual.size, fs), cfg.hht_num_imfs),
                  np.nan, CANDIDATE)
    for k in range(cfg.hht_num_imfs):
        for i, w in enumerate(frame.frames(envelope(imfs.modes[k]), fs)):
            mean = w.mean()
            w = w - mean
            # an unmodulated envelope carries no pitch cue; the depth floor
            # also rejects numerical ripple in the analytic envelope
            if w.std() <= 1e-4 * max(abs(mean), 1e-30):
                continue
            r = autocorrelation(w, max_lag)
            if r[0] <= 0.0:
                continue
            tau0 = _first_acf_peak(r, tau_min, tau_max)
            if tau0 is None or r[tau0] <= 0.0:
                continue
            tau_ref = _parabolic_refine(r, tau0)
            out[i, k] = np.clip(fs / tau_ref, cfg.f_min, cfg.f_max), r[tau0] / r[0]
    return out


def pick(cands: np.ndarray) -> np.ndarray:
    """F0 of the most salient candidate in each row of a CANDIDATE array;
    ties go to the lowest slot and a row with no candidate gives NaN."""
    salience = np.where(np.isnan(cands["f0_hz"]), -np.inf, cands["salience"])
    best = np.argmax(salience, axis=1)[:, None]
    return np.take_along_axis(cands["f0_hz"], best, axis=1)[:, 0]


FRAME_ESTIMATORS = {
    "pefac": pefac_estimate,
    "shr": shr_estimate,
    "swipe": swipe_estimate,
}
