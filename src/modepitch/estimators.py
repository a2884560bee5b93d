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
# empty slot. The frame estimators return an (f0_hz, salience) pair per frame.
CANDIDATE = np.dtype([("f0_hz", np.float64), ("salience", np.float64)])


def _frame_spectrum(frame, cfg: EstimatorConfig, spectrum) -> tuple[Spectrum, np.ndarray]:
    """Validate the frame, zero-pad it to next_pow2(4n) and take its
    Hann-windowed spectrum with `spectrum` (power_spectrum or
    magnitude_spectrum). frame.samples is one frame or a (rows x n) stack,
    spectra along the last axis; also returns which frames hold a nonzero
    sample. A single frame of zeros, or a NaN or inf sample in any frame,
    raises ValueError."""
    x = np.asarray(frame.samples, dtype=np.float64)
    fs = frame.sample_rate_hz
    n = x.shape[-1] if x.ndim else 0
    cfg.check_frame(n / fs)
    if not np.isfinite(x).all():
        raise ValueError("frame holds a non-finite (NaN or inf) sample")
    live = np.any(x, axis=-1)
    if x.ndim == 1 and not live:
        raise ValueError("degenerate frame (all zeros)")
    return spectrum(x, fs, next_pow2(4 * n)), live


def _log_spectrum(spec: Spectrum, cfg: EstimatorConfig,
                  num_harmonics: int) -> LogSpectrum:
    """Log-frequency view from f_min/2 up to the highest flank a comb of
    num_harmonics can reach from f_max, capped at Nyquist."""
    f_hi = min(spec.max_hz, cfg.f_max * (num_harmonics + 0.5))
    return to_log_frequency(spec, cfg.f_min / 2.0, f_hi, cfg.bins_per_octave)


def _refine(y: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Fractional index of the peak around y[i, peak[i]] in each row of y,
    by a parabola through 3 points; the peak index itself at an edge of
    the row, next to a non-finite value or on a flat top."""
    inner = np.clip(peak, 1, y.shape[-1] - 2)
    near = y[np.arange(len(y))[:, None], inner[:, None] + np.arange(-1, 2)]
    lo, mid, hi = near.T
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = lo - 2.0 * mid + hi
        fits = (inner == peak) & np.isfinite(near).all(axis=1) & (denom != 0.0)
        return np.where(fits, peak + 0.5 * (lo - hi) / denom, peak)


def _peak_estimates(scores: np.ndarray, cands: np.ndarray, bins_per_octave: int,
                    f_lo: float, f_hi: float, live: np.ndarray):
    """_estimates of the F0 at the parabola-refined maximum of each row of
    scores, clipped to [f_lo, f_hi], and of the maximum score itself."""
    scores = scores.reshape(-1, cands.size)
    best = np.argmax(scores, axis=1)
    octaves = (_refine(scores, best) / bins_per_octave).tolist()
    # Python's float power is libm's pow; numpy's array power may round
    # the last bit differently, and the estimates stay bit for bit
    f0 = np.clip(cands[0] * np.array([2.0 ** v for v in octaves]), f_lo, f_hi)
    return _estimates(f0, scores[np.arange(len(scores)), best], live)


def _estimates(f0: np.ndarray, salience: np.ndarray, live: np.ndarray):
    """(f0_hz, salience) from per-row arrays: two floats for a single frame
    (0-d live), else two arrays with NaN at the frames where live is False."""
    if live.ndim == 0:
        return float(f0[0]), float(salience[0])
    return np.where(live, f0, np.nan), np.where(live, salience, np.nan)


def _comb(spectra: np.ndarray, xp: np.ndarray, at, cand_hz: np.ndarray,
          counts: np.ndarray, offsets: tuple[float, ...]):
    """Spectrum values at the comb positions (h + offset) * f0, h = 1..count,
    for each spectrum along the last axis of spectra, sampled at xp.

    at(f0, h) maps comb positions onto xp's scale. The positions are built
    once, harmonic-major: within one harmonic they ascend with the
    candidates, so np.interp finds each one next to the last. Yields, per
    spectrum, one (candidates x max count) array per offset, each filled by
    a single np.interp call over exactly the counted positions of every
    candidate and 0 where h exceeds the count.
    """
    h = np.arange(1, counts.max(initial=0) + 1)
    kept = h[:, None] <= counts  # (harmonics x candidates)
    f0 = np.broadcast_to(cand_hz, kept.shape)[kept]
    h_kept = np.broadcast_to(h[:, None], kept.shape)[kept]
    positions = [at(f0, h_kept + offset) for offset in offsets]
    for spectrum in spectra.reshape(-1, xp.size):
        rows = []
        for pos in positions:
            values = np.zeros((cand_hz.size, h.size))
            values.T[kept] = np.interp(pos, xp, spectrum)
            rows.append(values)
        yield rows


def _log_comb(logspec: LogSpectrum, cand_hz, counts, offsets):
    """_comb over the log-frequency views of logspec."""
    xp = np.arange(logspec.values.shape[-1], dtype=np.float64)
    return _comb(logspec.values, xp,
                 lambda f0, h: logspec.index(np.log2(f0) + np.log2(h)),
                 cand_hz, counts, offsets)


# ---------------------------------------------------------------------------
# PEFAC-lite: harmonic-summation comb on the log-frequency power spectrum
# ---------------------------------------------------------------------------

def harmonic_summation_scores(logspec: LogSpectrum, cand_hz: np.ndarray,
                              num_harmonics: int = EstimatorConfig.pefac_num_harmonics
                              ) -> np.ndarray:
    """Comb-filter response at each candidate F0, one row per spectrum.

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
    weights = 1.0 / np.sqrt(np.arange(1, counts.max(initial=0) + 1))
    scores = np.full(logspec.values.shape[:-1] + cand_hz.shape, -np.inf)
    for out, (peaks, lo, hi) in zip(scores.reshape(-1, cand_hz.size),
                                    _log_comb(logspec, cand_hz, counts, (0.0, -0.5, 0.5))):
        out[:] = np.where(counts >= 1, (peaks - 0.5 * (lo + hi)) @ weights, -np.inf)
    return scores


def pefac_scores(frame: Frame | SampleBuffer, cfg: EstimatorConfig = EstimatorConfig()
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate grid and comb response of one frame, or of each row of a
    (rows x n) stack as a (rows x candidates) array whose all-zero rows
    are NaN.

    The log-frequency power spectrum is amplitude-compressed
    (power**pefac_compression) before filtering so formant peaks cannot
    drown the harmonic pattern.
    """
    spec, live = _frame_spectrum(frame, cfg, power_spectrum)
    logspec = _log_spectrum(spec, cfg, cfg.pefac_num_harmonics)
    del spec  # only the log-frequency views live through the comb reads
    compressed = replace(logspec, values=logspec.values ** cfg.pefac_compression)
    cands = log_grid(cfg.f_min, cfg.f_max, cfg.bins_per_octave)
    scores = harmonic_summation_scores(compressed, cands, cfg.pefac_num_harmonics)
    scores[~live] = np.nan
    return cands, scores


def pefac_estimate(frame: Frame | SampleBuffer, cfg: EstimatorConfig = EstimatorConfig()):
    """(f0_hz, salience) of the harmonic-summation response's maximum: two
    floats for one frame, two arrays (NaN at all-zero rows) for a stack."""
    cands, scores = pefac_scores(frame, cfg)
    return _peak_estimates(scores, cands, cfg.bins_per_octave, cfg.f_min, cfg.f_max,
                           ~np.isnan(scores[..., 0]))


# ---------------------------------------------------------------------------
# SHR: subharmonic-to-harmonic amplitude ratio
# ---------------------------------------------------------------------------

def subharmonic_ratio_curves(logspec: LogSpectrum, cand_hz: np.ndarray,
                             max_harmonics: int = EstimatorConfig.shr_max_harmonics
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic sum SH(F0) and subharmonic sum SS(F0) per candidate, one
    row per spectrum.

    SH sums amplitudes at n*F0, SS at (n - 1/2)*F0, n = 1..N, both truncated
    where positions leave the spectrum support (but never below n = 1).
    """
    top_log2 = logspec.grid_log2()[-1]
    counts = np.maximum(np.minimum(
        max_harmonics, (2.0 ** (top_log2 - np.log2(cand_hz))).astype(int)), 1)
    sh = np.zeros(logspec.values.shape[:-1] + cand_hz.shape)
    ss = np.zeros_like(sh)
    for sh_row, ss_row, (harmonic, subharmonic) in zip(
            sh.reshape(-1, cand_hz.size), ss.reshape(-1, cand_hz.size),
            _log_comb(logspec, cand_hz, counts, (0.0, -0.5))):
        sh_row[:] = harmonic.sum(axis=1)
        ss_row[:] = subharmonic.sum(axis=1)
    return sh, ss


def shr_estimate(frame: Frame | SampleBuffer, cfg: EstimatorConfig = EstimatorConfig()):
    """(f0_hz, salience) of the harmonic-sum peak, demoted one octave when
    the subharmonic-to-harmonic ratio exceeds the threshold: two floats for
    one frame, two arrays (NaN at all-zero rows) for a stack."""
    spec, live = _frame_spectrum(frame, cfg, magnitude_spectrum)
    logspec = _log_spectrum(spec, cfg, cfg.shr_max_harmonics)
    del spec  # only the log-frequency views live through the comb reads
    cands = log_grid(cfg.f_min, cfg.f_max, cfg.bins_per_octave)
    sh, ss = np.atleast_2d(*subharmonic_ratio_curves(logspec, cands, cfg.shr_max_harmonics))
    best = np.argmax(sh, axis=1)
    rows = np.arange(len(best))
    sh, ss, f0 = sh[rows, best], ss[rows, best], cands[best]
    total = sh + ss
    with np.errstate(divide="ignore", invalid="ignore"):
        demote = (np.where(sh > 0, ss / sh, 0.0) > cfg.shr_threshold) & (f0 / 2.0 >= cfg.f_min)
        salience = (sh - ss) / total
    return _estimates(np.where(demote, f0 / 2.0, f0),
                      np.where((total > 0) & (salience > 0), salience, 0.0), live)


# ---------------------------------------------------------------------------
# SWIPE: average peak-to-valley distance of a harmonic comb
# ---------------------------------------------------------------------------

def swipe_apvd(spec: Spectrum, cand_hz: np.ndarray,
               num_peaks: int = EstimatorConfig.swipe_num_peaks) -> np.ndarray:
    """Average peak-to-valley distance D(f) per candidate, one row per
    spectrum.

    d_n(f) = |X(nf)| - ([|X((n-1/2)f)| + |X((n+1/2)f)|]) / 2, averaged over
    the first num_peaks peaks; peaks whose upper valley leaves the spectrum
    are dropped and the average renormalized. A candidate left with no
    peak scores -inf.
    """
    counts = np.minimum(num_peaks, (spec.max_hz / cand_hz - 0.5).astype(int))
    apvd = np.full(spec.bins.shape[:-1] + cand_hz.shape, -np.inf)
    for out, (peak, lo, hi) in zip(apvd.reshape(-1, cand_hz.size),
                                   _comb(spec.bins, spec.frequencies(),
                                         lambda f0, h: h * f0,
                                         cand_hz, counts, (0.0, -0.5, 0.5))):
        np.divide((peak - 0.5 * (lo + hi)).sum(axis=1), counts, out=out,
                  where=counts >= 1)
    return apvd


def swipe_estimate(frame: Frame | SampleBuffer, cfg: EstimatorConfig = EstimatorConfig()):
    """(f0_hz, salience) of the harmonic comb that best matches the
    magnitude spectrum: two floats for one frame, two arrays (NaN at
    all-zero rows) for a stack."""
    spec, live = _frame_spectrum(frame, cfg, magnitude_spectrum)
    cands = log_grid(cfg.f_min, cfg.swipe_f_max, cfg.swipe_bins_per_octave)
    scores = swipe_apvd(spec, cands, cfg.swipe_num_peaks)
    return _peak_estimates(scores, cands, cfg.swipe_bins_per_octave, cfg.f_min,
                           cfg.swipe_f_max, live)


# ---------------------------------------------------------------------------
# HHT-Amp: candidates from the envelope ACF of each decomposition mode
# ---------------------------------------------------------------------------

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
    out = np.full((frame.num_frames(imfs.residual.size, fs), cfg.hht_num_imfs),
                  np.nan, CANDIDATE)
    for k in range(cfg.hht_num_imfs):
        # one mode's ACF stack is freed before the next envelope is built
        found, f0, salience = _acf_peaks(frame.frames(envelope(imfs.modes[k]), fs), fs)
        out["f0_hz"][found, k] = f0[found]
        out["salience"][found, k] = salience[found]
    return out


def _acf_peaks(windows: np.ndarray, fs: int):
    """Which (frames x n) windows of one mode's envelope yield a candidate,
    and each one's candidate F0 and salience (meaningful where found). A
    window under the depth floor keeps an all-zero ACF, which r(0) <= 0
    rejects; one comparison over the stacked ACFs finds every first peak."""
    cfg = EstimatorConfig
    tau_min, tau_max = math.ceil(fs / cfg.f_max), math.floor(fs / cfg.f_min)
    max_lag = min(tau_max + 1, windows.shape[1] - 1)
    # lag-major, so the comparisons read contiguous rows: on strided
    # operands numpy allocates ufunc buffers larger than the whole stack
    acf = np.zeros((max_lag + 1, len(windows)))
    for i, w in enumerate(windows):
        mean = w.mean()
        w = w - mean
        # an unmodulated envelope carries no pitch cue; the depth floor
        # also rejects numerical ripple in the analytic envelope. It is
        # relative to the (non-negative) envelope mean, so any gain leaves
        # it alone, and an all-zero window, of spread 0, fails it
        if w.std() > 1e-4 * mean:
            acf[:, i] = autocorrelation(w, max_lag)
    mid = acf[tau_min:-1]  # up to tau_max, or the last lag with a right neighbour
    is_peak = (mid > acf[tau_min - 1:-2]) & (mid >= acf[tau_min + 1:])
    tau0 = tau_min + np.argmax(is_peak, axis=0)
    r0, r_tau0 = acf[0], acf[tau0, np.arange(len(windows))]
    found = is_peak.any(axis=0) & (r0 > 0.0) & (r_tau0 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (found, np.clip(fs / _refine(acf.T, tau0), cfg.f_min, cfg.f_max),
                r_tau0 / r0)


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
