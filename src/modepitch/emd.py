"""Empirical mode decomposition by sifting, and its noise-ensemble variant.

The ensemble variant averages mode k over many decompositions of the input
corrupted with independent white Gaussian noise realizations, which
suppresses mode mixing at the cost of a small reconstruction residue.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .audio import SampleBuffer, save_wav_multichannel


@dataclass(frozen=True)
class EmdConfig:
    max_imfs: int = 8
    sift_stop_sd: float = 0.2          # Cauchy-type sum((h_prev-h_new)^2)/sum(h_prev^2)
    max_sift_iters: int = 50
    ensemble_size: int = 100
    wgn_std_ratio: float = 0.2         # noise std as a fraction of signal std
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_imfs <= 0 or self.max_sift_iters <= 0 or self.ensemble_size <= 0:
            raise ValueError("integer EmdConfig fields must be strictly positive")
        if self.sift_stop_sd <= 0:
            raise ValueError("sift_stop_sd must be strictly positive")
        if self.wgn_std_ratio < 0:
            raise ValueError("wgn_std_ratio must be non-negative")


@dataclass(frozen=True)
class ImfSet:
    """Ordered oscillatory modes (fastest first) plus the leftover trend."""

    imfs: list[SampleBuffer]
    residual: SampleBuffer
    source_len: int

    def __post_init__(self):
        for imf in self.imfs:
            if len(imf) != self.source_len:
                raise ValueError("every mode must match source_len")
        if len(self.residual) != self.source_len:
            raise ValueError("residual must match source_len")

    def __len__(self) -> int:
        return len(self.imfs)

    def reconstruct(self) -> np.ndarray:
        total = self.residual.samples.copy()
        for imf in self.imfs:
            total += imf.samples
        return total


def _local_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of local maxima and minima; plateaus count once at their end."""
    d = np.diff(x)
    s = np.sign(d)
    nz = s != 0
    if not nz.any():
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    # carry the previous non-zero slope sign across plateaus
    idx = np.where(nz, np.arange(s.size), 0)
    np.maximum.accumulate(idx, out=idx)
    s = s[idx]
    change = np.diff(s)
    maxima = np.flatnonzero(change < 0) + 1
    minima = np.flatnonzero(change > 0) + 1
    return maxima, minima


def _mirrored_knots(t_ext: np.ndarray, v_ext: np.ndarray,
                    end: int) -> tuple[np.ndarray, np.ndarray]:
    """Extrema with up to two of them mirrored strictly beyond each end of
    [0, end], to tame the envelope's boundary swings."""
    left_t = -t_ext[1::-1]
    right_t = 2 * end - t_ext[:-3:-1]
    keep_l = left_t < t_ext[0]
    keep_r = right_t > t_ext[-1]
    return (np.concatenate([left_t[keep_l], t_ext, right_t[keep_r]]),
            np.concatenate([v_ext[1::-1][keep_l], v_ext, v_ext[:-3:-1][keep_r]]))


def _mean_envelope(h: np.ndarray, maxima: np.ndarray, minima: np.ndarray) -> np.ndarray:
    """Mean of the natural cubic splines through the mirrored maxima and
    minima, at every sample of h.

    Both splines' second-derivative systems are stacked into one
    tridiagonal system whose block-end rows read M = 0, so nothing couples
    across the seam, and solved by one LAPACK call (diagonally dominant: no
    pivoting). The mirrored knots of at least two extrema in [0, n-1]
    bracket every sample, so no sample is extrapolated.
    """
    n = h.size
    t_up, v_up = _mirrored_knots(maxima, h[maxima], n - 1)
    t_lo, v_lo = _mirrored_knots(minima, h[minima], n - 1)
    m = t_up.size
    t = np.concatenate([t_up, t_lo])
    v = np.concatenate([v_up, v_lo])
    ends = [0, m - 1, m, t.size - 1]
    dx = np.diff(t).astype(np.float64)          # dx[m - 1] spans the seam
    slope = np.diff(v) / dx
    # row i: dx[i-1] M[i-1] + 2 (dx[i-1] + dx[i]) M[i] + dx[i] M[i+1]
    #        = 6 (slope[i] - slope[i-1]); block-end rows: M[i] = 0
    diag = np.empty(t.size)
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    diag[ends] = 1.0
    upper = dx.copy()
    upper[ends[:3]] = 0.0
    lower = dx.copy()
    lower[[m - 2, m - 1, t.size - 2]] = 0.0
    rhs = np.empty(t.size)
    rhs[1:-1] = 6.0 * np.diff(slope)
    rhs[ends] = 0.0
    curv = dgtsv(lower, diag, upper, rhs)[3]
    c1 = slope - dx * (2.0 * curv[:-1] + curv[1:]) / 6.0
    c2 = 0.5 * curv[:-1]
    c3 = (curv[1:] - curv[:-1]) / (6.0 * dx)
    # interval j covers samples [t[j], t[j+1]); the lower spline's samples
    # follow the upper's, so the seam interval covers none
    bounds = np.clip(t, 0, n)
    bounds[m:] += n
    j = np.repeat(np.arange(t.size - 1), np.diff(bounds))
    t[m:] += n
    s = np.arange(2 * n) - t[j]
    env = ((c3[j] * s + c2[j]) * s + c1[j]) * s + v[j]
    return 0.5 * (env[:n] + env[n:])


def _sift_one_imf(r: np.ndarray, cfg: EmdConfig) -> np.ndarray | None:
    """Extract one mode from the running remainder, or None if the
    remainder has too few extrema to build envelopes."""
    h = r
    for _ in range(cfg.max_sift_iters):
        maxima, minima = _local_extrema(h)
        if maxima.size < 2 or minima.size < 2:
            return None if h is r else h
        mean_env = _mean_envelope(h, maxima, minima)
        h_new = h - mean_env
        denom = float(np.sum(h * h))
        if denom == 0.0:
            return None if h is r else h
        sd = float(np.sum(mean_env * mean_env)) / denom
        h = h_new
        if sd < cfg.sift_stop_sd:
            break
    return h


def _emd_raw(data: np.ndarray, cfg: EmdConfig) -> tuple[list[np.ndarray], np.ndarray]:
    """Array-level sift loop; returns (modes, remainder)."""
    modes: list[np.ndarray] = []
    remainder = data.copy()
    while len(modes) < cfg.max_imfs:
        imf = _sift_one_imf(remainder, cfg)
        if imf is None:
            break
        modes.append(imf)
        remainder = remainder - imf
    return modes, remainder


def emd_decompose(x: SampleBuffer, cfg: EmdConfig = EmdConfig()) -> ImfSet:
    """Plain sifting decomposition.

    The input always equals the sum of modes plus residual exactly, because
    each extracted mode is subtracted from the running remainder. Inputs
    with fewer than 4 extrema have nothing to sift and come back as a bare
    residual.
    """
    modes, remainder = _emd_raw(x.samples.astype(np.float64), cfg)
    rate = x.sample_rate_hz
    return ImfSet(
        imfs=[SampleBuffer(m, rate) for m in modes],
        residual=SampleBuffer(remainder, rate),
        source_len=len(x),
    )


def eemd_decompose(x: SampleBuffer, cfg: EmdConfig = EmdConfig()) -> ImfSet:
    """Noise-ensemble decomposition.

    For each of ensemble_size trials the input plus an independent WGN
    realization (std = wgn_std_ratio * std(x)) is decomposed, and mode k of
    the output is the trial average. Trials that produce fewer modes
    contribute zeros to the missing indices; the residual is the trial
    average of residuals, so reconstruction misses the input only by the
    mean of the injected noise. Each trial draws from its own child seed of
    rng_seed, making the result independent of trial execution order.
    With zero noise (wgn_std_ratio 0 or a constant input) every trial would
    decompose the same signal, so the result is plain `emd_decompose`.
    """
    data = x.samples.astype(np.float64)
    # np.std of a constant can read ~1e-16 from rounding; its spread is 0
    noise_std = cfg.wgn_std_ratio * float(np.std(data)) if np.ptp(data) > 0 else 0.0
    if noise_std == 0.0:
        return emd_decompose(x, cfg)

    n = data.size
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.ensemble_size)
    mode_sums = np.zeros((cfg.max_imfs, n))
    residual_sum = np.zeros(n)
    max_modes = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        modes, remainder = _emd_raw(data + noise_std * rng.standard_normal(n), cfg)
        for k, m in enumerate(modes):
            mode_sums[k] += m
        residual_sum += remainder
        max_modes = max(max_modes, len(modes))

    rate = x.sample_rate_hz
    scale = 1.0 / cfg.ensemble_size
    imfs = [SampleBuffer(mode_sums[k] * scale, rate) for k in range(max_modes)]
    residual = SampleBuffer(residual_sum * scale, rate)
    return ImfSet(imfs=imfs, residual=residual, source_len=n)


def write_imf_wav(path, imfset: ImfSet) -> None:
    """Debug dump: one 32-bit float channel per mode, residual last."""
    channels = [m.samples for m in imfset.imfs] + [imfset.residual.samples]
    save_wav_multichannel(path, channels, imfset.residual.sample_rate_hz)


def mode_energies(imfset: ImfSet) -> list[float]:
    """Mean-square energy per mode, residual excluded."""
    return [float(np.mean(m.samples ** 2)) for m in imfset.imfs]
