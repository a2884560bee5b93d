"""Empirical mode decomposition by sifting, and its noise-ensemble variant.

The ensemble variant averages mode k over many decompositions of the input
corrupted with independent white Gaussian noise realizations, which
suppresses mode mixing at the cost of a small reconstruction residue.
"""
from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.lapack import dgtsv

from .audio import SampleBuffer, save_wav_multichannel

DEFAULT_MAX_IMFS = 8


@dataclass(frozen=True)
class EmdConfig:
    """The sift stop rule is fixed. Its constants are class attributes, not
    module constants: perfbench and tests read them as cfg.<name>."""

    ensemble_size: int = 100
    wgn_std_ratio: float = 0.2         # noise std as a fraction of signal std
    rng_seed: int = 0
    sift_stop_sd: ClassVar[float] = 0.2  # Cauchy-type sum((h_prev-h_new)^2)/sum(h_prev^2)
    max_sift_iters: ClassVar[int] = 50

    def __post_init__(self):
        for name in ("ensemble_size", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be at least 1, got {self.ensemble_size}")
        ratio = self.wgn_std_ratio
        if not isinstance(ratio, numbers.Real) or not 0 <= ratio < np.inf:
            raise ValueError(f"wgn_std_ratio must be a finite number >= 0, got {ratio!r}")


@dataclass(frozen=True)
class ImfSet:
    """Ordered oscillatory modes (fastest first) as the rows of one
    (modes x samples) array, plus the leftover trend. Both are copied
    read-only, so sets are safe to share between concurrent workers."""

    modes: np.ndarray
    residual: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        modes = np.array(self.modes, dtype=np.float64)
        residual = np.array(self.residual, dtype=np.float64)
        if residual.ndim != 1 or modes.ndim != 2 or modes.shape[1] != residual.size:
            raise ValueError("modes must be 2-D with rows as long as the 1-D residual")
        modes.setflags(write=False)
        residual.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "residual", residual)

    def __len__(self) -> int:
        return len(self.modes)

    def reconstruct(self) -> np.ndarray:
        total = self.residual.copy()
        for mode in self.modes:
            total += mode
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


def _check_max_imfs(max_imfs: int) -> None:
    if max_imfs < 1:
        raise ValueError(f"max_imfs must be at least 1, got {max_imfs}")


def _emd_raw(data: np.ndarray, cfg: EmdConfig,
             max_imfs: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Array-level sift loop, stopping after max_imfs modes; returns
    (modes, remainder)."""
    modes: list[np.ndarray] = []
    remainder = data.copy()
    while len(modes) < max_imfs:
        imf = _sift_one_imf(remainder, cfg)
        if imf is None:
            break
        modes.append(imf)
        remainder = remainder - imf
    return modes, remainder


def emd_decompose(x: SampleBuffer, cfg: EmdConfig = EmdConfig(),
                  max_imfs: int = DEFAULT_MAX_IMFS) -> ImfSet:
    """Plain sifting decomposition into at most max_imfs modes.

    Sifting is sequential, so a smaller cap leaves the first modes of a
    larger one bit for bit. The input always equals the sum of modes plus
    residual exactly, because each extracted mode is subtracted from the
    running remainder. Inputs with fewer than 4 extrema have nothing to
    sift and come back as a bare residual.
    """
    _check_max_imfs(max_imfs)
    modes, remainder = _emd_raw(x.samples.astype(np.float64), cfg, max_imfs)
    return ImfSet(np.reshape(modes, (len(modes), remainder.size)), remainder,
                  x.sample_rate_hz)


def eemd_decompose(x: SampleBuffer, cfg: EmdConfig = EmdConfig(),
                   max_imfs: int = DEFAULT_MAX_IMFS) -> ImfSet:
    """Noise-ensemble decomposition into at most max_imfs modes.

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
    _check_max_imfs(max_imfs)
    data = x.samples.astype(np.float64)
    # np.std of a constant can read ~1e-16 from rounding; its spread is 0
    noise_std = cfg.wgn_std_ratio * float(np.std(data)) if np.ptp(data) > 0 else 0.0
    if noise_std == 0.0:
        return emd_decompose(x, cfg, max_imfs)

    n = data.size
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.ensemble_size)
    mode_sums = np.zeros((max_imfs, n))
    residual_sum = np.zeros(n)
    max_modes = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        modes, remainder = _emd_raw(data + noise_std * rng.standard_normal(n), cfg,
                                    max_imfs)
        for k, m in enumerate(modes):
            mode_sums[k] += m
        residual_sum += remainder
        max_modes = max(max_modes, len(modes))

    scale = 1.0 / cfg.ensemble_size
    return ImfSet(mode_sums[:max_modes] * scale, residual_sum * scale, x.sample_rate_hz)


def write_imf_wav(path, imfset: ImfSet) -> None:
    """Debug dump: one 32-bit float channel per mode, residual last."""
    save_wav_multichannel(path, [*imfset.modes, imfset.residual], imfset.sample_rate_hz)


def mode_energies(imfset: ImfSet) -> list[float]:
    """Mean-square energy per mode, residual excluded."""
    return [float(np.mean(mode ** 2)) for mode in imfset.modes]
