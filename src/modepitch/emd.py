"""Empirical mode decomposition by sifting, and its noise-ensemble variant.

The ensemble variant averages mode k over many decompositions of the input
corrupted with independent white Gaussian noise realizations, which
suppresses mode mixing at the cost of a small reconstruction residue.
"""
from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from ._lapack import solve_tridiagonal
from .audio import SampleBuffer, adopt, save_wav_multichannel

DEFAULT_MAX_IMFS = 8


@dataclass(frozen=True)
class EmdConfig:
    """The sift stop rule is fixed. Its constants are class attributes, not
    module constants: the sift and tests read them as cfg.<name>."""

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
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        ratio = self.wgn_std_ratio
        if isinstance(ratio, bool) or not isinstance(ratio, numbers.Real) \
                or not 0 <= ratio < np.inf:
            raise ValueError(f"wgn_std_ratio must be a finite number >= 0, got {ratio!r}")


@dataclass(frozen=True)
class ImfSet:
    """Ordered oscillatory modes (fastest first) as the rows of one
    (modes x samples) array, plus the leftover trend. Both are held
    read-only (see `audio.adopt`), so sets are safe to share between
    concurrent workers."""

    modes: np.ndarray
    residual: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        modes = adopt(self.modes)
        residual = adopt(self.residual)
        if residual.ndim != 1 or modes.ndim != 2 or modes.shape[1] != residual.size:
            raise ValueError("modes must be 2-D with rows as long as the 1-D residual")
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
    """Indices of local maxima and minima; plateaus count once at their end,
    and a flat run at either end of x is no extremum."""
    # x[i + 1] > x[i] exactly where diff(x)[i] > 0: the difference of two
    # finite floats has the sign of their order, and is 0 only when they
    # are equal (gradual underflow)
    rising = x[1:] > x[:-1]
    if (x[1:] == x[:-1]).any():
        # a zero difference takes the slope before it, and a leading flat
        # run the first nonzero slope, so every slope is up or down
        moves = x[1:] != x[:-1]
        idx = np.where(moves, np.arange(moves.size), moves.argmax())
        np.maximum.accumulate(idx, out=idx)
        rising = rising[idx]
    extrema = np.flatnonzero(rising[1:] != rising[:-1])
    extrema += 1
    # maxima and minima alternate, a maximum first where x starts rising
    first = 0 if rising[:1].any() else 1
    return extrema[first::2], extrema[1 - first::2]


def _mirrored_knots(t_ext: np.ndarray, v_ext: np.ndarray,
                    end: int) -> tuple[np.ndarray, np.ndarray]:
    """Extrema with up to two of them mirrored strictly beyond each end of
    [0, end], to tame the envelope's boundary swings. An extremum at 0 or
    at end is its own mirror, so that mirror is left out."""
    left = 2 if t_ext[0] > 0 else 1
    right = 2 if t_ext[-1] < end else 1
    stop = left + t_ext.size
    t = np.empty(stop + right, dtype=t_ext.dtype)
    v = np.empty(stop + right, dtype=v_ext.dtype)
    # the mirrors of t_ext[1], t_ext[0] and of t_ext[-1], t_ext[-2], in order
    t[:left] = -t_ext[1::-1][:left]
    v[:left] = v_ext[1::-1][:left]
    t[left:stop] = t_ext
    v[left:stop] = v_ext
    t[stop:] = 2 * end - t_ext[:-3:-1][2 - right:]
    v[stop:] = v_ext[:-3:-1][2 - right:]
    return t, v


def _natural_spline(t: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The natural cubic spline through the knots (t, v), integers t with
    t[0] <= 0 and t[-1] >= n, at the samples 0..n-1.

    Its second derivatives M solve one tridiagonal system by one LAPACK call
    (diagonally dominant: no pivoting). The per-interval coefficients are
    then written over the factorization rows, and the spline is evaluated
    in place, each coefficient repeated over the samples its interval
    covers.
    """
    # slicing and np.maximum/np.minimum, not np.diff and np.clip (3-6 us a call)
    dx = (t[1:] - t[:-1]).astype(np.float64)
    slope = (v[1:] - v[:-1]) / dx
    # row i: dx[i-1] M[i-1] + 2 (dx[i-1] + dx[i]) M[i] + dx[i] M[i+1]
    #        = 6 (slope[i] - slope[i-1]); end rows: M[i] = 0. The rows of
    # system are the sub-, main and super-diagonal and the right-hand side,
    # which the solve overwrites with M
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
    # the per-interval coefficients go into the factorization rows, dead
    # after the solve
    c1, c2, c3 = lower[:-1], diag[:-1], upper[:-1]
    np.subtract(slope, dx * (2.0 * curv[:-1] + curv[1:]) / 6.0, out=c1)
    np.multiply(0.5, curv[:-1], out=c2)
    np.divide(curv[1:] - curv[:-1], 6.0 * dx, out=c3)
    del dx, slope
    # interval j covers samples [t[j], t[j+1])
    bounds = np.minimum(np.maximum(t, 0), n)
    reps = bounds[1:] - bounds[:-1]
    del bounds
    # each sample's offset from its knot, exact in float64
    s = np.arange(n, dtype=np.float64)
    s -= np.repeat(t[:-1].astype(np.float64), reps)
    # ((c3 s + c2) s + c1) s + v
    env = np.repeat(c3, reps)
    env *= s
    env += np.repeat(c2, reps)
    env *= s
    env += np.repeat(c1, reps)
    env *= s
    env += np.repeat(v[:-1], reps)
    return env


def _mean_envelope(h: np.ndarray, maxima: np.ndarray, minima: np.ndarray) -> np.ndarray:
    """Mean of the natural cubic splines through the mirrored maxima and
    minima, at every sample of h. The mirrored knots of at least two
    extrema in [0, n-1] bracket every sample, so no sample is extrapolated.
    """
    n = h.size
    env = _natural_spline(*_mirrored_knots(maxima, h[maxima], n - 1), n)
    env += _natural_spline(*_mirrored_knots(minima, h[minima], n - 1), n)
    env *= 0.5
    return env


def _sift_one_imf(r: np.ndarray, cfg: EmdConfig) -> np.ndarray | None:
    """Extract one mode from the running remainder, or None if the
    remainder has too few extrema to build envelopes."""
    h = r
    for _ in range(cfg.max_sift_iters):
        maxima, minima = _local_extrema(h)
        if maxima.size < 2 or minima.size < 2:
            return None if h is r else h
        mean_env = _mean_envelope(h, maxima, minima)
        denom = float(np.sum(h * h))
        if denom == 0.0:
            return None if h is r else h
        sd = float(np.sum(mean_env * mean_env)) / denom
        # h - mean_env, written over mean_env while h is r (which is left
        # as it is) and over h after that
        h = np.subtract(h, mean_env, out=mean_env if h is r else h)
        del mean_env  # free it before the next envelope is built
        if sd < cfg.sift_stop_sd:
            break
    return h


def emd_decompose(x: SampleBuffer, cfg: EmdConfig = EmdConfig(),
                  max_imfs: int = DEFAULT_MAX_IMFS) -> ImfSet:
    """Plain sifting decomposition into at most max_imfs modes: the noise
    ensemble's single noiseless trial.

    Sifting is sequential, so a smaller cap leaves the first modes of a
    larger one bit for bit. The input always equals the sum of modes plus
    residual exactly, because each extracted mode is subtracted from the
    running remainder. Inputs with fewer than 4 extrema have nothing to
    sift and come back as a bare residual.
    """
    return eemd_decompose(x, replace(cfg, wgn_std_ratio=0.0), max_imfs)


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
    decompose the same signal, so one trial decomposes the input itself:
    that is plain `emd_decompose`.

    Each trial's input is written into one reused array, which the sift
    reduces in place to the trial's residual; modes are summed as they are
    found.
    """
    if max_imfs < 1:
        raise ValueError(f"max_imfs must be at least 1, got {max_imfs}")
    data = x.samples
    n = data.size
    # np.std of a constant can read ~1e-16 from rounding; its spread is 0
    noise_std = cfg.wgn_std_ratio * float(np.std(data)) if np.ptp(data) > 0 else 0.0
    trials = cfg.ensemble_size if noise_std else 1
    # -0.0 is the additive identity of every float (0.0 + -0.0 is 0.0), so
    # the sums of a single trial are its modes and residual bit for bit
    mode_sums = np.full((max_imfs, n), -0.0)
    residual_sum = np.full(n, -0.0)
    trial = np.empty(n)
    max_modes = 0
    for seed in np.random.SeedSequence(cfg.rng_seed).spawn(trials):
        if noise_std:
            np.random.default_rng(seed).standard_normal(out=trial)
            trial *= noise_std
            trial += data
        else:
            trial[:] = data
        # mode k is added into row k and subtracted from the trial, which
        # ends as the trial's residual
        for k, row in enumerate(mode_sums):
            imf = _sift_one_imf(trial, cfg)
            if imf is None:
                break
            row += imf
            trial -= imf
            max_modes = max(max_modes, k + 1)
        residual_sum += trial

    scale = 1.0 / trials
    mode_sums[:max_modes] *= scale
    residual_sum *= scale
    # the rows past max_modes are cut off in place (no view of mode_sums
    # exists), and both arrays are adopted without a copy
    mode_sums.resize((max_modes, n), refcheck=False)
    mode_sums.setflags(write=False)
    residual_sum.setflags(write=False)
    return ImfSet(mode_sums, residual_sum, x.sample_rate_hz)


def write_imf_wav(path, imfset: ImfSet) -> None:
    """Debug dump: one 32-bit float channel per mode, residual last."""
    save_wav_multichannel(path, [*imfset.modes, imfset.residual], imfset.sample_rate_hz)


def mode_energies(imfset: ImfSet) -> list[float]:
    """Mean-square energy per mode, residual excluded."""
    return [float(np.mean(mode ** 2)) for mode in imfset.modes]
