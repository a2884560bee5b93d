"""Shared DSP kernels: power spectra, analytic signal, ACF, log-frequency grid."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spectrum:
    """One-sided spectrum with uniform bin spacing along the last axis of
    bins; leading axes, if any, index frames."""

    bins: np.ndarray
    bin_hz: float

    def __post_init__(self):
        if self.bin_hz <= 0:
            raise ValueError("bin_hz must be positive")

    @property
    def max_hz(self) -> float:
        return (self.bins.shape[-1] - 1) * self.bin_hz

    def frequencies(self) -> np.ndarray:
        return np.arange(self.bins.shape[-1]) * self.bin_hz


@dataclass(frozen=True)
class LogSpectrum:
    """Spectrum resampled onto a base-2 logarithmic frequency grid along
    the last axis of values; leading axes, if any, index frames."""

    values: np.ndarray
    log2_f_start: float
    step_log2: float

    def __post_init__(self):
        if self.step_log2 <= 0:
            raise ValueError("step_log2 must be positive")

    def grid_log2(self) -> np.ndarray:
        return self.log2_f_start + np.arange(self.values.shape[-1]) * self.step_log2

    def index(self, log2_f) -> np.ndarray:
        """Fractional grid index of arbitrary log2-frequency positions."""
        return (np.asarray(log2_f) - self.log2_f_start) / self.step_log2


def _hann_spectra(samples: np.ndarray, nfft: int, bins_of) -> np.ndarray:
    """bins_of(rfft) of each Hann-windowed frame along the last axis of
    samples, zero-padded to nfft, a power of two >= n. The window is built
    once and the FFTs are taken one frame at a time, so only the output
    is stacked."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[-1] if x.ndim else 0
    if n == 0:
        raise ValueError("empty frame")
    if nfft < n:
        raise ValueError(f"nfft={nfft} smaller than frame length {n}")
    if nfft & (nfft - 1):
        raise ValueError(f"nfft={nfft} is not a power of two")
    window = np.hanning(n)
    out = np.empty(x.shape[:-1] + (nfft // 2 + 1,))
    for row, bins in zip(x.reshape(-1, n), out.reshape(-1, out.shape[-1])):
        bins[:] = bins_of(np.fft.rfft(row * window, nfft))
    return out


def power_spectrum(samples: np.ndarray, sample_rate_hz: int, nfft: int) -> Spectrum:
    """One-sided power spectrum of the Hann-windowed, zero-padded frame, or
    of each frame along the last axis of a stack.

    Scaled so the bins sum to the mean-square power of the windowed frame
    (Parseval), with interior bins doubled to fold in negative frequencies.
    """
    power = _hann_spectra(samples, nfft, lambda spec: spec.real ** 2 + spec.imag ** 2)
    power /= nfft * np.shape(samples)[-1]
    power[..., 1:] *= 2.0
    if nfft % 2 == 0:
        power[..., -1] *= 0.5
    return Spectrum(bins=power, bin_hz=sample_rate_hz / nfft)


def magnitude_spectrum(samples: np.ndarray, sample_rate_hz: int, nfft: int) -> Spectrum:
    """One-sided magnitude spectrum |X(f)| of the Hann-windowed frame, or of
    each frame along the last axis of a stack."""
    return Spectrum(bins=_hann_spectra(samples, nfft, np.abs), bin_hz=sample_rate_hz / nfft)


def analytic_signal(x: np.ndarray) -> np.ndarray:
    """Z(t) = x(t) + j H{x(t)} via the frequency-domain construction.

    The real part is the input itself by construction (only the imaginary
    branch comes back from the inverse FFT).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValueError("empty input")
    # the one-sided gain (1 at DC and Nyquist, 2 on positive, 0 on negative
    # frequencies) is applied in place and the real part is the input itself,
    # so the spectrum and the result are the only full-length arrays
    spec = np.fft.fft(x)
    spec[1:(n + 1) // 2] *= 2.0
    spec[n // 2 + 1:] = 0.0
    z = np.fft.ifft(spec)
    del spec
    z.real = x
    return z


def envelope(x: np.ndarray) -> np.ndarray:
    """Instantaneous amplitude |Z(t)| of the analytic signal."""
    return np.abs(analytic_signal(x))


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased raw ACF r(tau) = sum_t x(t) x(t+tau) for tau = 0..max_lag.

    Computed with an FFT of at least twice the signal length, which equals
    the direct sum to rounding error.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag={max_lag} out of range for length {n}")
    nfft = next_pow2(2 * n)
    spec = np.fft.rfft(x, nfft)
    acf = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nfft)
    return acf[:max_lag + 1]


def log_grid(f_lo: float, f_hi: float, bins_per_octave: int) -> np.ndarray:
    """Frequencies f_lo * 2**(k / bins_per_octave), k = 0, 1, ..., up to f_hi."""
    if not 0 < f_lo < f_hi:
        raise ValueError("need 0 < f_lo < f_hi")
    if bins_per_octave <= 0:
        raise ValueError("bins_per_octave must be positive")
    step = 1.0 / bins_per_octave
    start = np.log2(f_lo)
    n_points = int(np.floor((np.log2(f_hi) - start) / step)) + 1
    return 2.0 ** (start + step * np.arange(n_points))


def to_log_frequency(s: Spectrum, f_lo: float, f_hi: float,
                     bins_per_octave: int) -> LogSpectrum:
    """Resample a linear-frequency spectrum onto log_grid(f_lo, f_hi,
    bins_per_octave) by linear interpolation, frame by frame of a stack."""
    if f_hi > s.max_hz * (1 + 1e-12):
        raise ValueError(f"f_hi={f_hi} beyond spectrum support {s.max_hz:.1f} Hz")
    grid, freqs = log_grid(f_lo, f_hi, bins_per_octave), s.frequencies()
    values = np.empty(s.bins.shape[:-1] + grid.shape)
    for out, bins in zip(values.reshape(-1, grid.size),
                         s.bins.reshape(-1, freqs.size)):
        out[:] = np.interp(grid, freqs, bins)
    return LogSpectrum(values=values, log2_f_start=np.log2(f_lo),
                       step_log2=1.0 / bins_per_octave)


def next_pow2(n: int) -> int:
    return 1 << max(0, int(np.ceil(np.log2(max(1, n)))))
