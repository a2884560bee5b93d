"""Shared DSP kernels: power spectra, analytic signal, ACF, log-frequency grid."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spectrum:
    """One-sided spectrum with uniform bin spacing."""

    bins: np.ndarray
    bin_hz: float

    def __post_init__(self):
        if self.bin_hz <= 0:
            raise ValueError("bin_hz must be positive")

    @property
    def max_hz(self) -> float:
        return (len(self.bins) - 1) * self.bin_hz

    def frequencies(self) -> np.ndarray:
        return np.arange(len(self.bins)) * self.bin_hz


@dataclass(frozen=True)
class LogSpectrum:
    """Spectrum resampled onto a base-2 logarithmic frequency grid."""

    values: np.ndarray
    log2_f_start: float
    step_log2: float

    def __post_init__(self):
        if self.step_log2 <= 0:
            raise ValueError("step_log2 must be positive")

    def grid_log2(self) -> np.ndarray:
        return self.log2_f_start + np.arange(len(self.values)) * self.step_log2

    def sample(self, log2_f) -> np.ndarray:
        """Linear interpolation at arbitrary log2-frequency positions."""
        pos = (np.asarray(log2_f) - self.log2_f_start) / self.step_log2
        return np.interp(pos, np.arange(len(self.values)), self.values)


def _windowed_rfft(samples: np.ndarray, nfft: int) -> np.ndarray:
    """rfft of the Hann-windowed frame zero-padded to nfft, a power of two >= n."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValueError("empty frame")
    if nfft < n:
        raise ValueError(f"nfft={nfft} smaller than frame length {n}")
    if nfft & (nfft - 1):
        raise ValueError(f"nfft={nfft} is not a power of two")
    return np.fft.rfft(x * np.hanning(n), nfft)


def power_spectrum(samples: np.ndarray, sample_rate_hz: int, nfft: int) -> Spectrum:
    """One-sided power spectrum of the Hann-windowed, zero-padded frame.

    Scaled so the bins sum to the mean-square power of the windowed frame
    (Parseval), with interior bins doubled to fold in negative frequencies.
    """
    spec = _windowed_rfft(samples, nfft)
    n = np.size(samples)
    power = (spec.real ** 2 + spec.imag ** 2) / (nfft * n)
    power[1:] *= 2.0
    if nfft % 2 == 0:
        power[-1] *= 0.5
    return Spectrum(bins=power, bin_hz=sample_rate_hz / nfft)


def magnitude_spectrum(samples: np.ndarray, sample_rate_hz: int, nfft: int) -> Spectrum:
    """One-sided magnitude spectrum |X(f)| of the Hann-windowed frame."""
    mags = np.abs(_windowed_rfft(samples, nfft))
    return Spectrum(bins=mags, bin_hz=sample_rate_hz / nfft)


def analytic_signal(x: np.ndarray) -> np.ndarray:
    """Z(t) = x(t) + j H{x(t)} via the frequency-domain construction.

    The real part is the input itself by construction (only the imaginary
    branch comes back from the inverse FFT).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValueError("empty input")
    spec = np.fft.fft(x)
    h = np.zeros(n)
    if n % 2 == 0:
        h[0] = h[n // 2] = 1.0
        h[1:n // 2] = 2.0
    else:
        h[0] = 1.0
        h[1:(n + 1) // 2] = 2.0
    z = np.fft.ifft(spec * h)
    return x + 1j * z.imag


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
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
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
    bins_per_octave) by linear interpolation."""
    if f_hi > s.max_hz * (1 + 1e-12):
        raise ValueError(f"f_hi={f_hi} beyond spectrum support {s.max_hz:.1f} Hz")
    values = np.interp(log_grid(f_lo, f_hi, bins_per_octave), s.frequencies(), s.bins)
    return LogSpectrum(values=values, log2_f_start=np.log2(f_lo),
                       step_log2=1.0 / bins_per_octave)


def next_pow2(n: int) -> int:
    return 1 << max(0, int(np.ceil(np.log2(max(1, n)))))
