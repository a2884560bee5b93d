import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modepitch.spectral import (
    Spectrum,
    analytic_signal,
    autocorrelation,
    envelope,
    magnitude_spectrum,
    next_pow2,
    power_spectrum,
    to_log_frequency,
)

FS = 8000
BOTH_SPECTRA = pytest.mark.parametrize(
    "spectrum", [power_spectrum, magnitude_spectrum], ids=lambda f: f.__name__)


def brute_force_acf(x, max_lag):
    """O(n * max_lag) direct transcription of r(tau) = sum_t x(t) x(t+tau)."""
    n = len(x)
    return np.array([np.dot(x[:n - tau], x[tau:]) for tau in range(max_lag + 1)])


class TestPowerSpectrum:
    def test_pure_tone_single_bin(self):
        # 100 Hz aligned to an nfft of one full period multiple
        nfft = 4096
        freq = 100 * FS / nfft * round(100 * nfft / FS) / 100  # snap to bin
        n = nfft
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * freq * t)
        spec = power_spectrum(x, FS, nfft)
        peak_bin = int(np.argmax(spec.bins))
        assert abs(peak_bin * spec.bin_hz - 100) < 2 * spec.bin_hz
        # the Hann main lobe spreads a bin-centred tone over 3 bins
        main_lobe = spec.bins[peak_bin - 1:peak_bin + 2].sum()
        assert main_lobe / spec.bins.sum() >= 0.99

    def test_parseval_white_noise(self, rng):
        x = rng.standard_normal(1024)
        spec = power_spectrum(x, FS, 2048)
        time_power = np.mean((x * np.hanning(x.size)) ** 2)
        assert spec.bins.sum() == pytest.approx(time_power, rel=1e-6)

    def test_two_tones_two_bins(self):
        n = 2048
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 100 * t) + np.sin(2 * np.pi * 300 * t)
        spec = power_spectrum(x, FS, 4096)
        bins = spec.bins.copy()
        first = int(np.argmax(bins))
        bins[max(0, first - 5):first + 6] = 0
        second = int(np.argmax(bins))
        found = sorted([first * spec.bin_hz, second * spec.bin_hz])
        assert abs(found[0] - 100) <= spec.bin_hz
        assert abs(found[1] - 300) <= spec.bin_hz

    @BOTH_SPECTRA
    def test_nfft_too_small_rejected(self, spectrum):
        with pytest.raises(ValueError, match="smaller"):
            spectrum(np.ones(100), FS, 64)

    @BOTH_SPECTRA
    def test_nfft_not_pow2_rejected(self, spectrum):
        with pytest.raises(ValueError, match="power of two"):
            spectrum(np.ones(100), FS, 300)


class TestAnalyticSignal:
    def test_cosine_unit_modulus(self):
        t = np.arange(FS) / FS
        x = np.cos(2 * np.pi * 500 * t)
        z = analytic_signal(x)
        interior = slice(len(x) // 20, -len(x) // 20)
        np.testing.assert_allclose(np.abs(z)[interior], 1.0, atol=1e-3)

    def test_am_tone_envelope_tracked(self):
        t = np.arange(FS) / FS
        am = 1.0 + 0.5 * np.cos(2 * np.pi * 5 * t)
        x = am * np.cos(2 * np.pi * 1000 * t)
        env = envelope(x)
        interior = slice(len(x) // 20, -len(x) // 20)
        np.testing.assert_allclose(env[interior], am[interior], rtol=0.02)

    def test_real_part_is_input_exactly(self, rng):
        x = rng.standard_normal(1001)
        z = analytic_signal(x)
        assert np.array_equal(z.real, x)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analytic_signal(np.array([]))


class TestAutocorrelation:
    def test_periodic_peaks_at_period_multiples(self):
        period = 50
        x = np.tile(np.sin(2 * np.pi * np.arange(period) / period), 20)
        r = autocorrelation(x, 2 * period + 5)
        for target in (period, 2 * period):
            window = r[target - 2:target + 3]
            peak = target - 2 + int(np.argmax(window))
            assert abs(peak - target) <= 1

    def test_zero_lag_dominates(self, rng):
        x = rng.standard_normal(600)
        r = autocorrelation(x, 300)
        assert r[0] == pytest.approx(np.sum(x ** 2), rel=1e-12)
        assert np.all(r[0] >= r)

    def test_matches_brute_force(self, rng):
        for n in (17, 64, 256):
            x = rng.standard_normal(n)
            max_lag = n - 1
            fast = autocorrelation(x, max_lag)
            slow = brute_force_acf(x, max_lag)
            np.testing.assert_allclose(fast, slow, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=8, max_value=256), seed=st.integers(0, 999))
    def test_matches_brute_force_property(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        max_lag = n // 2
        np.testing.assert_allclose(autocorrelation(x, max_lag),
                                   brute_force_acf(x, max_lag), atol=1e-9)

    def test_lag_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones(10), 10)


class TestLogFrequency:
    def test_flat_spectrum_stays_flat(self):
        spec = Spectrum(bins=np.ones(2049), bin_hz=FS / 4096)
        log_spec = to_log_frequency(spec, 50, 3000, 48)
        np.testing.assert_allclose(log_spec.values, 1.0)

    def test_single_tone_peak_position(self):
        nfft = 4096
        n = nfft
        f0 = 440.0
        t = np.arange(n) / FS
        spec = magnitude_spectrum(np.sin(2 * np.pi * f0 * t), FS, nfft)
        log_spec = to_log_frequency(spec, 50, 3000, 48)
        grid = log_spec.grid_log2()
        peak = grid[int(np.argmax(log_spec.values))]
        assert abs(peak - np.log2(f0)) <= log_spec.step_log2

    def test_harmonic_comb_log_spacing(self):
        # peaks of f0, 2 f0, 3 f0 land at log2 offsets {0, 1, log2 3}
        nfft = 8192
        f0 = 250.0
        t = np.arange(nfft) / FS
        x = sum(np.sin(2 * np.pi * f0 * k * t) for k in (1, 2, 3))
        spec = magnitude_spectrum(x, FS, nfft)
        log_spec = to_log_frequency(spec, 100, 1500, 96)
        grid = log_spec.grid_log2()
        values = log_spec.values.copy()
        found = []
        for _ in range(3):
            i = int(np.argmax(values))
            found.append(grid[i])
            values[max(0, i - 20):i + 21] = 0
        found.sort()
        expected = np.log2(f0) + np.array([0.0, 1.0, np.log2(3.0)])
        np.testing.assert_allclose(found, expected, atol=0.5 / 96 + 1e-9)

    def test_bounds_outside_support_rejected(self):
        spec = Spectrum(bins=np.ones(100), bin_hz=10.0)
        with pytest.raises(ValueError):
            to_log_frequency(spec, 50, 5000, 48)


def test_next_pow2():
    assert [next_pow2(k) for k in (1, 2, 3, 720, 1024)] == [1, 2, 4, 1024, 1024]
