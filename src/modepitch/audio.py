"""Audio I/O, framing, and reproducible noise mixing at exact target SNR."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

INT16_FULL_SCALE = 32768.0


@dataclass(frozen=True)
class SampleBuffer:
    """Uniformly sampled mono signal, full scale +-1.0.

    The samples array is made read-only on construction; buffers are safe
    to share between concurrent workers.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("SampleBuffer requires a non-empty 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("SampleBuffer samples must be finite")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_ms(self) -> float:
        return 1000.0 * self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class FrameSpec:
    """Analysis framing: 90 ms frames with 10 ms hop by default."""

    frame_len_ms: float = 90.0
    hop_ms: float = 10.0

    def __post_init__(self):
        if self.frame_len_ms <= 0 or self.hop_ms <= 0:
            raise ValueError("frame_len_ms and hop_ms must be positive")
        if self.hop_ms > self.frame_len_ms:
            raise ValueError("hop_ms must not exceed frame_len_ms")

    def frame_len(self, sample_rate_hz: int) -> int:
        return _whole_samples("frame_len_ms", self.frame_len_ms, sample_rate_hz)

    def hop(self, sample_rate_hz: int) -> int:
        return _whole_samples("hop_ms", self.hop_ms, sample_rate_hz)

    def num_frames(self, n_samples: int, sample_rate_hz: int) -> int:
        flen = self.frame_len(sample_rate_hz)
        if n_samples < flen:
            return 0
        return (n_samples - flen) // self.hop(sample_rate_hz) + 1

    def frames(self, samples: np.ndarray, sample_rate_hz: int) -> np.ndarray:
        """Read-only (frames x frame_len) view of a 1-D signal: row i is
        samples[i * hop:i * hop + frame_len], and a trailing partial frame
        is dropped."""
        flen = self.frame_len(sample_rate_hz)
        if len(samples) < flen:
            raise ValueError(f"buffer of {len(samples)} samples is shorter than one "
                             f"{self.frame_len_ms} ms frame ({flen} samples)")
        return sliding_window_view(samples, flen)[::self.hop(sample_rate_hz)]


def _whole_samples(name: str, ms: float, sample_rate_hz: int) -> int:
    n = int(round(ms * sample_rate_hz / 1000.0))
    if n == 0:
        raise ValueError(f"{name}={ms} rounds to 0 samples at {sample_rate_hz} Hz")
    return n


@dataclass(frozen=True)
class Frame:
    """One analysis frame: a raw slice plus its start time."""

    samples: np.ndarray
    sample_rate_hz: int
    start_ms: float


@dataclass(frozen=True)
class NoisyMix:
    """A clean/noise pair to be mixed at a target SNR.

    The seed selects a circular offset into the noise recording, so
    different seeds give different noise realizations of the same mix.
    """

    clean: SampleBuffer
    noise: SampleBuffer
    snr_db: float
    seed: int = 0


def load_wav(path) -> SampleBuffer:
    """Read a RIFF/WAVE file into a normalized SampleBuffer.

    Accepts 16-bit PCM and 32-bit float, mono or stereo (stereo is
    downmixed by channel averaging). 16-bit data is scaled by 1/32768.
    """
    from scipy.io import wavfile

    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ValueError(f"unreadable WAV file {path}: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"zero-length audio in {path}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / INT16_FULL_SCALE
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported encoding {data.dtype} in {path} "
                         "(expected 16-bit PCM or 32-bit float)")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    elif samples.ndim != 1:
        raise ValueError(f"unsupported channel layout in {path}")
    return SampleBuffer(samples, int(rate))


def save_wav(path, buf: SampleBuffer) -> None:
    """Write a buffer as 16-bit PCM, clipping to full scale."""
    from scipy.io import wavfile

    clipped = np.clip(buf.samples, -1.0, 1.0)
    pcm = np.round(clipped * (INT16_FULL_SCALE - 1)).astype(np.int16)
    wavfile.write(path, buf.sample_rate_hz, pcm)


def save_wav_multichannel(path, channels: list[np.ndarray], sample_rate_hz: int) -> None:
    """Write several equal-length signals as one 32-bit float multi-channel WAV."""
    from scipy.io import wavfile

    if not channels:
        raise ValueError("no channels to write")
    stacked = np.stack([np.asarray(c, dtype=np.float32) for c in channels], axis=1)
    wavfile.write(path, sample_rate_hz, stacked)


def resample(buf: SampleBuffer, target_hz: int) -> SampleBuffer:
    """Resample with a windowed-sinc (Kaiser) polyphase filter.

    beta=8 keeps alias rejection around 80 dB, comfortably above the
    60 dB quality bound this library promises. The up/down factors are the
    exact reduced ratio of the two rates, so the output holds
    ceil(n * target / source) samples.
    """
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    if target_hz == buf.sample_rate_hz:
        return buf
    from scipy.signal import resample_poly

    g = math.gcd(target_hz, buf.sample_rate_hz)
    out = resample_poly(buf.samples, target_hz // g, buf.sample_rate_hz // g,
                        window=("kaiser", 8.0))
    return SampleBuffer(out, target_hz)


def mix_at_snr(mix: NoisyMix) -> SampleBuffer:
    """Add scaled noise to clean speech so the power ratio hits snr_db exactly.

    SNR is referenced to the full clean-utterance power. The noise is read
    from a seed-derived circular offset and resampled first if its rate
    differs from the clean signal.
    """
    clean = mix.clean
    noise = mix.noise
    if noise.sample_rate_hz != clean.sample_rate_hz:
        noise = resample(noise, clean.sample_rate_hz)
    n = len(clean)
    rng = np.random.default_rng(mix.seed)
    offset = int(rng.integers(0, len(noise)))
    idx = (offset + np.arange(n)) % len(noise)
    segment = noise.samples[idx]

    p_clean = float(np.mean(clean.samples ** 2))
    p_noise = float(np.mean(segment ** 2))
    if p_clean == 0.0:
        raise ValueError("SNR undefined for an all-zero clean signal")
    if p_noise == 0.0:
        raise ValueError("SNR undefined for an all-zero noise segment")
    gain = math.sqrt(p_clean / (p_noise * 10.0 ** (mix.snr_db / 10.0)))
    return SampleBuffer(clean.samples + gain * segment, clean.sample_rate_hz)


def measured_snr_db(mixed: SampleBuffer, clean: SampleBuffer) -> float:
    """Direct power-ratio measurement of an (already mixed) signal's SNR."""
    residual = mixed.samples - clean.samples
    p_clean = float(np.mean(clean.samples ** 2))
    p_noise = float(np.mean(residual ** 2))
    if p_noise == 0.0:
        return math.inf
    return 10.0 * math.log10(p_clean / p_noise)


def frame_signal(buf: SampleBuffer, spec: FrameSpec) -> list[Frame]:
    """One Frame per row of spec.frames: overlapping raw (unwindowed) slices,
    the last partial frame dropped. The estimators apply the window named
    in their EstimatorConfig."""
    fs, hop = buf.sample_rate_hz, spec.hop(buf.sample_rate_hz)
    return [Frame(samples=row, sample_rate_hz=fs, start_ms=1000.0 * (i * hop) / fs)
            for i, row in enumerate(spec.frames(buf.samples, fs))]
