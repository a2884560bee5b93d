"""Audio I/O, framing, and reproducible noise mixing at exact target SNR."""
from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

INT16_FULL_SCALE = 32768.0


def _adopted(a) -> bool:
    """Whether a is a read-only float64 array that owns its data."""
    return (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.owndata and not a.flags.writeable)


def adopt(values) -> np.ndarray:
    """A read-only float64 array holding values: values itself when it is
    already a read-only float64 array that owns its data, or a read-only
    view of one, so no one holds a writeable view of it; else a read-only
    copy.

    Code that builds an array and drops it hands it over with
    ``x.setflags(write=False)`` first, and no copy is made. Slices of an
    adopted array, such as a segment of a buffer's samples, share its memory.
    """
    if _adopted(values) or (isinstance(values, np.ndarray) and values.dtype == np.float64
                            and not values.flags.writeable and _adopted(values.base)):
        return values
    copy = np.array(values, dtype=np.float64)
    copy.setflags(write=False)
    return copy


@dataclass(frozen=True)
class SampleBuffer:
    """Uniformly sampled mono signal, full scale +-1.0.

    The samples are held read-only (see `adopt`), so buffers are safe to
    share between concurrent workers.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = adopt(self.samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("SampleBuffer requires a non-empty 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("SampleBuffer samples must be finite")
        rate = self.sample_rate_hz
        if isinstance(rate, (bool, np.bool_)) or not hasattr(rate, "__index__"):
            raise TypeError(f"sample_rate_hz must be an integer, got {rate!r}")
        if rate <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", operator.index(rate))

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
    """One analysis frame, or a (rows x n) stack of frames, plus the start
    time of the first."""

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

    Accepts 16-bit PCM and 32- or 64-bit float, in plain or extensible
    format chunks, with any number of channels (downmixed by channel
    averaging). 16-bit data is scaled by 1/32768.
    """
    try:
        with open(path, "rb") as f:
            rate, channels, encoding, body = _parse_riff(f.read())
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable WAV file {path}: {exc}") from exc
    if not body:
        raise ValueError(f"zero-length audio in {path}")
    if encoding not in ("int16", "float32", "float64"):
        raise ValueError(f"unsupported encoding {encoding} in {path} "
                         "(expected 16-bit PCM or 32- or 64-bit float)")
    data = np.frombuffer(body, np.dtype(encoding).newbyteorder("<"))
    samples = data.astype(np.float64)
    if encoding == "int16":
        samples /= INT16_FULL_SCALE
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    samples.setflags(write=False)
    return SampleBuffer(samples, rate)


_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 1, 3, 0xFFFE
# bytes 4-15 of every standard WAVE_FORMAT_EXTENSIBLE sub-format GUID; its
# first 4 bytes are the plain format tag
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _parse_riff(raw: bytes) -> tuple[int, int, str, memoryview]:
    """(rate, channels, encoding, data bytes) of a little-endian RIFF/WAVE
    image. The encoding is the numpy dtype name of one sample ("int16",
    "float32", "uint8", ...); the data is cut to whole frames. Chunks other
    than "fmt " and "data" are skipped, with the pad byte of an odd size."""
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"not a RIFF/WAVE file (header {raw[:12]!r})")
    fmt = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk, size = raw[pos:pos + 4], int.from_bytes(raw[pos + 4:pos + 8], "little")
        body = memoryview(raw)[pos + 8:pos + 8 + size]
        if chunk == b"fmt ":
            if len(body) < 16:
                raise ValueError("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from("<HHIIHH", body)
            if fmt[0] == _WAVE_EXTENSIBLE and body[28:40] == _GUID_TAIL:
                fmt = (int.from_bytes(body[24:28], "little"),) + fmt[1:]
        elif chunk == b"data":
            if fmt is None:
                raise ValueError("no fmt chunk before the data chunk")
            tag, channels, rate, _, block_align, bits = fmt
            if not channels or not block_align or block_align % channels:
                raise ValueError(f"block align {block_align} does not fit "
                                 f"{channels} channels")
            width = block_align // channels
            if tag == _WAVE_PCM:
                encoding = "uint8" if bits <= 8 else f"int{8 * width}"
            elif tag == _WAVE_FLOAT:
                encoding = f"float{8 * width}"
            else:
                encoding = f"format tag {tag:#06x}"
            return rate, channels, encoding, body[:len(body) - len(body) % block_align]
        pos += 8 + size + size % 2
    raise ValueError("no data chunk")


def _write_riff(path, rate: int, data: np.ndarray) -> None:
    """Write a (frames x channels) int16 or float array as one RIFF/WAVE file:
    a 16-byte PCM fmt chunk, or an 18-byte float fmt chunk and a fact chunk."""
    frames, channels = data.shape
    width = data.dtype.itemsize
    is_float = data.dtype.kind == "f"
    fmt = struct.pack("<HHIIHH", _WAVE_FLOAT if is_float else _WAVE_PCM, channels, rate,
                      rate * width * channels, width * channels, 8 * width)
    if is_float:
        fmt += b"\x00\x00"  # no format extension
    header = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
    if is_float:
        header += b"fact" + struct.pack("<II", 4, frames)
    header += b"data" + struct.pack("<I", data.nbytes)
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(header) + data.nbytes) + header)
        data.astype(data.dtype.newbyteorder("<"), copy=False).tofile(f)


def save_wav(path, buf: SampleBuffer) -> None:
    """Write a buffer as 16-bit PCM, clipping to full scale."""
    clipped = np.clip(buf.samples, -1.0, 1.0)
    pcm = np.round(clipped * (INT16_FULL_SCALE - 1)).astype(np.int16)
    _write_riff(path, buf.sample_rate_hz, pcm[:, None])


def save_wav_multichannel(path, channels: list[np.ndarray], sample_rate_hz: int) -> None:
    """Write several equal-length signals as one 32-bit float multi-channel WAV."""
    if not channels:
        raise ValueError("no channels to write")
    stacked = np.stack([np.asarray(c, dtype=np.float32) for c in channels], axis=1)
    _write_riff(path, sample_rate_hz, stacked)


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
    differs from the clean signal. snr_db may be +inf (no noise) but not
    NaN or -inf, which no gain reaches.
    """
    if math.isnan(mix.snr_db) or mix.snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number of dB or +inf, got {mix.snr_db}")
    clean = mix.clean
    noise = mix.noise
    if noise.sample_rate_hz != clean.sample_rate_hz:
        noise = resample(noise, clean.sample_rate_hz)
    n = len(clean)
    rng = np.random.default_rng(mix.seed)
    offset = int(rng.integers(0, len(noise)))
    # the noise read circularly from offset, copied a run at a time
    segment = np.empty(n)
    filled = 0
    while filled < n:
        run = noise.samples[offset:offset + n - filled]
        segment[filled:filled + run.size] = run
        filled += run.size
        offset = 0

    p_clean = float(np.mean(clean.samples ** 2))
    p_noise = float(np.mean(segment ** 2))
    if p_clean == 0.0:
        raise ValueError("SNR undefined for an all-zero clean signal")
    if p_noise == 0.0:
        raise ValueError("SNR undefined for an all-zero noise segment")
    gain = math.sqrt(p_clean / (p_noise * 10.0 ** (mix.snr_db / 10.0)))
    segment *= gain
    segment += clean.samples
    segment.setflags(write=False)
    return SampleBuffer(segment, clean.sample_rate_hz)


def measured_snr_db(mixed: SampleBuffer, clean: SampleBuffer) -> float:
    """Direct power-ratio measurement of an (already mixed) signal's SNR."""
    residual = mixed.samples - clean.samples
    p_clean = float(np.mean(clean.samples ** 2))
    p_noise = float(np.mean(residual ** 2))
    if p_noise == 0.0:
        return math.inf
    return 10.0 * math.log10(p_clean / p_noise)

