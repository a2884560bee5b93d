"""Synthetic voiced-speech corpus: utterance synthesis, noise generators,
and the manifest format that binds audio files to reference F0 tracks.

Stands in for licensed speech corpora at desk scale. Reference files hold
one "time_ms f0_hz" pair per line with 0 marking unvoiced frames.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._lapack import solve_unit_lower_band
from .audio import FrameSpec, SampleBuffer, _as_integer, load_wav, save_wav
from .track import FramePitchTrack

DEFAULT_FORMANTS = ((500.0, 80.0), (1500.0, 120.0), (2500.0, 160.0))
# (low, high) Hz ranges generate_corpus draws its three formants from; a
# corpus rate must put the top one below the Nyquist frequency, which also
# keeps the 400 Hz contour ceiling below it
CORPUS_FORMANT_RANGES = ((450.0, 900.0), (1000.0, 1900.0), (2100.0, 3100.0))
# rows each LAPACK solve in _all_pole covers, and samples each block of
# make_noise's hum tones covers, so their work memory is fixed
_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class SynthUtteranceSpec:
    """Recipe for one synthetic voiced utterance."""

    f0_contour: tuple[tuple[float, float], ...]  # (time_ms, f0_hz) knots
    duration_ms: float = 600.0
    formant_set: tuple[tuple[float, float], ...] = DEFAULT_FORMANTS
    jitter_pct: float = 0.5
    rng_seed: int = 0
    sample_rate_hz: int = 8000

    def __post_init__(self):
        if not 200.0 <= self.duration_ms < math.inf:
            raise ValueError(f"duration_ms must be at least 200 ms and finite, "
                             f"got {self.duration_ms}")
        if not self.f0_contour:
            raise ValueError("f0_contour needs at least one knot")
        for _, hz in self.f0_contour:
            if not 50.0 <= hz <= 400.0:
                raise ValueError("contour F0 values must lie in [50, 400] Hz")
        times = [float(t) for t, _ in self.f0_contour]
        if not all(b > a for a, b in zip(times, times[1:])):
            raise ValueError(f"contour knot times must strictly increase, got {times}")
        if not all(map(math.isfinite, times)):
            raise ValueError(f"contour knot times must be finite, got {times}")
        fs = _as_integer("sample_rate_hz", self.sample_rate_hz)
        if fs < 1:
            raise ValueError(f"sample_rate_hz must be at least 1, got {fs}")
        if _as_integer("rng_seed", self.rng_seed) < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if not 0.0 <= self.jitter_pct <= 30.0:
            raise ValueError(f"jitter_pct must lie in [0, 30], got {self.jitter_pct}")
        if len(self.formant_set) != 3:
            raise ValueError("formant_set must name three resonances")
        for freq, bw in self.formant_set:
            # a bandwidth <= 0 puts the resonator's poles on or outside the
            # unit circle, and a formant at or past Nyquist aliases
            if not 0.0 < freq < fs / 2:
                raise ValueError(f"formant frequencies must lie in (0, {fs / 2:g}) Hz "
                                 f"at {fs} Hz, got {freq}")
            if not 0.0 < bw < math.inf:
                raise ValueError(f"formant bandwidths must be positive and finite, got {bw}")

    def knots(self) -> tuple[np.ndarray, np.ndarray]:
        """The contour as the (times_ms, f0_hz) arrays ``np.interp`` reads."""
        return (np.array([t for t, _ in self.f0_contour]),
                np.array([f for _, f in self.f0_contour]))


def _all_pole(a, x: np.ndarray) -> None:
    """Overwrite the float64 array x with ``lfilter([1.0], a, x)`` for
    ``a[0] == 1``, zero initial state.

    The recursion y[i] = x[i] - sum_k a[k] y[i-k] is the forward
    substitution through the unit lower-triangular banded Toeplitz matrix
    of ``a``, solved _BLOCK_ROWS rows at a time over one band of p history
    rows (p the filter order) plus one block. The history rows are identity
    rows that carry the previous block's last p outputs, so every output
    row receives the same column updates, in the same order, as in one
    full-length solve, and the work memory does not grow with the signal.
    The band is built in Fortran order so LAPACK reads it without a copy,
    and each block is solved in place and written back over its inputs.
    """
    a = np.asarray(a, dtype=np.float64)
    p = a.size - 1
    band = np.tile(a, (p + _BLOCK_ROWS, 1)).T
    for k in range(1, p + 1):
        band[k, :p - k] = 0.0
    work = np.zeros(p + _BLOCK_ROWS)
    for start in range(0, x.size, _BLOCK_ROWS):
        m = min(_BLOCK_ROWS, x.size - start)
        lo = p if start == 0 else 0  # the first block has no history
        work[p:p + m] = x[start:start + m]
        solve_unit_lower_band(band[:, lo:p + m], work[lo:p + m])
        x[start:start + m] = work[p:p + m]
        work[:p] = work[m:m + p]


def _resonator_coeffs(freq_hz: float, bw_hz: float, fs: int):
    r = np.exp(-np.pi * bw_hz / fs)
    theta = 2.0 * np.pi * freq_hz / fs
    return [1.0, -2.0 * r * np.cos(theta), r * r]


def synthesize_utterance(spec: SynthUtteranceSpec) -> tuple[SampleBuffer, FramePitchTrack]:
    """Glottal-pulse train following the contour, shaped by three formant
    resonators, with per-period jitter.

    The spec accepts one or more knots with strictly increasing times and
    F0 in [50, 400] Hz, and ``jitter_pct`` in [0, 30]. The pulse at sample
    t is followed by the next one ``fs / F0`` samples later, F0 read off the
    contour at t, and that i-th period is scaled by
    ``1 + z_i * jitter_pct / 100``, where z_i is the i-th draw of
    ``default_rng(rng_seed).standard_normal`` clipped to [-3, 3].

    The ground-truth track is sampled at the analysis grid (10 ms hop),
    each frame's value taken at the frame center; frames only exist where a
    full analysis window fits, matching what any frame-based estimator can
    score.

    One array is allocated for the samples: the pulse train is filtered,
    scaled in place and handed to the buffer read-only, without a copy.
    """
    fs = spec.sample_rate_hz
    n = int(round(spec.duration_ms * fs / 1000.0))
    knots_t, knots_f = spec.knots()

    # the shortest possible period bounds the pulse count, so every period's
    # jitter is drawn up front; only the t += period recurrence is a loop
    min_period = fs / knots_f.max() * (1.0 - 3.0 * spec.jitter_pct / 100.0)
    wobble = np.clip(np.random.default_rng(spec.rng_seed).standard_normal(
        int(n / min_period) + 2), -3.0, 3.0)
    scales = (1.0 + wobble * spec.jitter_pct / 100.0).tolist()
    # the pulse times only grow, so the contour is walked segment by segment
    # in Python floats, with np.interp's arithmetic: j is the last knot at or
    # before the pulse, or the first knot while the pulse precedes it
    xp, fp = knots_t.tolist(), knots_f.tolist()
    last = len(xp) - 1
    x = np.zeros(n)
    t = 0.0
    i = j = 0
    while t < n:
        x[int(t)] += 1.0
        ms = 1000.0 * t / fs
        while j < last and xp[j + 1] <= ms:
            j += 1
        if j == last or ms <= xp[j]:  # past the last knot, at a knot or before the first
            f0 = fp[j]
        else:
            f0 = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (ms - xp[j]) + fp[j]
        t += fs / f0 * scales[i]
        i += 1

    # -6 dB/oct glottal tilt, then the formant cascade
    _all_pole([1.0, -0.95], x)
    for freq, bw in spec.formant_set:
        _all_pole(_resonator_coeffs(freq, bw, fs), x)
    peak = max(x.max(), -x.min())
    if peak > 0:
        x *= 0.5
        x /= peak
    x.setflags(write=False)
    buf = SampleBuffer(x, fs)

    frame = FrameSpec()  # the analysis grid
    n_frames = frame.num_frames(n, fs)
    times = np.arange(n_frames) * frame.hop_ms
    truth_f0 = np.interp(times + frame.frame_len_ms / 2.0, knots_t, knots_f)
    truth = FramePitchTrack(frame_times_ms=times, f0_hz=truth_f0,
                            voiced_mask=np.ones(n_frames, dtype=bool))
    return buf, truth


# ---------------------------------------------------------------------------
# Synthetic noise generators
# ---------------------------------------------------------------------------

NOISE_KINDS = ("white", "pink", "babble", "hum", "bursts", "shaped")
# the lowest rate every kind supports: below 20 Hz bursts has no room for a
# burst width, and the 10 ms hop rounds to 0 samples at 50 Hz and below
MIN_NOISE_RATE_HZ = 51
# (low, high) Hz ranges each babble voice draws its three formants from; a
# babble rate must put the top one below the Nyquist frequency
BABBLE_FORMANT_RANGES = ((300.0, 900.0), (900.0, 1800.0), (1800.0, 3000.0))


def make_noise(kind: str, n_samples: int, sample_rate_hz: int, seed: int = 0
               ) -> SampleBuffer:
    """Deterministic synthetic noise of the named kind, unit RMS.

    The output array is allocated once, scaled in place and handed to the
    buffer read-only, without a copy."""
    if _as_integer("n_samples", n_samples) < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if _as_integer("sample_rate_hz", sample_rate_hz) < MIN_NOISE_RATE_HZ:
        raise ValueError(f"noise sample_rate_hz must be at least {MIN_NOISE_RATE_HZ} Hz, "
                         f"got {sample_rate_hz}")
    top_hz = BABBLE_FORMANT_RANGES[-1][1]
    if kind == "babble" and sample_rate_hz <= 2 * top_hz:
        raise ValueError(f"babble sample_rate_hz must exceed {2 * top_hz:g} Hz, twice the "
                         f"{top_hz:g} Hz top formant, got {sample_rate_hz}")
    rng = np.random.default_rng(_as_integer("seed", seed))
    fs = sample_rate_hz
    if kind == "white":
        x = rng.standard_normal(n_samples)
    elif kind == "pink":
        # -3 dB/oct via 1/sqrt(f) spectral shaping
        spec = np.fft.rfft(rng.standard_normal(n_samples))
        freqs = np.fft.rfftfreq(n_samples, 1.0 / fs)
        freqs[0] = freqs[1] if freqs.size > 1 else 1.0
        spec /= np.sqrt(freqs, out=freqs)
        x = np.fft.irfft(spec, n_samples)
    elif kind == "shaped":
        # speech-shaped: white rolled off -6 dB/oct above 500 Hz, the gain
        # 1 / sqrt(1 + (f / 500) ** 2) built in place over the frequencies
        spec = np.fft.rfft(rng.standard_normal(n_samples))
        gain = np.fft.rfftfreq(n_samples, 1.0 / fs)
        gain /= 500.0
        np.square(gain, out=gain)
        gain += 1.0
        np.sqrt(gain, out=gain)
        np.divide(1.0, gain, out=gain)
        spec *= gain
        x = np.fft.irfft(spec, n_samples)
    elif kind == "hum":
        # engine-like idle: strong low tonal stack plus rumble; the tones
        # are summed in place _BLOCK_ROWS samples at a time, so the output
        # is the one full-length array until the rumble is drawn
        tones = [(h, amp, rng.uniform(0, 2 * np.pi))
                 for h, amp in ((1, 1.0), (2, 0.7), (3, 0.45), (4, 0.3))]
        x = np.zeros(n_samples)
        for start in range(0, n_samples, _BLOCK_ROWS):
            block = x[start:start + _BLOCK_ROWS]
            times = np.arange(start, start + block.size) / fs
            term = np.empty(block.size)
            for h, amp, phase in tones:
                np.multiply(2 * np.pi * 55.0 * h, times, out=term)
                term += phase
                np.sin(term, out=term)
                term *= amp
                block += term
        rumble = rng.standard_normal(n_samples)
        _all_pole([1.0, -0.98], rumble)
        rumble *= 0.3
        x += rumble
        del rumble  # free it before the output is scaled
    elif kind == "bursts":
        # sparse wideband clatter over a quiet floor
        x = rng.standard_normal(n_samples)
        x *= 0.1
        n_bursts = max(1, n_samples // (fs // 4))
        for _ in range(n_bursts):
            start = int(rng.integers(0, max(1, n_samples - fs // 20)))
            width = int(rng.integers(fs // 100, fs // 20))
            stop = min(n_samples, start + width)
            x[start:stop] += rng.standard_normal(stop - start) * np.hanning(stop - start)
    elif kind == "babble":
        # several competing synthetic voices talking over each other
        x = np.zeros(n_samples)
        duration_ms = 1000.0 * n_samples / fs
        for v in range(6):
            f0_base = float(rng.uniform(70, 320))
            knots = tuple(
                (t, float(np.clip(f0_base * rng.uniform(0.8, 1.25), 50, 400)))
                for t in np.linspace(0, duration_ms, 5)
            )
            voice_spec = SynthUtteranceSpec(
                f0_contour=knots,
                duration_ms=max(200.0, duration_ms),
                formant_set=tuple(
                    (float(rng.uniform(lo, hi)), float(rng.uniform(80, 200)))
                    for lo, hi in BABBLE_FORMANT_RANGES
                ),
                jitter_pct=1.0,
                rng_seed=int(rng.integers(0, 2 ** 31)),
                sample_rate_hz=fs,
            )
            voice, _ = synthesize_utterance(voice_spec)
            x[:len(voice)] += voice.samples[:n_samples]
            del voice  # free it before the next voice is synthesized
    else:
        raise ValueError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}")
    rms = float(np.sqrt(np.mean(x ** 2)))
    if rms > 0:
        x /= rms
    x.setflags(write=False)
    return SampleBuffer(x, fs)


# ---------------------------------------------------------------------------
# Corpus items, reference files, and manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusItem:
    name: str
    audio: SampleBuffer
    truth: FramePitchTrack


def write_reference(path, track: FramePitchTrack) -> None:
    """One "time_ms f0_hz" pair per line; 0 marks unvoiced frames."""
    with open(path, "w") as fh:
        for t, f0, voiced in zip(track.frame_times_ms, track.f0_hz,
                                 track.voiced_mask):
            value = f0 if voiced and np.isfinite(f0) else 0.0
            fh.write(f"{t:.1f} {value:.4f}\n")


def read_reference(path) -> FramePitchTrack:
    times, f0s, voiced = [], [], []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                t_str, f_str = line.split()
                t, f0 = float(t_str), float(f_str)
            except ValueError:
                raise ValueError(f"reference file {path} line {number}: expected "
                                 f"'time_ms f0_hz' numbers, got {line!r}") from None
            if not (math.isfinite(t) and math.isfinite(f0)):
                raise ValueError(f"reference file {path} line {number}: time and F0 "
                                 f"must be finite, got {line!r}")
            times.append(t)
            voiced.append(f0 > 0)
            f0s.append(f0 if f0 > 0 else np.nan)
    if not times:
        raise ValueError(f"empty reference file {path}")
    return FramePitchTrack(frame_times_ms=np.array(times), f0_hz=np.array(f0s),
                           voiced_mask=np.array(voiced, dtype=bool))


def write_manifest(path, entries: list[tuple[str, str]]) -> None:
    """Rows of "wav_path ref_path", relative to the manifest's directory."""
    with open(path, "w") as fh:
        for wav_path, ref_path in entries:
            fh.write(f"{wav_path} {ref_path}\n")


def load_manifest(path) -> list[CorpusItem]:
    base = os.path.dirname(os.path.abspath(path))
    items = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"manifest {path} line {number}: expected "
                                 f"'wav_path ref_path', got {line!r}")
            wav_rel, ref_rel = fields
            wav_path = os.path.join(base, wav_rel)
            ref_path = os.path.join(base, ref_rel)
            name = os.path.splitext(os.path.basename(wav_rel))[0]
            items.append(CorpusItem(name=name, audio=load_wav(wav_path),
                                    truth=read_reference(ref_path)))
    if not items:
        raise ValueError(f"manifest {path} lists no utterances")
    return items


def generate_corpus(out_dir, count: int = 20, seed: int = 0,
                    duration_ms: float = 600.0, sample_rate_hz: int = 8000,
                    low_fraction: float = 0.5) -> str:
    """Write WAVs, reference tracks, and a manifest; returns the manifest path.

    Half the contours (by low_fraction) stay at or below 200 Hz, the rest
    above, so separation experiments see both regions. Every option is
    checked before out_dir is created.
    """
    if _as_integer("count", count) < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if _as_integer("seed", seed) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0.0 <= low_fraction <= 1.0:
        raise ValueError(f"low_fraction must lie in [0, 1], got {low_fraction}")
    if _as_integer("sample_rate_hz", sample_rate_hz) < 1:
        raise ValueError(f"sample_rate_hz must be at least 1, got {sample_rate_hz}")
    FrameSpec().hop(sample_rate_hz)  # rejects a rate the reference grid cannot sample
    top_hz = CORPUS_FORMANT_RANGES[-1][1]
    if sample_rate_hz <= 2 * top_hz:
        raise ValueError(f"corpus sample_rate_hz must exceed {2 * top_hz:g} Hz, twice the "
                         f"{top_hz:g} Hz top formant, got {sample_rate_hz}")
    rng = np.random.default_rng(seed)
    specs = []
    n_low = int(round(count * low_fraction))
    for i in range(count):
        if i < n_low:
            base = float(rng.uniform(90, 170))
            lo_bound, hi_bound = 55.0, 195.0
        else:
            base = float(rng.uniform(230, 340))
            lo_bound, hi_bound = 210.0, 395.0
        span = float(rng.uniform(0.85, 1.15))
        knots = tuple(
            (t, float(np.clip(base * span ** k, lo_bound, hi_bound)))
            for k, t in enumerate(np.linspace(0, duration_ms, 4))
        )
        formants = tuple(
            (float(rng.uniform(lo, hi)), float(rng.uniform(80, 180)))
            for lo, hi in CORPUS_FORMANT_RANGES
        )
        specs.append(SynthUtteranceSpec(
            f0_contour=knots, duration_ms=duration_ms, formant_set=formants,
            jitter_pct=0.5, rng_seed=int(rng.integers(0, 2 ** 31)),
            sample_rate_hz=sample_rate_hz,
        ))
    os.makedirs(out_dir, exist_ok=True)  # only once every option has passed
    entries = []
    for i, spec in enumerate(specs):
        audio, truth = synthesize_utterance(spec)
        stem = f"utt_{i:03d}_{'low' if i < n_low else 'high'}"
        save_wav(os.path.join(out_dir, f"{stem}.wav"), audio)
        write_reference(os.path.join(out_dir, f"{stem}.f0"), truth)
        entries.append((f"{stem}.wav", f"{stem}.f0"))
    manifest_path = os.path.join(out_dir, "manifest.txt")
    write_manifest(manifest_path, entries)
    return manifest_path


def write_noise_set(out_dir, kinds=NOISE_KINDS, duration_ms: float = 3000.0,
                    sample_rate_hz: int = 8000, seed: int = 0) -> dict[str, str]:
    """Materialize one WAV per noise kind; returns kind -> path. Every noise
    is made before out_dir is created, so a rejected option leaves no
    directory."""
    if _as_integer("seed", seed) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    n = int(round(duration_ms * sample_rate_hz / 1000.0))
    bufs = [make_noise(kind, n, sample_rate_hz, seed=seed + k)
            for k, kind in enumerate(kinds)]
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for kind, buf in zip(kinds, bufs):
        path = os.path.join(out_dir, f"{kind}.wav")
        # unit-RMS noise exceeds 16-bit full scale; store at 0.2 RMS
        scaled = buf.samples * 0.2
        scaled.setflags(write=False)
        save_wav(path, SampleBuffer(scaled, sample_rate_hz))
        paths[kind] = path
    return paths
