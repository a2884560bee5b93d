"""Voiced/unvoiced detection from zero-crossing rate and short-time energy.

Both features are utterance-relative, so the mask is invariant to global
gain and needs no re-tuning across SNR conditions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .audio import FrameSpec, SampleBuffer


@dataclass(frozen=True)
class VadConfig:
    """The frame, hangover and decision thresholds are fixed class attributes,
    not module constants: detect_voiced and tests read them as cfg.<name>."""

    frame_ms: ClassVar[float] = 25.0
    hangover_frames: ClassVar[int] = 2
    # sign flips per sample transition; broadband noise sits near 0.5, so the
    # ceiling is set just under that to keep voiced frames at low SNR
    zcr_max: ClassVar[float] = 0.48
    energy_min_ratio: ClassVar[float] = 0.1  # fraction of utterance mean frame energy
    # on the analysis hop: VAD frame i starts where analysis frame i does
    frame_spec: ClassVar[FrameSpec] = FrameSpec(frame_ms, FrameSpec().hop_ms)


def _majority_hold(mask: np.ndarray, hangover: int) -> np.ndarray:
    """Majority vote over a (2*hangover+1)-frame window, clipped at the ends."""
    padded = np.concatenate([[0], np.cumsum(mask.astype(np.int64))])
    i = np.arange(mask.size)
    lo = np.maximum(0, i - hangover)
    hi = np.minimum(mask.size - 1, i + hangover)
    return (padded[hi + 1] - padded[lo]) * 2 > (hi - lo + 1)


def _frame_features(buf: SampleBuffer, spec: FrameSpec
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-square energy, zero-crossing rate and nonzero spread of every
    row of spec.frames. A zero sample counts as negative for zero crossings."""
    frames = spec.frames(buf.samples, buf.sample_rate_hz)
    signs = frames > 0
    zcrs = (signs[:, 1:] != signs[:, :-1]).mean(axis=1)
    return np.mean(frames ** 2, axis=1), zcrs, np.ptp(frames, axis=1) > 0


def detect_voiced(buf: SampleBuffer) -> np.ndarray:
    """Per-frame voiced mask on the analysis hop: low zero-crossing rate
    AND energy above a fraction of the utterance mean, then
    hangover-smoothed. A frame whose samples are all equal (DC, or silence)
    has no periodic content and is always unvoiced, whatever its
    neighbours. A rate at which a VAD frame holds fewer than 2 samples, so
    that no zero crossing can be counted, raises ValueError."""
    cfg, spec = VadConfig, VadConfig.frame_spec
    if spec.frame_len(buf.sample_rate_hz) < 2:
        raise ValueError(f"a {cfg.frame_ms} ms VAD frame holds 1 sample at "
                         f"{buf.sample_rate_hz} Hz; the zero-crossing rate needs "
                         f"at least 2")
    energies, zcrs, moving = _frame_features(buf, spec)
    mean_energy = float(energies.mean())
    if mean_energy == 0.0:
        return np.zeros(len(energies), dtype=bool)
    raw = (zcrs < cfg.zcr_max) & (energies > cfg.energy_min_ratio * mean_energy) & moving
    return _majority_hold(raw, cfg.hangover_frames) & moving


def voiced_segments(mask: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous voiced runs as (first_frame, last_frame) inclusive pairs."""
    edges = np.diff(np.asarray(mask, dtype=np.int8), prepend=0, append=0)
    return [(int(first), int(end) - 1) for first, end
            in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))]
