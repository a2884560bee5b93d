"""Voiced/unvoiced detection from zero-crossing rate and short-time energy.

Both features are utterance-relative, so the mask is invariant to global
gain and needs no re-tuning across SNR conditions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import FrameSpec, SampleBuffer


@dataclass(frozen=True)
class VadConfig:
    frame_ms: float = 25.0
    # sign flips per sample transition; broadband noise sits near 0.5, so the
    # ceiling is set just under that to keep voiced frames at low SNR
    zcr_max: float = 0.48
    energy_min_ratio: float = 0.1      # fraction of utterance mean frame energy
    hangover_frames: int = 2

    def __post_init__(self):
        if self.frame_ms <= 0:
            raise ValueError("frame_ms must be positive")
        if not 0 < self.zcr_max < 1:
            raise ValueError("zcr_max must lie in (0, 1)")
        if self.energy_min_ratio <= 0:
            raise ValueError("energy_min_ratio must be positive")
        if self.hangover_frames < 0:
            raise ValueError("hangover_frames must be non-negative")

    def frame_spec(self, analysis: FrameSpec = FrameSpec()) -> FrameSpec:
        # on the analysis hop: VAD frame i starts where analysis frame i does
        return FrameSpec(frame_len_ms=self.frame_ms, hop_ms=analysis.hop_ms)


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


def detect_voiced(buf: SampleBuffer, cfg: VadConfig = VadConfig(),
                  frame: FrameSpec = FrameSpec()) -> np.ndarray:
    """Per-frame voiced mask on the hop of `frame`: low zero-crossing rate
    AND energy above a fraction of the utterance mean, then
    hangover-smoothed. A frame whose samples are all equal (DC, or silence)
    has no periodic content and is always unvoiced, whatever its
    neighbours."""
    energies, zcrs, moving = _frame_features(buf, cfg.frame_spec(frame))
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
