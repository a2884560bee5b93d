"""Per-frame pitch track container shared by the pipeline and the metrics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def has_estimate(f0) -> np.ndarray:
    """Boolean mask of frames carrying a usable estimate."""
    f0 = np.asarray(f0, dtype=np.float64)
    return np.isfinite(f0) & (f0 > 0)


@dataclass(frozen=True)
class FramePitchTrack:
    """F0 per frame on a uniform grid; NaN marks frames with no estimate."""

    frame_times_ms: np.ndarray
    f0_hz: np.ndarray
    voiced_mask: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.frame_times_ms, dtype=np.float64)
        f0 = np.asarray(self.f0_hz, dtype=np.float64)
        voiced = np.asarray(self.voiced_mask, dtype=bool)
        if not times.ndim == f0.ndim == voiced.ndim == 1:
            raise ValueError("track arrays must be 1-D, got shapes "
                             f"{times.shape}, {f0.shape} and {voiced.shape}")
        if not times.size == f0.size == voiced.size:
            raise ValueError("track arrays must have equal length")
        if not np.all(np.isfinite(times)):
            raise ValueError("frame times must be finite")
        if np.any(f0 <= 0) or np.any(np.isinf(f0)):
            raise ValueError("f0 values must be positive and finite, or NaN (no estimate)")
        object.__setattr__(self, "frame_times_ms", times)
        object.__setattr__(self, "f0_hz", f0)
        object.__setattr__(self, "voiced_mask", voiced)

    def __len__(self) -> int:
        return self.frame_times_ms.size

    def estimated_mask(self) -> np.ndarray:
        return has_estimate(self.f0_hz)


ALIGN_TOL_MS = 5.0  # how far two tracks' frame times may differ on one grid


def tracks_aligned(a: FramePitchTrack, b: FramePitchTrack) -> bool:
    """Same grid check: equal length and start times within ALIGN_TOL_MS."""
    if len(a) != len(b):
        return False
    return bool(np.all(np.abs(a.frame_times_ms - b.frame_times_ms) <= ALIGN_TOL_MS))
