"""Low/high frequency separation of voiced frames and octave-error correction.

Per frame, F0 is estimated independently on the first decomposition modes;
the two modes whose estimates vary least against the others are selected,
and their mean places the frame below or above the boundary gamma (200 Hz).
Pitch candidates from a conventional estimator are then folded into the
band the frame belongs to ([gamma/4, gamma] for low, [gamma, 2 gamma] for
high) by octave shifts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import Frame, FrameSpec, SampleBuffer
from .emd import EmdConfig, ImfSet, eemd_decompose
from .estimators import (
    CANDIDATE,
    FRAME_ESTIMATORS,
    EstimatorConfig,
    hht_candidates,
    pefac_scores,
    pick,
)
from .spectral import log_grid
from .track import FramePitchTrack
from .vad import VadConfig, detect_voiced, voiced_segments

LOW = "low"
HIGH = "high"
SMOOTH_FRAMES = 5  # per-mode PEFAC score curves are averaged over this many frames
ESTIMATORS = (*FRAME_ESTIMATORS, "hht")  # every name analyze_utterance accepts


@dataclass(frozen=True)
class ProConfig:
    """The paper's fixed separation constants, read as cfg.<name>."""

    gamma_hz: ClassVar[float] = 200.0  # low/high boundary
    k_imfs: ClassVar[int] = 4          # modes whose F0 the region pass reads


def region_of(f0_hz: float, gamma_hz: float = ProConfig.gamma_hz) -> str:
    """The region a frequency lies in: LOW at or below gamma, HIGH above."""
    return LOW if f0_hz <= gamma_hz else HIGH


@dataclass(frozen=True)
class FrequencyRegion:
    """Low/high decision for one frame, with the evidence behind it.

    mean_f0 is NaN and selected_imfs is None when the frame inherited its
    region from the previous frame (too few usable mode estimates).
    """

    frame_index: int
    region: str
    mean_f0: float
    selected_imfs: tuple[int, int] | None

    def __post_init__(self):
        if self.region not in (LOW, HIGH):
            raise ValueError(f"unknown region {self.region!r}")
        if self.selected_imfs is not None:
            a, b = self.selected_imfs
            if a == b or a < 1 or b < 1:
                raise ValueError("selected modes must be distinct 1-based indices")


def distance_matrix(f0_vector: np.ndarray) -> np.ndarray:
    """Normalized pairwise distances |(a - b) / (a + b)| over the last axis.

    Symmetric with zero diagonal; every value lies in [0, 1). Leading axes
    are batch axes: a (frames x modes) array gives one matrix per frame.
    """
    v = np.asarray(f0_vector, dtype=np.float64)
    if np.any(~np.isfinite(v)) or np.any(v <= 0):
        raise ValueError("distance matrix requires strictly positive F0 entries")
    diff = np.abs(v[..., :, None] - v[..., None, :])
    total = v[..., :, None] + v[..., None, :]
    return diff / total


def _smallest_two(scores: np.ndarray) -> np.ndarray:
    """0-based indices of the two smallest scores along the last axis,
    smallest first; ties go to the smaller index. Callers put each pair in
    index order in Python: numpy's first integer sort maps about 256 KB more
    resident memory."""
    return np.argsort(scores, axis=-1, kind="stable")[..., :2]


def select_imf_pair(d: np.ndarray) -> tuple[tuple[int, int], np.ndarray]:
    """Pick the two modes with the smallest variation against the rest.

    Row sums of the distance matrix score each mode's variation; the two
    smallest win, ties toward the smaller index. Returns 1-based indices in
    ascending order plus the row-sum scores.
    """
    d = np.asarray(d, dtype=np.float64)
    k = d.shape[0]
    if d.shape != (k, k) or k < 2:
        raise ValueError("need a square matrix of size >= 2")
    scores = d.sum(axis=1)
    a, b = sorted(_smallest_two(scores).tolist())
    return (a + 1, b + 1), scores


def classify_frames(mode_f0: np.ndarray, frames: np.ndarray | None = None
                    ) -> list[FrequencyRegion]:
    """Classify the given rows (frame indices, in order; default all) of a
    (frames x modes) F0 matrix in one array pass: the select_imf_pair rule
    over each row's usable (finite) modes, then region_of the pair's mean
    F0. A frame with fewer than two usable mode estimates inherits the
    region of the frame classified before it; the first one defaults to low.
    """
    mode_f0 = np.asarray(mode_f0, dtype=np.float64)
    if mode_f0.ndim != 2 or mode_f0.shape[1] < 2:
        raise ValueError("need a (frames x modes) array of at least two mode estimates")
    rows = np.arange(len(mode_f0)) if frames is None else np.asarray(frames, dtype=np.intp)
    v = mode_f0[rows]
    usable = np.isfinite(v)
    if np.any(usable & (v <= 0)):
        raise ValueError("mode F0 entries must be positive or NaN")
    # unusable modes get a stand-in F0, add 0 to every row sum and never win
    v = np.where(usable, v, 1.0)
    scores = np.where(usable[:, None, :], distance_matrix(v), 0.0).sum(axis=-1)
    pair = _smallest_two(np.where(usable, scores, np.inf))
    mean_f0 = 0.5 * np.take_along_axis(v, pair, axis=1).sum(axis=1)
    regions, last = [], LOW
    for i, ok, mean, pair_i in zip(rows.tolist(), (usable.sum(axis=1) >= 2).tolist(),
                                   mean_f0.tolist(), pair.tolist()):
        last = region_of(mean) if ok else last
        a, b = sorted(pair_i)
        regions.append(FrequencyRegion(i, last, mean, (a + 1, b + 1)) if ok
                       else FrequencyRegion(i, last, math.nan, None))
    return regions


def classify_region(f0_per_imf: np.ndarray, frame_index: int = 0) -> FrequencyRegion:
    """classify_frames on one frame's per-mode F0 vector; exactly gamma
    counts as low. Fewer than two usable modes raises ValueError."""
    v = np.asarray(f0_per_imf, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-D array of at least two mode estimates")
    region = classify_frames(v[None, :])[0]
    if region.selected_imfs is None:
        raise ValueError(f"frame {frame_index}: only {np.isfinite(v).sum()} "
                         "usable mode estimates")
    return replace(region, frame_index=frame_index)


def _smoothed_argmax_track(cands: np.ndarray, scores: np.ndarray,
                           valid: np.ndarray, window: int = SMOOTH_FRAMES
                           ) -> np.ndarray:
    """Per-frame argmax over score curves averaged across neighbor frames.

    Pools pitch evidence over time the way a tracking back end would, which
    stabilizes estimates on noisy bandlimited modes. Each frame averages the
    valid rows among the 2 * (window // 2) + 1 frames centred on it. Invalid
    rows and the padding past either end enter the window sums as zeros, so
    each sum equals the sum of its valid rows. Frames whose window holds no
    valid curves come out NaN.
    """
    half = max(0, window // 2)
    width = 2 * half + 1
    masked = np.pad(np.where(valid[:, None], scores, 0.0), ((half, half), (0, 0)))
    sums = sliding_window_view(masked, width, axis=0).sum(axis=-1)
    counts = sliding_window_view(np.pad(valid.astype(np.int64), half),
                                 width).sum(axis=-1)
    with np.errstate(invalid="ignore"):
        picks = cands[np.argmax(sums / counts[:, None], axis=1)]
    return np.where(counts > 0, picks, np.nan)


def imf_pitch_vector(imfs: ImfSet) -> np.ndarray:
    """Frame-by-frame PEFAC F0 on each of the first k_imfs modes, as a
    (frames x k_imfs) matrix (all modes share the source length, so the
    framing is identical). Each mode's comb score curves are averaged over
    SMOOTH_FRAMES neighboring frames before the argmax. A mode frame PEFAC
    cannot score counts as missing in that average; a frame whose whole
    window is missing yields NaN for that mode.
    """
    k_imfs, spec, est = ProConfig.k_imfs, AnalysisConfig.frame, EstimatorConfig
    if len(imfs) < k_imfs:
        raise ValueError(
            f"separation needs {k_imfs} modes, decomposition produced {len(imfs)}")
    fs = imfs.sample_rate_hz
    cands = log_grid(est.f_min, est.f_max, est.bins_per_octave)
    per_mode = []
    for mode in imfs.modes[:k_imfs]:
        frames = spec.frames(mode, fs)
        scores = np.full((len(frames), cands.size), -np.inf)
        valid = np.zeros(len(frames), dtype=bool)
        for i, row in enumerate(frames):
            try:
                scores[i] = pefac_scores(Frame(row, fs, i * spec.hop_ms))[1]
                valid[i] = True
            except ValueError:
                pass
        per_mode.append(_smoothed_argmax_track(cands, scores, valid))
    return np.column_stack(per_mode)


def correct_candidate(f_cand: float, region: str) -> float:
    """Fold a pitch candidate into its frame's frequency band.

    Low frames map onto [gamma/4, gamma]: identity there, halve on
    (gamma, 2 gamma], quarter above 2 gamma. High frames map onto
    [gamma, 2 gamma]: quadruple on [gamma/4, gamma/2], double on
    (gamma/2, gamma], identity on (gamma, 2 gamma], halve above 2 gamma.
    Candidates below gamma/4 pass through unchanged (out of the model's
    range; callers flag them in diagnostics). With gamma at 200 Hz the
    edges are 50, 100, 200 and 400 Hz.
    """
    gamma_hz = ProConfig.gamma_hz
    if f_cand <= 0:
        raise ValueError("candidate frequency must be positive")
    if region not in (LOW, HIGH):
        raise ValueError(f"unknown region {region!r}")
    if f_cand < 0.25 * gamma_hz:
        return f_cand
    if region == LOW:
        if f_cand <= gamma_hz:
            return f_cand
        if f_cand <= 2.0 * gamma_hz:
            return 0.5 * f_cand
        return 0.25 * f_cand
    if f_cand <= 0.5 * gamma_hz:
        return 4.0 * f_cand
    if f_cand <= gamma_hz:
        return 2.0 * f_cand
    if f_cand <= 2.0 * gamma_hz:
        return f_cand
    return 0.5 * f_cand


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisConfig:
    """The settable decomposition config; the frame, estimator, region and
    VAD sections are the paper's fixed constants."""

    emd: EmdConfig = EmdConfig()
    frame: ClassVar[FrameSpec] = FrameSpec()
    estimator: ClassVar[EstimatorConfig] = EstimatorConfig()
    pro: ClassVar[ProConfig] = ProConfig()
    vad: ClassVar[VadConfig] = VadConfig()


@dataclass(frozen=True)
class FrameDiagnostic:
    """Per-frame audit record for the separate-and-correct path: the frame's
    region decision and its candidates before and after folding."""

    region: FrequencyRegion
    raw_f0s: tuple[float, ...]
    corrected_f0s: tuple[float, ...]
    out_of_model: bool  # some raw candidate lies below gamma/4


@dataclass(frozen=True)
class MethodResult:
    """One estimator/method result. All pro keys of one analysis share the
    same regions tuple; raw keys carry no regions and no diagnostics."""

    track: FramePitchTrack
    regions: tuple[FrequencyRegion, ...]
    diagnostics: tuple[FrameDiagnostic, ...]


def check_keys(estimators: list[str], methods: list[str]) -> None:
    """Reject estimator or method names the pipeline does not know."""
    for m in methods:
        if m not in ("raw", "pro"):
            raise ValueError(f"unknown method {m!r}")
    for est in estimators:
        if est not in ESTIMATORS:
            raise ValueError(f"unknown estimator {est!r}; "
                             f"expected one of {sorted(FRAME_ESTIMATORS)} or 'hht'")


def _diagnostic(raw: np.ndarray, folded: np.ndarray, region: FrequencyRegion
                ) -> FrameDiagnostic:
    """Audit record of one frame from its raw and folded CANDIDATE rows."""
    found = ~np.isnan(raw["f0_hz"])
    raw_f0s = tuple(raw["f0_hz"][found].tolist())
    return FrameDiagnostic(region=region, raw_f0s=raw_f0s,
                           corrected_f0s=tuple(folded["f0_hz"][found].tolist()),
                           out_of_model=any(f < 0.25 * ProConfig.gamma_hz
                                            for f in raw_f0s))


def analyze_utterance(buf: SampleBuffer, estimators: list[str],
                      methods: list[str], cfg: AnalysisConfig = AnalysisConfig()
                      ) -> dict[tuple[str, str], MethodResult]:
    """Run the requested estimator/method combinations over one utterance.

    Every stage writes onto the utterance's frame grid, and the utterance
    is framed once. Each voiced segment is decomposed once, sifting exactly
    the modes the requested keys read (pro.k_imfs for pro,
    estimator.hht_num_imfs for hht, the larger for both); its per-mode
    F0 rows and hht candidates land at the segment's frames. pefac, shr and
    swipe then score the voiced rows of the utterance framing, and each
    (f0_hz, salience) pair they return fills the frame's one slot. Each
    estimator keeps one (frames x slots) CANDIDATE array (one slot per mode
    for hht, one slot otherwise). One region pass then classifies all
    voiced frames in order, so a frame without mode evidence inherits the
    previous voiced frame's region, across segments too. The raw F0 is each
    frame's most salient candidate. Each candidate of a voiced frame is
    folded once into the frame's region, and the pro F0 is the most salient
    folded candidate. Folding keeps salience and order, so this equals the
    raw pick folded.
    """
    check_keys(estimators, methods)
    fs = buf.sample_rate_hz
    frames = cfg.frame.frames(buf.samples, fs)
    n_track = len(frames)
    times = np.arange(n_track) * cfg.frame.hop_ms
    pro = "pro" in methods
    hht = "hht" in estimators
    hop, vad_len = cfg.frame.hop(fs), cfg.vad.frame_spec.frame_len(fs)
    # sifting is sequential, so stopping after the last mode a key reads
    # leaves every mode that is read, and their trial averages, unchanged
    n_modes = max(cfg.pro.k_imfs if pro else 1,
                  cfg.estimator.hht_num_imfs if hht else 1)

    voiced = np.zeros(n_track, dtype=bool)
    mode_f0 = np.full((n_track, cfg.pro.k_imfs), np.nan)
    cands = {est: np.full((n_track, cfg.estimator.hht_num_imfs if est == "hht" else 1),
                          np.nan, CANDIDATE) for est in estimators}
    for first, last in voiced_segments(detect_voiced(buf)):
        seg = buf.samples[first * hop:last * hop + vad_len]
        n_frames = cfg.frame.num_frames(len(seg), fs)
        rows = slice(first, first + n_frames)
        voiced[rows] = True
        if n_frames == 0 or not (pro or hht):
            continue
        decomposition = eemd_decompose(SampleBuffer(seg, fs), cfg.emd, n_modes)
        if pro and len(decomposition) >= cfg.pro.k_imfs:
            mode_f0[rows] = imf_pitch_vector(decomposition)
        if hht and len(decomposition) >= cfg.estimator.hht_num_imfs:
            cands["hht"][rows] = hht_candidates(decomposition)
    # a segment's frame i is the utterance's frame first + i, so the comb
    # estimators score the voiced rows of the one utterance framing
    for est in [e for e in estimators if e != "hht"]:
        for i in np.flatnonzero(voiced):
            try:
                cands[est][i, 0] = FRAME_ESTIMATORS[est](
                    Frame(frames[i], fs, float(times[i])))
            except ValueError:
                pass

    regions = tuple(classify_frames(mode_f0, np.flatnonzero(voiced))) if pro else ()
    out: dict[tuple[str, str], MethodResult] = {}
    for est in estimators:
        raw = pick(cands[est])
        f0, diagnostics = {"raw": raw}, ()
        if pro:
            folded = cands[est].copy()
            for r in regions:
                row = folded["f0_hz"][r.frame_index]
                for k in np.flatnonzero(~np.isnan(row)):
                    row[k] = correct_candidate(row[k], r.region)
            f0["pro"] = pick(folded)
            diagnostics = tuple(_diagnostic(cands[est][r.frame_index],
                                            folded[r.frame_index], r) for r in regions)
        for meth in methods:
            track = FramePitchTrack(frame_times_ms=times.copy(), f0_hz=f0[meth],
                                    voiced_mask=voiced.copy())
            out[(est, meth)] = MethodResult(
                track=track,
                regions=regions if meth == "pro" else (),
                diagnostics=diagnostics if meth == "pro" else ())
    return out
