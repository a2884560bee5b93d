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
import sys
from dataclasses import dataclass
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
from .track import FramePitchTrack
from .vad import VadConfig, detect_voiced, voiced_segments

LOW = "low"
HIGH = "high"
SMOOTH_FRAMES = 5  # per-mode PEFAC score curves are averaged over this many frames
# frames per comb estimator call. A call builds its comb geometry once and
# holds one linear spectrum per frame (32 KB at 16 kHz), so a fixed block
# keeps its work memory from growing with the utterance; blocks of 16 raised
# comb_raw's peak_rss_mb by 0.2-0.3 MB, blocks of 4 did not
_BLOCK_ROWS = 4
ESTIMATORS = (*FRAME_ESTIMATORS, "hht")  # every name analyze_utterance accepts
# binary exponents of an input peak left as they are: a quarter of float64's
# exponent range either side of 0, so every square and sum of squares of the
# samples (frame energies, spectra, sift sums) stays normal and finite
_PEAK_EXPONENTS = range(sys.float_info.min_exp // 4, sys.float_info.max_exp // 4 + 1)


@dataclass(frozen=True)
class ProConfig:
    """The paper's fixed separation constants, read as cfg.<name>."""

    gamma_hz: ClassVar[float] = 200.0  # low/high boundary
    k_imfs: ClassVar[int] = 4          # modes whose F0 the region pass reads


_REGIONS = (LOW, HIGH)
# The band table: the factor a candidate is folded by, per region (rows, in
# _REGIONS order) and band (columns: below gamma/4, passed through, then
# [gamma/4, gamma/2], (gamma/2, gamma], (gamma, 2 gamma], above 2 gamma).
_FOLD = np.array([[1.0, 1.0, 1.0, 0.5, 0.25],
                  [1.0, 4.0, 2.0, 1.0, 0.5]])


def _above(f0_hz, gamma_hz: float = ProConfig.gamma_hz):
    """The gamma rule on a frequency or an array: 1 (high) above gamma, 0
    (low) at or below it, a row of _FOLD."""
    return 1 * (f0_hz > gamma_hz)


def _fold(f_hz, row):
    """f_hz times the _FOLD factor of its band in the given row, on a float
    or broadcast over arrays; a NaN (an empty slot) stays NaN."""
    g = ProConfig.gamma_hz
    band = 1 * (f_hz >= 0.25 * g) + (f_hz > 0.5 * g) + _above(f_hz) + (f_hz > 2.0 * g)
    return f_hz * _FOLD[row, band]


def region_of(f0_hz: float, gamma_hz: float = ProConfig.gamma_hz) -> str:
    """The region a frequency lies in: LOW at or below gamma, HIGH above.
    A non-finite frequency raises ValueError."""
    if not math.isfinite(f0_hz):
        raise ValueError(f"frequency must be finite, got {f0_hz}")
    return _REGIONS[_above(f0_hz, gamma_hz)]


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
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be non-negative, got {self.frame_index}")
        if self.region not in _REGIONS:
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


# One row of an utterance's region table per classified frame: the frame
# index, the gamma rule's decision as a row of _FOLD (1 high, 0 low), the
# selected pair's mean F0 and its 1-based modes in ascending order; mean_f0 is
# NaN and both modes 0 on a frame that inherited its region
REGION_ROW = np.dtype([("frame_index", np.intp), ("high", np.int8),
                       ("mean_f0", np.float64), ("imf_a", np.int32), ("imf_b", np.int32)])


def _region_table(mode_f0: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Classify the given rows (strictly increasing frame indices) of a
    (frames x modes) matrix of positive or NaN mode F0s in one array pass,
    as a REGION_ROW array: the select_imf_pair rule over each row's usable
    (finite) modes, then region_of's gamma rule on the pair's mean F0. Each
    frame takes the region of the last frame, itself included, with two
    usable modes; low before it.
    """
    v = mode_f0[rows]
    usable = np.isfinite(v)
    # unusable modes get a stand-in F0, add 0 to every row sum and never win
    v = np.where(usable, v, 1.0)
    scores = np.where(usable[:, None, :], distance_matrix(v), 0.0).sum(axis=-1)
    pair = _smallest_two(np.where(usable, scores, np.inf))
    mean_f0 = 0.5 * np.take_along_axis(v, pair, axis=1).sum(axis=1)
    ok = usable.sum(axis=1) >= 2
    last_ok = np.maximum.accumulate(np.where(ok, np.arange(len(rows)), -1))
    table = np.empty(len(rows), REGION_ROW)
    table["frame_index"] = rows
    table["high"] = np.where(last_ok < 0, 0, _above(mean_f0)[last_ok])
    table["mean_f0"] = np.where(ok, mean_f0, np.nan)
    table["imf_a"] = np.where(ok, pair.min(axis=1) + 1, 0)
    table["imf_b"] = np.where(ok, pair.max(axis=1) + 1, 0)
    return table


def _region_objects(table: np.ndarray) -> list[FrequencyRegion]:
    """The FrequencyRegion of each row of a region table."""
    return [FrequencyRegion(i, _REGIONS[h], mean, (a, b) if a else None)
            for i, h, mean, a, b in table.tolist()]


def _smoothed_argmax_track(cands: np.ndarray, scores: np.ndarray,
                           valid: np.ndarray) -> np.ndarray:
    """Per-frame argmax over score curves averaged across neighbor frames.

    Pools pitch evidence over time the way a tracking back end would, which
    stabilizes estimates on noisy bandlimited modes. Each frame averages the
    valid rows among the 2 * (SMOOTH_FRAMES // 2) + 1 frames centred on it.
    Invalid rows and the padding past either end enter the window sums as
    zeros, so each sum equals the sum of its valid rows. Frames whose window
    holds no valid curves come out NaN.
    """
    half = SMOOTH_FRAMES // 2
    width = 2 * half + 1
    masked = np.pad(np.where(valid[:, None], scores, 0.0), ((half, half), (0, 0)))
    sums = sliding_window_view(masked, width, axis=0).sum(axis=-1)
    counts = sliding_window_view(np.pad(valid.astype(np.int64), half),
                                 width).sum(axis=-1)
    with np.errstate(invalid="ignore"):
        picks = cands[np.argmax(sums / counts[:, None], axis=1)]
    return np.where(counts > 0, picks, np.nan)


def _blocks(start: int, stop: int):
    """Slices that cover the frame rows [start, stop), _BLOCK_ROWS at a time."""
    for first in range(start, stop, _BLOCK_ROWS):
        yield slice(first, min(first + _BLOCK_ROWS, stop))


def _comb_candidates(cands: dict[str, np.ndarray], frames: np.ndarray, fs: int,
                     rows: slice) -> None:
    """Write each comb estimator's (f0_hz, salience) over the frame rows
    into the (frames x 1) CANDIDATE array cands maps it to, block-major:
    every estimator scores a block of _BLOCK_ROWS rows before the next
    block starts. An all-zero row's slot stays empty."""
    for block in _blocks(rows.start, rows.stop):
        frame = Frame(frames[block], fs, block.start * AnalysisConfig.frame.hop_ms)
        for est, c in cands.items():
            c["f0_hz"][block, 0], c["salience"][block, 0] = FRAME_ESTIMATORS[est](frame)


def imf_pitch_vector(imfs: ImfSet) -> np.ndarray:
    """Frame-by-frame PEFAC F0 on each of the first k_imfs modes, as a
    (frames x k_imfs) matrix (all modes share the source length, so the
    framing is identical). PEFAC scores each mode's frames _BLOCK_ROWS at a
    time, and the comb score curves are averaged over SMOOTH_FRAMES
    neighboring frames before the argmax. A mode frame PEFAC cannot score
    (all zeros) counts as missing in that average; a frame whose whole
    window is missing yields NaN for that mode.
    """
    k_imfs, spec = ProConfig.k_imfs, AnalysisConfig.frame
    if len(imfs) < k_imfs:
        raise ValueError(
            f"separation needs {k_imfs} modes, decomposition produced {len(imfs)}")
    fs = imfs.sample_rate_hz
    per_mode = []
    for mode in imfs.modes[:k_imfs]:
        frames = spec.frames(mode, fs)
        for rows in _blocks(0, len(frames)):
            cands, block = pefac_scores(Frame(frames[rows], fs, rows.start * spec.hop_ms))
            if rows.start == 0:  # the grid pefac_scores returns sizes the matrix
                scores = np.empty((len(frames), cands.size))
            scores[rows] = block
        per_mode.append(_smoothed_argmax_track(cands, scores, ~np.isnan(scores[:, 0])))
    return np.column_stack(per_mode)


def correct_candidate(f_cand: float, region: str) -> float:
    """Fold a pitch candidate into its frame's band with the band table:
    low frames onto [gamma/4, gamma], high frames onto [gamma, 2 gamma]
    (band edges 50, 100, 200 and 400 Hz at gamma = 200 Hz). Candidates below
    gamma/4 pass through unchanged (out of the model's range; callers flag
    them in diagnostics).
    """
    if not 0.0 < f_cand < math.inf:
        raise ValueError(f"candidate frequency must be positive and finite, got {f_cand}")
    if region not in _REGIONS:
        raise ValueError(f"unknown region {region!r}")
    return float(_fold(f_cand, _REGIONS.index(region)))


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


@dataclass(frozen=True, slots=True)
class MethodResult:
    """One estimator/method result. A pro key also holds the analysis's
    REGION_ROW table (the same array on every pro key) and the estimator's
    raw (frames x slots) CANDIDATE array; regions and diagnostics are built
    from them on each read and not cached, so a kept result holds no
    per-frame object. Both are empty on a raw key."""

    track: FramePitchTrack
    region_table: np.ndarray | None = None
    candidates: np.ndarray | None = None

    @property
    def regions(self) -> tuple[FrequencyRegion, ...]:
        """The FrequencyRegion of each classified (voiced) frame, in order."""
        if self.region_table is None:
            return ()
        return tuple(_region_objects(self.region_table))

    @property
    def diagnostics(self) -> tuple[FrameDiagnostic, ...]:
        """Per classified frame, its region and the found candidates before
        and after the band-table fold, in slot order."""
        if self.region_table is None:
            return ()
        table = self.region_table
        raw = self.candidates["f0_hz"][table["frame_index"]]
        folded = _fold(raw, table["high"][:, None])
        found = ~np.isnan(raw)
        out_of_model = (raw < 0.25 * ProConfig.gamma_hz).any(axis=1).tolist()
        return tuple(FrameDiagnostic(region, tuple(r[k].tolist()), tuple(c[k].tolist()), o)
                     for region, r, c, k, o in zip(_region_objects(table), raw, folded,
                                                   found, out_of_model))


def check_keys(estimators: list[str], methods: list[str]) -> None:
    """Reject an empty estimator or method list, a name listed twice and a
    name the pipeline does not know."""
    if not estimators or not methods:
        raise ValueError("need at least one estimator and one method")
    for m in methods:
        if m not in ("raw", "pro"):
            raise ValueError(f"unknown method {m!r}")
    for est in estimators:
        if est not in ESTIMATORS:
            raise ValueError(f"unknown estimator {est!r}; "
                             f"expected one of {sorted(FRAME_ESTIMATORS)} or 'hht'")
    for kind, names in (("estimator", estimators), ("method", methods)):
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{kind} {name!r} is listed twice")


def analyze_utterance(buf: SampleBuffer, estimators: list[str],
                      methods: list[str], cfg: AnalysisConfig = AnalysisConfig()
                      ) -> dict[tuple[str, str], MethodResult]:
    """Run the requested estimator/method combinations over one utterance.

    The utterance is framed once and every stage writes onto that grid.
    Each estimator fills one (frames x slots) CANDIDATE array, one slot
    per mode for hht and one otherwise, left empty for an all-zero frame.
    One loop over the voiced segments marks each segment's frames voiced,
    scores its rows with every requested comb estimator, block by block,
    then decomposes it once, sifting exactly the modes the keys read
    (pro.k_imfs for pro, estimator.hht_num_imfs for hht, the larger for
    both), for its per-mode F0 rows and hht candidates. One region pass
    then classifies all voiced frames in order, so a frame without mode
    evidence inherits the previous voiced frame's region, across segments
    too. The raw F0 is each frame's most salient candidate, and the pro F0
    is the raw F0 folded into its frame's region by the band table. No
    per-frame object is built: each pro key keeps the region table and its
    estimator's candidate array.
    """
    check_keys(estimators, methods)
    fs = buf.sample_rate_hz
    exponent = math.frexp(max(buf.samples.max(), -buf.samples.min()))[1]
    if exponent not in _PEAK_EXPONENTS:
        # scaling by a power of two is exact, and every stage is invariant
        # under it, so the peak is brought into [0.5, 1)
        scaled = np.ldexp(buf.samples, -exponent)
        scaled.setflags(write=False)
        buf = SampleBuffer(scaled, fs)
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
    combs = {est: c for est, c in cands.items() if est != "hht"}
    for first, last in voiced_segments(detect_voiced(buf)):
        seg = buf.samples[first * hop:last * hop + vad_len]
        n_frames = cfg.frame.num_frames(len(seg), fs)
        # a segment's frame i is the utterance's frame first + i, so the comb
        # estimators score the segment's rows of the one utterance framing
        rows = slice(first, first + n_frames)
        voiced[rows] = True
        _comb_candidates(combs, frames, fs, rows)
        if n_frames == 0 or not (pro or hht):
            continue
        decomposition = eemd_decompose(SampleBuffer(seg, fs), cfg.emd, n_modes)
        if pro and len(decomposition) >= cfg.pro.k_imfs:
            mode_f0[rows] = imf_pitch_vector(decomposition)
        if hht and len(decomposition) >= cfg.estimator.hht_num_imfs:
            cands["hht"][rows] = hht_candidates(decomposition)

    voiced_rows = np.flatnonzero(voiced)
    regions = _region_table(mode_f0, voiced_rows) if pro else None
    out: dict[tuple[str, str], MethodResult] = {}
    for est in estimators:
        f0 = {"raw": pick(cands[est])}
        if pro:
            f0["pro"] = f0["raw"].copy()
            f0["pro"][voiced_rows] = _fold(f0["raw"][voiced_rows], regions["high"])
        for meth in methods:
            track = FramePitchTrack(frame_times_ms=times.copy(), f0_hz=f0[meth],
                                    voiced_mask=voiced.copy())
            out[(est, meth)] = (MethodResult(track, regions, cands[est]) if meth == "pro"
                                else MethodResult(track))
    return out
