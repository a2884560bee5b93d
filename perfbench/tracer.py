"""Span tracer that wraps modepitch's public functions from outside.

`install` replaces every public function of the layer modules with a
wrapper at each binding a caller can use: the defining module, every
modepitch module that imported the name, and the `FRAME_ESTIMATORS`
dispatch table. Each call appends a span [name, start_ns, end_ns, parent,
raised] to an in-memory list; nothing is written until the run ends. A
span's self time is its duration minus that of its direct children, so
layer self times plus the time no span covers add up to the traced wall.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("audio", "vad", "emd", "spectral", "estimators", "separation",
          "evaluation", "corpus")

NAME, START, END, PARENT, RAISED = range(5)

COMB_FUNCTIONS = ("estimators.harmonic_summation_scores",
                  "estimators.subharmonic_ratio_curves", "estimators.swipe_apvd")
FRAME_FUNCTIONS = ("estimators.pefac_estimate", "estimators.shr_estimate",
                   "estimators.swipe_estimate")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


# ---------------------------------------------------------------------------
# Work counts computed from configuration and input sizes
# ---------------------------------------------------------------------------

def _grid(f_min: float, f_max: float, bins_per_octave: int) -> np.ndarray:
    step = 1.0 / bins_per_octave
    n = int(np.floor((np.log2(f_max) - np.log2(f_min)) / step)) + 1
    return 2.0 ** (np.log2(f_min) + step * np.arange(n))


def _log_grid_top(f_lo: float, f_hi: float, bins_per_octave: int) -> float:
    step = 1.0 / bins_per_octave
    start = np.log2(f_lo)
    n = int(np.floor((np.log2(f_hi) - start) / step)) + 1
    return float(start + (n - 1) * step)


@functools.lru_cache(maxsize=None)
def comb_points_per_frame(kind: str, fs: int, cfg) -> int:
    """Spectrum samples one frame's comb reads (computed, not measured):
    three per harmonic (peak and two flanking valleys) for PEFAC and SWIPE,
    two for SHR, over the candidate grid with per-candidate harmonic
    counts truncated at the spectrum's top as each estimator defines."""
    if kind == "pefac":
        h_cap = cfg.pefac_num_harmonics
        top = _log_grid_top(cfg.f_min / 2.0, min(fs / 2.0, cfg.f_max * (h_cap + 0.5)),
                            cfg.bins_per_octave)
        counts = [min(h_cap, int(2.0 ** (top - math.log2(f)) - 0.5))
                  for f in _grid(cfg.f_min, cfg.f_max, cfg.bins_per_octave)]
        return 3 * sum(h for h in counts if h >= 1)
    if kind == "shr":
        n_cap = cfg.shr_max_harmonics
        top = _log_grid_top(cfg.f_min / 2.0, min(fs / 2.0, cfg.f_max * (n_cap + 0.5)),
                            cfg.bins_per_octave)
        return 2 * sum(max(1, min(n_cap, int(2.0 ** (top - math.log2(f)))))
                       for f in _grid(cfg.f_min, cfg.f_max, cfg.bins_per_octave))
    if kind == "swipe":
        top = fs / 2.0
        counts = [min(cfg.swipe_num_peaks, int(top / f - 0.5))
                  for f in _grid(cfg.f_min, cfg.swipe_f_max, cfg.swipe_bins_per_octave)]
        return 3 * sum(p for p in counts if p >= 1)
    raise ValueError(f"no comb for {kind!r}")


def fft_sizes(rate: int, frame_spec) -> dict[str, int]:
    """FFT lengths per call at one rate (computed): the comb spectrum of a
    frame (4x the frame, as a power of two) and the envelope ACF of one hht
    window (2x the window)."""
    flen = frame_spec.frame_len(rate)
    return {"comb_nfft": 1 << math.ceil(math.log2(4 * flen)),
            "acf_nfft": 1 << math.ceil(math.log2(2 * flen))}


def _observe_comb(kind):
    def observe(counts, args, kwargs, result):
        from modepitch.estimators import EstimatorConfig
        frame = args[0]
        cfg = _arg(args, kwargs, 1, "cfg") or EstimatorConfig()
        counts["estimators.comb_points"] += comb_points_per_frame(
            kind, frame.sample_rate_hz, cfg)
    return observe


def _observe_eemd(counts, args, kwargs, result):
    from modepitch.emd import EmdConfig
    cfg = _arg(args, kwargs, 1, "cfg") or EmdConfig()
    counts["emd.trial_samples"] += cfg.ensemble_size * len(args[0])
    counts["emd.modes"] += len(result)


def _observe_classify(counts, args, kwargs, result):
    counts["separation.frames_classified"] += len(result)
    counts["separation.frames_inherited"] += sum(r.selected_imfs is None for r in result)


def _observe_analyze(counts, args, kwargs, result):
    counts["separation.out_of_model_frames"] += sum(
        d.out_of_model for r in result.values() for d in r.diagnostics)


OBSERVERS = {
    "estimators.pefac_scores": _observe_comb("pefac"),
    "estimators.shr_estimate": _observe_comb("shr"),
    "estimators.swipe_estimate": _observe_comb("swipe"),
    "estimators.hht_candidates":
        lambda c, a, k, r: c.update({"estimators.hht_frames": len(r)}),
    "emd.eemd_decompose": _observe_eemd,
    "vad.detect_voiced": lambda c, a, k, r: c.update({"vad.voiced_frames": int(r.sum())}),
    "vad.voiced_segments": lambda c, a, k, r: c.update({"vad.segments": len(r)}),
    "audio.frame_signal": lambda c, a, k, r: c.update({"audio.frames_made": len(r)}),
    "separation.classify_frames": _observe_classify,
    "separation.correct_candidate":
        lambda c, a, k, r: c.update({"separation.candidates_moved": int(r != a[0])}),
    "separation.analyze_utterance": _observe_analyze,
}


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "modepitch" or n.startswith("modepitch.")) and m is not None]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"modepitch.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    self._patch(mod, attr, val, wrappers[id(val)][1], is_item=False)
        table = importlib.import_module("modepitch.estimators").FRAME_ESTIMATORS
        for key, val in list(table.items()):
            if id(val) in wrappers:
                self._patch(table, key, val, wrappers[id(val)][1], is_item=True)
        return self

    def _patch(self, owner, name, original, replacement, is_item):
        if is_item:
            owner[name] = replacement
        else:
            setattr(owner, name, replacement)
        self._patches.append((owner, name, original, is_item))

    def uninstall(self) -> None:
        for owner, name, original, is_item in reversed(self._patches):
            if is_item:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def dump(self, path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "raised"],
                       "names": names,
                       "spans": [[index[s[NAME]], s[START], s[END], s[PARENT],
                                  int(s[RAISED])] for s in self.spans],
                       "counts": dict(self.counts)}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, wall_ns: int, untraced_wall_ns: int
                  ) -> tuple[dict, int]:
    """Per-layer metrics of one traced phase, plus the accounting identity
    sum(layer self) + unattributed == wall."""
    spans = tracer.spans
    self_ns = tracer.self_ns()
    incl = Counter()
    calls = Counter()
    layer_self = Counter({layer: 0 for layer in LAYERS})
    for s, own in zip(spans, self_ns):
        incl[s[NAME]] += s[END] - s[START]
        calls[s[NAME]] += 1
        layer_self[s[NAME].split(".", 1)[0]] += own
    # inclusive sums never double count: no traced function calls itself
    roots_ns = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    unattributed = wall_ns - roots_ns
    counts = tracer.counts

    def ms(*names):
        return sum(incl[n] for n in names) / 1e6

    def self_of(name):
        return sum(own for s, own in zip(spans, self_ns) if s[NAME] == name) / 1e6

    frames = sum(calls[n] for n in FRAME_FUNCTIONS) + counts["estimators.hht_frames"]
    frame_errors = sum(1 for s in spans if s[NAME] in FRAME_FUNCTIONS and s[RAISED])
    # pefac_scores called by separation's per-mode tracking is a frame of
    # its own; called inside pefac_estimate it is the same frame
    for s in spans:
        if s[NAME] == "estimators.pefac_scores" and (
                s[PARENT] < 0 or spans[s[PARENT]][NAME] != "estimators.pefac_estimate"):
            frames += 1
            frame_errors += s[RAISED]
    comb_ns = sum(incl[n] for n in COMB_FUNCTIONS)
    m = {
        "estimators.comb_ms": comb_ns / 1e6,
        "estimators.comb_calls": sum(calls[n] for n in COMB_FUNCTIONS),
        "estimators.comb_points": counts["estimators.comb_points"],
        "estimators.ns_per_comb_point":
            comb_ns / counts["estimators.comb_points"] if counts["estimators.comb_points"] else 0.0,
        "estimators.pefac_ms": ms("estimators.pefac_estimate"),
        "estimators.shr_ms": ms("estimators.shr_estimate"),
        "estimators.swipe_ms": ms("estimators.swipe_estimate"),
        "estimators.pefac_scores_ms": ms("estimators.pefac_scores"),
        "estimators.hht_ms": ms("estimators.hht_candidates"),
        "estimators.frames": frames,
        "estimators.frame_errors": frame_errors,
        "spectral.power_spectrum_ms": ms("spectral.power_spectrum"),
        "spectral.power_spectrum_calls": calls["spectral.power_spectrum"],
        "spectral.magnitude_spectrum_ms": ms("spectral.magnitude_spectrum"),
        "spectral.magnitude_spectrum_calls": calls["spectral.magnitude_spectrum"],
        "spectral.to_log_frequency_ms": ms("spectral.to_log_frequency"),
        "spectral.envelope_ms": ms("spectral.envelope"),
        "spectral.autocorrelation_calls": calls["spectral.autocorrelation"],
        "emd.eemd_ms": ms("emd.eemd_decompose"),
        "emd.calls": calls["emd.eemd_decompose"],
        "emd.trial_samples": counts["emd.trial_samples"],
        "emd.modes": counts["emd.modes"],
        "emd.ns_per_trial_sample":
            incl["emd.eemd_decompose"] / counts["emd.trial_samples"]
            if counts["emd.trial_samples"] else 0.0,
        "separation.pitch_vector_ms": self_of("separation.imf_pitch_vector"),
        "separation.classify_ms": ms("separation.classify_frames"),
        "separation.analyze_self_ms": self_of("separation.analyze_utterance"),
        "separation.frames_classified": counts["separation.frames_classified"],
        "separation.frames_inherited": counts["separation.frames_inherited"],
        "separation.correct_calls": calls["separation.correct_candidate"],
        "separation.candidates_moved": counts["separation.candidates_moved"],
        "separation.out_of_model_frames": counts["separation.out_of_model_frames"],
        "vad.detect_ms": ms("vad.detect_voiced"),
        "vad.voiced_frames": counts["vad.voiced_frames"],
        "vad.segments": counts["vad.segments"],
        "audio.mix_ms": ms("audio.mix_at_snr"),
        "audio.frame_signal_ms": ms("audio.frame_signal"),
        "audio.frames_made": counts["audio.frames_made"],
        "evaluation.score_ms": ms("evaluation.gross_error",
                                  "evaluation.mean_absolute_error",
                                  "evaluation.separation_error"),
        "corpus.synth_ms": sum(s[END] - s[START] for s in spans
                               if s[NAME] == "corpus.synthesize_utterance"
                               and s[PARENT] < 0) / 1e6,
        "corpus.noise_ms": ms("corpus.make_noise"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer] / 1e6
    m["trace.wall_ms"] = wall_ns / 1e6
    m["trace.unattributed_pct"] = 100.0 * unattributed / wall_ns
    m["trace.overhead_pct"] = 100.0 * (wall_ns - untraced_wall_ns) / untraced_wall_ns
    m["trace.spans"] = len(spans)
    accounted = sum(layer_self.values()) + unattributed
    return m, accounted
