"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from modepitch import estimators, separation  # noqa: E402
from modepitch.estimators import EstimatorConfig  # noqa: E402
from modepitch.evaluation import run_benchmark  # noqa: E402


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def test_grid_pro_block0_cells_equal_run_benchmark():
    w = workloads.WORKLOADS["grid_pro"]
    inputs = workloads.make_inputs(w, seed=3)
    results = [workloads.run_job(inputs, w.job(j)) for j in range(w.block_len)]
    assert all(r.error is None for r in results)
    mine = workloads.cell_reports(inputs, results)

    corpus = inputs.clean[:w.utts_per_block]
    reports, failures = run_benchmark(
        corpus, inputs.noises[8000], list(w.snrs), list(w.estimators),
        list(w.methods), inputs.cfg, seed=inputs.seed, gate=workloads.GATE, jobs=1)
    assert not failures
    assert len(mine) == len(reports) == len(w.noises) * len(w.snrs) * len(w.keys())
    for c, r in zip(mine, reports):
        assert (c.noise, c.snr_db, c.estimator, c.method, c.frames_scored) == \
            (r.noise, r.snr_db, r.estimator, r.method, r.frames_scored)
        assert _same(c.ge_percent, r.ge_percent)
        assert _same(c.mae_hz, r.mae_hz)
        assert _same(c.sep_error_percent, r.sep_error_percent)


def test_inputs_are_a_function_of_the_seed():
    w = workloads.WORKLOADS["comb_raw"]
    a, b, c = (workloads.make_inputs(w, s) for s in (5, 5, 6))
    for x, y in zip(a.clean, b.clean):
        np.testing.assert_array_equal(x.audio.samples, y.audio.samples)
    assert a.cfg == b.cfg != c.cfg
    assert not np.array_equal(a.clean[0].audio.samples, c.clean[0].audio.samples)
    assert {a.clean[u].audio.sample_rate_hz for u in range(w.utts_per_block)} == {8000, 16000}


def test_block0_covers_every_cell_and_utterance_once():
    for w in workloads.WORKLOADS.values():
        seen = {(j.noise_idx, j.snr_idx, j.utt) for j in map(w.job, range(w.block_len))}
        assert len(seen) == w.block_len
        assert {j.utt for j in map(w.job, range(w.block_len, 2 * w.block_len))} == \
            set(range(w.utts_per_block, 2 * w.utts_per_block))


def test_reference_tolerance():
    w = workloads.WORKLOADS["grid_pro"]
    inputs = workloads.make_inputs(w, seed=reference.REFERENCE_SEED)
    res = workloads.run_job(inputs, w.job(0))
    rec = reference.record(res.analysis)
    assert reference.mismatches(rec, reference.load("grid_pro")[0]) == []

    def perturbed(key, rel):
        out = json.loads(json.dumps(rec))
        f0 = out[key]["f0"]
        i = next(i for i, f in enumerate(f0) if f is not None)
        f0[i] *= 1.0 + rel
        return out
    assert reference.mismatches(perturbed("hht/pro", 1e-9), rec) == []
    assert reference.mismatches(perturbed("hht/pro", 1e-5), rec)
    flipped = json.loads(json.dumps(rec))
    regions = flipped["shr/pro"]["regions"]
    i = next(i for i, r in enumerate(regions) if r != "-")
    flipped["shr/pro"]["regions"] = regions[:i] + ("H" if regions[i] == "L" else "L") \
        + regions[i + 1:]
    assert reference.mismatches(flipped, rec)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (separation.eemd_decompose, separation.imf_pitch_vector,
                 estimators.power_spectrum, dict(estimators.FRAME_ESTIMATORS))
    w = workloads.WORKLOADS["grid_pro"]
    inputs = workloads.make_inputs(w, seed=1)
    tr = tracer.Tracer()
    t0 = time.perf_counter_ns()
    with tr:
        assert separation.eemd_decompose is not originals[0]
        res = workloads.run_job(inputs, w.job(0))
    wall = time.perf_counter_ns() - t0
    assert res.error is None
    assert (separation.eemd_decompose, separation.imf_pitch_vector,
            estimators.power_spectrum, estimators.FRAME_ESTIMATORS) == originals
    names = {s[tracer.NAME] for s in tr.spans}
    assert {"emd.eemd_decompose", "separation.imf_pitch_vector",
            "estimators.shr_estimate", "estimators.swipe_estimate",
            "spectral.power_spectrum", "estimators.pefac_scores"} <= names
    metrics, accounted = tracer.layer_metrics(tr, wall, wall)
    assert accounted == wall
    assert 0.0 <= metrics["trace.unattributed_pct"] < 5.0
    assert metrics["emd.calls"] >= 1
    assert metrics["emd.trial_samples"] % w.ensemble_size == 0
    assert metrics["separation.correct_calls"] >= metrics["separation.candidates_moved"]


@pytest.mark.parametrize("kind,fs", [("pefac", 8000), ("pefac", 16000),
                                     ("shr", 8000), ("shr", 16000),
                                     ("swipe", 8000), ("swipe", 16000)])
def test_computed_comb_points_equal_points_read(kind, fs, monkeypatch):
    read = []
    real_interp = np.interp

    def counting_interp(x, *args, **kwargs):
        read.append(np.size(x))
        return real_interp(x, *args, **kwargs)
    combs = {"pefac": "harmonic_summation_scores", "shr": "subharmonic_ratio_curves",
             "swipe": "swipe_apvd"}
    real_comb = getattr(estimators, combs[kind])

    def counted_comb(*args, **kwargs):
        monkeypatch.setattr(np, "interp", counting_interp)
        try:
            return real_comb(*args, **kwargs)
        finally:
            monkeypatch.setattr(np, "interp", real_interp)
    monkeypatch.setattr(estimators, combs[kind], counted_comb)
    t = np.arange(int(0.09 * fs)) / fs
    frame = estimators.Frame(np.sin(2 * np.pi * 140.0 * t), fs, 0.0)
    cfg = EstimatorConfig()
    {"pefac": estimators.pefac_scores, "shr": estimators.shr_estimate,
     "swipe": estimators.swipe_estimate}[kind](frame, cfg)
    assert sum(read) == tracer.comb_points_per_frame(kind, fs, cfg)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_exactly_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(["--workload", "comb_raw", "--seed", "2", "--seconds", "0",
                "--trace", trace], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(["--workload", "grid_pro", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode == 2
    assert "correct" not in out.stdout
