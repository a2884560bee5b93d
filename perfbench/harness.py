"""Set-up, the timed closed loop, the traced run and the result line.

A run builds its inputs from --seed and sets up SETUP_REPEATS times (input
synthesis plus one warm-up analysis per sample rate on the reference seed,
checked against the stored reference). With --trace 0 it then analyses one
utterance at a time for --seconds, always finishing block 0, and reports
the end-to-end metrics. With --trace 1 it runs block 0 untraced and then
traced, and reports the per-layer metrics. The last stdout line is the JSON
result; a failed check makes it `"correct": false` and the exit code 1.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import modepitch
import numpy
import scipy

import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
P90_MIN_CALLS = 100   # p90 needs at least 10 samples beyond it
ACCOUNTING_TOL = 0.05
UNITS = {"setup_s": "s", "audio_s_per_s": "audio-s/s", "utt_ms_p50": "ms",
         "utt_ms_p90": "ms", "utt_calls": "count", "peak_rss_mb": "MB",
         "fail_pct": "%", "ge_raw_pct": "%", "ge_pro_pct": "%",
         "mae_raw_hz": "Hz", "mae_pro_hz": "Hz", "sep_err_pct": "%"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if ".ns_per_" in name:
        return "ns"
    return "count"


def machine_info(nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(args, import_s: float, nproc: int) -> int:
    src = (ROOT / "src" / "modepitch").resolve()
    if Path(modepitch.__file__).resolve().parent != src:
        print(f"error: imported modepitch from {modepitch.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.write_reference:
        return write_reference(w)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = machine_info(nproc)
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in machine.items()))
    print(f"run: workload={w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} block_len={w.block_len} closed loop, 1 caller")
    checks: dict[str, bool] = {}
    problems: list[str] = []

    ref = reference.load(w.name)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.make_inputs(w, args.seed)
        problems += warm_up(w, ref)
        setup_times.append(time.perf_counter() - t0)
    checks["reference_warmup"] = not problems

    if args.trace:
        metrics, attempted, failed = traced_run(w, args.seed, checks, problems)
        declared = spec["per_layer"]
    else:
        metrics, attempted, failed = timed_run(inputs, args.seconds, ref, checks,
                                               problems)
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        declared = spec["end_to_end"]

    for name in sorted(metrics):
        print(f"metric {w.name} {name} {metrics[name]:.6g} {unit_of(name)}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        problems.append(f"declared metrics not produced: {missing}")
        checks["metrics_complete"] = False
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = all(checks.values())

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{w.name}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(
        {"machine": machine, "workload": w.name, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "import_s": import_s,
         "setup_repeats_s": setup_times, "checks": checks, "problems": problems,
         "attempted": attempted, "failed": failed, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics}}))
    return 0 if correct else 1


def write_reference(w: workloads.Workload) -> int:
    inputs = workloads.make_inputs(w, reference.REFERENCE_SEED)
    results = [workloads.run_job(inputs, w.job(j)) for j in range(w.block_len)]
    failed = [r for r in results if r.error]
    if failed:
        print(f"error: {len(failed)} reference jobs failed: {failed[0].error}",
              file=sys.stderr)
        return 1
    path = reference.store(w.name, {r.job.index: reference.record(r.analysis)
                                    for r in results})
    print(f"wrote {len(results)} reference records to {path}")
    return 0


def warm_up(w: workloads.Workload, ref: dict) -> list[str]:
    """One analysis per sample rate on the reference seed's inputs, so lazy
    set-up lands here; returns its differences from the reference."""
    ref_inputs = workloads.make_inputs(w, reference.REFERENCE_SEED)
    problems = []
    for j in w.warmup_jobs():
        res = workloads.run_job(ref_inputs, w.job(j))
        if res.error:
            problems.append(f"warm-up job {j} failed: {res.error}")
        else:
            problems += [f"warm-up job {j}: {p}" for p in
                         reference.mismatches(reference.record(res.analysis), ref[j])]
    return problems


def account(results, checks, problems) -> tuple[int, int, int]:
    attempted = len(results)
    failed = sum(r.error is not None for r in results)
    scored = sum(r.scores is not None for r in results)
    checks["accounting"] = attempted == scored + failed
    if not checks["accounting"]:
        problems.append(f"attempted {attempted} != scored {scored} + failed {failed}")
    for r in results:
        if r.error:
            print(f"job {r.job.index} failed: {r.error}", file=sys.stderr)
    return attempted, scored, failed


def timed_run(inputs: workloads.Inputs, seconds: float, ref: dict, checks, problems):
    """Closed loop over the job stream for `seconds`, and at least block 0."""
    w = inputs.workload
    results = []
    block0 = {}
    t0 = time.perf_counter()
    while len(results) < w.block_len or time.perf_counter() - t0 < seconds:
        res = workloads.run_job(inputs, w.job(len(results)))
        if res.job.index < w.block_len and res.analysis is not None:
            block0[res.job.index] = res.analysis
        res.analysis = None
        results.append(res)
    wall_s = time.perf_counter() - t0
    attempted, _, failed = account(results, checks, problems)

    if inputs.seed == reference.REFERENCE_SEED:
        bad = [f"job {j}: {p}" for j, analysis in sorted(block0.items())
               for p in reference.mismatches(reference.record(analysis), ref[j])]
        checks["reference_block0"] = not bad and len(block0) == w.block_len
        problems += bad

    ok = [r for r in results if r.error is None]
    times = [r.analyze_s for r in ok]
    cells = workloads.cell_reports(inputs, results[:w.block_len])
    checks["quality_cells"] = len(cells) == len(w.noises) * len(w.snrs) * len(w.keys())
    metrics = {
        "audio_s_per_s": sum(inputs.audio_seconds(r.job) for r in ok) / wall_s,
        "utt_ms_p50": 1000.0 * statistics.median(times),
        "utt_calls": len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_pct": 100.0 * failed / attempted,
    }
    if len(times) >= P90_MIN_CALLS:
        metrics["utt_ms_p90"] = 1000.0 * statistics.quantiles(times, n=10)[8]
    metrics.update(workloads.quality_metrics(cells, w.methods))
    return metrics, attempted, failed


def traced_run(w: workloads.Workload, seed: int, checks, problems):
    """Block 0 untraced, then traced. The per-layer metrics come from the
    traced pass, whose work counts therefore repeat exactly for a seed; the
    wall-time ratio of the two passes is the tracing overhead."""
    def block0():
        t0 = time.perf_counter_ns()
        inputs = workloads.make_inputs(w, seed)
        results = [workloads.run_job(inputs, w.job(j)) for j in range(w.block_len)]
        return inputs, results, time.perf_counter_ns() - t0

    _, _, untraced_ns = block0()
    tr = tracer.Tracer()
    with tr:
        inputs, results, wall_ns = block0()
    attempted, scored, failed = account(results, checks, problems)
    metrics, accounted = tracer.layer_metrics(tr, wall_ns, untraced_ns)
    metrics["evaluation.cells"] = len(workloads.cell_reports(inputs, results))
    metrics["evaluation.utterances_scored"] = scored
    checks["trace_accounting"] = abs(accounted - wall_ns) <= ACCOUNTING_TOL * wall_ns
    if not checks["trace_accounting"]:
        problems.append(f"layer self + unattributed = {accounted} ns, wall {wall_ns} ns")
    for rate in w.rates:
        sizes = tracer.fft_sizes(rate, inputs.cfg.frame)
        print(f"computed: rate={rate} " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    OUT_DIR.mkdir(exist_ok=True)
    tr.dump(OUT_DIR / f"{w.name}_seed{seed}_spans.json")
    return metrics, attempted, failed
