#!/usr/bin/env python3
"""Full synthetic benchmark grid: 6 noises x 5 SNRs x 3 estimators x 2 methods.

Generates a synthetic corpus (half low, half high contours), materializes the
six synthetic noise kinds, runs the whole grid, and writes one CSV row per
cell. Expect roughly an hour at the default scale on a laptop; use --count
and --ensemble to shrink it.

Usage:
    python scripts/run_grid.py --out runs/grid --count 20 --jobs 4
"""
import argparse
import os
import sys
import time

from modepitch.audio import load_wav
from modepitch.corpus import NOISE_KINDS, generate_corpus, load_manifest, write_noise_set
from modepitch.emd import EmdConfig
from modepitch.evaluation import run_benchmark, write_report_csv
from modepitch.separation import AnalysisConfig, check_keys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/grid", help="output directory")
    parser.add_argument("--count", type=int, default=20, help="corpus size")
    parser.add_argument("--duration-ms", type=float, default=600.0)
    parser.add_argument("--ensemble", type=int, default=20,
                        help="EEMD trials per decomposition")
    parser.add_argument("--snrs", default="-15,-10,-5,0,5")
    parser.add_argument("--estimators", default="shr,swipe,hht")
    parser.add_argument("--methods", default="raw,pro")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    estimators = args.estimators.split(",")
    methods = args.methods.split(",")
    try:
        check_keys(estimators, methods)
    except ValueError as exc:
        parser.error(str(exc))

    os.makedirs(args.out, exist_ok=True)
    manifest = generate_corpus(os.path.join(args.out, "corpus"),
                               count=args.count, seed=args.seed,
                               duration_ms=args.duration_ms)
    corpus = load_manifest(manifest)
    noise_paths = write_noise_set(os.path.join(args.out, "noises"),
                                  kinds=NOISE_KINDS, seed=args.seed)
    noises = [(kind, load_wav(path)) for kind, path in sorted(noise_paths.items())]

    cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=args.ensemble,
                                       rng_seed=args.seed))
    snrs = [float(s) for s in args.snrs.split(",")]

    t0 = time.time()
    reports, failures = run_benchmark(corpus, noises, snrs, estimators,
                                      methods, cfg, seed=args.seed,
                                      jobs=args.jobs)
    elapsed = time.time() - t0

    out_csv = os.path.join(args.out, "grid_report.csv")
    write_report_csv(out_csv, reports)
    print(f"{len(reports)} cells in {elapsed:.0f}s -> {out_csv}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    # quick per-method summary
    by_method = {}
    for report in reports:
        by_method.setdefault((report.estimator, report.method), []).append(
            report.ge_percent)
    print("\nmean GE by estimator/method:")
    for (est, meth), ges in sorted(by_method.items()):
        print(f"  {est:6s} {meth:4s}: {sum(ges) / len(ges):5.1f}%")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
