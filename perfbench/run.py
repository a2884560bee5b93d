#!/usr/bin/env python3
"""modepitch benchmark: one workload per run, a closed loop with one caller.

    python3 perfbench/run.py --workload grid_pro --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload grid_pro --write-reference

This entry point only prepares the process: it finds the package sources
in this checkout's src/ (exit 2 without a result when they are missing),
caps the BLAS/OpenMP thread pools before numpy loads, and times the
imports, which count toward setup_s. harness.py does the rest.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store block 0 at the reference seed as the new reference")
    return p.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "modepitch" / "__init__.py").is_file():
        print(f"error: package sources not found under {src}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import harness
    import_s = time.perf_counter() - t0
    return harness.main(args, import_s, nproc)


if __name__ == "__main__":
    sys.exit(main())
