"""The two LAPACK routines loaded by file (`modepitch._lapack`) against
scipy.linalg.lapack as the oracle, called as the package calls them."""
import hashlib
import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modepitch import _lapack

SYSTEMS = 2000


def solve_digests(dgtsv, dtbtrs, seed: int = 0) -> list[str]:
    """One SHA-256 per random system, n from 3 to 3,000: SYSTEMS tridiagonal
    solves shaped like the spline envelope's, then SYSTEMS unit lower
    banded solves shaped like the all-pole filter's, in place on a
    Fortran-order band."""
    rng = np.random.default_rng(seed)
    digests = []
    for _ in range(SYSTEMS):
        n = int(rng.integers(3, 3001))
        dx = rng.uniform(0.5, 40.0, n - 1)
        diag = np.empty(n)
        diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
        diag[[0, -1]] = 1.0
        rhs = rng.standard_normal(n)
        _, _, _, x, info = dgtsv(dx.copy(), diag, dx.copy(), rhs)
        digests.append(hashlib.sha256(x.tobytes() + bytes([info])).hexdigest())
    for _ in range(SYSTEMS):
        n, p = int(rng.integers(3, 3001)), int(rng.integers(1, 13))
        a = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, p) / p])
        band = np.tile(a, (n, 1)).T
        work = rng.standard_normal(n)
        _, info = dtbtrs(band, work, uplo="L", diag="U", overwrite_b=1)
        digests.append(hashlib.sha256(work.tobytes() + bytes([info])).hexdigest())
    return digests


class TestOracle:
    def test_same_objects_as_scipy_linalg(self):
        from scipy.linalg import lapack
        assert _lapack.dgtsv is lapack.dgtsv
        assert _lapack.dtbtrs is lapack.dtbtrs

    def test_random_systems_bit_identical(self):
        # the by-file solves run where scipy.linalg was never imported
        src = str(Path(_lapack.__file__).resolve().parents[1])
        path = [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        code = ("import sys, test_lapack\n"
                "from modepitch._lapack import dgtsv, dtbtrs\n"
                "print(*test_lapack.solve_digests(dgtsv, dtbtrs), sep='\\n')\n"
                "assert 'scipy.linalg' not in sys.modules\n")
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True, timeout=300)
        from scipy.linalg import lapack
        expected = solve_digests(lapack.dgtsv, lapack.dtbtrs)
        got = result.stdout.split()
        assert len(got) == len(expected) == 2 * SYSTEMS
        assert got == expected


class TestMissingExtension:
    def test_missing_file_names_the_path(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        path = os.path.join(root, "linalg", "_flapack.missing")
        with pytest.raises(ImportError, match=f"looked for {re.escape(path)}$"):
            _lapack._load_flapack()

    def test_no_scipy(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="scipy is not installed"):
            _lapack._load_flapack()
