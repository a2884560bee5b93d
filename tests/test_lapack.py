"""The two in-place LAPACK solves of `modepitch._lapack`, through numpy's
ILP64 OpenBLAS and through scipy's _flapack extension loaded by file, with
scipy.linalg.lapack as the oracle."""
import ctypes
import glob
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


def solve_digests(solve_tridiagonal, solve_unit_lower_band, seed: int = 0) -> list[str]:
    """One SHA-256 per random system, n from 1 to 3,000: SYSTEMS tridiagonal
    systems shaped like the spline envelope's, then SYSTEMS unit lower
    banded systems shaped like the all-pole filter's, each band a column
    slice of a wider Fortran-order band as `_all_pole` passes it."""
    rng = np.random.default_rng(seed)
    digests = []
    for _ in range(SYSTEMS):
        n = int(rng.integers(1, 3001))
        system = np.zeros((4, n))
        dx = rng.uniform(0.5, 40.0, n - 1)
        system[0, :-1] = system[2, :-1] = dx
        system[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
        system[1, [0, -1]] = 1.0
        system[3] = rng.standard_normal(n)
        solve_tridiagonal(system)
        digests.append(hashlib.sha256(system[3].tobytes()).hexdigest())
    for _ in range(SYSTEMS):
        n, p = int(rng.integers(1, 3001)), int(rng.integers(1, 13))
        skip = int(rng.integers(0, p + 1))
        a = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, p) / p])
        band = np.tile(a, (skip + n, 1)).T[:, skip:]
        work = rng.standard_normal(n)
        solve_unit_lower_band(band, work)
        digests.append(hashlib.sha256(work.tobytes()).hexdigest())
    return digests


def _scipy_tridiagonal(system):
    from scipy.linalg import lapack
    off = max(system.shape[1] - 1, 1)  # f2py wants one off-diagonal entry at n = 1
    system[3] = lapack.dgtsv(system[0, :off], system[1], system[2, :off], system[3])[3]


def _scipy_unit_lower_band(band, rhs):
    from scipy.linalg import lapack
    rhs[:] = lapack.dtbtrs(band, rhs, uplo="L", diag="U")[0]


def _numpy_exports_ilp64_lapack() -> bool:
    """Whether a bundled OpenBLAS next to numpy exports an ILP64 dgtsv, found
    by file rather than through the handle `_lapack` uses."""
    root = os.path.dirname(np.__file__)
    for path in (glob.glob(root + ".libs/*openblas*")
                 + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        if hasattr(lib, _lapack._SYMBOL_PREFIX + "dgtsv_64_"):
            return True
    return False


def _digests_in_fresh_interpreter(setup: str = "") -> list[str]:
    """`solve_digests` through the module's two functions in a fresh
    interpreter, after the statements in ``setup``; the interpreter fails
    if scipy.linalg was imported there."""
    src = str(Path(_lapack.__file__).resolve().parents[1])
    path = [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import sys, test_lapack\n"
            "from modepitch import _lapack\n"
            + setup
            + "print(*test_lapack.solve_digests(_lapack.solve_tridiagonal,\n"
            "                                   _lapack.solve_unit_lower_band), sep='\\n')\n"
            "assert 'scipy.linalg' not in sys.modules\n")
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True, timeout=300)
    return result.stdout.split()


@pytest.fixture(scope="module")
def oracle_digests():
    return solve_digests(_scipy_tridiagonal, _scipy_unit_lower_band)


def _use_flapack(monkeypatch):
    """Put scipy's _flapack extension, loaded by file, behind the module's
    two functions."""
    gtsv, tbtrs = _lapack._flapack_solvers()
    monkeypatch.setattr(_lapack, "_gtsv", gtsv)
    monkeypatch.setattr(_lapack, "_tbtrs", tbtrs)


@pytest.fixture(params=["loaded", "flapack"])
def backend(request, monkeypatch):
    """The module's solves as loaded, then through the _flapack fallback."""
    if request.param == "flapack":
        _use_flapack(monkeypatch)
    return request.param


def _system(n: int = 5) -> np.ndarray:
    system = np.zeros((4, n))
    system[0, :-1] = system[2, :-1] = 1.0
    system[1] = 4.0
    system[3] = np.arange(n)
    return system


class TestOracle:
    # both run where scipy.linalg was never imported, so the fallback
    # solves through the extension it loaded by file, not a cached one
    def test_random_systems_bit_identical(self, oracle_digests):
        got = _digests_in_fresh_interpreter()
        assert len(got) == len(oracle_digests) == 2 * SYSTEMS
        assert got == oracle_digests

    def test_flapack_fallback_bit_identical(self, oracle_digests):
        got = _digests_in_fresh_interpreter(
            "_lapack._gtsv, _lapack._tbtrs = _lapack._flapack_solvers()\n")
        assert len(got) == len(oracle_digests) == 2 * SYSTEMS
        assert got == oracle_digests

    def test_numpy_backend_where_its_symbols_resolve(self):
        if not _numpy_exports_ilp64_lapack():
            pytest.skip("numpy bundles no OpenBLAS with ILP64 LAPACK symbols here")
        assert _lapack.BACKEND == "numpy"

    def test_no_symbol_means_no_numpy_backend(self, monkeypatch):
        monkeypatch.setattr(_lapack, "_SYMBOL_PREFIX", "no_such_prefix_")
        assert _lapack._numpy_solvers() is None


class TestChecks:
    """ctypes passes raw pointers, so a bad array must raise, not crash."""

    @pytest.mark.parametrize("system", [
        _system().astype(np.float32),
        _system().astype(np.int64),
        np.zeros((4, 10))[:, ::2],
        np.asfortranarray(_system()),
        _system()[:3],
        np.zeros((4, 0)),
        _system().ravel(),
        _system().tolist(),
    ], ids=["float32", "int64", "strided-rows", "fortran", "three-rows", "empty",
            "1-D", "list"])
    def test_bad_tridiagonal_system_raises(self, backend, system):
        with pytest.raises(ValueError, match="C-contiguous, writeable float64 .4, n."):
            _lapack.solve_tridiagonal(system)

    def test_read_only_system_raises(self, backend):
        system = _system()
        system.setflags(write=False)
        with pytest.raises(ValueError, match="writeable"):
            _lapack.solve_tridiagonal(system)

    def test_singular_system_raises_linalg_error(self, backend):
        system = _system()
        system[:3] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="dgtsv returned info = 1$"):
            _lapack.solve_tridiagonal(system)

    @pytest.mark.parametrize("band", [
        np.ones((3, 6), dtype=np.float32, order="F"),
        np.ones((3, 6)),
        np.ones((3, 12), order="F")[:, ::2],
        np.ones((0, 6), order="F"),
        np.ones((3, 0), order="F"),
        np.ones(6),
    ], ids=["float32", "c-order", "strided-columns", "no-rows", "no-columns", "1-D"])
    def test_bad_band_raises(self, backend, band):
        with pytest.raises(ValueError, match="Fortran-order float64 .k, n."):
            _lapack.solve_unit_lower_band(band, np.zeros(6))

    @pytest.mark.parametrize("rhs", [
        np.zeros(6, dtype=np.float32),
        np.zeros(12)[::2],
        np.zeros((6, 1)),
        np.zeros(6).tolist(),
    ], ids=["float32", "strided", "2-D", "list"])
    def test_bad_right_hand_side_raises(self, backend, rhs):
        with pytest.raises(ValueError, match="C-contiguous, writeable 1-D float64"):
            _lapack.solve_unit_lower_band(np.ones((3, 6), order="F"), rhs)

    @pytest.mark.parametrize("n", [5, 7])
    def test_mismatched_length_raises(self, backend, n):
        with pytest.raises(ValueError, match=f"band of 6 columns cannot solve {n} values"):
            _lapack.solve_unit_lower_band(np.ones((3, 6), order="F"), np.zeros(n))

    def test_checks_pass_the_package_shapes(self, backend):
        system = _system(1)
        _lapack.solve_tridiagonal(system)
        assert system[3, 0] == 0.0
        band = np.tile([1.0, -0.5], (8, 1)).T[:, 2:]  # a column slice
        rhs = np.ones(6)
        _lapack.solve_unit_lower_band(band, rhs)
        assert rhs.tolist() == [1.0, 1.5, 1.75, 1.875, 1.9375, 1.96875]


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
