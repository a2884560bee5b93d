"""The two LAPACK solves the package calls, in place on arrays it builds.

``solve_tridiagonal`` (``dgtsv``, the EEMD spline envelopes) and
``solve_unit_lower_band`` (``dtbtrs``, the corpus all-pole filter) call the
ILP64 OpenBLAS that numpy's wheels bundle and that ``import numpy`` has
already mapped, through ctypes, so a process runs one BLAS runtime. Numpy
2.x wheels export the routines as ``scipy_dgtsv_64_``/``scipy_dtbtrs_64_``.
Where those names do not resolve (numpy 1.x wheels, or numpy built against
Accelerate, MKL or a distribution's LAPACK), the same two functions call
scipy's compiled ``scipy/linalg/_flapack`` extension, loaded by file path
so that ``scipy/__init__`` and ``scipy.linalg`` never run. ``BACKEND``
names the one this process uses.

ctypes checks no argument, so both functions check dtype, layout and
shape before any pointer is passed, and raise ``numpy.linalg.LinAlgError``
when LAPACK reports a nonzero ``info``.
"""
from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

_NAME = "scipy.linalg._flapack"
# numpy >= 2.0 wheels export the bundled OpenBLAS's ILP64 routines under this prefix
_SYMBOL_PREFIX = "scipy_"
_INTS_3, _INTS_5 = ctypes.c_int64 * 3, ctypes.c_int64 * 5


def _load_flapack():
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("modepitch needs scipy for LAPACK, and scipy is not installed")
    tried = []
    for root in scipy_spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_NAME, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
            tried.append(path)
    raise ImportError(f"scipy's LAPACK extension {_NAME} not found; looked for "
                      + ", ".join(tried))


def _numpy_solvers():
    """The two solves through numpy's ILP64 ``dgtsv`` and ``dtbtrs``, or
    None where numpy does not export both.

    The symbols are looked up through numpy's own LAPACK extension module,
    whose handle reaches the libraries it links."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    try:
        dgtsv, dtbtrs = lib[_SYMBOL_PREFIX + "dgtsv_64_"], lib[_SYMBOL_PREFIX + "dtbtrs_64_"]
    except AttributeError:
        return None
    # every Fortran argument is a pointer; dtbtrs's three characters are
    # followed by their lengths, as gfortran passes them
    dgtsv.argtypes = [ctypes.c_void_p] * 8
    dtbtrs.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t] * 3
    dgtsv.restype = dtbtrs.restype = None

    def gtsv(system: np.ndarray) -> int:
        n = system.shape[1]
        rows = ctypes.addressof(ctypes.c_double.from_buffer(system))
        ints = _INTS_3(n, 1, 0)  # N (also LDB), NRHS, INFO
        at = ctypes.addressof(ints)
        dgtsv(at, at + 8, rows, rows + 8 * n, rows + 16 * n, rows + 24 * n, at, at + 16)
        return ints[2]

    def tbtrs(band: np.ndarray, rhs: np.ndarray) -> int:
        ldab, n = band.shape
        ints = _INTS_5(n, ldab - 1, 1, ldab, 0)  # N (also LDB), KD, NRHS, LDAB, INFO
        at = ctypes.addressof(ints)
        dtbtrs(b"L", b"N", b"U", at, at + 8, at + 16, band.ctypes.data, at + 24,
               rhs.ctypes.data, at, at + 32, 1, 1, 1)
        return ints[4]

    return gtsv, tbtrs


def _flapack_solvers():
    """The two solves through scipy's ``_flapack`` extension, loaded by file."""
    flapack = _load_flapack()

    def gtsv(system: np.ndarray) -> int:
        lower, diag, upper, rhs = system
        off = max(rhs.size - 1, 1)  # f2py wants one off-diagonal entry at n = 1
        x, info = flapack.dgtsv(lower[:off], diag, upper[:off], rhs, overwrite_dl=1,
                                overwrite_d=1, overwrite_du=1, overwrite_b=1)[3:]
        rhs[...] = x
        return info

    def tbtrs(band: np.ndarray, rhs: np.ndarray) -> int:
        x, info = flapack.dtbtrs(band, rhs, uplo="L", diag="U", overwrite_b=1)
        rhs[...] = x
        return info

    return gtsv, tbtrs


def solve_tridiagonal(system: np.ndarray) -> None:
    """Solve one tridiagonal system in place.

    ``system`` is a C-contiguous, writeable float64 (4, n) array whose rows
    are the sub-diagonal, the diagonal, the super-diagonal and the
    right-hand side; the off-diagonal rows' last entries are not read. On
    return row 3 holds the solution and rows 0-2 the factorization.
    """
    if not (isinstance(system, np.ndarray) and system.dtype == np.float64
            and system.flags.carray and system.ndim == 2 and system.shape[0] == 4
            and system.shape[1] >= 1):
        raise ValueError("a tridiagonal system must be a C-contiguous, writeable "
                         "float64 (4, n) array with n >= 1")
    info = _gtsv(system)
    if info:
        raise LinAlgError(f"dgtsv returned info = {info}")


def solve_unit_lower_band(band: np.ndarray, rhs: np.ndarray) -> None:
    """Solve L x = rhs in place, L unit lower-triangular with kd = k - 1
    sub-diagonals, held in LAPACK's band storage: ``band`` is a
    Fortran-order float64 (k, n) array with ``band[i, j] = L[i + j, j]``
    (row 0, the unit diagonal, is not read) and ``rhs`` a C-contiguous,
    writeable float64 array of n values that receives x.
    """
    if not (isinstance(band, np.ndarray) and band.dtype == np.float64
            and band.ndim == 2 and band.flags.f_contiguous and band.flags.aligned
            and min(band.shape) >= 1):
        raise ValueError("a band must be a Fortran-order float64 (k, n) array "
                         "with k, n >= 1")
    if not (isinstance(rhs, np.ndarray) and rhs.dtype == np.float64
            and rhs.flags.carray and rhs.ndim == 1):
        raise ValueError("a right-hand side must be a C-contiguous, writeable "
                         "1-D float64 array")
    if rhs.size != band.shape[1]:
        raise ValueError(f"a band of {band.shape[1]} columns cannot solve "
                         f"{rhs.size} values")
    info = _tbtrs(band, rhs)
    if info:
        raise LinAlgError(f"dtbtrs returned info = {info}")


_solvers = _numpy_solvers()
BACKEND = "numpy" if _solvers else "scipy._flapack"
_gtsv, _tbtrs = _solvers or _flapack_solvers()
