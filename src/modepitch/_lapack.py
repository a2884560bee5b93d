"""The two LAPACK routines the package calls, without importing scipy.linalg.

``dgtsv`` (tridiagonal solve, EEMD spline envelopes) and ``dtbtrs`` (banded
triangular solve, the corpus all-pole filter) come from scipy's compiled
``scipy/linalg/_flapack`` extension, loaded by file path. Importing it by
name would first run ``scipy/__init__`` and ``scipy/linalg/__init__``,
which load most of scipy's support code and cost more than half of the
package's import time. The functions are the very objects that
``scipy.linalg.lapack`` exports, so every result is the same bit for bit.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os

_NAME = "scipy.linalg._flapack"


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


_flapack = _load_flapack()
dgtsv = _flapack.dgtsv
dtbtrs = _flapack.dtbtrs
