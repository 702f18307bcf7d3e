"""The four LAPACK routines the package uses, from scipy's compiled
scipy.linalg._flapack, loaded without running scipy/__init__.py or
scipy/linalg/__init__.py.

Importing scipy.linalg costs about 0.25 s, most of it scipy's array-API shim
(which clones the numpy namespace and so imports numpy.f2py, numpy.testing
and numpy.ma); scipy/__init__.py alone costs 14-18 ms, its test runner
pulling in subprocess, sysconfig, signal and selectors.  So scipy's
directory comes from its import spec, and only the extension module is
loaded, next to what numpy already loaded (2 vCPU, numpy 2.4.6, scipy
1.17.1; BENCH_16.json, BENCH_20.json).  Without scipy this raises the
ModuleNotFoundError that `import scipy` raises.  The module is registered
under its full name, so a later `import scipy.linalg` reuses it:
scipy.linalg.lapack.dstebz is the dstebz used here.  stebz and gtsv make the
finiteness and info checks that scipy's eigvalsh_tridiagonal and
solve_banded made, raising EigensolveError named after the routine.
dsterf gives the Gauss-Legendre nodes: numpy's eigvalsh reaches the same
routine on a tridiagonal matrix, so the nodes stay numpy's to the bit and
numpy's own LAPACK is never called.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import EigensolveError

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    spec = importlib.machinery.PathFinder.find_spec(
        _NAME, [os.path.join(p, "linalg") for p in scipy.submodule_search_locations])
    if spec is None:  # not a plain file next to scipy (an editable build, say)
        return importlib.import_module(_NAME)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpteqr = _flapack.dpteqr  # no check here: scipy.linalg.lapack.dpteqr makes none
dsterf = _flapack.dsterf  # the same: each caller reads info


def _require_finite(routine: str, *arrays) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise EigensolveError(f"{routine} got an inf or NaN entry")


def stebz(d, e, lo: int, hi: int, tol: float) -> np.ndarray:
    """Eigenvalues lo..hi (0-based, ascending) of the symmetric tridiagonal
    (d, e) by bisection to absolute tolerance tol (0 = LAPACK's default)."""
    _require_finite("dstebz", d, e)
    if len(d) == 1:  # the f2py wrappers reject an empty e (scipy's quick exit)
        return np.array(d, dtype=float)
    m, w, _, _, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, tol, "E")
    if info != 0:
        raise EigensolveError(f"dstebz failed, info = {info}")
    return w[:m]


def gtsv(off, diag, b) -> np.ndarray:
    """x with T x = b for the symmetric tridiagonal T = (diag, off); the
    arrays passed in are not written."""
    _require_finite("dgtsv", off, diag, b)
    if len(diag) == 1:
        return b / diag  # scipy's quick exit, as above
    _, _, _, x, info = _flapack.dgtsv(off, diag, off, b)
    if info != 0:
        raise EigensolveError(f"dgtsv failed, info = {info}")
    return x
