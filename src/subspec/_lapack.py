"""The four LAPACK routines the package uses (dstebz, dpteqr, dgtsv and
dsterf): one calling convention, two libraries.

Every routine is called the same way: its Fortran symbol through ctypes
(which numpy has already imported), every argument by reference and each
string argument's length after the last one, as gfortran passes it.  Only
the library and the width of its integers differ.

numpy's wheel ships an OpenBLAS and has already mapped it: numpy >= 2 puts
libscipy_openblas64_ in numpy.libs/ (numpy/.dylibs/ on macOS) and it exports
the routines as scipy_<routine>_64_; numpy 1.2x wheels export them as
<routine>_64_.  Both are ILP64: integers are int64.  So a run maps one
OpenBLAS.  Loading scipy.linalg._flapack instead maps scipy's own
libscipy_openblas (1.46 MiB resident) and _flapack.so (0.88 MiB), and
0.14 MiB more anonymous pages: 2.48 MiB (/proc/self/smaps before and after
importing this module on either path; numpy 2.4.6, scipy 1.17.1, x86-64).
The Fortran symbols are called, not LAPACKE's: LAPACKE_dpteqr sizes WORK as
1 for COMPZ = 'N', but DPTEQR hands it to DLASQ1, which needs 4N, and the
heap is corrupted.  Work arrays are sized as scipy's f2py wrappers size
them (DSTEBZ: 4N work and 3N iwork; DPTEQR: 4N).

Where numpy ships no single OpenBLAS with those symbols, or it cannot be
opened (Accelerate, MKL or distribution builds), scipy's compiled
scipy.linalg._flapack is loaded without running scipy/__init__.py or
scipy/linalg/__init__.py, and the same routines are called at the
addresses its f2py objects hold (each one's _cpointer capsule, which
numpy's f2py gives every Fortran routine), with integers as wide as f2py's
own dstebz hands back (int32 on LP64 builds).  Importing scipy.linalg costs
about 0.25 s, most of it scipy's array-API shim; scipy/__init__.py alone
costs 14-18 ms, its test runner pulling in subprocess, sysconfig, signal
and selectors.  So scipy's directory comes from its import spec, and only
the extension module is loaded (BENCH_16.json, BENCH_20.json).  Without scipy this raises the
ModuleNotFoundError that `import scipy` raises.  The module is registered
under its full name, so a later `import scipy.linalg` reuses it.

Both libraries give the same numbers to the bit.  Each function below has
one body: it checks the band's shapes and finiteness, raising
EigensolveError named after the routine on an inf or NaN entry, as scipy's
eigvalsh_tridiagonal and solve_banded did, never writes an array passed
in, and leaves 1 x 1 matrices to LAPACK's own quick returns, which give
scipy's bits.  dsterf gives the Gauss-Legendre nodes: numpy's eigvalsh
reaches the same routine on a tridiagonal matrix, so the nodes stay numpy's
to the bit and numpy's own LAPACK is never called.  LIBRARY is the file the
routines come from.
"""

import ctypes
import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import EigensolveError

_NAME = "scipy.linalg._flapack"
# each Fortran routine's pointer arguments (INFO included) and string lengths
_ROUTINES = {"dstebz": (18, 2), "dpteqr": (8, 1), "dgtsv": (8, 0), "dsterf": (4, 0)}


def _numpy_openblas():
    """(path, {routine: Fortran function}) of the one OpenBLAS in numpy's
    wheel, or None."""
    here = os.path.dirname(np.__file__)
    folders = [os.path.join(os.path.dirname(here), "numpy.libs"), os.path.join(here, ".dylibs")]
    found = [os.path.join(f, name) for f in folders if os.path.isdir(f)
             for name in os.listdir(f) if "openblas" in name]
    if len(found) != 1:
        return None
    try:
        lib = ctypes.CDLL(found[0])
    except OSError:
        return None
    for symbol in ("scipy_{}_64_", "{}_64_"):
        try:
            routines = {r: getattr(lib, symbol.format(r)) for r in _ROUTINES}
        except AttributeError:
            continue
        for r, (pointers, lengths) in _ROUTINES.items():
            routines[r].argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * lengths
            routines[r].restype = None
        return found[0], routines
    return None


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


def _flapack_routines(flapack) -> tuple:
    """(integer type, {routine: Fortran function}) of flapack: integers as
    wide as the iblock of its f2py dstebz, and each routine at the address
    in its f2py object's _cpointer capsule."""
    iblock = flapack.dstebz(np.ones(2), np.zeros(1), 2, 0.0, 1.0, 1, 2, 0.0, "E")[2]
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return {4: ctypes.c_int32, 8: ctypes.c_int64}[iblock.itemsize], {
        r: ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * pointers, *[ctypes.c_size_t] * lengths)(
            address(getattr(flapack, r)._cpointer, None))
        for r, (pointers, lengths) in _ROUTINES.items()}


_openblas = _numpy_openblas()
_flapack = _load_flapack() if _openblas is None else None
LIBRARY = _flapack.__file__ if _openblas is None else _openblas[0]
# integers are int64 in numpy's ILP64 OpenBLAS, f2py's width in _flapack
_INT, _routines = (_flapack_routines(_flapack) if _openblas is None
                   else (ctypes.c_int64, _openblas[1]))


def _fortran(routine: str, *args) -> int:
    """Call `routine` with INFO appended, and return INFO.  Arrays are
    passed by address (the routine may write them), ints as _INT and floats
    as double by reference, and strings with their lengths after the last
    argument."""
    refs, lengths = [], []
    for a in args:
        if isinstance(a, np.ndarray):
            refs.append(a.ctypes.data)
        elif isinstance(a, str):
            refs.append(a.encode())
            lengths.append(len(a))
        elif isinstance(a, (int, np.integer)):
            refs.append(ctypes.byref(_INT(int(a))))
        else:
            refs.append(ctypes.byref(ctypes.c_double(a)))
    info = _INT(0)
    _routines[routine](*refs, ctypes.byref(info), *lengths)
    return info.value


def _band(routine: str, d, e, *rest) -> list:
    """Float64 copies of the tridiagonal (d, e) and of any right-hand side,
    for a routine that reads n, n - 1 and n entries (and may write them);
    an inf or NaN entry is an EigensolveError named after the routine."""
    d, e, *rest = arrays = [np.array(a, dtype=float) for a in (d, e, *rest)]
    if d.ndim != 1 or e.shape != (d.size - 1,) or any(b.shape != d.shape for b in rest):
        raise ValueError(f"a tridiagonal system of order {d.size} cannot have entries of "
                         f"shapes {[a.shape for a in (e, *rest)]}")
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise EigensolveError(f"{routine} got an inf or NaN entry")
    return arrays


def stebz(d, e, lo: int, hi: int, tol: float) -> np.ndarray:
    """Eigenvalues lo..hi (0-based, ascending) of the symmetric tridiagonal
    (d, e) by bisection to absolute tolerance tol (0 = LAPACK's default)."""
    d, e = _band("dstebz", d, e)
    n = d.size
    m, nsplit, iblock, isplit = (np.zeros(k, dtype=_INT) for k in (1, 1, n, n))
    w = np.empty(n)
    info = _fortran("dstebz", "I", "E", n, 0.0, 1.0, lo + 1, hi + 1, tol, d, e, m, nsplit,
                    w, iblock, isplit, np.empty(4 * n), np.empty(3 * n, dtype=_INT))
    if info != 0:
        raise EigensolveError(f"dstebz failed, info = {info}")
    return w[:m[0]]


def pteqr(d, e) -> tuple:
    """(eigenvalues, info) of the symmetric positive definite tridiagonal
    (d, e): Cholesky factorization and dqds on the factor (COMPZ = 'N'), the
    eigenvalues in descending order.  The caller reads info (> 0: not
    positive definite)."""
    w, e = _band("dpteqr", d, e)
    return w, _fortran("dpteqr", "N", w.size, w, e, np.zeros(1), 1, np.empty(4 * w.size))


def gtsv(off, diag, b) -> np.ndarray:
    """x with T x = b for the symmetric tridiagonal T = (diag, off); the
    arrays passed in are not written."""
    diag, lower, x = _band("dgtsv", diag, off, b)
    info = _fortran("dgtsv", diag.size, 1, lower, diag, lower.copy(), x, diag.size)
    if info != 0:
        raise EigensolveError(f"dgtsv failed, info = {info}")
    return x


def sterf(d, e) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal (d, e), ascending, by the
    root-free QL/QR iteration."""
    w, e = _band("dsterf", d, e)
    info = _fortran("dsterf", w.size, w, e)
    if info != 0:
        raise EigensolveError(f"dsterf failed, info = {info}")
    return w
