"""The LAPACK routines loaded without scipy.linalg: the same objects scipy
hands out, bit-identical results against scipy's wrappers as oracles, and
one-line errors on bad input."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, solve_banded

import subspec
from subspec import _lapack
from subspec.discretization import JacobiMatrix, assemble_jacobi, build_quadrature
from subspec.errors import EigensolveError
from subspec.oracle_fd import fd_eigenvalues, potential_from_phi
from subspec.spectral import _bisect, eigen_mu

TINY = np.finfo(float).tiny


def _hex(a):
    return [float(v).hex() for v in np.asarray(a).ravel()]


def _python(code):
    src = str(Path(subspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_a_later_scipy_linalg_import_reuses_the_loaded_module():
    # a fresh interpreter, so the module is loaded by the finder, not taken
    # from an earlier import of scipy.linalg; scipy/__init__.py first runs
    # with that later import
    assert _python(
        "import sys, subspec._lapack as L; "
        "assert 'scipy' not in sys.modules and 'scipy.linalg' not in sys.modules; "
        "import scipy, scipy.linalg.lapack as lp; "
        "print(lp.dstebz is L._flapack.dstebz, lp.dpteqr is L.dpteqr, "
        "lp.dgtsv is L._flapack.dgtsv, scipy.__version__)"
    ) == f"True True True {scipy.__version__}"
    # in this process scipy.linalg came first (the test oracles import it)
    import scipy.linalg.lapack as lp
    assert lp.dstebz is _lapack._flapack.dstebz and lp.dpteqr is _lapack.dpteqr
    assert lp.dgtsv is _lapack._flapack.dgtsv


def test_without_a_file_spec_the_loader_imports_the_package():
    # a finder that does not see the module (an editable scipy, say) falls
    # back to the plain import, which loads scipy.linalg
    assert _python("""
import sys, importlib.machinery as m
find, missed = m.PathFinder.find_spec, []

def find_spec(name, path=None, target=None):
    if name == "scipy.linalg._flapack" and not missed:  # the loader's own lookup
        missed.append(name)
        return None
    return find(name, path, target)

m.PathFinder.find_spec = find_spec
import numpy as np, subspec._lapack as L
print(missed, "scipy.linalg" in sys.modules, L._flapack is sys.modules["scipy.linalg._flapack"],
      np.allclose(L.stebz(np.array([2.0, 2.0]), np.array([-1.0]), 0, 1, 0.0), [1.0, 3.0]))
""") == "['scipy.linalg._flapack'] True True True"


def test_without_scipy_the_loader_raises_what_import_scipy_raises():
    assert _python("""
import importlib.machinery as m
find = m.PathFinder.find_spec
m.PathFinder.find_spec = lambda name, *args: None if name == "scipy" else find(name, *args)
errors = []
for name in ("subspec._lapack", "scipy"):
    try:
        __import__(name)
    except ModuleNotFoundError as exc:
        errors.append((str(exc), exc.name))
print(errors[0] == errors[1], errors[0])
""") == "True (\"No module named 'scipy'\", 'scipy')"


@pytest.fixture(scope="module", params=[0.0, -0.5], ids=["dirichlet", "robin"])
def dense_T(request, phi3):
    # the dense-spectra benchmark grid: stretched-exp(2), X = 8, N = 4000
    return assemble_jacobi(phi3, build_quadrature(8.0, 400, 10), request.param)


def test_bisection_is_bit_identical_to_scipy(dense_T):
    d, e = dense_T.diag, dense_T.off
    for lo, hi in [(0, 25), (0, 0), (d.size - 1, d.size - 1)]:
        want = eigvalsh_tridiagonal(d, e, select="i", select_range=(lo, hi),
                                    lapack_driver="stebz", tol=TINY)
        assert _hex(_bisect(d, e, lo, hi)) == _hex(want)


def test_fd_eigenvalues_are_bit_identical_to_scipy(phi3):
    X, N, k = 8.0, 4000, 25
    dx = X / (N + 1)
    diag = 2.0 / dx**2 + potential_from_phi(phi3, dx * np.arange(1, N + 1))
    want = eigh_tridiagonal(diag, np.full(N - 1, -1.0 / dx**2), select="i",
                            select_range=(0, k - 1), eigvals_only=True)
    assert _hex(fd_eigenvalues(lambda x: potential_from_phi(phi3, x), X, N, k)) == _hex(want)


def test_apply_to_function_is_bit_identical_to_scipy(dense_T):
    diag, off = dense_T.diag.copy(), dense_T.off.copy()
    f = np.cos(dense_T.quad.nodes)
    bands = np.zeros((3, dense_T.n))
    bands[0, 1:] = bands[2, :-1] = off
    bands[1] = diag
    sw = np.sqrt(dense_T.quad.weights)
    want = solve_banded((1, 1), bands, sw * f) / sw
    assert _hex(dense_T.apply_to_function(f)) == _hex(want)
    # T's arrays are inputs only
    assert _hex(dense_T.diag) == _hex(diag) and _hex(dense_T.off) == _hex(off)


def test_one_by_one_matrices_take_the_quick_exit():
    for x in (0.1 + 0.2, -3.0, 1e300):
        d = np.array([x])
        assert _hex(_lapack.stebz(d, np.empty(0), 0, 0, TINY)) == _hex(d)
        assert _hex(eigvalsh_tridiagonal(d, np.empty(0), select="i", select_range=(0, 0),
                                         lapack_driver="stebz", tol=TINY)) == _hex(d)
        b = np.array([0.7])
        assert _hex(_lapack.gtsv(np.empty(0), d, b)) == _hex(
            solve_banded((1, 1), np.array([[0.0], [x], [0.0]]), b))


@pytest.mark.parametrize("where", ["diag", "off"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nonfinite_T_fails_naming_the_routine(where, bad):
    quad = build_quadrature(1.0, 1, 4)
    diag, off = np.full(4, 2.0), np.full(3, -1.0)
    {"diag": diag, "off": off}[where][2] = bad
    T = JacobiMatrix(diag, off, 0.0, quad, cache=None)
    for n_keep in (2, None):  # top-k bisection, full spectrum
        with pytest.raises(EigensolveError, match="^dstebz got an inf or NaN entry$"):
            eigen_mu(T, n_keep)
    with pytest.raises(EigensolveError, match="^dgtsv got an inf or NaN entry$"):
        T.apply_to_function(np.ones(4))


def test_a_singular_robin_inf_is_not_bad_input(phi3):
    # diag[0] = +inf encodes a decoupled node; every route steps past it
    quad = build_quadrature(4.0, 20, 10)
    gamma = -float(np.exp(assemble_jacobi(phi3, quad).cache.log_I_nodes[0]))
    T = assemble_jacobi(phi3, quad, gamma)
    assert np.isinf(T.diag[0])
    assert np.isfinite(eigen_mu(T, 3)).all() and np.isfinite(eigen_mu(T)).all()
    assert T.apply_to_function(np.ones(T.n))[0] == 0.0


def test_a_nan_potential_fails_the_fd_solve():
    with pytest.raises(EigensolveError, match="dstebz"):
        fd_eigenvalues(lambda x: np.where(x > 0.5, np.nan, x), 1.0, 32, 3)
