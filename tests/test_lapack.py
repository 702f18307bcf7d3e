"""The LAPACK routines, from numpy's OpenBLAS or else from scipy's _flapack
loaded without scipy.linalg: the same objects scipy hands out on the
fallback, bit-identical results on both backends and against scipy's
wrappers as oracles, one OpenBLAS mapped per run, and one-line errors on bad
input."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, lapack, solve_banded

import subspec
from subspec import _lapack
from subspec.discretization import JacobiMatrix, assemble_jacobi, build_quadrature
from subspec.errors import EigensolveError
from subspec.lse_quad import RTOL
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


# run first in a fresh interpreter: _lapack falls back to scipy's _flapack
NO_NUMPY_OPENBLAS = (Path(__file__).parent / "no_numpy_openblas.py").read_text()


def _bound(backend):
    """Code that binds backend's library as L in a fresh interpreter."""
    fallback = backend == "flapack"
    return ((NO_NUMPY_OPENBLAS if fallback else "") + "import subspec._lapack as L\n"
            f"assert (L._flapack is not None) == {fallback}, L.LIBRARY\n")


needs_numpy_openblas = pytest.mark.skipif(
    _lapack._flapack is not None, reason="numpy ships no OpenBLAS with the four routines")
# the libraries _bound binds
BACKENDS = [pytest.param("openblas", marks=needs_numpy_openblas), "flapack"]


def test_a_later_scipy_linalg_import_reuses_the_loaded_module():
    # a fresh interpreter, so the module is loaded by the finder, not taken
    # from an earlier import of scipy.linalg; scipy/__init__.py first runs
    # with that later import
    assert _python(NO_NUMPY_OPENBLAS + (
        "import sys, subspec._lapack as L; "
        "assert 'scipy' not in sys.modules and 'scipy.linalg' not in sys.modules; "
        "assert L.LIBRARY == L._flapack.__file__; "
        "import scipy, scipy.linalg.lapack as lp; "
        "print(*(getattr(lp, r) is getattr(L._flapack, r) for r in L._ROUTINES), "
        "scipy.__version__)")
    ) == f"True True True True {scipy.__version__}"
    # in this process scipy.linalg came first (the test oracles import it)
    from scipy.linalg import _flapack
    assert _lapack._load_flapack() is _flapack


def test_without_a_file_spec_the_loader_imports_the_package():
    # a finder that does not see the module (an editable scipy, say) falls
    # back to the plain import, which loads scipy.linalg
    assert _python(NO_NUMPY_OPENBLAS + """
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
    assert _python(NO_NUMPY_OPENBLAS + """
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


@needs_numpy_openblas
def test_runs_map_one_openblas(tmp_path):
    # a robin and a validate run bind the routines from numpy's OpenBLAS;
    # scipy is neither imported nor mapped
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps")
    robin = tmp_path / "robin.cfg"
    robin.write_text("task = robin\nphi.kind = exp-decay\nrobin.gamma = -0.5\n"
                     "resolution.X = 6\nresolution.panels = 12\n")
    validate = tmp_path / "validate.cfg"
    validate.write_text("task = validate\nphi.kind = stretched-exp\nphi.c = 2\n"
                        "resolution.X = 3\nresolution.panels = 40\n")
    assert _python(
        "import sys; from subspec.cli import run_cli; "
        f"print(run_cli(['run', {str(robin)!r}, '--out', {str(tmp_path / 'r')!r}]), "
        f"run_cli(['run', {str(validate)!r}, '--out', {str(tmp_path / 'v')!r}]), "
        "sorted(m for m in sys.modules if m.startswith('scipy')), "
        "[line.split()[-1] for line in open('/proc/self/maps') "
        "if 'scipy.libs' in line or '_flapack' in line])"
    ) == "0 0 [] []"


@pytest.fixture(scope="module", params=[0.0, -0.5], ids=["dirichlet", "robin"])
def dense_T(request, phi3):
    # the dense-spectra benchmark grid: stretched-exp(2), X = 8, N = 4000
    return assemble_jacobi(phi3, build_quadrature(8.0, 400, 10), request.param)


# what each backend computes from (d, e, b) and the shift s
CALLS = ("[L.stebz(d, e, 0, 25, tiny), L.stebz(d, e, d.size - 1, d.size - 1, 0.0), "
         "*L.pteqr(d - s, e), L.gtsv(e, d, b), L.sterf(d, e)]")


@needs_numpy_openblas
def test_both_backends_agree_bit_for_bit(dense_T, tmp_path):
    # numpy's OpenBLAS here, scipy's _flapack in a fresh interpreter that
    # cannot see numpy's, on the same inputs; the calls here do not write them
    d, e, b = dense_T.diag, dense_T.off, np.cos(dense_T.quad.nodes)
    given = [a.copy() for a in (d, e, b)]
    s = min(0.0, 2.0 * float(_bisect(d, e, 0, 0)[0]))
    openblas = eval(CALLS, {"L": _lapack, "d": d, "e": e, "b": b, "s": s, "tiny": TINY})
    np.savez(tmp_path / "band.npz", d=d, e=e, b=b, s=s)
    _python(_bound("flapack") + f"""
import numpy as np
d, e, b, s = np.load({str(tmp_path / "band.npz")!r}).values()
tiny = np.finfo(float).tiny
np.savez({str(tmp_path / "flapack.npz")!r}, *{CALLS})
""")
    flapack = list(np.load(tmp_path / "flapack.npz").values())
    assert [_hex(r) for r in openblas] == [_hex(r) for r in flapack]
    assert [_hex(a) for a in (d, e, b)] == [_hex(a) for a in given]


def test_full_spectrum_is_scipys_dpteqr_bit_for_bit(dense_T):
    # scipy's dpteqr on the same shifted T, s = min(0, 2 lambda_0); only
    # the Robin lambda_0 = -279 lies below eps |s| / RTOL and keeps its
    # bisected value
    d, e = dense_T.diag, dense_T.off
    lam0 = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0), lapack_driver="stebz",
                                tol=TINY)[0]
    s = min(0.0, 2.0 * lam0)
    w, _, _, info = lapack.dpteqr(d - s, e, np.zeros((1, 1)), compute_z=0)
    assert info == 0
    want = np.sort(w) + s
    if s < 0.0:
        assert want[1] > -s * np.finfo(float).eps / RTOL
        want[0] = lam0
    assert _hex(eigen_mu(dense_T)) == _hex(np.sort(1.0 / want)[::-1])


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_short_band_fails_before_lapack_reads_past_it(backend):
    # f2py checked the shapes it was given; the calls check them first, in
    # a fresh interpreter bound to either library
    assert _python(_bound(backend) + """
import numpy as np
d, short = np.full(3, 2.0), np.full(1, -1.0)
raised = []
for call in (lambda: L.stebz(d, short, 0, 1, 0.0), lambda: L.pteqr(d, short),
             lambda: L.sterf(d, short), lambda: L.gtsv(short, d, d),
             lambda: L.gtsv(d[:2], d, d[:2])):
    try:
        call()
    except ValueError:
        raised.append("ValueError")
print(*raised)
""") == " ".join(["ValueError"] * 5)


@pytest.mark.parametrize("backend", BACKENDS)
def test_integers_are_as_wide_as_the_library_writes_them(backend):
    # the integer arrays start with every bit set, so integers narrower
    # than _INT would leave the high words of m, nsplit and iblock at -1;
    # on the fallback _INT is as wide as f2py's own dstebz integers
    assert _python(_bound(backend) + """
import ctypes
import numpy as np
n = 3
m, nsplit, iblock, isplit = (np.full(k, -1, dtype=L._INT) for k in (1, 1, n, n))
info = L._fortran("dstebz", "I", "E", n, 0.0, 1.0, 1, n, 0.0, np.full(n, 2.0),
                  np.full(n - 1, -1.0), m, nsplit, np.empty(n), iblock, isplit,
                  np.empty(4 * n), np.empty(3 * n, dtype=L._INT))
f2py = (8 if L._flapack is None else
        L._flapack.dstebz(np.ones(2), np.zeros(1), 2, 0.0, 1.0, 1, 2, 0.0, "E")[2].itemsize)
print(info, m[0], nsplit[0], *iblock, isplit[0], ctypes.sizeof(L._INT) == f2py)
""") == "0 3 1 1 1 1 3 True"


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
