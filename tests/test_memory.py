"""Peak traced memory of scatter and validate at N = 4000-5000, of a full
Robin spectrum at N = 4000, and of the oscillating profile's psi caches and
||phi|| quadrature, which bisect millions of panels.

Both tasks run in O(N) memory: a single dense N x N matrix of doubles would
be 122 MiB at N = 4000, so a peak below 32 MiB shows that none is formed.
The quadrature refines at most a fixed budget of pending panels at a time,
so its peak does not grow with the number of panels it bisects: about
2.9 MiB for the cache on X = 15 with 240 panels, 2.3 MiB with 60 panels,
and 2.4 MiB for ||phi||, whose one interval holds 24682 pending panels.
Their bounds fail if both halves of the pending panels are evaluated as one
doubled array, if the deferred stack keeps every part of a depth alive
until its last part is refined, if the budget doubles, or if the arrays
of a refined entry all live until the next entry is taken.  Splitting the
pending set loads no numpy module.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import subspec
from subspec.cli import parse_config, run
from subspec.discretization import ORDER, assemble_jacobi, build_quadrature
from subspec.phi_models import make_phi
from subspec.scattering import example_scatt_sweep
from subspec.spectral import eigen_mu
from subspec.subordinate import SubordinateCache

PEAK_LIMIT = 32 * 2**20


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scatter_sweep_peak_memory():
    rows, peak = _peak_bytes(
        lambda: example_scatt_sweep([1.5], 1.0, build_quadrature(50.0, 500, ORDER)))
    assert rows[0]["trace_numeric"] > 0.0
    assert peak < PEAK_LIMIT, f"{peak / 2**20:.1f} MiB"


def test_validate_peak_memory(tmp_path):
    cfg = parse_config("task = validate\nphi.kind = stretched-exp\nphi.c = 2\n"
                       "resolution.X = 3\nresolution.panels = 400\n")
    cfg = cfg._replace(output_dir=tmp_path)
    status, peak = _peak_bytes(lambda: run(cfg))
    assert status == 0
    assert "all checks passed" in (tmp_path / "report.txt").read_text()
    assert peak < PEAK_LIMIT, f"{peak / 2**20:.1f} MiB"


def test_full_robin_spectrum_peak_memory(phi3):
    # a tridiagonal eigensolver with an N x N workspace (stemr allocates its
    # eigenvector array even for values only) would need 122 MiB here
    T = assemble_jacobi(phi3, build_quadrature(8.0, 400, ORDER), -0.5)
    mu, peak = _peak_bytes(lambda: eigen_mu(T))
    assert mu.size == 4000 and mu[-1] < 0.0
    assert peak < PEAK_LIMIT, f"{peak / 2**20:.1f} MiB"


def test_oscillating_cache_peak_memory(phi4):
    # 45.7M samples, 87 of its 2400 segments bisected to the depth limit
    samples = []

    def log_phi(x):
        samples.append(x.size)
        return phi4.log_phi(x)

    nodes = build_quadrature(15.0, 240, ORDER).nodes
    cache, peak = _peak_bytes(lambda: SubordinateCache(phi4._replace(log_phi=log_phi), nodes))
    assert sum(samples) > 40_000_000 and cache.unresolved_segments > 50
    assert peak < 3.25 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_fine_oscillating_cache_working_set(phi4):
    # 21M samples, 77 of its 600 segments bisected to the depth limit
    nodes = build_quadrature(15.0, 60, ORDER).nodes
    cache, peak = _peak_bytes(lambda: SubordinateCache(phi4, nodes))
    assert cache.unresolved_segments > 50
    assert peak < 2.75 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_oscillating_norm_working_set():
    # one interval of 24682 pending panels at the depth limit, never split
    (norm, unresolved), peak = _peak_bytes(make_phi("oscillating").l2)
    assert norm > 0.0 and unresolved
    assert peak < 2.75 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_splitting_the_pending_set_loads_no_numpy_module():
    # numpy 2's np.unique imports numpy.ma; only modules new after `import
    # numpy` count, whatever numpy loads itself
    code = ("import sys, numpy; loaded = set(sys.modules); "
            "from subspec import lse_quad; "
            "from subspec.discretization import build_quadrature; "
            "from subspec.phi_models import make_phi; "
            "from subspec.subordinate import SubordinateCache; "
            "split, sizes = lse_quad._by_interval, []; "
            "lse_quad._by_interval = lambda d, lo, *a: sizes.append(lo.size) or split(d, lo, *a); "
            "SubordinateCache(make_phi('oscillating'), build_quadrature(13.0, 52, 10).nodes); "
            "print(max(sizes) > lse_quad.BUDGET, "
            "sorted(m for m in set(sys.modules) - loaded if m.startswith('numpy')))")
    src = str(Path(subspec.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True []"
