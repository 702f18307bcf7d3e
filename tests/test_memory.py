"""Peak traced memory of scatter and validate at N = 4000-5000, of a full
Robin spectrum at N = 4000, and of a psi cache whose quadrature bisects
millions of panels.

Both tasks run in O(N) memory: a single dense N x N matrix of doubles would
be 122 MiB at N = 4000, so a peak below 32 MiB shows that none is formed.
The cache refines at most a fixed budget of pending panels at a time, so its
peak does not grow with the number of panels it bisects.
"""

import tracemalloc
from dataclasses import replace

from subspec.cli import parse_config, run
from subspec.discretization import ORDER, assemble_jacobi, build_quadrature
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
    cfg.output_dir = tmp_path
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
    cache, peak = _peak_bytes(lambda: SubordinateCache(replace(phi4, log_phi=log_phi), nodes))
    assert sum(samples) > 40_000_000 and cache.unresolved_segments > 50
    assert peak < PEAK_LIMIT, f"{peak / 2**20:.1f} MiB"
