"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

import dense_oracle
from paper_identities import (
    elementary_bound_margin,
    growth_exponent,
    quadratic_form_residual,
    robin_fd_eigenvalues,
    xi_norm_bound,
    xi_norms,
)
from subspec.discretization import ORDER, assemble_jacobi, build_quadrature
from subspec.green_kernel import exp_bound_margin
from subspec.oracle_fd import cross_validate, fd_eigenvalues
from subspec.phi_models import inv_power_zeta
from subspec.scattering import example_scatt_sweep
from subspec.spectral import eigen_mu, factorization_forms, robin_sigma, weighted_identity_residual
from subspec.subordinate import SubordinateCache, wronskian_residual


def _ok(n, msg):
    print(f"\nACCEPTANCE {n:2d} PASS: {msg}")


@pytest.fixture(scope="module")
def quad_phi1():
    return build_quadrature(13.8155, 120, 10)


def test_criterion_01_subordinate_closed_forms(phi1, phi2):
    worst = 0.0
    xs = (0.5, 1.0, 2.0, 4.0, 8.0)
    for x, log_psi in zip(xs, SubordinateCache(phi1, xs).log_psi_nodes):
        rel = abs(math.exp(log_psi) - math.sinh(x)) / math.sinh(x)
        worst = max(worst, rel)
        assert rel <= 1e-8
    psi2 = math.exp(SubordinateCache(phi2, [1.0]).log_psi_nodes[0])
    rel2 = abs(psi2 - 7.0 / 6.0) / (7.0 / 6.0)
    assert rel2 <= 1e-8
    _ok(1, f"psi closed forms: worst rel err {max(worst, rel2):.2e} <= 1e-8")


def test_criterion_02_wronskian(phi1, phi3, phi4):
    r1 = wronskian_residual(phi1, np.linspace(0.25, 13.5, 25))
    r3 = wronskian_residual(phi3, np.linspace(0.25, 5.0, 25))
    r4 = wronskian_residual(phi4, np.linspace(0.25, 4.5, 18))
    assert r1 <= 1e-6 and r3 <= 1e-6
    assert r4 <= 1e-3
    _ok(2, f"wronskian residuals: phi1 {r1:.1e}, phi3 {r3:.1e} <= 1e-6; "
           f"phi4 {r4:.1e} <= 1e-3")


def test_criterion_03_growth_bound(phi1, phi2, phi3, phi4):
    worst = math.inf
    for m, X in ((phi1, 13.8), (phi2, 40.0), (phi3, 4.0), (phi4, 6.0)):
        nodes = np.linspace(0.05, X, 160)
        cache = SubordinateCache(m, nodes)
        ratio = np.exp(cache.log_I_nodes)
        margin = m.l2_norm_phi**2 * ratio - nodes**2
        assert np.all(margin >= -1e-9 * nodes**2)
        worst = min(worst, float(np.min(m.l2_norm_phi**2 * ratio / nodes**2)))
    _ok(3, f"x^2 <= ||phi||^2 psi/phi on all audit grids (tightest factor {worst:.3f})")


def test_criterion_04_norm_and_bound_audit(phi1, phi4):
    tops = [eigen_mu(assemble_jacobi(phi1, build_quadrature(X, N // ORDER, ORDER)), 3)[0]
            for X in (60.0, 120.0) for N in (1200, 2000)]
    assert all(a < b for a, b in zip(tops, tops[1:])) or tops[-1] > tops[0]
    norm1 = eigen_mu(assemble_jacobi(phi1, build_quadrature(120.0, 240, 10)), 1)[0]
    assert abs(norm1 - 1.0) <= 1e-3
    assert norm1 <= 1.0 + 1e-9  # bound c2^3/(c^2 c1^3) = 1

    quad4 = build_quadrature(6.0, 240, 10)
    norm4 = eigen_mu(assemble_jacobi(phi4, quad4), 1)[0]
    assert norm4 <= math.e**6
    g = np.linspace(0.0, 10.0, 200)
    margins = exp_bound_margin(phi4, g[:, None], g[None, :])
    assert margins.shape == (200, 200)
    assert np.min(margins) >= -1e-12
    _ok(4, f"phi1 norm {norm1:.6f} in 1 +- 1e-3 and <= 1; phi4 norm {norm4:.3f} "
           f"<= e^6 = {math.e**6:.2f}; 200x200 kernel bound margins >= "
           f"{np.min(margins):.2e}")


def test_criterion_05_factorization(phi1, phi3, phi4):
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = ((phi1, 13.8155, 56), (phi3, 4.0, 40), (phi4, 6.0, 60))
    for m, X, panels in cases:
        quad = build_quadrature(X, panels, 10)
        for _ in range(50):
            f = rng.standard_normal(quad.n)
            fGf, Mf2 = factorization_forms(m, quad, f)
            worst = max(worst, abs(fGf - Mf2) / float(f @ f))
    assert worst <= 1e-8
    _ok(5, f"<Gf,f> = ||Mf||^2 on 3 models x 50 random f: worst {worst:.2e} <= 1e-8")


def test_criterion_06_positivity(phi1, phi2, phi3, phi4):
    worst = 0.0
    for m, X in ((phi1, 13.8155), (phi2, 30.0), (phi3, 4.0), (phi4, 6.0)):
        quad = build_quadrature(X, max(40, int(np.ceil(4 * X))), 10)
        mu = eigen_mu(assemble_jacobi(m, quad))
        ratio = mu.min() / mu.max()
        worst = min(worst, ratio)
        assert mu.min() >= -1e-10 * mu.max()
    _ok(6, f"min eigenvalue >= -1e-10 ||G|| for all built-ins (worst {worst:.1e})")


def test_criterion_07_quadratic_form(phi1, quad_phi1):
    f = np.exp(-((quad_phi1.nodes - 3.0) ** 2))
    r = quadratic_form_residual(phi1, assemble_jacobi(phi1, quad_phi1), f)
    assert r <= 1e-3
    fr = -3.0 * np.exp(-2.0 * quad_phi1.nodes)
    rr = quadratic_form_residual(phi1, assemble_jacobi(phi1, quad_phi1, -1.0), fr)
    assert rr <= 1e-2
    _ok(7, f"first-order form: dirichlet residual {r:.1e} <= 1e-3, "
           f"robin(gamma=-1) residual {rr:.1e} <= 1e-2")


def test_criterion_08_weighted_identity(phi1, phi3, quad_phi1):
    r1 = weighted_identity_residual(phi1, assemble_jacobi(phi1, quad_phi1), 3.0)
    r3 = weighted_identity_residual(
        phi3, assemble_jacobi(phi3, build_quadrature(4.0, 100, 10)), 1.5)
    assert r1 <= 1e-3 and r3 <= 1e-3
    _ok(8, f"G(-phi h'' - 2 phi' h') = phi h: residuals {r1:.1e}, {r3:.1e} <= 1e-3")


def test_criterion_09_dual_route_spectra(phi3, model_a):
    err3, erra = (np.max(np.abs(lam_green - lam_fd) / np.abs(lam_fd))
                  for lam_green, lam_fd in (cross_validate(phi3, 5), cross_validate(model_a, 5)))
    assert err3 <= 1e-2
    assert erra <= 1e-2
    _ok(9, f"lowest-5 Green vs FD: {err3:.2e} (stretched-exp), "
           f"{erra:.2e} (gaussian profile), both <= 1e-2")


def test_criterion_10_sandwich(model_a, model_b):
    band = (math.exp(-4.0), math.exp(4.0))
    bands = {}
    for N in (2400, 4800):
        quad = build_quadrature(6.0, N // 10, 10)
        mu_a = eigen_mu(assemble_jacobi(model_a, quad), 20)
        mu_b = eigen_mu(assemble_jacobi(model_b, quad), 20)
        ratios = mu_b / mu_a
        assert np.all(ratios >= band[0]) and np.all(ratios <= band[1])
        bands[N] = (float(ratios.min()), float(ratios.max()), ratios)
    drift = np.max(np.abs(bands[2400][2] / bands[4800][2] - 1.0))
    assert drift <= 1e-2  # conclusions are resolution-stable
    _ok(10, f"top-20 mu ratios within [e^-4, e^4] at both resolutions; measured "
            f"band [{bands[4800][0]:.3f}, {bands[4800][1]:.3f}], drift {drift:.1e}")


def test_criterion_11_robin_bound_state(phi1, quad_phi1):
    assert robin_sigma(phi1, -1.0) == -2.0
    lam = 1.0 / eigen_mu(assemble_jacobi(phi1, quad_phi1, -1.0))[-1]
    assert abs(lam - (-3.0)) <= 1e-2
    lam_fd = robin_fd_eigenvalues(lambda x: np.ones_like(x), 20.0, 4000, -2.0, 1)[0]
    assert abs(lam_fd - (-3.0)) <= 1e-3
    _ok(11, f"robin gamma=-1: sigma = -2 exactly, lambda = {lam:.4f} (-3 +- 1e-2), "
            f"FD oracle {lam_fd:.5f}")


def test_criterion_12_growth_exponent(phi3):
    quad = build_quadrature(8.0, 320, 10)
    lam_green = 1.0 / eigen_mu(assemble_jacobi(phi3, quad), 30)
    slope_green = growth_exponent(lam_green, (5, 25))
    from subspec.oracle_fd import potential_from_phi, turning_point
    X_fd = turning_point(phi3, 300.0) + 2.0
    lam_fd = fd_eigenvalues(lambda x: potential_from_phi(phi3, x), X_fd, 4000, 25)
    slope_fd = float(np.polyfit(np.log(np.arange(5, 26)), np.log(lam_fd[4:25]), 1)[0])
    assert abs(slope_green - 1.0) <= 0.15
    assert abs(slope_fd - 1.0) <= 0.15
    assert abs(slope_green - slope_fd) <= 0.02
    _ok(12, f"log-log eigenvalue slope over n in [5,25]: green {slope_green:.4f}, "
            f"fd {slope_fd:.4f} (quadratic confinement, 1.0 +- 0.15)")


def test_criterion_13_scattering_norms():
    zeta = inv_power_zeta(1.0, 1.5)
    for x in (0.0, 0.3, 1.0, 4.0, 9.0):
        nx, n0, _ = xi_norms(1.0, zeta, x)
        assert n0 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
        assert nx <= xi_norm_bound(1.0, zeta) * (1.0 + 1e-12)
    rng = np.random.default_rng(17)
    margins = elementary_bound_margin(zeta, rng.uniform(0, 30, 1000),
                                      rng.uniform(0, 30, 1000))
    assert np.all(margins >= -1e-14)

    (rep1,) = example_scatt_sweep([1.5], 1.0, build_quadrature(100.0, 150, ORDER))
    (rep2,) = example_scatt_sweep([1.5], 1.0, build_quadrature(140.0, 210, ORDER))
    rel = abs(rep1["trace_numeric"] / rep2["trace_numeric"] - 1.0)
    assert math.isfinite(rep1["trace_numeric"])
    assert rel <= 1e-3
    assert rep1["trace_numeric"] <= rep1["bound_nu_route"]
    _ok(13, f"||xi_0x|| exact, ||xi_x|| bounded, exp bound at 1e3 pairs; trace norm "
            f"{rep1['trace_numeric']:.5f} stable to {rel:.1e} and <= bound "
            f"{rep1['bound_nu_route']:.2f}")


def test_criterion_14_alpha_sweep_boundary():
    rows = example_scatt_sweep([0.5, 1.0, 1.5, 2.0, 4.0], 1.0, build_quadrature(40.0, 60, ORDER))
    for r in rows:
        nu_finite = math.isfinite(r["bound_nu_route"])
        assert nu_finite == (r["alpha"] > 1.0)
        assert math.isfinite(r["bound_derivative_route"])
        assert math.isfinite(r["trace_numeric"])
    _ok(14, "nu-route bound finite exactly for alpha > 1; derivative-route bound "
            "finite for all alpha in {0.5, 1, 1.5, 2, 4}")


def test_criterion_15_rank_one_trace(phi1, quad_phi1):
    Kd = dense_oracle.green_matrix(phi1, quad_phi1)
    Kg = dense_oracle.green_matrix(phi1, quad_phi1, 1.0)
    diff = float(np.trace(Kg) - np.trace(Kd))
    assert abs(diff - 0.5) <= 1e-3
    tn = dense_oracle.trace_norm(Kg - Kd)
    assert abs(tn - 0.5) <= 1e-3
    _ok(15, f"trace(G_gamma) - trace(G) = {diff:.6f} -> gamma ||phi||^2 = 0.5 "
            f"(rank-one trace norm {tn:.6f})")
