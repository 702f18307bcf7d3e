"""The tridiagonal (Jacobi) spectral core against the dense Nystrom oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dense_oracle
from subspec.discretization import assemble_jacobi, build_quadrature
from subspec.errors import ComplexGammaError
from subspec.phi_models import inv_power_zeta, make_phi
from subspec.spectral import eigen_mu

GAMMAS = [0.0, 0.5, -0.05, -2.0]
GAMMA_IDS = ["dirichlet", "robin+0.5", "robin-0.05", "robin-2"]


@pytest.fixture(scope="module")
def grids(phi1, phi2, phi3, phi4):
    """(model, quadrature) per built-in family.

    power and oscillating run at N = 2000, where a tridiagonal solver at its
    default tolerance (absolute, eps * max lambda) misses 1e-9 on the top mu.
    """
    scattering = make_phi("scattering-profile", c=1.0, zeta=inv_power_zeta(1.0, 1.0))
    out = {}
    for name, model, X, panels in (("exp-decay", phi1, 20.0, 100),
                                   ("power", phi2, 200.0, 200),
                                   ("stretched-exp", phi3, 8.0, 100),
                                   ("oscillating", phi4, 6.0, 200),
                                   ("scattering-profile", scattering, 30.0, 100)):
        out[name] = (model, build_quadrature(X, panels, 10))
    return out


def _dense_T(T):
    return np.diag(T.diag) + np.diag(T.off, 1) + np.diag(T.off, -1)


@pytest.mark.parametrize("family", ["exp-decay", "power", "stretched-exp",
                                    "oscillating", "scattering-profile"])
@pytest.mark.parametrize("gamma", GAMMAS, ids=GAMMA_IDS)
def test_jacobi_spectrum_matches_dense(grids, family, gamma):
    model, quad = grids[family]
    dense = dense_oracle.mu(dense_oracle.green_matrix(model, quad, gamma))
    norm = np.max(np.abs(dense))
    T = assemble_jacobi(model, quad, gamma)
    full = eigen_mu(T)
    top = np.argsort(-np.abs(dense))[:25]
    assert np.max(np.abs(full[top] - dense[top]) / np.abs(dense[top])) <= 1e-9
    assert np.max(np.abs(full - dense)) <= 1e-9 * norm
    top25 = eigen_mu(T, 25)
    assert np.max(np.abs(top25 - dense[:25]) / np.abs(dense[:25])) <= 1e-9
    # the full (dpteqr) and partial (bisection) routes agree on the top mu;
    # bisection alone is off by 1.6e-11 on the top power mu against mpmath
    assert np.max(np.abs(full[:25] - top25) / np.abs(top25)) <= 3e-11
    assert top25[0] == pytest.approx(norm, rel=1e-9)  # the spectrum report's norm estimate
    if gamma < 0:
        assert np.sum(full < 0) == 1  # rank-one shift: one negative mu


def _sturm_lambda(d, e2, k, guess):
    """Eigenvalue k (ascending) of the tridiagonal with diagonal d and squared
    off-diagonal e2 (mpf lists), by Sturm-count bisection in the working
    precision, from a bracket around guess, to 1e-16 relative."""
    import mpmath as mp

    def below(x):  # eigenvalues < x
        count, q = 0, mp.mpf(1)
        for i in range(len(d)):
            q = d[i] - x - (e2[i - 1] / q if i else 0)
            if q == 0:
                q = mp.mpf(10) ** (-2 * mp.mp.dps)
            count += q < 0
        return count

    guess, width = mp.mpf(guess), mp.mpf(1e-9) * abs(guess)
    lo, hi = guess - width, guess + width
    while below(lo) > k:
        lo -= 10 * (hi - lo)
    while below(hi) <= k:
        hi += 10 * (hi - lo)
    while hi - lo > mp.mpf(1e-16) * abs(lo):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if below(mid) > k else (mid, hi)
    return (lo + hi) / 2


@pytest.mark.parametrize("family, X", [("power", 200.0), ("stretched-exp", 8.0)])
@pytest.mark.parametrize("gamma", [0.0, -0.5], ids=["dirichlet", "robin-0.5"])
def test_full_spectrum_matches_mpmath_sturm_bisection(phi2, phi3, family, X, gamma):
    # the same rounded T in 32 digits: a check of the eigensolver alone.
    # On power(1) with gamma = -0.5 sterf is off by 5.1e-12, and undoing
    # the Robin shift on every lambda (no bisected low end) by 7.7e-12
    mp = pytest.importorskip("mpmath")
    model = {"power": phi2, "stretched-exp": phi3}[family]
    T = assemble_jacobi(model, build_quadrature(X, 20, 10), gamma)
    lam = np.sort(1.0 / eigen_mu(T))
    n = lam.size
    with mp.workdps(32):
        d = [mp.mpf(float(v)) for v in T.diag]
        e2 = [mp.mpf(float(v)) ** 2 for v in T.off]
        for k in (0, 1, 2, n // 4, n // 2, 3 * n // 4, n - 2, n - 1):
            ref = _sturm_lambda(d, e2, k, lam[k])
            assert abs(lam[k] - float(ref)) <= 1e-12 * abs(float(ref)), k


@st.composite
def _profiles(draw):
    """Random tabulated or custom-log-profile models."""
    if draw(st.booleans()):
        steps = draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=12))
        xs = np.concatenate(([0.0], np.cumsum(steps)))
        slopes = np.asarray(draw(st.lists(st.floats(-3.0, 1.0), min_size=xs.size - 2,
                                          max_size=xs.size - 2)) + [-1.0])
        logs = np.concatenate(([draw(st.floats(-2.0, 2.0))], slopes * np.diff(xs)))
        return make_phi("tabulated", x=xs, values=np.exp(np.cumsum(logs)))
    a = draw(st.floats(0.2, 3.0))
    b = draw(st.floats(0.0, 1.0))
    amp = draw(st.floats(0.0, 2.0))
    k = draw(st.floats(0.5, 20.0))
    return make_phi("custom-log-profile",
                    log_phi=lambda x: -a * x - b * x**2 + amp * np.sin(k * x), label="random")


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=_profiles(), X=st.floats(0.5, 12.0), panels=st.integers(1, 12),
       order=st.integers(2, 10), gamma=st.sampled_from([0.0, 0.7, -0.3, -5.0]))
def test_jacobi_is_inverse_of_nystrom_matrix(model, X, panels, order, gamma):
    quad = build_quadrature(X, panels, order)
    T = assemble_jacobi(model, quad, gamma)
    if np.isinf(T.diag[0]):  # gamma hit -I(x_1) exactly
        return
    Td = _dense_T(T)
    A = dense_oracle.green_matrix(model, quad, gamma)
    resid = np.max(np.abs(Td @ A - np.eye(quad.n)))
    assert resid <= 1e-12 * np.max(np.abs(Td)) * np.max(np.abs(A))


def test_singular_robin_has_one_exact_zero_mu(phi3):
    quad = build_quadrature(4.0, 20, 10)
    gamma = -float(np.exp(assemble_jacobi(phi3, quad).cache.log_I_nodes[0]))  # xi(x_1) = 0
    T = assemble_jacobi(phi3, quad, gamma)
    mu = eigen_mu(T)
    assert np.sum(mu == 0.0) == 1
    assert np.all(mu >= 0.0)
    dense = dense_oracle.mu(dense_oracle.green_matrix(phi3, quad, gamma))
    assert np.max(np.abs(mu - dense)) <= 1e-9 * np.max(np.abs(dense))
    top = eigen_mu(T, 10)
    assert np.allclose(top, mu[:10], rtol=1e-12, atol=0.0)


def test_jacobi_refuses_complex_gamma(phi1):
    quad = build_quadrature(5.0, 10, 4)
    with pytest.raises(ComplexGammaError):
        assemble_jacobi(phi1, quad, 1.0 + 2.0j)
