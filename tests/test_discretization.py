import math

import numpy as np
import pytest

import dense_oracle
from paper_identities import factorization_forms
from subspec import discretization
from subspec.discretization import assemble_jacobi, auto_truncation, build_quadrature, mass
from subspec.errors import ComplexGammaError, InvalidParameterError, NoDecayDetectedError
from subspec.lse_quad import gauss_legendre, segment_log_integrals
from subspec.phi_models import inv_power_zeta, make_phi
from subspec.spectral import eigen_mu


def test_two_point_gauss_legendre():
    q = build_quadrature(1.0, 1, 2)
    assert np.allclose(q.nodes, [0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
    assert np.allclose(q.weights, [0.5, 0.5])
    # degree-3 exactness: int_0^1 s^3 = 1/4
    assert np.sum(q.weights * q.nodes**3) == pytest.approx(0.25, rel=1e-15)


def test_weights_sum_to_X():
    q = build_quadrature(13.8, 60, 10)
    assert np.sum(q.weights) == pytest.approx(13.8, rel=1e-14)
    assert np.all(np.diff(q.nodes) > 0.0)


def test_quadrature_validation():
    with pytest.raises(InvalidParameterError):
        build_quadrature(0.0, 1, 2)
    with pytest.raises(InvalidParameterError):
        build_quadrature(1.0, 0, 2)
    with pytest.raises(InvalidParameterError):
        build_quadrature(1.0, 1, 1)


def test_auto_truncation_exp(phi1):
    X = auto_truncation(phi1, 1e-6)
    assert X == pytest.approx(-math.log(1e-6), abs=0.05)


def test_auto_truncation_stretched(phi3):
    X = auto_truncation(phi3, 1e-6)
    assert 2.7 <= X <= 3.0
    # postconditions: ratio below eps, tail below eps^2 int_0^{x_p} phi^2 with
    # x_p the first grid point of the ratio test, minimality
    lp0 = float(phi3.log_phi(np.asarray(0.0)))
    assert float(phi3.log_phi(np.asarray(X))) - lp0 <= math.log(1e-6) + 1e-12
    cands = np.arange(0.0125, 200.0, 0.0125)
    x_p = float(cands[np.argmax(phi3.log_phi(cands) - lp0 <= math.log(1e-6))])
    assert x_p == pytest.approx(2.85) and x_p < X  # the tail test binds
    head = mass(phi3, x_p)
    assert phi3.decay.tail_l2sq(X) <= 1e-12 * head * (1 + 1e-9)
    back = X - 0.0125
    ratio_ok = float(phi3.log_phi(np.asarray(back))) - lp0 <= math.log(1e-6)
    tail_ok = phi3.decay.tail_l2sq(back) <= 1e-12 * head
    assert not (ratio_ok and tail_ok)


@pytest.mark.parametrize("kind, params, windows", [
    ("exp-decay", {"c": 1.0}, (6.9125, 13.825, 23.0375)),
    ("exp-decay", {"c": 0.3}, (23.0375, 46.0625, 76.7625)),
    ("stretched-exp", {"c": 2.0}, (1.8375, 2.8625, 3.9125)),
    ("stretched-exp", {"c": 1.5}, (3.0, 5.05, 7.35)),
    ("oscillating", {}, (8.4125, 15.3, 24.5375)),
    ("scattering-profile", {"c": 1.0, "zeta": inv_power_zeta(1.0, 0.5)},
     (8.7375, 15.65, 24.8625)),
])
@pytest.mark.parametrize("k, eps", enumerate((1e-3, 1e-6, 1e-10)))
def test_auto_truncation_windows(kind, params, windows, k, eps):
    # the tail test gives the same windows against eps^2 int_0^{x_p} phi^2
    # as against eps^2 ||phi||^2
    assert auto_truncation(make_phi(kind, **params), eps) == pytest.approx(windows[k],
                                                                           abs=1e-9)


def test_mass_closed_forms(phi1, phi2, phi3):
    assert mass(phi1, 13.8) == pytest.approx(-0.5 * math.expm1(-27.6), rel=1e-13)
    assert mass(phi2, 40.0) == pytest.approx(40.0 / 41.0, rel=1e-13)  # X / (1 + X)
    # int_0^4 exp(-2(1+x)^2) = sqrt(pi/8) (erfc(sqrt 2) - erfc(5 sqrt 2))
    closed = math.sqrt(math.pi / 8.0) * (math.erfc(math.sqrt(2.0))
                                         - math.erfc(5.0 * math.sqrt(2.0)))
    assert mass(phi3, 4.0) == pytest.approx(closed, rel=1e-13)


def _oscillating_mass_in_t(X):
    """int_0^X phi^2 = int_1^{e^X} t^-3 e^{-2 sin t} dt (t = e^x): composite
    40-node Gauss-Legendre on panels of width pi."""
    T = math.exp(X)
    x, w = np.polynomial.legendre.leggauss(40)
    lo = 1.0 + math.pi * np.arange(math.ceil((T - 1.0) / math.pi))
    half = 0.5 * (np.minimum(lo + math.pi, T) - lo)
    t = (lo + half)[:, None] + half[:, None] * x
    return math.fsum(half * ((t ** -3.0 * np.exp(-2.0 * np.sin(t))) @ w))


def test_mass_oscillating_budget_and_oracle(monkeypatch, phi4):
    samples = []

    def counted(log_f, edges):
        return segment_log_integrals(lambda s: samples.append(np.size(s)) or log_f(s), edges)

    monkeypatch.setattr(discretization, "segment_log_integrals", counted)
    head = mass(phi4, 6.0)
    assert 0 < sum(samples) <= 10_000  # 8340 with numpy 2.4
    assert head == pytest.approx(_oscillating_mass_in_t(6.0), rel=1e-12)


def test_mass_names_the_profile_whose_log_is_nan():
    m = make_phi("custom-log-profile",
                 log_phi=lambda x: -x + np.log(np.asarray(x, float) - 1.0), label="shifted-log")
    with np.errstate(all="ignore"), pytest.raises(
            InvalidParameterError, match=r"shifted-log: log integrand is not finite"):
        mass(m, 3.0)


def test_auto_truncation_power_slow_decay(phi2):
    # (1 + x)^-1 reaches 1e-6 only near x = 1e6, far beyond the scan
    with pytest.raises(NoDecayDetectedError, match=r"by x = 200$"):
        auto_truncation(phi2, 1e-6)
    with pytest.raises(NoDecayDetectedError):
        auto_truncation(phi2, 1e-30)  # would need X ~ 1e30


def test_auto_truncation_looks_past_a_narrow_dip(phi4):
    # log phi dips 100 below its peak for a width of about 1e-9 at x = 8 and
    # is back at -0.08 by x = 8.0125; phi ~ e^{-0.01 x} never stays below eps
    dip = make_phi("custom-log-profile",
                   log_phi=lambda x: -0.01 * x - 100.0 * np.exp(-((x - 8.0) * 1e9) ** 2))
    assert dip.log_phi(np.asarray(8.0)) < math.log(1e-6)
    with pytest.raises(NoDecayDetectedError, match=r"by x = 200$"):
        auto_truncation(dip, 1e-6)
    # a profile defined only up to x = 150 (NaN beyond) keeps the window that
    # its finite part gives: the NaN does not count as rising above eps
    cut = make_phi("custom-log-profile", log_phi=lambda x: -x + np.where(x < 150.0, 0.0, np.nan))
    assert auto_truncation(cut, 1e-6) == auto_truncation(make_phi("exp-decay", c=1.0), 1e-6)
    # oscillating first drops below eps at x = 15.175, where -sin(e^x) is
    # near its minimum, and stays below from x = 15.3 on
    X = auto_truncation(phi4, 1e-6)
    assert X == pytest.approx(15.3)
    lp = phi4.log_phi(np.arange(0.0, 200.0, 0.0125))
    i = round(X / 0.0125)
    assert np.max(lp[i:]) - np.max(lp[:i + 1]) <= math.log(1e-6)
    assert np.max(lp[i - 1:]) - np.max(lp[:i]) > math.log(1e-6)


def test_assembly_symmetric_nonnegative(phi1):
    quad = build_quadrature(30.0, 60, 10)
    T = assemble_jacobi(phi1, quad)
    # positive diagonal and negative off-diagonal: T is an M-matrix, G >= 0
    assert np.all(T.diag > 0.0) and np.all(T.off < 0.0)
    G = dense_oracle.green_matrix(phi1, quad)
    assert np.array_equal(G, G.T)
    assert np.all(G >= 0.0)
    assert eigen_mu(T, 1)[0] <= 1.0 + 1e-9  # ||G|| = 1 for the free profile


def test_robin_assembly_is_rank_one_shift(phi1):
    quad = build_quadrature(10.0, 20, 6)
    Td = assemble_jacobi(phi1, quad)
    Tg = assemble_jacobi(phi1, quad, -1.0)
    phi = np.exp(phi1.log_phi(quad.nodes))
    f = np.random.default_rng(4).standard_normal(quad.n)
    shift = -phi * float(np.sum(quad.weights * phi * f))  # -phi <phi, f>_w
    assert np.allclose(Tg.apply_to_function(f), Td.apply_to_function(f) + shift,
                       rtol=1e-12, atol=1e-12)
    with pytest.raises(ComplexGammaError):
        assemble_jacobi(phi1, quad, 1.0 + 0.5j)


def test_nystrom_similarity_preserves_spectrum(phi1):
    # eigenvalues of the tridiagonal route equal those of K W on a 6x6 instance
    quad = build_quadrature(3.0, 3, 2)
    raw = dense_oracle.green_matrix(phi1, quad) / np.sqrt(np.outer(quad.weights, quad.weights))
    sym = np.sort(eigen_mu(assemble_jacobi(phi1, quad)))
    plain = np.sort(np.linalg.eigvals(raw @ np.diag(quad.weights)).real)
    assert np.allclose(sym, plain, atol=1e-12)


def test_factorization_grid_consistency(phi1, phi3):
    rng = np.random.default_rng(3)
    for m, X in ((phi1, 13.8155), (phi3, 4.0)):
        quad = build_quadrature(X, max(40, int(4 * X)), 10)
        Mh = dense_oracle.factor_matrix(m, quad)
        for _ in range(10):
            f = rng.standard_normal(quad.n)
            lhs, rhs = factorization_forms(m, quad, f)
            assert abs(lhs - rhs) <= 1e-8 * float(f @ f)
            assert rhs == pytest.approx(float(np.sum((Mh @ f) ** 2)), rel=1e-12)


def test_positivity_sampled_gram(phi2):
    quad = build_quadrature(30.0, 60, 10)
    mu = dense_oracle.mu(dense_oracle.green_matrix(phi2, quad))
    assert mu.min() >= -1e-10 * mu.max()


def test_bounded_map_property(phi1):
    # |(G f)(x)| / psi(x) <= ||phi|| ||f|| pointwise, ||phi|| = 1/sqrt(2)
    quad = build_quadrature(13.8155, 56, 10)
    T = assemble_jacobi(phi1, quad)
    rng = np.random.default_rng(5)
    psi = np.exp(T.cache.log_psi_nodes)
    for _ in range(10):
        f = rng.standard_normal(quad.n)
        g = T.apply_to_function(f)
        fnorm = math.sqrt(float(np.sum(quad.weights * f * f)))
        assert np.max(np.abs(g) / psi) <= math.sqrt(0.5) * fnorm + 1e-6


def test_apply_to_function_matches_dense(phi3):
    quad = build_quadrature(4.0, 12, 10)
    f = np.random.default_rng(6).standard_normal(quad.n)
    sw = np.sqrt(quad.weights)
    singular = -float(np.exp(assemble_jacobi(phi3, quad).cache.log_I_nodes[0]))
    for gamma in (0.0, -0.5, singular):  # singular: row and column 1 of G vanish
        dense = dense_oracle.green_matrix(phi3, quad, gamma) @ (sw * f) / sw
        g = assemble_jacobi(phi3, quad, gamma).apply_to_function(f)
        assert np.max(np.abs(g - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_top_mu_monotone_in_X(phi1):
    tops = [eigen_mu(assemble_jacobi(phi1, build_quadrature(X, 40, 10)), 3)[0]
            for X in (10.0, 20.0, 30.0)]
    assert tops[0] < tops[1] < tops[2] <= 1.0 + 1e-9  # domain monotonicity toward 1


def test_kink_bias_matches_measurement(phi1):
    # the kernel has slope jump 1 across the diagonal (Wronskian), so every
    # diagonal panel cell mis-integrates -|x - y|/2 by the same reference
    # Gauss-Legendre cell error; top eigenvalues shift together by that bias
    gx, gw = gauss_legendre(10)
    u, wu = 0.5 * (gx + 1.0), 0.5 * gw
    cell_err = float(np.einsum("i,j,ij->", wu, wu, np.abs(u[:, None] - u[None, :]))) - 1.0 / 3.0
    expected = -0.5 * cell_err * (15.0 / 60) ** 2
    mus = {}
    for panels in (60, 120):
        quad = build_quadrature(15.0, panels, 10)
        mus[panels] = eigen_mu(assemble_jacobi(phi1, quad), 1)[0]
    measured = (mus[60] - mus[120]) / (1.0 - 0.25)  # Richardson at h/2
    assert measured == pytest.approx(expected, rel=0.1)
