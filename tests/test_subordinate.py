import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfi

from paper_identities import regularized_potential, riccati_residual
from subspec.errors import NegativeArgumentError, NonSmoothModelError
from subspec.phi_models import make_phi
from subspec.spectral import robin_sigma
from subspec.subordinate import SubordinateCache, wronskian_residual


def psi3_closed(x):
    # psi for exp(-(1+x)^2) via the imaginary error function
    return (math.exp(-(1.0 + x) ** 2) * math.sqrt(math.pi / 8.0)
            * (erfi(math.sqrt(2.0) * (1.0 + x)) - erfi(math.sqrt(2.0))))


def psi_at(model, xs):
    """psi at the nodes xs of one cache."""
    return np.exp(SubordinateCache(model, xs).log_psi_nodes)


def diagonal_at(model, xs):
    """D = phi psi = G(x, x) at the nodes xs of one cache."""
    xs = np.asarray(xs, dtype=float)
    return np.exp(model.log_phi(xs) + SubordinateCache(model, xs).log_psi_nodes)


def test_psi_exp_decay_is_sinh(phi1):
    xs = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    assert psi_at(phi1, xs) == pytest.approx(np.sinh(xs), rel=1e-10)


def test_psi_power_closed_form(phi2):
    # psi = ((1+x)^3 - 1) / (3 (1+x))
    assert psi_at(phi2, [1.0])[0] == pytest.approx(7.0 / 6.0, rel=1e-12)
    xs = np.array([0.25, 2.0, 5.0])
    closed = ((1.0 + xs) ** 3 - 1.0) / (3.0 * (1.0 + xs))
    assert psi_at(phi2, xs) == pytest.approx(closed, rel=1e-11)


def test_psi_stretched_exp_vs_erfi(phi3):
    xs = [0.5, 1.0, 2.5, 4.0]
    assert psi_at(phi3, xs) == pytest.approx([psi3_closed(x) for x in xs], rel=1e-10)


def test_psi_oscillating_vs_substitution_oracle(phi4):
    # int_0^x e^{2s + 2 sin e^s} ds = int_1^{e^x} t e^{2 sin t} dt
    xs = (0.5, 1.5, 3.0)
    for x, psi in zip(xs, psi_at(phi4, xs)):
        ref, _ = quad(lambda t: t * math.exp(2.0 * math.sin(t)), 1.0, math.exp(x),
                      limit=500)
        target = math.exp(float(phi4.log_phi(np.asarray(x)))) * ref
        assert psi == pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize("family, c", [("exp-decay", 0.05), ("exp-decay", 20.0),
                                       ("power", 0.55), ("power", 8.0),
                                       ("stretched-exp", 0.5), ("stretched-exp", 3.0)])
def test_log_psi_vs_mpmath_at_extreme_c(family, c):
    # log psi = log phi(x) + log int_0^x phi^-2 at 40 digits; phi^-2 peaks at
    # the right end (width 1/486 for stretched-exp(3) at x = 8), so the
    # quadrature is split at x (1 - 2^-k)
    mp = pytest.importorskip("mpmath")
    model = make_phi(family, c=c)
    C = mp.mpf(c)
    log_phi = {"exp-decay": lambda t: -C * t,
               "power": lambda t: -C * mp.log1p(t),
               "stretched-exp": lambda t: -((1 + t) ** C)}[family]
    xs = (0.5, 4.0, 8.0)
    with mp.workdps(40):
        for x, log_psi in zip(xs, SubordinateCache(model, xs).log_psi_nodes):
            X = mp.mpf(x)
            points = [0] + [X * (1 - mp.mpf(2) ** -k) for k in range(1, 20)] + [X]
            ref = log_phi(X) + mp.log(mp.quad(lambda t: mp.exp(-2 * log_phi(t)), points))
            assert abs(log_psi - float(ref)) <= 1e-12


def test_psi_domain_errors(phi1):
    # psi(0) = 0 needs no cache; I and psi are read at nodes x > 0 only
    for nodes in ([0.0, 1.0], [-1.0], [1.0, 1.0], [2.0, 1.0], []):
        with pytest.raises(NegativeArgumentError):
            SubordinateCache(phi1, nodes)


def test_cache_log_psi_nodes_match_pointwise(phi3):
    # grid nodes against one-node caches
    xs = np.linspace(0.2, 4.0, 25)
    grid_vals = SubordinateCache(phi3, xs).log_psi_nodes
    for i in (0, 7, 24):
        one = SubordinateCache(phi3, [xs[i]]).log_psi_nodes[0]
        assert grid_vals[i] == pytest.approx(one, abs=1e-11)


def test_cache_exact_at_nodes(phi1):
    nodes = np.linspace(0.05, 10.0, 300)
    cache = SubordinateCache(phi1, nodes)
    assert np.allclose(cache.log_psi_nodes, np.log(np.sinh(nodes)), atol=1e-11)
    # a sparse grid with nodes near 0 is exact at its nodes too
    sparse = np.array([0.01, 0.0731, 1.2345, 7.77])
    assert np.allclose(SubordinateCache(phi1, sparse).log_psi_nodes, np.log(np.sinh(sparse)),
                       atol=1e-10)


def test_cache_refuses_non_finite_log_phi():
    from subspec.errors import InvalidParameterError
    from subspec.phi_models import PhiModel
    bad = PhiModel("custom-log-profile", "log(x - 1)",
                   log_phi=lambda x: np.log(np.asarray(x, float) - 1.0),
                   dlog_phi=None, d2log_phi=None, decay=None, l2_norm_phi=1.0)
    with np.errstate(all="ignore"), pytest.raises(InvalidParameterError, match="log"):
        SubordinateCache(bad, np.linspace(0.5, 3.0, 20))


def test_psi_over_phi_strictly_increasing(phi1, phi2, phi3, phi4):
    # prefix-accumulated positive panel sums make this structural
    for m, X in ((phi1, 12.0), (phi2, 12.0), (phi3, 4.0), (phi4, 7.0)):
        nodes = np.linspace(0.05, X, 240)
        cache = SubordinateCache(m, nodes)
        assert np.all(np.diff(cache.log_I_nodes) > 0.0)


def test_growth_bound_all_builtins(phi1, phi2, phi3, phi4):
    # x^2 <= ||phi||^2 psi(x)/phi(x)
    for m, X in ((phi1, 13.8), (phi2, 30.0), (phi3, 4.0), (phi4, 6.0)):
        nodes = np.linspace(0.05, X, 200)
        cache = SubordinateCache(m, nodes)
        ratio = np.exp(cache.log_I_nodes)
        assert np.all(nodes**2 <= m.l2_norm_phi**2 * ratio * (1.0 + 1e-9))


def test_wronskian_residuals(phi1, phi3, phi4):
    assert wronskian_residual(phi1, [0.5, 1.0, 2.0, 4.0, 8.0]) <= 1e-6
    assert wronskian_residual(phi3, np.linspace(0.25, 5.0, 20)) <= 1e-6
    # oscillatory derivative: looser tolerance, FD path
    assert wronskian_residual(phi4, np.linspace(0.25, 4.5, 18)) <= 1e-3


def test_diagonal_values(phi1, phi2):
    assert diagonal_at(phi1, [1.0])[0] == pytest.approx(math.sinh(1.0) * math.exp(-1.0),
                                                        rel=1e-12)
    assert diagonal_at(phi2, [1.0])[0] == pytest.approx(7.0 / 12.0, rel=1e-12)


def test_diagonal_derivative_identity(phi1, phi3):
    # D'/D - 1/D = 2 phi'/phi at smooth nodes
    h = 1e-5
    for m, xs in ((phi1, [0.5, 1.5, 3.0]), (phi3, [0.5, 1.0, 2.0])):
        for x in xs:
            lo, D, hi = diagonal_at(m, [x - h, x, x + h])
            Dp = (hi - lo) / (2.0 * h)
            lhs = Dp / D - 1.0 / D
            rhs = 2.0 * float(m.dlog_phi(np.asarray(x)))
            assert lhs == pytest.approx(rhs, abs=5e-6)


def test_regularized_potential_exp_decay(phi1):
    # f = phi: f'/f = -1, integral of 1 over [0, 2]
    assert regularized_potential(phi1, (1.0, 0.0), 2.0) == pytest.approx(1.0, abs=1e-10)
    # f = phi + psi = cosh: tanh(2) + (2 - tanh 2)
    assert regularized_potential(phi1, (1.0, 1.0), 2.0) == pytest.approx(2.0, abs=1e-9)


def test_regularized_potential_constancy(phi1):
    # the difference between two positive combinations is x-independent
    diffs = [regularized_potential(phi1, (1.0, 0.0), x)
             - regularized_potential(phi1, (1.0, 1.0), x)
             for x in (0.5, 1.0, 2.0, 4.0)]
    assert np.allclose(diffs, -1.0, atol=1e-9)
    assert np.ptp(diffs) <= 1e-9


def test_regularized_potential_positivity_guard(phi1):
    with pytest.raises(ValueError):
        regularized_potential(phi1, (-1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        regularized_potential(phi1, (0.0, 1.0), 1.0)  # f(0) = 0


def test_missing_tau_is_one_error_class():
    # a tabulated profile has no analytic phi'/phi: every check that needs
    # it raises the same class
    xs = np.linspace(0.0, 10.0, 101)
    tab = make_phi("tabulated", x=xs, values=np.exp(-xs))
    for check in (lambda: regularized_potential(tab, (1.0, 0.0), 1.0),
                  lambda: robin_sigma(tab, -1.0),
                  lambda: riccati_residual(tab, 1.0)):
        with pytest.raises(NonSmoothModelError):
            check()


def test_riccati_residuals(phi1, phi3, phi4):
    assert riccati_residual(phi1, 3.0) <= 1e-12  # tau = -1, V = 1
    assert riccati_residual(phi3, 1.0, h=1e-4) <= 1e-8
    # rapidly oscillating V: compare against the symbolic form at x = 1
    assert riccati_residual(phi4, 1.0) <= 1e-2
