import math

import numpy as np
import pytest

from dense_oracle import (
    exp_bound_margin_pointwise,
    factor_kernel_eval,
    green_eval,
    green_gamma_eval,
)
from subspec.discretization import assemble_jacobi, build_quadrature
from subspec.errors import MissingDecayError, NegativeArgumentError
from subspec.green_kernel import exp_bound_margin
from subspec.phi_models import inv_power_zeta, make_phi
from subspec.subordinate import SubordinateCache


def test_green_closed_forms(phi1):
    assert green_eval(phi1, 1.0, 2.0) == pytest.approx(math.sinh(1.0) * math.exp(-2.0),
                                                       rel=1e-12)
    assert green_eval(phi1, 0.0, 5.0) == 0.0
    assert green_eval(phi1, 5.0, 0.0) == 0.0
    assert green_eval(phi1, 1.0, 1.0) == pytest.approx(0.432332, abs=1e-6)


def test_green_symmetry_and_sign(phi3, phi4):
    rng = np.random.default_rng(7)
    for m, X in ((phi3, 4.0), (phi4, 6.0)):
        x = rng.uniform(0.0, X, 40)
        y = rng.uniform(0.0, X, 40)
        gxy = green_eval(m, x, y)
        gyx = green_eval(m, y, x)
        assert np.array_equal(gxy, gyx)  # shared min/max code path
        assert np.all(gxy >= 0.0)


def test_green_diagonal_matches_D(phi1, phi2):
    # D = phi psi from one cache over all three points
    xs = np.array([0.5, 1.0, 3.0])
    for m in (phi1, phi2):
        D = np.exp(m.log_phi(xs) + SubordinateCache(m, xs).log_psi_nodes)
        for x, d in zip(xs, D):
            assert green_eval(m, x, x) == pytest.approx(d, rel=1e-12)


def test_green_negative_argument(phi1):
    with pytest.raises(NegativeArgumentError):
        green_eval(phi1, -1.0, 2.0)


def test_green_gamma_values(phi1):
    assert green_gamma_eval(phi1, 1.0, 0.0, 0.0) == pytest.approx(1.0)
    expected = math.sinh(1.0) * math.exp(-2.0) - math.exp(-3.0)
    assert green_gamma_eval(phi1, -1.0, 1.0, 2.0) == pytest.approx(expected, rel=1e-12)
    assert green_gamma_eval(phi1, 2.0, 1.0, 1.0) == pytest.approx(
        math.sinh(1.0) * math.exp(-1.0) + 2.0 * math.exp(-2.0), rel=1e-12)
    with pytest.raises(ValueError):
        green_gamma_eval(phi1, 0.0, 1.0, 1.0)


def test_robin_rank_one_identity(phi1, phi4):
    # G_gamma - G = gamma phi(x) phi(y) by construction, checked pointwise
    rng = np.random.default_rng(11)
    for m, gamma in ((phi1, -0.7), (phi4, 2.5)):
        x = rng.uniform(0.0, 5.0, 25)
        y = rng.uniform(0.0, 5.0, 25)
        lhs = green_gamma_eval(m, gamma, x, y) - green_eval(m, x, y)
        rhs = gamma * np.exp(m.log_phi(x) + m.log_phi(y))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_factor_kernels(phi1, phi4):
    assert factor_kernel_eval(phi1, "M", 1.0, 3.0) == pytest.approx(math.exp(-2.0))
    assert factor_kernel_eval(phi1, "M", 3.0, 1.0) == 0.0  # support condition
    expected = math.exp(-1.0 - math.sin(math.e**2) + math.sin(math.e))
    assert factor_kernel_eval(phi4, "L", 2.0, 1.0) == pytest.approx(expected, rel=1e-12)
    assert factor_kernel_eval(phi1, "L", 1.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        factor_kernel_eval(phi1, "Q", 1.0, 1.0)


def test_exp_bound_margin_values(phi1):
    margin = exp_bound_margin_pointwise(phi1, 1.0, 2.0)
    assert margin == pytest.approx(0.5 * math.exp(-1.0) - math.sinh(1.0) * math.exp(-2.0),
                                   rel=1e-10)
    assert margin == pytest.approx(0.024894, abs=1e-6)
    assert exp_bound_margin_pointwise(phi1, 0.0, 0.0) == pytest.approx(0.5)


def test_exp_bound_sweep_oscillating(phi4):
    g = np.linspace(0.0, 10.0, 60)
    margins = exp_bound_margin_pointwise(phi4, g[:, None], g[None, :])
    assert np.min(margins) >= -1e-12  # bound constant e^6/2 ~ 201.7


def test_exp_bound_missing_decay(phi2):
    with pytest.raises(MissingDecayError):
        exp_bound_margin_pointwise(phi2, 1.0, 2.0)
    with pytest.raises(MissingDecayError):
        exp_bound_margin(phi2, assemble_jacobi(phi2, build_quadrature(4.0, 4, 10)))


def _dense_log_margin(model, nodes):
    # min over node pairs i <= j of log(bound) - log G, G from the pointwise
    # kernel on its own psi cache
    i, j = np.triu_indices(nodes.size)
    x, y = nodes[i], nodes[j]
    log_bound = (math.log(model.decay.kernel_bound_const())
                 - model.decay.rate * np.abs(x - y))
    return float(np.min(log_bound - np.log(green_eval(model, x, y))))


@pytest.mark.parametrize("kind, params, X", [
    ("exp-decay", {"c": 1.0}, 14.0),
    ("stretched-exp", {"c": 2.0}, 3.0),
    ("oscillating", {}, 6.0),
    # the worst pair lies off the diagonal here, so a slip in the c x terms shows
    ("scattering-profile", {"c": 1.0, "zeta": inv_power_zeta(1.0, 1.0)}, 8.0),
])
def test_exp_bound_audit_matches_the_dense_route(kind, params, X):
    model = make_phi(kind, **params)
    T = assemble_jacobi(model, build_quadrature(X, 40, 10))
    assert T.n == 400
    audit = exp_bound_margin(model, T)
    assert audit == pytest.approx(_dense_log_margin(model, T.quad.nodes), rel=0, abs=1e-12)
    assert audit >= -1e-12


def test_exp_bound_audit_tight_cases_hold_on_long_windows():
    # c2^3/(2 c c1^3) e^{-c|x-y|} is attained as x, y -> inf for these two
    for model in (make_phi("exp-decay", c=1.0), make_phi("stretched-exp", c=1.0)):
        for X in (14.0, 20.0, 50.0):
            T = assemble_jacobi(model, build_quadrature(X, int(4 * X), 10))
            assert exp_bound_margin(model, T) >= -1e-12, (model.label, X)
