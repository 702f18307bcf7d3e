import math

import numpy as np
import pytest

from dense_oracle import factor_kernel_eval, green_gamma_eval
from subspec.errors import MissingDecayError, NegativeArgumentError
from subspec.green_kernel import exp_bound_margin, green_eval
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
    margin = exp_bound_margin(phi1, 1.0, 2.0)
    assert margin == pytest.approx(0.5 * math.exp(-1.0) - math.sinh(1.0) * math.exp(-2.0),
                                   rel=1e-10)
    assert margin == pytest.approx(0.024894, abs=1e-6)
    assert exp_bound_margin(phi1, 0.0, 0.0) == pytest.approx(0.5)


def test_exp_bound_sweep_oscillating(phi4):
    g = np.linspace(0.0, 10.0, 60)
    margins = exp_bound_margin(phi4, g[:, None], g[None, :])
    assert np.min(margins) >= -1e-12  # bound constant e^6/2 ~ 201.7


def test_exp_bound_missing_decay(phi2):
    with pytest.raises(MissingDecayError):
        exp_bound_margin(phi2, 1.0, 2.0)
