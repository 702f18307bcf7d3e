import math

import numpy as np
import pytest

from paper_identities import robin_fd_eigenvalues
from subspec.errors import InvalidParameterError, NonSmoothModelError, NotCompactError
from subspec.oracle_fd import (
    cross_validate,
    fd_eigenvalues,
    potential_from_phi,
    turning_point,
)
from subspec.phi_models import make_phi


def test_potential_exp_decay(phi1):
    assert potential_from_phi(phi1, 0.7) == 1.0  # phi''/phi = c^2


def test_potential_stretched_exp(phi3):
    for x in (0.0, 0.8, 2.5):
        assert potential_from_phi(phi3, x) == pytest.approx(4.0 * (1.0 + x) ** 2 - 2.0,
                                                            rel=1e-13)


def test_potential_oscillating_at_zero(phi4):
    # V = (1 + zeta')^2 - zeta'' with zeta = sin(e^x):
    # at 0: (1 + cos 1)^2 - (cos 1 - sin 1)
    expected = (1.0 + math.cos(1.0)) ** 2 - math.cos(1.0) + math.sin(1.0)
    assert expected == pytest.approx(2.6736999, abs=1e-6)
    assert potential_from_phi(phi4, 0.0) == pytest.approx(expected, rel=1e-13)


def test_potential_needs_smoothness():
    xs = np.linspace(0.0, 5.0, 51)
    tab = make_phi("tabulated", x=xs, values=np.exp(-xs))
    with pytest.raises(NonSmoothModelError):
        potential_from_phi(tab, 1.0)


def test_box_mode():
    # V = 1 on (0, pi), Dirichlet: lowest eigenvalue 1 + (pi/X)^2 = 2
    lam = fd_eigenvalues(lambda x: np.ones_like(x), math.pi, 2000, 3)
    assert lam[0] == pytest.approx(2.0, abs=1e-5)
    assert lam[1] == pytest.approx(5.0, abs=1e-4)  # 1 + 4


def test_fd_second_order_convergence():
    errs = []
    for N in (250, 500, 1000):
        lam = fd_eigenvalues(lambda x: np.ones_like(x), math.pi, N, 1)
        errs.append(abs(lam[0] - 2.0))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert 1.8 <= order1 <= 2.2
    assert 1.8 <= order2 <= 2.2


def test_robin_ghost_point_bound_state():
    # sigma = -2, V = 1: g = e^{-2x} gives -g'' + g = -3 g
    lam = robin_fd_eigenvalues(lambda x: np.ones_like(x), 20.0, 4000, -2.0, 2)
    assert lam[0] == pytest.approx(-3.0, abs=1e-3)
    assert lam[1] >= 0.9  # the rest sits near the continuum threshold


def test_fd_problem_validation():
    with pytest.raises(InvalidParameterError):
        fd_eigenvalues(lambda x: x, 1.0, 8, 1)
    with pytest.raises(InvalidParameterError):
        fd_eigenvalues(lambda x: x, 0.0, 16, 1)


def test_turning_point(phi3):
    xt = turning_point(phi3, 50.0)
    # 4(1+x)^2 - 2 = 50 at x = sqrt(13) - 1
    assert xt == pytest.approx(math.sqrt(13.0) - 1.0, abs=0.1)


def test_cross_validate_stretched(phi3):
    lam_green, lam_fd = cross_validate(phi3, 5)
    assert np.max(np.abs(lam_green - lam_fd) / np.abs(lam_fd)) <= 1e-2
    assert lam_green.size == lam_fd.size == 5


def test_cross_validate_gaussian_profile(model_a):
    # V = (1+x)^2 - 1
    lam_green, lam_fd = cross_validate(model_a, 8)
    assert np.max(np.abs(lam_green - lam_fd) / np.abs(lam_fd)) <= 1e-2


def test_cross_validate_refuses_non_compact(phi1, phi4):
    with pytest.raises(NotCompactError):
        cross_validate(phi1, 3)  # constant V: essential spectrum present
    with pytest.raises(NotCompactError):
        cross_validate(phi4, 3)  # V oscillates unboundedly in both signs


def test_cross_validate_of_an_undecided_profile_fails_where_v_does_not_confine():
    # a custom profile carries no discreteness verdict; V = 1 never rises to
    # the turning level, and the message says why
    model = make_phi("custom-log-profile", log_phi=lambda x: -x,
                     dlog_phi=lambda x: -np.ones_like(x), d2log_phi=lambda x: np.zeros_like(x))
    assert model.discrete is None
    with pytest.raises(InvalidParameterError, match="the potential does not confine"):
        cross_validate(model, 3)
