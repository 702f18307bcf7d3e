import math

import numpy as np
import pytest

from subspec.phi_models import DecayInfo, make_phi


@pytest.fixture(scope="session")
def phi1():
    return make_phi("exp-decay", c=1.0)


@pytest.fixture(scope="session")
def phi2():
    return make_phi("power", c=1.0)


@pytest.fixture(scope="session")
def phi3():
    return make_phi("stretched-exp", c=2.0)


@pytest.fixture(scope="session")
def phi4():
    return make_phi("oscillating")


def _gauss_profile():
    # exp(-x - x^2/2): smooth confining comparison profile, sigma' = 1 + x
    return make_phi(
        "custom-log-profile",
        log_phi=lambda x: -np.asarray(x, float) - 0.5 * np.asarray(x, float) ** 2,
        dlog_phi=lambda x: -1.0 - np.asarray(x, float),
        d2log_phi=lambda x: -np.ones_like(np.asarray(x, float)),
        decay=DecayInfo(
            1.0, 1.0, 1.0,
            sigma=lambda x: np.asarray(x, float) + 0.5 * np.asarray(x, float) ** 2,
            dsigma=lambda x: 1.0 + np.asarray(x, float)),
        label="exp(-x-x^2/2)")


def _gauss_osc_profile():
    # the same profile times exp(-sin(e^x)): rapidly oscillating partner
    def lp(x):
        x = np.asarray(x, float)
        return -x - 0.5 * x**2 - np.sin(np.exp(x))

    def dlp(x):
        x = np.asarray(x, float)
        return -1.0 - x - np.exp(x) * np.cos(np.exp(x))

    return make_phi(
        "custom-log-profile", log_phi=lp, dlog_phi=dlp,
        decay=DecayInfo(
            1.0, math.exp(-1.0), math.e,
            sigma=lambda x: np.asarray(x, float) + 0.5 * np.asarray(x, float) ** 2,
            dsigma=lambda x: 1.0 + np.asarray(x, float)),
        label="exp(-x-x^2/2-sin(e^x))")


@pytest.fixture(scope="session")
def model_a():
    return _gauss_profile()


@pytest.fixture(scope="session")
def model_b():
    return _gauss_osc_profile()
