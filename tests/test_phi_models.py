import math

import numpy as np
import pytest

from subspec.errors import (
    InvalidParameterError,
    MissingDecayError,
    NegativeArgumentError,
    NonPositiveSampleError,
)
from subspec.discretization import mass
from subspec.phi_models import (
    DecayInfo,
    inv_power_zeta,
    make_phi,
    verify_decay_hypothesis,
)


def test_exp_decay_definition(phi1):
    assert (phi1.decay.rate, phi1.decay.c_lower, phi1.decay.c_upper) == (1.0, 1.0, 1.0)
    assert phi1.log_phi(0.0) == 0.0
    assert phi1.log_phi(3.5) == -3.5
    assert phi1.dlog_phi(2.0) == -1.0


def test_builtin_log_values(phi3, phi4):
    # stretched-exp c=2 at x=1: -(1+1)^2
    assert phi3.log_phi(1.0) == pytest.approx(-4.0, abs=0)
    # oscillating at 0: -sin(1)
    assert phi4.log_phi(0.0) == pytest.approx(-math.sin(1.0), rel=1e-15)
    assert phi4.dlog_phi(0.0) == pytest.approx(-1.0 - math.cos(1.0), rel=1e-14)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        make_phi("power", c=0.4)  # needs c > 1/2 for phi in L2
    with pytest.raises(InvalidParameterError):
        make_phi("exp-decay", c=0.0)
    with pytest.raises(InvalidParameterError):
        make_phi("stretched-exp", c=-1.0)


def test_negative_argument_rejected(phi1, phi2, phi3, phi4):
    # every family's log_phi guards its domain itself
    tab = make_phi("tabulated", x=[0.0, 1.0, 2.0], values=[1.0, 0.5, 0.2])
    custom = make_phi("custom-log-profile", log_phi=lambda x: -x)
    scat = make_phi("scattering-profile", c=1.0, zeta=inv_power_zeta(1.0, 1.5))
    for m in (phi1, phi2, phi3, phi4, tab, custom, scat):
        with pytest.raises(NegativeArgumentError):
            m.log_phi(-0.1)


def test_positivity_on_audit_grid(phi1, phi2, phi3, phi4):
    grid = np.linspace(0.0, 20.0, 401)
    for m in (phi1, phi2, phi3, phi4):
        assert np.all(np.exp(m.log_phi(grid)) > 0.0)


def test_tabulated_model_from_phi1_samples():
    xs = np.linspace(0.0, 10.0, 201)
    m = make_phi("tabulated", x=xs, values=np.exp(-xs))
    # log interpolation is exact for an exponential profile
    assert m.log_phi(3.333) == pytest.approx(-3.333, abs=1e-12)
    # extrapolation continues the last slope
    assert m.log_phi(12.0) == pytest.approx(-12.0, abs=1e-9)
    # int_0^12 e^{-2x}, past the samples too
    assert mass(m, 12.0) == pytest.approx(-0.5 * math.expm1(-24.0), rel=1e-8)


def test_tabulated_validation():
    with pytest.raises(NonPositiveSampleError):
        make_phi("tabulated", x=[0.0, 1.0, 2.0], values=[1.0, -0.5, 0.1])
    with pytest.raises(InvalidParameterError):
        make_phi("tabulated", x=[0.5, 1.0], values=[1.0, 0.5])  # must start at 0
    with pytest.raises(InvalidParameterError):
        make_phi("tabulated", x=[0.0, 1.0], values=[1.0, 2.0])  # must decay at the end


def test_decay_verification_exp(phi1):
    margin = verify_decay_hypothesis(phi1, np.arange(0.0, 21.0))
    assert margin == pytest.approx(0.0, abs=1e-14)  # equalities


def test_decay_verification_oscillating(phi4):
    margin = verify_decay_hypothesis(phi4, np.arange(0.0, 20.01, 0.1))
    assert margin >= -1e-12  # |sin| <= 1 gives the e^{+-1} sandwich around e^{-x}


def test_decay_verification_rejects_power(phi2):
    # (1+x)^-1 decays sub-exponentially: any exponential sandwich fails
    fake = DecayInfo(1.0, 0.9, 1.1,
                     sigma=lambda x: np.asarray(x, float),
                     dsigma=lambda x: np.ones_like(np.asarray(x, float)))
    doctored = type(phi2)(kind=phi2.kind, label=phi2.label, log_phi=phi2.log_phi,
                          dlog_phi=phi2.dlog_phi, d2log_phi=phi2.d2log_phi,
                          decay=fake)
    assert verify_decay_hypothesis(doctored, np.linspace(0.0, 50.0, 501)) < -1e-12


def test_missing_decay_raises(phi2):
    with pytest.raises(MissingDecayError):
        verify_decay_hypothesis(phi2, [0.0, 1.0])


def test_scattering_profile_kind():
    from subspec.phi_models import inv_power_zeta
    m = make_phi("scattering-profile", c=1.0, zeta=inv_power_zeta(1.0, 1.5))
    assert m.log_phi(0.0) == pytest.approx(-1.0)
    assert m.decay.rate == 1.0
    assert m.decay.c_upper == pytest.approx(math.e)
    assert verify_decay_hypothesis(m, np.linspace(0.0, 30.0, 301)) >= -1e-12


def test_make_phi_takes_a_kind_and_its_parameters():
    zeta = inv_power_zeta(1.0, 1.5)
    params = {"exp-decay": {"c": 1}, "power": {"c": 1}, "stretched-exp": {"c": 2},
              "oscillating": {}, "scattering-profile": {"c": 1, "zeta": zeta},
              "tabulated": {"x": [0.0, 1.0], "values": [1.0, 0.5]},
              "custom-log-profile": {"log_phi": lambda x: -x}}
    for kind, p in params.items():
        assert make_phi(kind, **p).kind == kind
    # an integer c is the float c, as a config number would give it
    assert make_phi("power", c=1).label == make_phi("power", c=1.0).label == "power(c=1)"
    with pytest.raises(InvalidParameterError, match="unknown profile kind 'bogus'"):
        make_phi("bogus")
    with pytest.raises(TypeError):
        make_phi("oscillating", c=1.0)  # oscillating takes no parameter
    with pytest.raises(TypeError):
        make_phi("exp-decay", rate=1.0)
    with pytest.raises(TypeError):
        make_phi("stretched-exp")  # c is required


def test_each_family_carries_its_discreteness_verdict():
    zeta = inv_power_zeta(1.0, 1.5)
    verdicts = {
        # K(x) = I(x) int_x^inf phi^2 -> 0 iff the spectrum is discrete
        ("stretched-exp", 2.0): True,
        ("stretched-exp", 1.01): True,
        ("stretched-exp", 1.0): False,  # exp(-(1+x)) is exp-decay: K = 1/4
        ("stretched-exp", 0.5): False,
        ("exp-decay", 1.0): False,      # K = 1/(4c^2)
        ("exp-decay", 20.0): False,
        ("power", 1.0): False,          # K grows like x^2
        ("power", 3.0): False,
    }
    for (kind, c), discrete in verdicts.items():
        assert make_phi(kind, c=c).discrete is discrete, (kind, c)
    assert make_phi("oscillating").discrete is False  # K -> I0(2)^2 / 4
    assert make_phi("scattering-profile", c=1.0, zeta=zeta).discrete is False
    assert make_phi("tabulated", x=[0.0, 1.0], values=[1.0, 0.5]).discrete is False
    assert make_phi("custom-log-profile", log_phi=lambda x: -x * x).discrete is None
