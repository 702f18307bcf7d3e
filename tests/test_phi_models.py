import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

from subspec.errors import (
    InvalidParameterError,
    MissingDecayError,
    NegativeArgumentError,
    NonPositiveSampleError,
)
from subspec.lse_quad import segment_log_integrals
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


def test_l2_norm_closed_forms(phi1, phi2, phi3):
    assert phi1.l2_norm_phi == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)
    assert phi2.l2_norm_phi == pytest.approx(1.0, rel=1e-13)  # 1/sqrt(2c-1)
    # int exp(-2(1+x)^2) = sqrt(pi/8) erfc(sqrt 2)
    closed = math.sqrt(math.sqrt(math.pi / 8.0) * math.erfc(math.sqrt(2.0)))
    assert phi3.l2_norm_phi == pytest.approx(closed, rel=1e-10)
    assert not (phi1.l2_unresolved or phi2.l2_unresolved or phi3.l2_unresolved)


def test_l2_norm_oscillating_against_substitution(phi4):
    # t = e^x turns the wild integrand into a tame one
    val, _ = quad(lambda t: t ** (-3) * math.exp(-2.0 * math.sin(t)), 1.0, np.inf,
                  limit=2000)
    assert phi4.l2_norm_phi == pytest.approx(math.sqrt(val), rel=1e-7)
    # its window [0, 52.43] accepts a panel at the depth limit
    assert phi4.l2_unresolved


def _oscillating_l2sq_in_t():
    """||phi||^2 = int_1^inf t^-3 e^{-2 sin t} dt (t = e^x): composite
    40-node Gauss-Legendre on panels of width pi up to T = e^15, and the
    tail I0(2) / (2 T^2) (e^{-2 sin t} averages to I0(2) over a period)."""
    T = math.exp(15.0)
    x, w = np.polynomial.legendre.leggauss(40)
    lo_all = 1.0 + math.pi * np.arange(math.ceil((T - 1.0) / math.pi))
    parts = []
    for i in range(0, lo_all.size, 1 << 14):
        lo = lo_all[i:i + (1 << 14)]
        half = 0.5 * (np.minimum(lo + math.pi, T) - lo)
        t = (lo + half)[:, None] + half[:, None] * x
        parts.append(np.sum(half * ((t ** -3.0 * np.exp(-2.0 * np.sin(t))) @ w)))
    return math.fsum(parts) + i0(2.0) / (2.0 * T * T)


def test_l2_norm_oscillating_budget_and_oracle(monkeypatch):
    from subspec import phi_models

    samples = []

    def counted(log_f, edges):
        return segment_log_integrals(lambda s: samples.append(np.size(s)) or log_f(s), edges)

    monkeypatch.setattr(phi_models, "segment_log_integrals", counted)
    norm = make_phi("oscillating").l2_norm_phi
    assert 0 < sum(samples) <= 1_500_000
    assert norm ** 2 == pytest.approx(_oscillating_l2sq_in_t(), rel=1e-12)


def test_tabulated_model_from_phi1_samples(phi1):
    xs = np.linspace(0.0, 10.0, 201)
    m = make_phi("tabulated", x=xs, values=np.exp(-xs))
    # log interpolation is exact for an exponential profile
    assert m.log_phi(3.333) == pytest.approx(-3.333, abs=1e-12)
    # extrapolation continues the last slope
    assert m.log_phi(12.0) == pytest.approx(-12.0, abs=1e-9)
    assert m.l2_norm_phi == pytest.approx(phi1.l2_norm_phi, rel=1e-8)
    assert not m.l2_unresolved


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
                          decay=fake, l2=phi2.l2)
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
    assert not m.l2_unresolved


def test_l2_norm_names_the_profile_whose_log_is_nan():
    m = make_phi("custom-log-profile",
                 log_phi=lambda x: -x + np.log(np.asarray(x, float) - 1.0), label="shifted-log")
    with np.errstate(all="ignore"), pytest.raises(
            InvalidParameterError, match=r"shifted-log: log integrand is not finite"):
        m.l2_norm_phi


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


def test_phi_norm_is_integrated_on_first_read_only(monkeypatch):
    from subspec import phi_models

    calls = []

    def counted(log_phi, X):
        calls.append(X)
        return head(log_phi, X)

    head = phi_models._l2sq_head
    monkeypatch.setattr(phi_models, "_l2sq_head", counted)
    zeta = inv_power_zeta(1.0, 1.5)
    models = [make_phi("stretched-exp", c=2.0), make_phi("oscillating"),
              make_phi("scattering-profile", c=1.0, zeta=zeta),
              make_phi("tabulated", x=[0.0, 1.0], values=[1.0, 0.5]),
              make_phi("custom-log-profile", log_phi=lambda x: -x)]
    assert calls == []
    for m in models:
        norm = m.l2_norm_phi
        assert (m.l2_unresolved, m.l2_norm_phi, m._replace(decay=m.decay).l2_norm_phi) == \
            (m.l2_unresolved, norm, norm)
    assert len(calls) == len(models)


def test_l2_window_looks_past_a_narrow_dip():
    # log phi dips 100 below its peak for a width of about 1e-9 at x = 8; the
    # window must not end there (it once did, giving ||phi||^2 = 7.4)
    m = make_phi("custom-log-profile",
                 log_phi=lambda x: -0.01 * x - 100.0 * np.exp(-((x - 8.0) * 1e9) ** 2))
    assert m.l2_norm_phi ** 2 == pytest.approx(50.0, abs=1e-9)
    assert not m.l2_unresolved
