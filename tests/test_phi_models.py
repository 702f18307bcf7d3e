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
from subspec.lse_quad import log_integral_exp
from subspec.phi_models import (
    DecayInfo,
    PhiSpec,
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
        make_phi(PhiSpec.power(0.4))  # needs c > 1/2 for phi in L2
    with pytest.raises(InvalidParameterError):
        make_phi(PhiSpec.exp_decay(0.0))
    with pytest.raises(InvalidParameterError):
        make_phi(PhiSpec.stretched_exp(-1.0))


def test_negative_argument_rejected(phi1, phi2, phi3, phi4):
    # every family's log_phi guards its domain itself
    tab = make_phi(PhiSpec.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.2]))
    custom = make_phi(PhiSpec.custom(log_phi=lambda x: -x))
    scat = make_phi(PhiSpec.scattering_profile(1.0, inv_power_zeta(1.0, 1.5)))
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


def test_l2_norm_oscillating_against_substitution(phi4):
    # t = e^x turns the wild integrand into a tame one
    val, _ = quad(lambda t: t ** (-3) * math.exp(-2.0 * math.sin(t)), 1.0, np.inf,
                  limit=2000)
    assert phi4.l2_norm_phi == pytest.approx(math.sqrt(val), rel=1e-7)


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

    def counted(log_f, a, b):
        return log_integral_exp(lambda s: samples.append(np.size(s)) or log_f(s), a, b)

    monkeypatch.setattr(phi_models, "log_integral_exp", counted)
    norm = make_phi(PhiSpec.oscillating()).l2_norm_phi
    assert 0 < sum(samples) <= 1_500_000
    assert norm ** 2 == pytest.approx(_oscillating_l2sq_in_t(), rel=1e-12)


def test_tabulated_model_from_phi1_samples(phi1):
    xs = np.linspace(0.0, 10.0, 201)
    spec = PhiSpec.tabulated(xs, np.exp(-xs))
    m = make_phi(spec)
    # log interpolation is exact for an exponential profile
    assert m.log_phi(3.333) == pytest.approx(-3.333, abs=1e-12)
    # extrapolation continues the last slope
    assert m.log_phi(12.0) == pytest.approx(-12.0, abs=1e-9)
    assert m.l2_norm_phi == pytest.approx(phi1.l2_norm_phi, rel=1e-8)


def test_tabulated_validation():
    with pytest.raises(NonPositiveSampleError):
        make_phi(PhiSpec.tabulated([0.0, 1.0, 2.0], [1.0, -0.5, 0.1]))
    with pytest.raises(InvalidParameterError):
        make_phi(PhiSpec.tabulated([0.5, 1.0], [1.0, 0.5]))  # must start at 0
    with pytest.raises(InvalidParameterError):
        make_phi(PhiSpec.tabulated([0.0, 1.0], [1.0, 2.0]))  # must decay at the end


def test_tabulated_csv_roundtrip(tmp_path, phi1):
    xs = np.linspace(0.0, 8.0, 81)
    path = tmp_path / "phi.csv"
    np.savetxt(path, np.column_stack([xs, np.exp(-xs)]), delimiter=",")
    m = make_phi(PhiSpec.from_csv(path))
    assert m.log_phi(2.5) == pytest.approx(-2.5, abs=1e-12)


def test_decay_verification_exp(phi1):
    rep = verify_decay_hypothesis(phi1, np.arange(0.0, 21.0))
    assert rep.holds
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-14)  # equalities


def test_decay_verification_oscillating(phi4):
    rep = verify_decay_hypothesis(phi4, np.arange(0.0, 20.01, 0.1))
    assert rep.holds  # |sin| <= 1 gives the e^{+-1} sandwich around e^{-x}


def test_decay_verification_rejects_power(phi2):
    # (1+x)^-1 decays sub-exponentially: any exponential sandwich fails
    fake = DecayInfo(1.0, 0.9, 1.1,
                     sigma=lambda x: np.asarray(x, float),
                     dsigma=lambda x: np.ones_like(np.asarray(x, float)))
    doctored = type(phi2)(kind=phi2.kind, label=phi2.label, log_phi=phi2.log_phi,
                          dlog_phi=phi2.dlog_phi, d2log_phi=phi2.d2log_phi,
                          decay=fake, l2_norm_phi=phi2.l2_norm_phi)
    rep = verify_decay_hypothesis(doctored, np.linspace(0.0, 50.0, 501))
    assert not rep.holds


def test_missing_decay_raises(phi2):
    with pytest.raises(MissingDecayError):
        verify_decay_hypothesis(phi2, [0.0, 1.0])


def test_scattering_profile_kind():
    from subspec.phi_models import inv_power_zeta
    m = make_phi(PhiSpec.scattering_profile(1.0, inv_power_zeta(1.0, 1.5)))
    assert m.log_phi(0.0) == pytest.approx(-1.0)
    assert m.decay.rate == 1.0
    assert m.decay.c_upper == pytest.approx(math.e)
    rep = verify_decay_hypothesis(m, np.linspace(0.0, 30.0, 301))
    assert rep.holds


def test_make_phi_names_the_profile_whose_log_is_nan():
    spec = PhiSpec.custom(log_phi=lambda x: -x + np.log(np.asarray(x, float) - 1.0),
                          label="shifted-log")
    with np.errstate(all="ignore"), pytest.raises(
            InvalidParameterError, match=r"shifted-log: log integrand is not finite"):
        make_phi(spec)
