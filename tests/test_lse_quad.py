"""The one integration engine (lse_quad) and the exact off-node cache."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from subspec.discretization import build_quadrature
from subspec.errors import InvalidParameterError
from subspec.lse_quad import MAX_PIECES, ORDER, log_integral_exp, segment_log_integrals
from subspec.phi_models import PhiSpec, make_phi
from subspec.subordinate import SubordinateCache, log_int_phi_inv2

# log of a positive integrand, smooth to mildly oscillating
log_fs = st.builds(
    lambda c, amp, k: (lambda s: -c * np.asarray(s) + amp * np.sin(k * np.asarray(s))),
    st.floats(-3.0, 3.0), st.floats(0.0, 2.0), st.floats(0.0, 20.0))
intervals = st.tuples(st.floats(0.0, 5.0), st.floats(1e-3, 6.0)).map(
    lambda t: (t[0], t[0] + t[1]))
PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _nan_below_one(s):
    s = np.asarray(s, dtype=float)
    return np.where(s < 1.0, np.nan, -s)


def test_nan_sample_raises_scalar():
    with pytest.raises(InvalidParameterError, match="not finite"):
        log_integral_exp(_nan_below_one, 0.0, 3.0)


def test_nan_sample_raises_segments():
    with pytest.raises(InvalidParameterError, match="not finite"):
        segment_log_integrals(_nan_below_one, [0.0, 0.5, 2.0, 3.0])
    # NaN-free segments are unaffected
    assert np.all(np.isfinite(segment_log_integrals(_nan_below_one, [1.0, 2.0, 4.5])))


@PROPERTY
@given(log_f=log_fs, ab=intervals, shift=st.floats(-500.0, 500.0))
def test_shift_equivariance(log_f, ab, shift):
    a, b = ab
    base = log_integral_exp(log_f, a, b)
    shifted = log_integral_exp(lambda s: log_f(s) + shift, a, b)
    assert shifted - shift == pytest.approx(base, abs=1e-11)


@PROPERTY
@given(log_f=log_fs, ab=intervals, frac=st.floats(0.0, 1.0))
def test_additivity_over_a_split_point(log_f, ab, frac):
    a, b = ab
    m = a + frac * (b - a)
    whole = log_integral_exp(log_f, a, b)
    parts = np.logaddexp(log_integral_exp(log_f, a, m), log_integral_exp(log_f, m, b))
    assert parts == pytest.approx(whole, abs=1e-11)


@PROPERTY
@given(log_f=log_fs, ab=intervals, fracs=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_scalar_integral_matches_segments(log_f, ab, fracs):
    a, b = ab
    edges = np.concatenate(([a], np.sort(a + np.asarray(fracs) * (b - a)), [b]))
    segs = segment_log_integrals(log_f, edges)
    assert segs.shape == (edges.size - 1,)
    assert float(logsumexp(segs)) == pytest.approx(log_integral_exp(log_f, a, b), abs=1e-11)


def test_array_bounds_give_an_array():
    log_f = lambda s: -np.asarray(s)
    edges = np.array([0.0, 0.5, 2.0, 70.0])
    got = log_integral_exp(log_f, edges[:-1], edges[1:])
    assert got.shape == (3,)
    assert np.array_equal(got, segment_log_integrals(log_f, edges))
    assert isinstance(log_integral_exp(log_f, 0.0, 2.0), float)
    assert log_integral_exp(log_f, 2.0, 2.0) == -np.inf


def test_wide_intervals_cost_is_independent_of_their_length():
    # (1+s)^2 is resolved by one panel, so every piece is accepted at once:
    # node gaps of 100 or 400 are both cut into MAX_PIECES pieces
    samples = {}
    for X in (1e5, 4e5):
        seen = []

        def log_f(s):
            seen.append(np.size(s))
            return 2.0 * np.log1p(s)

        total = logsumexp(segment_log_integrals(log_f, np.linspace(0.0, X, 1001)))
        assert total == pytest.approx(np.log(((1.0 + X) ** 3 - 1.0) / 3.0), rel=1e-13)
        samples[X] = sum(seen)
    assert samples[1e5] == samples[4e5] == 3 * ORDER * MAX_PIECES * 1000


def test_cache_on_a_wide_power_grid_is_exact():
    # node gaps from about 25 to 300: some pieces are capped and bisected deeper
    c = 0.8
    nodes = build_quadrature(2e5, 100, 10).nodes
    cache = SubordinateCache(make_phi(PhiSpec.power(c)), nodes)
    exact = np.log(np.expm1((2 * c + 1) * np.log1p(nodes)) / (2 * c + 1))
    assert np.max(np.abs(np.expm1(cache.log_I_nodes - exact))) <= 1e-12


# window per built-in family inside which adaptive panels resolve phi^-2
WINDOWS = {"exp-decay": 12.0, "power": 30.0, "stretched-exp": 4.0, "oscillating": 6.0}


@st.composite
def grid_and_queries(draw):
    family = draw(st.sampled_from(sorted(WINDOWS)))
    X = WINDOWS[family]
    nodes = np.unique(np.round(draw(st.lists(st.floats(0.05, X), min_size=1, max_size=30)), 6))
    frac = st.lists(st.floats(0.001, 0.999), min_size=1, max_size=5)
    below = nodes[0] * np.asarray(draw(frac))
    inside = nodes[0] + (nodes[-1] - nodes[0]) * np.asarray(draw(frac))
    beyond = nodes[-1] + 2.0 * np.asarray(draw(frac))
    # queries at least 1e-6 apart, so I increases well above quadrature noise
    queries = np.unique(np.round(np.concatenate((below, inside, beyond)), 6))
    return family, nodes, queries[queries > 0]


@PROPERTY
@given(data=grid_and_queries())
def test_off_node_log_I_is_exact_and_increasing(phi1, phi2, phi3, phi4, data):
    family, nodes, queries = data
    model = {"exp-decay": phi1, "power": phi2, "stretched-exp": phi3, "oscillating": phi4}[family]
    cache = SubordinateCache(model, nodes)
    got = cache.log_I(queries)
    assert np.all(np.diff(got) > 0.0)
    ref = np.array([log_int_phi_inv2(model, x) for x in queries])
    assert np.max(np.abs(np.expm1(got - ref))) <= 1e-12  # relative error of I
