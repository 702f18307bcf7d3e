"""The one integration engine (lse_quad) and the psi cache built on it."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import exprel, logsumexp, ndtr

from subspec import lse_quad
from subspec.discretization import build_quadrature
from subspec.errors import InvalidParameterError
from subspec.lse_quad import (
    BUDGET, CHUNK, MAX_PIECES, ORDER, RTOL, _batch_panel_logs, _by_interval, gauss_legendre,
    segment_log_integrals)
from subspec.phi_models import make_phi
from subspec.subordinate import SubordinateCache

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


def _log_integral(log_f, a, b):
    return segment_log_integrals(log_f, [a, b])[0][0]


def test_nan_sample_raises_segments():
    with pytest.raises(InvalidParameterError, match="not finite"):
        segment_log_integrals(_nan_below_one, [0.0, 0.5, 2.0, 3.0])
    # NaN-free segments are unaffected
    assert np.all(np.isfinite(segment_log_integrals(_nan_below_one, [1.0, 2.0, 4.5])[0]))


@PROPERTY
@given(log_f=log_fs, ab=intervals, shift=st.floats(-500.0, 500.0))
def test_shift_equivariance(log_f, ab, shift):
    a, b = ab
    base = _log_integral(log_f, a, b)
    shifted = _log_integral(lambda s: log_f(s) + shift, a, b)
    assert shifted - shift == pytest.approx(base, abs=1e-11)


@PROPERTY
@given(log_f=log_fs, ab=intervals, frac=st.floats(0.0, 1.0))
def test_additivity_over_a_split_point(log_f, ab, frac):
    a, b = ab
    m = a + frac * (b - a)
    whole = _log_integral(log_f, a, b)
    parts = np.logaddexp(*segment_log_integrals(log_f, [a, m, b])[0])
    assert parts == pytest.approx(whole, abs=1e-11)


def test_panel_reduction_matches_logsumexp():
    """The lean max-shifted panel sum gives what scipy's logsumexp gives,
    including its -inf, +inf and zero-width cases."""
    rng = np.random.default_rng(7)
    vals = rng.normal(0.0, 5.0, (64, ORDER))
    vals[3] = -np.inf  # no mass
    vals[[5, 7], 2] = np.inf  # unbounded samples
    vals[6, ::2] = -np.inf  # mass on half the nodes
    vals[9], vals[10] = 800.0, -800.0  # exp over- and underflows without the shift
    a = rng.uniform(0.0, 5.0, 64)
    b = a + rng.uniform(0.01, 2.0, 64)
    b[[5, 8, 12]] = a[[5, 8, 12]]  # zero-width panels, one with a +inf sample
    given = vals.copy()
    got, floor = _batch_panel_logs(lambda s: vals.ravel(), a, b, np.empty((CHUNK, ORDER)))
    assert np.array_equal(vals, given)  # the integrand's array is only read
    # no rounding floor where an end sample is not finite or the panel is empty
    assert np.all(floor[[3, 5, 6, 8, 12]] == 0.0) and np.all(np.isfinite(floor))
    w = gauss_legendre(ORDER)[1]
    ref = logsumexp(vals, axis=1, b=w[None, :] * (0.5 * (b - a))[:, None])
    assert got[3] == got[8] == got[12] == -np.inf and got[7] == np.inf
    assert np.all(np.isfinite(got[[9, 10]]))
    # 1e-14 in log, widened by two ulps where the log itself is large
    np.testing.assert_allclose(got, ref, rtol=4.5e-16, atol=1e-14)


def test_gauss_legendre_is_numpys_leggauss_bit_for_bit():
    # a node one ulp off moves the sin(e^x) samples of depth-limited segments
    for n in range(2, 101):
        got = np.concatenate(gauss_legendre(n))
        want = np.concatenate(np.polynomial.legendre.leggauss(n))
        assert [v.hex() for v in got] == [v.hex() for v in want], n


@PROPERTY
@given(ab=intervals, a=st.floats(-60.0, 60.0))
def test_exponential_matches_its_closed_form(ab, a):
    lo, hi = ab
    got = _log_integral(lambda s: a * np.asarray(s), lo, hi)
    exact = a * lo + np.log((hi - lo) * exprel(a * (hi - lo)))
    assert abs(np.expm1(got - exact)) <= 4 * RTOL


@PROPERTY
@given(lo=st.floats(0.0, 5.0), length=st.floats(20.0, 60.0), frac=st.floats(0.0, 1.0),
       sigma=st.floats(0.01, 0.3))
def test_narrow_gaussian_on_a_long_interval(lo, length, frac, sigma):
    # the interval-relative acceptance must still find the one place with mass
    hi = lo + length
    c = lo + frac * length
    got = _log_integral(lambda s: -0.5 * ((np.asarray(s) - c) / sigma) ** 2, lo, hi)
    mass = ndtr((hi - c) / sigma) - ndtr((lo - c) / sigma)
    exact = np.log(sigma * np.sqrt(2.0 * np.pi) * mass)
    assert abs(np.expm1(got - exact)) <= 4 * RTOL


def test_zero_width_intervals_do_not_warn():
    log_f = lambda s: -np.asarray(s)
    tiny = np.nextafter(1.0, 2.0)  # its bisections have zero width
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the last interval is reversed: like [1, 1] it holds no piece
        logs, limited = segment_log_integrals(log_f, [0.0, 1.0, 1.0, tiny, 0.5])
    assert logs[1] == logs[3] == -np.inf
    assert logs[2] == pytest.approx(np.log(tiny - 1.0) - 1.0, rel=1e-15)
    assert not limited.any()


def test_wide_intervals_cost_is_independent_of_their_length():
    # (1+s)^2 is resolved by one panel, so every piece is accepted at once:
    # node gaps of 100 or 400 are both cut into MAX_PIECES pieces
    samples = {}
    for X in (1e5, 4e5):
        seen = []

        def log_f(s):
            seen.append(np.size(s))
            return 2.0 * np.log1p(s)

        total = logsumexp(segment_log_integrals(log_f, np.linspace(0.0, X, 1001))[0])
        assert total == pytest.approx(np.log(((1.0 + X) ** 3 - 1.0) / 3.0), rel=1e-13)
        samples[X] = sum(seen)
    assert samples[1e5] == samples[4e5] == 3 * ORDER * MAX_PIECES * 1000


def test_cache_on_a_wide_power_grid_is_exact():
    # node gaps from about 25 to 300: some pieces are capped and bisected deeper
    c = 0.8
    nodes = build_quadrature(2e5, 100, 10).nodes
    cache = SubordinateCache(make_phi("power", c=c), nodes)
    exact = np.log(np.expm1((2 * c + 1) * np.log1p(nodes)) / (2 * c + 1))
    assert np.max(np.abs(np.expm1(cache.log_I_nodes - exact))) <= 1e-12


@pytest.mark.parametrize("kind, params, X, panels", [("oscillating", {}, 13.0, 52),
                                                     ("stretched-exp", {"c": 2.0}, 20.0, 10),
                                                     ("oscillating", {}, None, None)])
@pytest.mark.parametrize("chunk", [16, 7, 13])
def test_result_does_not_depend_on_the_budget(monkeypatch, kind, params, X, panels, chunk):
    # nor on the chunk size: with 16-panel calls and BUDGET = 64, 520 and
    # 100 segments already exceed the budget, so the stack splits from the
    # first depth on; on oscillating 8 segments, from x = 12.57, bisect to
    # the limit.  X = None is int_0^52.4288 phi^2 of oscillating: one long
    # interval, never split, with up to 24682 pending panels.  7 and 13
    # divide neither BUDGET nor the 64 pieces of that interval, so the last
    # chunk of a set's half passes is a short one
    model = make_phi(kind, **params)
    if X is None:
        edges = [0.0, 52.4288]
        log_f = lambda s: 2.0 * model.log_phi(s)
    else:
        edges = np.concatenate(([0.0], build_quadrature(X, panels, 10).nodes))
        log_f = lambda s: -2.0 * model.log_phi(s)
    logs, limited = segment_log_integrals(log_f, edges)
    monkeypatch.setattr(lse_quad, "CHUNK", chunk)
    monkeypatch.setattr(lse_quad, "BUDGET", 64)
    split_logs, split_limited = segment_log_integrals(log_f, edges)
    assert np.array_equal(split_logs, logs)
    assert np.array_equal(split_limited, limited)
    assert limited.any() == (kind == "oscillating")


def test_a_set_in_one_run_of_intervals_is_not_copied():
    # above the budget, but every interval starts in the first BUDGET rows:
    # one interval (as a head mass of oscillating) or one that crosses the
    # budget.  Nothing is split, so the entry holds the arrays themselves
    n = BUDGET + 100
    for counts in ([n], [BUDGET - 10, 110]):
        owner = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        arrays = (np.arange(n, dtype=float), np.arange(1.0, n + 1.0), owner, np.zeros(n))
        (entry,) = _by_interval(BUDGET, 3, *arrays)
        assert entry[0] == 3 and all(got is given for got, given in zip(entry[1:], arrays))


@pytest.fixture(scope="module")
def fine_oscillating(phi4):
    """(cache, integrand samples) of oscillating on X = 15 with 60 panels."""
    samples = []

    def log_phi(x):
        samples.append(np.size(x))
        return phi4.log_phi(x)

    cache = SubordinateCache(phi4._replace(log_phi=log_phi), build_quadrature(15.0, 60, 10).nodes)
    return cache, sum(samples)


def test_oscillating_cache_work_count(fine_oscillating):
    # panels within the rounding floor of sin(e^x) are not bisected: 33.19M
    # samples and 278 depth-limited segments (from x = 7.93) before the
    # floor; now only truly unresolved ones, from x ~ 12.5, reach the limit
    cache, samples = fine_oscillating
    assert samples <= 22_000_000
    assert 50 <= cache.unresolved_segments <= 100


def _log_t_reference(x0, x1, points=20):
    """log int_x0^x1 exp(2x + 2 sin e^x) dx = log int t e^{2 sin t} dt over
    [e^x0, e^x1], by composite Gauss-Legendre on quarter periods of t."""
    t0, t1 = np.exp(x0), np.exp(x1)
    q = 0.5 * np.pi
    cuts = np.concatenate(([t0], q * np.arange(np.floor(t0 / q) + 1, np.ceil(t1 / q)), [t1]))
    z, w = np.polynomial.legendre.leggauss(points)
    half, mid = 0.5 * np.diff(cuts), 0.5 * (cuts[1:] + cuts[:-1])
    t = mid[:, None] + half[:, None] * z
    return np.log(np.sum(half[:, None] * w * t * np.exp(2.0 * np.sin(t))))


def test_floor_accepted_segments_match_the_t_route(fine_oscillating):
    # from x ~ 7.8 the panels of these 186 segments are accepted at the
    # rounding floor of sin(e^x), and none at the depth limit
    cache, _ = fine_oscillating
    edges = np.concatenate(([0.0], cache.grid))
    seg = np.nonzero((edges[:-1] >= 7.8) & (edges[1:] <= 12.5))[0]
    assert seg.size > 150 and cache.first_unresolved_x > 12.5
    ref = np.array([_log_t_reference(edges[i], edges[i + 1]) for i in seg])
    assert np.max(np.abs(np.expm1(cache.panel_logsums[seg] - ref))) <= 1e-10


# log I at nodes 0, 24, 49, 74 and 99 of stretched-exp(2) on X = 20 with 10
# panels, before the floor test existed (x86-64 with AVX-512, numpy 2.4.6)
STRETCHED_LOG_I_HEX = ["-0x1.97cc73a7ea332p+0", "0x1.054dad01f4ef7p+6", "0x1.da25a4906d227p+7",
                       "0x1.f25e2a3da7459p+8", "0x1.b5b0b469bbd57p+9"]


def test_floor_leaves_a_smooth_cache_bit_identical(monkeypatch, phi3):
    # eps |s (log f)'| <= 3.7e-13 < RTOL on [0, 20], so the floor accepts no
    # panel the relative test rejects: a zero floor gives the same bits (a
    # floor ten times larger would not, on these 0.2-wide segments)
    nodes = build_quadrature(20.0, 10, 10).nodes
    got = SubordinateCache(phi3, nodes).log_I_nodes
    monkeypatch.setattr(lse_quad, "_batch_panel_logs", lambda log_f, a, b, nodes: (
        _batch_panel_logs(log_f, a, b, nodes)[0], np.zeros(a.size)))
    assert np.array_equal(SubordinateCache(phi3, nodes).log_I_nodes, got)
    # the recorded values agree to the bit where they were recorded; other
    # exp and log kernels may round their last bits differently
    recorded = np.array([float.fromhex(v) for v in STRETCHED_LOG_I_HEX])
    assert np.all(np.abs(got[[0, 24, 49, 74, 99]] - recorded) <= 4 * np.spacing(np.abs(recorded)))


# window per built-in family inside which adaptive panels resolve phi^-2
WINDOWS = {"exp-decay": 12.0, "power": 30.0, "stretched-exp": 4.0, "oscillating": 6.0}


@st.composite
def family_and_grid(draw):
    family = draw(st.sampled_from(sorted(WINDOWS)))
    nodes = draw(st.lists(st.floats(0.05, WINDOWS[family]), min_size=1, max_size=30))
    # nodes at least 1e-6 apart, so I increases well above quadrature noise
    return family, np.unique(np.round(nodes, 6))


@PROPERTY
@given(data=family_and_grid())
def test_cache_nodes_match_one_node_caches(phi1, phi2, phi3, phi4, data):
    # prefix sums of segment integrals agree with one integral from 0 to each node
    family, nodes = data
    model = {"exp-decay": phi1, "power": phi2, "stretched-exp": phi3, "oscillating": phi4}[family]
    got = SubordinateCache(model, nodes).log_I_nodes
    assert np.all(np.diff(got) > 0.0)
    ref = np.array([SubordinateCache(model, [x]).log_I_nodes[0] for x in nodes])
    assert np.max(np.abs(np.expm1(got - ref))) <= 1e-12  # relative error of I
