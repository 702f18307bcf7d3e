import math

import numpy as np
import pytest
from scipy.integrate import quad

import dense_oracle
from paper_identities import (
    elementary_bound_margin,
    nu_is_valid,
    xi_norm_bound,
    xi_norms,
    zero_zeta,
)
from subspec.discretization import ORDER, build_quadrature
from subspec.errors import IndefiniteDifferenceError, InvalidParameterError
from subspec.phi_models import Zeta, inv_power_zeta, make_phi
from subspec.scattering import example_scatt_sweep, trace_norm_difference
from subspec.spectral import factorization_forms


def test_xi_norms_zero_zeta():
    for x in (0.0, 1.0, 5.0):
        nx, n0, nd = xi_norms(1.0, zero_zeta(), x)
        assert n0 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert nx == pytest.approx(n0, rel=1e-10)
        assert nd <= 1e-12


def test_xi_free_norm_is_exact_for_any_zeta():
    zeta = inv_power_zeta(1.0, 1.0)
    for x in (0.0, 0.7, 3.0):
        assert xi_norms(1.0, zeta, x)[1] == pytest.approx(0.7071068, abs=1e-7)


def test_xi_norms_obey_bounds():
    # zeta = (1+x)^-1, c = 1: ||xi_x|| <= e^2/sqrt(2), ||diff|| <= e^2 sqrt(2) nu(x)
    zeta = inv_power_zeta(1.0, 1.0)
    nx, n0, nd = xi_norms(1.0, zeta, 0.0)
    assert nx <= math.e**2 / math.sqrt(2.0)
    assert nd <= math.e**2 * math.sqrt(2.0)
    for x in (0.0, 0.5, 2.0, 6.0):
        assert xi_norms(1.0, zeta, x)[0] <= xi_norm_bound(1.0, zeta)


def test_xi_norm_against_direct_quadrature():
    zeta = inv_power_zeta(1.0, 1.5)
    for x in (0.0, 1.0):
        direct, _ = quad(lambda u: math.exp(-2.0 * (u - x) - 2.0 * float(zeta.fn(u))
                                            + 2.0 * float(zeta.fn(x))), x, x + 40.0,
                         limit=400)
        diff, _ = quad(lambda u: math.exp(-2.0 * (u - x))
                       * math.expm1(float(zeta.fn(x)) - float(zeta.fn(u))) ** 2, x, x + 40.0,
                       limit=400, epsabs=0.0, epsrel=1e-12)
        norms = xi_norms(1.0, zeta, x)
        assert norms[0] == pytest.approx(math.sqrt(direct), rel=1e-8)
        assert norms[2] == pytest.approx(math.sqrt(diff), rel=1e-8)


def test_elementary_exponential_bound():
    rng = np.random.default_rng(13)
    x = rng.uniform(0.0, 20.0, 1000)
    u = rng.uniform(0.0, 20.0, 1000)
    assert np.all(elementary_bound_margin(inv_power_zeta(1.0, 1.0), x, u) >= -1e-14)


def test_nu_validation():
    # the sweep's nu is zeta itself: decreasing, and it dominates |zeta|
    zeta = inv_power_zeta(1.0, 1.5)
    assert nu_is_valid(zeta, zeta.fn, np.linspace(0.0, 40.0, 1601))
    assert not nu_is_valid(zeta, lambda x: 0.5 * zeta.fn(x))


def test_sweep_bound_values():
    # alpha = 1.5, c = 1, sup|zeta| = 1: (e^2+1) e^2 * int (1+x)^{-3/2} = 2(e^4+e^2);
    # the derivative route is (e^2+1) e^2 / (2^1.5 c^2) for every alpha
    quad = build_quadrature(20.0, 30, ORDER)
    for c in (1.0, 2.0):
        rows = example_scatt_sweep([0.5, 1.0, 1.5], c, quad)
        assert [math.isinf(r["bound_nu_route"]) for r in rows] == [True, True, False]
        assert rows[2]["bound_nu_route"] == pytest.approx(
            2.0 * (math.e**4 + math.e**2) / c, rel=1e-12)
        for r in rows:
            assert r["bound_derivative_route"] == pytest.approx(
                (math.e**2 + 1.0) * math.e**2 / (2.0**1.5 * c**2), rel=1e-12)


def test_trace_norm_difference_basics(phi1):
    quad = build_quadrature(13.8155, 56, 10)
    assert trace_norm_difference(phi1, phi1, quad) == 0.0


@pytest.mark.parametrize("k", [1.0, -1.0])
@pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0])
def test_trace_norm_difference_matches_dense(phi1, k, alpha):
    quad = build_quadrature(30.0, 30, 10)
    model = make_phi("scattering-profile", c=1.0, zeta=inv_power_zeta(k, alpha))
    dense = dense_oracle.trace_norm(dense_oracle.green_matrix(model, quad)
                                    - dense_oracle.green_matrix(phi1, quad))
    assert trace_norm_difference(model, phi1, quad) == pytest.approx(dense, rel=1e-10)


def test_indefinite_difference_is_an_error():
    wavy = Zeta(fn=lambda x: 0.5 * np.sin(np.asarray(x, dtype=float)), sup=0.5,
                label="0.5 sin x")
    quad = build_quadrature(50.0, 100, 10)
    model0 = make_phi("exp-decay", c=1.0)
    with pytest.raises(IndefiniteDifferenceError):
        trace_norm_difference(make_phi("scattering-profile", c=1.0, zeta=wavy), model0, quad)
    # the CLI's family +-(1+x)^-alpha stays definite on that grid
    for k in (1.0, -1.0):
        for alpha in (0.5, 1.0, 1.5, 2.0, 4.0):
            model = make_phi("scattering-profile", c=1.0, zeta=inv_power_zeta(k, alpha))
            assert trace_norm_difference(model, model0, quad) > 0.0


def test_rank_one_trace_norm(phi1):
    # robin minus dirichlet is gamma |phi><phi|: one singular value gamma||phi||^2
    quad = build_quadrature(13.8155, 56, 10)
    diff = dense_oracle.green_matrix(phi1, quad, 1.0) - dense_oracle.green_matrix(phi1, quad)
    assert dense_oracle.trace_norm(diff) == pytest.approx(0.5, abs=1e-6)


def test_xi_outer_products_reconstruct_green(phi1):
    # sum_i w_i |xi_{x_i}><xi_{x_i}| sampled on the grid is exactly M^T M,
    # the grid-consistent Green matrix G_h; the exact-psi matrix differs by
    # the partial-panel defect only
    quad = build_quadrature(13.8155, 56, 10)
    Mh = dense_oracle.factor_matrix(phi1, quad)
    recon = Mh.T @ Mh
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = rng.standard_normal(quad.n)
        assert factorization_forms(phi1, quad, f)[0] == pytest.approx(f @ recon @ f, rel=1e-10)
    Ge = dense_oracle.green_matrix(phi1, quad)
    assert np.linalg.norm(recon - Ge) / np.linalg.norm(Ge) <= 0.05


def test_sweep_finiteness_pattern():
    rows = example_scatt_sweep([0.5, 1.0, 1.5, 2.0, 4.0], 1.0, build_quadrature(40.0, 60, ORDER))
    for r in rows:
        assert math.isfinite(r["trace_numeric"])
        assert math.isfinite(r["bound_derivative_route"])  # every alpha > 0
        assert r["criterion_met"] == (r["alpha"] > 1.0)
        assert math.isfinite(r["bound_nu_route"]) == (r["alpha"] > 1.0)
        if math.isfinite(r["bound_nu_route"]):
            assert r["trace_numeric"] <= r["bound_nu_route"]
        assert r["trace_numeric"] <= r["bound_derivative_route"]


def test_sweep_monotone_for_faster_decay():
    # truncation-limited below alpha ~ 1; monotone decreasing from there on
    rows = example_scatt_sweep([1.0, 2.0, 4.0, 8.0], 1.0, build_quadrature(40.0, 60, ORDER))
    traces = [r["trace_numeric"] for r in rows]
    assert traces[0] > traces[1] > traces[2] > traces[3]


def test_sweep_rejects_bad_alpha():
    with pytest.raises(InvalidParameterError):
        example_scatt_sweep([0.5, -1.0], 1.0, build_quadrature(20.0, 30, ORDER))


def test_sweep_csv(tmp_path):
    # the scatter task writes the sweep's rows in round-trip precision
    from subspec.cli import run_cli
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("task = scatter\nscatter.alpha_list = 1.5\n"
                   "resolution.X = 20\nresolution.panels = 30\n")
    assert run_cli(["run", str(cfg), "--out", str(tmp_path)]) == 0
    rows = example_scatt_sweep([1.5], 1.0, build_quadrature(20.0, 30, ORDER))
    lines = (tmp_path / "scatter.csv").read_text().splitlines()
    assert lines[0].startswith("alpha,trace_numeric")
    assert lines[1].endswith("True")
    columns = ("alpha", "trace_numeric", "bound_nu_route", "bound_derivative_route")
    assert [float(v) for v in lines[1].split(",")[:4]] == [rows[0][col] for col in columns]
