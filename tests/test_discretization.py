import math

import numpy as np
import pytest

import dense_oracle
from subspec.discretization import assemble_jacobi, auto_truncation, build_quadrature
from subspec.errors import (
    ComplexGammaError,
    InvalidParameterError,
    NoDecayDetectedError,
    SlowDecayWarning,
)
from subspec.lse_quad import gauss_legendre
from subspec.spectral import eigen_mu, factorization_forms


def test_two_point_gauss_legendre():
    q = build_quadrature(1.0, 1, 2)
    assert np.allclose(q.nodes, [0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
    assert np.allclose(q.weights, [0.5, 0.5])
    # degree-3 exactness: int_0^1 s^3 = 1/4
    assert np.sum(q.weights * q.nodes**3) == pytest.approx(0.25, rel=1e-15)


def test_weights_sum_to_X():
    q = build_quadrature(13.8, 60, 10)
    assert np.sum(q.weights) == pytest.approx(13.8, rel=1e-14)
    assert np.all(np.diff(q.nodes) > 0.0)


def test_quadrature_validation():
    with pytest.raises(InvalidParameterError):
        build_quadrature(0.0, 1, 2)
    with pytest.raises(InvalidParameterError):
        build_quadrature(1.0, 0, 2)
    with pytest.raises(InvalidParameterError):
        build_quadrature(1.0, 1, 1)


def test_auto_truncation_exp(phi1):
    X = auto_truncation(phi1, 1e-6)
    assert X == pytest.approx(-math.log(1e-6), abs=0.05)


def test_auto_truncation_stretched(phi3):
    X = auto_truncation(phi3, 1e-6)
    assert 2.7 <= X <= 3.0
    # postconditions: ratio below eps, tail below eps^2 ||phi||^2, minimality
    lp0 = float(phi3.log_phi(np.asarray(0.0)))
    assert float(phi3.log_phi(np.asarray(X))) - lp0 <= math.log(1e-6) + 1e-12
    assert phi3.decay.tail_l2sq(X) <= (1e-6 * phi3.l2_norm_phi) ** 2 * (1 + 1e-9)
    back = X - 0.05
    ratio_ok = float(phi3.log_phi(np.asarray(back))) - lp0 <= math.log(1e-6)
    tail_ok = phi3.decay.tail_l2sq(back) <= (1e-6 * phi3.l2_norm_phi) ** 2
    assert not (ratio_ok and tail_ok)


def test_auto_truncation_power_slow_decay(phi2):
    with pytest.warns(SlowDecayWarning):
        X = auto_truncation(phi2, 1e-6)
    assert X == pytest.approx(1e6 - 1.0, rel=5e-2)
    with pytest.raises(NoDecayDetectedError):
        auto_truncation(phi2, 1e-30)  # would need X ~ 1e30


def test_assembly_symmetric_nonnegative(phi1):
    quad = build_quadrature(30.0, 60, 10)
    T = assemble_jacobi(phi1, quad)
    # positive diagonal and negative off-diagonal: T is an M-matrix, G >= 0
    assert np.all(T.diag > 0.0) and np.all(T.off < 0.0)
    G = dense_oracle.green_matrix(phi1, quad)
    assert np.array_equal(G, G.T)
    assert np.all(G >= 0.0)
    assert eigen_mu(T, 1)[0] <= 1.0 + 1e-9  # ||G|| = 1 for the free profile


def test_robin_assembly_is_rank_one_shift(phi1):
    quad = build_quadrature(10.0, 20, 6)
    Td = assemble_jacobi(phi1, quad)
    Tg = assemble_jacobi(phi1, quad, -1.0)
    phi = np.exp(phi1.log_phi(quad.nodes))
    f = np.random.default_rng(4).standard_normal(quad.n)
    shift = -phi * float(np.sum(quad.weights * phi * f))  # -phi <phi, f>_w
    assert np.allclose(Tg.apply_to_function(f), Td.apply_to_function(f) + shift,
                       rtol=1e-12, atol=1e-12)
    with pytest.raises(ComplexGammaError):
        assemble_jacobi(phi1, quad, 1.0 + 0.5j)


def test_nystrom_similarity_preserves_spectrum(phi1):
    # eigenvalues of the tridiagonal route equal those of K W on a 6x6 instance
    quad = build_quadrature(3.0, 3, 2)
    raw = dense_oracle.green_matrix(phi1, quad) / np.sqrt(np.outer(quad.weights, quad.weights))
    sym = np.sort(eigen_mu(assemble_jacobi(phi1, quad)))
    plain = np.sort(np.linalg.eigvals(raw @ np.diag(quad.weights)).real)
    assert np.allclose(sym, plain, atol=1e-12)


def test_factorization_grid_consistency(phi1, phi3):
    rng = np.random.default_rng(3)
    for m, X in ((phi1, 13.8155), (phi3, 4.0)):
        quad = build_quadrature(X, max(40, int(4 * X)), 10)
        Mh = dense_oracle.factor_matrix(m, quad)
        for _ in range(10):
            f = rng.standard_normal(quad.n)
            lhs, rhs = factorization_forms(m, quad, f)
            assert abs(lhs - rhs) <= 1e-8 * float(f @ f)
            assert rhs == pytest.approx(float(np.sum((Mh @ f) ** 2)), rel=1e-12)


def test_positivity_sampled_gram(phi2):
    quad = build_quadrature(30.0, 60, 10)
    mu = dense_oracle.mu(dense_oracle.green_matrix(phi2, quad))
    assert mu.min() >= -1e-10 * mu.max()


def test_bounded_map_property(phi1):
    # |(G f)(x)| / psi(x) <= ||phi|| ||f|| pointwise
    quad = build_quadrature(13.8155, 56, 10)
    T = assemble_jacobi(phi1, quad)
    rng = np.random.default_rng(5)
    psi = np.exp(T.cache.log_psi_nodes)
    for _ in range(10):
        f = rng.standard_normal(quad.n)
        g = T.apply_to_function(f)
        fnorm = math.sqrt(float(np.sum(quad.weights * f * f)))
        assert np.max(np.abs(g) / psi) <= phi1.l2_norm_phi * fnorm + 1e-6


def test_apply_to_function_matches_dense(phi3):
    quad = build_quadrature(4.0, 12, 10)
    f = np.random.default_rng(6).standard_normal(quad.n)
    sw = np.sqrt(quad.weights)
    singular = -float(np.exp(assemble_jacobi(phi3, quad).cache.log_I_nodes[0]))
    for gamma in (0.0, -0.5, singular):  # singular: row and column 1 of G vanish
        dense = dense_oracle.green_matrix(phi3, quad, gamma) @ (sw * f) / sw
        g = assemble_jacobi(phi3, quad, gamma).apply_to_function(f)
        assert np.max(np.abs(g - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_top_mu_monotone_in_X(phi1):
    tops = [eigen_mu(assemble_jacobi(phi1, build_quadrature(X, 40, 10)), 3)[0]
            for X in (10.0, 20.0, 30.0)]
    assert tops[0] < tops[1] < tops[2] <= 1.0 + 1e-9  # domain monotonicity toward 1


def test_kink_bias_matches_measurement(phi1):
    # the kernel has slope jump 1 across the diagonal (Wronskian), so every
    # diagonal panel cell mis-integrates -|x - y|/2 by the same reference
    # Gauss-Legendre cell error; top eigenvalues shift together by that bias
    gx, gw = gauss_legendre(10)
    u, wu = 0.5 * (gx + 1.0), 0.5 * gw
    cell_err = float(np.einsum("i,j,ij->", wu, wu, np.abs(u[:, None] - u[None, :]))) - 1.0 / 3.0
    expected = -0.5 * cell_err * (15.0 / 60) ** 2
    mus = {}
    for panels in (60, 120):
        quad = build_quadrature(15.0, panels, 10)
        mus[panels] = eigen_mu(assemble_jacobi(phi1, quad), 1)[0]
    measured = (mus[60] - mus[120]) / (1.0 - 0.25)  # Richardson at h/2
    assert measured == pytest.approx(expected, rel=0.1)
