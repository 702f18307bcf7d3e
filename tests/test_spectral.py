import numpy as np
import pytest

from subspec.discretization import JacobiMatrix, assemble_jacobi, build_quadrature
from paper_identities import growth_exponent, quadratic_form_residual
from subspec.errors import (
    EigensolveError,
    InvalidParameterError,
    MismatchedLengthsError,
    NonPositiveMuError,
    ZeroGammaError,
)
from subspec.spectral import (
    SpectralResult,
    compare_spectra,
    converged_mask,
    eigen_mu,
    robin_sigma,
    weighted_identity_residual,
    write_spectrum_csv,
)


def _result_from_mu(mu):
    mu = np.asarray(mu, dtype=float)
    return SpectralResult(mu=mu, lam=np.sort(1.0 / mu[mu > 0]),
                          norm_estimate=float(np.max(np.abs(mu))))


def test_eigen_mu_exp_decay_cluster(phi1):
    quad = build_quadrature(60.0, 120, 10)
    res = eigen_mu(assemble_jacobi(phi1, quad), 10)
    assert res.mu[0] == pytest.approx(1.0, abs=5e-3)
    assert res.mu[0] <= 1.0 + 1e-9
    # continuous spectrum: no isolated top eigenvalue, the cluster densifies
    assert res.mu[0] - res.mu[1] <= 0.05


def test_lambda_reciprocals():
    res = _result_from_mu([0.5, 0.25])
    assert np.allclose(res.lam, [2.0, 4.0])


def test_dirichlet_eigen_mu_refuses_nonpositive_mu():
    # T with eigenvalues 1 - sqrt(2) < 0, 1 and 1 + sqrt(2): a Dirichlet T is
    # positive definite, so this one can only come from a failed assembly
    quad = build_quadrature(1.0, 1, 3)
    diag, off = np.ones(3), np.array([-1.0, -1.0])
    for n_keep in (None, 1):
        with pytest.raises(NonPositiveMuError):
            eigen_mu(JacobiMatrix(diag, off, 0.0, quad, cache=None), n_keep)
    # Robin: one mu < 0 is allowed
    res = eigen_mu(JacobiMatrix(diag, off, -0.5, quad, cache=None))
    assert np.sum(res.mu < 0) == 1
    assert np.allclose(res.lam, np.sort(1.0 / res.mu[:2]))


def test_full_spectrum_refuses_a_singular_T():
    # a path Laplacian has lambda_0 = 0, so its Cholesky factor breaks down;
    # the full-spectrum solve has no fallback and names dpteqr's info
    quad = build_quadrature(1.0, 1, 3)
    diag, off = np.array([1.0, 2.0, 1.0]), np.array([-1.0, -1.0])
    with pytest.raises(NonPositiveMuError, match="info = 3"):
        eigen_mu(JacobiMatrix(diag, off, 0.0, quad, cache=None))
    with pytest.raises(EigensolveError, match="info = 3"):
        eigen_mu(JacobiMatrix(diag, off, -0.5, quad, cache=None))


def test_lambda_min_vs_norm(phi1):
    quad = build_quadrature(60.0, 120, 10)
    T = assemble_jacobi(phi1, quad)
    res = eigen_mu(T, 10)
    lam = res.lam
    assert lam[0] >= 1.0 / eigen_mu(T, 1).norm_estimate - 1e-8
    assert lam[0] >= 1.0 - 1e-3  # ||G|| = 1


def test_compare_trivial_cases():
    r1 = _result_from_mu([0.4, 0.2, 0.1])
    same = compare_spectra(r1, r1, 1.0)
    assert same.holds and np.allclose(same.ratios, 1.0)
    doubled = compare_spectra(r1, _result_from_mu([0.8, 0.4, 0.2]), 1.0)
    assert not doubled.holds
    assert doubled.worst_n == 1
    with pytest.raises(MismatchedLengthsError):
        compare_spectra(r1, _result_from_mu([0.4, 0.2]), 1.0)
    for c in (0.0, -2.0):
        with pytest.raises(InvalidParameterError, match="ratio bound"):
            compare_spectra(r1, r1, c)


def test_growth_exponent_synthetic():
    n = np.arange(1, 40, dtype=float)
    assert growth_exponent(n**2, (5, 25)) == pytest.approx(2.0, abs=1e-12)
    assert growth_exponent(np.full(40, 7.0), (5, 25)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        growth_exponent(n[:8], (5, 25))
    with pytest.raises(ValueError):
        growth_exponent(n**2, (5, 7))  # fewer than 5 points


def test_quadratic_form_zero_vector(phi1):
    quad = build_quadrature(10.0, 40, 10)
    assert quadratic_form_residual(phi1, assemble_jacobi(phi1, quad), np.zeros(quad.n)) == 0.0


def test_quadratic_form_smooth_bump(phi1):
    quad = build_quadrature(13.8155, 200, 10)
    f = np.exp(-((quad.nodes - 3.0) ** 2))
    assert quadratic_form_residual(phi1, assemble_jacobi(phi1, quad), f) <= 1e-3


def test_quadratic_form_robin_bound_state(phi1):
    # f = -3 e^{-2x} has G_gamma f = e^{-2x}; the boundary term is
    # g(0)^2/(gamma phi(0)^2) = -1
    quad = build_quadrature(13.8155, 200, 10)
    f = -3.0 * np.exp(-2.0 * quad.nodes)
    assert quadratic_form_residual(phi1, assemble_jacobi(phi1, quad, -1.0), f) <= 1e-2


def test_weighted_identity(phi1, phi3):
    assert weighted_identity_residual(
        phi1, assemble_jacobi(phi1, build_quadrature(13.8155, 120, 10)), 3.0) <= 1e-3
    assert weighted_identity_residual(
        phi3, assemble_jacobi(phi3, build_quadrature(4.0, 100, 10)), 1.5) <= 1e-3
    assert weighted_identity_residual(
        phi1, assemble_jacobi(phi1, build_quadrature(5.0, 20, 10)), 0.0) == 0.0


def test_weighted_identity_needs_smooth_model():
    from subspec.errors import NonSmoothModelError
    from subspec.phi_models import PhiSpec, make_phi
    xs = np.linspace(0.0, 10.0, 101)
    tab = make_phi(PhiSpec.tabulated(xs, np.exp(-xs)))
    with pytest.raises(NonSmoothModelError):
        weighted_identity_residual(tab, assemble_jacobi(tab, build_quadrature(5.0, 20, 10)), 2.0)


def test_robin_sigma_values(phi1):
    assert robin_sigma(phi1, 1.0) == pytest.approx(0.0)    # Neumann
    assert robin_sigma(phi1, -1.0) == pytest.approx(-2.0)
    assert robin_sigma(phi1, 1e8) == pytest.approx(-1.0, abs=1e-7)
    with pytest.raises(ZeroGammaError):
        robin_sigma(phi1, 0.0)


def test_robin_spectrum_bound_state(phi1):
    quad = build_quadrature(13.8155, 120, 10)
    res = eigen_mu(assemble_jacobi(phi1, quad, -1.0))
    assert res.mu[-1] == pytest.approx(-1.0 / 3.0, abs=1e-3)
    assert 1.0 / res.mu[-1] == pytest.approx(-3.0, abs=1e-2)


def test_robin_spectrum_neumann_window(phi1):
    quad = build_quadrature(13.8155, 56, 10)
    res = eigen_mu(assemble_jacobi(phi1, quad, 1.0))
    assert res.mu[0] <= 1.0 + 1e-9
    assert res.mu[-1] >= -1e-10
    assert res.mu[0] >= 0.95  # cluster toward mu = 1


def test_robin_interlacing(phi3):
    # rank-one discrete perturbation: exact Weyl interlacing
    quad = build_quadrature(6.0, 60, 10)
    mu = eigen_mu(assemble_jacobi(phi3, quad)).mu
    for gamma in (0.7, -0.7):
        mug = eigen_mu(assemble_jacobi(phi3, quad, gamma)).mu
        if gamma > 0:
            assert np.all(mug[1:] <= mu[:-1] + 1e-12)
            assert np.all(mug >= mu - 1e-12)
        else:
            assert np.all(mug <= mu + 1e-12)
            assert np.all(mug[:-1] >= mu[1:] - 1e-12)


def test_robin_tail_invariance(phi3):
    # essential-spectrum invariance, measured: relative mu shifts decay in n
    quad = build_quadrature(8.0, 160, 10)
    mu = eigen_mu(assemble_jacobi(phi3, quad), 25).mu
    mug = eigen_mu(assemble_jacobi(phi3, quad, -1.0), 25).mu
    rel = np.abs(mug - mu) / mu
    spacing = mu[:-1] - mu[1:]
    assert np.all(np.abs(mug[9:20] - mu[9:20]) <= spacing[8:19])  # within one gap
    assert np.all(rel[9:20] <= 0.1)
    assert np.mean(rel[15:20]) < np.mean(rel[5:10])  # decreasing trend


def test_converged_mask():
    a = np.array([1.0, 0.5, 0.25])
    b = np.array([1.0 + 1e-9, 0.5 * (1 + 1e-3), 0.25])
    assert converged_mask(a, b).tolist() == [True, False, True]


def test_write_spectrum_csv(tmp_path):
    res = _result_from_mu([0.5, 0.25, -0.1])
    path = tmp_path / "spec.csv"
    write_spectrum_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,mu,lambda,converged"
    assert lines[1].startswith("1,0.5,2,")
    assert lines[3].split(",")[2] == ""  # negative mu has no lambda
