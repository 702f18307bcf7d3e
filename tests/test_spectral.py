import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subspec.discretization import JacobiMatrix, assemble_jacobi, build_quadrature
from paper_identities import growth_exponent, quadratic_form_residual
from subspec.errors import (
    EigensolveError,
    InvalidParameterError,
    MismatchedLengthsError,
    NonPositiveMuError,
    ZeroGammaError,
)
from subspec.phi_models import make_phi
from subspec.spectral import (
    compare_spectra,
    converged_mask,
    eigen_mu,
    robin_sigma,
    weighted_identity_residual,
    write_spectrum_csv,
)


def test_eigen_mu_exp_decay_cluster(phi1):
    quad = build_quadrature(60.0, 120, 10)
    mu = eigen_mu(assemble_jacobi(phi1, quad), 10)
    assert mu.shape == (10,) and np.all(np.diff(mu) <= 0.0)  # descending
    assert mu[0] == pytest.approx(1.0, abs=5e-3)
    assert mu[0] <= 1.0 + 1e-9
    # continuous spectrum: no isolated top eigenvalue, the cluster densifies
    assert mu[0] - mu[1] <= 0.05


def test_dirichlet_eigen_mu_refuses_nonpositive_mu():
    # T with eigenvalues 1 - sqrt(2) < 0, 1 and 1 + sqrt(2): a Dirichlet T is
    # positive definite, so this one can only come from a failed assembly
    quad = build_quadrature(1.0, 1, 3)
    diag, off = np.ones(3), np.array([-1.0, -1.0])
    for n_keep in (None, 1):
        with pytest.raises(NonPositiveMuError):
            eigen_mu(JacobiMatrix(diag, off, 0.0, quad, cache=None), n_keep)
    # Robin: one mu < 0 is allowed
    mu = eigen_mu(JacobiMatrix(diag, off, -0.5, quad, cache=None))
    assert np.sum(mu < 0) == 1 and mu[-1] < 0
    # a top-k request still returns k positive mu when lambda_0 < 0
    top2 = eigen_mu(JacobiMatrix(diag, off, -0.5, quad, cache=None), 2)
    assert np.allclose(top2, mu[:2], rtol=1e-12, atol=0.0) and np.all(top2 > 0)


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
    lam = 1.0 / eigen_mu(T, 10)
    assert lam[0] >= 1.0 / eigen_mu(T, 1)[0] - 1e-8
    assert lam[0] >= 1.0 - 1e-3  # ||G|| = 1


def test_compare_trivial_cases():
    r1 = np.array([0.4, 0.2, 0.1])
    same = compare_spectra(r1, r1, 1.0)
    assert same.holds and np.allclose(same.ratios, 1.0)
    doubled = compare_spectra(r1, np.array([0.8, 0.4, 0.2]), 1.0)
    assert not doubled.holds
    assert doubled.worst_n == 1
    with pytest.raises(MismatchedLengthsError):
        compare_spectra(r1, np.array([0.4, 0.2]), 1.0)
    for c in (0.0, -2.0):
        with pytest.raises(InvalidParameterError, match="ratio bound"):
            compare_spectra(r1, r1, c)


def test_compare_refuses_a_nonpositive_or_empty_spectrum():
    # eigen_mu never gives a Dirichlet mu <= 0, so no ratio is undefined
    r1 = np.array([0.4, 0.2, 0.1])
    for mu1, mu2 in ((r1, np.array([0.4, 0.2, 0.0])), (np.array([0.4, -0.2, 0.1]), r1),
                     (np.array([]), np.array([]))):
        with pytest.raises(InvalidParameterError, match="mu > 0"):
            compare_spectra(mu1, mu2, 1.0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(0.2, 2.0), b=st.floats(0.0, 2.0), A=st.floats(0.0, 2.0),
       f=st.floats(0.5, 3.0), X=st.floats(2.0, 8.0), panels=st.integers(2, 60),
       order=st.integers(2, 12))
def test_ratio_theorem_is_exact_on_one_grid(a, b, A, f, X, panels, order):
    # On one grid D T D = L g = lambda M g is a bead string: springs 1/Delta I
    # (the first one to x = 0) and masses w phi^2 at the nodes.  Where every
    # spring of phi2 is within e^{+-s} of phi1's and every mass within
    # e^{+-m}, min-max puts each mu2_n / mu1_n within e^{+-(s + m)}
    def log_phi1(x):
        return -b * x - 0.5 * a * x**2

    phi1 = make_phi("custom-log-profile", log_phi=log_phi1)
    phi2 = make_phi("custom-log-profile",
                    log_phi=lambda x: log_phi1(x) - A * np.sin(np.exp(f * x / 3.0)))
    quad = build_quadrature(X, panels, order)
    T1, T2 = assemble_jacobi(phi1, quad), assemble_jacobi(phi2, quad)
    springs = np.max(np.abs(T2.cache.panel_logsums - T1.cache.panel_logsums))
    masses = np.max(np.abs(2.0 * (phi2.log_phi(quad.nodes) - phi1.log_phi(quad.nodes))))
    k = min(20, quad.n)
    ratios = np.log(eigen_mu(T2, k) / eigen_mu(T1, k))
    assert np.max(np.abs(ratios)) <= springs + masses + 1e-10


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
    from subspec.phi_models import make_phi
    xs = np.linspace(0.0, 10.0, 101)
    tab = make_phi("tabulated", x=xs, values=np.exp(-xs))
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
    mu = eigen_mu(assemble_jacobi(phi1, quad, -1.0))
    assert mu[-1] == pytest.approx(-1.0 / 3.0, abs=1e-3)
    assert 1.0 / mu[-1] == pytest.approx(-3.0, abs=1e-2)


def test_robin_spectrum_neumann_window(phi1):
    quad = build_quadrature(13.8155, 56, 10)
    mu = eigen_mu(assemble_jacobi(phi1, quad, 1.0))
    assert mu[0] <= 1.0 + 1e-9
    assert mu[-1] >= -1e-10
    assert mu[0] >= 0.95  # cluster toward mu = 1


def test_robin_interlacing(phi3):
    # rank-one discrete perturbation: exact Weyl interlacing
    quad = build_quadrature(6.0, 60, 10)
    mu = eigen_mu(assemble_jacobi(phi3, quad))
    for gamma in (0.7, -0.7):
        mug = eigen_mu(assemble_jacobi(phi3, quad, gamma))
        if gamma > 0:
            assert np.all(mug[1:] <= mu[:-1] + 1e-12)
            assert np.all(mug >= mu - 1e-12)
        else:
            assert np.all(mug <= mu + 1e-12)
            assert np.all(mug[:-1] >= mu[1:] - 1e-12)


def test_robin_tail_invariance(phi3):
    # essential-spectrum invariance, measured: relative mu shifts decay in n
    quad = build_quadrature(8.0, 160, 10)
    mu = eigen_mu(assemble_jacobi(phi3, quad), 25)
    mug = eigen_mu(assemble_jacobi(phi3, quad, -1.0), 25)
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
    path = tmp_path / "spec.csv"
    write_spectrum_csv(np.array([0.5, 0.25, -0.1]), np.array([True, False, False]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,mu,lambda,converged"
    assert lines[1] == "1,0.5,2,True"
    assert lines[2] == "2,0.25,4,False"
    assert lines[3].split(",")[2] == ""  # negative mu has no lambda
