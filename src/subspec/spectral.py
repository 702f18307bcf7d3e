"""Eigenvalue extraction and the identity checks built on top of it.

mu denotes eigenvalues of a Green matrix in decreasing order; lambda = 1/mu
are the eigenvalues of the differential operator itself, and of the
tridiagonal inverse (JacobiMatrix) that spectra are computed from.  Every
positive mu gives a lambda; the mu <= 0 of a Robin matrix give none.
A top-k request bisects for the lowest k + 1 lambda (LAPACK dstebz), O(N k);
a full spectrum is one dqds pass (LAPACK dpteqr) on the Cholesky factor of
the shifted T, O(N^2) time and O(N) memory (see _all_lambdas).
"Converged" is operational: relative movement below CONVERGED_REL between
two refinements of the grid.  The weighted identity check applies G by a
tridiagonal solve (LAPACK dgtsv) on the same JacobiMatrix, so everything
here runs in O(N) memory.  The three LAPACK routines come from scipy's
compiled scipy.linalg._flapack, loaded without the scipy.linalg package
(_lapack).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ._lapack import dpteqr, stebz
from .discretization import JacobiMatrix
from .errors import (
    EigensolveError,
    InvalidParameterError,
    MismatchedLengthsError,
    NonPositiveMuError,
    NonSmoothModelError,
    ZeroGammaError,
)
from .lse_quad import RTOL
from .phi_models import PhiModel

CONVERGED_REL = 1e-6  # operational convergence threshold of converged_mask


def _bisect(T_diag, T_off, lo: int, hi: int) -> np.ndarray:
    """Eigenvalues lo..hi (ascending order) of a tridiagonal matrix by
    bisection to full precision."""
    return stebz(T_diag, T_off, lo, hi, np.finfo(float).tiny)


def _extreme_eigenvalues(T_diag, T_off) -> tuple:
    """(lowest, highest) eigenvalue of a symmetric tridiagonal matrix: the
    definiteness certificate of the scattering trace norm and of validate's
    positivity check."""
    n = T_diag.size
    return float(_bisect(T_diag, T_off, 0, 0)[0]), float(_bisect(T_diag, T_off, n - 1, n - 1)[0])


def _all_lambdas(d, e, gamma: float) -> np.ndarray:
    """Every eigenvalue (ascending) of the tridiagonal (d, e), each to high
    relative accuracy, in O(N) memory.

    A Robin T has at most one negative lambda, so with lambda_0 from
    bisection the shift s = min(0, 2 lambda_0) makes T - s I positive
    definite with margin |lambda_0|.  dpteqr factors it (Cholesky, dpttrf)
    and runs dqds on the factor, which determines every eigenvalue of
    T - s I to high relative accuracy (Demmel & Kahan 1990, Fernando &
    Parlett 1994).  Undoing the shift turns the relative error of
    lambda_k - s into an absolute error of at least eps |s| on lambda_k
    (7.6e-10 relative on the top mu of power(1) with gamma = -0.05,
    N = 2000).  Where eps |s| exceeds RTOL lambda_k, RTOL being the
    quadrature tolerance that T's entries are computed to, lambda_k keeps
    its bisected value: lambda_0 always, and never a value above the former
    low end 1e-3 max|lambda|.
    """
    lam0 = float(_bisect(d, e, 0, 0)[0])
    s = min(0.0, 2.0 * lam0)
    w, _, _, info = dpteqr(d - s, e, np.zeros((1, 1)), compute_z=0)
    if info != 0:
        if gamma == 0.0:
            raise NonPositiveMuError(
                f"the Dirichlet T is not positive definite (dpteqr info = {info})")
        raise EigensolveError(f"dpteqr failed on the Robin T, info = {info}")
    lam = np.sort(w) + s
    if s < 0.0:
        low = int(np.searchsorted(lam, -s * np.finfo(float).eps / RTOL))
        lam[:low] = _bisect(d, e, 0, low - 1)
    return lam


def _jacobi_lambdas(T: JacobiMatrix, n_keep: int) -> np.ndarray:
    """Ascending eigenvalues of T: all of them when n_keep == n, else the
    lowest n_keep + 1 (G_gamma has at most one negative mu, index 0)."""
    d, e = T.diag, T.off
    if np.isinf(d[0]):  # singular Robin: node 1 decouples with lambda = inf
        d, e = d[1:], e[1:]
    if n_keep >= T.n:
        lam = _all_lambdas(d, e, T.gamma)
    else:
        lam = _bisect(d, e, 0, min(n_keep, d.size - 1))
    return np.append(lam, np.inf) if d.size < T.n else lam


def eigen_mu(T: JacobiMatrix, n_keep: Optional[int] = None) -> np.ndarray:
    """Top n_keep eigenvalues mu (descending array) of a hermitian Green
    matrix, as mu = 1/lambda from the tridiagonal eigenproblem of its inverse
    T; n_keep=None keeps the whole spectrum (negative Robin values included).
    A top-k request bisects for the lowest k + 1 lambda, so that a Robin T
    with lambda_0 < 0 still gives k positive mu; the whole spectrum comes
    from one dpteqr solve of the shifted T (see _all_lambdas).

    The Dirichlet T (gamma = 0) is positive definite: with D = diag(phi
    sqrt(w)), D T D is a path Laplacian with edge weights 1/Delta I plus
    1/I(x_1) at node 1.  A mu <= 0 there, or a Dirichlet T that dpteqr
    cannot factor, is a failed eigensolve and raises NonPositiveMuError; a
    Robin T that dpteqr fails on raises EigensolveError.
    """
    n_keep = T.n if n_keep is None else min(int(n_keep), T.n)
    mu = np.sort(1.0 / _jacobi_lambdas(T, n_keep))[::-1]
    if T.gamma == 0.0 and np.any(mu <= 0.0):
        raise NonPositiveMuError(
            f"mu = {float(np.min(mu)):.3e} <= 0 for the positive Dirichlet kernel")
    return mu[:n_keep]


class ComparisonReport(NamedTuple):
    ratios: np.ndarray
    holds: bool
    worst_n: int  # 1-based index of the most extreme ratio
    band: tuple
    measured_band: tuple


def compare_spectra(mu1: np.ndarray, mu2: np.ndarray, c: float) -> ComparisonReport:
    """Check mu2_n / mu1_n in [c^-4, c^4] for two compact-case spectra."""
    if mu1.size != mu2.size:
        raise MismatchedLengthsError(f"spectra have {mu1.size} vs {mu2.size} entries")
    if not c > 0.0:
        raise InvalidParameterError(f"the ratio bound c must be positive, got {c}")
    if c < 1.0:
        c = 1.0 / c
    usable = (mu1 > 0) & (mu2 > 0)
    ratios = np.full(mu1.size, np.nan)
    ratios[usable] = mu2[usable] / mu1[usable]
    lo, hi = c**-4, c**4
    vals = ratios[usable]
    holds = bool(np.all((vals >= lo) & (vals <= hi))) if vals.size else False
    if vals.size:
        worst = int(np.nanargmax(np.abs(np.log(np.where(usable, ratios, 1.0)))))
    else:
        worst = 0
    measured = (float(np.min(vals)), float(np.max(vals))) if vals.size else (np.nan, np.nan)
    return ComparisonReport(ratios=ratios, holds=holds,
                            worst_n=worst + 1, band=(lo, hi), measured_band=measured)


def converged_mask(mu_fine: np.ndarray, mu_coarse: np.ndarray) -> np.ndarray:
    """Entrywise operational convergence (relative change below
    CONVERGED_REL) between two refinements."""
    m = min(mu_fine.size, mu_coarse.size)
    out = np.zeros(mu_fine.size, dtype=bool)
    denom = np.maximum(np.abs(mu_fine[:m]), 1e-300)
    out[:m] = np.abs(mu_fine[:m] - mu_coarse[:m]) / denom < CONVERGED_REL
    return out


def smoothstep_quintic(x, x0: float):
    """h with h(0)=0, h=1 for x >= x0, exactly C^2: 6t^5 - 15t^4 + 10t^3."""
    t = np.clip(np.asarray(x, dtype=float) / x0, 0.0, 1.0)
    h = t**3 * (6.0 * t**2 - 15.0 * t + 10.0)
    hp = 30.0 * t**2 * (t - 1.0) ** 2 / x0
    hpp = 60.0 * t * (t - 1.0) * (2.0 * t - 1.0) / x0**2
    return h, hp, hpp


def weighted_identity_residual(model: PhiModel, T: JacobiMatrix, x0: float) -> float:
    """Defect of G(-phi h'' - 2 phi' h') = phi h for the quintic smoothstep,
    with G applied through the Dirichlet matrix T of model.

    Relative max-norm error.  The identity is exact, so the residual is
    discretization error plus the roundoff of the psi cache's panel sums,
    which it amplifies: on oscillating phi (X = 6, 240 panels of order 10)
    equally exact panel reductions move its sixth digit: 8.388560 to 8.388612e-06.
    x0 <= 0 means h == 0 and returns 0 (guarded 0/0).
    """
    if model.dlog_phi is None:
        raise NonSmoothModelError("weighted identity needs analytic phi'")
    if x0 is None or x0 <= 0.0:
        return 0.0
    nodes = T.quad.nodes
    h, hp, hpp = smoothstep_quintic(nodes, x0)
    phi = np.exp(model.log_phi(nodes))
    tau = model.dlog_phi(nodes)
    v = -phi * (hpp + 2.0 * tau * hp)
    lhs = T.apply_to_function(v)
    target = phi * h
    scale = float(np.max(np.abs(target)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(lhs - target)) / scale)


def robin_sigma(model: PhiModel, gamma: float) -> float:
    """sigma = phi'(0)/phi(0) + 1/(gamma phi(0)^2), the boundary slope in
    g'(0) = sigma g(0)."""
    if gamma == 0:
        raise ZeroGammaError("gamma must be nonzero")
    if model.dlog_phi is None:
        raise NonSmoothModelError("robin_sigma needs phi' continuous near 0")
    phi0 = float(np.exp(model.log_phi(np.asarray(0.0))))
    return float(model.dlog_phi(0.0)) + 1.0 / (float(gamma) * phi0**2)


def write_spectrum_csv(mu: np.ndarray, converged: np.ndarray, path) -> None:
    """Columns n, mu, lambda (empty for mu <= 0), converged — round-trip precision."""
    lam_desc = np.full(mu.size, np.nan)
    pos = mu > 0
    lam_desc[pos] = 1.0 / mu[pos]
    with open(path, "w") as fh:
        fh.write("n,mu,lambda,converged\n")
        for i, m in enumerate(mu):
            lam_s = "" if np.isnan(lam_desc[i]) else format(lam_desc[i], ".17g")
            fh.write(f"{i + 1},{format(m, '.17g')},{lam_s},{bool(converged[i])}\n")
