"""Truncated composite quadrature grids and the tridiagonal Nystrom form.

A hermitian Green kernel G on [0, X]^2 has the symmetrized Nystrom matrix
sqrt(w_i) G(x_i, x_j) sqrt(w_j) over composite Gauss-Legendre nodes; the
similarity with G W preserves the Nystrom spectrum while keeping hermitian
structure explicit.  G(x, y) = u(min) v(max) is semiseparable, so that
matrix has an exact tridiagonal inverse (JacobiMatrix), built in O(N) from
the panel sums of the psi cache.  It is the package's only matrix
representation: spectra, G f and the trace of G - G0 all come from it and
from the cache, and no N x N array is ever formed.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ._lapack import gtsv
from .errors import ComplexGammaError, InvalidParameterError, NoDecayDetectedError
from .lse_quad import gauss_legendre, segment_log_integrals
from .phi_models import PhiModel
from .subordinate import SubordinateCache

ORDER = 10  # Gauss-Legendre nodes per panel of every Nystrom grid not set by a config
AUTO_X_END = 200.0  # end of the auto truncation scan, and the window where it finds no X


class Quadrature(NamedTuple):
    """Composite Gauss-Legendre grid with equal panels on [0, X]."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size


def build_quadrature(X: float, panels: int, order: int) -> Quadrature:
    """Equal composite panels; exact for polynomials up to degree 2*order-1
    per panel, and sum(weights) == X by exactness on constants."""
    if X <= 0 or panels < 1 or order < 2:
        raise InvalidParameterError("need X > 0, panels >= 1, order >= 2")
    gx, gw = gauss_legendre(order)
    edges = np.linspace(0.0, X, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (X / panels)
    nodes = (mid + half * gx[None, :]).ravel()
    weights = np.tile(gw * half, panels)
    return Quadrature(nodes, weights)


def default_panels(X: float) -> int:
    """Default panel count for a window [0, X]: max(40, ceil(4 X))."""
    return max(40, int(np.ceil(4.0 * X)))


def mass(model: PhiModel, X: float, memo: Optional[dict] = None) -> float:
    """int_0^X phi^2, by one segment_log_integrals pass over [0, X]; a NaN
    sample of log phi raises InvalidParameterError naming the profile.
    memo, a dict {X: int_0^X phi^2} of this model, is read and filled, so
    that a window is integrated once for all callers that share it."""
    if memo is not None and X in memo:
        return memo[X]
    try:
        log_mass, _ = segment_log_integrals(lambda s: 2.0 * model.log_phi(s), [0.0, X])
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{model.label}: {exc}") from None
    value = float(np.exp(log_mass[0]))
    if memo is not None:
        memo[X] = value
    return value


def auto_truncation(model: PhiModel, eps: float, memo: Optional[dict] = None) -> float:
    """Smallest X on a grid of step 0.0125 in (0, AUTO_X_END) from which phi
    stays at or below eps max_[0, X] phi over the rest of the grid (a narrow
    dip does not end the window; NaN samples past X are skipped) and, when
    decay metadata exists, the sandwich's tail int_X^inf phi^2 is at most
    eps^2 mass(model, X_p).  X_p is the first X of the pointwise test, which
    never exceeds the answer, so only [0, X_p] is integrated, through mass's
    memo when one is given (the window of a task whose X is X_p).
    NoDecayDetectedError when no X qualifies (power(c=1)); without an X_p
    it is raised before anything is integrated.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidParameterError("eps must lie in (0, 1)")
    cands = np.arange(0.0125, AUTO_X_END, 0.0125)
    lp = model.log_phi(cands)
    lp0 = float(model.log_phi(np.asarray(0.0)))
    runmax = np.maximum.accumulate(np.maximum(lp, lp0))
    ahead = np.fmax.accumulate(lp[::-1])[::-1]  # max of log phi from each candidate on
    ok = (ahead - runmax) <= np.log(eps)
    if model.decay is not None and ok.any():
        head = mass(model, float(cands[np.argmax(ok)]), memo)
        ok &= model.decay.tail_l2sq(cands) <= eps**2 * head
    hits = np.nonzero(ok)[0]
    if not hits.size:
        raise NoDecayDetectedError(
            f"{model.label} did not stay below eps={eps:g} by x = {AUTO_X_END:g}")
    return float(cands[hits[0]])


class JacobiMatrix(NamedTuple):
    """Symmetric tridiagonal T = (W^1/2 G_gamma W^1/2)^-1 of the Green kernel
    with real Robin parameter gamma (gamma = 0: the Dirichlet kernel G).

    G_gamma(x, y) = u(min) v(max) with v = phi and u = phi (I + gamma) is
    semiseparable, so the inverse of its Nystrom matrix is exactly
    tridiagonal; the eigenvalues of T are lambda = 1/mu.  diag[0] = +inf
    encodes the singular Robin case I(x_1) + gamma = 0, where row and column
    1 of G_gamma vanish (mu = 0 exactly) and T decouples into that node and the
    Jacobi matrix diag[1:], off[1:] of nodes 2..N.  cache is the psi cache on
    quad.nodes that T was built from.
    """

    diag: np.ndarray
    off: np.ndarray
    gamma: float
    quad: Quadrature
    cache: SubordinateCache

    @property
    def n(self) -> int:
        return self.diag.size

    def apply_to_function(self, values: np.ndarray) -> np.ndarray:
        """(G f)(x_i) = sum_j w_j G(x_i, x_j) f(x_j) for node samples f, by one
        tridiagonal solve (LAPACK dgtsv): (G f)_i = (T^-1 sqrt(w) f)_i / sqrt(w_i)."""
        sw = np.sqrt(self.quad.weights)
        k = int(np.isinf(self.diag[0]))  # singular Robin: (G f)(x_1) = 0
        out = np.zeros(self.n)
        out[k:] = gtsv(self.off[k:], self.diag[k:], (sw * values)[k:]) / sw[k:]
        return out


def assemble_jacobi(model: PhiModel, quad: Quadrature, gamma: float = 0.0) -> JacobiMatrix:
    """Tridiagonal inverse of the Nystrom matrix of G_gamma = G + gamma phi phi
    for real gamma (gamma = 0 is the Dirichlet kernel), in O(N) memory;
    complex gamma raises ComplexGammaError.  The psi cache on quad.nodes is
    built here and kept as T.cache.

    With Delta I_i = int_{x_i}^{x_i+1} phi^-2 (the cache's panel sums) and
    r_1 = I(x_1) + gamma:

        T_i,i+1 = -1 / (phi_i phi_i+1 Delta I_i sqrt(w_i w_i+1))
        T_ii    = (1/Delta I_i-1 + 1/Delta I_i) / (phi_i^2 w_i)    interior
        T_NN    = 1 / (Delta I_N-1 phi_N^2 w_N)
        T_11    = (1/Delta I_1 + 1/r_1) / (phi_1^2 w_1)

    Every entry is exp of one log sum, so phi^-2 and I (which overflow for
    stretched-exponential profiles) are never formed.
    """
    if complex(gamma).imag != 0.0:
        raise ComplexGammaError(f"no hermitian Jacobi form for complex gamma = {gamma}")
    gamma = complex(gamma).real
    cache = SubordinateCache(model, quad.nodes)
    lp = model.log_phi(quad.nodes)
    lw = np.log(quad.weights)
    ls = cache.panel_logsums[1:]  # log Delta I_i between consecutive nodes
    log_I1 = cache.log_I_nodes[0]
    off = -np.exp(-(lp[:-1] + lp[1:] + ls + 0.5 * (lw[:-1] + lw[1:])))
    inv_dI = np.full(quad.n + 1, -np.inf)  # log of 1/Delta I around each node
    inv_dI[1:-1] = -ls
    diag = np.exp(np.logaddexp(inv_dI[:-1], inv_dI[1:]) - 2.0 * lp - lw)
    if gamma == 0.0:
        diag[0] += np.exp(-log_I1 - 2.0 * lp[0] - lw[0])
    else:
        r1 = np.exp(log_I1) + gamma
        if r1 == 0.0:
            diag[0] = np.inf
        else:
            diag[0] += np.sign(r1) * np.exp(-np.log(abs(r1)) - 2.0 * lp[0] - lw[0])
    return JacobiMatrix(diag=diag, off=off, gamma=gamma, quad=quad, cache=cache)
