"""Independent finite-difference Schrodinger solver.

For smooth phi = exp(-sigma) the classical potential V = phi''/phi =
(sigma')^2 - sigma'' exists and the operator can be diagonalized on a
uniform grid with the 3-point stencil.  This path shares no code with the
Nystrom route (different grid, different operator, different solver), which
is exactly what makes it usable as ground truth for the Green-kernel
spectra.  It is restricted to smooth confining potentials: the oscillatory
regime where only the Green route works is out of its scope by design.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._lapack import stebz
from .errors import InvalidParameterError, NonSmoothModelError, NotCompactError
from .phi_models import PhiModel

TURNING_X_MAX = 200.0  # right end of turning_point's scan
FD_N = 4000  # nodes of the resolved FD pass in cross_validate


def potential_from_phi(model: PhiModel, x) -> np.ndarray:
    """V(x) = (sigma')^2 - sigma'' for sigma = -log phi, i.e.
    (log phi')^2 + (log phi)''; analytic for the smooth built-ins."""
    if model.dlog_phi is None or model.d2log_phi is None:
        raise NonSmoothModelError(f"{model.label} has no classical potential")
    arr = np.asarray(x, dtype=float)
    out = model.dlog_phi(arr) ** 2 + model.d2log_phi(arr)
    return out if out.ndim else float(out)


def fd_eigenvalues(potential: Callable[[np.ndarray], np.ndarray], X: float, N: int,
                   k: int) -> np.ndarray:
    """Lowest k eigenvalues of -g'' + V g on [0, X], g(0) = g(X) = 0, by the
    3-point discretization on the interior nodes i*dx, i = 1..N, with
    dx = X/(N+1); second-order accurate.  Needs N >= 16 and X > 0."""
    if N < 16 or X <= 0:
        raise InvalidParameterError("need N >= 16 and X > 0")
    dx = X / (N + 1)
    x = dx * np.arange(1, N + 1)
    diag = 2.0 / dx**2 + np.asarray(potential(x), dtype=float)
    off = np.full(N - 1, -1.0 / dx**2)
    k = min(int(k), diag.size)
    return stebz(diag, off, 0, k - 1, 0.0)


def turning_point(model: PhiModel, level: float) -> float:
    """Smallest x beyond which V stays above `level`, on a scan of
    [0, TURNING_X_MAX]."""
    xs = np.linspace(0.0, TURNING_X_MAX, 4001)
    V = np.asarray(potential_from_phi(model, xs))
    below = np.nonzero(V < level)[0]
    if below.size == 0:
        return 0.0
    if below[-1] == xs.size - 1:
        raise InvalidParameterError(f"{model.label}: the potential does not confine: V is "
                                    f"below {level:g} at x = {TURNING_X_MAX:g}")
    return float(xs[below[-1] + 1])


def cross_validate(model: PhiModel, k: int) -> tuple:
    """(lam_green, lam_fd): the lowest k eigenvalues from the Green route and
    from the FD oracle.

    Both routes solve the same operator exactly when phi = exp(-sigma) is
    smooth, since then V = (sigma')^2 - sigma'' identically.  The domains are
    chosen so V(X) exceeds lambda_k by a wide classically forbidden margin.
    A profile whose spectrum is not discrete (PhiModel.discrete is False)
    raises NotCompactError; an undecided one whose potential does not
    confine fails in turning_point.
    """
    from .discretization import (ORDER, assemble_jacobi, auto_truncation, build_quadrature,
                                 default_panels)
    from .spectral import eigen_mu

    if model.discrete is False:
        raise NotCompactError(f"{model.label}: the spectrum is not discrete")
    # provisional FD pass to locate lambda_k, then a resolved one
    X_fd = turning_point(model, 50.0) + 2.0
    potential = lambda x: potential_from_phi(model, x)
    lam_fd = fd_eigenvalues(potential, X_fd, 1500, k)
    X_fd = turning_point(model, float(lam_fd[-1]) + 50.0) + 2.0
    lam_fd = fd_eigenvalues(potential, X_fd, FD_N, k)

    X_green = max(auto_truncation(model, 1e-6),
                  turning_point(model, float(lam_fd[-1])) + 2.0)
    quad = build_quadrature(X_green, default_panels(X_green), ORDER)
    lam_green = 1.0 / eigen_mu(assemble_jacobi(model, quad), n_keep=max(2 * k, k + 8))[:k]
    if lam_green.size < k:
        raise InvalidParameterError("Green route produced too few eigenvalues")
    return lam_green, lam_fd
