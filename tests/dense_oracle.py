"""Pointwise kernels and the dense N x N Nystrom matrices sampled from them.

The independent route the tridiagonal core is tested against: the entries
come from green_eval and the kernels below, not from the panel sums that
JacobiMatrix is built from.  Small N only.

    G(x, y)       = psi(x ^ y) phi(x v y)            (symmetric, >= 0)
    G_gamma(x, y) = G(x, y) + gamma phi(x) phi(y)    (rank-one shift)
    M(x, y)       = phi(y)/phi(x) [y >= x]           (G = M* M)
    L(x, y)       = phi(x)/phi(y) [y <= x]           (adjoint factor)
"""

import numpy as np

from subspec.errors import MissingDecayError, NegativeArgumentError
from subspec.subordinate import SubordinateCache


def _pair_arrays(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0) or np.any(y < 0):
        raise NegativeArgumentError("kernel arguments must be >= 0")
    return np.broadcast_arrays(x, y)


def green_eval(model, x, y):
    """G(x, y); symmetric in (x, y) through a shared min/max code path.

    psi comes from a SubordinateCache built on the unique positive minima;
    x ^ y = 0 short-circuits to exactly 0 so that -inf + inf never forms.
    """
    x, y = _pair_arrays(x, y)
    mn = np.minimum(x, y)
    mx = np.maximum(x, y)
    log_psi_mn = np.full(mn.shape, -np.inf)
    pos = mn > 0
    if np.any(pos):
        uniq, inv = np.unique(mn[pos], return_inverse=True)
        log_psi_mn[pos] = SubordinateCache(model, uniq).log_psi_nodes[inv]
    with np.errstate(invalid="ignore"):
        vals = np.exp(log_psi_mn + model.log_phi(mx))
    vals = np.where(mn == 0.0, 0.0, vals)
    return vals if vals.ndim else float(vals)


def exp_bound_margin_pointwise(model, x, y):
    """(c2^3 / (2 c c1^3)) e^{-c|x-y|} - G(x, y); >= 0 under the sandwich."""
    if model.decay is None:
        raise MissingDecayError(f"{model.label} carries no decay metadata")
    x, y = _pair_arrays(x, y)
    const = model.decay.kernel_bound_const()
    bound = const * np.exp(-model.decay.rate * np.abs(x - y))
    out = bound - green_eval(model, x, y)
    return out if np.ndim(out) else float(out)


def green_gamma_eval(model, gamma, x, y):
    """G_gamma(x, y) = G(x, y) + gamma phi(x) phi(y) for a real gamma != 0."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = green_eval(model, x, y) + gamma * np.exp(model.log_phi(x) + model.log_phi(y))
    return out if np.ndim(out) else float(out)


def factor_kernel_eval(model, which, x, y):
    """M(x,y) = phi(y)/phi(x) for y >= x; L(x,y) = phi(x)/phi(y) for y <= x."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if which == "M":
        vals = np.where(y >= x, np.exp(model.log_phi(y) - model.log_phi(x)), 0.0)
    elif which == "L":
        vals = np.where(y <= x, np.exp(model.log_phi(x) - model.log_phi(y)), 0.0)
    else:
        raise ValueError(f"unknown factor '{which}'")
    return vals if vals.ndim else float(vals)


def _nystrom(quad, K):
    sw = np.sqrt(quad.weights)
    return K * np.outer(sw, sw)


def green_matrix(model, quad, gamma=0.0):
    """sqrt(w_i) G_gamma(x_i, x_j) sqrt(w_j) for a real gamma (0: Dirichlet G)."""
    x, y = quad.nodes[:, None], quad.nodes[None, :]
    K = green_eval(model, x, y) if gamma == 0 else green_gamma_eval(model, gamma, x, y)
    return _nystrom(quad, K)


def factor_matrix(model, quad):
    """sqrt(w_i) M(x_i, x_j) sqrt(w_j) for the factor with G = M* M."""
    return _nystrom(quad, factor_kernel_eval(model, "M", quad.nodes[:, None],
                                             quad.nodes[None, :]))


def mu(A):
    """Eigenvalues of a symmetric matrix, descending."""
    return np.linalg.eigvalsh(A)[::-1]


def trace_norm(A):
    """Sum of the absolute eigenvalues of a symmetric matrix."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(A))))
