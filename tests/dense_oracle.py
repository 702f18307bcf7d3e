"""Dense N x N Nystrom matrices sampled from the pointwise kernels.

The independent route the tridiagonal core is tested against: the entries
come from green_eval and the kernels below, not from the panel sums that
JacobiMatrix is built from.  Small N only.

    G_gamma(x, y) = G(x, y) + gamma phi(x) phi(y)    (rank-one shift)
    M(x, y)       = phi(y)/phi(x) [y >= x]           (G = M* M)
    L(x, y)       = phi(x)/phi(y) [y <= x]           (adjoint factor)
"""

import numpy as np

from subspec.green_kernel import green_eval


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
