"""Dense N x N Nystrom matrices sampled from the pointwise kernels.

The independent route the tridiagonal core is tested against: the entries
come from green_eval, green_gamma_eval and factor_kernel_eval, not from the
panel sums that JacobiMatrix is built from.  Small N only.
"""

import numpy as np

from subspec.green_kernel import factor_kernel_eval, green_eval, green_gamma_eval


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
