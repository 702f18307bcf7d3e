"""The bound G(x, y) <= c2^3/(2 c c1^3) e^{-c|x-y|} on the Dirichlet kernel
G(x, y) = psi(x ^ y) phi(x v y) of a profile with decay metadata, audited
on the nodes of a matrix T through the psi cache that T was built from.
"""

from __future__ import annotations

import numpy as np

from .discretization import JacobiMatrix
from .errors import MissingDecayError
from .phi_models import PhiModel


def exp_bound_margin(model: PhiModel, T: JacobiMatrix) -> float:
    """Worst log margin, log K - max log(G(x_i, x_j) e^{c|x_i - x_j|}) over
    the node pairs of T, with K = c2^3/(2 c c1^3) and c = decay.rate; >= 0
    under the sandwich.

    For i <= j, G(x_i, x_j) = psi_i phi_j; with a_i = log psi_i - c x_i and
    b_j = log phi_j + c x_j the maximum is max_j (b_j + max_{i<=j} a_i).
    """
    if model.decay is None:
        raise MissingDecayError(f"{model.label} carries no decay metadata")
    x = T.quad.nodes
    c = model.decay.rate
    a = np.maximum.accumulate(T.cache.log_psi_nodes - c * x)
    return float(np.log(model.decay.kernel_bound_const()) - np.max(a + model.log_phi(x) + c * x))
