"""The second solution psi and the Wronskian check on it.

psi(x) = phi(x) * int_0^x phi(s)^-2 ds is the unique companion of phi with
psi(0) = 0 and Wronskian psi' phi - phi' psi = 1.  The integral is computed
entirely in log space (see lse_quad): for stretched-exponential profiles the
integrand phi^-2 spans several hundred orders of magnitude over the working
window, so direct summation is impossible.

SubordinateCache is the one producer of I and psi, at its nodes; a value at
any other x comes from a cache whose grid contains x.

Writing I(x) = int_0^x phi(s)^-2 ds, the identities used below are

    log psi                = log phi + log I
    D(x)                   = G(x,x) = phi(x) psi(x)
    psi' phi - phi' psi    = D(x) (log I)'(x)
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NegativeArgumentError
from .lse_quad import segment_log_integrals
from .phi_models import PhiModel

WRONSKIAN_H = 1e-5  # central-difference step of wronskian_residual


class SubordinateCache:
    """I(x) = int_0^x phi^-2 and psi = phi I at the nodes of a grid.

    Node values are prefix accumulations of adaptive segment integrals, so I
    is strictly increasing over the nodes by construction (every panel sum
    is positive).  Instances are immutable after construction and safe for
    concurrent reads.

    unresolved_segments counts the segments (0 to the first node, then
    between consecutive nodes) in which the quadrature accepted a panel only
    at its depth limit; first_unresolved_x is the left end of the first such
    segment (nan when there is none).
    """

    def __init__(self, model: PhiModel, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size == 0 or nodes[0] <= 0 or np.any(np.diff(nodes) <= 0):
            raise NegativeArgumentError("cache grid must be strictly increasing in (0, inf)")
        self.grid = nodes
        edges = np.concatenate(([0.0], nodes))
        self.panel_logsums, depth_limited = segment_log_integrals(
            lambda s: -2.0 * model.log_phi(s), edges)
        self.unresolved_segments = int(np.count_nonzero(depth_limited))
        self.first_unresolved_x = (float(edges[np.argmax(depth_limited)])
                                   if self.unresolved_segments else float("nan"))
        self.log_I_nodes = np.logaddexp.accumulate(self.panel_logsums)
        if not np.all(np.isfinite(self.log_I_nodes)):
            raise InvalidParameterError(
                f"{model.label}: int phi^-2 is not finite on the grid (log phi is "
                "not finite there)")
        self.log_psi_nodes = model.log_phi(nodes) + self.log_I_nodes


def wronskian_residual(model: PhiModel, nodes) -> float:
    """max over nodes of |psi' phi - phi' psi - 1|.

    Differentiates the computed log I (an honest check of the quadrature)
    with step h = WRONSKIAN_H; the three values I(x-h), I(x), I(x+h) share
    one prefix integral, so quadrature noise cancels in the difference.
    """
    h = WRONSKIAN_H
    worst = 0.0
    for x in np.atleast_1d(np.asarray(nodes, dtype=float)):
        if x <= h:
            raise NegativeArgumentError(f"nodes must satisfy x > {h:g}")
        lo, mid, hi = SubordinateCache(model, [x - h, x, x + h]).log_I_nodes
        D = np.exp(2.0 * float(model.log_phi(np.asarray(x))) + mid)
        worst = max(worst, float(abs(D * (hi - lo) / (2.0 * h) - 1.0)))
    return worst
