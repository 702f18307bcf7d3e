"""The second solution psi and the Wronskian check on it.

psi(x) = phi(x) * int_0^x phi(s)^-2 ds is the unique companion of phi with
psi(0) = 0 and Wronskian psi' phi - phi' psi = 1.  The integral is computed
entirely in log space, by one segment_log_integrals call for a cache and one
for the Wronskian check (see lse_quad): for stretched-exponential profiles
the integrand phi^-2 spans several hundred orders of magnitude over the
working window, so direct summation is impossible.

SubordinateCache is the one producer of I and psi, at its nodes; a value at
any other x comes from a cache whose grid contains x.

Writing I(x) = int_0^x phi(s)^-2 ds, the identities used below are

    log psi                = log phi + log I
    psi' phi - phi' psi    = phi^2 I' = 1
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NegativeArgumentError
from .lse_quad import segment_log_integrals
from .phi_models import PhiModel

WRONSKIAN_H = 1e-5  # central-difference step of wronskian_residual where |(log phi)'| <= 1


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

    psi' phi - phi' psi = phi^2 I', and I' is the central difference
    (I(x+h) - I(x-h)) / 2h, whose O(h^2 (log phi)'^2) truncation sets h =
    WRONSKIAN_H / max(1, |(log phi)'(x)|) where the model has dlog_phi.  The
    increment is the sum of the segment integrals over [x-h, x] and [x, x+h],
    as a cache on those nodes holds them: a difference of the rounded
    log I(x+-h) falls below the rounding of log I where phi^-2 spans many
    orders of magnitude.  The nodes' triples x-h, x, x+h are the edges of one
    segment_log_integrals call; the segments between triples are discarded
    (each segment's value depends on its own panels only, so nodes need not
    be sorted).
    """
    h = WRONSKIAN_H
    x = np.atleast_1d(np.asarray(nodes, dtype=float))
    if np.any(x <= h):
        raise NegativeArgumentError(f"nodes must satisfy x > {h:g}")
    if model.dlog_phi is not None:
        h = h / np.maximum(1.0, np.abs(model.dlog_phi(x)))
    segments, _ = segment_log_integrals(lambda s: -2.0 * model.log_phi(s),
                                        np.column_stack([x - h, x, x + h]).ravel())
    log_w = 2.0 * model.log_phi(x) + np.logaddexp(segments[0::3], segments[1::3]) - np.log(2.0 * h)
    return float(np.max(np.abs(np.expm1(log_w))))
