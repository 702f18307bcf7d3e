"""The second solution psi and quantities built from it.

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
    xi(x)                  = psi(x) + gamma phi(x)
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidParameterError,
    NegativeArgumentError,
    NonPositiveFError,
    ZeroGammaError,
)
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


def compute_xi(model: PhiModel, gamma: complex, x: float) -> complex:
    """xi(x) = psi(x) + gamma phi(x); xi(0) = gamma phi(0)."""
    if gamma == 0:
        raise ZeroGammaError("gamma must be nonzero")
    if x < 0:
        raise NegativeArgumentError("x must be >= 0")
    phi = float(np.exp(model.log_phi(np.asarray(x))))
    psi = float(np.exp(SubordinateCache(model, [x]).log_psi_nodes[0])) if x > 0 else 0.0
    return psi + gamma * phi


def regularized_potential(model: PhiModel, f_coeffs, x: float) -> float:
    """f'/f (x) + int_0^x (f'/f)^2 ds for f = a phi + b psi, f > 0 on [0, x].

    The difference of two such values is independent of x (same constant for
    any two positive combinations), which exhibits the distributional
    potential without ever forming phi''.
    """
    a, b = float(f_coeffs[0]), float(f_coeffs[1])
    if x < 0:
        raise NegativeArgumentError("x must be >= 0")
    if model.dlog_phi is None:
        raise NonPositiveFError("regularized potential needs an analytic phi'")
    if a <= 0.0:
        # psi(0) = 0, so f(0) = a phi(0) must already be positive
        raise NonPositiveFError("f(0) = a*phi(0) <= 0 violates positivity on [0, x]")

    head = float(model.dlog_phi(x))
    integral = 0.0
    log_I_x = -np.inf
    if x > 0:
        from .discretization import ORDER, build_quadrature  # local import avoids a cycle
        quad = build_quadrature(x, max(8, int(np.ceil(4.0 * x))), ORDER)
        fpf = model.dlog_phi(quad.nodes)
        if b != 0.0:
            # the grid ends at x itself, so the last node value is I(x)
            cache = SubordinateCache(model, np.append(quad.nodes, x))
            denom = a + b * np.exp(cache.log_I_nodes[:-1])  # psi/phi
            if np.any(denom <= 0.0):
                raise NonPositiveFError("a*phi + b*psi vanishes inside [0, x]")
            fpf = fpf + b / (np.exp(2.0 * model.log_phi(quad.nodes)) * denom)
            log_I_x = float(cache.log_I_nodes[-1])
        integral = float(np.sum(quad.weights * fpf**2))

    if b != 0.0:
        denom = a + b * float(np.exp(log_I_x))
        if denom <= 0.0:
            raise NonPositiveFError("a*phi + b*psi vanishes at x")
        head += b / (float(np.exp(2.0 * model.log_phi(np.asarray(x)))) * denom)
    return head + integral


def riccati_residual(model: PhiModel, x: float, h: float = 1e-5) -> float:
    """|tau'(x) + tau(x)^2 - V(x)| with V = phi''/phi from the smooth kind.

    tau' comes from a central difference of the analytic tau, so the residual
    measures the consistency of the logarithmic derivative with the
    reconstructed potential rather than being zero by construction.
    """
    from .oracle_fd import potential_from_phi  # local import avoids a cycle

    if model.dlog_phi is None:
        from .errors import NonSmoothModelError
        raise NonSmoothModelError("Riccati residual needs an analytic phi'/phi")
    if x <= h:
        raise NegativeArgumentError("x must exceed the FD step")
    tau = float(model.dlog_phi(x))
    tau_p = (float(model.dlog_phi(x + h)) - float(model.dlog_phi(x - h))) / (2.0 * h)
    V = potential_from_phi(model, x)
    return abs(tau_p + tau * tau - V)
