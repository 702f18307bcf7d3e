"""The second solution psi and quantities built from it.

psi(x) = phi(x) * int_0^x phi(s)^-2 ds is the unique companion of phi with
psi(0) = 0 and Wronskian psi' phi - phi' psi = 1.  The integral is computed
entirely in log space (see lse_quad): for stretched-exponential profiles the
integrand phi^-2 spans several hundred orders of magnitude over the working
window, so direct summation is impossible.

Writing I(x) = int_0^x phi(s)^-2 ds, the identities used below are

    log psi = log phi + log I
    psi'    = phi' * (psi/phi) + 1/phi        (exact, keeps the Wronskian)
    D(x)    = G(x,x) = phi(x) psi(x)
    xi(x)   = psi(x) + gamma phi(x)
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import (
    InvalidParameterError,
    NegativeArgumentError,
    NonPositiveFError,
    ZeroGammaError,
)
from .lse_quad import DEFAULT_RTOL, log_integral_exp, segment_log_integrals
from .phi_models import PhiModel, eval_dlog_phi


def _neg2_log_phi(model):
    return lambda s: -2.0 * model.log_phi(s)


def log_int_phi_inv2(model: PhiModel, x: float, rtol: float = DEFAULT_RTOL) -> float:
    """log I(x) = log int_0^x phi(s)^-2 ds, adaptive."""
    if x < 0:
        raise NegativeArgumentError("x must be >= 0")
    if x == 0:
        return -np.inf
    return log_integral_exp(_neg2_log_phi(model), 0.0, float(x), rtol=rtol)


def compute_log_psi(model: PhiModel, x: float, rtol: float = DEFAULT_RTOL) -> float:
    """log psi(x) for x > 0 by adaptive log-space quadrature."""
    if x <= 0:
        raise NegativeArgumentError("psi is defined by its integral only for x > 0")
    return float(model.log_phi(np.asarray(x))) + log_int_phi_inv2(model, x, rtol)


def compute_psi(model: PhiModel, x: float, rtol: float = DEFAULT_RTOL) -> float:
    if x == 0:
        return 0.0
    return float(np.exp(compute_log_psi(model, x, rtol)))


def log_psi_grid(model: PhiModel, xs, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Exact-at-node log psi over a strictly increasing grid in (0, inf).

    Segment integrals between consecutive nodes accumulate through
    logaddexp, so each node value carries the full adaptive accuracy and the
    sequence psi/phi is strictly increasing by construction (all panel sums
    are positive).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or xs[0] <= 0 or np.any(np.diff(xs) <= 0):
        raise NegativeArgumentError("grid must be strictly increasing inside (0, inf)")
    edges = np.concatenate(([0.0], xs))
    segs = segment_log_integrals(_neg2_log_phi(model), edges, rtol=rtol)
    log_I = np.logaddexp.accumulate(segs)
    return model.log_phi(xs) + log_I


class SubordinateCache:
    """psi over a fixed grid: exact at the nodes, monotone-cubic in between.

    The interpolation runs on log(psi/phi) = log I, which is smooth and
    strictly increasing; queries below the first node fall back to direct
    adaptive integration.  Instances are immutable after construction and
    safe for concurrent reads.
    """

    def __init__(self, model: PhiModel, nodes, rtol: float = DEFAULT_RTOL):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or nodes[0] <= 0 or np.any(np.diff(nodes) <= 0):
            raise NegativeArgumentError("cache grid must be strictly increasing in (0, inf)")
        self.model = model
        self.grid = nodes
        self.rtol = rtol
        edges = np.concatenate(([0.0], nodes))
        self.panel_logsums = segment_log_integrals(_neg2_log_phi(model), edges, rtol=rtol)
        self.log_I_nodes = np.logaddexp.accumulate(self.panel_logsums)
        if not np.all(np.isfinite(self.log_I_nodes)):
            raise InvalidParameterError(
                f"{model.label}: int phi^-2 is not finite on the grid (log phi is "
                "not finite there)")
        self.log_psi_nodes = model.log_phi(nodes) + self.log_I_nodes
        # interpolate in log x: log I has a log singularity at 0 but is
        # nearly linear in log x there, and stays smooth at the far end
        self._interp = PchipInterpolator(np.log(nodes), self.log_I_nodes,
                                         extrapolate=False)

    def log_I(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        pts = np.atleast_1d(x)
        if np.any(pts < 0) or np.any(pts > self.grid[-1]):
            raise NegativeArgumentError("query outside [0, X]")
        out = np.empty_like(pts)
        # near 0 the log-x interpolation grid is too sparse; integrate there
        low = pts < self.grid[min(3, self.grid.size - 1)]
        if np.any(~low):
            out[~low] = self._interp(np.log(pts[~low]))
        for i in np.nonzero(low)[0]:
            out[i] = (-np.inf if pts[i] == 0.0
                      else log_integral_exp(_neg2_log_phi(self.model), 0.0, pts[i],
                                            rtol=self.rtol))
        return out[0] if scalar else out

    def log_psi(self, x) -> np.ndarray:
        return self.model.log_phi(np.asarray(x, dtype=float)) + self.log_I(x)

    def psi(self, x) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            out = np.exp(self.log_psi(x))
        return np.where(np.asarray(x, dtype=float) == 0.0, 0.0, out)


def _log_I_around(model, x, h, rtol):
    """(log I(x-h), log I(x), log I(x+h)) sharing one prefix integral.

    The three values differ only through the small bridging integrals, so
    quadrature noise cancels almost entirely in finite differences.
    """
    base = log_int_phi_inv2(model, x - h, rtol)
    g = _neg2_log_phi(model)
    mid = np.logaddexp(base, log_integral_exp(g, x - h, x, rtol=rtol))
    top = np.logaddexp(mid, log_integral_exp(g, x, x + h, rtol=rtol))
    return base, mid, top


def wronskian_residual(model: PhiModel, nodes, h: float = 1e-5,
                       method: str = "fd", rtol: float = DEFAULT_RTOL) -> float:
    """max over nodes of |psi' phi - phi' psi - 1|.

    method="fd" differentiates the computed log psi (an honest check of the
    quadrature); method="analytic" uses psi' = phi'(psi/phi) + 1/phi, which
    satisfies the identity structurally and only measures roundoff.
    """
    worst = 0.0
    for x in np.atleast_1d(np.asarray(nodes, dtype=float)):
        if x <= h:
            raise NegativeArgumentError("nodes must satisfy x > h > 0")
        if method == "analytic":
            log_I = log_int_phi_inv2(model, x, rtol)
            lphi = float(model.log_phi(np.asarray(x)))
            phi = np.exp(lphi)
            psi = np.exp(lphi + log_I)
            tau = float(eval_dlog_phi(model, x, h))
            psi_p = tau * psi + 1.0 / phi
            resid = abs(psi_p * phi - tau * phi * psi - 1.0)
        elif method == "fd":
            lo, mid, hi = _log_I_around(model, x, h, rtol)
            # psi'phi - phi'psi - 1 = D(x) * (log I)'(x) - 1 exactly
            D = np.exp(2.0 * float(model.log_phi(np.asarray(x))) + mid)
            dlogI = (hi - lo) / (2.0 * h)
            resid = abs(D * dlogI - 1.0)
        else:
            raise ValueError(f"unknown method '{method}'")
        worst = max(worst, float(resid))
    return worst


def compute_xi(model: PhiModel, gamma: complex, x: float,
               rtol: float = DEFAULT_RTOL) -> complex:
    """xi(x) = psi(x) + gamma phi(x); xi(0) = gamma phi(0)."""
    if gamma == 0:
        raise ZeroGammaError("gamma must be nonzero")
    if x < 0:
        raise NegativeArgumentError("x must be >= 0")
    phi = float(np.exp(model.log_phi(np.asarray(x))))
    psi = compute_psi(model, x, rtol)
    return psi + gamma * phi


def diagonal_D(model: PhiModel, x: float, rtol: float = DEFAULT_RTOL) -> float:
    """D(x) = G(x,x) = phi(x)^2 int_0^x phi^-2 = phi(x) psi(x); D(0) = 0."""
    if x < 0:
        raise NegativeArgumentError("x must be >= 0")
    if x == 0:
        return 0.0
    return float(np.exp(2.0 * float(model.log_phi(np.asarray(x)))
                        + log_int_phi_inv2(model, x, rtol)))


def regularized_potential(model: PhiModel, f_coeffs, x: float,
                          rtol: float = 1e-10) -> float:
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

    integral = 0.0
    if x > 0:
        from .discretization import build_quadrature  # local import avoids a cycle
        quad = build_quadrature(x, max(8, int(np.ceil(4.0 * x))), 10)
        fpf = model.dlog_phi(quad.nodes)
        if b != 0.0:
            cache = SubordinateCache(model, quad.nodes, rtol=min(rtol, 1e-10))
            denom = a + b * np.exp(cache.log_I_nodes)  # psi/phi
            if np.any(denom <= 0.0):
                raise NonPositiveFError("a*phi + b*psi vanishes inside [0, x]")
            fpf = fpf + b / (np.exp(2.0 * model.log_phi(quad.nodes)) * denom)
        integral = float(np.sum(quad.weights * fpf**2))

    tau_x = float(eval_dlog_phi(model, x))
    if b == 0.0:
        head = tau_x
    else:
        r_x = float(np.exp(log_int_phi_inv2(model, x, rtol) if x > 0 else -np.inf))
        denom = a + b * r_x
        if denom <= 0.0:
            raise NonPositiveFError("a*phi + b*psi vanishes at x")
        head = tau_x + b / (float(np.exp(2.0 * model.log_phi(np.asarray(x)))) * denom)
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
    tau = float(eval_dlog_phi(model, x))
    tau_p = (float(eval_dlog_phi(model, x + h)) - float(eval_dlog_phi(model, x - h))) / (2.0 * h)
    V = potential_from_phi(model, x)
    return abs(tau_p + tau * tau - V)
