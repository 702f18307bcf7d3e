"""The paper's identities and bounds as test oracles.

Each function here checks a statement of the paper on a profile or a
spectrum; no task of the package needs them.  They read I and psi through
SubordinateCache, log phi through model.log_phi and tau through
model.dlog_phi, like the package does.  Failures raise ValueError, except
a profile without an analytic phi'/phi, which raises NonSmoothModelError as
the package's own checks do.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from subspec.discretization import ORDER, build_quadrature
from subspec.errors import NonSmoothModelError
from subspec.lse_quad import segment_log_integrals
from subspec.oracle_fd import potential_from_phi
from subspec.phi_models import Zeta
from subspec.subordinate import SubordinateCache


def regularized_potential(model, f_coeffs, x):
    """f'/f (x) + int_0^x (f'/f)^2 ds for f = a phi + b psi, f > 0 on [0, x].

    The difference of two such values is independent of x (same constant for
    any two positive combinations), which exhibits the distributional
    potential without ever forming phi''.
    """
    a, b = float(f_coeffs[0]), float(f_coeffs[1])
    if x < 0:
        raise ValueError("x must be >= 0")
    if model.dlog_phi is None:
        raise NonSmoothModelError("regularized potential needs an analytic phi'")
    if a <= 0.0:
        # psi(0) = 0, so f(0) = a phi(0) must already be positive
        raise ValueError("f(0) = a*phi(0) <= 0 violates positivity on [0, x]")

    head = float(model.dlog_phi(x))
    integral = 0.0
    log_I_x = -np.inf
    if x > 0:
        quad = build_quadrature(x, max(8, int(np.ceil(4.0 * x))), ORDER)
        fpf = model.dlog_phi(quad.nodes)
        if b != 0.0:
            # the grid ends at x itself, so the last node value is I(x)
            cache = SubordinateCache(model, np.append(quad.nodes, x))
            denom = a + b * np.exp(cache.log_I_nodes[:-1])  # psi/phi
            if np.any(denom <= 0.0):
                raise ValueError("a*phi + b*psi vanishes inside [0, x]")
            fpf = fpf + b / (np.exp(2.0 * model.log_phi(quad.nodes)) * denom)
            log_I_x = float(cache.log_I_nodes[-1])
        integral = float(np.sum(quad.weights * fpf**2))

    if b != 0.0:
        denom = a + b * float(np.exp(log_I_x))
        if denom <= 0.0:
            raise ValueError("a*phi + b*psi vanishes at x")
        head += b / (float(np.exp(2.0 * model.log_phi(np.asarray(x)))) * denom)
    return head + integral


def riccati_residual(model, x, h=1e-5):
    """|tau'(x) + tau(x)^2 - V(x)| with V = phi''/phi from the smooth kind.

    tau' comes from a central difference of the analytic tau, so the residual
    measures the consistency of the logarithmic derivative with the
    reconstructed potential rather than being zero by construction.
    """
    if model.dlog_phi is None:
        raise NonSmoothModelError("Riccati residual needs an analytic phi'/phi")
    if x <= h:
        raise ValueError("x must exceed the FD step")
    tau = float(model.dlog_phi(x))
    tau_p = (float(model.dlog_phi(x + h)) - float(model.dlog_phi(x - h))) / (2.0 * h)
    V = potential_from_phi(model, x)
    return abs(tau_p + tau * tau - V)


def growth_exponent(lam, n_range):
    """Least-squares slope of log lambda_n against log n over n in n_range,
    for ascending lambdas lam."""
    lam = np.asarray(lam, dtype=float)
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo < 1 or hi < lo:
        raise ValueError(f"bad n_range {n_range}")
    if lam.size < hi or hi - lo + 1 < 5:
        raise ValueError(f"need at least 5 lambdas covering n in [{lo}, {hi}], have {lam.size}")
    n = np.arange(lo, hi + 1, dtype=float)
    vals = lam[lo - 1: hi]
    if np.any(vals <= 0):
        raise ValueError("growth fit needs positive lambdas")
    return float(np.polyfit(np.log(n), np.log(vals), 1)[0])


def _extrapolate_to_zero(nodes, values):
    # quadratic through the three smallest nodes; the grid has no node at 0
    coef = np.polyfit(nodes[:3], values[:3], 2)
    return float(np.polyval(coef, 0.0))


def quadratic_form_residual(model, T, f):
    """Relative defect of <f, G_gamma f> against the first-order form of H.

    With g = G_gamma f for the matrix T of model (gamma = T.gamma; 0 is the
    Dirichlet G), compares f^T g to
    Q(g) = sum_i w_i ((g/phi)'(x_i))^2 phi(x_i)^2, the derivative taken by
    second-order differences on the grid, plus g(0)^2 / (gamma phi(0)^2) in
    the Robin case with g(0) extrapolated quadratically to the boundary.
    """
    quad, gamma = T.quad, T.gamma
    f = np.asarray(f, dtype=float)
    if f.shape != quad.nodes.shape:
        raise ValueError("f must be sampled on the quadrature nodes")
    if not np.any(f):
        return 0.0
    g = T.apply_to_function(f)
    w = quad.weights
    fg = float(np.sum(w * f * g))
    if fg == 0.0:
        raise ZeroDivisionError("f^T G f vanished for a nonzero f")
    phi = np.exp(model.log_phi(quad.nodes))
    r = g / phi
    rp = np.gradient(r, quad.nodes)
    Q = float(np.sum(w * (phi * rp) ** 2))
    if gamma != 0:
        g0 = _extrapolate_to_zero(quad.nodes, g)
        phi0 = float(np.exp(model.log_phi(np.asarray(0.0))))
        Q += g0**2 / (gamma * phi0**2)
    return abs(fg - Q) / abs(fg)


def factorization_forms(model, quad, f):
    """(f^T G_h f, ||M_h f||^2) for node samples f, stacked along the first
    axis when f is 2-D, in O(N) memory.

    G_h is the Green matrix with the grid's own psi_h = phi P, where
    P_i = sum_{k<=i} w_k phi_k^-2, and M_h_ij = sqrt(w_i) phi_j / phi_i
    sqrt(w_j) [j >= i] the factor matrix; G_h = M_h^T M_h exactly, so the
    forms agree to roundoff.  With the suffix sums
    u_i = sum_{j>=i} sqrt(w_j) f_j phi_j / phi_i, so (M_h f)_i = sqrt(w_i) u_i,
    summation by parts gives

        ||M_h f||^2 = sum_i w_i u_i^2
        f^T G_h f   = sum_i sqrt(w_i) f_i phi_i^2 P_i (2 u_i - sqrt(w_i) f_i)

    Both sums run in log space, one sign of f at a time, so phi^-2 is never
    formed.
    """
    lp = model.log_phi(quad.nodes)
    sw = np.sqrt(quad.weights)
    a = sw * np.asarray(f, dtype=float)
    D_h = np.exp(2.0 * lp + np.logaddexp.accumulate(np.log(quad.weights) - 2.0 * lp))
    u = np.zeros(a.shape)
    with np.errstate(divide="ignore"):
        for sign in (1.0, -1.0):
            log_terms = np.log(np.maximum(sign * a, 0.0)) + lp
            suffix = np.logaddexp.accumulate(log_terms[..., ::-1], axis=-1)[..., ::-1]
            u += sign * np.exp(suffix - lp)
    return np.sum(a * D_h * (2.0 * u - a), axis=-1), np.sum(quad.weights * u**2, axis=-1)


def robin_fd_eigenvalues(potential, X, N, sigma, k):
    """Lowest k eigenvalues of -g'' + V g on [0, X] with g'(0) = sigma g(0)
    and g(X) = 0, by the 3-point stencil on the nodes i*dx, i = 0..N, with
    dx = X/(N+1).

    The ghost value is eliminated through (g_1 - g_-1)/(2 dx) = sigma g_0,
    and the sqrt(2) similarity scaling of the first component restores
    symmetry; second-order accurate.
    """
    dx = X / (N + 1)
    x = dx * np.arange(0, N + 1)
    diag = 2.0 / dx**2 + np.asarray(potential(x), dtype=float)
    diag[0] += 2.0 * sigma / dx
    off = np.full(N, -1.0 / dx**2)
    off[0] *= math.sqrt(2.0)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                            eigvals_only=True)


def zero_zeta():
    return Zeta(fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                dfn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                d2fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                sup=0.0, label="0")


def nu_is_valid(zeta, nu, audit_nodes=None):
    """|zeta| <= nu and nu decreasing, for a Zeta and a callable nu, checked
    on the audit grid only (default 40 nodes per unit length on [0, 40];
    zeta may move between)."""
    if audit_nodes is None:
        audit_nodes = np.linspace(0.0, 40.0, 1601)
    x = np.asarray(audit_nodes, dtype=float)
    nu_vals = np.asarray(nu(x), dtype=float)
    dominates = np.all(np.abs(zeta.fn(x)) <= nu_vals + 1e-12)
    decreasing = np.all(np.diff(nu_vals) <= 1e-12)
    return bool(dominates and decreasing)


def _tail_window(c, zeta):
    # e^{-2cW} with the zeta oscillation absorbed stays below ~1e-13
    return (30.0 + 4.0 * zeta.sup) / (2.0 * c)


def xi_norms(c, zeta, x):
    """(||xi_x||, ||xi_{0,x}||, ||xi_x - xi_{0,x}||) for the rank-one family
    xi_x(u) = phi(u)/phi(x) [u >= x] that the Green operator of
    phi = exp(-c x - zeta(x)) factors through.

    The squared norms integrate adaptively over an exponential window
    [x, x + W]; beyond W the zeta variation is frozen and the tail added in
    closed form.  ||xi_{0,x}|| = 1/sqrt(2c) exactly.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    W = _tail_window(c, zeta)
    zx = float(zeta.fn(np.asarray(x, dtype=float)))

    def log_f(u):
        u = np.asarray(u, dtype=float)
        return -2.0 * c * (u - x) - 2.0 * np.asarray(zeta.fn(u), dtype=float) + 2.0 * zx

    head = math.exp(segment_log_integrals(log_f, [x, x + W])[0][0])
    z_far = float(zeta.fn(np.asarray(x + W, dtype=float)))
    tail = math.exp(-2.0 * c * W + 2.0 * (zx - z_far)) / (2.0 * c)
    norm_xi = math.sqrt(head + tail)
    norm_xi0 = 1.0 / math.sqrt(2.0 * c)

    def log_diff(u):
        u = np.asarray(u, dtype=float)
        dz = zx - np.asarray(zeta.fn(u), dtype=float)
        with np.errstate(divide="ignore"):  # dz = 0 contributes exp(-inf) = 0
            return -2.0 * c * (u - x) + 2.0 * np.log(np.abs(np.expm1(dz)))

    norm_diff = math.exp(0.5 * segment_log_integrals(log_diff, [x, x + W])[0][0])
    return norm_xi, norm_xi0, norm_diff


def xi_norm_bound(c, zeta):
    """||xi_x|| <= e^{2 sup|zeta|} / sqrt(2c), uniform in x."""
    return math.exp(2.0 * zeta.sup) / math.sqrt(2.0 * c)


def elementary_bound_margin(zeta, x, u):
    """e^{2 sup}|zeta(x) - zeta(u)| - |e^{zeta(x)-zeta(u)} - 1| (>= 0)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    dz = np.asarray(zeta.fn(x), dtype=float) - np.asarray(zeta.fn(u), dtype=float)
    return math.exp(2.0 * zeta.sup) * np.abs(dz) - np.abs(np.expm1(dz))
