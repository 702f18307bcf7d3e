"""Trace-norm machinery comparing phi = exp(-c x - zeta) with exp(-c x).

The Green operator factors through the rank-one family
xi_x(u) = phi(u)/phi(x) [u >= x], giving

    ||G - G0||_tr <= int_0^inf (||xi_x|| + ||xi_{0,x}||) ||xi_x - xi_{0,x}|| dx,

finiteness of which triggers existence and completeness of the wave
operators (Kuroda-Birman).  This module computes two bounds on that
integral, the numeric trace norm of the discretized difference, and the
alpha sweep that contrasts the bound from a dominating decreasing nu
(finite only for alpha > 1) with the sharper derivative route (finite for
every alpha > 0).  The comparison kernel G0 is the Dirichlet kernel of the
exp-decay(c) profile.

The numeric trace norm needs no N x N matrix.  Inversion reverses order, so
T <= T0 for the tridiagonal inverses means G >= G0; a definite difference
has trace norm |tr(G - G0)|, the weighted sum of the diagonals D = phi psi
the psi caches hold (||A||_1 = tr A for A >= 0).  Definiteness is certified
by the extreme eigenvalues of T0 - T; an indefinite difference is an error,
never a silent fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discretization import Quadrature, assemble_jacobi
from .errors import IndefiniteDifferenceError, InvalidParameterError
from .phi_models import PhiModel, Zeta, inv_power_zeta, make_phi
from .spectral import _extreme_eigenvalues

DEFINITE_NOISE_FACTOR = 1e4  # |eigenvalues| of T0 - T below this many eps * max T_ii are rounding


@dataclass(frozen=True)
class Nu:
    """Monotone decreasing candidate dominating |zeta|."""

    fn: object
    integral: float  # int_0^inf nu, may be inf


def power_nu(k: float = 1.0, alpha: float = 1.0) -> Nu:
    if alpha <= 0:
        raise InvalidParameterError(f"power nu needs alpha > 0, got {alpha}")
    integral = k / (alpha - 1.0) if alpha > 1.0 else math.inf
    return Nu(fn=lambda x: k * (1.0 + np.asarray(x, dtype=float)) ** (-alpha),
              integral=integral)


@dataclass(frozen=True)
class ScatteringProfile:
    c: float
    zeta: Zeta
    nu: Nu

    def __post_init__(self):
        if self.c <= 0:
            raise InvalidParameterError(f"free decay rate must be positive, got {self.c}")


def inv_power_profile(c: float, alpha: float) -> ScatteringProfile:
    """zeta = (1+x)^-alpha with nu = zeta itself (decreasing, dominates)."""
    return ScatteringProfile(c=c, zeta=inv_power_zeta(1.0, alpha), nu=power_nu(1.0, alpha))


def analytic_trace_bound(profile: ScatteringProfile) -> float:
    """(e^{2s} + 1) e^{2s} / c * int_0^inf nu, with s = sup|zeta|.

    Infinite (criterion fails) when int nu diverges.
    """
    s = profile.zeta.sup
    if not math.isfinite(profile.nu.integral):
        return math.inf
    return (math.exp(2.0 * s) + 1.0) * math.exp(2.0 * s) * profile.nu.integral / profile.c


def derivative_route_bound(profile_alpha: float, c: float) -> float:
    """Sharper bound for zeta = (1+x)^-alpha (sup|zeta| = 1) via the
    mean-value estimate |zeta(u) - zeta(x)| <= (u - x) alpha (1+x)^{-alpha-1};
    finite for all alpha > 0."""
    if profile_alpha <= 0:
        raise InvalidParameterError("alpha must be positive")
    return (math.exp(2.0) + 1.0) * math.exp(2.0) / (2.0**1.5 * c**2)


def trace_norm_difference(model: PhiModel, model0: PhiModel, quad: Quadrature) -> float:
    """||G - G0||_tr of the two Dirichlet Nystrom matrices on one grid, in O(N).

    The lowest and highest eigenvalue of the tridiagonal T0 - T must share a
    sign, up to the rounding floor DEFINITE_NOISE_FACTOR * eps * max T_ii of
    the entries (which two profiles that agree far out reach); then the
    result is |sum_i w_i (D(x_i) - D0(x_i))|.  Otherwise
    IndefiniteDifferenceError is raised.
    """
    models = (model, model0)
    T = [assemble_jacobi(m, quad) for m in models]
    D = [np.exp(m.log_phi(quad.nodes) + t.cache.log_psi_nodes) for m, t in zip(models, T)]
    lo, hi = _extreme_eigenvalues(T[1].diag - T[0].diag, T[1].off - T[0].off)
    floor = DEFINITE_NOISE_FACTOR * np.finfo(float).eps * max(np.max(t.diag) for t in T)
    if lo < -floor and hi > floor:
        raise IndefiniteDifferenceError(
            f"T0 - T has eigenvalues in [{lo:.3g}, {hi:.3g}] for {model.label} "
            f"against {model0.label}: ||G - G0||_tr is not a trace")
    return abs(float(np.sum(quad.weights * (D[0] - D[1]))))


def example_scatt_sweep(alpha_list: Sequence[float], c: float, quad: Quadrature):
    """Per-alpha table for zeta = (1+x)^-alpha on the grid quad: numeric trace
    norm, the nu-route bound (finite iff alpha > 1) and the derivative-route
    bound (finite for every alpha > 0)."""
    for a in alpha_list:
        if a <= 0:
            raise InvalidParameterError(f"alpha must be positive, got {a}")
    model0 = make_phi("exp-decay", c=c)
    rows = []
    for a in alpha_list:
        prof = inv_power_profile(c, a)
        model = make_phi("scattering-profile", c=c, zeta=prof.zeta)
        numeric = trace_norm_difference(model, model0, quad)
        bound_nu = analytic_trace_bound(prof)
        bound_deriv = derivative_route_bound(a, c)
        rows.append({
            "alpha": float(a),
            "trace_numeric": numeric,
            "bound_nu_route": bound_nu,
            "bound_derivative_route": bound_deriv,
            "criterion_met": bool(math.isfinite(bound_nu)),
        })
    return rows
