"""Trace-norm machinery comparing phi = exp(-c x - zeta) with exp(-c x).

The Green operator factors through the rank-one family
xi_x(u) = phi(u)/phi(x) [u >= x], giving

    ||G - G0||_tr <= int_0^inf (||xi_x|| + ||xi_{0,x}||) ||xi_x - xi_{0,x}|| dx,

finiteness of which triggers existence and completeness of the wave
operators (Kuroda-Birman).  This module computes the numeric trace norm
of the discretized difference, and the alpha sweep that sets it beside two
closed-form bounds on that integral: the one from a dominating decreasing
nu (finite only for alpha > 1) and the sharper derivative route (finite
for every alpha > 0).  The comparison kernel G0 is the Dirichlet kernel of the
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
from typing import Sequence

import numpy as np

from .discretization import Quadrature, assemble_jacobi
from .errors import IndefiniteDifferenceError, InvalidParameterError
from .phi_models import PhiModel, inv_power_zeta, make_phi
from .spectral import _extreme_eigenvalues

DEFINITE_NOISE_FACTOR = 1e4  # |eigenvalues| of T0 - T below this many eps * max T_ii are rounding


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
    """Per-alpha table for zeta = (1+x)^-alpha (s = sup|zeta| = 1) on the grid
    quad: the numeric trace norm and two closed-form bounds on the xi integral.

    ||xi_x|| + ||xi_{0,x}|| <= (e^{2s} + 1)/sqrt(2c), and |e^d - 1| <= e^{2s}|d|
    bounds xi_x - xi_{0,x} = e^{-c(u-x)} (e^d - 1), d = zeta(x) - zeta(u).  The
    nu route takes |d| <= 2 nu(x) for a decreasing nu >= |zeta| (here nu =
    zeta): bound (e^{2s} + 1) e^{2s} int nu / c, int nu = 1/(alpha - 1), finite
    iff alpha > 1 (criterion_met).  The derivative route takes the mean value
    |d| <= (u-x) alpha (1+x)^{-alpha-1}: bound (e^{2s} + 1) e^{2s} / (2^1.5 c^2),
    finite for every alpha > 0.
    """
    for a in alpha_list:
        if a <= 0:
            raise InvalidParameterError(f"alpha must be positive, got {a}")
    model0 = make_phi("exp-decay", c=c)
    rows = []
    for a in alpha_list:
        model = make_phi("scattering-profile", c=c, zeta=inv_power_zeta(1.0, a))
        bound_nu = ((math.exp(2.0) + 1.0) * math.exp(2.0) * (1.0 / (a - 1.0)) / c
                    if a > 1.0 else math.inf)
        rows.append({
            "alpha": float(a),
            "trace_numeric": trace_norm_difference(model, model0, quad),
            "bound_nu_route": bound_nu,
            "bound_derivative_route": (math.exp(2.0) + 1.0) * math.exp(2.0) / (2.0**1.5 * c**2),
            "criterion_met": bool(math.isfinite(bound_nu)),
        })
    return rows
