"""Pointwise Dirichlet kernel G and its exponential bound.

    G(x, y) = psi(x ^ y) phi(x v y)            (symmetric, >= 0)

Everything is evaluated through logs of phi and psi; x ^ y = 0 short-circuits
to exactly 0 so that -inf + inf never forms.  psi comes from a
SubordinateCache built on the unique positive minima.  The discretization
module assembles G and its Robin shift G + gamma phi(x) phi(y) (real gamma;
gamma = 0 is G) as the tridiagonal inverse of their Nystrom matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingDecayError, NegativeArgumentError
from .phi_models import PhiModel
from .subordinate import SubordinateCache


def _pair_arrays(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0) or np.any(y < 0):
        raise NegativeArgumentError("kernel arguments must be >= 0")
    return np.broadcast_arrays(x, y)


def green_eval(model: PhiModel, x, y) -> np.ndarray:
    """G(x, y); symmetric in (x, y) through a shared min/max code path."""
    x, y = _pair_arrays(x, y)
    mn = np.minimum(x, y)
    mx = np.maximum(x, y)
    log_psi_mn = np.full(mn.shape, -np.inf)
    pos = mn > 0
    if np.any(pos):
        uniq, inv = np.unique(mn[pos], return_inverse=True)
        log_psi_mn[pos] = SubordinateCache(model, uniq).log_psi_nodes[inv]
    with np.errstate(invalid="ignore"):
        vals = np.exp(log_psi_mn + model.log_phi(mx))
    vals = np.where(mn == 0.0, 0.0, vals)
    return vals if vals.ndim else float(vals)


def exp_bound_margin(model: PhiModel, x, y) -> np.ndarray:
    """(c2^3 / (2 c c1^3)) e^{-c|x-y|} - G(x, y); >= 0 under the sandwich."""
    if model.decay is None:
        raise MissingDecayError(f"{model.label} carries no decay metadata")
    x, y = _pair_arrays(x, y)
    const = model.decay.kernel_bound_const()
    bound = const * np.exp(-model.decay.rate * np.abs(x - y))
    out = bound - green_eval(model, x, y)
    return out if np.ndim(out) else float(out)
