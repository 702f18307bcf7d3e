"""Adaptive composite Gauss-Legendre quadrature in log space.

Every exponential-type integrand in this package (phi^2, phi^-2, the
scattering profiles) is integrated through one engine: the integrand is
supplied as its logarithm, each panel is max-shifted before summation, and
panels combine through logsumexp.  Integrands spanning hundreds of orders of
magnitude (phi^-2 for stretched-exponential profiles exceeds 1e400 well
inside the working window) therefore never leave log space.

One splitting rule holds for every interval: it is cut into equal pieces at
most MAX_SEG long, but into no more than MAX_PIECES, and each piece is
bisected adaptively down to MAX_DEPTH levels below width MAX_SEG (a capped,
wider piece gets the extra levels it needs to reach that width).  The
number of pieces is thus bounded whatever the interval's length.
Refinement is level-batched: all panels pending at a bisection depth, over
all intervals, are evaluated together in vectorized calls of at most CHUNK
panels, which keeps rapidly oscillating profiles (panel counts in the
thousands) cheap and bounds the temporaries.  Because the integrand is
positive, the per-panel relative tolerance RTOL gives global relative
control; it is the package's one quadrature tolerance.  A NaN sample of the log integrand raises InvalidParameterError.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .errors import InvalidParameterError

RTOL = 1e-12  # relative agreement of a panel with its bisection
ORDER = 10  # Gauss-Legendre nodes per panel
MAX_DEPTH = 12  # bisection levels below width MAX_SEG; panels are accepted there
MAX_SEG = 1.0  # longest piece an interval is cut into before bisection ...
MAX_PIECES = 64  # ... unless that needs more pieces than this
CHUNK = 1 << 14  # panels per vectorized integrand call


@lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Nodes and weights on [-1, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _batch_panel_logs(log_f, a, b):
    """log of the one-panel Gauss-Legendre integral over each [a_i, b_i],
    evaluated CHUNK panels at a time."""
    if a.size > CHUNK:
        return np.concatenate([_batch_panel_logs(log_f, a[i:i + CHUNK], b[i:i + CHUNK])
                               for i in range(0, a.size, CHUNK)])
    x, w = gauss_legendre(ORDER)
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    pts = mid + half * x[None, :]
    vals = np.asarray(log_f(pts.ravel()), dtype=float).reshape(pts.shape)
    bad = np.isnan(vals)
    if np.any(bad):
        raise InvalidParameterError(
            f"log integrand is not finite (NaN) at s = {pts[bad][0]:.6g}")
    return logsumexp(vals, axis=1, b=w[None, :] * half)


def _adaptive_many(log_f, lo, hi, owner, limit, n_out):
    """Adaptive log integrals of the pieces [lo_j, hi_j], refinement batched.

    A panel is accepted when its bisected value agrees with the unsplit one
    to RTOL relatively (always at bisection depth limit_j); accepted pieces
    accumulate into out[owner_j] through logaddexp.
    """
    out = np.full(n_out, -np.inf)
    cur_lo, cur_hi = lo, hi
    whole = _batch_panel_logs(log_f, cur_lo, cur_hi)
    for depth in range(int(limit.max(initial=0)) + 1):
        mid = 0.5 * (cur_lo + cur_hi)
        left = _batch_panel_logs(log_f, cur_lo, mid)
        right = _batch_panel_logs(log_f, mid, cur_hi)
        split = np.logaddexp(left, right)
        with np.errstate(invalid="ignore"):
            accept = np.abs(np.expm1(whole - split)) <= RTOL
        accept |= (whole == -np.inf) & (split == -np.inf)
        accept |= limit == depth
        if np.any(accept):
            vals = split[accept]
            keep = vals > -np.inf
            np.logaddexp.at(out, owner[accept][keep], vals[keep])
        refine = ~accept
        if not np.any(refine):
            break
        cur_lo = np.concatenate([cur_lo[refine], mid[refine]])
        cur_hi = np.concatenate([mid[refine], cur_hi[refine]])
        owner = np.concatenate([owner[refine], owner[refine]])
        limit = np.concatenate([limit[refine], limit[refine]])
        whole = np.concatenate([left[refine], right[refine]])
    return out


def log_integral_exp(log_f, a, b):
    """log of int_a^b exp(log_f(s)) ds (-inf where b <= a).

    a and b broadcast; scalar bounds give a float, array bounds an array of
    their broadcast shape.  Interval i is cut into n_i = ceil((b_i - a_i) /
    MAX_SEG) equal pieces, with the edges np.linspace(a_i, b_i, n_i + 1)
    would give, or into MAX_PIECES pieces when n_i is larger; those wider
    pieces may be bisected ceil(log2(n_i / MAX_PIECES)) levels further.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    full = np.ceil(np.maximum(b - a, 0.0) / MAX_SEG)
    n = np.minimum(full, MAX_PIECES).astype(np.intp)
    extra = np.ceil(np.log2(np.maximum(full / MAX_PIECES, 1.0))).astype(np.intp)
    owner = np.repeat(np.arange(a.size), n)
    k = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)  # piece index
    step = ((b - a) / np.maximum(n, 1))[owner]
    lo = k * step + a[owner]
    hi = np.where(k + 1 == n[owner], b[owner], (k + 1) * step + a[owner])
    out = _adaptive_many(log_f, lo, hi, owner, MAX_DEPTH + extra[owner], a.size)
    return float(out[0]) if shape == () else out.reshape(shape)


def segment_log_integrals(log_f, edges):
    """log of int over each consecutive interval of `edges`.

    All segments share the level-batched refinement, so thousands of short
    segments (cache construction) cost a few vectorized calls.
    """
    edges = np.asarray(edges, dtype=float)
    return log_integral_exp(log_f, edges[:-1], edges[1:])
