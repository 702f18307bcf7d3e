"""Adaptive composite Gauss-Legendre quadrature in log space.

Every exponential-type integrand in this package (phi^2, phi^-2, the
scattering profiles) is integrated through one engine: the integrand is
supplied as its logarithm, each panel is max-shifted before summation, and
panels combine through logaddexp.  Integrands spanning hundreds of orders
of magnitude (phi^-2 for stretched-exponential profiles exceeds 1e400 well
inside the working window) therefore never leave log space.

One splitting rule holds for every interval [a, b]: it is cut into n =
ceil((b - a) / MAX_SEG) equal pieces, with the edges np.linspace(a, b, n + 1)
would give, or into MAX_PIECES pieces when n is larger, and each piece is
bisected adaptively at most MAX_DEPTH times; the wider, capped pieces get
ceil(log2(n / MAX_PIECES)) levels more, which bring them to width MAX_SEG.
The depth limit counts from the piece's own width: a 0.025-wide cache
segment is bisected down to panels 0.025 * 2^-12 = 6.1e-6 wide, not 2^-12.
The number of pieces is thus bounded whatever the interval's length, and an
interval with b <= a has none: its integral is -inf.

Refinement is level-batched: the panels pending at one bisection depth,
over many intervals, are evaluated together in vectorized calls of at most
CHUNK panels, the left halves of every panel in one pass and the right
halves in another, which keeps rapidly oscillating profiles (panel counts
in the thousands) cheap.  The working set is bounded by BUDGET = 8192, with
one exception: when the panels pending for the next depth exceed BUDGET,
the set splits by interval onto a stack and is refined depth-first, one
part at a time, but an interval is never split.  A single interval can
therefore hold more than BUDGET pending panels: up to MAX_PIECES *
2^MAX_DEPTH = 262144 when it is no longer than MAX_PIECES * MAX_SEG = 64,
and more on a longer one, whose pieces get extra levels.  make_phi of the
oscillating profile pushes one interval of 24682 panels.  The stack holds
about one part per depth, so it stays near depth * BUDGET * 32 bytes (lo,
hi, owner and the unsplit value of each panel).  Each array of the refined
entry is dropped once its last reader is done, so the oscillating psi cache
on X = 15 with 60 panels peaks at 2.3 MiB of traced memory, and ||phi||
of oscillating, whose pending panels are never split, at 2.4 MiB.  Each
interval keeps its panels in their order, so the result depends on neither
BUDGET nor CHUNK to the last bit.

Acceptance is relative to the whole interval, not to the panel alone
(Gander & Gautschi, BIT 40, 2000).  A panel is accepted when its unsplit
value differs from the sum of its halves by at most RTOL * max(split,
share), where share is the panel's width fraction of its interval's running
total (accepted values plus every pending split).  Summed over an interval
these differences are at most 2 * RTOL times its integral, and no samples
are spent on panels whose mass cannot change it.  RTOL is the package's one
quadrature tolerance.

A panel is also accepted at its own rounding floor (in the spirit of
QUADPACK's roundoff detection, Piessens et al. 1983): when |expm1(whole -
split)| <= eps * |s| * |d log f / ds|, with s the panel's far end and the
slope the larger secant of log f across the first and last nodes of its two
halves.  Rounding s to a double moves log f by that much, so the samples
already carry that relative error and no bisection resolves below it.  Such
a panel is off by about twice its floor, so an interval is off by at most
2 * RTOL plus twice the largest floor it accepted at, relative to its
integral.  The floor costs no samples.  Where eps * |s (log f)'| <= RTOL,
as for the smooth families on their working windows, it accepts no panel
the relative test rejects, and the result is the same to the last bit.  On
oscillating, phi^-2 = exp(2x + 2 sin e^x) has a floor of up to 2 x e^x eps,
which passes RTOL near x = 6; the rounding noise of its samples stalled
bisection from x ~ 7.8.  From there until bisection truly stops resolving
sin e^x (x ~ 12.5), panels are accepted at the floor instead of being
bisected to the depth limit.

A panel accepted only because it reached the depth limit is unresolved;
segment_log_integrals reports which segments hold one.
A NaN sample of the log integrand raises InvalidParameterError.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError

RTOL = 1e-12  # agreement of a panel with its bisection, relative to its share
ORDER = 10  # Gauss-Legendre nodes per panel
MAX_DEPTH = 12  # bisection levels below a piece's own width; panels are accepted there
MAX_SEG = 1.0  # longest piece an interval is cut into before bisection ...
MAX_PIECES = 64  # ... unless that needs more pieces than this
CHUNK = 1 << 11  # panels per vectorized integrand call
BUDGET = 4 * CHUNK  # pending panels above which refinement splits by interval


def _legval(x, c):
    """sum_k c[k] P_k(x) (len(c) >= 2) by Clenshaw's recurrence, as numpy's
    legval runs it."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Nodes and weights on [-1, 1] (order >= 2), cached per order.

    numpy.polynomial.legendre.leggauss's arithmetic, bit for bit, without
    importing numpy.polynomial: the eigenvalues of the symmetric companion
    matrix of P_order, one Newton step, symmetrization, weights scaled to
    sum to 2.
    """
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    band = np.arange(1, order) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(band, -1) + np.diag(band, 1))
    c = [0.0] * order + [1.0]  # P_order
    der = [float(2 * k + 1) if (order - 1 - k) % 2 == 0 else 0.0 for k in range(order)]
    dy = _legval(x, c)
    df = _legval(x, der)  # P_order' = sum of (2k + 1) P_k over k = order-1, order-3, ...
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _batch_panel_logs(log_f, a, b):
    """(log of the one-panel Gauss-Legendre integral over each [a_i, b_i],
    its rounding floor), evaluated CHUNK panels at a time.

    Each row of samples is shifted by its finite maximum before the weighted
    sum, so rows of -inf give -inf and rows with a +inf sample give +inf.
    The floor is eps * max(|a_i|, |b_i|) times the secant of log_f across
    the first and last node: the change in log_f that rounding a node
    causes (0 where either sample is not finite).  The array log_f returns
    is only read.
    """
    if a.size > CHUNK:
        logs, floor = np.empty(a.size), np.empty(a.size)
        for i in range(0, a.size, CHUNK):
            logs[i:i + CHUNK], floor[i:i + CHUNK] = _batch_panel_logs(
                log_f, a[i:i + CHUNK], b[i:i + CHUNK])
        return logs, floor
    x, w = gauss_legendre(ORDER)
    half = 0.5 * (b - a)
    pts = half[:, None] * x[None, :]
    pts += (0.5 * (a + b))[:, None]
    vals = np.asarray(log_f(pts.ravel()), dtype=float).reshape(pts.shape)
    peak = vals[:, 0].copy()
    for j in range(1, ORDER):  # column-wise: far cheaper than max(axis=1) on short rows
        np.maximum(peak, vals[:, j], out=peak)  # NaN in a row whose samples hold one
    if np.isnan(peak).any():
        raise InvalidParameterError(
            f"log integrand is not finite (NaN) at s = {pts[np.isnan(vals)][0]:.6g}")
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = (np.finfo(float).eps * np.maximum(np.abs(a), np.abs(b))
                 * np.abs(vals[:, -1] - vals[:, 0]) / (pts[:, -1] - pts[:, 0]))
        floor[~np.isfinite(floor)] = 0.0
        shifted = vals - peak[:, None]
        np.exp(shifted, out=shifted)
        total = np.einsum("ij,j->i", shifted, w)
        return np.log(total) + peak + np.log(half), floor


def _interval_totals(out, split, owner):
    """log of each interval's accepted mass `out` plus its pending `split`s."""
    peak = out.copy()
    np.maximum.at(peak, owner, split)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = np.exp(out - peak) + np.bincount(owner, np.exp(split - peak[owner]),
                                                minlength=out.size)
        return np.log(mass) + peak


def _by_interval(depth, lo, hi, owner, whole):
    """Stack entries (depth, lo, hi, owner, whole) for the panels pending at
    one depth: one entry, or, above BUDGET panels, one per run of whole
    intervals holding about BUDGET panels, the first on top.  An interval is
    never split, so an entry exceeds BUDGET when one interval alone has more
    pending panels.  Each interval keeps its panels in their order."""
    if owner.size <= BUDGET:
        return [(depth, lo, hi, owner, whole)] if owner.size else []
    count = np.bincount(owner)
    part = ((np.cumsum(count) - count) // BUDGET)[owner]
    order = np.argsort(part, kind="stable")
    cuts = np.flatnonzero(np.diff(part[order])) + 1
    return [(depth, lo[i], hi[i], owner[i], whole[i]) for i in np.split(order, cuts)[::-1]]


def segment_log_integrals(log_f, edges):
    """(log of int over each consecutive interval of `edges`, whether each
    accepted a panel only at the depth limit).

    All intervals share the level-batched refinement, so thousands of short
    segments (cache construction) cost a few vectorized calls.  A panel at
    bisection depth d of an interval cut into n pieces spans 1 / (n 2^d) of
    it, and its share is that fraction of the interval's running total.
    Accepted panels accumulate into out[owner] through logaddexp; an
    interval is depth-limited when it accepted a panel only because the
    panel reached the depth limit.  Every interval sees the same depths,
    shares and accumulation order however the stack splits the set, so its
    result depends on its own panels only.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    full = np.ceil(np.maximum(b - a, 0.0) / MAX_SEG)
    n = np.minimum(full, MAX_PIECES).astype(np.intp)
    limit = MAX_DEPTH + np.ceil(np.log2(np.maximum(full / MAX_PIECES, 1.0))).astype(np.intp)
    owner = np.repeat(np.arange(a.size), n)
    k = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)  # piece index
    step = ((b - a) / np.maximum(n, 1))[owner]
    lo = k * step + a[owner]
    hi = np.where(k + 1 == n[owner], b[owner], (k + 1) * step + a[owner])
    log_n = np.log(np.maximum(n, 1))
    out = np.full(a.size, -np.inf)
    depth_limited = np.zeros(a.size, dtype=bool)

    stack = _by_interval(0, lo, hi, owner, _batch_panel_logs(log_f, lo, hi)[0])
    while stack:  # each array is dropped once its last reader is done
        depth, lo, hi, owner, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left, floor = _batch_panel_logs(log_f, lo, mid)
        right, right_floor = _batch_panel_logs(log_f, mid, hi)
        np.maximum(floor, right_floor, out=floor)
        del right_floor
        split = np.logaddexp(left, right)
        share = (_interval_totals(out, split, owner) - log_n - depth * np.log(2.0))[owner]
        with np.errstate(invalid="ignore"):
            diff = np.subtract(whole, split)
            np.abs(np.expm1(diff, out=diff), out=diff)
            gap = np.maximum(split, share)
            np.exp(np.subtract(split, gap, out=gap), out=gap)
            gap *= diff
        accept = (gap <= RTOL) | (diff <= floor) | ((whole == -np.inf) & (split == -np.inf))
        del whole, diff, gap, share, floor
        at_limit = limit[owner] == depth
        depth_limited[owner[at_limit & ~accept]] = True
        accept |= at_limit
        done = accept & (split > -np.inf)
        np.logaddexp.at(out, owner[done], split[done])
        rest = ~accept
        del at_limit, split, done, accept
        lo = np.concatenate([lo[rest], mid[rest]])
        hi = np.concatenate([mid[rest], hi[rest]])
        del mid
        whole = np.concatenate([left[rest], right[rest]])
        del left, right
        owner = np.concatenate([owner[rest], owner[rest]])
        stack += _by_interval(depth + 1, lo, hi, owner, whole)
    return out, depth_limited
