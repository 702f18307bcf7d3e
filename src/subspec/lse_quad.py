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
CHUNK panels, in one pass over chunks that evaluates the left and then the
right halves of each chunk, which keeps rapidly oscillating profiles (panel
counts in the thousands) cheap.  The working set is bounded by BUDGET =
8192, with one exception: when the panels pending for the next depth
exceed BUDGET, the set splits by interval onto a stack and is refined
depth-first, one part at a time, but an interval is never split.  A
single interval can therefore hold more than BUDGET pending panels: up to
MAX_PIECES * 2^MAX_DEPTH = 262144 when it is no longer than MAX_PIECES *
MAX_SEG = 64, and more on a longer one, whose pieces get extra levels.
The head mass int_0^15.3 phi^2 that auto truncation of the oscillating
profile integrates at eps = 1e-6 pushes one interval of 21682 panels.
The stack defers the panels kept at one depth as parents: their bounds lo
and hi, the int32 index of their interval and the values of their two
halves, 36 bytes per parent, split by interval at BUDGET // 2 parents,
which gives the parts BUDGET children would.  It holds about one part per
depth, so it stays near depth * BUDGET * 18 bytes.  A popped part is
bisected into its pending panels, at the midpoints its parents were split at,
and the parents are dropped.  While a part is refined, each panel holds its
bounds, index and unsplit value, its two halves and an acceptance flag.
One pass over chunks evaluates both halves of a chunk, with one node buffer
for all of the part's batches, and tests the chunk against its rounding
floor, overwriting its unsplit values with their distance to the split
value; the split values are then computed again, to the same bits, for the
relative test.  Each array is dropped once its last reader is done, so the
oscillating psi cache on X = 15 with 60 panels peaks at 1.57 MiB of traced
memory, and that head mass, whose pending panels are never split, at 1.48
MiB.  Each interval keeps its panels in their order, so the result
depends on neither BUDGET nor CHUNK to the last bit.

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

from ._lapack import sterf
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
    sum to 2.  leggauss takes the eigenvalues with numpy's eigvalsh, which
    is LAPACK dsyevd: its reduction to tridiagonal form leaves this already
    tridiagonal matrix as it is (every reflector is the identity) before it
    calls dsterf, so dsterf on the band gives the same nodes (_lapack.sterf,
    called one way on either library: numpy's own OpenBLAS, ILP64, where its
    wheel ships one, else scipy's _flapack at its f2py objects' addresses).
    """
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    band = np.arange(1, order) * scl[:-1] * scl[1:]
    x = sterf(np.zeros(order), band)
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


def _batch_panel_logs(log_f, a, b, nodes):
    """(log of the one-panel Gauss-Legendre integral over each [a_i, b_i],
    its rounding floor), evaluated CHUNK panels at a time.

    Each row of samples is shifted by its finite maximum before the weighted
    sum, so rows of -inf give -inf and rows with a +inf sample give +inf.
    The floor is eps * max(|a_i|, |b_i|) times the secant of log_f across
    the first and last node: the change in log_f that rounding a node
    causes (0 where either sample is not finite).  `nodes`, a (CHUNK,
    ORDER) array the caller reuses, holds each batch's nodes and then its
    shifted samples; the array log_f returns is only read.
    """
    if a.size > CHUNK:
        logs, floor = np.empty(a.size), np.empty(a.size)
        for i in range(0, a.size, CHUNK):
            logs[i:i + CHUNK], floor[i:i + CHUNK] = _batch_panel_logs(
                log_f, a[i:i + CHUNK], b[i:i + CHUNK], nodes)
        return logs, floor
    x, w = gauss_legendre(ORDER)
    half = 0.5 * (b - a)
    pts = np.multiply(half[:, None], x[None, :], out=nodes[:a.size])
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
        shifted = np.subtract(vals, peak[:, None], out=pts)  # pts is not read again
        del vals
        np.exp(shifted, out=shifted)
        total = np.einsum("ij,j->i", shifted, w)
        return np.log(total) + peak + np.log(half), floor


def _interval_totals(out, split, owner):
    """log of each interval's accepted mass `out` plus its pending `split`s."""
    peak = out.copy()
    np.maximum.at(peak, owner, split)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = peak[owner]
        np.exp(np.subtract(split, scaled, out=scaled), out=scaled)
        mass = np.exp(out - peak) + np.bincount(owner, scaled, minlength=out.size)
        return np.log(mass) + peak


def _by_interval(budget, depth, lo, hi, owner, *values):
    """Stack entries (depth, lo, hi, owner, *values) for a pending set: one
    entry, or, above `budget` rows, one per run of whole intervals holding
    about `budget` rows, the first on top.  An interval is never split, so
    an entry exceeds `budget` when one interval alone has more rows; a set
    that falls into one run comes back as the arrays it was given.  Each
    interval keeps its rows in their order."""
    if owner.size <= budget:
        return [(depth, lo, hi, owner, *values)] if owner.size else []
    count = np.bincount(owner)
    start = np.cumsum(count) - count
    if start[-1] < budget:  # every interval starts in the first run
        return [(depth, lo, hi, owner, *values)]
    part = (start // budget)[owner]
    order = np.argsort(part, kind="stable")
    cuts = np.flatnonzero(np.diff(part[order])) + 1
    return [(depth, lo[i], hi[i], owner[i], *(v[i] for v in values))
            for i in np.split(order, cuts)[::-1]]


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
    owner = np.repeat(np.arange(a.size, dtype=np.int32), n)
    k = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)  # piece index
    step = ((b - a) / np.maximum(n, 1))[owner]
    lo = k * step + a[owner]
    hi = np.where(k + 1 == n[owner], b[owner], (k + 1) * step + a[owner])
    log_n = np.log(np.maximum(n, 1))
    out = np.full(a.size, -np.inf)
    depth_limited = np.zeros(a.size, dtype=bool)

    whole = _batch_panel_logs(log_f, lo, hi, np.empty((CHUNK, ORDER)))[0]
    stack = _by_interval(BUDGET, 0, lo, hi, owner, whole)
    del k, step, lo, hi, owner, whole
    while stack:  # each array is dropped once its last reader is done
        depth, lo, hi, owner, *whole = stack.pop()
        if depth:  # the parents kept at depth - 1: bisect them into their children
            mid = 0.5 * (lo + hi)  # the midpoints of their half passes, bit for bit
            lo = np.concatenate([lo, mid])
            hi = np.concatenate([mid, hi])
            del mid
            owner = np.concatenate([owner, owner])
        whole = np.concatenate(whole)  # their halves, or the pieces' values
        left, right = np.empty(lo.size), np.empty(lo.size)
        accept = np.empty(lo.size, dtype=bool)
        nodes = np.empty((CHUNK, ORDER))  # every batch's nodes, then its shifted samples
        for i in range(0, lo.size, CHUNK):  # both halves of one chunk, then its floor test
            part = slice(i, i + CHUNK)
            mid = 0.5 * (lo[part] + hi[part])
            left[part], floor = _batch_panel_logs(log_f, lo[part], mid, nodes)
            right[part], right_floor = _batch_panel_logs(log_f, mid, hi[part], nodes)
            del mid
            np.maximum(floor, right_floor, out=floor)
            split = np.logaddexp(left[part], right[part])
            diff = whole[part]  # a view: the floor test overwrites the unsplit values
            accept[part] = (diff == -np.inf) & (split == -np.inf)
            with np.errstate(invalid="ignore"):
                np.subtract(diff, split, out=diff)  # the unsplit value is not read again
                np.abs(np.expm1(diff, out=diff), out=diff)
                accept[part] |= diff <= floor
        del nodes, diff
        split = np.logaddexp(left, right)  # each chunk's split again, to the same bits
        with np.errstate(invalid="ignore"):
            gap = (_interval_totals(out, split, owner) - log_n - depth * np.log(2.0))[owner]
            np.maximum(split, gap, out=gap)  # the share, or split where it is larger
            np.exp(np.subtract(split, gap, out=gap), out=gap)
            gap *= whole  # |expm1(whole - split)|, from the chunk loop
            accept |= gap <= RTOL
        del whole, gap
        at_limit = (limit == depth)[owner]
        depth_limited[owner[at_limit & ~accept]] = True
        accept |= at_limit
        done = accept & (split > -np.inf)
        np.logaddexp.at(out, owner[done], split[done])
        rest = ~accept
        del at_limit, split, done, accept
        lo, hi, owner = lo[rest], hi[rest], owner[rest]
        left, right = left[rest], right[rest]
        del rest
        stack += _by_interval(BUDGET // 2, depth + 1, lo, hi, owner, left, right)
    return out, depth_limited
