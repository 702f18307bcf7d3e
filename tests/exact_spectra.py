"""Exact Dirichlet eigenvalues of the half-oscillator profiles
phi = exp(-b x - a x^2 / 2), a > 0: test references that share no code with
subspec (no psi cache, no lse_quad, no T).

V = phi''/phi = (a x + b)^2 - a.  With z = sqrt(2a) (x + b/a), the solution
of -g'' + V g = lambda g that decays at infinity is the parabolic cylinder
function D_nu(z) with nu = lambda / (2a), so the Dirichlet condition at
x = 0 reads D_nu(b sqrt(2/a)) = 0.  For b = 0, D_nu(0) vanishes exactly at
odd nu, so lambda_k = 2a (2k - 1).

The roots in nu are bracketed by a scan of step NU_STEP and refined by
mpmath's bracketing solver at DIGITS significant digits.  The scan starts
at NU_STEP / 2, so that it never lands on an odd nu itself; for b >= 0, V
is at least its b = 0 value, so no root lies below nu = 1.  Roots closer
than NU_STEP would be missed; their spacing tends to 2 (lambda spacing 4a).
"""

from __future__ import annotations

import functools

import numpy as np

DIGITS = 30
NU_STEP = 0.125


@functools.lru_cache(maxsize=None)
def half_oscillator_eigenvalues(a: float, b: float, count: int) -> np.ndarray:
    """The lowest `count` Dirichlet eigenvalues lambda = 2 a nu of
    phi = exp(-b x - a x^2 / 2), a > 0 and b >= 0, ascending, cached for the
    life of the process."""
    import mpmath

    assert a > 0 and b >= 0, (a, b)

    with mpmath.workdps(DIGITS):
        z0 = mpmath.mpf(b) * mpmath.sqrt(2 / mpmath.mpf(a))
        d = lambda nu: mpmath.pcfd(nu, z0)
        roots = []
        lo = mpmath.mpf(NU_STEP) / 2
        f_lo = d(lo)
        while len(roots) < count:
            hi = lo + NU_STEP
            f_hi = d(hi)
            if f_hi == 0:
                roots.append(hi)
            elif f_lo * f_hi < 0:
                # at 30 digits the residual can miss mpmath's default check
                nu = mpmath.findroot(d, (lo, hi), solver="anderson", verify=False)
                assert lo <= nu <= hi, (lo, nu, hi)
                roots.append(nu)
            lo, f_lo = hi, f_hi
        return np.array([float(2 * a * nu) for nu in roots])
