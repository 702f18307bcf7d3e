"""Half-line Schrodinger operators built from a positive profile phi.

The submodules follow the pipeline:

    lse_quad        adaptive log-space quadrature, the one integrator
    phi_models      profiles phi, decay metadata, discreteness verdicts
    subordinate     the psi cache (I and psi at grid nodes), Wronskian check
    green_kernel    the exponential kernel bound, audited on T's psi cache
    discretization  quadrature grids, auto truncation, int_0^X phi^2 and T
    spectral        eigenvalues, comparisons and the weighted identity check
    scattering      trace-norm criteria for phi = exp(-c x - zeta)
    oracle_fd       independent finite-difference Dirichlet solver
    cli             config-driven command line front end

Imports here are lazy so the CLI can pin BLAS thread counts before numpy
loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "discretization",
    "errors",
    "green_kernel",
    "lse_quad",
    "oracle_fd",
    "phi_models",
    "scattering",
    "spectral",
    "subordinate",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
