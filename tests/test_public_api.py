"""Guards on the public surface: one quadrature tolerance, no unused knobs,
one matrix representation, one kernel parameter."""

import importlib
import inspect
from pathlib import Path

import subspec
from subspec import discretization, errors, green_kernel, lse_quad, scattering, spectral

# parameters no caller ever set; they are module constants now
RETIRED = {
    "convergence_sweep": {"order"},
    "cross_validate": {"fd_N", "order"},
    "trace_report": {"order", "profile_points"},
    "converged_mask": {"tol"},
    "turning_point": {"x_max"},
    "wronskian_residual": {"h"},
    "derivative_route_bound": {"k"},
    "inv_power_profile": {"k"},
}


def _public_callables():
    """(qualified name, bare name, signature) of every public function,
    class and method defined in a subspec module."""
    out = []
    for name in subspec._SUBMODULES:
        mod = importlib.import_module(f"subspec.{name}")
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__
                    or isinstance(obj, type) and issubclass(obj, BaseException)):
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                out.append((f"{name}.{attr}", attr, inspect.signature(obj)))
            if inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if inspect.isfunction(meth) and not mname.startswith("_"):
                        out.append((f"{name}.{attr}.{mname}", mname,
                                    inspect.signature(meth)))
    return out


def test_no_public_callable_takes_rtol():
    found = _public_callables()
    assert len(found) > 80
    assert [q for q, _, sig in found if "rtol" in sig.parameters] == []
    assert lse_quad.RTOL == 1e-12
    assert not hasattr(lse_quad, "DEFAULT_RTOL")


def test_retired_parameters_stay_constants():
    seen = set()
    for qual, attr, sig in _public_callables():
        if attr in RETIRED:
            seen.add(attr)
            assert not RETIRED[attr] & set(sig.parameters), qual
    assert seen == set(RETIRED)


def test_one_spelling_per_kernel_and_thread_setting():
    for gone in ("KernelKind", "KERNEL_VARIANTS", "robin"):
        assert not hasattr(green_kernel, gone)
    cli_source = Path(subspec.cli.__file__).read_text()
    assert "SUBSPEC_THREADS" not in cli_source


def test_one_matrix_representation():
    names = {attr for _, attr, _ in _public_callables()}
    gone = {"assemble_kernel", "KernelMatrix", "operator_norm", "matrix_to_csv",
            "numeric_trace_norm", "factor"}
    assert not gone & names
    assert [q for q, _, sig in _public_callables() if "psi_source" in sig.parameters] == []
    src = Path(subspec.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text()
        # no dense eigensolve, SVD or solve: scipy.linalg's banded and
        # tridiagonal routines only
        assert "np.linalg." not in text and "svd" not in text, path.name


def test_gamma_is_one_real_number():
    """gamma = 0 is the Dirichlet kernel; no kernel object, no mu floor, no
    second spelling of lambda, no unread fields."""
    names = {attr for _, attr, _ in _public_callables()}
    assert not {"KernelKind", "lambdas", "table"} & names
    assert not hasattr(errors, "NonHermitianError")
    assert not hasattr(spectral, "MU_NOISE_FACTOR")

    def fields(cls):
        return list(inspect.signature(cls).parameters)
    assert fields(spectral.SpectralResult) == ["mu", "lam", "norm_estimate", "converged"]
    assert not hasattr(spectral.SpectralResult, "mu_floor")
    assert fields(discretization.JacobiMatrix) == ["diag", "off", "gamma", "quad"]
    assert "provenance" not in fields(scattering.ScatteringReport)
    assert "kind" not in inspect.signature(discretization.convergence_sweep).parameters
    gamma = inspect.signature(discretization.assemble_jacobi).parameters["gamma"]
    assert gamma.default == 0.0
