"""Guards on the public surface: one quadrature tolerance, no unused knobs,
one matrix representation, one kernel parameter, one way to read I, psi and
phi, one route from a grid to its operator, and no public callable that
only tests use."""

import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import paper_identities
import subspec
from subspec import (discretization, errors, green_kernel, lse_quad, oracle_fd, phi_models,
                     scattering, spectral, subordinate)

# parameters no caller ever set; they are module constants now
RETIRED = {
    "cross_validate": {"fd_N", "order"},
    "converged_mask": {"tol"},
    "turning_point": {"x_max"},
    "wronskian_residual": {"h"},
}

# only tests need these: oracles in tests/dense_oracle.py and
# tests/paper_identities.py (RobinBC as robin_fd_eigenvalues), the expected
# value of one test (kink_bias_estimate), or deleted (compute_xi)
LEFT_THE_PACKAGE = {
    "green_gamma_eval", "factor_kernel_eval", "regularized_potential", "riccati_residual",
    "xi_norms", "xi_norm_bound", "elementary_bound_margin", "nu_is_valid", "growth_exponent",
    "quadratic_form_residual", "zero_zeta", "kink_bias_estimate", "compute_xi", "RobinBC",
    "green_eval", "factorization_forms",
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


def _fields(cls):
    return list(inspect.signature(cls).parameters)


def test_no_public_callable_takes_rtol():
    found = _public_callables()
    # the walker reaches functions, classes and methods alike
    assert {"spectral.eigen_mu", "subordinate.SubordinateCache",
            "discretization.assemble_jacobi"} <= {q for q, _, _ in found}
    assert [q for q, _, sig in found if "rtol" in sig.parameters] == []
    assert lse_quad.RTOL == 1e-12
    assert not hasattr(lse_quad, "DEFAULT_RTOL")


def test_no_public_callable_takes_cache():
    # assemble_jacobi builds the psi cache of its grid; the only constructor
    # that names one is that of the JacobiMatrix it returns (field T.cache)
    takes = [q for q, _, sig in _public_callables() if "cache" in sig.parameters]
    assert takes == ["discretization.JacobiMatrix"]


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
        # the one exception: the order x order Legendre companion matrix of
        # the Gauss rule, whose eigenvalues are numpy's leggauss nodes
        text = text.replace("np.linalg.eigvalsh(np.diag(band, -1) + np.diag(band, 1))", "", 1)
        # no dense eigensolve, SVD or solve: the tridiagonal LAPACK routines
        # dstebz, dpteqr and dgtsv only
        assert "np.linalg." not in text and "svd" not in text, path.name


def test_gamma_is_one_real_number():
    """gamma = 0 is the Dirichlet kernel; no kernel object, no mu floor, no
    second spelling of lambda, no unread fields."""
    names = {attr for _, attr, _ in _public_callables()}
    assert not {"KernelKind", "lambdas", "table"} & names
    assert not hasattr(errors, "NonHermitianError")
    assert not hasattr(spectral, "MU_NOISE_FACTOR")
    assert _fields(discretization.JacobiMatrix) == ["diag", "off", "gamma", "quad", "cache"]
    gamma = inspect.signature(discretization.assemble_jacobi).parameters["gamma"]
    assert gamma.default == 0.0


def test_one_way_to_read_I_psi_and_phi():
    """I and psi are read at the nodes of a SubordinateCache, log phi through
    model.log_phi; no off-node bridge, pointwise wrapper or unread field."""
    names = {attr for _, attr, _ in _public_callables()}
    assert not {"log_int_phi_inv2", "compute_log_psi", "compute_psi", "diagonal_D",
                "eval_log_phi", "eval_phi", "log_I", "log_psi", "psi", "norm_bound"} & names
    assert not hasattr(subordinate, "_neg2_log_phi")
    assert list(inspect.signature(subordinate.wronskian_residual).parameters) == ["model", "nodes"]
    cache = subordinate.SubordinateCache(
        phi_models.make_phi("exp-decay", c=1.0), [1.0])
    assert not hasattr(cache, "model")
    assert "params" not in _fields(phi_models.PhiModel)


def test_one_route_from_a_grid_to_its_operator():
    """No driver re-walks grid -> matrix -> result for a task that computes it,
    no second convergence rule, and tau is read only through model.dlog_phi."""
    names = {attr for _, attr, _ in _public_callables()}
    assert not {"robin_spectrum", "convergence_sweep", "SweepRow", "SweepResult",
                "trace_report", "ScatteringReport", "eval_dlog_phi"} & names
    assert not hasattr(discretization, "CONVERGED_REL")
    assert spectral.CONVERGED_REL == 1e-6
    for mod, gone in ((discretization, "_rel_diff"), (scattering, "XI_PROFILE_POINTS"),
                      (phi_models, "DEFAULT_FD_STEP")):
        assert not hasattr(mod, gone)
    for fn in (paper_identities.quadratic_form_residual, spectral.weighted_identity_residual):
        assert not {"quad", "gamma"} & set(inspect.signature(fn).parameters)


def test_one_nystrom_order():
    assert discretization.ORDER == 10
    for mod, gone in ((discretization, "SWEEP_ORDER"), (scattering, "TRACE_ORDER"),
                      (oracle_fd, "GREEN_ORDER")):
        assert not hasattr(mod, gone)


def test_every_public_callable_serves_the_package():
    """Each public name is used in src/subspec besides its own definition;
    one that only tests call belongs in tests/ as an oracle."""
    text = "\n".join(path.read_text() for path in Path(subspec.__file__).parent.glob("*.py"))
    words = Counter(re.findall(r"\w+", text))
    assert sorted({bare for _, bare, _ in _public_callables() if words[bare] < 2}) == []


def test_test_only_code_and_options_left_the_package():
    assert not LEFT_THE_PACKAGE & {attr for _, attr, _ in _public_callables()}
    assert not hasattr(phi_models.DecayInfo, "triple")
    for mod, gone in ((scattering, "_tail_window"), (spectral, "_extrapolate_to_zero"),
                      (errors, "NonPositiveFError"), (errors, "InsufficientDataError"),
                      (errors, "MissingNuError"), (green_kernel, "_pair_arrays")):
        assert not hasattr(mod, gone)
    # the sweep runs on the grid its caller builds
    sweep = inspect.signature(scattering.example_scatt_sweep).parameters
    assert list(sweep) == ["alpha_list", "c", "quad"]


def test_no_pass_through_types():
    """A profile is make_phi(kind, **params), with one private builder per
    kind; the FD oracle and the cross-check take and return plain values,
    and scatter.csv goes through the CLI's CSV writer."""
    names = {attr for _, attr, _ in _public_callables()}
    assert not {"PhiSpec", "FDProblem", "CrossValidation", "write_sweep_csv",
                "build_phi_spec"} & names
    assert list(inspect.signature(phi_models.make_phi).parameters) == ["kind", "params"]
    assert {q for q, _, _ in _public_callables() if q.startswith("phi_models.")} == {
        "phi_models.Zeta", "phi_models.inv_power_zeta", "phi_models.DecayInfo",
        "phi_models.DecayInfo.kernel_bound_const", "phi_models.DecayInfo.tail_l2sq",
        "phi_models.PhiModel", "phi_models.make_phi",
        "phi_models.verify_decay_hypothesis"}
    assert list(inspect.signature(oracle_fd.fd_eigenvalues).parameters) == [
        "potential", "X", "N", "k"]
    assert list(inspect.signature(paper_identities.robin_fd_eigenvalues).parameters) == [
        "potential", "X", "N", "sigma", "k"]


def test_results_are_plain_arrays_and_numbers():
    """eigen_mu returns the mu array, the decay audit its worst margin, and
    the scattering bounds are closed forms inside the sweep; a grid is its
    nodes and weights."""
    gone = {"SpectralResult", "Nu", "power_nu", "ScatteringProfile", "inv_power_profile",
            "analytic_trace_bound", "derivative_route_bound", "DecayReport"}
    assert not gone & {attr for _, attr, _ in _public_callables()}
    for name in subspec._SUBMODULES:
        assert not gone & set(vars(importlib.import_module(f"subspec.{name}"))), name
    assert list(inspect.signature(spectral.write_spectrum_csv).parameters) == [
        "mu", "converged", "path"]
    assert _fields(discretization.Quadrature) == ["nodes", "weights"]
    assert "c" not in _fields(spectral.ComparisonReport)
