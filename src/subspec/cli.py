"""Config-driven command line front end.

    subspec run <config> [--out DIR] [--threads K]

The config is flat ``key = value`` text with dotted sections, e.g.::

    task = spectrum
    phi.kind = stretched-exp
    phi.c = 2
    resolution.X = 8
    output_dir = out

Tasks (_TASKS): spectrum, compare, robin, scatter, validate, oracle; all but
oracle take their grid from _grid.  Numeric CSV output uses full round-trip
precision ("%.17g"); report.txt carries the human summary.  Exit status: 0
success, 2 validation failure, 1 error, an unreadable config among them.

Thread control is applied by exporting the BLAS pool variables before numpy
is imported, which is why every numeric import in this module is local.
Expression-valued keys (custom-log-profile) are evaluated in a restricted
numpy namespace; configs are trusted input.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import ConfigError, InvalidParameterError, NoDecayDetectedError, SubspecError

# the keys besides kind that build_phi reads from a profile block (phi.* or
# compare.phi2.*) of each kind; a decay.* key is read only with decay.rate
_KIND_KEYS = {
    "exp-decay": ("c",),
    "power": ("c",),
    "stretched-exp": ("c",),
    "oscillating": (),
    "scattering-profile": ("c", "zeta.k", "zeta.alpha"),
    "tabulated": ("csv",),
    "custom-log-profile": ("log_expr", "dlog_expr", "d2log_expr", "label", "decay.rate",
                           "decay.c1", "decay.c2", "decay.sigma_expr", "decay.dsigma_expr"),
}
_GRID_KEYS = ("resolution.X", "resolution.eps", "resolution.panels", "resolution.order")


def _phi_keys(prefix: str) -> tuple:
    names = dict.fromkeys(name for kind_keys in _KIND_KEYS.values() for name in kind_keys)
    return tuple(f"{prefix}.{name}" for name in ("kind", *names))


G17 = lambda v: format(float(v), ".17g")


class RunConfig(NamedTuple):
    task: str
    options: dict
    output_dir: Path = Path("out")

    def get(self, key, default=None):
        return self.options.get(key, default)

    def require(self, key):
        if key not in self.options:
            raise ConfigError(f"missing required config key '{key}'")
        return self.options[key]

    def get_float(self, key, default=None):
        v = self.get(key, default)
        return None if v is None else _number(key, v)

    def get_int(self, key, default=None):
        """A count: every integer key must be a whole number >= 1."""
        v = self.get_float(key, default)
        if v is None:
            return None
        if v != int(v) or v < 1:
            raise ConfigError(f"config key '{key}' must be a whole number >= 1, "
                              f"got {self.get(key, default)!r}")
        return int(v)


def _number(key: str, text) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"config key '{key}' is not a number: {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"config key '{key}' is not finite: {text!r}")
    return v


def parse_config(text: str) -> RunConfig:
    opts = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in opts:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        opts[key] = value
        lines[key] = lineno
    task = opts.pop("task", None)
    if task not in _TASKS:
        raise ConfigError(f"task must be one of {tuple(_TASKS)}, got {task!r}")
    out = Path(opts.pop("output_dir", "out"))
    for key in opts:
        if key not in _TASKS[task][1]:
            raise ConfigError(f"line {lines[key]}: unknown key '{key}' for task {task}")
    return RunConfig(task=task, options=opts, output_dir=out)


_EXPR_NAMES = ("sin", "cos", "tan", "exp", "log", "log1p", "sqrt", "abs",
               "sinh", "cosh", "tanh", "arctan", "minimum", "maximum")


def _compile_expr(expr: str, what: str):
    import numpy as np
    ns = {name: getattr(np, name) for name in _EXPR_NAMES}
    ns.update(pi=np.pi, e=np.e)
    try:
        code = compile(expr, f"<{what}>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"{what}: bad expression {expr!r}: {exc}") from None
    unknown = sorted(set(code.co_names) - set(ns) - {"x"})
    if unknown:
        raise ConfigError(f"config key '{what}' uses unknown name {unknown[0]!r} in {expr!r}")

    def fn(x, _code=code, _ns=ns):
        try:
            out = eval(_code, {"__builtins__": {}}, {**_ns, "x": np.asarray(x, dtype=float)})
            return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy() \
                if np.ndim(out) == 0 else out
        except Exception as exc:
            raise ConfigError(f"config key '{what}' = {expr!r} fails when evaluated: "
                              f"{type(exc).__name__}: {exc}") from None
    return fn


def build_phi(cfg: RunConfig, prefix: str = "phi"):
    """Realize the profile block `prefix` (phi or compare.phi2) into a
    PhiModel; a key of the block that its kind does not read is an error."""
    import numpy as np
    from .phi_models import DecayInfo, inv_power_zeta, make_phi

    key = lambda name: f"{prefix}.{name}"

    def checked(name, build, **params):
        # make_phi and inv_power_zeta own the parameter ranges; name the key
        try:
            return build(**params)
        except InvalidParameterError as exc:
            raise ConfigError(f"config key '{key(name)}' is out of range: {exc}") from None

    kind = cfg.require(key("kind"))
    if kind not in _KIND_KEYS:
        raise ConfigError(f"unknown {key('kind')} '{kind}'")
    with_decay = cfg.get(key("decay.rate")) is not None
    reads = {key(name) for name in ("kind", *_KIND_KEYS[kind])
             if with_decay or not name.startswith("decay.")}
    for given in cfg.options:
        if given.startswith(f"{prefix}.") and given not in reads:
            raise ConfigError(f"config key '{given}' is not read by {key('kind')} = {kind}")

    if kind in ("exp-decay", "power", "stretched-exp"):
        return checked("c", make_phi, kind=kind, c=cfg.get_float(key("c"), 1.0))
    if kind == "oscillating":
        return make_phi(kind)
    if kind == "scattering-profile":
        zeta = checked("zeta.alpha", inv_power_zeta, k=cfg.get_float(key("zeta.k"), 1.0),
                       alpha=cfg.get_float(key("zeta.alpha"), 1.0))
        return checked("c", make_phi, kind=kind, c=cfg.get_float(key("c"), 1.0), zeta=zeta)
    if kind == "tabulated":
        path = cfg.require(key("csv"))
        try:
            data = np.loadtxt(path, delimiter=",", dtype=float)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config key '{key('csv')}': {exc}") from None
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigError(f"config key '{key('csv')}': {path}: "
                              "expected two columns (x, phi)")
        return make_phi(kind, x=data[:, 0], values=data[:, 1])
    # custom-log-profile
    expr = lambda name: _compile_expr(cfg.require(key(name)), key(name))
    log_phi = expr("log_expr")
    decay = None
    if with_decay:
        for name in ("decay.rate", "decay.c1", "decay.c2"):
            if (v := cfg.get_float(key(name), 1.0)) <= 0.0:
                raise ConfigError(f"config key '{key(name)}' must be positive, got {v:g}")
        decay = DecayInfo(rate=cfg.get_float(key("decay.rate")),
                          c_lower=cfg.get_float(key("decay.c1"), 1.0),
                          c_upper=cfg.get_float(key("decay.c2"), 1.0),
                          sigma=expr("decay.sigma_expr"), dsigma=expr("decay.dsigma_expr"))
    return make_phi(kind, log_phi=log_phi,
                    dlog_phi=expr("dlog_expr") if cfg.get(key("dlog_expr")) else None,
                    d2log_phi=expr("d2log_expr") if cfg.get(key("d2log_expr")) else None,
                    decay=decay,
                    label=cfg.get(key("label"), f"custom[{cfg.get(key('log_expr'))}]"))


_VERDICTS = {True: "yes", False: "no", None: "undecided"}


def _discrete_line(*models) -> str:
    """The report line with the discreteness verdict (PhiModel.discrete) of
    each profile, naming the profiles when a task has two."""
    if len(models) == 1:
        return f"discrete spectrum = {_VERDICTS[models[0].discrete]}"
    return "discrete spectrum = " + ", ".join(f"{_VERDICTS[m.discrete]} for {m.label}"
                                               for m in models)


def _grid(cfg: RunConfig, models, notes: list, memo: Optional[dict] = None,
          X_default=None):
    """(quad, X, panels, order) of every task but oracle: one rule.

    X is resolution.X, else X_default, else the largest auto truncation of
    `models` at resolution.eps (AUTO_X_END, with a note, for a profile that
    has none); panels default to discretization.default_panels(X).  memo,
    given with one model, keeps the head masses that auto truncation
    integrates (discretization.mass).
    """
    from .discretization import (AUTO_X_END, ORDER, auto_truncation, build_quadrature,
                                 default_panels)
    X = cfg.get_float("resolution.X", X_default)
    if X is not None and X <= 0.0:
        raise ConfigError(f"config key 'resolution.X' must be positive, got {X:g}")
    order = cfg.get_int("resolution.order", ORDER)
    if order < 2:
        raise ConfigError(f"config key 'resolution.order' must be a whole number >= 2, "
                          f"got {cfg.get('resolution.order')!r}")
    panels = cfg.get_int("resolution.panels")
    eps = cfg.get_float("resolution.eps", 1e-6)
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"config key 'resolution.eps' must lie in (0, 1), got {eps:g}")
    if X is None:
        X = 0.0
        for m in models:
            try:
                X = max(X, auto_truncation(m, eps, memo))
            except NoDecayDetectedError:
                X = AUTO_X_END
                notes.append(f"{m.label}: phi has not stayed below resolution.eps = {eps:g} "
                             f"by x = {AUTO_X_END:g}")
        notes.append(f"auto truncation X = {X:.6g}")
    if panels is None:
        panels = default_panels(X)
    return build_quadrature(X, panels, order), X, panels, order


def _jacobi(cfg: RunConfig, prefix: str, model, quad, notes: list, gamma=0.0, which=""):
    """The matrix T of the profile block `prefix` on the task grid `quad`.

    A custom-log-profile must give a finite log phi on the grid.  A note
    says where T's psi cache accepted quadrature panels only at the depth
    limit; `which` tells the cache apart when a task builds two (two
    profiles, or two grids).
    """
    import numpy as np
    from .discretization import assemble_jacobi
    if cfg.get(f"{prefix}.kind") == "custom-log-profile":
        with np.errstate(all="ignore"):
            bad = ~np.isfinite(model.log_phi(quad.nodes))
        if np.any(bad):
            raise ConfigError(f"{prefix}.log_expr = {cfg.get(f'{prefix}.log_expr')} is not "
                              f"finite at x = {quad.nodes[bad][0]:.6g} on the task grid")
    T = assemble_jacobi(model, quad, gamma)
    cache = T.cache
    if cache.unresolved_segments:
        notes.append(f"psi quadrature{which} unresolved in {cache.unresolved_segments} of "
                     f"{cache.grid.size} segments (accepted at the depth limit), "
                     f"the first from x = {cache.first_unresolved_x:.6g}")
    return T


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# Task runners compute, write their CSV and return (exit status, report
# lines); run() owns the output directory, the notes and report.txt.

def _task_spectrum(cfg: RunConfig, outdir: Path, notes: list):
    import numpy as np
    from .discretization import AUTO_X_END, build_quadrature
    from .spectral import converged_mask, eigen_mu, write_spectrum_csv

    model = build_phi(cfg)
    fine, X, panels, order = _grid(cfg, [model], notes)
    n_keep = cfg.get_int("spectrum.n_keep", 25)
    mu = eigen_mu(_jacobi(cfg, "phi", model, fine, notes), n_keep)
    verdict = _discrete_line(model)
    # auto truncation found no X (it never gives AUTO_X_END itself): phi has
    # not decayed on the window, so agreement of two grids certifies nothing
    no_decay = cfg.get_float("resolution.X") is None and X == AUTO_X_END
    if model.discrete is False or no_decay:  # no row is claimed: no half-panel grid
        converged = np.zeros(mu.size, dtype=bool)
        verdict += f": the rows are eigenvalues of the window [0, {X:.6g}], none converged"
    elif panels > 1:  # converged: unmoved on the grid with half the panels
        coarse = _jacobi(cfg, "phi", model, build_quadrature(X, panels // 2, order), notes,
                         which=" on the half-panel grid")
        converged = converged_mask(mu, eigen_mu(coarse, n_keep))
    else:
        converged = np.zeros(mu.size, dtype=bool)
        notes.append("one panel has no coarser grid: no eigenvalue is claimed converged")
    write_spectrum_csv(mu, converged, outdir / "spectrum.csv")
    return 0, [f"model = {model.label}", verdict,
               f"X = {X:.6g}, panels = {panels}, order = {order}",
               f"norm estimate = {mu[0]:.6g}",
               f"converged top eigenvalues = {int(converged.sum())} / {mu.size}"]


def _task_compare(cfg: RunConfig, outdir: Path, notes: list):
    import numpy as np
    from .spectral import compare_spectra, eigen_mu

    model1 = build_phi(cfg, "phi")
    model2 = build_phi(cfg, "compare.phi2")
    c = cfg.get_float("compare.c")
    if c is not None and c <= 0.0:
        raise ConfigError(f"config key 'compare.c' must be positive, got {c:g}")
    quad, X, _, _ = _grid(cfg, [model1, model2], notes)
    n_keep = cfg.get_int("spectrum.n_keep", 20)
    mu1, mu2 = [eigen_mu(_jacobi(cfg, prefix, m, quad, notes, which=f" of {m.label}"), n_keep)
                for prefix, m in (("phi", model1), ("compare.phi2", model2))]
    if c is None:
        grid = np.linspace(0.0, X, 2001)
        diff = model2.log_phi(grid) - model1.log_phi(grid)
        with np.errstate(over="ignore"):  # c = inf gives the band [0, inf]
            c = float(np.exp(np.max(np.abs(diff))))
        notes.append(f"measured ratio bound c = {c:.6g}")
    report = compare_spectra(mu1, mu2, c)
    lo, hi = report.band
    _write_csv(outdir / "compare.csv", "n,mu1,mu2,ratio,in_band",
               ((str(n), G17(m1), G17(m2), G17(r), str(bool(lo <= r <= hi)))
                for n, (m1, m2, r) in enumerate(zip(mu1, mu2, report.ratios), 1)))
    return (0 if report.holds else 2), [
        f"model1 = {model1.label}", f"model2 = {model2.label}",
        _discrete_line(model1, model2),
        f"c = {c:.6g}, band = [{lo:.6g}, {hi:.6g}]",
        f"measured ratio band = [{report.measured_band[0]:.6g}, "
        f"{report.measured_band[1]:.6g}]",
        f"holds = {report.holds} (worst n = {report.worst_n})"]


def _task_robin(cfg: RunConfig, outdir: Path, notes: list):
    import numpy as np
    from .discretization import mass
    from .spectral import eigen_mu, robin_sigma, write_spectrum_csv

    model = build_phi(cfg)
    gamma = _number("robin.gamma", cfg.require("robin.gamma"))
    if gamma == 0.0:
        raise ConfigError("config key 'robin.gamma' must be nonzero (gamma = 0 is the "
                          "Dirichlet kernel of task spectrum)")
    masses = {}  # int_0^X phi^2 by X: auto truncation's head is often [0, X]
    quad, X, _, _ = _grid(cfg, [model], notes, masses)
    mu = eigen_mu(_jacobi(cfg, "phi", model, quad, notes, gamma))
    write_spectrum_csv(mu, np.zeros(mu.size, dtype=bool), outdir / "robin_spectrum.csv")
    # G_gamma - G = gamma phi(x) phi(y), so the weighted diagonals differ by
    # gamma w_i phi(x_i)^2
    trace_diff = gamma * float(np.sum(quad.weights * np.exp(2.0 * model.log_phi(quad.nodes))))
    sigma = robin_sigma(model, gamma) if model.dlog_phi is not None else float("nan")
    return 0, [f"model = {model.label}", _discrete_line(model), f"gamma = {gamma:.6g}",
               f"boundary sigma = {sigma:.6g}",
               f"trace(G_gamma) - trace(G) = {trace_diff:.6g} "
               f"(gamma int_0^X phi^2 = {gamma * mass(model, X, masses):.6g})",
               f"most negative mu = {float(mu[-1]):.6g}" if mu[-1] < 0.0
               else "no negative mu"]


def _task_scatter(cfg: RunConfig, outdir: Path, notes: list):
    from .scattering import example_scatt_sweep

    raw = cfg.get("scatter.alpha_list", "0.5,1,1.5,2,4")
    alphas = [_number("scatter.alpha_list", tok.strip()) for tok in raw.split(",") if tok.strip()]
    if not alphas:
        raise ConfigError(f"config key 'scatter.alpha_list' lists no alpha: {raw!r}")
    if min(alphas) <= 0.0:
        raise ConfigError(f"config key 'scatter.alpha_list' must list positive alphas, "
                          f"got {raw!r}")
    c = cfg.get_float("scatter.c", 1.0)
    if c <= 0.0:
        raise ConfigError(f"config key 'scatter.c' must be positive, got {c:g}")
    quad, X, _, _ = _grid(cfg, (), notes, X_default=50.0)
    rows = example_scatt_sweep(alphas, c, quad)
    columns = ("alpha", "trace_numeric", "bound_nu_route", "bound_derivative_route")
    _write_csv(outdir / "scatter.csv", ",".join(columns) + ",criterion_met",
               ([G17(r[col]) for col in columns] + [str(r["criterion_met"])] for r in rows))
    lines = [f"c = {c:.6g}", f"X = {X:.6g}"]
    for r in rows:
        lines.append(f"alpha={r['alpha']:.6g}: trace={r['trace_numeric']:.6g} "
                     f"nu-bound={r['bound_nu_route']:.6g} "
                     f"deriv-bound={r['bound_derivative_route']:.6g} "
                     f"criterion_met={r['criterion_met']}")
    return 0, lines


def _task_validate(cfg: RunConfig, outdir: Path, notes: list):
    import numpy as np
    from .discretization import mass
    from .green_kernel import exp_bound_margin
    from .phi_models import verify_decay_hypothesis
    from .spectral import weighted_identity_residual
    from .subordinate import wronskian_residual

    model = build_phi(cfg)
    masses = {}  # as in robin
    quad, X, panels, order = _grid(cfg, [model], notes, masses)
    T = _jacobi(cfg, "phi", model, quad, notes)
    checks = []

    if model.decay is not None:
        margin = verify_decay_hypothesis(model, np.linspace(0.0, X, 401))
        checks.append(("decay sandwich", margin >= -1e-12, margin))
        audit = exp_bound_margin(model, T)
        checks.append(("kernel bound audit", audit >= -1e-12, audit))

    nodes = np.linspace(0.25, min(X, 5.0), 12)
    tol_w = 1e-3 if model.dlog_phi is None else 1e-6
    wr = wronskian_residual(model, nodes)
    checks.append((f"wronskian residual <= {tol_w:g}", wr <= tol_w, wr))

    # Cauchy-Schwarz: x^2 <= int_0^x phi^2 I(x) <= int_0^X phi^2 psi/phi, in
    # logs, as I(x) overflows (from x = 17.93 on stretched-exp(2))
    log_ratio = 2.0 * np.log(quad.nodes) - np.log(mass(model, X, masses)) - T.cache.log_I_nodes
    checks.append(("growth bound x^2 <= int_0^X phi^2 psi/phi",
                   bool(np.all(log_ratio <= np.log1p(1e-9))), float(np.exp(np.max(log_ratio)))))

    reach = f"accuracy checks reach x = {nodes[-1]:.6g} (wronskian nodes)"
    if model.dlog_phi is not None:
        x0 = min(3.0, 0.5 * X)
        wi = weighted_identity_residual(model, T, x0=x0)
        checks.append(("weighted identity residual <= 1e-3", wi <= 1e-3, wi))
        reach += f" and x = {x0:.6g} (weighted identity ramp)"
    if T.cache.unresolved_segments:
        notes.append(f"{reach}; the psi quadrature is unresolved from x = "
                     f"{T.cache.first_unresolved_x:.6g}")

    lines = [f"model = {model.label}", f"X = {X:.6g}, panels = {panels}, order = {order}"]
    ok = True
    for name, passed, value in checks:
        ok &= bool(passed)
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name} (value = {value:.6g})")
    lines.append("all checks passed" if ok else "VALIDATION FAILED")
    return (0 if ok else 2), lines


def _task_oracle(cfg: RunConfig, outdir: Path, notes: list):
    from .oracle_fd import cross_validate

    model = build_phi(cfg)
    k = cfg.get_int("oracle.k", 5)
    lam_green, lam_fd = cross_validate(model, k)
    rel_err = [abs(g - f) / abs(f) for g, f in zip(lam_green, lam_fd)]
    _write_csv(outdir / "oracle.csv", "n,lambda_green,lambda_fd,rel_err",
               ((str(n), G17(g), G17(f), G17(r))
                for n, (g, f, r) in enumerate(zip(lam_green, lam_fd, rel_err), 1)))
    return 0, [f"model = {model.label}", f"k = {k}",
               f"max relative error = {max(rel_err):.6g}"]


# each task's runner and every key it reads besides task and output_dir;
# anything else is a typo
_TASKS = {
    "spectrum": (_task_spectrum, _phi_keys("phi") + _GRID_KEYS + ("spectrum.n_keep",)),
    "compare": (_task_compare, _phi_keys("phi") + _phi_keys("compare.phi2") + _GRID_KEYS
                + ("spectrum.n_keep", "compare.c")),
    "robin": (_task_robin, _phi_keys("phi") + _GRID_KEYS + ("robin.gamma",)),
    "scatter": (_task_scatter, ("resolution.X", "resolution.panels", "resolution.order",
                                "scatter.c", "scatter.alpha_list")),
    "validate": (_task_validate, _phi_keys("phi") + _GRID_KEYS),
    "oracle": (_task_oracle, _phi_keys("phi") + ("oracle.k",)),
}


def run(config: RunConfig) -> int:
    """Execute one task pipeline; returns the process exit status.

    report.txt holds the task line, the runner's lines and then the notes
    collected along the way (auto truncation, measured bounds, unresolved quadrature).
    """
    outdir = config.output_dir
    notes = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        status, lines = _TASKS[config.task][0](config, outdir, notes)
    except (SubspecError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {config.task}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    (outdir / "report.txt").write_text("\n".join([f"task = {config.task}", *lines, *notes])
                                       + "\n")
    return status


def run_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="subspec")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a config-driven task")
    runp.add_argument("config", type=Path)
    runp.add_argument("--out", type=Path, default=None)
    runp.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    if args.threads is not None:
        if args.threads < 1:
            print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
            return 1
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    try:
        config = parse_config(args.config.read_text())
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not text
        print(f"error: cannot read config file {args.config}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        config = config._replace(output_dir=args.out)
    return run(config)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
