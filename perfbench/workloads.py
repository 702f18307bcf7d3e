"""The benchmark's workloads: fixed `subspec run` configs.

Every config pins resolution.X, resolution.panels and resolution.order
(the oracle task takes no resolution keys), so a workload stays the same
problem when the package's resolution policy changes.  The workload seed
only shuffles the order of configs within a pass.
"""

from __future__ import annotations

from dataclasses import dataclass

# CLI tasks -> the subspec modules the task runner imports
TASK_MODULES = {
    "spectrum": ("discretization", "green_kernel", "phi_models", "spectral"),
    "compare": ("discretization", "green_kernel", "phi_models", "spectral"),
    "robin": ("discretization", "green_kernel", "phi_models", "spectral"),
    "validate": ("discretization", "green_kernel", "phi_models", "spectral", "subordinate"),
    "scatter": ("scattering",),
    "oracle": ("oracle_fd", "phi_models"),
}

# CSV files each task writes besides report.txt
TASK_OUTPUTS = {
    "spectrum": ("spectrum.csv",),
    "compare": ("compare.csv",),
    "robin": ("robin_spectrum.csv",),
    "validate": (),
    "scatter": ("scatter.csv",),
    "oracle": ("oracle.csv",),
}


@dataclass(frozen=True)
class Config:
    name: str
    task: str
    text: str

    @property
    def outputs(self) -> tuple:
        return TASK_OUTPUTS[self.task] + ("report.txt",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple

    @property
    def modules(self) -> tuple:
        """subspec modules a fresh interpreter loads for this workload."""
        mods = {"cli"}
        for cfg in self.configs:
            mods.update(TASK_MODULES[cfg.task])
        return tuple(sorted(mods))


def _config(name: str, task: str, body: str, X=None, panels=None) -> Config:
    text = f"task = {task}\n{body.strip()}\n"
    if X is not None:
        text += f"resolution.X = {X}\nresolution.panels = {panels}\nresolution.order = 10\n"
    return Config(name, task, text)


STRETCHED = "phi.kind = stretched-exp\nphi.c = 2"
OSCILLATING = "phi.kind = oscillating"

WORKLOADS = {w.name: w for w in (
    Workload(
        "dense-spectra",
        "dense N=4000 eigensolves and kernel assembly dominate; quadrature is ~1%",
        (
            _config("spectrum", "spectrum", STRETCHED, X=8, panels=400),
            _config("robin", "robin", STRETCHED + "\nrobin.gamma = -0.5", X=8, panels=400),
        )),
    Workload(
        "oscillating-quad",
        "adaptive log-space quadrature of exp(-x - sin e^x) dominates; the eigensolve is ~0.5%",
        (
            _config("spectrum", "spectrum", OSCILLATING, X=15, panels=60),
            _config("validate", "validate", OSCILLATING, X=6, panels=240),
        )),
    Workload(
        "task-mix",
        "one small config for each of the six tasks: interpreter and scipy start-up "
        "dominate; the only trace-norm, FD-oracle and custom-expression runs",
        (
            _config("spectrum", "spectrum", STRETCHED, X=3, panels=40),
            _config("compare", "compare",
                    "phi.kind = custom-log-profile\n"
                    "phi.log_expr = -x - 0.5*x**2\n"
                    "phi.dlog_expr = -1 - x\n"
                    "compare.phi2.kind = custom-log-profile\n"
                    "compare.phi2.log_expr = -x - 0.5*x**2 - sin(exp(x))\n"
                    "compare.phi2.dlog_expr = -1 - x - exp(x)*cos(exp(x))\n"
                    "compare.c = 2.718281828459045", X=4.5, panels=40),
            _config("robin", "robin",
                    "phi.kind = exp-decay\nphi.c = 1\nrobin.gamma = -0.5", X=14, panels=56),
            _config("scatter", "scatter",
                    "scatter.c = 1\nscatter.alpha_list = 0.5, 1, 1.5, 2, 4", X=50, panels=100),
            _config("validate", "validate", STRETCHED, X=3, panels=40),
            _config("oracle", "oracle", STRETCHED + "\noracle.k = 5"),
        )),
)}
