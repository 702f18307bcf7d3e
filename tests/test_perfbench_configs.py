"""Every benchmark config, run in-process through the CLI, writes all its
outputs and matches the CSVs recorded under perfbench/reference/.

The configs and the comparison (per-cell relative 1e-7, see
perfbench/checks.py) are the benchmark's own; this module only reads them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from subspec.cli import run_cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")
CONFIGS = [(w.name, cfg) for w in workloads.WORKLOADS.values() for cfg in w.configs]


@pytest.mark.parametrize("workload, cfg", CONFIGS,
                         ids=[f"{name}/{cfg.name}" for name, cfg in CONFIGS])
def test_benchmark_config_matches_reference(tmp_path, monkeypatch, workload, cfg):
    for var in THREAD_VARS:  # restored after the test; --threads sets them too
        monkeypatch.setenv(var, "1")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfg.text)
    out = tmp_path / "out"
    status = run_cli(["run", str(cfgfile), "--out", str(out), "--threads", "1"])
    reference = PERFBENCH / "reference" / workload
    assert checks.check_outputs(cfg, out, status, reference, {}) == []
    # the benchmark leaves the converged column unchecked; it must not move
    for name in cfg.outputs:
        want = reference / cfg.name / name
        if name.endswith(".csv") and "converged" in checks.parse_csv(want.read_text())[0]:
            assert (checks.column((out / name).read_text(), "converged")
                    == checks.column(want.read_text(), "converged"))


def test_all_ten_configs_are_covered():
    assert len(CONFIGS) == 10
