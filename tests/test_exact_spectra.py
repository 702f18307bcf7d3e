"""The package's spectra against the exact half-oscillator references of
tests/exact_spectra.py."""

import numpy as np
import pytest

from exact_spectra import half_oscillator_eigenvalues
from subspec.cli import run_cli

pytest.importorskip("mpmath")


def test_roots_at_b_zero_are_the_odd_oscillator_levels():
    # D_nu(0) = 0 exactly at odd nu: lambda_k = 4k - 2 for a = 1
    lam = half_oscillator_eigenvalues(1.0, 0.0, 10)
    assert np.max(np.abs(lam - (4.0 * np.arange(1, 11) - 2.0))) <= 1e-12


def test_lowest_root_of_the_task_mix_profile():
    # phi = exp(-x - x^2/2), the benchmark's task-mix compare profile
    lam = half_oscillator_eigenvalues(1.0, 1.0, 10)
    assert lam[0] == pytest.approx(5.07439106, abs=5e-9)
    assert np.all(np.diff(lam) > 4.0)  # the spacing falls towards 4a from above


def test_spectrum_of_the_quadratic_profile_against_exact_values(tmp_path):
    # a custom profile is undecided, so both grids are built; X = 9 with
    # 640 panels gives rows 1-10 within 1.2e-5 (1.15e-5 at row 10)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("task = spectrum\nphi.kind = custom-log-profile\n"
                       "phi.log_expr = -x - 0.5*x**2\nresolution.X = 9\n"
                       "resolution.panels = 640\nspectrum.n_keep = 10\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    lam = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1, usecols=2)
    exact = half_oscillator_eigenvalues(1.0, 1.0, 10)
    assert np.max(np.abs(lam - exact) / exact) <= 1.2e-5
    assert "discrete spectrum = undecided" in (out / "report.txt").read_text().splitlines()
