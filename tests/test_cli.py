import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subspec
from subspec.cli import build_phi, parse_config, run, run_cli
from subspec.errors import ConfigError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_basics():
    cfg = parse_config("""
# comment
task = spectrum
phi.kind = exp-decay
phi.c = 1.5   # inline comment
output_dir = results
""")
    assert cfg.task == "spectrum"
    assert cfg.get("phi.kind") == "exp-decay"
    assert cfg.get_float("phi.c") == 1.5
    assert str(cfg.output_dir) == "results"


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config("task = dance")
    with pytest.raises(ConfigError):
        parse_config("task = spectrum\nnot a keyvalue line")
    with pytest.raises(ConfigError):
        parse_config("phi.kind = exp-decay")  # missing task
    with pytest.raises(ConfigError, match="line 3: duplicate key 'phi.c'"):
        parse_config("task = spectrum\nphi.c = 1\nphi.c = 2\n")
    with pytest.raises(ConfigError, match="line 3: unknown key 'resolution.panel'"):
        parse_config("task = spectrum\nphi.kind = exp-decay\nresolution.panel = 10\n")
    with pytest.raises(ConfigError, match="unknown key 'robin.gamma' for task spectrum"):
        parse_config("robin.gamma = 1\ntask = spectrum\n")
    with pytest.raises(ConfigError, match="unknown key 'resolution.eps' for task scatter"):
        parse_config("task = scatter\nresolution.eps = 1e-3\n")


SPECTRUM = "task = spectrum\nphi.kind = exp-decay\n"
CUSTOM = "task = spectrum\nphi.kind = custom-log-profile\n"


@pytest.mark.parametrize("text, key", [
    (SPECTRUM + "resolution.panels = 20.7\n", "resolution.panels"),
    (SPECTRUM + "resolution.panels = 0\n", "resolution.panels"),
    (SPECTRUM + "resolution.X = nan\n", "resolution.X"),
    (SPECTRUM + "resolution.X = inf\n", "resolution.X"),
    (SPECTRUM + "resolution.eps = -inf\n", "resolution.eps"),
    (SPECTRUM + "spectrum.n_keep = -2\n", "spectrum.n_keep"),
    (SPECTRUM + "phi.c = two\n", "phi.c"),
    ("task = oracle\nphi.kind = stretched-exp\nphi.c = 2\noracle.k = 0\n", "oracle.k"),
    ("task = scatter\nscatter.alpha_list = 1, nan\n", "scatter.alpha_list"),
    ("task = scatter\nscatter.alpha_list = ,\n", "scatter.alpha_list"),
    ("task = scatter\nscatter.alpha_list = 1.5, 0\n", "scatter.alpha_list"),
    ("task = scatter\nscatter.c = -1\n", "scatter.c"),
    (SPECTRUM + "resolution.eps = 2\n", "resolution.eps"),
    (SPECTRUM + "resolution.X = 5\nresolution.eps = 7\n", "resolution.eps"),
    ("task = robin\nphi.kind = exp-decay\nrobin.gamma = 0\n", "robin.gamma"),
    # bad input other than numbers: {tmp} is the test's directory
    ("task = spectrum\nphi.kind = tabulated\nphi.csv = {tmp}/missing.csv\n", "phi.csv"),
    ("task = spectrum\nphi.kind = tabulated\nphi.csv = {tmp}/header.csv\n", "phi.csv"),
    ("task = spectrum\nphi.kind = custom-log-profile\nphi.log_expr = -x - foo(x)\n",
     "phi.log_expr"),
    ("task = validate\nphi.kind = custom-log-profile\nphi.log_expr = -x\n"
     "phi.dlog_expr = -1 + x.real\n", "phi.dlog_expr"),
    # an expression that compiles but raises when evaluated
    (CUSTOM + "phi.log_expr = x(1)\n", "phi.log_expr"),
    (CUSTOM + "phi.log_expr = -x + [1, 2, 3]\n", "phi.log_expr"),
    (CUSTOM + "phi.log_expr = x[:3]\n", "phi.log_expr"),
    # a key of the profile block that its kind does not read
    ("task = spectrum\nphi.kind = oscillating\nphi.c = 3\nphi.log_expr = -x\n"
     "phi.zeta.alpha = 7\n", "phi.c"),
    ("task = spectrum\nphi.kind = oscillating\nphi.zeta.alpha = 7\n", "phi.zeta.alpha"),
    (SPECTRUM + "phi.label = mine\n", "phi.label"),
    (SPECTRUM + "phi.decay.rate = 1\n", "phi.decay.rate"),
    ("task = validate\nphi.kind = tabulated\nphi.c = 1\nphi.csv = x.csv\n", "phi.c"),
    (CUSTOM + "phi.log_expr = -x\nphi.decay.c1 = 0.5\n", "phi.decay.c1"),  # no decay.rate
    (CUSTOM + "phi.log_expr = -x\nphi.decay.sigma_expr = x\nphi.decay.dsigma_expr = 1\n",
     "phi.decay.sigma_expr"),
    ("task = compare\nphi.kind = exp-decay\ncompare.phi2.kind = power\n"
     "compare.phi2.zeta.k = 2\n", "compare.phi2.zeta.k"),
    # a profile parameter out of the range its kind accepts
    (SPECTRUM + "phi.c = -1\n", "phi.c"),
    ("task = spectrum\nphi.kind = power\nphi.c = 0.5\n", "phi.c"),
    ("task = spectrum\nphi.kind = stretched-exp\nphi.c = 0\n", "phi.c"),
    ("task = spectrum\nphi.kind = scattering-profile\nphi.zeta.alpha = -1\n",
     "phi.zeta.alpha"),
    ("task = spectrum\nphi.kind = scattering-profile\nphi.c = -2\n", "phi.c"),
    ("task = compare\nphi.kind = exp-decay\ncompare.phi2.kind = exp-decay\n"
     "compare.phi2.c = -1\n", "compare.phi2.c"),
    ("task = compare\nphi.kind = exp-decay\ncompare.phi2.kind = scattering-profile\n"
     "compare.phi2.zeta.alpha = 0\n", "compare.phi2.zeta.alpha"),
    (CUSTOM + "phi.log_expr = -x\nphi.decay.rate = -1\nphi.decay.sigma_expr = x\n"
     "phi.decay.dsigma_expr = 1 + 0*x\n", "phi.decay.rate"),
    (CUSTOM + "phi.log_expr = -x\nphi.decay.rate = 1\nphi.decay.c1 = 0\n"
     "phi.decay.sigma_expr = x\nphi.decay.dsigma_expr = 1 + 0*x\n", "phi.decay.c1"),
])
def test_bad_config_numbers_name_the_key(tmp_path, capsys, text, key):
    (tmp_path / "header.csv").write_text("x,phi\n0,1\n1,0.5\n")
    cfgfile = _write(tmp_path, "bad.cfg", text.format(tmp=tmp_path))
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
    task = text.split("\n", 1)[0].removeprefix("task = ")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {task}: ConfigError: config key '{key}'")
    assert err.count("\n") == 1  # one line, no traceback


def test_unread_profile_key_and_failing_expression_messages(tmp_path, capsys):
    # the first names the kind, the second the expression and what it raised
    for text, want in [
        ("task = spectrum\nphi.kind = oscillating\nphi.c = 3\n",
         "error: spectrum: ConfigError: config key 'phi.c' is not read by "
         "phi.kind = oscillating\n"),
        ("task = spectrum\nphi.kind = custom-log-profile\nphi.log_expr = x(1)\n",
         "error: spectrum: ConfigError: config key 'phi.log_expr' = 'x(1)' fails when "
         "evaluated: TypeError: 'numpy.ndarray' object is not callable\n"),
    ]:
        assert run_cli(["run", str(_write(tmp_path, "bad.cfg", text)), "--out",
                        str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == want


def test_build_phi_realizes_a_profile_by_one_make_phi_call(tmp_path, monkeypatch):
    from subspec import phi_models
    calls = []
    make_phi = phi_models.make_phi

    def counted(kind, **params):
        calls.append(kind)
        return make_phi(kind, **params)

    monkeypatch.setattr(phi_models, "make_phi", counted)
    xs = np.linspace(0.0, 4.0, 41)
    np.savetxt(tmp_path / "tab.csv", np.column_stack([xs, np.exp(-xs)]), delimiter=",")
    blocks = {"exp-decay": "phi.c = 2", "power": "phi.c = 2", "stretched-exp": "phi.c = 2",
              "oscillating": "", "scattering-profile": "phi.zeta.alpha = 2",
              "tabulated": f"phi.csv = {tmp_path / 'tab.csv'}",
              "custom-log-profile": "phi.log_expr = -x\nphi.decay.rate = 1\n"
                                    "phi.decay.sigma_expr = x\nphi.decay.dsigma_expr = 1"}
    for kind, block in blocks.items():
        calls.clear()
        model = build_phi(parse_config(f"task = spectrum\nphi.kind = {kind}\n{block}\n"))
        assert model.kind == kind
        assert calls == [kind]


def test_threads_below_one_is_an_error(tmp_path, capsys):
    cfgfile = _write(tmp_path, "run.cfg", SPECTRUM)
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "o"),
                    "--threads", "0"]) == 1
    assert capsys.readouterr().err == "error: --threads must be >= 1, got 0\n"
    assert not (tmp_path / "o").exists()


def test_parse_config_accepts_every_documented_key():
    block = ["kind", "c", "zeta.k", "zeta.alpha", "csv", "log_expr", "dlog_expr",
             "d2log_expr", "label", "decay.rate", "decay.c1", "decay.c2",
             "decay.sigma_expr", "decay.dsigma_expr"]
    grid = ["resolution.X", "resolution.eps", "resolution.panels", "resolution.order"]
    phi = [f"phi.{k}" for k in block]
    documented = {
        "spectrum": phi + grid + ["spectrum.n_keep"],
        "compare": phi + [f"compare.phi2.{k}" for k in block] + grid
        + ["spectrum.n_keep", "compare.c"],
        "robin": phi + grid + ["robin.gamma"],
        "scatter": ["resolution.X", "resolution.panels", "resolution.order",
                    "scatter.c", "scatter.alpha_list"],
        "validate": phi + grid,
        "oracle": phi + ["oracle.k"],
    }
    for task, keys in documented.items():
        text = "".join(f"{k} = 1\n" for k in keys)
        cfg = parse_config(f"task = {task}\noutput_dir = o\n{text}")
        assert sorted(cfg.options) == sorted(keys)


def test_build_phi_kinds(tmp_path):
    cfg = parse_config("task = spectrum\nphi.kind = custom-log-profile\n"
                       "phi.log_expr = -x - 0.5*x**2\nphi.dlog_expr = -1 - x\n")
    m = build_phi(cfg)
    assert float(m.log_phi(np.asarray(2.0))) == pytest.approx(-4.0)
    assert float(m.dlog_phi(np.asarray(2.0))) == pytest.approx(-3.0)

    xs = np.linspace(0.0, 8.0, 81)
    path = tmp_path / "tab.csv"
    np.savetxt(path, np.column_stack([xs, np.exp(-xs)]), delimiter=",")
    cfg2 = parse_config(f"task = spectrum\nphi.kind = tabulated\nphi.csv = {path}\n")
    m2 = build_phi(cfg2)
    assert float(m2.log_phi(np.asarray(1.0))) == pytest.approx(-1.0, abs=1e-12)


def test_spectrum_task_and_determinism(tmp_path):
    cfgfile = _write(tmp_path, "run.cfg", """
task = spectrum
phi.kind = stretched-exp
phi.c = 2
resolution.X = 5
spectrum.n_keep = 10
""")
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert run_cli(["run", str(cfgfile), "--out", str(out1)]) == 0
    assert run_cli(["run", str(cfgfile), "--out", str(out2)]) == 0
    csv1 = (out1 / "spectrum.csv").read_bytes()
    assert csv1 == (out2 / "spectrum.csv").read_bytes()  # byte-identical
    lines = csv1.decode().splitlines()
    assert lines[0] == "n,mu,lambda,converged"
    assert len(lines) == 11
    assert (out1 / "report.txt").exists()
    first_mu = float(lines[1].split(",")[1])
    assert first_mu == pytest.approx(1.0 / 13.6956, rel=1e-3)


def test_spectrum_convergence_counts_written_rows(tmp_path):
    cfgfile = _write(tmp_path, "run.cfg", """
task = spectrum
phi.kind = stretched-exp
phi.c = 2
resolution.X = 3
resolution.panels = 4
spectrum.n_keep = 100
""")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    assert len((out / "spectrum.csv").read_text().splitlines()) == 41  # header + N = 40
    assert re.search(r"converged top eigenvalues = \d+ / 40\n",
                     (out / "report.txt").read_text())


def test_one_panel_spectrum_claims_no_convergence(tmp_path):
    # there is no coarser grid than one panel to compare against
    cfgfile = _write(tmp_path, "run.cfg", """
task = spectrum
phi.kind = stretched-exp
phi.c = 2
resolution.X = 3
resolution.panels = 1
spectrum.n_keep = 5
""")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and all(row.endswith(",False") for row in rows)
    report = (out / "report.txt").read_text()
    assert "converged top eigenvalues = 0 / 5\n" in report
    assert "one panel has no coarser grid: no eigenvalue is claimed converged" in report


def test_spectrum_without_decay_runs_on_the_end_of_the_scan(tmp_path):
    # power(c=1) reaches 1e-6 only near x = 1e6; the window is the scan's end,
    # at default panels, and nothing is written to stderr (warnings are errors)
    cfgfile = _write(tmp_path, "power.cfg", "task = spectrum\nphi.kind = power\nphi.c = 1\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert "X = 200, panels = 800, order = 10" in report
    assert "power(c=1): phi has not stayed below resolution.eps = 1e-06 by x = 200" in report
    # K(x) grows like x^2: no row is an eigenvalue of H, so none is converged
    assert ("discrete spectrum = no: the rows are eigenvalues of the window [0, 200], "
            "none converged") in report
    assert "converged top eigenvalues = 0 / 25" in report


def _count_psi_caches(monkeypatch):
    """A list that gets one entry per psi cache the run builds."""
    from subspec import discretization
    built = []

    def counted(model, nodes):
        built.append(nodes.size)
        return cache_class(model, nodes)

    cache_class = discretization.SubordinateCache
    monkeypatch.setattr(discretization, "SubordinateCache", counted)
    return built


def _refuse_l2_quadrature(monkeypatch):
    from subspec import phi_models

    def refused(log_phi, X):
        raise AssertionError("the ||phi|| quadrature ran")

    monkeypatch.setattr(phi_models, "_l2sq_head", refused)


def test_spectrum_of_a_non_discrete_profile_builds_one_grid(tmp_path, monkeypatch):
    built = _count_psi_caches(monkeypatch)
    _refuse_l2_quadrature(monkeypatch)  # with resolution.X no task reads ||phi||
    cfgfile = _write(tmp_path, "osc.cfg", "task = spectrum\nphi.kind = oscillating\n"
                     "resolution.X = 6\nresolution.panels = 24\nspectrum.n_keep = 5\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    assert built == [240]
    report = (out / "report.txt").read_text().splitlines()
    assert ("discrete spectrum = no: the rows are eigenvalues of the window [0, 6], "
            "none converged") in report
    assert "converged top eigenvalues = 0 / 5" in report
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and all(row.endswith(",False") for row in rows)


@pytest.mark.parametrize("body, verdict", [
    ("phi.kind = stretched-exp\nphi.c = 2\n", "yes"),
    ("phi.kind = custom-log-profile\nphi.log_expr = -x - 0.5*x**2\n", "undecided"),
])
def test_spectrum_of_a_discrete_or_undecided_profile_keeps_the_half_panel_grid(
        tmp_path, monkeypatch, body, verdict):
    built = _count_psi_caches(monkeypatch)
    cfgfile = _write(tmp_path, "run.cfg", "task = spectrum\n" + body
                     + "resolution.X = 3\nresolution.panels = 40\nspectrum.n_keep = 5\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    assert built == [400, 200]
    assert f"discrete spectrum = {verdict}" in (out / "report.txt").read_text().splitlines()


def test_spectrum_claims_no_row_where_phi_has_not_decayed(tmp_path, monkeypatch):
    # phi ~ e^{-0.01x} dips below eps at x = 8 but rises again, so auto
    # truncation falls back to the end of its scan: two grids of [0, 200]
    # agree on window eigenvalues there, which is no convergence (once 4 / 25)
    built = _count_psi_caches(monkeypatch)
    cfgfile = _write(tmp_path, "dip.cfg", CUSTOM
                     + "phi.log_expr = -0.01*x - 100*exp(-((x - 8)*1e9)**2)\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    assert built == [8000]
    report = (out / "report.txt").read_text().splitlines()
    assert ("discrete spectrum = undecided: the rows are eigenvalues of the window [0, 200], "
            "none converged") in report
    assert "converged top eigenvalues = 0 / 25" in report
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    assert len(rows) == 25 and all(row.endswith(",False") for row in rows)


def test_compare_reports_the_verdict_of_both_profiles(tmp_path):
    cfgfile = _write(tmp_path, "compare.cfg", "task = compare\nphi.kind = stretched-exp\n"
                     "phi.c = 2\ncompare.phi2.kind = exp-decay\ncompare.c = 100\n"
                     "resolution.X = 3\nresolution.panels = 12\nspectrum.n_keep = 3\n")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    assert ("discrete spectrum = yes for stretched-exp(c=2), no for exp-decay(c=1)"
            in (tmp_path / "out" / "report.txt").read_text().splitlines())


def test_scatter_sweep_reads_no_phi_norm(tmp_path, monkeypatch):
    _refuse_l2_quadrature(monkeypatch)
    cfgfile = _write(tmp_path, "sc.cfg", "task = scatter\nscatter.alpha_list = 0.5, 2\n"
                     "resolution.X = 20\nresolution.panels = 40\n")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "out")]) == 0


def test_spectrum_runs_the_panels_it_is_given(tmp_path):
    cfgfile = _write(tmp_path, "wide.cfg", "task = spectrum\nphi.kind = stretched-exp\n"
                     "phi.c = 2\nresolution.X = 8\nresolution.panels = 500\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert "X = 8, panels = 500, order = 10" in report
    assert not any("clamped" in line for line in report)


def test_validate_task_exp_decay(tmp_path):
    cfgfile = _write(tmp_path, "val.cfg", """
task = validate
phi.kind = exp-decay
phi.c = 1
resolution.X = 12
""")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "[PASS]" in report and "[FAIL]" not in report
    assert "all checks passed" in report
    # T is positive definite by construction (D T D is a path Laplacian), so
    # no check tests it; every check listed can fail
    assert re.findall(r"^\[PASS\] (.+?) \(value = \S+\)$", report, re.M) == [
        "decay sandwich", "kernel bound audit", "wronskian residual <= 1e-06",
        "growth bound x^2 <= ||phi||^2 psi/phi", "weighted identity residual <= 1e-3"]


def test_validate_task_power_slow_decay(tmp_path, monkeypatch):
    # no decay by the end of the scan: validate runs on X = 200 like spectrum,
    # and the Wronskian nodes still span [0.25, 5]
    from subspec import subordinate
    seen = []
    residual = subordinate.wronskian_residual
    monkeypatch.setattr(subordinate, "wronskian_residual",
                        lambda model, nodes: seen.append(nodes) or residual(model, nodes))
    cfgfile = _write(tmp_path, "val2.cfg",
                     "task = validate\nphi.kind = power\nphi.c = 1\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert "power(c=1): phi has not stayed below resolution.eps = 1e-06 by x = 200" in report
    assert "X = 200, panels = 800, order = 10" in report
    assert "all checks passed" in report
    assert np.array_equal(seen[0], np.linspace(0.25, 5.0, 12))


def test_validate_oscillating_wronskian_step_follows_phi(tmp_path):
    # h = 1e-5 / |(log phi)'| keeps the O(h^2) truncation below 1e-6 where
    # (log phi)' ~ e^x
    cfgfile = _write(tmp_path, "osc.cfg", "task = validate\nphi.kind = oscillating\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert any(line.startswith("[PASS] wronskian residual <= 1e-06") for line in report), report


CUSTOM_VALIDATE = "task = validate\nphi.kind = custom-log-profile\n"


@pytest.mark.parametrize("body, failed", [
    # phi = e^-x under a declared sigma = 2x: phi <= e^-sigma fails by x,
    # so the worst log margin on [0, 8] is -8
    ("phi.log_expr = -x\nphi.decay.rate = 2\nphi.decay.sigma_expr = 2*x\n"
     "phi.decay.dsigma_expr = 2 + 0*x\nresolution.X = 8\n",
     "[FAIL] decay sandwich (value = -8)"),
    # a declared rate 6 above sigma' = 3: the bound e^{-6|x-y|}/12 is false
    # (the sandwich fails too, at sigma' - rate = -3, as the theorem needs it)
    ("phi.log_expr = -3*x\nphi.decay.rate = 6\nphi.decay.sigma_expr = 3*x\n"
     "phi.decay.dsigma_expr = 3 + 0*x\nresolution.X = 4\n",
     "[FAIL] kernel bound audit (value = -11.7345)"),
    # oscillation faster than the panels resolve: psi is wrong
    ("phi.log_expr = -x - 0.3*sin(exp(2.5*x))\nresolution.X = 5\nresolution.panels = 200\n",
     "[FAIL] wronskian residual <= 0.001 (value = 0.56"),
    # a phi' that is not the derivative of log phi
    ("phi.log_expr = -x - 0.5*x**2\nphi.dlog_expr = -1 + 0*x\nresolution.X = 5\n",
     "[FAIL] weighted identity residual <= 1e-3 (value = 0.742"),
])
def test_validate_task_fails_a_false_decay_sandwich(tmp_path, body, failed):
    cfgfile = _write(tmp_path, "bad.cfg", CUSTOM_VALIDATE + body)
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 2
    report = (out / "report.txt").read_text().splitlines()
    assert any(line.startswith(failed) for line in report), report
    assert "VALIDATION FAILED" in report


def test_validate_growth_bound_holds_at_the_true_norm_of_a_dipped_profile(tmp_path):
    # the bound is Cauchy-Schwarz, so it holds with the true ||phi||^2 = 50;
    # a dip of width 1e-9 at x = 8 once ended the L2 window there (7.4 of 50)
    cfgfile = _write(tmp_path, "dip.cfg", CUSTOM_VALIDATE
                     + "phi.log_expr = -0.01*x - 100*exp(-((x - 8)*1e9)**2)\n"
                     "resolution.X = 20\n")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert any(line.startswith("[PASS] growth bound x^2 <= ||phi||^2 psi/phi")
               for line in report), report


def test_validate_wronskian_holds_where_phi_spans_many_orders(tmp_path):
    # phi swings by e^40 along sin(e^x): log I(x + h) - log I(x - h) lies
    # below the rounding of log I, so a difference of prefix logs read 1;
    # the two segment integrals around x give the increment itself
    cfgfile = _write(tmp_path, "swing.cfg", CUSTOM_VALIDATE
                     + "phi.log_expr = -x - 20*sin(exp(x))\nresolution.X = 3\n")
    run_cli(["run", str(cfgfile), "--out", str(tmp_path / "out")])
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert any(line.startswith("[PASS] wronskian residual <= 0.001") for line in report), report


def _validate_report(tmp_path, name, body):
    cfgfile = _write(tmp_path, f"{name}.cfg", "task = validate\nphi.kind = custom-log-profile\n"
                     + body + "resolution.X = 4\n")
    run_cli(["run", str(cfgfile), "--out", str(tmp_path / name)])
    return (tmp_path / name / "report.txt").read_text().splitlines()


def test_validate_oscillation_follows_the_expression_not_the_label(tmp_path):
    wiggly = "phi.log_expr = -x - sin(exp(x))\n"
    plain = _validate_report(tmp_path, "plain", wiggly)
    labelled = _validate_report(tmp_path, "labelled", wiggly + "phi.label = wiggly\n")
    assert [line for line in labelled if not line.startswith("model = ")] == \
        [line for line in plain if not line.startswith("model = ")]
    # the grid is the shared default, whatever log phi calls
    assert "X = 4, panels = 40, order = 10" in plain
    sinh = _validate_report(tmp_path, "sinh", "phi.log_expr = -2*x - 0.1*sinh(x)\n"
                            "phi.dlog_expr = -2 - 0.1*cosh(x)\n")
    assert "X = 4, panels = 40, order = 10" in sinh
    assert any(line.startswith("[PASS] wronskian residual <= 1e-06") for line in sinh)


# one block per make_phi family, and a custom profile that oscillates
SHARED_RESOLUTION_BLOCKS = {
    "exp-decay": "phi.kind = exp-decay\nphi.c = 1",
    "power": "phi.kind = power\nphi.c = 3",
    "stretched-exp": "phi.kind = stretched-exp\nphi.c = 2",
    "oscillating": "phi.kind = oscillating",
    "scattering-profile": "phi.kind = scattering-profile",
    "tabulated": "phi.kind = tabulated\nphi.csv = {tab}",
    "custom": "phi.kind = custom-log-profile\nphi.log_expr = -x - sin(exp(x))",
}
# where validate's accuracy checks end, when its psi cache is unresolved
# (a custom profile without phi.dlog_expr runs no weighted identity)
SHARED_RESOLUTION_REACH = {
    "oscillating": "x = 5 (wronskian nodes) and x = 3 (weighted identity ramp)",
    "custom": "x = 5 (wronskian nodes)",
}


@pytest.mark.parametrize("name", sorted(SHARED_RESOLUTION_BLOCKS))
def test_validate_and_spectrum_share_the_resolution_rule(tmp_path, name):
    xs = np.linspace(0.0, 20.0, 201)
    np.savetxt(tmp_path / "tab.csv", np.column_stack([xs, np.exp(-xs)]), delimiter=",")
    block = SHARED_RESOLUTION_BLOCKS[name].format(tab=tmp_path / "tab.csv")
    reports = {}
    for task in ("validate", "spectrum"):
        cfgfile = _write(tmp_path, f"{task}.cfg", f"task = {task}\n{block}\n")
        assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / task)]) == 0
        reports[task] = (tmp_path / task / "report.txt").read_text()
    grid = [re.findall(r"^X = .*$", reports[task], re.M) for task in ("validate", "spectrum")]
    assert len(grid[0]) == 1 and grid[0] == grid[1]
    assert "all checks passed" in reports["validate"].splitlines()
    # the psi cache's own note, not the expression, flags an oscillating profile
    noted = UNRESOLVED.findall(reports["validate"])
    assert bool(noted) == (name in ("oscillating", "custom"))
    assert noted == UNRESOLVED.findall(reports["spectrum"])
    # and validate says that its accuracy checks end below that region
    reach = [line for line in reports["validate"].splitlines()
             if line.startswith("accuracy checks reach")]
    assert reach == [f"accuracy checks reach {SHARED_RESOLUTION_REACH[name]}; the psi "
                     f"quadrature is unresolved from x = {first}" for *_, first in noted]


def test_validate_passes_where_phi_spans_many_orders(tmp_path):
    # phi swings by e^40 along sin(e^x); T is positive definite by
    # construction, and every check that remains holds
    cfgfile = _write(tmp_path, "swing.cfg", CUSTOM_VALIDATE
                     + "phi.log_expr = -x - 20*sin(exp(x))\nresolution.X = 3\n")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    assert "all checks passed" in (tmp_path / "out" / "report.txt").read_text().splitlines()


def test_compare_task_pass_and_fail(tmp_path):
    base = """
task = compare
phi.kind = custom-log-profile
phi.log_expr = -x - 0.5*x**2
phi.dlog_expr = -1 - x
compare.phi2.kind = custom-log-profile
compare.phi2.log_expr = -x - 0.5*x**2 - sin(exp(x))
compare.phi2.dlog_expr = -1 - x - exp(x)*cos(exp(x))
resolution.X = 5
resolution.panels = 120
spectrum.n_keep = 8
"""
    ok = _write(tmp_path, "ok.cfg", base + "compare.c = 2.7182818284590452\n")
    out = tmp_path / "ok"
    assert run_cli(["run", str(ok), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "holds = True" in report
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "n,mu1,mu2,ratio,in_band"

    bad = _write(tmp_path, "bad.cfg", base + "compare.c = 1\n")
    outb = tmp_path / "bad"
    assert run_cli(["run", str(bad), "--out", str(outb)]) == 2
    report = (outb / "report.txt").read_text()
    assert "holds = False" in report
    assert "worst n = " in report


def test_compare_task_resolution_keys(tmp_path):
    base = """
task = compare
phi.kind = exp-decay
phi.c = 1
compare.phi2.kind = exp-decay
compare.phi2.c = 1
resolution.eps = 1e-3
spectrum.n_keep = 5
"""
    out = tmp_path / "eps"
    assert run_cli(["run", str(_write(tmp_path, "eps.cfg", base)), "--out", str(out)]) == 0
    assert "auto truncation X = 6.9125" in (out / "report.txt").read_text()
    zero = _write(tmp_path, "zero.cfg", base + "resolution.panels = 0\n")
    assert run_cli(["run", str(zero), "--out", str(tmp_path / "zero")]) == 1


def test_robin_trace_difference_matches_dense(tmp_path):
    import dense_oracle
    from subspec.discretization import build_quadrature
    from subspec.phi_models import make_phi
    cfgfile = _write(tmp_path, "robin.cfg", """
task = robin
phi.kind = stretched-exp
phi.c = 2
robin.gamma = -0.5
resolution.X = 4
resolution.panels = 12
""")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    reported = float(re.search(r"trace\(G_gamma\) - trace\(G\) = (\S+)",
                               (out / "report.txt").read_text()).group(1))
    model = make_phi("stretched-exp", c=2.0)
    quad = build_quadrature(4.0, 12, 10)
    dense = (np.trace(dense_oracle.green_matrix(model, quad, -0.5))
             - np.trace(dense_oracle.green_matrix(model, quad)))
    assert reported == pytest.approx(dense, rel=1e-5)


def test_robin_task(tmp_path):
    cfgfile = _write(tmp_path, "robin.cfg", """
task = robin
phi.kind = exp-decay
phi.c = 1
robin.gamma = -1
resolution.X = 13.8155
resolution.panels = 120
""")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "boundary sigma = -2" in report
    mus = np.loadtxt(out / "robin_spectrum.csv", delimiter=",", skiprows=1,
                     usecols=1)
    assert mus[-1] == pytest.approx(-1.0 / 3.0, abs=1e-3)


@pytest.mark.parametrize("gamma, line", [
    # G_gamma = G + gamma phi phi >= G > 0: no mu is negative
    ("0.5", "no negative mu"),
    # I(x_1) + gamma < 0 gives G_gamma one negative mu, 1/lambda_0
    ("-0.5", "most negative mu = -"),
])
def test_robin_reports_a_negative_mu_only_where_there_is_one(tmp_path, gamma, line):
    cfgfile = _write(tmp_path, "robin.cfg", "task = robin\nphi.kind = exp-decay\nphi.c = 1\n"
                     f"robin.gamma = {gamma}\nresolution.X = 14\nresolution.panels = 56\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert sum(row.startswith(line) for row in report) == 1, report
    assert "discrete spectrum = no" in report
    mus = np.loadtxt(out / "robin_spectrum.csv", delimiter=",", skiprows=1, usecols=1)
    assert (mus[-1] < 0.0) == (float(gamma) < 0.0)


def test_scatter_task(tmp_path):
    cfgfile = _write(tmp_path, "sc.cfg", """
task = scatter
scatter.c = 1
scatter.alpha_list = 1.5, 2
resolution.X = 30
resolution.panels = 45
""")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    lines = (out / "scatter.csv").read_text().splitlines()
    assert lines[0] == "alpha,trace_numeric,bound_nu_route,bound_derivative_route,criterion_met"
    assert len(lines) == 3


def test_scatter_default_grid_is_default_panels(tmp_path):
    # without resolution.panels, scatter builds its grid by the rule of the
    # grid tasks
    from subspec.discretization import ORDER, build_quadrature, default_panels
    from subspec.scattering import example_scatt_sweep
    cfgfile = _write(tmp_path, "sc.cfg", "task = scatter\nscatter.alpha_list = 0.5, 1.5\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    rows = (out / "scatter.csv").read_text().splitlines()[1:]
    want = example_scatt_sweep([0.5, 1.5], 1.0, build_quadrature(50.0, default_panels(50.0), ORDER))
    assert [float(row.split(",")[1]) for row in rows] == [r["trace_numeric"] for r in want]


def test_oracle_task(tmp_path):
    cfgfile = _write(tmp_path, "oracle.cfg", """
task = oracle
phi.kind = stretched-exp
phi.c = 2
oracle.k = 3
""")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "oracle.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] == 3
    assert np.all(rows[:, 3] <= 1e-2)


def test_error_exit_codes(tmp_path):
    missing = tmp_path / "nope.cfg"
    assert run_cli(["run", str(missing)]) == 1
    bad = _write(tmp_path, "bad.cfg", "task = spectrum\nphi.kind = bogus\n")
    assert run_cli(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
    # oracle on a non-compact model is a module error, rendered as exit 1
    noncompact = _write(tmp_path, "nc.cfg",
                        "task = oracle\nphi.kind = exp-decay\nphi.c = 1\n")
    assert run_cli(["run", str(noncompact), "--out", str(tmp_path / "o2")]) == 1


def test_custom_log_profile_must_be_finite(tmp_path, capsys):
    cfgfile = _write(tmp_path, "bad.cfg", """
task = spectrum
phi.kind = custom-log-profile
phi.log_expr = -x + log(x - 1)
resolution.X = 5
""")
    with np.errstate(all="ignore"):
        assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "ConfigError: phi.log_expr = -x + log(x - 1) is not finite at x = 0.0" in err


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_threads_flag_smoke(tmp_path, monkeypatch):
    for var in THREAD_VARS:
        # setenv first so that teardown also removes what the CLI exports
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)
    cfgfile = _write(tmp_path, "run.cfg", """
task = spectrum
phi.kind = exp-decay
phi.c = 1
resolution.X = 8
resolution.panels = 32
""")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "o"),
                    "--threads", "2"]) == 0
    assert all(os.environ[var] == "2" for var in THREAD_VARS)


def test_threads_flag_overrides_the_environment(tmp_path, monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "3")
    cfgfile = _write(tmp_path, "run.cfg", """
task = spectrum
phi.kind = exp-decay
phi.c = 1
resolution.X = 6
resolution.panels = 12
""")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "o"),
                    "--threads", "1"]) == 0
    assert [os.environ[var] for var in THREAD_VARS] == ["1", "1", "1"]


UNRESOLVED = re.compile(r"psi quadrature unresolved in (\d+) of (\d+) segments "
                        r"\(accepted at the depth limit\), the first from x = (\S+)")


def test_spectrum_notes_unresolved_quadrature(tmp_path):
    # sin(e^x) is evaluated with an absolute error of about e^x * x * eps,
    # which passes RTOL near x = 8: from there panels are accepted at that
    # rounding floor, until near x = 12.5 bisection truly stops resolving
    # sin(e^x) and panels stop at the depth limit
    cfgfile = _write(tmp_path, "run.cfg", """
task = spectrum
phi.kind = oscillating
resolution.X = 15
resolution.panels = 60
""")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
    found = UNRESOLVED.findall((tmp_path / "o" / "report.txt").read_text())
    assert len(found) == 1
    count, segments, first = found[0]
    assert 0 < int(count) < int(segments) == 600
    assert 12.0 <= float(first) <= 13.0


@pytest.mark.parametrize("task", ["spectrum", "validate"])
def test_resolved_quadrature_adds_no_note(tmp_path, task):
    cfgfile = _write(tmp_path, "run.cfg", f"""
task = {task}
phi.kind = stretched-exp
phi.c = 2
resolution.X = 3
resolution.panels = 40
""")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
    assert "unresolved" not in (tmp_path / "o" / "report.txt").read_text()


@pytest.mark.parametrize("kind, noted", [("oscillating", True),
                                         ("stretched-exp\nphi.c = 2", False)])
def test_validate_notes_an_unresolved_phi_norm(tmp_path, kind, noted):
    # the auto truncation and the growth check both read ||phi||: one note
    cfgfile = _write(tmp_path, "run.cfg", f"task = validate\nphi.kind = {kind}\n")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
    report = (tmp_path / "o" / "report.txt").read_text()
    assert report.count("||phi|| quadrature unresolved") == int(noted)


# X = 14 with 56 panels: the oscillating cache stops resolving from x ~ 12 on;
# the note names the cache when a task builds two (compare: two profiles,
# spectrum: the fine grid and the half-panel grid of its converged column)
NOTE_CONFIGS = {
    "compare": ("phi.kind = exp-decay\ncompare.phi2.kind = {kind}\ncompare.c = 3\n",
                r"psi quadrature of oscillating unresolved in (\d+) of 560 segments", 560),
    "robin": ("phi.kind = {kind}\nrobin.gamma = -0.5\n",
              r"psi quadrature unresolved in (\d+) of 560 segments", 560),
    # a custom profile is undecided, so spectrum still builds the half-panel grid
    "spectrum": ("phi.kind = custom-log-profile\nphi.log_expr = {expr}\n",
                 r"psi quadrature on the half-panel grid unresolved in (\d+) of 280 segments",
                 280),
}
NOTE_EXPRS = {"oscillating": "-x - sin(exp(x))", "exp-decay": "-x"}


@pytest.mark.parametrize("task", sorted(NOTE_CONFIGS))
@pytest.mark.parametrize("kind, noted", [("oscillating", True), ("exp-decay", False)])
def test_each_psi_cache_notes_unresolved_quadrature(tmp_path, task, kind, noted):
    body, pattern, segments = NOTE_CONFIGS[task]
    cfgfile = _write(tmp_path, "run.cfg", f"task = {task}\n"
                     + body.format(kind=kind, expr=NOTE_EXPRS[kind])
                     + "resolution.X = 14\nresolution.panels = 56\n")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "o")]) in (0, 2)
    report = (tmp_path / "o" / "report.txt").read_text()
    if noted:
        found = re.findall(pattern, report)
        assert len(found) == 1 and 0 < int(found[0]) < segments
    else:
        assert "unresolved" not in report


def _subprocess_env():
    src = str(Path(subspec.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_startup_imports_none_of_the_heavy_scipy_and_numpy_modules(tmp_path):
    # what `subspec run` loads beyond numpy for any task: one run, then every
    # task module.  An allowlist: the package, its one LAPACK extension
    # (without scipy/__init__.py or scipy.linalg), and what the standard
    # library modules the package imports load in the same interpreter
    # (argparse with a parser built, as gettext imports locale only when a
    # message is translated).  Which of those numpy or a site hook has
    # already loaded varies between installations, so they are imported
    # here rather than listed.  A new import anywhere in the package (a
    # dataclass, numpy.polynomial, scipy.special) fails here and not only in
    # start-up timings
    cfgfile = _write(tmp_path, "run.cfg", "task = spectrum\nphi.kind = exp-decay\n"
                     "resolution.X = 6\nresolution.panels = 12\nspectrum.n_keep = 3\n")
    code = ("import sys, numpy; loaded = set(sys.modules); "
            "import __future__, argparse, functools, importlib.machinery, importlib.util, "
            "math, os, pathlib, typing; argparse.ArgumentParser(); "
            "allowed = set(sys.modules) - loaded | {'scipy.linalg._flapack'}; "
            "from subspec.cli import run_cli; "
            f"status = run_cli(['run', {str(cfgfile)!r}, '--out', {str(tmp_path / 'o')!r}]); "
            "import subspec.discretization, subspec.green_kernel, subspec.oracle_fd, "
            "subspec.phi_models, subspec.scattering, subspec.spectral, subspec.subordinate; "
            "new = set(sys.modules) - loaded; "
            "print(status, sorted(m for m in new - allowed "
            "if m != 'subspec' and not m.startswith('subspec.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_validate_run_leaves_numpy_random_unloaded(tmp_path):
    # the task-mix validate config of the benchmark, in a fresh interpreter;
    # no check draws random numbers
    cfgfile = _write(tmp_path, "val.cfg", "task = validate\nphi.kind = stretched-exp\n"
                     "phi.c = 2\nresolution.X = 3\nresolution.panels = 40\n"
                     "resolution.order = 10\n")
    code = ("import sys; from subspec.cli import run_cli; "
            f"status = run_cli(['run', {str(cfgfile)!r}, '--out', {str(tmp_path / 'o')!r}]); "
            "print(status, sorted(m for m in ('numpy.random', 'secrets', 'hashlib') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def _run_module(cfgfile, out, threads=1):
    """`python -m subspec.cli run` in a fresh interpreter; the BLAS thread
    variables come only from --threads."""
    env = {k: v for k, v in _subprocess_env().items() if k not in THREAD_VARS}
    return subprocess.run([sys.executable, "-m", "subspec.cli", "run", str(cfgfile),
                           "--out", str(out), "--threads", str(threads)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point(tmp_path):
    cfgfile = _write(tmp_path, "run.cfg", """
task = spectrum
phi.kind = exp-decay
phi.c = 1
resolution.X = 6
resolution.panels = 12
spectrum.n_keep = 3
""")
    out = tmp_path / "out"
    proc = _run_module(cfgfile, out)
    assert proc.returncode == 0, proc.stderr
    assert (out / "spectrum.csv").is_file()
    assert (out / "report.txt").read_text().startswith("task = spectrum\n")


@pytest.mark.parametrize("task, body, csv", [
    ("spectrum", "phi.kind = stretched-exp\nphi.c = 2\nresolution.X = 3\n"
                 "resolution.panels = 40\n", "spectrum.csv"),
    ("scatter", "scatter.alpha_list = 0.5, 4\nresolution.X = 30\nresolution.panels = 45\n",
     "scatter.csv"),
])
def test_csv_identical_across_thread_counts(tmp_path, task, body, csv):
    cfgfile = _write(tmp_path, "run.cfg", f"task = {task}\n{body}")
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        proc = _run_module(cfgfile, out, threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / csv).read_bytes())
    assert outputs[0] == outputs[1]
