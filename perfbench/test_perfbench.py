"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

The last two tests run the real CLI on the smallest config (about 2 s).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import tracer
from workloads import WORKLOADS, Workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = WORKLOADS["task-mix"]
SPECTRUM = next(c for c in SMALL.configs if c.name == "spectrum")
REF = run.REFERENCE / SMALL.name


def test_benchmark_json_matches_the_runner():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"]) <= 0.25


def test_every_config_has_a_reference():
    for wl in WORKLOADS.values():
        for cfg in wl.configs:
            for fname in cfg.outputs:
                if fname.endswith(".csv"):
                    assert (run.REFERENCE / wl.name / cfg.name / fname).is_file()


def _pass(wall, layers=None):
    p = run.Pass(wall_s=wall, cpu_s=wall, peak_rss_mb=100.0)
    p.layers.update(layers or {})
    return p


def test_result_schema(tmp_path):
    bench = run.Bench(SMALL, seed=0, seconds=0.0, work=tmp_path)
    bench.tally.attempted = 4
    bench.setup = [0.5, 0.6, 0.7]
    metrics, _ = run.end_to_end(bench, [_pass(1.0), _pass(1.2)])
    out = run.result(bench.tally, metrics)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] == 4 and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END_UNITS
    assert out["metrics"]["wall_s"]["value"] == pytest.approx(1.1)
    assert out["metrics"]["setup_s"]["value"] == 0.6

    layers = {k: 1.0 for k in run.PER_LAYER_UNITS}
    metrics, _ = run.per_layer([_pass(1.0)], [_pass(1.1, layers)])
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER_UNITS
    json.dumps(run.result(run.Tally(attempted=1), metrics))


def _fake_outputs(tmp_path, cfg, text=None):
    out = tmp_path / "out"
    out.mkdir(parents=True)
    (out / "report.txt").write_text("ok\n")
    for fname in cfg.outputs:
        if fname.endswith(".csv"):
            ref = (REF / cfg.name / fname).read_text()
            (out / fname).write_text(ref if text is None else text)
    return out


def test_reference_outputs_pass(tmp_path):
    for cfg in SMALL.configs:
        out = _fake_outputs(tmp_path / cfg.name, cfg)
        assert checks.check_outputs(cfg, out, 0, REF, {}) == []


def test_missing_output_is_a_failure(tmp_path):
    out = _fake_outputs(tmp_path, SPECTRUM)
    (out / "report.txt").unlink()
    tally = run.Tally()
    tally.record("spectrum", checks.check_outputs(SPECTRUM, out, 0, REF, {}))
    (out / "spectrum.csv").unlink()
    (out / "report.txt").write_text("ok\n")
    tally.record("spectrum", checks.check_outputs(SPECTRUM, out, 0, REF, {}))
    assert (tally.attempted, tally.failed, tally.fail_frac) == (2, 2, 1.0)


def test_exit_status_is_a_failure(tmp_path):
    out = _fake_outputs(tmp_path, SPECTRUM)
    assert checks.check_outputs(SPECTRUM, out, 2, REF, {}) == ["exit status 2"]


def _scaled_spectrum(factor):
    header, rows = checks.parse_csv((REF / "spectrum" / "spectrum.csv").read_text())
    lines = [",".join(header)]
    for n, mu, lam, conv in rows:
        lines.append(f"{n},{float(mu) * factor!r},{float(lam) / factor!r},{conv}")
    return "\n".join(lines) + "\n"


def test_wrong_reference_is_a_failure(tmp_path):
    tally = run.Tally()
    # within eigensolver noise: accepted
    out = _fake_outputs(tmp_path / "ok", SPECTRUM, _scaled_spectrum(1 + 4e-9))
    tally.record("spectrum", checks.check_outputs(SPECTRUM, out, 0, REF, {}))
    # a spectrum off by 1e-5: refused
    out = _fake_outputs(tmp_path / "bad", SPECTRUM, _scaled_spectrum(1 + 1e-5))
    tally.record("spectrum", checks.check_outputs(SPECTRUM, out, 0, REF, {}))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "column 'mu'" in tally.reasons[0]


def test_compare_csv_rules():
    ref = "n,mu,lambda,converged,rel_err\n1,0.5,2,False,1e-3\n2,0.25,,False,2e-3\n"
    assert checks.compare_csv(ref.replace("False", "True"), ref) == []  # converged may change
    assert checks.compare_csv(ref.replace("1e-3", "1.00004e-3"), ref) == []  # absolute on rel_err
    assert checks.compare_csv(ref.replace("1e-3", "1.2e-3"), ref) != []
    assert checks.compare_csv(ref.replace(",,", ",4,"), ref) != []  # blank stays blank
    assert checks.compare_csv(ref.rsplit("2,", 1)[0], ref) != []  # row missing
    assert checks.compare_csv(ref.replace("lambda", "lam"), ref) != []  # column missing
    assert checks.compare_csv(ref.replace(",1e-3", ""), ref) != []  # short row


def test_nondeterministic_output_is_a_failure(tmp_path):
    seen = {}
    first = _fake_outputs(tmp_path / "a", SPECTRUM, _scaled_spectrum(1.0))
    second = _fake_outputs(tmp_path / "b", SPECTRUM, _scaled_spectrum(1 + 1e-15))
    assert checks.check_outputs(SPECTRUM, first, 0, REF, seen) == []
    problems = checks.check_outputs(SPECTRUM, second, 0, REF, seen)
    assert problems == ["spectrum.csv differs from an earlier run of the same config"]


def test_tracer_self_time_excludes_children():
    tr = tracer.Tracer()

    def inner():
        time.sleep(0.03)

    inner_w = tr.wrap("m.inner", inner)

    def outer():
        time.sleep(0.02)
        inner_w()
        inner_w()

    tr.wrap("m.outer", outer)()
    assert tr.calls == {"m.outer": 1, "m.inner": 2}
    assert 0.06 <= tr.self_s["m.inner"] < 0.09
    assert 0.02 <= tr.self_s["m.outer"] < 0.04


def test_integrand_counter_passes_values_through():
    tr = tracer.Tracer()
    log_f = lambda x: [2 * v for v in x]  # noqa: E731
    seen = []

    def integral(f, a, b):
        seen.append(f([a, b]))
        return f([a, (a + b) / 2, b])

    wrapped = tr.wrap("lse_quad.log_integral_exp", integral)
    assert wrapped(log_f, 1.0, 3.0) == [2.0, 4.0, 6.0]
    assert seen == [[2.0, 6.0]]
    assert tr.counts["lse_quad.integrand_batches"] == 2
    # plain lists count one point per call; arrays count their size
    assert tr.counts["lse_quad.integrand_points"] == 2


def test_plain_and_traced_runs_of_one_config(tmp_path):
    wl = Workload("task-mix", "test", (SPECTRUM,))
    bench = run.Bench(wl, seed=0, seconds=0.0, work=tmp_path)
    plain, traced = bench.measure(traced=True)
    assert bench.tally.failed == 0, bench.tally.reasons
    assert (len(plain), len(traced), bench.tally.attempted) == (1, 1, 2)
    layers = traced[0].layers
    assert layers["spectral.eigen_mu.calls"] == 2
    assert layers["spectral.eigen_mu.N_max"] == 400
    assert layers["spectral.eigen_mu.self_s"] > 0
    assert layers["lse_quad.integrand_points"] > 0
    assert 0 < layers["startup.import_s"] < traced[0].wall_s


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "task-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".perfbench-work").exists()
