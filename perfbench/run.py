"""subspec benchmark: `subspec run` wall, CPU and peak RSS per workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the package is taken from its ``src``.  One closed-loop client: every CLI
invocation is a fresh interpreter (``PYTHONPATH=src``, ``--threads 1``)
started after the previous one exited.  A pass runs each of the workload's
configs once, in an order shuffled by the seed; passes repeat for about S
seconds, and at least twice so that the determinism check has a pair to
compare (time limit permitting).

--trace 0 reports the end-to-end metrics, medians over passes:
  wall_s       wall time of one pass, interpreter start-up included
  cpu_s        user+sys CPU of the pass's child processes (os.wait4)
  peak_rss_mb  largest child peak RSS in a pass (os.wait4)
  setup_s      median over at least SETUP_REPEATS fresh interpreters that
               only import subspec.cli and the workload's task modules, one
               before each pass
--trace 1 alternates an untraced pass with a traced one, in which each
config runs in-process under trace_child.py, and reports per-layer self
times and work counts (medians over traced passes of per-pass sums).

Every invocation's outputs are checked (checks.py); failures are counted in
"failed".  Human-readable lines come first, the JSON result is the last line
of standard output.  Exits 2 without a result when src/subspec is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0  # a run must end well within 180 s
MIN_PASSES = 2

CLI = "import sys; from subspec.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = """import json, platform, numpy, scipy
def blas(mod):
    try:
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{dep.get('name')} {dep.get('version')}"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "numpy_blas": blas(numpy),
                  "scipy_blas": blas(scipy)}))
"""

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
# per-layer metrics reported in the JSON result: those every workload exercises
PER_LAYER_UNITS = {
    "spectral.eigen_mu.self_s": "s",
    "spectral.eigen_mu.calls": "count",
    "spectral.eigen_mu.N_max": "count",
    "discretization.assemble_kernel.self_s": "s",
    "discretization.assemble_kernel.calls": "count",
    "discretization.assemble_kernel.computed_bytes": "B",
    "lse_quad.segment_log_integrals.self_s": "s",
    "lse_quad.log_integral_exp.self_s": "s",
    "lse_quad.integrand_points": "count",
    "lse_quad.integrand_batches": "count",
    "subordinate.SubordinateCache.self_s": "s",
    "subordinate.SubordinateCache.nodes": "count",
    "phi_models.make_phi.self_s": "s",
    "phi_models.make_phi.calls": "count",
    "spectral.write_spectrum_csv.self_s": "s",
    "cli.task.self_s": "s",
    "startup.import_s": "s",
}
# printed as well: layers only some workloads reach
REPORTED_LAYERS = (
    "discretization.operator_norm.self_s",
    "discretization.auto_truncation.self_s",
    "scattering.numeric_trace_norm.self_s",
    "scattering.xi_norms.self_s",
    "oracle_fd.fd_eigenvalues.self_s",
    "oracle_fd.cross_validate.self_s",
)


class SetupError(RuntimeError):
    """The package cannot be imported: no meaningful result exists."""


@dataclass
class Invocation:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=lambda: defaultdict(float))

    def add(self, inv: Invocation) -> None:
        self.wall_s += inv.wall_s
        self.cpu_s += inv.cpu_s
        self.peak_rss_mb = max(self.peak_rss_mb, inv.rss_mb)


@dataclass
class Tally:
    """Attempted and failed invocations, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {'; '.join(problems)}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def invoke(cmd: list, env: dict, log: Path, deadline: float) -> Invocation:
    """Run one child to completion; killed at `deadline` (perf_counter)."""
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        _, wstatus, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()  # interrupted: leave no child behind
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)


def child_env(pin_threads: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if pin_threads:  # what `--threads 1` does inside the CLI, before numpy loads
        for var in THREAD_VARS:
            env.setdefault(var, "1")
    return env


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment() -> dict:
    out = subprocess.run([sys.executable, "-c", PROBE], env=child_env(True),
                         capture_output=True, text=True, check=True)
    env = json.loads(out.stdout)
    env["nproc"] = os.cpu_count()
    env["cpus_usable"] = len(os.sched_getaffinity(0))
    env["thread_vars"] = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    env["commit"] = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        env["commit"] = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "subspec").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


class Bench:
    def __init__(self, workload, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.work = work
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        self.measure_start = None
        self.tally = Tally()
        self.seen = {}
        self.converged = [0, 0]  # converged, requested (spectrum.csv rows)
        self.oracle_err = []
        self.n_invocations = 0
        self.setup = []  # setup_s samples
        self.cfg_paths = {}
        for cfg in workload.configs:
            path = work / f"{cfg.name}.cfg"
            path.write_text(cfg.text)
            self.cfg_paths[cfg.name] = path

    def setup_sample(self) -> None:
        """Time a fresh interpreter importing the workload's modules."""
        imports = ", ".join(f"subspec.{m}" for m in self.workload.modules)
        log = self.work / f"setup{len(self.setup)}.log"
        inv = invoke([sys.executable, "-c", f"import {imports}"], child_env(True), log,
                     self.deadline)
        if inv.status != 0:
            raise SetupError(log.read_text())
        self.setup.append(inv.wall_s)

    def _outdir(self, tag: str, cfg) -> Path:
        self.n_invocations += 1
        d = self.work / f"{self.n_invocations:04d}-{tag}-{cfg.name}"
        d.mkdir()
        return d

    def _cli_args(self, cfg, outdir: Path) -> list:
        return ["run", str(self.cfg_paths[cfg.name]), "--out", str(outdir / "out"),
                "--threads", "1"]

    def run_pass(self, order: list, traced: bool) -> Pass:
        p = Pass()
        for cfg in order:
            outdir = self._outdir("traced" if traced else "plain", cfg)
            if traced:
                spans = outdir / "spans.json"
                cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans),
                       ",".join(self.workload.modules), "--"] + self._cli_args(cfg, outdir)
            else:
                cmd = [sys.executable, "-c", CLI] + self._cli_args(cfg, outdir)
            inv = invoke(cmd, child_env(traced), outdir / "log.txt", self.deadline)
            p.add(inv)
            problems = checks.check_outputs(cfg, outdir / "out", inv.status,
                                            REFERENCE / self.workload.name, self.seen)
            if traced:
                if spans.is_file():
                    _add_spans(p.layers, json.loads(spans.read_text()))
                else:
                    problems.append("traced run wrote no spans")
            self.tally.record(f"{'traced ' if traced else ''}{cfg.name}", problems)
            if not traced and not problems:
                self._quality(cfg, outdir / "out")
        return p

    def _quality(self, cfg, out: Path) -> None:
        if cfg.task == "spectrum":
            conv = checks.column((out / "spectrum.csv").read_text(), "converged")
            self.converged[0] += conv.count("True")
            self.converged[1] += len(conv)
        elif cfg.task == "oracle":
            errs = checks.column((out / "oracle.csv").read_text(), "rel_err")
            self.oracle_err += map(float, errs)

    def keep_going(self, done: int, needed: int, last_s: float) -> bool:
        """Start another pass (or pass pair) of about last_s seconds?"""
        now = time.perf_counter()
        if now + last_s > self.deadline:
            return False
        return done < needed or now - self.measure_start + last_s <= self.seconds

    def measure(self, traced: bool) -> tuple:
        """Passes (untraced) and traced passes, repeated for `seconds`.

        Untraced, a setup sample precedes each pass, so that setup_s sees the
        same machine as the passes; samples are topped up to SETUP_REPEATS.
        """
        self.measure_start = time.perf_counter()
        plain, traced_passes = [], []
        while True:
            if not traced:
                self.setup_sample()
            t0 = time.perf_counter()
            order = list(self.workload.configs)
            self.rng.shuffle(order)
            plain.append(self.run_pass(order, traced=False))
            if traced:
                traced_passes.append(self.run_pass(order, traced=True))
            # a traced pass is held to its untraced twin, so one pair suffices
            needed = 1 if traced else MIN_PASSES
            if not self.keep_going(len(plain), needed, time.perf_counter() - t0):
                break
        while not traced and len(self.setup) < SETUP_REPEATS:
            self.setup_sample()
        return plain, traced_passes


def _add_spans(layers: dict, record: dict) -> None:
    for name, v in record["self_s"].items():
        layers[f"{name}.self_s"] += v
    for name, v in record["calls"].items():
        layers[f"{name}.calls"] += v
    for name, v in record["counts"].items():
        layers[name] += v
    for name, v in record["maxima"].items():
        layers[name] = max(layers[name], v)
    layers["startup.import_s"] += record["startup.import_s"]


def _row(name: str, value: float, unit: str, note: str = "", width: int = 20,
         indent: int = 2) -> str:
    return f"{' ' * indent}{name:<{width}} {value:>12.6g} {unit:<6} {note}".rstrip()


def end_to_end(bench: Bench, plain: list) -> tuple:
    series = {
        "wall_s": [p.wall_s for p in plain],
        "cpu_s": [p.cpu_s for p in plain],
        "peak_rss_mb": [p.peak_rss_mb for p in plain],
        "setup_s": bench.setup,
    }
    metrics, lines = {}, []
    for name, values in series.items():
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        unit = END_TO_END_UNITS[name]
        metrics[name] = {"value": med, "unit": unit}
        lines.append(_row(name, med, unit, f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"))
    t = bench.tally
    lines.append(_row("fail_frac", t.fail_frac, "frac", f"({t.failed}/{t.attempted} invocations)"))
    done, asked = bench.converged
    if asked:
        lines.append(_row("converged_frac", done / asked, "frac",
                          f"({done}/{asked} spectrum.csv rows)"))
    if bench.oracle_err:
        lines.append(_row("oracle_max_rel_err", max(bench.oracle_err), "frac"))
    return metrics, lines


def per_layer(plain: list, traced: list) -> tuple:
    names = sorted({k for p in traced for k in p.layers})
    table = {k: statistics.median(p.layers.get(k, 0.0) for p in traced) for k in names}
    metrics = {k: {"value": table.get(k, 0.0), "unit": u} for k, u in PER_LAYER_UNITS.items()}
    overhead = statistics.median(t.wall_s - p.wall_s for p, t in zip(plain, traced))
    untraced = statistics.median(p.wall_s for p in plain)
    lines = [_row("tracing overhead", overhead, "s",
                  f"(traced minus untraced pass wall; untraced {untraced:.6g} s, n={len(traced)})")]
    modules = defaultdict(float)
    for k, v in table.items():
        if k.endswith(".self_s"):
            modules[k.split(".", 1)[0]] += v
    modules["startup"] = table.get("startup.import_s", 0.0)
    total = sum(modules.values())
    lines.append("  self time by module (layer) and import time, share of their sum:")
    for mod, v in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(_row(mod, v, "s", f"{100 * v / total:5.1f}%", 16, 4))
    lines.append("  per-layer metrics:")
    for k in list(PER_LAYER_UNITS) + list(REPORTED_LAYERS):
        lines.append(_row(k, table.get(k, 0.0), PER_LAYER_UNITS.get(k, "s"), "", 48, 4))
    lines.append("  all spans (self time, calls):")
    for k in names:
        if k.endswith(".self_s"):
            span = k.removesuffix(".self_s")
            calls = int(table.get(span + ".calls", 0))
            lines.append(_row(span, table[k], "s", f"{calls:>7}", 48, 4))
    return metrics, lines


def result(tally: Tally, metrics: dict) -> dict:
    """The JSON object printed as the last line of standard output."""
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its report; the JSON result comes last."""
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        bench = Bench(workload, seed, seconds, work)
        try:
            env = environment()
            plain, traced = bench.measure(traced=trace)
        except (SetupError, subprocess.CalledProcessError) as exc:
            print(f"error: the package does not import:\n{exc}", file=sys.stderr)
            return 1
        measured = time.perf_counter() - bench.measure_start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there

    if trace:
        metrics, lines = per_layer(plain, traced)
    else:
        metrics, lines = end_to_end(bench, plain)
    t = bench.tally
    print(f"perfbench {workload.name} seed={seed} trace={int(trace)} passes={len(plain)} "
          f"invocations={t.attempted} measured={measured:.1f}s")
    print("\n".join(lines))
    for reason in t.reasons:
        print(f"  FAILED {reason}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result(t, metrics)))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind through the cleanup, which stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "subspec" / "cli.py").is_file():
        print(f"error: no subspec package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        status = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
