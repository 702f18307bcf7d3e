"""Record the reference CSVs the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Runs every workload config once through the CLI, as the benchmark does, and
copies its CSVs to perfbench/reference/<workload>/<config>/.  Re-record
only for a deliberate change of results, and say why in the change.
"""

import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
from workloads import WORKLOADS


def main() -> int:
    scratch = run.ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for wl in WORKLOADS.values():
            for cfg in wl.configs:
                work = Path(tmp) / wl.name / cfg.name
                work.mkdir(parents=True)
                (work / "run.cfg").write_text(cfg.text)
                cmd = [sys.executable, "-c", run.CLI, "run", str(work / "run.cfg"),
                       "--out", str(work / "out"), "--threads", "1"]
                inv = run.invoke(cmd, run.child_env(False), work / "log.txt",
                                 time.perf_counter() + 600.0)
                if inv.status != 0:
                    print((work / "log.txt").read_text(), file=sys.stderr)
                    print(f"{wl.name}/{cfg.name}: exit status {inv.status}", file=sys.stderr)
                    return 1
                dest = run.REFERENCE / wl.name / cfg.name
                shutil.rmtree(dest, ignore_errors=True)
                dest.mkdir(parents=True)
                for fname in cfg.outputs:
                    if fname.endswith(".csv"):
                        shutil.copy(work / "out" / fname, dest / fname)
                print(f"{wl.name}/{cfg.name}: {inv.wall_s:.2f} s")
    try:
        scratch.rmdir()
    except OSError:
        pass  # a benchmark run's directory is still there
    return 0


if __name__ == "__main__":
    sys.exit(main())
