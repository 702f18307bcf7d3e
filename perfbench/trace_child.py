"""One traced CLI invocation, in-process.

    python perfbench/trace_child.py SPANS_JSON MODULES -- run CONFIG --out DIR --threads 1

Imports ``subspec.cli`` and the comma-separated MODULES (timed as
``startup.import_s``), wraps the package's public callables (see tracer.py),
runs ``subspec.cli.run_cli`` on the arguments after ``--`` inside the root
span ``cli.task``, writes the span summary to SPANS_JSON and exits with the
CLI's status.  Needs ``src`` on PYTHONPATH, as the plain invocation does,
and the BLAS thread variables set beforehand: numpy loads here before the
CLI could pin them from ``--threads``.
"""

import importlib
import json
import sys
import time

import tracer


def main(argv) -> int:
    spans_path, modules = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    t0 = time.perf_counter()
    cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
    for name in filter(None, modules.split(",")):
        importlib.import_module(f"{tracer.PACKAGE}.{name}")
    import_s = time.perf_counter() - t0

    tr = tracer.Tracer()
    tracer.install(tr)
    status = tr.wrap(tracer.ROOT_SPAN, cli.run_cli)(cli_args)

    record = tr.summary()
    record["startup.import_s"] = import_s
    with open(spans_path, "w") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
