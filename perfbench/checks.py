"""Correctness checks on one CLI invocation's outputs.

An invocation fails when any of these holds:
  - its exit status is not 0;
  - an expected CSV or report.txt is missing;
  - a CSV differs from the reference recorded in reference/ beyond the
    tolerance below;
  - a CSV is not byte-identical to the one the same config wrote earlier in
    the same set of runs (determinism; this also holds traced runs to the
    untraced bytes).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

# Relative tolerance per numeric cell.  A change of eigensolver moves the
# lowest eigenvalues by a relative 2e-12 to 4e-9; a wrong spectrum moves
# them by far more than 1e-7.
RTOL = 1e-7
# Absolute allowance in units of the column's largest magnitude: a dense
# eigensolver resolves small eigenvalues only to about N * eps * ||G||.
NOISE = 1e-12
# Columns that are themselves relative errors: compared absolutely to RTOL.
ABSOLUTE = frozenset({"rel_err"})
# Columns a correct change may alter (the convergence flag should improve).
UNCHECKED = frozenset({"converged"})


def parse_csv(text: str):
    """Header and rows of a CSV text."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def column(text: str, name: str) -> list:
    header, rows = parse_csv(text)
    i = header.index(name)
    return [row[i] for row in rows]


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _cell_ok(name: str, row: list, i: int, want: str, scale: float) -> bool:
    if i >= len(row):
        return False
    got = row[i]
    if got == want:
        return True
    a, b = _float(got), _float(want)
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return False
    tol = RTOL if name in ABSOLUTE else RTOL * abs(b) + NOISE * scale
    return abs(a - b) <= tol


def compare_csv(got_text: str, want_text: str) -> list:
    """Problems with got_text against the reference, per column; [] if none.

    Extra columns in got_text are allowed; every reference column must be
    present with the same number of rows.
    """
    got_header, got_rows = parse_csv(got_text)
    want_header, want_rows = parse_csv(want_text)
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows, reference has {len(want_rows)}"]
    problems = []
    for j, name in enumerate(want_header):
        if name in UNCHECKED:
            continue
        if name not in got_header:
            problems.append(f"column {name!r} missing")
            continue
        i = got_header.index(name)
        want_col = [row[j] for row in want_rows]
        finite = [abs(v) for v in map(_float, want_col) if v is not None and math.isfinite(v)]
        scale = max(finite, default=0.0)
        bad = [k for k, row in enumerate(got_rows)
               if not _cell_ok(name, row, i, want_col[k], scale)]
        if bad:
            k = bad[0]
            got = got_rows[k][i] if i < len(got_rows[k]) else None
            problems.append(f"column {name!r}: {len(bad)} of {len(want_rows)} rows off the "
                            f"reference (row {k + 1}: {got!r} vs {want_col[k]!r})")
    return problems


def check_outputs(cfg, outdir: Path, status: int, reference_dir: Path, seen: dict) -> list:
    """Problems with one invocation of config `cfg`; [] if it succeeded.

    `seen` maps (config name, file) to the digest first written in this set
    of runs and is updated in place.
    """
    problems = [] if status == 0 else [f"exit status {status}"]
    for fname in cfg.outputs:
        path = outdir / fname
        if not path.is_file():
            problems.append(f"{fname} missing")
            continue
        if not fname.endswith(".csv"):
            continue
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        first = seen.setdefault((cfg.name, fname), digest)
        if first != digest:
            problems.append(f"{fname} differs from an earlier run of the same config")
        ref = reference_dir / cfg.name / fname
        if not ref.is_file():
            problems.append(f"{fname}: no reference at {ref}")
            continue
        diff = compare_csv(data.decode(errors="replace"), ref.read_text())
        problems += [f"{fname}: {p}" for p in diff]
    return problems
