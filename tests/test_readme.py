"""The README's library quick start runs against the package as it is."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(),
                      re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    # the comments quote X ~ 2.86 and the eigenvalues ~[13.70, 24.89, ...]
    assert round(namespace["X"], 2) == 2.86
    assert np.allclose(1.0 / namespace["mu"][:2], [13.70, 24.89], atol=5e-3)
    assert capsys.readouterr().out.startswith("[13.69")
