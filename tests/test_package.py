"""Package-level properties: what each import loads, and the README's
library example."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import eitkit

SRC = Path(eitkit.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("statement, check", [
    ("import eitkit", "'numpy' not in sys.modules"),
    ("import eitkit.mesh, eitkit.phantom, eitkit.metrics",
     "not [m for m in sys.modules if m.split('.')[0] == 'scipy']"),
], ids=["package-without-numpy", "numpy-only-modules-without-scipy"])
def test_import_loads_only_what_the_modules_use(statement, check):
    # a fresh interpreter, so that no module imported by the tests counts
    code = f"import sys; {statement}; assert {check}, sorted(sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    (block,) = re.findall(r"^## Library use\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    exec(compile(block, f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out.startswith("max_iters 20 ")


def test_hypothesis_stores_nothing_in_the_checkout():
    # the property tests' constants cache goes to the session's temporary
    # directory (conftest), not to .hypothesis/ under the repository
    from hypothesis.configuration import storage_directory

    path = storage_directory("constants", intent_to_write=False).path.resolve()
    root = README.parent.resolve()
    assert root not in path.parents, path
