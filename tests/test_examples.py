"""Every example runs to completion.

The examples are entry points of the program: the reach scan in
``test_lint.py`` counts their code as reached, so a deletion that
breaks one must fail here.  Each runs from a copy in its own temporary
directory, because some write their artifacts beside the script.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(example, tmp_path):
    script = tmp_path / example.name
    shutil.copy(example, script)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, script.name],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
