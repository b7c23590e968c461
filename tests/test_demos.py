"""The README's API examples: every demo script and the library example run,
with every warning raised as an error."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert DEMOS, "no demos/0*.py scripts found"


def run_script(cwd, script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    # run a copy: a demo may write output next to its own file
    run_script(tmp_path, shutil.copy(demo, tmp_path))


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_library_example_runs(tmp_path, doc):
    """The python block after the "Library:" line runs as written."""
    text = (ROOT / doc).read_text()
    opening = "Library:\n\n```python\n"
    start = text.index(opening) + len(opening)
    script = tmp_path / "library_example.py"
    script.write_text(text[start:text.index("```", start)])
    run_script(tmp_path, script)
