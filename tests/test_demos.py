"""Each walkthrough in ``demos/`` runs cleanly as a script and prints the
stdout pinned in ``tests/fixtures/expected/demo_<name>.txt``.  Under
``python -O`` the demos run under ``-O`` too, against the same files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + pythonpath if pythonpath else "")}
    optimize = ["-O"] if sys.flags.optimize else []
    return subprocess.run(
        [sys.executable, *optimize, str(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_without_error(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout == (FIXTURES / "expected" / f"demo_{path.stem}.txt").read_text()


def test_compare_orderings_output_is_unchanged():
    result = run_demo(ROOT / "demos" / "02_compare_orderings.py")
    expected = (FIXTURES / "expected" / "demo_02_compare_orderings.txt").read_text()
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected
