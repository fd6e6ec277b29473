"""Each walkthrough in ``demos/`` runs cleanly as a script and prints the
stdout pinned in ``tests/fixtures/expected/demo_<name>.txt``.  Under
``python -O`` the demos run under ``-O`` too, against the same files.
The README's examples run too, against what the README says they give."""

import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import causaltiers
from causaltiers.cli import main

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


README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_quick_start_runs_as_commented():
    """The "Library quick start" block runs, and each line's "n of m edges
    directed" comment holds for the graph that line assigns."""
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    claims = re.findall(r"^(\w+) = .*# (\d+) of (\d+) edges directed$", block, re.M)
    assert [name for name, _, _ in claims] == ["cpdag", "mpdag"]
    for name, directed, edges in claims:
        g = namespace[name]
        got = len(g.directed_edges), len(g.directed_edges) + len(g.undirected_edges)
        assert got == (int(directed), int(edges)), name


def test_readme_square_refusal_is_what_orient_writes(tmp_path, capsys):
    """The Domain paragraph's square, under its one tier, makes ``orient``
    exit 1 with the stderr line the README quotes, and nothing on stdout."""
    domain = README[README.index("**Domain.**"):]
    graph = re.search(r"```\n(nodes:.*?)```", domain, re.S).group(1)
    tiers = re.search(r"`(tier 1: [^`]*)` in `one_tier.txt`", domain).group(1)
    command, line = re.search(r"```sh\n\$ causaltiers (.*)\n(.*)\n```", domain).groups()
    (tmp_path / "square.txt").write_text(graph, encoding="utf-8")
    (tmp_path / "one_tier.txt").write_text(tiers + "\n", encoding="utf-8")
    argv = [str(tmp_path / word) if word.endswith(".txt") else word for word in command.split()]
    out = io.StringIO()
    assert (main(argv, out=out), out.getvalue()) == (1, "")
    assert capsys.readouterr().err == line + "\n"


def test_readme_public_names_are_all():
    """The README's "Public names" list is ``causaltiers.__all__``, in its
    order, and each is a name of the module it is listed under."""
    section = re.search(r"### Public names\n(.*?)\n#", README, re.S).group(1)
    listed = []
    for module, names in re.findall(r"^- `(\w+)`[^:]*: (.*(?:\n  .*)*)", section, re.M):
        defined = importlib.import_module(f"causaltiers.{module}")
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(defined, name), (module, name)
            listed.append(name)
    assert listed == causaltiers.__all__
