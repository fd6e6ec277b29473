"""The benchmark's tracer looks the program's functions up by name; a
renamed or removed one would break ``perfbench/run.py --trace 1``."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for short in tracing.MODULES:
        importlib.import_module(f"causaltiers.{short}")
    missing = []
    for short, names in tracing.TRACED.items():
        assert short in tracing.MODULES, short
        for qual in names:
            obj = importlib.import_module(f"causaltiers.{short}")
            for part in qual.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{short}.{qual}")
    assert not missing, missing


def test_tracing_sees_the_simulation(tmp_path):
    """``cli`` imports the simulation only when ``simulate`` runs; that
    import must still find the functions the tracer rebound.  Run in a new
    interpreter, since :func:`tracing.install` rebinds for good."""
    script = (
        "import collections, io, json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import tracing\n"
        "rec = tracing.install()\n"
        "from causaltiers import cli\n"
        "argv = ['simulate', '--nodes', '8', '--density', 'sparse', '--generator', 'er',\n"
        "        '--reps', '2', '--out', 'cell.csv']\n"
        "assert cli.main(argv, out=io.StringIO()) == 0\n"
        "print(json.dumps(collections.Counter(span[0] for span in rec.spans)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(done.stdout)
    assert spans["cli.main"] == 1
    assert spans.get("simulation.random_dag", 0) > 0, spans
    assert spans.get("simulation.emit_results", 0) == 1, spans
