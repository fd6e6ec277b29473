"""The benchmark's tracer looks the program's functions up by name; a
renamed or removed one would break ``perfbench/run.py --trace 1``."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
