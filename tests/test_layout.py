"""Source layout: a subcommand's output is written in one place, no
module imports a name it does not use, every private function is referenced,
each admission line is written once, in ``orientation``,
no check is an ``assert``, every text file is opened with an encoding,
only ``cli.main`` touches the cyclic collector, and only the simulation
loads numpy.

Every ``cli._cmd_*`` handler returns its text and ``cli.main`` writes it,
so nothing else in the package may touch stdout, the ``out`` stream of
``cli`` or ``print``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "causaltiers"
MODULES = sorted(SRC.glob("*.py"))
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def uses(text: str, module: str) -> list[tuple[str, str]]:
    """``(scope, what)`` for every ``print`` call and stdout reference in
    ``text``, and in ``cli`` every use of the name ``out``; the scope is
    the dotted name of the enclosing functions and classes."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            found.append((scope, "print"))
        name = (
            node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name)
            else node.arg if isinstance(node, ast.arg)
            else node.name if isinstance(node, ast.alias)
            else None
        )
        if name in ("stdout", "__stdout__"):
            found.append((scope, "stdout"))
        elif name == "out" and module == "cli" and not isinstance(node, ast.Attribute):
            found.append((scope, "out"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), module)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_only_main_writes_stdout(path):
    found = uses(path.read_text(), path.stem)
    assert all(what != "print" for _, what in found), found
    assert all(scope == "cli.main" for scope, _ in found), found


def test_main_is_the_output_path():
    assert set(uses((SRC / "cli.py").read_text(), "cli")) == {
        ("cli.main", "stdout"),
        ("cli.main", "out"),
    }


@pytest.mark.parametrize(
    "text, module, expected",
    [
        ("def f():\n    print('x')\n", "graphs", [("graphs.f", "print")]),
        ("import sys\ndef f():\n    sys.stdout.write('x')\n", "ida", [("ida.f", "stdout")]),
        ("from sys import stdout\n", "tiers", [("tiers", "stdout")]),
        ("def _cmd_x(args, out):\n    out.write('x')\n", "cli", [("cli._cmd_x", "out")] * 2),
        ("def f(args):\n    return args.out\n", "cli", []),
        ("def f():\n    out = set()\n    return out\n", "graphs", []),
    ],
    ids=["print", "sys.stdout", "import", "cli-out", "cli-option", "other-out"],
)
def test_checker_finds_writes(text, module, expected):
    assert uses(text, module) == expected


def unused_imports(text: str) -> list[str]:
    """Names that ``text`` imports, at any depth, and never uses.

    A name is used when it is read anywhere, appears in a quoted
    annotation, or is listed in the module's ``__all__``.
    ``from __future__`` imports are exempt.
    """
    tree = ast.parse(text)
    imported, used = [], set()

    def names_in(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = (
            [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign))
            else [node.returns] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else []
        )
        for quoted in (n for a in annotations if a for n in ast.walk(a)):
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                used |= names_in(ast.parse(quoted.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "text, expected",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from .graphs import PDAG as G, Node\nG\n", ["Node"]),
        ("from __future__ import annotations\n", []),
        ("from .tiers import T\ndef f(x: 'T') -> list['T']:\n    pass\n", []),
        ("from .tiers import T\nx: 'list[T]' = []\n", []),
        ("from .tiers import T\ntext = 'T'\n", ["T"]),
        ("from .graphs import A, B\n__all__ = ['A']\n", ["B"]),
        ("def f():\n    import json\n    return 1\n", ["json"]),
    ],
    ids=["import", "dotted", "alias", "future", "quoted", "annassign", "string", "all", "nested"],
)
def test_checker_finds_unused_imports(text, expected):
    assert unused_imports(text) == expected


def unreferenced_private_functions(texts: list[str]) -> list[str]:
    """Private functions and methods defined in ``texts`` (names with one
    leading underscore, not dunders) whose name is never read in ``texts``,
    as a name or an attribute: dead helpers a deletion left behind."""
    defined, read = [], set()
    for tree in map(ast.parse, texts):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append(node.name)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [name for name in defined if name not in read]


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions([path.read_text() for path in MODULES]) == []


@pytest.mark.parametrize(
    "texts, expected",
    [
        (["def _f():\n    pass\n"], ["_f"]),
        (["def _f():\n    pass\n", "from .a import _f\n"], []),
        (["def _f():\n    pass\ng = _f\n"], []),
        (["class A:\n    def _m(self):\n        pass\n    def f(self):\n        return self._m()\n"], []),
        (["def __getattr__(name):\n    pass\ndef f():\n    pass\n"], []),
        (["def _f():\n    return '_f'\n"], ["_f"]),
    ],
    ids=["unused", "imported", "read", "method", "dunder-and-public", "string"],
)
def test_checker_finds_unreferenced_private_functions(texts, expected):
    assert unreferenced_private_functions(texts) == expected


@pytest.mark.parametrize(
    "line",
    ["not a CPDAG or tiered MPDAG: ", "not a CPDAG: the undirected part is not chordal at "],
    ids=["shared-parents", "chordal-part"],
)
def test_admission_lines_live_in_orientation(line):
    """Each line that refuses an input is written once, in ``orientation``,
    whose tiered pass and counts admit every input."""
    assert [path.stem for path in MODULES for _ in range(path.read_text().count(line))] == [
        "orientation"
    ]


def asserts(text: str) -> list[int]:
    """Lines of the ``assert`` statements in ``text``: ``python -O`` drops
    them, so a check of the program must be a plain ``if`` and ``raise``."""
    return [node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_asserts(path):
    assert asserts(path.read_text()) == []


@pytest.mark.parametrize(
    "text, expected",
    [
        ("assert x\n", [1]),
        ("def f(x):\n    assert x, 'why'\n", [2]),
        ("if not x:\n    raise ValueError(x)\n", []),
        ("text = 'assert x'\n", []),
    ],
    ids=["module", "function", "plain-check", "string"],
)
def test_checker_finds_asserts(text, expected):
    assert asserts(text) == expected


def collector_uses(text: str) -> set[str]:
    """Where ``text`` touches the ``gc`` module: "import" for an import of
    it, and the name of each top-level function or class that names it."""
    found = set()
    for top in ast.parse(text).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "gc"):
                found.add("import")
            elif isinstance(node, ast.Name) and node.id == "gc":
                found.add(getattr(top, "name", "module level"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_only_main_touches_the_collector(path):
    """The entry point that owns the process pauses the cyclic collector;
    library code leaves it alone."""
    expected = {"import", "main"} if path.stem == "cli" else set()
    assert collector_uses(path.read_text(encoding="utf-8")) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("import gc\n\ndef main():\n    gc.disable()\n", {"import", "main"}),
        ("from gc import collect\n", {"import"}),
        ("import os, gc\n\nclass A:\n    def f(self):\n        return gc.isenabled()\n",
         {"import", "A"}),
        ("gc = None\n", {"module level"}),
        ("text = 'gc.disable()'\n", set()),
    ],
    ids=["function", "from-import", "method", "module-level", "string"],
)
def test_checker_finds_collector_uses(text, expected):
    assert collector_uses(text) == expected


def opens_without_encoding(text: str) -> list[int]:
    """Lines of the ``open(...)`` and ``x.open(...)`` calls in ``text``
    (``os.open`` aside) that name no ``encoding`` and whose mode is not a
    literal binary one: such a file takes the locale's encoding."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            at = 1
        elif isinstance(func, ast.Attribute) and func.attr == "open" and not (
            isinstance(func.value, ast.Name) and func.value.id == "os"
        ):
            at = 0
        else:
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = keywords.get("mode", node.args[at] if len(node.args) > at else None)
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if "encoding" not in keywords and not binary:
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_open_names_an_encoding(path):
    assert opens_without_encoding(path.read_text()) == []


@pytest.mark.parametrize(
    "text, expected",
    [
        ("open(p)\n", [1]),
        ("with open(p, 'w') as fh:\n    pass\n", [1]),
        ("open(p, 'w', encoding='utf-8')\n", []),
        ("open(p, 'rb')\n", []),
        ("open(p, mode='wb')\n", []),
        ("open(p, mode)\n", [1]),
        ("path.open('w')\n", [1]),
        ("path.open(encoding='utf-8')\n", []),
        ("os.open(p, os.O_RDONLY)\n", []),
    ],
    ids=["bare", "write", "encoding", "binary", "binary-keyword", "unknown-mode",
         "method", "method-encoding", "os-open"],
)
def test_checker_finds_opens_without_encoding(text, expected):
    assert opens_without_encoding(text) == expected


def run_fresh(script: str, cwd: Path) -> None:
    """Run ``script`` in a new interpreter that imports the package from
    ``src/``, in ``cwd``; fails the test on a non-zero exit."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


NOT_LOADED = (
    "lazy = {'numpy', 'causaltiers.simulation'} & set(sys.modules)\n"
    "assert not lazy, sorted(lazy)\n"
)
ORIENT = ["orient", str(FIXTURES / "wave_cpdag.txt"), "--tiers", str(FIXTURES / "wave_tiers3.txt")]
SIMULATE = ["simulate", "--nodes", "8", "--density", "sparse", "--generator", "er",
            "--reps", "2", "--out", "cell.csv"]


@pytest.mark.parametrize(
    "script",
    [
        "import causaltiers\n" + NOT_LOADED,
        "import causaltiers.cli\n" + NOT_LOADED,
        "import io\nfrom causaltiers import cli\n"
        f"assert cli.main({ORIENT!r}, out=io.StringIO()) == 0\n" + NOT_LOADED
        + f"assert cli.main({SIMULATE!r}, out=io.StringIO()) == 0\n"
        "assert 'numpy' in sys.modules\n",
    ],
    ids=["package", "cli", "orient-then-simulate"],
)
def test_numpy_loads_only_for_simulate(script, tmp_path):
    run_fresh("import sys\n" + script, tmp_path)


@pytest.mark.parametrize(
    "script",
    [
        "from causaltiers import *\nimport causaltiers\n"
        "assert [n for n in causaltiers.__all__ if n not in globals()] == []\n",
        "import causaltiers, causaltiers.simulation as sim\n"
        "assert causaltiers.run_cell is sim.run_cell\n"
        "assert causaltiers.TIER_SCHEMES is sim.TIER_SCHEMES\n",
        "import causaltiers\nassert set(causaltiers.__all__) <= set(dir(causaltiers))\n",
        "import causaltiers, types\n"
        "def message(module):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError as exc:\n"
        "        return str(exc)\n"
        "assert message(causaltiers) == message(types.ModuleType('causaltiers')), "
        "message(causaltiers)\n",
    ],
    ids=["star-import", "same-objects", "dir", "unknown-name"],
)
def test_lazy_names_behave_as_bound(script, tmp_path):
    run_fresh(script, tmp_path)
