"""Each output check passes on the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from causaltiers import cli  # noqa: E402


def run(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(op.argv, out=out) == 0
    stdout, stderr = out.getvalue(), err.getvalue()
    assert op.check(op, stdout, stderr) is None
    return stdout, stderr


def test_sim_check_rejects_a_count_off_by_one(tmp_path):
    op = wl.sim_op(tmp_path, 11, 0, 12, 2, ("dense", "er"))
    stdout, stderr = run(op)
    path = op.expect["csv"]
    rows = path.read_text().splitlines()
    fields = rows[3].split(",")
    fields[7] = str(int(fields[7]) + 1)
    path.write_text("\n".join(rows[:3] + [",".join(fields)] + rows[4:]) + "\n")
    assert "differs from reference" in op.check(op, stdout, stderr)


def test_sim_check_rejects_a_wrong_summary(tmp_path):
    op = wl.sim_op(tmp_path, 12, 0, 12, 3, ("sparse", "power"))
    stdout, stderr = run(op)
    payload = json.loads(stdout)
    payload["cells"][0]["max"] += 0.5
    assert "summary" in op.check(op, json.dumps(payload), stderr)


def test_sim_reference_redraws_the_programs_dags():
    from causaltiers.independence import cpdag_of
    from causaltiers.simulation import DENSITY_NEIGHBOURS, SimCell, _replication_rng, random_dag

    for generator in ref.GENERATORS:
        nodes, arcs = ref.simulation_dag(3, 20, "dense", generator, 1)
        dag = random_dag(20, DENSITY_NEIGHBOURS["dense"], generator,
                         _replication_rng(3, SimCell(20, "dense", generator), 1))
        assert set(dag.directed_edges) == arcs
        c = ref.cpdag(nodes, arcs)
        assert set(cpdag_of(dag).directed_edges) == c.arcs()


@pytest.mark.parametrize("full_rules", [False, True])
def test_orient_check_rejects_one_flipped_edge(tmp_path, full_rules):
    op = wl.orient_op(tmp_path, wl.shape_rng(0, 0, 5), np.random.default_rng(5), 0, 60, "full", full_rules)
    stdout, stderr = run(op)
    lines = stdout.splitlines()
    k = next(i for i, line in enumerate(lines) if " -> " in line)
    a, b = lines[k].split(" -> ")
    lines[k] = f"{b} -> {a}"
    assert "differs from the reference" in op.check(op, "\n".join(lines) + "\n", stderr)


def test_orient_check_rejects_a_wrong_trace(tmp_path):
    op = wl.orient_op(tmp_path, wl.shape_rng(0, 0, 6), np.random.default_rng(6), 0, 60, "early2", True)
    stdout, stderr = run(op)
    lines = stderr.splitlines()
    assert lines, "the input should need rule-1 propagation"
    assert "traced edges" in op.check(op, stdout, "\n".join(lines[1:]) + "\n")
    lines[0] = lines[0].replace("rule1", "rule2")
    assert "rule other than rule 1" in op.check(op, stdout, "\n".join(lines) + "\n")


@pytest.mark.parametrize("kind", wl.COMPARE_KINDS)
def test_compare_check_rejects_each_wrong_verdict(tmp_path, kind):
    op = wl.compare_op(tmp_path, wl.shape_rng(0, 0, 7), np.random.default_rng(7), 0, 12, kind)
    stdout, stderr = run(op)
    flips = {
        "equivalent": lambda v: not v,
        "informativeness": lambda v: "incomparable" if v != "incomparable" else "equivalent",
        "refinement": lambda v: "equal" if v != "equal" else "first-finer",
    }
    for key, flip in flips.items():
        payload = json.loads(stdout)
        payload[key] = flip(payload[key])
        assert op.check(op, json.dumps(payload), stderr) is not None


def test_compare_kinds_cover_every_verdict(tmp_path):
    seen = set()
    for k, kind in enumerate(wl.COMPARE_KINDS * 2):
        op = wl.compare_op(tmp_path, wl.shape_rng(0, 0, k), np.random.default_rng(k), k, 12, kind)
        seen.add(op.expect["informativeness"])
    assert seen == {"equivalent", "first-more-informative", "second-more-informative",
                    "incomparable"}


@pytest.mark.parametrize("sizes, widths", [((10,), (2,)), ((10, 10), (2, 3))])
def test_ida_check_rejects_a_multiplicity_off_by_one(tmp_path, sizes, widths):
    op = wl.ida_op(tmp_path, np.random.default_rng(8), 0, sizes, widths)
    stdout, stderr = run(op)
    payload = json.loads(stdout)
    payload["joint_parent_sets"][0]["multiplicity"] += 1
    assert "multiset differs" in op.check(op, json.dumps(payload), stderr)
    payload["joint_parent_sets"][0]["multiplicity"] -= 1
    payload["joint_parent_sets"].pop()
    assert "multiset differs" in op.check(op, json.dumps(payload), stderr)


def test_reference_orientations_count_chordal_classes():
    # a path on n nodes has n orientations without v-structures; a
    # triangle has 6 (every acyclic orientation)
    nodes, edges = wl.band("P", 5, 1)
    assert len(ref.orientations(ref.Graph(nodes, (), edges), nodes)) == 6
    tri = ref.Graph("abc", (), [("a", "b"), ("b", "c"), ("a", "c")])
    assert len(ref.orientations(tri, list("abc"))) == 6
