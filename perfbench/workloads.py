"""The four workloads: their inputs, made from the seed, and their checks.

An op is one call of the command line, ``cli.main(argv)``.  Every op gets
an input no earlier op of the run has seen: a fresh simulation seed, or
a graph whose labels and node order are drawn afresh from the run's
seed.  So an in-process cache cannot turn repeats into hits that a user
running one command per process never gets.  The graph shapes of
``orient_large``, ``compare_band`` and ``ida_band`` are drawn from fixed
seeds per size class and slot, so every run sorts the same mix of op
costs and its median and tail reflect the program, not the draw.  Each
op's output is checked against :mod:`reference`, never against a stored
copy of the program's output.

A workload is a list of size classes; one pass holds each class's ops,
interleaved.  The class counts put the median op well inside one class,
with about as many cheaper ops below it as dearer ones above, and the
tail op (ten ops beyond it) well inside another, so neither sits on the
boundary between two sizes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref


@dataclass
class Op:
    label: str  #: size class, for the run log
    argv: list
    check: object  #: check(op, stdout, stderr) -> error message or None
    expect: dict = field(default_factory=dict)
    #: reference edge counts: oriented directly by tiers, and by rule 1
    directed_by_tiers: int = 0
    directed_by_rule1: int = 0


# === text formats written and read by the benchmark


def write_graph(path: Path, nodes, arcs=(), undirected=()) -> None:
    lines = ["nodes: " + " ".join(nodes)]
    lines += [f"{a} -> {b}" for a, b in sorted(arcs)]
    lines += [f"{a} -- {b}" for a, b in sorted(tuple(sorted(e)) for e in undirected)]
    path.write_text("\n".join(lines) + "\n")


def write_tiers(path: Path, tiers: dict) -> None:
    levels = sorted(set(tiers.values()))
    path.write_text(
        "".join(f"tier {t}: " + " ".join(v for v in tiers if tiers[v] == t) + "\n" for t in levels)
    )


def parse_graph(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("nodes: "):
        raise ValueError("no nodes header")
    nodes = lines[0][len("nodes: "):].split()
    arcs, und = set(), set()
    for line in lines[1:]:
        if " -> " in line:
            arcs.add(tuple(line.split(" -> ")))
        elif " -- " in line:
            und.add(frozenset(line.split(" -- ")))
        else:
            raise ValueError(f"bad edge line {line!r}")
    return nodes, arcs, und


def _relabel(rng, nodes, order_rng, prefix="N"):
    """Fresh random labels for ``nodes`` from ``rng``, and the order of the
    nodes in the file from ``order_rng`` (the op's cost depends on it)."""
    names = {v: f"{prefix}{k}" for v, k in zip(nodes, rng.permutation(len(nodes)))}
    order = [names[nodes[k]] for k in order_rng.permutation(len(nodes))]
    return names, order


def shape_rng(workload: int, cls: int, slot: int):
    """Fixed stream for the shape of one slot of a size class."""
    return np.random.default_rng([20230602, workload, cls, slot])


def _interleave(counts):
    """One pass as (class, slot) pairs, each class's ops spread evenly."""
    slots = []
    for ci, count in enumerate(counts):
        slots += [((k + 0.5) / count, ci, k) for k in range(count)]
    return [(ci, k) for _, ci, k in sorted(slots)]


# === sim_grid: simulate cells at the paper's scale

SIM_CELLS = [(d, g) for d in ("sparse", "dense") for g in ref.GENERATORS]
#: (nodes, replications per op, ops per pass)
SIM_CLASSES = [(25, 2, 18), (25, 6, 36), (100, 5, 18)]


def sim_op(work: Path, seed: int, index: int, nodes: int, reps: int, cell) -> Op:
    density, generator = cell
    out = work / f"sim{index}.csv"
    argv = ["simulate", "--nodes", str(nodes), "--density", density,
            "--generator", generator, "--reps", str(reps), "--seed", str(seed),
            "--out", str(out), "--json"]
    expect = {"csv": out, "seed": seed, "nodes": nodes, "density": density,
              "generator": generator, "reps": reps}
    return Op(f"n{nodes}x{reps}", argv, check_sim, expect)


def sim_reference(e) -> list:
    """Expected CSV rows, one per replication and scheme, and edge counts."""
    rows, by_tiers, by_rule1 = [], 0, 0
    for rep in range(e["reps"]):
        nodes, arcs = ref.simulation_dag(e["seed"], e["nodes"], e["density"], e["generator"], rep)
        c = ref.cpdag(nodes, arcs)
        n_dir_c = len(c.arcs())
        for scheme in ref.SCHEMES:
            m = ref.tiered_closure(c, ref.scheme_tiers(scheme, nodes))
            by_tiers += len(m.by_tiers)
            by_rule1 += len(m.by_rule1)
            n_dir_m = len(m.graph.arcs())
            gain = (n_dir_m - n_dir_c) / len(arcs) if arcs else 0.0
            rows.append([str(e["nodes"]), e["density"], e["generator"], scheme, str(rep),
                         str(len(arcs)), str(n_dir_c), str(n_dir_m), gain])
    return rows, by_tiers, by_rule1


def check_sim(op: Op, stdout: str, stderr: str):
    e = op.expect
    with open(e["csv"], newline="") as fh:
        got = list(csv.reader(fh))
    expected, op.directed_by_tiers, op.directed_by_rule1 = sim_reference(e)
    if got[0] != ["nodes", "density", "generator", "scheme", "rep", "n_edges",
                  "n_dir_cpdag", "n_dir_mpdag", "gain_frac"]:
        return "CSV header differs"
    if len(got) - 1 != len(expected):
        return f"CSV has {len(got) - 1} rows, expected {len(expected)}"
    for row, exp in zip(got[1:], expected):
        if row[:8] != exp[:8] or float(row[8]) != exp[8]:
            return f"CSV row {row} differs from reference {exp}"
    n_dir = {(row[4], row[3]): int(row[7]) for row in got[1:]}
    for rep in {row[4] for row in got[1:]}:
        for chain in (("full", "early2", "early1"), ("full", "late2", "late1")):
            counts = [n_dir[rep, s] for s in chain]
            if not counts[0] >= counts[1] >= counts[2]:
                return f"rep {rep}: refinement dominance fails along {chain}: {counts}"
    cells = json.loads(stdout)["cells"]
    if sorted(c["scheme"] for c in cells) != sorted(ref.SCHEMES):
        return "summary does not list every scheme once"
    for c in cells:
        gains = [exp[8] for exp in expected if exp[3] == c["scheme"]]
        if c["count"] != e["reps"] or c["min"] != min(gains) or c["max"] != max(gains):
            return f"summary of {c['scheme']} differs from reference"
        if not c["min"] <= c["q1"] <= c["median"] <= c["q3"] <= c["max"]:
            return f"summary quartiles of {c['scheme']} out of order"
    return None


def sim_grid(seed: int, passes: int, work: Path) -> list:
    ops = []
    for p in range(passes):
        for ci, k in _interleave([c[-1] for c in SIM_CLASSES]):
            nodes, reps, _ = SIM_CLASSES[ci]
            index = len(ops)
            ops.append(sim_op(work, seed * 100_003 + index, index, nodes, reps,
                              SIM_CELLS[(k + p) % len(SIM_CELLS)]))
    return ops


# === orient_large: CLI orient on stored sparse CPDAGs

#: (nodes, schemes, use --rules all --trace, ops per pass).  Each class
#: repeats one shape and node order under fresh labels, cycling through
#: its schemes.  The median class (n400, full) has about as many cheaper
#: ops below it as dearer ones above; the tail falls in the n800 class.
ORIENT_CLASSES = [
    (400, ("full",), False, 20),
    (400, ("early1", "late1"), False, 14),
    (400, ("late1", "late2"), True, 4),
    (800, ("late1",), False, 14),
    (1600, ("early2",), False, 1),
]


def orient_op(work: Path, shape, rng, index: int, nodes: int, scheme: str,
              full_rules: bool) -> Op:
    topo, arcs = ref.sparse_dag(shape, nodes, ref.DENSITY_NEIGHBOURS["sparse"], "T")
    names, order = _relabel(rng, topo, shape)
    arcs = {(names[a], names[b]) for a, b in arcs}
    topo = [names[v] for v in topo]
    c = ref.cpdag(order, arcs)
    tiers = ref.scheme_tiers(scheme, topo)
    m = ref.tiered_closure(c, tiers)
    gpath, tpath = work / f"cpdag{index}.txt", work / f"tiers{index}.txt"
    write_graph(gpath, order, c.arcs(), c.undirected())
    write_tiers(tpath, {v: tiers[v] for v in order})
    argv = ["orient", str(gpath), "--tiers", str(tpath)]
    if full_rules:
        argv += ["--rules", "all", "--trace"]
    expect = {"nodes": order, "arcs": m.graph.arcs(), "undirected": m.graph.undirected(),
              "rule1": m.by_rule1, "traced": full_rules}
    return Op(f"n{nodes}-{scheme}" + ("-all" if full_rules else ""), argv, check_orient, expect,
              len(m.by_tiers), len(m.by_rule1))


def check_orient(op: Op, stdout: str, stderr: str):
    e = op.expect
    nodes, arcs, und = parse_graph(stdout)
    if nodes != e["nodes"]:
        return "node order differs from the input"
    if arcs != e["arcs"] or und != e["undirected"]:
        return (f"graph differs from the reference closure: {len(arcs ^ e['arcs'])} arcs, "
                f"{len(und ^ e['undirected'])} undirected edges")
    if not e["traced"]:
        return "unexpected trace output" if stderr else None
    fired = set()
    for line in stderr.splitlines():
        rule, _, edge = line.partition(": ")
        if rule != "rule1":
            return f"a rule other than rule 1 fired under tiered knowledge: {line!r}"
        fired.add(tuple(edge.split("->")))
    if fired != e["rule1"]:
        return f"traced edges differ from the rule-1-propagated edges ({len(fired ^ e['rule1'])})"
    return None


def orient_large(seed: int, passes: int, work: Path) -> list:
    ops = []
    for _ in range(passes):
        for ci, k in _interleave([c[-1] for c in ORIENT_CLASSES]):
            nodes, schemes, full_rules, _ = ORIENT_CLASSES[ci]
            index = len(ops)
            rng = np.random.default_rng([seed, 2, index])
            ops.append(orient_op(work, shape_rng(2, ci, 0), rng, index, nodes,
                                 schemes[k % len(schemes)], full_rules))
    return ops


# === band graphs for compare_band and ida_band


def band(prefix: str, edges: int, width: int):
    """Chordal band: node i adjacent to i+1 .. i+width, trimmed to
    ``edges`` edges by dropping the last node's farthest neighbours."""
    n = width + 1
    while width * n - width * (width + 1) // 2 < edges:
        n += 1
    nodes = [f"{prefix}{i}" for i in range(n)]
    und = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, min(n, i + width + 1))]
    extra = len(und) - edges
    if extra >= width:
        raise ValueError("cannot trim that many edges and stay chordal")
    last = [e for e in und if e[1] == nodes[-1]][:extra]
    return nodes, [e for e in und if e not in last]


# === compare_band: compare-tiers on band components

#: (nodes of the large band, tier-pair kind, ops per pass); a 5-node band
#: rides along.  The median class cycles through every kind; the tail
#: class repeats one shape and tier pair under fresh labels.
COMPARE_CLASSES = [(12, None, 28), (16, "coarse-late", 14), (18, None, 2)]
#: tier-pair kinds, each built so that one verdict class appears
COMPARE_KINDS = ["coarse-late", "fine-late", "downstream-cut", "same-relabelled", "cross"]


def compare_tiers_pair(kind: str, shape, a: list, b: list):
    """Two compatible orderings: both coarsen one ordered partition of
    the large band ``a`` and the small band ``b``."""
    n = len(a)
    early = int(shape.integers(3, n // 2))
    late = int(shape.integers(n - 3, n - 1))
    if kind == "cross":
        cut_b = int(shape.integers(1, len(b) - 1))
        blocks = [a[:early], a[early:] + b[:cut_b], b[cut_b:]]
        return blocks, [[0], [1, 2]], [[0, 1], [2]]
    if kind == "downstream-cut":
        later = int(shape.integers(early + 4, n - 1))
        blocks = [a[:early], a[early:later], a[later:] + b]
        return blocks, [[0], [1, 2]], [[0], [1], [2]]
    blocks = [a[:early], a[early:late], a[late:] + b]
    coarse, fine = [[0, 1], [2]], [[0], [1], [2]]
    if kind == "coarse-late":
        return blocks, coarse, fine
    if kind == "fine-late":
        return blocks, fine, coarse
    return blocks, fine, fine


def _tiers_from(blocks, merge, scale=1, shift=0) -> dict:
    return {v: t * scale + shift for t, group in enumerate(merge, 1)
            for bi in group for v in blocks[bi]}


def compare_op(work: Path, shape, rng, index: int, nodes: int, kind: str) -> Op:
    a_nodes, a_edges = band("A", 3 * nodes - 6, 3)
    b_nodes, b_edges = band("B", 7, 3)
    names, order = _relabel(rng, a_nodes + b_nodes, shape)
    a, b = [names[v] for v in a_nodes], [names[v] for v in b_nodes]
    und = [(names[x], names[y]) for x, y in a_edges + b_edges]
    blocks, m1, m2 = compare_tiers_pair(kind, shape, a, b)
    t1 = _tiers_from(blocks, m1)
    t2 = _tiers_from(blocks, m2, *((10, 3) if kind == "same-relabelled" else (1, 0)))
    c = ref.Graph(order, (), und)
    g1, g2 = ref.tiered_closure(c, t1).graph, ref.tiered_closure(c, t2).graph
    gpath = work / f"band{index}.txt"
    write_graph(gpath, order, (), c.undirected())
    paths = []
    for k, t in enumerate((t1, t2), 1):
        paths.append(work / f"band{index}_t{k}.txt")
        write_tiers(paths[-1], {v: t[v] for v in order})
    argv = ["compare-tiers", str(gpath), str(paths[0]), str(paths[1]), "--json"]
    expect = {"equivalent": ref.same_graph(g1, g2),
              "informativeness": ref.informativeness(g1, g2),
              "refinement": ref.refinement(t1, t2)}
    return Op(f"n{nodes}", argv, check_compare, expect)


def check_compare(op: Op, stdout: str, stderr: str):
    got = json.loads(stdout)
    for key, value in op.expect.items():
        if got[key] != value:
            return f"{key} is {got[key]!r}, reference says {value!r}"
    criterion = got["earliest_path_first_edges_agree"] and got["fully_shielded_cross_tier_agree"]
    if got["equivalent"] != criterion:
        return "the equivalence verdict disagrees with its own criterion fields"
    if (got["witness"] is None) != got["equivalent"]:
        return "a witness must be given exactly when the orderings differ"
    return None


def compare_band(seed: int, passes: int, work: Path) -> list:
    ops = []
    for _ in range(passes):
        for ci, k in _interleave([c[-1] for c in COMPARE_CLASSES]):
            nodes, kind, _ = COMPARE_CLASSES[ci]
            index = len(ops)
            rng = np.random.default_rng([seed, 3, index])
            if kind is None:
                shape, kind = shape_rng(3, ci, k), COMPARE_KINDS[k % len(COMPARE_KINDS)]
            else:
                shape = shape_rng(3, ci, 0)
            ops.append(compare_op(work, shape, rng, index, nodes, kind))
    return ops


# === ida_band: ida --joint on band components

#: (undirected edges of the queried components, their band widths, ops
#: per pass); a second entry means the query also touches a second band
IDA_CLASSES = [
    ((10,), (2,), 14),
    ((10, 10), (2, 3), 14),
    ((11,), (3,), 14),
    ((13,), (2,), 14),
    ((16,), (3,), 3),
]


def ida_op(work: Path, rng, index: int, sizes, widths) -> Op:
    comps = [band(f"C{k}_", edges, width) for k, (edges, width) in enumerate(zip(sizes, widths))]
    if len(comps) == 1:
        comps.append(band("C1_", 10, 2))  # untouched by the query
    parent = "Z"  # a directed parent of every node of the second component
    all_nodes = [v for nodes, _ in comps for v in nodes] + [parent]
    names, order = _relabel(rng, all_nodes, rng)
    und = [(names[x], names[y]) for _, edges in comps for x, y in edges]
    arcs = [(names[parent], names[v]) for v in comps[1][0]]
    xs = [names[comps[0][0][int(rng.integers(len(comps[0][0])))]]]
    if len(sizes) == 2:
        xs.append(names[comps[1][0][int(rng.integers(len(comps[1][0])))]])
    g = ref.Graph(order, arcs, und)
    gpath = work / f"ida{index}.txt"
    write_graph(gpath, order, arcs, g.undirected())
    argv = ["ida", str(gpath), "--joint", ",".join(xs), "--json"]
    expected = {
        "(" + ", ".join("{" + ",".join(sorted(s)) + "}" for s in entry) + ")": m
        for entry, m in ref.joint_parent_sets(g, xs).items()
    }
    return Op("k" + "+".join(map(str, sizes)), argv, check_ida, {"sets": expected})


def check_ida(op: Op, stdout: str, stderr: str):
    rows = json.loads(stdout)["joint_parent_sets"]
    got = {row["sets"]: row["multiplicity"] for row in rows}
    if len(got) != len(rows):
        return "a parent-set tuple is listed twice"
    if got != op.expect["sets"]:
        diff = sorted(set(got.items()) ^ set(op.expect["sets"].items()))[:2]
        return f"multiset differs from the reference orientations, e.g. {diff}"
    return None


def ida_band(seed: int, passes: int, work: Path) -> list:
    ops = []
    for _ in range(passes):
        for ci, _k in _interleave([c[-1] for c in IDA_CLASSES]):
            sizes, widths, _ = IDA_CLASSES[ci]
            index = len(ops)
            rng = np.random.default_rng([seed, 4, index])
            ops.append(ida_op(work, rng, index, sizes, widths))
    return ops


WORKLOADS = {
    "sim_grid": sim_grid,
    "orient_large": orient_large,
    "compare_band": compare_band,
    "ida_band": ida_band,
}
