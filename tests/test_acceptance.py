"""Acceptance suite: one test per criterion, at full stated scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (a line only prints after its assertions all held).
"""

import io
import itertools as itr
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest

from causaltiers import (
    PDAG,
    TieredOrdering,
    check_adjustment_equivalence,
    check_consistency,
    cpdag_of,
    enumerate_class,
    impose_knowledge,
    joint_ida,
    local_ida,
    meek_closure,
    tiered_mpdag,
    tiers_equivalent,
)
from causaltiers.cli import main as cli_main
from causaltiers.simulation import SimCell, TIER_SCHEMES, run_cell

from conftest import FIXTURES, random_coarsening, random_dag_instance, records_to_csv_bytes
from oracles import all_dags, forbidden_set, has_chordless_cycle, independence_model, leaves

EXPECTED = FIXTURES / "expected"


def run_cli(*argv):
    buf = io.StringIO()
    code = cli_main(list(argv), out=buf)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def closure_suite():
    """1000 (CPDAG, consistent ordering) instances at p in {10, 25}."""
    rng = np.random.default_rng(2024)
    instances = []
    for i in range(1000):
        p = 10 if i % 2 == 0 else 25
        degree = 2.0 if i % 4 < 2 else 5.0
        dag = random_dag_instance(rng, p, degree)
        c = cpdag_of(dag)
        tau = random_coarsening(rng, p)
        instances.append((c, tau))
    return instances


def test_criterion_1_figure_pipeline_byte_exact(wave_tau):
    start = time.perf_counter()
    with open(FIXTURES / "wave_dag.txt") as fh:
        from causaltiers import parse_graph, format_graph

        dag = parse_graph(fh.read())
    c = cpdag_of(dag)
    assert set(c.directed_edges) == {("B", "E"), ("D", "E")}
    assert {frozenset(e) for e in c.undirected_edges} == {
        frozenset(p)
        for p in [("A", "B"), ("A", "C"), ("C", "D"), ("C", "F"), ("F", "G")]
    }
    assert format_graph(c) == (FIXTURES / "wave_cpdag.txt").read_text()

    g = tiered_mpdag(c, wave_tau)
    assert len(g.directed_edges) == 6
    assert g.undirected_edges == (("A", "B"),)
    assert format_graph(g) == (EXPECTED / "wave_mpdag.txt").read_text()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: figure pipeline byte-exact in {elapsed:.3f}s")


def test_criterion_2_golden_examples_byte_exact():
    # Example 3: two orderings, same maximally oriented graph
    code, out = run_cli(
        "compare-tiers",
        str(FIXTURES / "wave_cpdag.txt"),
        str(FIXTURES / "wave_tiers3.txt"),
        str(FIXTURES / "wave_tiers2.txt"),
    )
    assert code == 0 and out == (EXPECTED / "compare_wave_tiers.txt").read_text()
    assert out.startswith("equivalence: equivalent\n")

    # Example 4: first ordering strictly more informative, witness A->C
    code, out = run_cli(
        "compare-tiers",
        str(FIXTURES / "wave_cpdag.txt"),
        str(FIXTURES / "wave_tiers_fine_late.txt"),
        str(FIXTURES / "wave_tiers_coarse_late.txt"),
    )
    assert code == 0 and out == (EXPECTED / "compare_fine_vs_coarse_late.txt").read_text()
    assert "witness: A->C" in out

    # Example 5: the four distinct 3-node maximally oriented graphs
    outputs = []
    for name in ("total", "single", "a_first", "c_last"):
        code, out = run_cli(
            "orient",
            str(FIXTURES / "triangle_cpdag.txt"),
            "--tiers",
            str(FIXTURES / f"triangle_tiers_{name}.txt"),
        )
        assert code == 0
        assert out == (EXPECTED / f"triangle_{name}.txt").read_text()
        outputs.append(out)
    assert len(set(outputs)) == 4
    print("PASS criterion 2: examples 3-5 byte-exact")


def test_criterion_3_rule_1_closure_suffices(closure_suite):
    start = time.perf_counter()
    exceptions = 0
    for c, tau in closure_suite:
        imposed = impose_knowledge(c, forbidden_set(tau, c.nodes))
        if meek_closure(imposed, rules=(1,)) != meek_closure(imposed):
            exceptions += 1
    elapsed = time.perf_counter() - start
    assert exceptions == 0
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: rule-1 closure == full closure on 1000 "
        f"instances, 0 exceptions, {elapsed:.1f}s"
    )


def test_criterion_4_chain_graph_with_chordal_components(closure_suite):
    for c, tau in closure_suite:
        g = tiered_mpdag(c, tau)
        assert not g.has_partially_directed_cycle()
        assert g.undirected_subgraph().is_chordal()

    # brute-force chordality double-check on small instances
    rng = np.random.default_rng(99)
    for _ in range(200):
        p = int(rng.integers(4, 8))
        dag = random_dag_instance(rng, p, 2.0)
        g = tiered_mpdag(cpdag_of(dag), random_coarsening(rng, p))
        for comp in g.chain_components():
            sub = g.undirected_subgraph().induced_subgraph(comp)
            adj = {v: set(sub.adjacent_to(v)) for v in comp}
            assert sub.is_chordal() == (not has_chordless_cycle(adj))
            assert sub.is_chordal()
    print(
        "PASS criterion 4: no partially directed cycles, chordal "
        "components on 1000 + 200 instances"
    )


def test_criterion_5_equivalence_criterion_biconditional():
    rng = np.random.default_rng(913)
    checked = 0
    for _ in range(500):
        p = int(rng.integers(3, 11))
        degree = float(rng.uniform(0.8, min(4.5, p - 1)))
        dag = random_dag_instance(rng, p, degree)
        c = cpdag_of(dag)
        t1 = random_coarsening(rng, p)
        t2 = random_coarsening(rng, p)
        criterion = tiers_equivalent(c, t1, t2).equivalent
        actual = tiered_mpdag(c, t1) == tiered_mpdag(c, t2)
        assert criterion == actual
        checked += 1
    assert checked == 500
    print(
        "PASS criterion 5: graphical criterion == graph equality on "
        "500 triples, both directions"
    )


def test_criterion_6_ida_against_class_enumeration():
    rng = np.random.default_rng(610)
    done = 0
    while done < 500:
        p = int(rng.integers(4, 9))
        degree = float(rng.uniform(1.0, 3.5))
        dag = random_dag_instance(rng, p, degree)
        c = cpdag_of(dag)
        g = tiered_mpdag(c, random_coarsening(rng, p))
        if len(g.undirected_edges) > 10:
            continue
        members = enumerate_class(g)
        assert members == list(leaves(g))  # in order, as branch and close lists them

        x = g.nodes[int(rng.integers(0, p))]
        local = local_ida(g, x)
        class_local = {frozenset(m.parents_of(x)) for m in members}
        assert local.distinct() == class_local

        k = int(rng.integers(1, min(3, p) + 1))
        xs = [g.nodes[i] for i in rng.choice(p, size=k, replace=False)]
        joint = joint_ida(g, xs)
        class_joint = Counter(
            tuple(frozenset(m.parents_of(v)) for v in xs) for m in members
        )
        assert joint.distinct() == set(class_joint)
        entries = sorted(class_joint, key=str)
        base = entries[0]
        ref = Fraction(joint.multiplicity(base), class_joint[base])
        for entry in entries:
            assert Fraction(joint.multiplicity(entry), class_joint[entry]) == ref
        done += 1
    print(
        "PASS criterion 6: local/joint parent-set enumeration matches "
        "brute force on 500 instances (exact multiplicity ratios)"
    )


def test_criterion_7_path_classifications_coincide():
    rng = np.random.default_rng(731)
    for _ in range(500):
        p = int(rng.integers(3, 9))
        degree = float(rng.uniform(1.0, 3.0))
        dag = random_dag_instance(rng, p, degree)
        g = tiered_mpdag(cpdag_of(dag), random_coarsening(rng, p))
        report = check_adjustment_equivalence(g)
        assert report.equivalent, report.counterexample

    # sizes no path scan reaches: 30-100 nodes, paths of any length
    mixed = 0
    for _ in range(20):
        p = int(rng.integers(30, 101))
        degree = float(rng.uniform(1.0, 3.0))
        dag = random_dag_instance(rng, p, degree)
        g = tiered_mpdag(cpdag_of(dag), random_coarsening(rng, p))
        report = check_adjustment_equivalence(g)
        assert report.equivalent, report.counterexample
        mixed += bool(g.directed_edges) and bool(g.undirected_edges)
    assert mixed >= 5, mixed

    # the construction where the two notions genuinely differ:
    # an undirected path whose endpoints also carry a directed edge
    g = PDAG("ABC", directed=[("A", "B")], undirected=[("A", "C"), ("C", "B")])
    assert g.has_partially_directed_cycle()
    report = check_adjustment_equivalence(g)
    assert report.counterexample == ("B", "C", "A")
    print(
        "PASS criterion 7: b-possibly-causal == possibly-causal on 500 "
        "tiered instances of 3-8 nodes and 20 of 30-100 nodes (paths of "
        "any length); counterexample found on the partially-directed-cycle "
        "construction"
    )


def test_criterion_8_simulation_directional_findings():
    start = time.perf_counter()
    records = []
    for density in ("sparse", "dense"):
        for generator in ("er", "power", "geometric"):
            records += run_cell(
                SimCell(25, density, generator), tuple(TIER_SCHEMES), 100, seed=0
            )

    # (a) exact per-replication dominance of the full ordering
    by_rep = defaultdict(dict)
    for r in records:
        by_rep[(r.density, r.generator, r.rep)][r.scheme] = r.gain_frac
    for gains in by_rep.values():
        assert all(gains["full"] >= g for g in gains.values())

    def median(density, scheme):
        return float(
            np.median(
                [
                    r.gain_frac
                    for r in records
                    if r.density == density and r.scheme == scheme
                ]
            )
        )

    # (b) early knowledge beats late knowledge of equal detail (sparse)
    assert median("sparse", "early1") > median("sparse", "late1")
    assert median("sparse", "early2") > median("sparse", "late2")
    # (c) sparse graphs gain more than dense ones under full knowledge
    assert median("sparse", "full") > median("dense", "full")

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"PASS criterion 8: dominance exact, early > late (sparse), "
        f"sparse > dense (full) at p=25, 100 reps/cell, {elapsed:.1f}s"
    )


def test_criterion_9_simulation_determinism(tmp_path):
    argv = [
        "simulate",
        "--nodes", "25",
        "--density", "sparse",
        "--generator", "power",
        "--reps", "40",
        "--seed", "7",
    ]
    code1, _ = run_cli(*argv, "--out", str(tmp_path / "a.csv"))
    code2, _ = run_cli(*argv, "--out", str(tmp_path / "b.csv"))
    assert code1 == code2 == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    # and the library entry point agrees with the CLI output
    records = run_cell(SimCell(25, "sparse", "power"), tuple(TIER_SCHEMES), 40, seed=7)
    assert records_to_csv_bytes(records) == a
    print("PASS criterion 9: identical seed gives byte-identical CSV")


def test_criterion_10_exhaustive_four_node_soundness():
    start = time.perf_counter()
    dags = all_dags(4)
    assert len(dags) == 543

    graphs = {arcs: PDAG(range(4), directed=list(arcs)) for arcs in dags}
    cpdags = {arcs: cpdag_of(graphs[arcs]) for arcs in dags}
    models = {arcs: independence_model(arcs, 4) for arcs in dags}

    # (a) CPDAG equality partitions the DAGs exactly like d-separation
    by_cpdag = defaultdict(set)
    for arcs in dags:
        c = cpdags[arcs]
        key = (
            frozenset(c.directed_edges),
            frozenset(frozenset(e) for e in c.undirected_edges),
        )
        by_cpdag[key].add(arcs)
    by_model = defaultdict(set)
    for arcs in dags:
        by_model[models[arcs]].add(arcs)
    assert set(map(frozenset, by_cpdag.values())) == set(
        map(frozenset, by_model.values())
    )

    # (b) for every consistent 2-tier ordering, the oriented graph's
    # directed edges are exactly the class-invariant ones
    two_tier = [
        assignment
        for assignment in itr.product((1, 2), repeat=4)
        if len(set(assignment)) == 2
    ]
    checked = 0
    for members in by_cpdag.values():
        c = cpdags[next(iter(members))]
        for assignment in two_tier:
            tau = TieredOrdering({i: assignment[i] for i in range(4)})
            restricted = [
                arcs
                for arcs in members
                if not any(tau.tier_of(u) > tau.tier_of(v) for u, v in arcs)
            ]
            if not restricted:
                continue
            assert check_consistency(c, tau) == []
            g = tiered_mpdag(c, tau)
            invariant = {
                arc
                for arc in restricted[0]
                if all(arc in other for other in restricted)
            }
            assert set(g.directed_edges) == invariant
            checked += 1
    assert checked > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"PASS criterion 10: all 543 four-node DAGs, {checked} consistent "
        f"two-tier orderings, maximality exact, {elapsed:.1f}s"
    )
