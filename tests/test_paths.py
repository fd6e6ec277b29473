import itertools as itr

import numpy as np
import pytest

from causaltiers import (
    BPathVerdict,
    GraphError,
    PDAG,
    PathVerdict,
    check_adjustment_equivalence,
    classify_b_possibly_causal,
    classify_possibly_causal,
    tiered_mpdag,
)

from conftest import random_cpdag_and_tau
from oracles import adjustment_counterexample_scan, paths_recursive


def simple_paths(g, s, t, max_edges=None):
    """Every simple path s ... t of ``g`` with at most ``max_edges`` edges."""
    adj = {v: set(g.adjacent_to(v)) for v in g.nodes}
    order = {v: i for i, v in enumerate(g.nodes)}
    return paths_recursive(adj, order, s, t, max_edges=max_edges)


def path_plus_chord(p):
    """Undirected path V0 - ... - V{p-1} plus the directed chord V0 -> V{p-1}."""
    names = [f"V{k}" for k in range(p)]
    return PDAG(
        names,
        directed=[(names[0], names[-1])],
        undirected=[(names[k], names[k + 1]) for k in range(p - 1)],
    )


def random_pdag(rng, p):
    """Directed edges along a random order, undirected ones anywhere: often
    with a partially directed cycle, often without."""
    names = [f"V{k}" for k in range(p)]
    rank = rng.permutation(p)
    p_dir, p_und = rng.uniform(0.1, 0.6, size=2)
    directed, undirected = [], []
    for i, j in itr.combinations(range(p), 2):
        r = rng.random()
        if r < p_dir:
            a, b = (i, j) if rank[i] < rank[j] else (j, i)
            directed.append((names[a], names[b]))
        elif r < p_dir + p_und:
            undirected.append((names[i], names[j]))
    return PDAG(names, directed=directed, undirected=undirected)


@pytest.fixture
def partially_directed_cycle_mpdag():
    """Undirected path A - C - B plus the edge A -> B: a valid maximally
    oriented graph (no rule fires) with a partially directed cycle."""
    return PDAG(
        "ABC", directed=[("A", "B")], undirected=[("A", "C"), ("C", "B")]
    )


class TestClassifyPossiblyCausal:
    def test_wave_mpdag_forward_path(self, wave_mpdag):
        verdict = classify_possibly_causal(wave_mpdag, ["A", "C", "F", "G"])
        assert verdict is PathVerdict.POSSIBLY_CAUSAL

    def test_wave_mpdag_backward_edge(self, wave_mpdag):
        assert (
            classify_possibly_causal(wave_mpdag, ["E", "D"])
            is PathVerdict.NON_CAUSAL
        )

    def test_fully_undirected_path(self):
        g = PDAG("ABC", undirected=[("A", "B"), ("B", "C")])
        assert (
            classify_possibly_causal(g, ["A", "B", "C"])
            is PathVerdict.POSSIBLY_CAUSAL
        )

    def test_invalid_path_rejected(self, wave_mpdag):
        with pytest.raises(GraphError):
            classify_possibly_causal(wave_mpdag, ["A", "G"])
        with pytest.raises(GraphError):
            classify_possibly_causal(wave_mpdag, ["A"])
        with pytest.raises(GraphError):
            classify_possibly_causal(wave_mpdag, ["A", "C", "A"])

    def test_dag_possibly_causal_iff_directed_path(self, wave_dag):
        for s, t in itr.permutations(wave_dag.nodes, 2):
            for path in simple_paths(wave_dag, s, t):
                directed = all(
                    wave_dag.has_directed(u, v) for u, v in zip(path, path[1:])
                )
                verdict = classify_possibly_causal(wave_dag, path)
                assert (verdict is PathVerdict.POSSIBLY_CAUSAL) == directed


class TestClassifyBPossiblyCausal:
    def test_two_node_paths(self):
        g = PDAG("ABC", directed=[("A", "C"), ("C", "B"), ("A", "B")])
        assert (
            classify_b_possibly_causal(g, ["A", "B"])
            is BPathVerdict.B_POSSIBLY_CAUSAL
        )
        assert (
            classify_b_possibly_causal(g, ["B", "A"])
            is BPathVerdict.B_NON_CAUSAL
        )

    def test_partially_directed_cycle_separates_the_notions(
        self, partially_directed_cycle_mpdag
    ):
        g = partially_directed_cycle_mpdag
        path = ["B", "C", "A"]
        assert classify_possibly_causal(g, path) is PathVerdict.POSSIBLY_CAUSAL
        assert classify_b_possibly_causal(g, path) is BPathVerdict.B_NON_CAUSAL

    def test_b_implies_plain_on_arbitrary_graphs(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            p = int(rng.integers(3, 8))
            c, tau, _ = random_cpdag_and_tau(rng, p, 2.5)
            g = tiered_mpdag(c, tau)
            nodes = list(g.nodes)
            for s, t in itr.permutations(nodes[:5], 2):
                for path in simple_paths(g, s, t, max_edges=4):
                    if (
                        classify_b_possibly_causal(g, path)
                        is BPathVerdict.B_POSSIBLY_CAUSAL
                    ):
                        assert (
                            classify_possibly_causal(g, path)
                            is PathVerdict.POSSIBLY_CAUSAL
                        )

    def test_equivalence_on_tiered_mpdags(self):
        rng = np.random.default_rng(89)
        for _ in range(60):
            p = int(rng.integers(3, 8))
            c, tau, _ = random_cpdag_and_tau(rng, p, 2.5)
            g = tiered_mpdag(c, tau)
            for s, t in itr.permutations(g.nodes, 2):
                for path in simple_paths(g, s, t, max_edges=5):
                    plain = classify_possibly_causal(g, path)
                    strict = classify_b_possibly_causal(g, path)
                    assert (plain is PathVerdict.POSSIBLY_CAUSAL) == (
                        strict is BPathVerdict.B_POSSIBLY_CAUSAL
                    )


class TestCheckAdjustmentEquivalence:
    def test_wave_mpdag_has_no_counterexample(self, wave_mpdag):
        report = check_adjustment_equivalence(wave_mpdag)
        assert report.equivalent

    def test_dag_trivially_equivalent(self, wave_dag):
        assert check_adjustment_equivalence(wave_dag).equivalent

    def test_partially_directed_cycle_counterexample(
        self, partially_directed_cycle_mpdag
    ):
        report = check_adjustment_equivalence(partially_directed_cycle_mpdag)
        assert not report.equivalent
        assert report.counterexample in (("B", "C", "A"), ("C", "A"), ("C", "B"))

    def test_path_length_guard_respected(self):
        # the only counterexample is the whole 39-edge undirected path
        g = path_plus_chord(40)
        assert check_adjustment_equivalence(g, max_path_edges=38).equivalent
        report = check_adjustment_equivalence(g, max_path_edges=39)
        assert report.counterexample == tuple(f"V{k}" for k in range(39, -1, -1))

    def test_matches_path_scan(self, partially_directed_cycle_mpdag):
        rng = np.random.default_rng(907)
        seen = {True: 0, False: 0}
        for _ in range(300):
            p = int(rng.integers(2, 8))
            g = random_pdag(rng, p)
            cyclic = g.has_partially_directed_cycle()
            seen[cyclic] += 1
            for limit in range(p + 1):
                report = check_adjustment_equivalence(g, max_path_edges=limit)
                scan = adjustment_counterexample_scan(g, limit)
                assert report.equivalent == (scan is None), (g, limit, scan)
                if report.equivalent:
                    continue
                path = report.counterexample
                assert len(path) - 1 <= limit
                assert classify_possibly_causal(g, path) is PathVerdict.POSSIBLY_CAUSAL
                assert classify_b_possibly_causal(g, path) is BPathVerdict.B_NON_CAUSAL
            assert report.equivalent == (not cyclic)
        assert min(seen.values()) > 100, seen

        g = partially_directed_cycle_mpdag
        assert adjustment_counterexample_scan(g, 10) == ("B", "C", "A")
        assert check_adjustment_equivalence(g).counterexample == ("B", "C", "A")
