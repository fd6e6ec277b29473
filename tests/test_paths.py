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
from causaltiers.orientation import InvariantError

from conftest import random_cpdag_and_tau
from oracles import (
    adjustment_counterexample_bfs,
    adjustment_counterexample_scan,
    paths_recursive,
)


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


def long_cycle_pdags(rng, p, k):
    """Two graphs on p nodes whose skeleton is one cycle through k random
    nodes, with the other nodes hung on it as a forest of edges of every
    kind.  In the first the cycle's edges are forward or undirected, at
    least one of each, so its only partially directed cycle has k edges; the
    second turns one undirected cycle edge backward and has none."""
    names = [f"V{i}" for i in range(p)]
    order = [int(i) for i in rng.permutation(p)]
    ring, rest = order[:k], order[k:]
    forward = rng.random(k) < rng.uniform(0.1, 0.9)
    forward[0], forward[1] = True, False
    rng.shuffle(forward)
    directed = [(names[ring[i]], names[ring[(i + 1) % k]]) for i in range(k) if forward[i]]
    undirected = [(names[ring[i]], names[ring[(i + 1) % k]]) for i in range(k) if not forward[i]]
    placed = list(ring)
    for v in rest:
        w = placed[int(rng.integers(len(placed)))]
        kind = int(rng.integers(3))
        [undirected, directed, directed][kind].append(
            (names[v], names[w]) if kind < 2 else (names[w], names[v])
        )
        placed.append(v)
    back = undirected[0]
    return (
        PDAG(names, directed=directed, undirected=undirected),
        PDAG(names, directed=directed + [back[::-1]], undirected=undirected[1:]),
    )


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
        assert report.counterexample == ("B", "C", "A")

    @pytest.mark.parametrize("p", [13, 40])
    def test_whole_path_is_the_counterexample_at_any_length(self, p):
        # the only counterexample is the whole undirected path, read back
        # from the chord's head; a search bounded at 10 edges misses it
        g = path_plus_chord(p)
        report = check_adjustment_equivalence(g)
        assert report.counterexample == tuple(f"V{k}" for k in range(p - 1, -1, -1))
        assert adjustment_counterexample_bfs(g, 10) is None
        assert adjustment_counterexample_bfs(g, p - 2) is None
        with pytest.raises(TypeError):
            check_adjustment_equivalence(g, max_path_edges=p)

    def test_matches_path_scan(self, partially_directed_cycle_mpdag):
        rng = np.random.default_rng(907)
        seen = {True: 0, False: 0}
        for _ in range(300):
            p = int(rng.integers(2, 8))
            g = random_pdag(rng, p)
            cyclic = g.has_partially_directed_cycle()
            seen[cyclic] += 1
            for limit in range(p + 1):
                bounded = adjustment_counterexample_bfs(g, limit)
                scan = adjustment_counterexample_scan(g, limit)
                assert (bounded is None) == (scan is None), (g, limit, scan)
            report = check_adjustment_equivalence(g)
            assert report.equivalent == (not cyclic)
            assert report.counterexample == adjustment_counterexample_bfs(g, p)
            if not report.equivalent:
                path = report.counterexample
                assert classify_possibly_causal(g, path) is PathVerdict.POSSIBLY_CAUSAL
                assert classify_b_possibly_causal(g, path) is BPathVerdict.B_NON_CAUSAL
        assert min(seen.values()) > 100, seen

        g = partially_directed_cycle_mpdag
        assert adjustment_counterexample_scan(g, 10) == ("B", "C", "A")
        assert check_adjustment_equivalence(g).counterexample == ("B", "C", "A")

    def test_cycles_beyond_eleven_edges(self):
        rng = np.random.default_rng(911)
        for _ in range(60):
            p = int(rng.integers(20, 81))
            k = int(rng.integers(12, p + 1))
            g, twin = long_cycle_pdags(rng, p, k)
            assert g.has_partially_directed_cycle()
            report = check_adjustment_equivalence(g)
            path = report.counterexample
            assert len(path) == k, (k, path)
            assert path == adjustment_counterexample_bfs(g, p)
            assert adjustment_counterexample_bfs(g, 10) is None
            assert classify_possibly_causal(g, path) is PathVerdict.POSSIBLY_CAUSAL
            assert classify_b_possibly_causal(g, path) is BPathVerdict.B_NON_CAUSAL
            assert not twin.has_partially_directed_cycle()
            assert check_adjustment_equivalence(twin).equivalent

    def test_a_cycle_without_a_closing_edge_is_an_invariant_error(self, monkeypatch):
        g = PDAG("AB", undirected=[("A", "B")])
        monkeypatch.setattr(PDAG, "has_partially_directed_cycle", lambda self: True)
        with pytest.raises(InvariantError, match="no directed edge closes one"):
            check_adjustment_equivalence(g)
