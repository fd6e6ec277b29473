import itertools as itr
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltiers import graphs, orientation, simulation
from causaltiers import (
    CycleError,
    GraphError,
    LimitError,
    PDAG,
    contained_in,
    cpdag_of,
    v_structures,
)
from causaltiers.formats import format_graph, parse_graph
from causaltiers.simulation import random_dag

from conftest import WAVE_ARCS, random_dag_instance, reordered
from oracles import (
    amat_of,
    build_from_sets,
    cpdag_by_meek_closure,
    directed_cycle_per_node,
    directed_subgraph,
    has_chordless_cycle,
    has_partially_directed_cycle_bfs,
    markov_equivalent,
    non_simplicial_max_mcs,
    partially_directed_cycle_amat,
    partially_directed_cycle_near_components,
    paths_recursive,
    pdag_from_amat,
    pdag_from_amat_unchecked,
    rule1_closed_without_partial_cycle,
    vstructs_triple_scan,
)


def undirected_pairs(g):
    return {frozenset(e) for e in g.undirected_edges}


@st.composite
def small_pdags(draw):
    p = draw(st.integers(2, 7))
    names = [f"V{k}" for k in range(p)]
    directed, undirected = [], []
    for i, j in itr.combinations(range(p), 2):
        kind = draw(st.sampled_from(["none", "fwd", "und"]))
        if kind == "fwd":
            directed.append((names[i], names[j]))  # label-ascending: acyclic
        elif kind == "und":
            undirected.append((names[i], names[j]))
    return PDAG(names, directed=directed, undirected=undirected)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            PDAG("AB", directed=[("A", "A")])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(GraphError):
            PDAG("AB", directed=[("A", "B")], undirected=[("A", "B")])
        with pytest.raises(GraphError):
            PDAG("AB", directed=[("A", "B"), ("B", "A")])

    def test_rejects_duplicate_label(self):
        with pytest.raises(GraphError, match="^duplicate node label 'A'$"):
            PDAG("ABA")

    def test_foreign_operand_is_not_equal(self):
        g = PDAG("AB", undirected=[("A", "B")])
        assert g.__eq__(g.nodes) is NotImplemented
        assert g != g.nodes and g != "AB"

    def test_rejects_directed_cycle(self):
        with pytest.raises(CycleError):
            PDAG("ABC", directed=[("A", "B"), ("B", "C"), ("C", "A")])

    def test_adjacency_index(self):
        g = PDAG("ABC", directed=[("A", "B")], undirected=[("B", "C")])
        assert g.parents_of("B") == ("A",)
        assert g.children_of("A") == ("B",)
        assert g.neighbors_of("B") == ("C",)
        assert g.adjacent_to("B") == ("A", "C")
        with pytest.raises(GraphError):
            g.parents_of("Z")


class TestSkeletonAndSubgraphs:
    def test_wave_dag_skeleton(self, wave_dag):
        sk = wave_dag.skeleton()
        assert sk.directed_edges == ()
        assert len(sk.undirected_edges) == 7
        assert undirected_pairs(sk) == {frozenset(e) for e in WAVE_ARCS}

    def test_skeleton_identity_on_undirected(self):
        g = PDAG("ABC", undirected=[("A", "B"), ("B", "C")])
        assert g.skeleton() == g

    def test_wave_cpdag_undirected_subgraph(self, wave_cpdag):
        cu = wave_cpdag.undirected_subgraph()
        assert undirected_pairs(cu) == {
            frozenset(p)
            for p in [("A", "B"), ("A", "C"), ("C", "D"), ("C", "F"), ("F", "G")]
        }
        assert cu.directed_edges == ()

    def test_dag_has_empty_undirected_subgraph(self, wave_dag):
        assert wave_dag.undirected_subgraph().num_edges == 0
        assert directed_subgraph(wave_dag) == wave_dag

    @given(small_pdags())
    @settings(max_examples=100, deadline=None)
    def test_subgraphs_partition_edges(self, g):
        u, d = g.undirected_subgraph(), directed_subgraph(g)
        assert set(u.undirected_edges) == set(g.undirected_edges)
        assert set(d.directed_edges) == set(g.directed_edges)
        assert u.num_edges + d.num_edges == g.num_edges
        assert g.skeleton() == PDAG(
            g.nodes,
            undirected=list(u.undirected_edges)
            + [tuple(e) for e in d.directed_edges],
        )

    def test_skeleton_preserves_edge_count_randomly(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = random_dag_instance(rng, 10, 2.5)
            sk = g.skeleton()
            assert sk.num_edges == g.num_edges
            assert sk.directed_edges == ()

    def test_induced_subgraph_wave_dag(self, wave_dag):
        sub = wave_dag.induced_subgraph(["C", "D", "E"])
        assert set(sub.directed_edges) == {("C", "D"), ("D", "E")}
        assert sub.undirected_edges == ()

    def test_induced_subgraph_identity_and_empty(self, wave_dag):
        assert wave_dag.induced_subgraph(wave_dag.nodes) == wave_dag
        empty = wave_dag.induced_subgraph([])
        assert empty.num_nodes == 0 and empty.num_edges == 0

    def test_induced_subgraph_unknown_node(self, wave_dag):
        with pytest.raises(GraphError):
            wave_dag.induced_subgraph(["A", "Z"])

    def test_induced_subgraph_duplicate_node(self, wave_dag):
        with pytest.raises(GraphError, match="^duplicate node in induced subgraph selection$"):
            wave_dag.induced_subgraph(["A", "C", "A"])


class TestEqualityIgnoresNodeOrder:
    def test_two_node_example(self):
        ab = PDAG("AB", undirected=[("A", "B")])
        ba = PDAG("BA", undirected=[("A", "B")])
        assert ab == ba and hash(ab) == hash(ba)
        assert ab != PDAG("BA", directed=[("A", "B")])

    def test_reordered_copies(self):
        """Equality, hash, Markov equivalence and containment hold between
        a graph and a copy with its nodes in another order."""
        rng = np.random.default_rng(31)
        colliders = 0
        for _ in range(200):
            p = int(rng.integers(2, 9))
            dag = random_dag_instance(rng, p, 2.5)
            order = [dag.nodes[k] for k in rng.permutation(p)]
            colliders += bool(v_structures(dag) != v_structures(reordered(dag, order)))
            for g in (dag, cpdag_of(dag), dag.skeleton()):
                copy = reordered(g, order)
                assert copy == g and hash(copy) == hash(g)
                assert contained_in(copy, g) and contained_in(g, copy)
            assert markov_equivalent(dag, reordered(dag, order))
        assert colliders > 20, colliders

    def test_index_sets_match_label_keys(self):
        """``==`` against equality of the label keys, on pairs whose node
        tuples are one object, equal but distinct, or permuted, equal or not."""
        rng = np.random.default_rng(37)

        def random_pdag(names):
            order = [names[k] for k in rng.permutation(len(names))]
            pairs = [pair for pair in itr.combinations(order, 2) if rng.random() < 0.6]
            kinds = rng.random(len(pairs)) < 0.5
            return PDAG(names, directed=[e for e, d in zip(pairs, kinds) if d],
                        undirected=[e for e, d in zip(pairs, kinds) if not d])

        seen = Counter()
        for _ in range(300):
            p = int(rng.integers(1, 8))
            names = [f"V{k}" for k in range(p)]
            g, other = random_pdag(names), random_pdag(names)
            order = [names[k] for k in rng.permutation(p)]
            copy = PDAG(names, directed=g.directed_edges, undirected=g.undirected_edges)
            pairs = [(g, h) for h in (g.skeleton(), g.undirected_subgraph(), directed_subgraph(g))]
            pairs += [(g, copy), (g, other), (g, reordered(g, order)), (g, reordered(other, order))]
            pairs.append((g, PDAG([*names, "X"], g.directed_edges, g.undirected_edges)))
            for a, b in pairs:
                shared = "one" if a.nodes is b.nodes else "equal" if a.nodes == b.nodes else "other"
                expected = a._key() == b._key()
                assert (a == b, b == a, a != b) == (expected, expected, not expected)
                assert not expected or hash(a) == hash(b)
                seen[shared, expected] += 1
        assert len(seen) == 6 and min(seen.values()) > 40, seen


class TestCycles:
    def test_partially_directed_cycle(self):
        g = PDAG("ABC", directed=[("A", "B"), ("C", "A")], undirected=[("B", "C")])
        assert g.has_partially_directed_cycle()
        assert not g.has_directed_cycle()

    def test_dag_has_no_cycles(self, wave_dag):
        assert not wave_dag.has_directed_cycle()
        assert not wave_dag.has_partially_directed_cycle()

    def test_undirected_cycle_is_not_partially_directed(self):
        g = PDAG("ABC", undirected=[("A", "B"), ("B", "C"), ("C", "A")])
        assert not g.has_partially_directed_cycle()


class TestChainComponents:
    def test_wave_mpdag_components(self, wave_mpdag):
        comps = wave_mpdag.chain_components()
        assert comps == [
            ("A", "B"),
            ("C",),
            ("D",),
            ("E",),
            ("F",),
            ("G",),
        ]

    def test_connected_undirected_graph(self):
        g = PDAG("ABCD", undirected=[("A", "B"), ("B", "C"), ("C", "D")])
        assert g.chain_components() == [("A", "B", "C", "D")]

    def test_against_union_find(self):
        class UnionFind:
            def __init__(self, items):
                self.parent = {x: x for x in items}

            def find(self, x):
                while self.parent[x] != x:
                    self.parent[x] = self.parent[self.parent[x]]
                    x = self.parent[x]
                return x

            def union(self, x, y):
                self.parent[self.find(x)] = self.find(y)

        rng = np.random.default_rng(7)
        for _ in range(50):
            p = int(rng.integers(2, 12))
            g = random_dag_instance(rng, p, 2.0)
            # undirect half the edges at random
            arcs = list(g.directed_edges)
            keep, drop = [], []
            for e in arcs:
                (keep if rng.random() < 0.5 else drop).append(e)
            g2 = PDAG(g.nodes, directed=keep, undirected=drop)

            uf = UnionFind(g2.nodes)
            for u, v in g2.undirected_edges:
                uf.union(u, v)
            expected = {}
            for v in g2.nodes:
                expected.setdefault(uf.find(v), set()).add(v)
            got = {frozenset(c) for c in g2.chain_components()}
            assert got == {frozenset(c) for c in expected.values()}
            # within-component undirected edge counts
            for comp in g2.chain_components():
                sub = g2.induced_subgraph(comp)
                assert all(
                    frozenset(e) <= set(comp) for e in sub.undirected_edges
                )


class TestChordality:
    def test_square_without_chord(self):
        g = PDAG(
            "ABCD",
            undirected=[("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")],
        )
        assert not g.is_chordal()

    def test_square_with_chord(self):
        g = PDAG(
            "ABCD",
            undirected=[("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"), ("A", "C")],
        )
        assert g.is_chordal()

    def test_trees_are_chordal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(2, 10))
            edges = [(f"V{int(rng.integers(0, k))}", f"V{k}") for k in range(1, p)]
            g = PDAG([f"V{k}" for k in range(p)], undirected=edges)
            assert g.is_chordal()

    def test_rejects_directed_edges(self):
        with pytest.raises(GraphError):
            PDAG("AB", directed=[("A", "B")]).is_chordal()

    @pytest.mark.parametrize("p", [4, 5])
    def test_exhaustive_small_graphs(self, p):
        names = [f"V{k}" for k in range(p)]
        pairs = list(itr.combinations(range(p), 2))
        for mask in range(1 << len(pairs)):
            edges = [
                (names[i], names[j])
                for bit, (i, j) in enumerate(pairs)
                if mask >> bit & 1
            ]
            g = PDAG(names, undirected=edges)
            adj = {v: set(g.adjacent_to(v)) for v in names}
            assert g.is_chordal() == (not has_chordless_cycle(adj)), edges

    def test_exhaustive_six_node_graphs(self):
        """Every labelled 6-node graph (covers all isomorphism classes)."""
        names = [f"V{k}" for k in range(6)]
        pairs = list(itr.combinations(range(6), 2))
        for mask in range(1 << len(pairs)):
            edges = [
                (names[i], names[j])
                for bit, (i, j) in enumerate(pairs)
                if mask >> bit & 1
            ]
            g = PDAG(names, undirected=edges)
            adj = {v: set(g.adjacent_to(v)) for v in names}
            assert g.is_chordal() == (not has_chordless_cycle(adj))

    def test_seven_node_samples(self):
        rng = np.random.default_rng(11)
        names = [f"V{k}" for k in range(7)]
        pairs = list(itr.combinations(range(7), 2))
        for _ in range(300):
            q = rng.uniform(0.2, 0.8)
            edges = [(names[i], names[j]) for i, j in pairs if rng.random() < q]
            g = PDAG(names, undirected=edges)
            adj = {v: set(g.adjacent_to(v)) for v in names}
            assert g.is_chordal() == (not has_chordless_cycle(adj))


def random_mixed_amat(rng, p, acyclic=True):
    """Each pair present with a random density, undirected or directed;
    directed edges follow one random order if ``acyclic``, else a coin."""
    order = rng.permutation(p)
    q, r = rng.random(), rng.random()
    amat = np.zeros((p, p), dtype=bool)
    for a, b in itr.combinations(range(p), 2):
        if rng.random() < q:
            i, j = order[a], order[b]
            if not acyclic and rng.random() < 0.5:
                i, j = j, i
            amat[i, j] = True
            amat[j, i] = rng.random() >= r
    return amat


def random_chain_graph_amat(rng, p):
    """Undirected edges inside random blocks, directed edges between
    blocks along a random block order, and sometimes one of them reversed:
    a partially directed cycle appears only through the reversal."""
    block = rng.integers(0, max(1, p // 2), size=p)
    rank = rng.permutation(p)
    q = rng.random()
    amat = np.zeros((p, p), dtype=bool)
    for i, j in itr.combinations(range(p), 2):
        if rng.random() < q:
            if block[i] == block[j]:
                amat[i, j] = amat[j, i] = True
            elif rank[block[i]] < rank[block[j]]:
                amat[i, j] = True
            else:
                amat[j, i] = True
    cross = np.argwhere(amat & ~amat.T)
    if cross.size and rng.random() < 0.5:
        i, j = cross[rng.integers(len(cross))]
        amat[i, j], amat[j, i] = False, True
    return amat


def pdag_of(amat):
    return pdag_from_amat([f"V{k}" for k in range(amat.shape[0])], amat)


def cycle_text(cycle):
    """The ``CycleError`` message for a cycle of indices, or None."""
    return None if cycle is None else "directed cycle: " + " -> ".join(f"V{k}" for k in cycle)


def cycle_error_text(amat):
    """The ``CycleError`` message building ``amat`` raises, or None."""
    try:
        pdag_of(amat)
    except CycleError as error:
        return str(error)
    return None


class TestLinearChecksAgainstOracles:
    """The O(V + E) checks agree with the quadratic ones they replaced."""

    def test_partially_directed_cycle(self):
        rng = np.random.default_rng(21)
        seen = {True: 0, False: 0}
        contracted = 0
        for trial in range(3000):
            p = int(rng.integers(1, 16))
            if trial % 2:
                amat = random_chain_graph_amat(rng, p)
            else:
                amat = random_mixed_amat(rng, p)
            try:
                g = pdag_of(amat)
            except CycleError:
                continue  # a reversed cross edge may close a directed cycle
            expected = has_partially_directed_cycle_bfs(amat)
            assert g.has_partially_directed_cycle() == expected, g
            witness = g._partially_directed_cycle()
            assert (witness is not None) == expected
            contracted += expected and witness.startswith("chain components")
            seen[expected] += 1
        assert min(seen.values()) > 500 and contracted > 100, (seen, contracted)

    def test_partially_directed_cycle_unchecked(self):
        """Built without Kahn's check, a graph with a directed cycle has a
        partially directed cycle, with the matrix oracle's witness."""
        rng = np.random.default_rng(24)
        cyclic = 0
        for trial in range(2000):
            p = int(rng.integers(1, 16))
            if trial % 2:
                amat = random_mixed_amat(rng, p, acyclic=False)
            else:
                amat = random_chain_graph_amat(rng, p)
            names = [f"V{k}" for k in range(p)]
            g = pdag_from_amat_unchecked(names, amat)
            assert g.has_partially_directed_cycle() == has_partially_directed_cycle_bfs(amat)
            assert g._partially_directed_cycle() == partially_directed_cycle_amat(amat, names)
            cyclic += directed_cycle_per_node(amat) is not None
        assert cyclic > 300, cyclic

    def test_partially_directed_cycle_in_one_pass(self, monkeypatch):
        """The witness is None iff the matrix search finds no partially
        directed cycle, and either way one Kahn pass over the contracted
        graph decides it, on graphs with and without such cycles."""
        calls = []
        kahn = graphs._directed_cycle
        monkeypatch.setattr(graphs, "_directed_cycle", lambda *a: calls.append(1) or kahn(*a))
        rng = np.random.default_rng(25)
        seen = Counter()
        for trial in range(1500):
            p = int(rng.integers(1, 14))
            if trial % 2:
                amat = random_mixed_amat(rng, p, acyclic=trial % 4 == 1)
            else:
                amat = random_chain_graph_amat(rng, p)
            g = pdag_from_amat_unchecked([f"V{k}" for k in range(p)], amat)
            calls.clear()
            cyclic = has_partially_directed_cycle_bfs(amat)
            assert (g._partially_directed_cycle() is None) == (not cyclic)
            assert len(calls) == 1
            seen[cyclic] += 1
        assert min(seen.values()) > 300, seen

    def test_witness_matches_near_component_contraction(self):
        """Contracting every node the same way gives the witness of the
        contraction that rewrote only the lists in and next to chain
        components, on chain graphs and mixed graphs, cyclic or not."""
        rng = np.random.default_rng(26)
        seen = Counter()
        for trial in range(20_000):
            p = int(rng.integers(1, 10))
            if trial % 2:
                amat = random_mixed_amat(rng, p, acyclic=trial % 4 == 1)
            else:
                amat = random_chain_graph_amat(rng, p)
            g = pdag_from_amat_unchecked([f"V{k}" for k in range(p)], amat)
            witness = g._partially_directed_cycle()
            assert witness == partially_directed_cycle_near_components(g), g
            seen[witness and witness.split(" ")[0]] += 1
        assert min(seen.values()) > 2_000, seen

    def test_shared_parents_match_rule1_scan_and_contraction(self):
        """On acyclic PDAGs of 2-7 nodes, the ends of every undirected edge
        have the same parents iff rule 1 fires nowhere and no cycle is
        partially directed."""
        rng = np.random.default_rng(27)
        seen = Counter()
        for trial in range(20_000):
            p = int(rng.integers(2, 8))
            if trial % 2:
                amat = random_mixed_amat(rng, p)
            else:
                amat = random_chain_graph_amat(rng, p)
            try:
                g = pdag_of(amat)
            except CycleError:
                continue
            got = orientation._shares_parents(g._pa, g._ne, g._with_neighbours())
            assert got == rule1_closed_without_partial_cycle(g, orientation._state(g)), g
            seen[got, g.is_directed] += 1
        assert min(seen[True, False], seen[False, False]) > 5_000, seen

    def test_partially_directed_cycle_witnesses(self):
        inner = PDAG("ABC", directed=[("A", "B")], undirected=[("B", "C"), ("C", "A")])
        assert inner._partially_directed_cycle() == (
            "directed edge A -> B inside a chain component"
        )
        # two components joined both ways: a 2-cycle of the contracted graph
        both = PDAG(
            "ABCD", directed=[("A", "B"), ("C", "D")], undirected=[("B", "C"), ("D", "A")]
        )
        assert both._partially_directed_cycle() == (
            "chain components cycle {A,D} -> {B,C} -> {A,D}"
        )
        ring = PDAG(
            "ABCDEF",
            directed=[("A", "B"), ("C", "D"), ("E", "F")],
            undirected=[("B", "C"), ("D", "E"), ("F", "A")],
        )
        assert ring._partially_directed_cycle() == (
            "chain components cycle {A,F} -> {B,C} -> {D,E} -> {A,F}"
        )

    def test_chordality_and_elimination_order(self):
        rng = np.random.default_rng(22)
        chordal = 0
        for _ in range(3000):
            p = int(rng.integers(1, 16))
            amat = random_mixed_amat(rng, p)
            amat = amat | amat.T
            g = pdag_of(amat)
            witness = non_simplicial_max_mcs(amat)
            assert g._non_simplicial() == witness, g
            assert g.is_chordal() == (witness is None)
            chordal += witness is None
        assert 500 < chordal < 2500, chordal

        # a share of the nodes without an undirected edge, which the search
        # skips: mixed graphs, with the undirected edges at some nodes
        # dropped, against the search over all nodes of the undirected part
        skipped = Counter()
        for _ in range(2000):
            p = int(rng.integers(2, 20))
            amat = random_mixed_amat(rng, p)
            und = amat & amat.T
            lone = rng.random(p) < rng.random()
            und[lone, :] = False
            und[:, lone] = False
            g = pdag_of((amat & ~amat.T) | und)
            witness = non_simplicial_max_mcs(und)
            assert g._non_simplicial() == witness, g
            assert g.undirected_subgraph().is_chordal() == (witness is None)
            if 0 < und.any(axis=1).sum() < p:
                skipped[witness is None] += 1
        assert min(skipped.values()) > 200, skipped

    def test_chordless_cycles_have_witnesses(self):
        for k in range(4, 12):
            names = [f"V{i}" for i in range(k)]
            g = PDAG(names, undirected=list(zip(names, names[1:] + names[:1])))
            assert g._non_simplicial() == non_simplicial_max_mcs(amat_of(g)) is not None
            assert not g.is_chordal()

    def test_kahn_check_reports_the_same_cycle(self):
        rng = np.random.default_rng(23)
        cyclic = 0
        for _ in range(3000):
            amat = random_mixed_amat(rng, int(rng.integers(1, 20)), acyclic=False)
            expected = directed_cycle_per_node(amat)
            assert cycle_error_text(amat) == cycle_text(expected)
            cyclic += expected is not None
        assert 500 < cyclic < 2500, cyclic

    def test_topological_order_lists_every_node_iff_acyclic(self):
        """Kahn's queue holds each node at most once with every arc between
        listed nodes forward, and it holds every node iff the graph has no
        directed cycle, on random mixed graphs with and without one."""
        rng = np.random.default_rng(29)
        seen = Counter()
        for trial in range(2000):
            p = int(rng.integers(1, 20))
            amat = random_mixed_amat(rng, p, acyclic=trial % 2 == 0)
            g = pdag_from_amat_unchecked([f"V{k}" for k in range(p)], amat)
            order = graphs._topological_order(g._pa, g._ch)
            pos = {v: k for k, v in enumerate(order)}
            assert len(pos) == len(order)
            assert all(pos[i] < pos[j] for j in pos for i in g._pa[j])
            acyclic = directed_cycle_per_node(amat) is None
            assert (len(order) == p) == acyclic == (not g.has_directed_cycle())
            seen[acyclic] += 1
        assert min(seen.values()) > 250, seen


class TestSetCoreAgainstMatrix:
    """The per-node index sets answer every query as the p x p matrix
    they replaced does, and list edges in the same row-major order."""

    def test_queries_derived_graphs_and_errors(self):
        rng = np.random.default_rng(24)
        seen = Counter()
        for trial in range(1200):
            p = int(rng.integers(1, 21))
            if trial % 3 == 0:
                amat = random_mixed_amat(rng, p)
            elif trial % 3 == 1:
                amat = random_mixed_amat(rng, p, acyclic=False)
            else:
                amat = random_chain_graph_amat(rng, p)
            names = [f"V{k}" for k in range(p)]
            d, u, adj = amat & ~amat.T, amat & amat.T, amat | amat.T
            pa = [np.nonzero(d[:, k])[0].tolist() for k in range(p)]
            ne = [np.nonzero(u[k])[0].tolist() for k in range(p)]

            cycle = cycle_text(directed_cycle_per_node(amat))
            if cycle is not None:
                assert cycle_error_text(amat) == cycle
                with pytest.raises(CycleError) as info:
                    build_from_sets(names, pa, ne)
                assert str(info.value) == cycle
                seen["cyclic"] += 1
                continue
            g = pdag_of(amat)
            assert repr(build_from_sets(names, pa, ne)) == repr(g)

            def labels(row):
                return tuple(names[k] for k in np.nonzero(row)[0])

            assert g.nodes == tuple(names) and g.num_nodes == p
            assert g.directed_edges == tuple(
                (names[i], names[j]) for i, j in zip(*np.nonzero(d))
            )
            assert g.undirected_edges == tuple(
                (names[i], names[j]) for i, j in zip(*np.nonzero(np.triu(u)))
            )
            assert g.num_edges == int(np.triu(adj).sum())
            assert g.is_directed == (not u.any()) and g.is_undirected == (not d.any())
            for k, v in enumerate(names):
                assert g.index_of(v) == k and g.has_node(v)
                assert g.parents_of(v) == labels(d[:, k])
                assert g.children_of(v) == labels(d[k])
                assert g.neighbors_of(v) == labels(u[k])
                assert g.adjacent_to(v) == labels(adj[k])
                for j, w in enumerate(names):
                    assert g.has_edge(v, w) == adj[k, j]
                    assert g.has_directed(v, w) == d[k, j]
                    assert g.has_undirected(v, w) == u[k, j]

            assert np.array_equal(amat_of(g), amat)
            assert np.array_equal(amat_of(g.skeleton()), adj)
            assert np.array_equal(amat_of(g.undirected_subgraph()), u)
            assert np.array_equal(amat_of(directed_subgraph(g)), d)
            pick = rng.permutation(p)[: int(rng.integers(0, p + 1))]
            sub = g.induced_subgraph([names[k] for k in pick])
            keep = sorted(pick)
            assert sub.nodes == tuple(names[k] for k in keep)
            assert np.array_equal(amat_of(sub), amat[np.ix_(keep, keep)])

            vs = v_structures(g)
            assert all(g.index_of(a) < g.index_of(c) for a, _, c in vs)
            assert {(frozenset((a, c)), b) for a, b, c in vs} == vstructs_triple_scan(
                g.directed_edges, lambda a, c: adj[g.index_of(a), g.index_of(c)]
            )
            witness = g._partially_directed_cycle()
            assert witness == partially_directed_cycle_amat(amat, names)
            seen["v-structures"] += bool(vs)
            seen[witness.split(" ")[0] if witness else "no cycle"] += 1
        assert min(seen.values()) > 50, seen


def sets_build(names, amat):
    """The labels, index and sets of the oracle build of the PDAG with the
    edges of ``amat``."""
    d, u = amat & ~amat.T, amat & amat.T
    pa = [np.nonzero(d[:, k])[0].tolist() for k in range(len(names))]
    ne = [np.nonzero(u[k])[0].tolist() for k in range(len(names))]
    return sets_of(build_from_sets(names, pa, ne))


def sets_of(g):
    return g.nodes, g._index, g._pa, g._ch, g._ne


def built_sets(g):
    """The labels, index and frozen sets of ``g``, after checking that every
    empty slot holds one shared empty set."""
    assert len({id(s) for row in (g._pa, g._ch, g._ne) for s in row if not s}) <= 1
    return sets_of(g)


class TestOnePassBuilds:
    """Every graph built from edge pairs in one pass holds exactly the sets
    that freezing each node's parent and neighbour sets on its own gives."""

    def test_derived_graphs(self):
        rng = np.random.default_rng(25)
        seen = Counter()
        for trial in range(400):
            p = int(rng.integers(1, 16))
            amat = random_mixed_amat(rng, p) if trial % 2 else random_chain_graph_amat(rng, p)
            names = [f"V{k}" for k in range(p)]
            if directed_cycle_per_node(amat) is not None:
                continue
            g = pdag_of(amat)
            if trial % 3 == 0:
                g = parse_graph(format_graph(g))
                seen["parsed"] += 1
            adj = amat | amat.T
            assert built_sets(g.skeleton()) == sets_build(names, adj)
            assert built_sets(g.undirected_subgraph()) == sets_build(names, amat & amat.T)
            assert built_sets(directed_subgraph(g)) == sets_build(names, amat & ~amat.T)
            for size in (0, 1, int(rng.integers(0, p + 1))):
                pick = rng.permutation(p)[:size]
                keep = sorted(pick)
                sub = g.induced_subgraph([names[k] for k in pick])
                expected = sets_build([names[k] for k in keep], amat[np.ix_(keep, keep)])
                assert built_sets(sub) == expected
                seen["cut edge"] += int(adj[np.ix_(keep, keep)].sum()) < int(adj[keep].sum())
            seen["mixed"] += bool(g.directed_edges and g.undirected_edges)
        assert min(seen.values()) > 50, seen

    def test_cpdags_and_random_dags(self):
        rng = np.random.default_rng(26)
        for trial in range(150):
            p = int(rng.integers(2, 16))
            names = [f"V{k}" for k in range(p)]
            amat = random_mixed_amat(rng, p)
            d = pdag_of(amat & ~amat.T)
            expected = sets_build(names, amat_of(cpdag_by_meek_closure(d)))
            assert built_sets(cpdag_of(d)) == expected

            generator = simulation.GENERATORS[trial % 3]
            degree, seed = float(rng.uniform(0, min(4, p - 1))), int(rng.integers(2**32))
            got = built_sets(random_dag(p, degree, generator, np.random.default_rng(seed)))
            redraw = np.random.default_rng(seed)
            skeleton = simulation._SKELETONS[generator](p, degree, redraw)
            rank = redraw.permutation(p).argsort().tolist()
            pa = [set() for _ in range(p)]
            for a, b in skeleton:
                i, j = sorted((rank[a], rank[b]))
                pa[j].add(i)
            assert got == sets_of(build_from_sets(names, pa, [()] * p))


class TestUnshieldedPaths:
    def test_tree_b_to_d(self, wave_cpdag):
        cu = wave_cpdag.undirected_subgraph()
        assert cu.find_unshielded_paths("B", "D") == [("B", "A", "C", "D")]

    def test_single_edge_path(self):
        g = PDAG("AB", undirected=[("A", "B")])
        assert g.find_unshielded_paths("A", "B") == [("A", "B")]

    def test_complete_graph_only_direct_edge(self):
        names = list("ABCD")
        g = PDAG(names, undirected=list(itr.combinations(names, 2)))
        for u, v in itr.combinations(names, 2):
            assert g.find_unshielded_paths(u, v) == [(u, v)]

    def test_guard(self):
        names = [f"V{k}" for k in range(30)]
        g = PDAG(names, undirected=[(names[k], names[k + 1]) for k in range(29)])
        with pytest.raises(LimitError):
            g.find_unshielded_paths("V0", "V29")
        assert g.find_unshielded_paths("V0", "V29", max_nodes=30)

    @given(small_pdags())
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_recursive_search(self, g):
        adj = {v: set(g.adjacent_to(v)) for v in g.nodes}
        order = {v: i for i, v in enumerate(g.nodes)}
        for s, t in itr.permutations(g.nodes, 2):
            assert g.find_unshielded_paths(s, t) == paths_recursive(
                adj, order, s, t, unshielded=True
            )

    def test_find_unshielded_paths_checks_endpoints_and_guard(self):
        names = [f"V{k}" for k in range(30)]
        g = PDAG(names, undirected=list(itr.combinations(names, 2)))
        with pytest.raises(GraphError, match="must differ"):
            g.find_unshielded_paths("V0", "V0", max_nodes=30)
        with pytest.raises(LimitError):
            g.find_unshielded_paths("V0", "V1")

    @given(small_pdags())
    @settings(max_examples=60, deadline=None)
    def test_no_duplicates_and_triples_unshielded(self, g):
        nodes = g.nodes
        if len(nodes) < 2:
            return
        for s, t in itr.combinations(nodes, 2):
            paths = g.find_unshielded_paths(s, t)
            assert len(paths) == len(set(paths))
            for path in paths:
                assert len(set(path)) == len(path)
                for a, b in zip(path, path[1:]):
                    assert g.has_edge(a, b)
                for a, _, c in zip(path, path[1:], path[2:]):
                    assert not g.has_edge(a, c)
