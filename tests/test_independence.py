import itertools as itr

import numpy as np
import pytest

from causaltiers import (
    GraphError,
    PDAG,
    cpdag_of,
    enumerate_class,
    is_d_separated,
    v_structures,
)

from conftest import random_dag_instance
from oracles import (
    all_dags,
    consistent_extensions,
    dsep_oracle,
    independence_model,
    markov_equivalent,
    vstructs_of_arcset,
    vstructs_triple_scan,
)


class TestDSeparation:
    def test_wave_dag_b_d_given_c(self, wave_dag):
        assert is_d_separated(wave_dag, {"B"}, {"D"}, {"C"})
        assert not is_d_separated(wave_dag, {"B"}, {"D"}, {"C", "E"})

    def test_chain(self):
        g = PDAG("ABC", directed=[("A", "B"), ("B", "C")])
        assert is_d_separated(g, {"A"}, {"C"}, {"B"})
        assert not is_d_separated(g, {"A"}, {"C"})

    def test_collider(self):
        g = PDAG("ABC", directed=[("A", "C"), ("B", "C")])
        assert is_d_separated(g, {"A"}, {"B"})
        assert not is_d_separated(g, {"A"}, {"B"}, {"C"})

    def test_collider_descendant_opens(self):
        g = PDAG("ABCD", directed=[("A", "C"), ("B", "C"), ("C", "D")])
        assert not is_d_separated(g, {"A"}, {"B"}, {"D"})

    def test_rejects_overlap_and_mixed_graphs(self):
        g = PDAG("ABC", directed=[("A", "B"), ("B", "C")])
        with pytest.raises(GraphError):
            is_d_separated(g, {"A"}, {"A"})
        with pytest.raises(GraphError):
            is_d_separated(g, {"A"}, {"B"}, {"A"})
        with pytest.raises(GraphError):
            is_d_separated(g, set(), {"B"})
        mixed = PDAG("AB", undirected=[("A", "B")])
        with pytest.raises(GraphError):
            is_d_separated(mixed, {"A"}, {"B"})

    def test_symmetry_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = int(rng.integers(3, 9))
            g = random_dag_instance(rng, p, 2.0)
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            a, b = {nodes[0]}, {nodes[1]}
            c = set(nodes[2 : 2 + int(rng.integers(0, p - 2))])
            assert is_d_separated(g, a, b, c) == is_d_separated(g, b, a, c)

    def test_against_path_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            p = int(rng.integers(3, 9))
            g = random_dag_instance(rng, p, 2.5)
            arcs = {
                (g.index_of(u), g.index_of(v)) for u, v in g.directed_edges
            }
            idxs = list(range(p))
            rng.shuffle(idxs)
            na = 1 + int(rng.integers(0, 2))
            nb = 1 + int(rng.integers(0, 2))
            a = set(idxs[:na])
            b = set(idxs[na : na + nb])
            rest = idxs[na + nb :]
            c = set(rest[: int(rng.integers(0, len(rest) + 1))])
            got = is_d_separated(
                g,
                {g.nodes[i] for i in a},
                {g.nodes[i] for i in b},
                {g.nodes[i] for i in c},
            )
            assert got == dsep_oracle(arcs, p, a, b, c)


class TestVStructures:
    def test_wave_dag_collider(self, wave_dag):
        assert v_structures(wave_dag) == {("B", "E", "D")}

    def test_undirected_graph_has_none(self):
        g = PDAG("ABC", undirected=[("A", "B"), ("B", "C")])
        assert v_structures(g) == frozenset()

    def test_shielded_collider_is_not_counted(self):
        g = PDAG("ABC", directed=[("A", "C"), ("B", "C")], undirected=[("A", "B")])
        assert v_structures(g) == frozenset()

    def test_against_triple_scan(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = int(rng.integers(3, 10))
            g = random_dag_instance(rng, p, 3.0)
            got = {
                (frozenset((a, c)), b) for a, b, c in v_structures(g)
            }
            expected = vstructs_triple_scan(
                g.directed_edges, lambda x, y: g.has_edge(x, y)
            )
            assert got == expected


class TestMarkovEquivalence:
    def test_three_node_family(self):
        chain1 = PDAG("ABC", directed=[("A", "B"), ("B", "C")])
        chain2 = PDAG("ABC", directed=[("C", "B"), ("B", "A")])
        fork = PDAG("ABC", directed=[("B", "A"), ("B", "C")])
        collider = PDAG("ABC", directed=[("A", "B"), ("C", "B")])
        for g1, g2 in itr.combinations([chain1, chain2, fork], 2):
            assert markov_equivalent(g1, g2)
        for g in (chain1, chain2, fork):
            assert not markov_equivalent(g, collider)

    def test_self_equivalence(self, wave_dag):
        assert markov_equivalent(wave_dag, wave_dag)

    def test_node_set_mismatch(self):
        g1 = PDAG("AB", directed=[("A", "B")])
        g2 = PDAG("AC", directed=[("A", "C")])
        with pytest.raises(GraphError):
            markov_equivalent(g1, g2)

    def test_matches_dsep_equivalence_p4(self):
        """Skeleton+v-structure equality and independence-model equality
        partition the 4-node DAGs identically."""
        dags = all_dags(4)
        models = {}
        keys = {}
        for arcs in dags:
            models[arcs] = independence_model(arcs, 4)
            g = PDAG(range(4), directed=list(arcs))
            keys[arcs] = (
                frozenset(frozenset(e) for e in g.skeleton().undirected_edges),
                v_structures(g),
            )
        for a1, a2 in itr.combinations(dags, 2):
            assert (models[a1] == models[a2]) == (keys[a1] == keys[a2])


class TestCpdagOf:
    def test_wave_dag_to_cpdag(self, wave_dag, wave_cpdag):
        assert set(wave_cpdag.directed_edges) == {("B", "E"), ("D", "E")}
        assert {frozenset(e) for e in wave_cpdag.undirected_edges} == {
            frozenset(p)
            for p in [("A", "B"), ("A", "C"), ("C", "D"), ("C", "F"), ("F", "G")]
        }

    def test_single_edge(self):
        g = cpdag_of(PDAG("AB", directed=[("A", "B")]))
        assert g.undirected_edges == (("A", "B"),)

    def test_rejects_mixed_graphs(self):
        with pytest.raises(GraphError):
            cpdag_of(PDAG("AB", undirected=[("A", "B")]))

    def test_v_structures_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = int(rng.integers(3, 10))
            d = random_dag_instance(rng, p, 2.5)
            c = cpdag_of(d)
            assert v_structures(c) == v_structures(d)
            assert c.skeleton() == d.skeleton()

    def test_class_equals_equivalent_set_p4(self):
        """The consistent extensions of cpdag_of(d) are exactly the DAGs
        Markov-equivalent to d (full 4-node enumeration, both oracles)."""
        dags = all_dags(4)
        models = {arcs: independence_model(arcs, 4) for arcs in dags}
        by_cpdag = {}
        for arcs in dags:
            c = cpdag_of(PDAG(range(4), directed=list(arcs)))
            key = (
                frozenset(c.directed_edges),
                frozenset(frozenset(e) for e in c.undirected_edges),
            )
            by_cpdag.setdefault(key, set()).add(arcs)
        for key, members in by_cpdag.items():
            # same CPDAG <=> same independence model
            ms = {models[m] for m in members}
            assert len(ms) == 1
            # and the class is exactly the model-equality class
            model = next(iter(ms))
            full_class = {a for a in dags if models[a] == model}
            assert members == full_class

    def test_cpdag_idempotent_across_class_members_p4(self):
        dags = all_dags(4)
        for arcs in dags:
            c = cpdag_of(PDAG(range(4), directed=list(arcs)))
            members = enumerate_class(c)
            for member in members:
                assert cpdag_of(member) == c

    def test_directed_edges_are_class_invariant_p4(self):
        dags = all_dags(4)
        for arcs in dags:
            c = cpdag_of(PDAG(range(4), directed=list(arcs)))
            exts = consistent_extensions(
                list(c.undirected_edges),
                set(c.directed_edges),
                vstructs_of_arcset(arcs),
                4,
            )
            assert frozenset(arcs) in exts
            for u, v in c.directed_edges:
                assert all((u, v) in ext for ext in exts)

    def test_exhaustive_five_node_class_invariants(self):
        """Over all 29281 five-node DAGs: one CPDAG per equivalence
        class, its consistent extensions are exactly the class, and its
        directed edges appear identically in every member."""
        dags = all_dags(5)
        classes = {}
        for arcs in dags:
            key = (
                frozenset(frozenset(a) for a in arcs),
                vstructs_of_arcset(arcs),
            )
            classes.setdefault(key, []).append(arcs)
        for members in classes.values():
            cpdags = {
                cpdag_of(PDAG(range(5), directed=list(m))) for m in members
            }
            assert len(cpdags) == 1
            c = next(iter(cpdags))
            got = {frozenset(m.directed_edges) for m in enumerate_class(c)}
            assert got == set(members)
            for arc in c.directed_edges:
                assert all(arc in m for m in members)
