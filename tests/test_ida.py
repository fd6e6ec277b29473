import itertools as itr
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from causaltiers import (
    GraphError,
    LimitError,
    PDAG,
    class_size,
    enumerate_class,
    joint_ida,
    local_ida,
    orientation,
    tiered_mpdag,
)
from causaltiers.ida import ParentSetMultiset

from conftest import random_chordal, random_cpdag_and_tau
from oracles import (
    joint_ida_branch_and_close,
    joint_ida_by_enumeration,
    joint_ida_by_root_picking,
    joint_ida_per_combination,
    leaves,
    local_ida_by_subsets,
    multiplicity_ratios_equal,
)


def clique(n, missing=()):
    """K_n on V0 .. V(n-1), less the edges ``missing``."""
    names = [f"V{i}" for i in range(n)]
    edges = [e for e in itr.combinations(names, 2) if e not in missing]
    return PDAG(names, undirected=edges)


def random_undirected(rng, p):
    names = [f"V{i}" for i in range(p)]
    density = rng.uniform(0.2, 0.8)
    return PDAG(names, undirected=[e for e in itr.combinations(names, 2) if rng.random() < density])


def query_sample(rng, g, most):
    k = int(rng.integers(1, min(most, g.num_nodes) + 1))
    return [g.nodes[i] for i in rng.choice(g.num_nodes, size=k, replace=False)]


def class_parent_multiset(g, x):
    return Counter(frozenset(m.parents_of(x)) for m in leaves(g))


def class_joint_multiset(g, xs):
    return Counter(tuple(frozenset(m.parents_of(x)) for x in xs) for m in leaves(g))


class TestParentSetMultiset:
    def test_counts_and_distinct(self):
        m = ParentSetMultiset([frozenset("A"), frozenset("A"), frozenset()])
        assert m.multiplicity(frozenset("A")) == 2
        assert m.distinct() == {frozenset("A"), frozenset()}
        assert m.total() == 3
        assert len(m) == 2

    def test_equality(self):
        a = ParentSetMultiset([frozenset("A")])
        b = ParentSetMultiset([frozenset("A")])
        assert a == b
        assert a != ParentSetMultiset([frozenset("A"), frozenset("A")])

    def test_foreign_operand_is_not_equal(self):
        m = ParentSetMultiset([frozenset("A")])
        assert m.__eq__({frozenset("A"): 1}) is NotImplemented
        assert m != {frozenset("A"): 1}

    def test_repr_sorts_entries_by_text(self):
        m = ParentSetMultiset([frozenset("BA"), frozenset(), frozenset("BA")])
        assert repr(m) == "ParentSetMultiset({A,B} x2, {} x1)"
        pairs = ParentSetMultiset([(frozenset("C"), frozenset()), (frozenset(), frozenset("AB"))])
        assert repr(pairs) == "ParentSetMultiset(({C}, {}) x1, ({}, {A,B}) x1)"
        assert repr(ParentSetMultiset()) == "ParentSetMultiset()"


class TestDomain:
    """class_size, enumerate_class and both IDA variants take the graphs
    whose undirected edges join nodes with the same parents, and count or
    list nothing on a class that is empty because some chain component is
    not chordal."""

    def test_component_outside_the_query_empties_the_class(self):
        g = PDAG("abcdxy", undirected=[
            ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("x", "y"),
        ])
        assert class_size(g) == 0 == len(enumerate_class(g))
        assert local_ida(g, "x") == ParentSetMultiset() == joint_ida(g, ["x"])

    @pytest.mark.parametrize("directed, undirected, members, edge", [
        # class_size gave 2
        (["ab"], ["bc"], 1, "b - c"),
        # class_size gave 5
        (["ae"], ["ab", "ac", "ad", "ce"], 7, "e - c"),
        # joint IDA of c listed {b} and missed {a,b}
        (["ab"], ["bc", "ca"], 3, "b - c"),
    ])
    def test_refuses_edges_whose_ends_have_different_parents(
        self, directed, undirected, members, edge
    ):
        g = PDAG(directed=directed, undirected=undirected)
        assert len(list(leaves(g))) == members  # branch and close lists a class
        message = f"^not a CPDAG or tiered MPDAG: the ends of {edge} have different parents$"
        for count in (class_size, enumerate_class, lambda g: local_ida(g, "c"),
                      lambda g: joint_ida(g, ["c"])):
            with pytest.raises(GraphError, match=message):
                count(g)


class TestLocalIda:
    def test_wave_mpdag_node_b(self, wave_mpdag):
        result = local_ida(wave_mpdag, "B")
        assert result.distinct() == {frozenset(), frozenset({"A"})}
        assert class_parent_multiset(wave_mpdag, "B").keys() == result.distinct()

    def test_node_without_neighbours(self, wave_mpdag):
        result = local_ida(wave_mpdag, "E")
        assert result.distinct() == {frozenset({"B", "D"})}

    def test_clique_screening(self):
        # x has two non-adjacent neighbours: they never appear together
        g = PDAG("XAB", undirected=[("X", "A"), ("X", "B")])
        result = local_ida(g, "X")
        assert frozenset({"A", "B"}) not in result.distinct()
        assert result.distinct() == {
            frozenset(),
            frozenset({"A"}),
            frozenset({"B"}),
        }

    def test_existing_parent_adjacency_screening(self):
        # A is not adjacent to X's parent P, so rule 1 orients X -> A: no
        # CPDAG or tiered MPDAG has this graph, and no screening is needed
        # on one, because every neighbour has the node's parents
        g = PDAG("XPA", directed=[("P", "X")], undirected=[("X", "A")])
        with pytest.raises(GraphError, match="^not a CPDAG or tiered MPDAG: the ends of X - A "):
            local_ida(g, "X")

    def test_matches_class_enumeration_random(self):
        rng = np.random.default_rng(97)
        done = 0
        while done < 60:
            p = int(rng.integers(3, 8))
            c, tau, _ = random_cpdag_and_tau(rng, p, 2.5)
            g = tiered_mpdag(c, tau)
            if len(g.undirected_edges) > 10:
                continue
            for x in g.nodes:
                assert (
                    local_ida(g, x).distinct()
                    == set(class_parent_multiset(g, x))
                )
            done += 1

    def test_cliques_match_subset_scan(self):
        """Clique extension lists the sets the 2^deg subset scan keeps, each
        once, on DAGs, their CPDAGs and tiered MPDAGs."""
        rng = np.random.default_rng(131)
        pairs = Counter()
        for _ in range(400):
            c, tau, dag = random_cpdag_and_tau(rng, int(rng.integers(2, 12)), 3.5)
            for kind, g in (("dag", dag), ("cpdag", c), ("mpdag", tiered_mpdag(c, tau))):
                for x in g.nodes:
                    assert local_ida(g, x) == local_ida_by_subsets(g, x), (g, x)
                    pairs[kind, len(g.neighbors_of(x)) > 1] += 1
        assert sum(pairs.values()) > 6000, pairs
        assert min(pairs["cpdag", True], pairs["mpdag", True]) > 250, pairs

    def test_star_is_linear_in_its_answers(self):
        leaves = [f"L{k}" for k in range(200)]
        star = PDAG(["X", *leaves], undirected=[("X", v) for v in leaves])
        result = local_ida(star, "X")
        assert len(result) == result.total() == 201
        assert result.distinct() == {frozenset(), *(frozenset({v}) for v in leaves)}

    def test_no_new_collider_recheck(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            p = int(rng.integers(3, 8))
            c, tau, _ = random_cpdag_and_tau(rng, p, 2.5)
            g = tiered_mpdag(c, tau)
            for x in g.nodes:
                pa = set(g.parents_of(x))
                for entry in local_ida(g, x).distinct():
                    s = entry - pa
                    incoming = s | pa
                    for a, b in itr.combinations(sorted(incoming, key=str), 2):
                        assert g.has_edge(a, b) or (a in pa and b in pa)

    def test_four_cycle_has_no_member(self):
        square = PDAG("abcd", undirected=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert enumerate_class(square) == []
        for x in square.nodes:
            assert local_ida(square, x) == ParentSetMultiset() == joint_ida(square, [x])

    def test_distinct_sets_match_joint_ida(self):
        """Random undirected graphs, chordal or not, and CPDAGs and tiered
        MPDAGs: local IDA lists the parent sets joint IDA finds for x alone."""
        rng = np.random.default_rng(139)
        empty = 0
        for trial in range(300):
            p = int(rng.integers(2, 9))
            if trial % 2:
                graphs = [random_undirected(rng, p)]
            else:
                c, tau, _ = random_cpdag_and_tau(rng, p, float(rng.uniform(1.0, 3.5)))
                graphs = [c, tiered_mpdag(c, tau)]
            for g in graphs:
                for x in g.nodes:
                    got = local_ida(g, x).distinct()
                    assert {(s,) for s in got} == joint_ida(g, [x]).distinct(), (g, x)
                    empty += not got
        assert empty > 50, empty


class TestJointIda:
    def test_wave_mpdag_joint_a_b(self, wave_mpdag):
        result = joint_ida(wave_mpdag, ["A", "B"])
        assert result.distinct() == {
            (frozenset(), frozenset({"A"})),
            (frozenset({"B"}), frozenset()),
        }
        assert all(m == 1 for _, m in result)

    def test_fully_directed_query_is_singleton(self, wave_mpdag):
        result = joint_ida(wave_mpdag, ["E", "G"])
        assert result.distinct() == {
            (frozenset({"B", "D"}), frozenset({"F"}))
        }
        assert result.total() == 1

    def test_rejects_duplicates_and_unknowns(self, wave_mpdag):
        with pytest.raises(GraphError):
            joint_ida(wave_mpdag, ["A", "A"])
        with pytest.raises(GraphError):
            joint_ida(wave_mpdag, ["A", "Z"])

    def test_no_member_guard_on_k8(self):
        # 8! = 40,320 members, over the old guard of 10,000; a node of K_n
        # takes any subset of the other n - 1 nodes as parents
        k8 = clique(8)
        result = joint_ida(k8, ["V0"])
        assert result.total() == 40_320
        assert len(result) == 128

    def test_k10_counts_without_listing(self):
        result = joint_ida(clique(10), ["V0"])
        assert result.total() == 3_628_800
        assert len(result) == 512

    def test_long_path(self):
        # one member per root r: V5's parent is V4 for r < 5 and V6 for r > 5
        names = [f"V{k}" for k in range(200)]
        path = PDAG(names, undirected=list(zip(names, names[1:])))
        result = joint_ida(path, ["V5", "V12"])
        f = frozenset
        assert result.counts == {
            (f({"V4"}), f({"V11"})): 5,
            (f(), f({"V11"})): 1,
            (f({"V6"}), f({"V11"})): 6,
            (f({"V6"}), f()): 1,
            (f({"V6"}), f({"V13"})): 187,
        }
        assert result.total() == 200

    def test_matches_enumeration_oracle(self):
        """Random CPDAGs and tiered MPDAGs with one to three query nodes."""
        rng = np.random.default_rng(109)
        for _ in range(150):
            p = int(rng.integers(3, 11))
            c, tau, _ = random_cpdag_and_tau(rng, p, float(rng.uniform(1.0, 3.5)))
            for g in (c, tiered_mpdag(c, tau)):
                k = int(rng.integers(1, min(3, p) + 1))
                xs = [g.nodes[i] for i in rng.choice(p, size=k, replace=False)]
                assert joint_ida(g, xs).counts == joint_ida_by_root_picking(g, xs).counts
                try:
                    expected = joint_ida_by_enumeration(g, xs)
                except LimitError:
                    continue
                assert joint_ida(g, xs) == expected

    def test_arbitrary_undirected_components(self):
        """Components that are not chordal have no member: both give an
        empty multiset."""
        rng = np.random.default_rng(113)
        empty = 0
        for _ in range(200):
            p = int(rng.integers(3, 9))
            names = [f"V{i}" for i in range(p)]
            density = rng.uniform(0.2, 0.8)
            g = PDAG(names, undirected=[
                e for e in itr.combinations(names, 2) if rng.random() < density
            ])
            k = int(rng.integers(1, min(3, p) + 1))
            xs = [names[i] for i in rng.choice(p, size=k, replace=False)]
            expected = joint_ida_by_enumeration(g, xs)
            assert joint_ida(g, xs) == expected
            empty += not expected.total()
        assert empty > 20, empty

    def test_matches_branch_and_close_oracle(self):
        """Random chordal components of 2-10 nodes with one to four query
        nodes, three queries each (at most 24 edges, which keeps the
        oracle's branching small); CPDAGs and tiered MPDAGs; K2-K8 with one
        to three query nodes; K5-K8 less one edge."""
        rng = np.random.default_rng(149)
        cases = []
        while len(cases) < 450:
            g = random_chordal(rng, int(rng.integers(2, 11)))
            if len(g.undirected_edges) <= 24:
                cases += [(g, query_sample(rng, g, 4)) for _ in range(3)]
        for _ in range(100):
            p = int(rng.integers(2, 11))
            c, tau, _ = random_cpdag_and_tau(rng, p, float(rng.uniform(1.0, 3.5)))
            cases += [(g, query_sample(rng, g, 4)) for g in (c, tiered_mpdag(c, tau))]
        for n in range(2, 9):
            cases += [(clique(n), [f"V{i}" for i in range(k)]) for k in range(1, min(n, 3) + 1)]
        for n in range(5, 9):
            g = clique(n, missing=[("V0", "V1")])
            cases += [(g, ["V0"]), (g, ["V2"]), (g, ["V0", "V1"]), (g, query_sample(rng, g, 3))]
        several = 0
        for g, xs in cases:
            got = joint_ida(g, xs)
            assert got == joint_ida_branch_and_close(g, xs), (g, xs)
            assert got.counts == joint_ida_by_root_picking(g, xs).counts, (g, xs)
            several += len(xs) > 2
        assert several > 150, several

    def test_k14_less_one_edge_under_a_second(self):
        """Root picking took seconds here.  In K_n less V0 - V1, with S the
        other n - 2 nodes, V0 takes any P of S as parents: P = S in (n - 1)!
        members (V0 a sink), and a proper P in |P|! (n - 2 - |P|)!, as its
        children in S must precede V1, which is then the sink."""
        n = 14
        names = [f"V{k}" for k in range(n)]
        g = clique(n, missing=[("V0", "V1")])
        start = time.perf_counter()
        got = joint_ida(g, ["V0"])
        assert time.perf_counter() - start < 1.0
        expected = {
            (frozenset(p),): math.factorial(n - 1) if len(p) == n - 2
            else math.factorial(len(p)) * math.factorial(n - 2 - len(p))
            for k in range(n - 1) for p in itr.combinations(names[2:], k)
        }
        assert got.counts == expected
        assert got.total() == (2 * n - 3) * math.factorial(n - 2)

    def test_negative_order_count_is_an_invariant_error(self, monkeypatch):
        """Cliques V0V2V4 - V0V3V4 - V1V3V4: the middle one subtracts the
        orders that start with the separator {V0,V4}; counting those twice
        leaves a negative count, which a plain check refuses."""
        g = PDAG(
            [f"V{i}" for i in range(5)],
            undirected=[("V0", "V2"), ("V0", "V4"), ("V2", "V4"), ("V0", "V3"),
                        ("V3", "V4"), ("V1", "V3"), ("V1", "V4")],
        )
        orders = orientation._clique_orders

        def over_counting(query, nodes, before=frozenset()):
            counts = orders(query, nodes, before)
            return Counter({k: 2 * m for k, m in counts.items()}) if before else counts

        assert joint_ida(g, ["V0", "V1"]).total() == class_size(g)
        monkeypatch.setattr(orientation, "_clique_orders", over_counting)
        with pytest.raises(orientation.InvariantError, match=r"negative count of orders of \{V0,V3,V4\}"):
            joint_ida(g, ["V0", "V1"])

    def test_closes_under_rule_1_only(self, monkeypatch):
        """Every closure joint IDA runs is rule 1 alone, and a clique
        component with query nodes starts none from an orientation."""
        rules, starts = Counter(), Counter()
        close = orientation._close

        def counting(s, rule_set, names, oriented):
            rules[tuple(rule_set)] += 1
            starts[bool(oriented)] += 1
            return close(s, rule_set, names, oriented)

        monkeypatch.setattr(orientation, "_close", counting)
        rng = np.random.default_rng(151)
        for _ in range(60):
            g = random_chordal(rng, int(rng.integers(3, 10)))
            joint_ida(g, query_sample(rng, g, 3))
        assert set(rules) == {(1,)} and rules[(1,)] > 100, rules
        starts.clear()
        result = joint_ida(clique(7), ["V0", "V3", "V5"])
        assert result.total() == math.factorial(7) and not starts[True]

    def test_clique_closed_form_matches_enumeration(self):
        rng = np.random.default_rng(157)
        for n in range(2, 8):
            g = clique(n)
            members = list(leaves(g))
            for k in [k for k in (1, 2, 3) if k <= n] * 2:
                xs = [g.nodes[i] for i in rng.choice(n, size=k, replace=False)]
                expected = Counter(tuple(frozenset(m.parents_of(x)) for x in xs) for m in members)
                assert joint_ida(g, xs).counts == dict(expected), (n, xs)

    def test_matches_class_enumeration_and_ratios(self):
        rng = np.random.default_rng(103)
        done = 0
        while done < 40:
            p = int(rng.integers(3, 8))
            c, tau, _ = random_cpdag_and_tau(rng, p, 2.5)
            g = tiered_mpdag(c, tau)
            if len(g.undirected_edges) > 10:
                continue
            nodes = list(g.nodes)
            k = int(rng.integers(1, min(3, p) + 1))
            xs = [nodes[i] for i in rng.choice(p, size=k, replace=False)]
            got = joint_ida(g, xs)
            expected = class_joint_multiset(g, xs)
            assert got.distinct() == set(expected)
            assert multiplicity_ratios_equal(got.counts, dict(expected))
            done += 1

    def test_matches_per_combination_product(self):
        rng = np.random.default_rng(107)
        several = 0
        for _ in range(60):
            p = int(rng.integers(4, 11))
            c, tau, _ = random_cpdag_and_tau(rng, p, 1.2)
            g = tiered_mpdag(c, tau) if rng.random() < 0.5 else c
            several += sum(len(comp) > 1 for comp in g.chain_components()) > 1
            k = int(rng.integers(1, min(4, p) + 1))
            xs = [g.nodes[i] for i in rng.choice(p, size=k, replace=False)]
            assert joint_ida(g, xs).counts == joint_ida_per_combination(g, xs)
        assert several > 10

    def test_product_keeps_only_distinct_tuples(self):
        # K5 + K5 + K4, one query node in each: 120 * 120 * 24 = 345,600
        # orientations over 2^4 * 2^4 * 2^3 = 2,048 distinct parent-set tuples
        groups = [[f"{tag}{i}" for i in range(k)] for tag, k in (("a", 5), ("b", 5), ("c", 4))]
        g = PDAG(
            [v for group in groups for v in group],
            undirected=[e for group in groups for e in itr.combinations(group, 2)],
        )
        result = joint_ida(g, ["a0", "b0", "c0"])
        assert result.total() == 345_600
        assert len(result) == 2_048
        # a node of K_n has parent set S in |S|! (n - 1 - |S|)! orientations
        for entry, m in result:
            expected = 1
            for parents, group in zip(entry, groups):
                k = len(parents)
                expected *= math.factorial(k) * math.factorial(len(group) - 1 - k)
            assert m == expected

    def test_repr_does_not_depend_on_hash_seed(self):
        script = (
            "import itertools as itr\n"
            "from causaltiers import PDAG, joint_ida\n"
            "groups = [[f'{t}{i}' for i in range(k)]\n"
            "          for t, k in (('a', 5), ('b', 5), ('c', 4))]\n"
            "g = PDAG([v for gr in groups for v in gr],\n"
            "         undirected=[e for gr in groups for e in itr.combinations(gr, 2)])\n"
            "print(repr(joint_ida(g, ['a0', 'b0', 'c0'])))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(
            "ParentSetMultiset(({a1,a2,a3,a4}, {b1,b2,b3,b4}, {c1,c2,c3}) x"
        )

    def test_multiplicities_scale_with_untouched_components(self):
        # two independent undirected components; querying one node leaves
        # the class multiset scaled by the other component's orientations
        g = PDAG("ABCD", undirected=[("A", "B"), ("C", "D")])
        got = joint_ida(g, ["A"])
        expected = class_joint_multiset(g, ["A"])
        assert got.distinct() == set(expected)
        ratio = Fraction(
            expected[(frozenset(),)], got.multiplicity((frozenset(),))
        )
        assert ratio == 2  # the C - D component flips freely
