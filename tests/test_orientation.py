import numpy as np
import pytest

from causaltiers import (
    BackgroundKnowledge,
    GraphError,
    InconsistentKnowledgeError,
    LimitError,
    PDAG,
    TieredOrdering,
    apply_meek_rule,
    check_consistency,
    cpdag_of,
    enumerate_class,
    forbidden_set,
    impose_knowledge,
    impose_tiers,
    meek_closure,
    mpdag_of,
    tiered_mpdag,
)

from conftest import random_cpdag_and_tau, random_dag_instance
from oracles import consistent_extensions, vstructs_of_arcset


class TestBackgroundKnowledge:
    def test_rejects_required_and_forbidden_overlap(self):
        with pytest.raises(InconsistentKnowledgeError):
            BackgroundKnowledge(required=[("A", "B")], forbidden=[("A", "B")])

    def test_rejects_contradictory_requirements(self):
        with pytest.raises(InconsistentKnowledgeError):
            BackgroundKnowledge(required=[("A", "B"), ("B", "A")])

    def test_empty_is_falsy(self):
        assert not BackgroundKnowledge()
        assert BackgroundKnowledge(forbidden=[("A", "B")])


class TestImposeKnowledge:
    def test_wave_tau_orients_cross_tier_edges(self, wave_cpdag, wave_tau):
        imposed = impose_knowledge(wave_cpdag, forbidden_set(wave_tau))
        assert set(imposed.directed_edges) == {
            ("A", "C"),
            ("B", "E"),
            ("C", "F"),
            ("D", "E"),
        }
        assert {frozenset(e) for e in imposed.undirected_edges} == {
            frozenset(p) for p in [("A", "B"), ("C", "D"), ("F", "G")]
        }

    def test_empty_knowledge_is_identity(self, wave_cpdag):
        assert impose_knowledge(wave_cpdag, BackgroundKnowledge()) == wave_cpdag

    def test_forbidden_contradicting_directed_edge(self, wave_cpdag):
        with pytest.raises(InconsistentKnowledgeError, match="B.*E"):
            impose_knowledge(wave_cpdag, BackgroundKnowledge(forbidden=[("B", "E")]))

    def test_required_contradicting_directed_edge(self, wave_cpdag):
        with pytest.raises(InconsistentKnowledgeError):
            impose_knowledge(wave_cpdag, BackgroundKnowledge(required=[("E", "B")]))

    def test_required_without_adjacency(self, wave_cpdag):
        with pytest.raises(InconsistentKnowledgeError, match="A.*G"):
            impose_knowledge(wave_cpdag, BackgroundKnowledge(required=[("A", "G")]))

    def test_both_orientations_forbidden(self):
        g = PDAG("AB", undirected=[("A", "B")])
        k = BackgroundKnowledge(forbidden=[("A", "B"), ("B", "A")])
        with pytest.raises(InconsistentKnowledgeError):
            impose_knowledge(g, k)

    def test_required_orients(self):
        g = PDAG("AB", undirected=[("A", "B")])
        out = impose_knowledge(g, BackgroundKnowledge(required=[("B", "A")]))
        assert out.directed_edges == (("B", "A"),)


class TestMeekRules:
    def test_rule1_fires(self):
        g = PDAG("ABC", directed=[("A", "B")], undirected=[("B", "C")])
        out, fired = apply_meek_rule(g, 1)
        assert fired == [("B", "C")]
        assert out.has_directed("B", "C")

    def test_rule1_blocked_by_shield(self):
        g = PDAG(
            "ABC", directed=[("A", "B")], undirected=[("B", "C"), ("A", "C")]
        )
        _, fired = apply_meek_rule(g, 1)
        assert fired == []

    def test_rule2_fires(self):
        g = PDAG("ABC", directed=[("A", "B"), ("B", "C")], undirected=[("A", "C")])
        out, fired = apply_meek_rule(g, 2)
        assert fired == [("A", "C")]
        assert out.has_directed("A", "C")

    def test_rule3_fires(self):
        g = PDAG(
            "ABCD",
            directed=[("B", "D"), ("C", "D")],
            undirected=[("A", "B"), ("A", "C"), ("A", "D")],
        )
        out, fired = apply_meek_rule(g, 3)
        assert fired == [("A", "D")]
        assert out.has_directed("A", "D")
        assert out.has_undirected("A", "B") and out.has_undirected("A", "C")

    def test_rule3_needs_nonadjacent_spouses(self):
        g = PDAG(
            "ABCD",
            directed=[("B", "D"), ("C", "D")],
            undirected=[("A", "B"), ("A", "C"), ("A", "D"), ("B", "C")],
        )
        _, fired = apply_meek_rule(g, 3)
        assert fired == []

    def test_rule4_fires(self):
        g = PDAG(
            "ABCD",
            directed=[("A", "B"), ("B", "D")],
            undirected=[("C", "A"), ("C", "B"), ("C", "D")],
        )
        out, fired = apply_meek_rule(g, 4)
        assert fired == [("C", "D")]
        assert out.has_directed("C", "D")

    def test_rule4_needs_missing_shield(self):
        g = PDAG(
            "ABCD",
            directed=[("A", "B"), ("B", "D")],
            undirected=[("C", "A"), ("C", "B"), ("C", "D"), ("A", "D")],
        )
        _, fired = apply_meek_rule(g, 4)
        assert fired == []

    def test_fixpoint_returns_empty(self, wave_cpdag):
        for rule in (1, 2, 3, 4):
            _, fired = apply_meek_rule(wave_cpdag, rule)
            assert fired == []

    def test_bad_rule_number(self, wave_cpdag):
        with pytest.raises(ValueError):
            apply_meek_rule(wave_cpdag, 5)


class TestMeekClosure:
    def test_wave_rule1_closure(self, wave_cpdag, wave_tau, wave_mpdag):
        imposed = impose_knowledge(wave_cpdag, forbidden_set(wave_tau))
        assert meek_closure(imposed, rules=(1,)) == wave_mpdag

    def test_dag_is_fixpoint(self, wave_dag):
        assert meek_closure(wave_dag) == wave_dag

    def test_order_independence(self):
        """100 shuffled sweep orders per instance reach the same fixpoint."""
        rng = np.random.default_rng(17)
        for _ in range(5):
            c, tau, _ = random_cpdag_and_tau(rng, 8, 2.5)
            imposed = impose_knowledge(c, forbidden_set(tau, c.nodes))
            reference = meek_closure(imposed)
            for _ in range(100):
                order = list((1, 2, 3, 4))
                rng.shuffle(order)
                assert meek_closure(imposed, rules=tuple(order)) == reference

    def test_relabelling_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            c, tau, _ = random_cpdag_and_tau(rng, 7, 2.0)
            imposed = impose_knowledge(c, forbidden_set(tau, c.nodes))
            reference = meek_closure(imposed)
            perm = list(c.nodes)
            rng.shuffle(perm)
            shuffled = PDAG(
                perm,
                directed=imposed.directed_edges,
                undirected=imposed.undirected_edges,
            )
            got = meek_closure(shuffled)
            assert set(got.directed_edges) == set(reference.directed_edges)
            assert {frozenset(e) for e in got.undirected_edges} == {
                frozenset(e) for e in reference.undirected_edges
            }


class TestMpdagOf:
    def test_wave_knowledge(self, wave_cpdag, wave_tau, wave_mpdag):
        assert mpdag_of(wave_cpdag, forbidden_set(wave_tau)) == wave_mpdag

    def test_empty_knowledge_returns_cpdag(self, wave_cpdag):
        assert mpdag_of(wave_cpdag, BackgroundKnowledge()) == wave_cpdag

    def test_general_required_knowledge(self):
        # complete triangle with one required edge: nothing else orients
        c = PDAG("ABC", undirected=[("A", "B"), ("B", "C"), ("A", "C")])
        g = mpdag_of(c, BackgroundKnowledge(required=[("A", "B")]))
        assert g.directed_edges == (("A", "B"),)
        assert len(g.undirected_edges) == 2

    def test_restricted_class_oracle(self):
        """mpdag_of agrees with brute-force class restriction: its class
        is exactly the equivalent DAGs that encode the knowledge."""
        rng = np.random.default_rng(31)
        done = 0
        while done < 40:
            p = int(rng.integers(3, 7))
            d = random_dag_instance(rng, p, 2.0)
            c = cpdag_of(d)
            if len(c.undirected_edges) > 8:
                continue
            # knowledge: require one true arc, forbid reversal of another
            arcs = list(d.directed_edges)
            if not arcs:
                continue
            req = arcs[int(rng.integers(0, len(arcs)))]
            forb_src = arcs[int(rng.integers(0, len(arcs)))]
            k = BackgroundKnowledge(
                required=[req], forbidden=[(forb_src[1], forb_src[0])]
            )
            g = mpdag_of(c, k)
            got = {frozenset(x.directed_edges) for x in enumerate_class(g)}
            expected = {
                frozenset(x.directed_edges)
                for x in enumerate_class(c)
                if req in x.directed_edges
                and (forb_src[1], forb_src[0]) not in x.directed_edges
            }
            assert got == expected
            done += 1


class TestCheckConsistency:
    def test_wave_tau_ok(self, wave_cpdag, wave_tau):
        assert check_consistency(wave_cpdag, wave_tau) == []

    def test_violation_reported(self, wave_cpdag):
        tau = TieredOrdering.from_tiers([["E"], ["A", "B", "C", "D", "F", "G"]])
        assert ("B", "E") in check_consistency(wave_cpdag, tau)
        assert ("D", "E") in check_consistency(wave_cpdag, tau)

    def test_partial_ordering_rejected(self, wave_cpdag):
        tau = TieredOrdering({"A": 1})
        with pytest.raises(GraphError):
            check_consistency(wave_cpdag, tau)

    def test_nodes_missing_from_graph_rejected(self, wave_cpdag):
        tau = TieredOrdering.from_tiers([list(wave_cpdag.nodes), ["ZZZ", "YYY"]])
        with pytest.raises(GraphError, match=r"not in the graph: \['ZZZ', 'YYY'\]"):
            check_consistency(wave_cpdag, tau)
        with pytest.raises(GraphError, match="ZZZ"):
            tiered_mpdag(wave_cpdag, tau)

    def test_consistent_orderings_have_nonempty_classes(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            c, tau, _ = random_cpdag_and_tau(rng, 6, 2.0)
            assert check_consistency(c, tau) == []
            assert enumerate_class(tiered_mpdag(c, tau))


class TestImposeTiers:
    def test_matches_forbidden_pair_knowledge(self):
        """Non-contiguous, partly negative tier values orient exactly as
        the knowledge of every forbidden later -> earlier pair."""
        rng = np.random.default_rng(47)
        for _ in range(60):
            p = int(rng.integers(2, 12))
            c, tau, _ = random_cpdag_and_tau(rng, p, 2.5)
            spread = TieredOrdering({v: 7 * t * t - 50 for v, t in tau.assignment.items()})
            expected = impose_knowledge(c, forbidden_set(spread, c.nodes))
            assert impose_tiers(c, spread) == expected
            assert impose_tiers(c, tau) == expected

    def test_tiers_beyond_int64_stay_distinct(self):
        c = PDAG("ABC", undirected=[("A", "B"), ("B", "C")])
        tau = TieredOrdering({"A": -1, "B": 2**63, "C": 2**63 + 1})
        assert set(impose_tiers(c, tau).directed_edges) == {("A", "B"), ("B", "C")}


class TestTieredMpdag:
    def test_wave_tau_gives_wave_mpdag(self, wave_cpdag, wave_tau, wave_mpdag):
        assert tiered_mpdag(wave_cpdag, wave_tau) == wave_mpdag

    def test_single_tier_is_identity(self, wave_cpdag):
        tau = TieredOrdering.from_tiers([list(wave_cpdag.nodes)])
        assert tiered_mpdag(wave_cpdag, tau) == wave_cpdag

    def test_complete_triangle_one_early_node(self):
        c = PDAG("ABC", undirected=[("A", "B"), ("B", "C"), ("A", "C")])
        tau = TieredOrdering.from_tiers([["A"], ["B", "C"]])
        g = tiered_mpdag(c, tau)
        assert set(g.directed_edges) == {("A", "B"), ("A", "C")}
        assert g.undirected_edges == (("B", "C"),)

    def test_inconsistent_ordering_raises_with_edges(self, wave_cpdag):
        tau = TieredOrdering.from_tiers([["E"], ["A", "B", "C", "D", "F", "G"]])
        with pytest.raises(InconsistentKnowledgeError, match="B->E"):
            tiered_mpdag(wave_cpdag, tau)

    def test_monotone_over_cpdag(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            c, tau, _ = random_cpdag_and_tau(rng, 8, 2.5)
            g = tiered_mpdag(c, tau)
            assert g.skeleton() == c.skeleton()
            assert set(c.directed_edges) <= set(g.directed_edges)

    def test_small_scale_soundness(self):
        """The tiered graph's class is the tiered restriction of the full
        class, and an edge is directed iff all members agree on it."""
        rng = np.random.default_rng(43)
        done = 0
        while done < 30:
            p = int(rng.integers(3, 7))
            c, tau, _ = random_cpdag_and_tau(rng, p, 2.0)
            if len(c.undirected_edges) > 10:
                continue
            g = tiered_mpdag(c, tau)
            members = enumerate_class(c)
            restricted = [
                m
                for m in members
                if not any(
                    tau.tier_of(u) > tau.tier_of(v) for u, v in m.directed_edges
                )
            ]
            assert restricted
            got = {frozenset(m.directed_edges) for m in enumerate_class(g)}
            assert got == {frozenset(m.directed_edges) for m in restricted}
            for u, v in g.skeleton().undirected_edges:
                directions = {
                    (u, v) if (u, v) in m.directed_edges else (v, u)
                    for m in restricted
                }
                if g.has_directed(u, v) or g.has_directed(v, u):
                    assert len(directions) == 1
                else:
                    assert len(directions) == 2
            done += 1


class TestEnumerateClass:
    def test_wave_mpdag_has_two_members(self, wave_mpdag):
        members = enumerate_class(wave_mpdag)
        assert len(members) == 2
        assert {m.has_directed("A", "B") for m in members} == {True, False}

    def test_dag_is_singleton(self, wave_dag):
        assert enumerate_class(wave_dag) == [wave_dag]

    def test_three_chain_cpdag(self):
        c = PDAG("ABC", undirected=[("A", "B"), ("B", "C")])
        members = enumerate_class(c)
        assert len(members) == 3  # all orientations except the collider

    def test_limit_guard(self):
        names = [f"V{k}" for k in range(14)]
        c = PDAG(names, undirected=[(names[k], names[k + 1]) for k in range(13)])
        with pytest.raises(LimitError):
            enumerate_class(c)
        assert enumerate_class(c, max_undirected=13)

    def test_against_bitmask_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            p = int(rng.integers(3, 7))
            d = random_dag_instance(rng, p, 2.0)
            c = cpdag_of(d)
            got = {
                frozenset(
                    (m.index_of(u), m.index_of(v)) for u, v in m.directed_edges
                )
                for m in enumerate_class(c)
            }
            arcs = {(d.index_of(u), d.index_of(v)) for u, v in d.directed_edges}
            expected = set(
                consistent_extensions(
                    [(c.index_of(u), c.index_of(v)) for u, v in c.undirected_edges],
                    {(c.index_of(u), c.index_of(v)) for u, v in c.directed_edges},
                    vstructs_of_arcset(arcs),
                    p,
                )
            )
            assert got == expected
