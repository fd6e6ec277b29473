import importlib
import io
import itertools as itr
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from causaltiers import (
    GraphError,
    InconsistentKnowledgeError,
    IncompatibleOrderingsError,
    LimitError,
    Informativeness,
    PDAG,
    Refinement,
    TieredOrdering,
    compare_refinement,
    contained_in,
    cross_tier_report,
    tiered_mpdag,
    tiers_equivalent,
    tiers_more_informative,
)
from causaltiers import class_size, enumerate_class, joint_ida, local_ida, orientation, tiers
from causaltiers.cli import main
from causaltiers.formats import format_graph, format_tiers, load_graph, load_tiers, parse_graph
from causaltiers.graphs import _component_labels
from causaltiers.orientation import InvariantError
from causaltiers.tiers import (
    _compare,
    _first_edges,
    _floors,
    check_compatible,
    first_cross_tier_edges,
)

from conftest import random_chordal, random_cpdag_and_tau, random_coarsening, reordered
from causaltiers import cpdag_of
from causaltiers.simulation import random_dag
from oracles import (
    all_dags,
    class_size_by_root_picking,
    compare_by_path_tree,
    compare_refinement_pairwise,
    component_paths,
    component_paths_pairwise,
    consistent_extensions,
    contained_in_by_skeletons,
    cross_tier_edges,
    cross_tier_pairs,
    cross_tier_report_loop,
    earliest_by_extension,
    earliest_by_floor,
    earliest_by_tree_floors,
    first_cross_tier_edges_walk,
    floors_from_every_node,
    forbidden_set,
    fully_shielded_edges,
    is_earliest,
    joint_ida_by_root_picking,
    leaves,
    least_edge_of_least_component,
    maximal_paths_by_segments,
    maximal_paths_pairwise,
    orient_undirected_part,
    path_tree_with_edge_ids,
    report_paths_by_walk,
    tiers_equivalent_loop,
    tiers_more_informative_loop,
    unshielded_walk,
    vstructs_of_arcset,
)


@pytest.fixture
def two_wave_tau():
    return TieredOrdering.from_tiers([["A", "B"], ["C", "D", "E", "F", "G"]])


@pytest.fixture
def fine_late_tau():
    return TieredOrdering.from_tiers([["A", "B"], ["C"], ["D", "E"], ["F"], ["G"]])


@pytest.fixture
def coarse_late_tau():
    return TieredOrdering.from_tiers([["A", "B", "C"], ["D", "E"], ["F"], ["G"]])


@pytest.fixture
def triangle():
    return PDAG("ABC", undirected=[("A", "B"), ("B", "C"), ("A", "C")])


class TestTieredOrdering:
    def test_totality_and_uniqueness(self):
        with pytest.raises(GraphError):
            TieredOrdering.from_tiers([["A"], ["A"]])
        with pytest.raises(GraphError):
            TieredOrdering({"A": 1.5})
        tau = TieredOrdering({"A": 3, "B": 9})
        with pytest.raises(GraphError):
            tau.tier_of("C")

    def test_boolean_tiers_rejected(self):
        with pytest.raises(GraphError, match="must be an integer"):
            TieredOrdering({"A": True, "B": False})
        with pytest.raises(GraphError, match="must be an integer"):
            TieredOrdering({"A": 1, "B": True})

    def test_integer_types_are_kept_as_int(self):
        """numpy's integers, as the simulation's arrays hold them, are tiers;
        numpy's bool and floats are not, with the message of ``bool``."""
        values = {"A": np.int64(1), "B": np.int32(-2), "C": np.uint8(7), "D": 3}
        tau = TieredOrdering(values)
        assert tau.assignment == {"A": 1, "B": -2, "C": 7, "D": 3}
        assert all(type(t) is int for t in tau.assignment.values())
        assert tau == TieredOrdering({"A": 1, "B": -2, "C": 7, "D": 3})
        only_numpy = TieredOrdering(dict(zip("AB", np.arange(2))))
        assert all(type(t) is int for t in only_numpy.assignment.values())
        assert only_numpy.tier_groups() == [(0, ("A",)), (1, ("B",))]
        for bad in (True, np.bool_(True), np.float64(1.0), 1.0, "1", None):
            message = f"^tier of 'B' must be an integer, got {re.escape(repr(bad))}$"
            for values in ({"A": 1, "B": bad}, {"A": np.int64(1), "B": bad, "C": 2}):
                with pytest.raises(GraphError, match=message):
                    TieredOrdering(values)

    def test_normalization_is_contiguous(self):
        tau = TieredOrdering({"A": 10, "B": 3, "C": 10})
        norm = tau.normalized()
        assert norm.assignment == {"A": 2, "B": 1, "C": 2}
        assert tau == norm  # equality is up to monotone relabelling

    def test_tier_groups(self):
        tau = TieredOrdering({"A": 2, "B": 1, "C": 2})
        assert tau.tier_groups() == [(1, ("B",)), (2, ("A", "C"))]

    def test_empty_ordering_rejected(self):
        with pytest.raises(GraphError, match="^an ordering needs at least one node$"):
            TieredOrdering({})
        with pytest.raises(GraphError, match="^an ordering needs at least one node$"):
            TieredOrdering.from_tiers([])

    def test_hash_and_repr_follow_the_tier_groups(self):
        tau = TieredOrdering({"A": 10, "B": 3, "C": 10})
        assert hash(tau) == hash(tau.normalized()) == hash(TieredOrdering({"C": 2, "B": 1, "A": 2}))
        assert len({tau, tau.normalized(), TieredOrdering({"A": 1, "B": 1, "C": 1})}) == 2
        assert repr(tau) == "TieredOrdering({B} < {A C})"

    def test_foreign_operand_is_not_equal(self):
        tau = TieredOrdering({"A": 1})
        assert tau.__eq__({"A": 1}) is NotImplemented
        assert tau != {"A": 1}


class TestForbiddenSet:
    def test_two_node_example(self):
        tau = TieredOrdering({"A": 1, "B": 2})
        k = forbidden_set(tau)
        assert k.forbidden == {("B", "A")}
        assert k.required == frozenset()

    def test_single_tier_empty(self):
        tau = TieredOrdering({"A": 1, "B": 1, "C": 1})
        assert not forbidden_set(tau)

    def test_count_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = int(rng.integers(2, 10))
            tau = random_coarsening(rng, p)
            nodes = tau.nodes
            expected = sum(
                1
                for a, b in itr.permutations(nodes, 2)
                if tau.tier_of(a) < tau.tier_of(b)
            )
            assert len(forbidden_set(tau).forbidden) == expected


class TestCompareRefinement:
    def test_fine_late_ordering_is_finer(self, fine_late_tau, coarse_late_tau):
        assert compare_refinement(fine_late_tau, coarse_late_tau).verdict is Refinement.FIRST_FINER
        assert compare_refinement(coarse_late_tau, fine_late_tau).verdict is Refinement.SECOND_FINER

    def test_self_is_equal(self, fine_late_tau):
        assert compare_refinement(fine_late_tau, fine_late_tau).verdict is Refinement.EQUAL

    def test_relabelled_is_equal(self):
        a = TieredOrdering({"A": 1, "B": 5})
        b = TieredOrdering({"A": 2, "B": 3})
        assert compare_refinement(a, b).verdict is Refinement.EQUAL

    def test_triangle_split_orderings_incomparable(self):
        a_first = TieredOrdering.from_tiers([["A"], ["B", "C"]])
        c_last = TieredOrdering.from_tiers([["A", "B"], ["C"]])
        assert compare_refinement(a_first, c_last).verdict is Refinement.INCOMPARABLE

    def test_incompatible_orderings_raise(self):
        a = TieredOrdering({"A": 1, "B": 2})
        b = TieredOrdering({"A": 2, "B": 1})
        with pytest.raises(IncompatibleOrderingsError, match="A.*B|B.*A"):
            compare_refinement(a, b)

    def test_finer_means_larger_forbidden_set(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            p = int(rng.integers(2, 9))
            t1 = random_coarsening(rng, p)
            t2 = random_coarsening(rng, p)
            cmp = compare_refinement(t1, t2)
            f1 = forbidden_set(t1).forbidden
            f2 = forbidden_set(t2).forbidden
            if cmp.verdict is Refinement.FIRST_FINER:
                assert f2 < f1
            elif cmp.verdict is Refinement.SECOND_FINER:
                assert f1 < f2
            elif cmp.verdict is Refinement.EQUAL:
                assert f1 == f2


def random_ordering_pair(rng):
    """Two orderings of up to 9 nodes: refinements of one random base
    ordering (often compatible, sometimes equal or nested) or two
    independent draws, with ties, tier values that are negative,
    non-contiguous or beyond int64, and nodes inserted in different
    orders; now and then one node set lacks a node."""
    p = int(rng.integers(1, 10))
    nodes = [f"V{k}" for k in range(p)]
    base = rng.integers(0, int(rng.integers(1, p + 1)), size=p)

    def draw():
        if rng.random() < 0.2:
            rank = rng.integers(0, 4, size=p)
        else:  # split each base tier at random: a refinement of the base
            rank = base * 4 + rng.integers(0, 1 + 3 * int(rng.random() < 0.5), size=p)
        scale = int(rng.choice([1, 7, 2**70]))
        shift = int(rng.integers(-50, 50)) * int(rng.choice([1, 2**80]))
        order = rng.permutation(p)
        return TieredOrdering({nodes[k]: int(rank[k]) * scale + shift for k in order})

    t1, t2 = draw(), draw()
    if p > 1 and rng.random() < 0.05:
        t2 = TieredOrdering({v: t for v, t in t2.assignment.items() if v != nodes[0]})
    return t1, t2


class TestOrderingsByTierGroups:
    """Compatibility and refinement read from tier groups match the
    pairwise oracles: verdicts, error texts and the pair they name."""

    def test_matches_pairwise_oracles(self):
        rng = np.random.default_rng(113)
        outcomes = Counter()
        for _ in range(3000):
            t1, t2 = random_ordering_pair(rng)
            try:
                expected = compare_refinement_pairwise(t1, t2)
            except GraphError as exc:
                with pytest.raises(type(exc)) as info:
                    compare_refinement(t1, t2)
                assert str(info.value) == str(exc)
                with pytest.raises(type(exc)) as info:
                    check_compatible(t1, t2)
                assert str(info.value) == str(exc)
                outcomes[type(exc).__name__] += 1
                continue
            check_compatible(t1, t2)
            assert compare_refinement(t1, t2).verdict is expected
            outcomes[expected] += 1
        assert len(outcomes) == 6 and min(outcomes.values()) > 50, outcomes


class TestCuTau:
    def test_orients_only_cross_tier(self, wave_cpdag, wave_tau):
        h = orient_undirected_part(wave_cpdag, wave_tau)
        assert set(h.directed_edges) == {("A", "C"), ("C", "F")}
        assert {frozenset(e) for e in h.undirected_edges} == {
            frozenset(p) for p in [("A", "B"), ("C", "D"), ("F", "G")]
        }

    def test_cross_tier_edges(self, wave_cpdag, wave_tau):
        assert cross_tier_edges(wave_cpdag, wave_tau) == {("A", "C"), ("C", "F")}

    def test_cross_tier_edges_match_pairwise_oracle(self):
        """Non-contiguous, partly negative tier values orient the same
        pairs as the pairwise scan of the undirected edges."""
        rng = np.random.default_rng(73)
        for _ in range(60):
            p = int(rng.integers(2, 12))
            c, tau, _ = random_cpdag_and_tau(rng, p, 2.5)
            spread = TieredOrdering({v: 7 * t * t - 50 for v, t in tau.assignment.items()})
            expected = cross_tier_pairs(c.undirected_edges, spread.assignment)
            assert cross_tier_edges(c, spread) == expected
            h = orient_undirected_part(c, spread)
            assert set(h.directed_edges) == expected
            assert h.skeleton() == c.undirected_subgraph().skeleton()


class TestFullyShielded:
    def test_two_node_component(self):
        g = PDAG("AB", undirected=[("A", "B")])
        assert fully_shielded_edges(g) == [("A", "B")]

    def test_complete_graph_all_shielded(self, triangle):
        assert set(fully_shielded_edges(triangle)) == {
            ("A", "B"),
            ("A", "C"),
            ("B", "C"),
        }

    def test_tree_component_has_none(self, wave_cpdag):
        assert fully_shielded_edges(wave_cpdag.undirected_subgraph()) == []

    def test_canonical_order_with_arcs_from_later_nodes(self):
        """Pairs by lower then higher index, whatever the edge's direction."""
        g = PDAG("ABCD", directed=[("C", "A"), ("D", "B")],
                 undirected=[("A", "B"), ("B", "C"), ("A", "D"), ("C", "D")])
        assert fully_shielded_edges(g) == [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"),
                                           ("B", "D"), ("C", "D")]
        rng = np.random.default_rng(157)
        for _ in range(100):
            c = random_cpdag_and_tau(rng, int(rng.integers(2, 12)), 3.0)[0]
            g = reordered(c, [c.nodes[k] for k in rng.permutation(c.num_nodes)])
            pairs = fully_shielded_edges(g)
            assert pairs == sorted(pairs, key=lambda e: (g.index_of(e[0]), g.index_of(e[1])))
            assert all(g.index_of(u) < g.index_of(v) for u, v in pairs)


class TestCrossTierReport:
    def test_wave_report(self, wave_cpdag, wave_tau):
        rep = cross_tier_report(wave_cpdag, wave_tau)
        assert rep.earliest_paths == (
            ("B", "A", "C", "D"),
            ("B", "A", "C", "F", "G"),
        )
        assert list(rep.first_edges) == [
            frozenset({("A", "C")}),
            frozenset({("A", "C")}),
        ]
        assert rep.fully_shielded_cross_tier == ()
        assert set(rep.graph.directed_edges) == {("A", "C"), ("C", "F")}

    def test_single_tier_no_cross_edges(self, wave_cpdag):
        tau = TieredOrdering.from_tiers([list(wave_cpdag.nodes)])
        rep = cross_tier_report(wave_cpdag, tau)
        assert rep.graph.directed_edges == ()
        assert rep.fully_shielded_cross_tier == ()
        assert all(not f for f in rep.first_edges)

    def test_complete_graph_everything_shielded(self, triangle):
        tau = TieredOrdering.from_tiers([["A"], ["B"], ["C"]])
        rep = cross_tier_report(triangle, tau)
        assert set(rep.fully_shielded_cross_tier) == {
            ("A", "B"),
            ("A", "C"),
            ("B", "C"),
        }
        # no unshielded path has more than two nodes
        assert all(len(path) == 2 for path in rep.earliest_paths)

    def test_consistency_checked_once(self, wave_cpdag, wave_tau, monkeypatch):
        # the undirected part has no directed edge to contradict, so the
        # report checks the ordering against the whole graph only
        calls = []
        check = orientation.require_consistency

        def counted(c, ordering):
            calls.append(c)
            return check(c, ordering)

        monkeypatch.setattr(orientation, "require_consistency", counted)
        cross_tier_report(wave_cpdag, wave_tau)
        assert calls == [wave_cpdag]

    def test_forced_v_structure_refused_like_tiered_mpdag(self):
        """An ordering that no DAG of the class respects gets no report:
        {A C} < {B} on A - B - C forces A -> B <- C."""
        c = PDAG("ABC", undirected=[("A", "B"), ("B", "C")])
        tau = TieredOrdering.from_tiers([["A", "C"], ["B"]])
        message = "ordering creates the v-structure A -> B <- C, which no DAG of the class has"
        for refuse in (cross_tier_report, tiered_mpdag):
            with pytest.raises(InconsistentKnowledgeError) as info:
                refuse(c, tau)
            assert str(info.value) == message

    def test_reported_edges_exist_and_are_directed(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            c, tau, _ = random_cpdag_and_tau(rng, 8, 2.5)
            rep = cross_tier_report(c, tau)
            for edges in rep.first_edges:
                for u, v in edges:
                    assert rep.graph.has_directed(u, v)
            for u, v in rep.fully_shielded_cross_tier:
                assert rep.graph.has_directed(u, v)


class TestTiersEquivalent:
    def test_wave_orderings_equivalent(self, wave_cpdag, wave_tau, two_wave_tau):
        res = tiers_equivalent(wave_cpdag, wave_tau, two_wave_tau)
        assert res.equivalent and res.witness is None

    def test_identical_orderings(self, wave_cpdag, wave_tau):
        assert tiers_equivalent(wave_cpdag, wave_tau, wave_tau).equivalent

    def test_fine_vs_coarse_witness(self, wave_cpdag, fine_late_tau, coarse_late_tau):
        res = tiers_equivalent(wave_cpdag, fine_late_tau, coarse_late_tau)
        assert not res.equivalent
        assert res.witness == ("A", "C")
        assert not res.first_edges_agree
        assert res.shielded_agree

    def test_fully_shielded_disagreement(self, triangle):
        a_first = TieredOrdering.from_tiers([["A"], ["B", "C"]])
        c_last = TieredOrdering.from_tiers([["A", "B"], ["C"]])
        res = tiers_equivalent(triangle, a_first, c_last)
        assert not res.equivalent
        assert not res.shielded_agree

    def test_criterion_matches_mpdag_equality(self):
        rng = np.random.default_rng(29)
        for _ in range(150):
            p = int(rng.integers(3, 10))
            c, t1, _ = random_cpdag_and_tau(rng, p, 2.5)
            t2 = random_coarsening(rng, p)
            res = tiers_equivalent(c, t1, t2)
            same = tiered_mpdag(c, t1) == tiered_mpdag(c, t2)
            assert res.equivalent == same

    def test_max_nodes_reaches_the_path_walk(self):
        """The verdict lists no path, so the guard cannot stop it; the
        report's guard bounds the walk that lists paths, and the witness is
        the least differing first edge at every size, with no option."""
        names = [f"V{k}" for k in range(26)]
        path = PDAG(names, undirected=list(zip(names, names[1:])))
        tau = TieredOrdering.from_tiers([names])
        assert tiers_equivalent(path, tau, tau).equivalent
        with pytest.raises(LimitError, match="limit of 25"):
            cross_tier_report(path, tau)
        assert cross_tier_report(path, tau, max_nodes=30).earliest_paths == (tuple(names),)
        t1 = TieredOrdering.from_tiers([names[:10], names[10:]])
        t2 = TieredOrdering.from_tiers([names[:20], names[20:]])
        res = tiers_equivalent(path, t1, t2)
        assert res.witness == ("V19", "V20") and not res.first_edges_agree
        for compare in (tiers_equivalent, tiers_more_informative):
            with pytest.raises(TypeError):
                compare(path, t1, t2, max_nodes=30)
        assert compare_by_path_tree(path, t1, t2, 30)[0] == res

    def test_regression_shielded_competitors_do_not_preempt(self):
        """Archived instance: V0 is adjacent to everything, so every
        lower-tier path competing with <V3, V1, V2> is shielded.  Under
        an exclusion that also counted shielded competitors this path
        was dropped and the edges V1 - V2, V1 - V3 (cross-tier only in
        the finer ordering) went unchecked, declaring two orderings
        equivalent whose oriented graphs differ."""
        dag = PDAG(
            [f"V{k}" for k in range(5)],
            directed=[
                ("V0", "V1"),
                ("V0", "V2"),
                ("V0", "V3"),
                ("V0", "V4"),
                ("V1", "V2"),
                ("V1", "V3"),
                ("V1", "V4"),
                ("V3", "V4"),
            ],
        )
        c = cpdag_of(dag)
        t1 = TieredOrdering.from_tiers([["V0"], ["V1", "V2", "V3"], ["V4"]])
        t2 = TieredOrdering.from_tiers([["V0"], ["V1"], ["V2"], ["V3"], ["V4"]])
        res = tiers_equivalent(c, t1, t2)
        same = tiered_mpdag(c, t1) == tiered_mpdag(c, t2)
        assert not same
        assert res.equivalent == same
        assert res.witness is not None


class TestTiersMoreInformative:
    def test_fine_beats_coarse_late(self, wave_cpdag, wave_tau, two_wave_tau, fine_late_tau, coarse_late_tau):
        assert (
            tiers_more_informative(wave_cpdag, fine_late_tau, coarse_late_tau).verdict
            is Informativeness.MORE_INFORMATIVE
        )
        for t in (wave_tau, two_wave_tau):
            assert (
                tiers_more_informative(wave_cpdag, t, coarse_late_tau).verdict
                is Informativeness.MORE_INFORMATIVE
            )

    def test_triangle_orderings(self, triangle):
        total = TieredOrdering.from_tiers([["A"], ["B"], ["C"]])
        single = TieredOrdering.from_tiers([["A", "B", "C"]])
        a_first = TieredOrdering.from_tiers([["A"], ["B", "C"]])
        c_last = TieredOrdering.from_tiers([["A", "B"], ["C"]])
        for other in (single, a_first, c_last):
            assert (
                tiers_more_informative(triangle, total, other).verdict
                is Informativeness.MORE_INFORMATIVE
            )
        assert (
            tiers_more_informative(triangle, a_first, c_last).verdict
            is Informativeness.INCOMPARABLE
        )
        assert (
            tiers_more_informative(triangle, single, a_first).verdict
            is Informativeness.LESS_INFORMATIVE
        )

    def test_self_is_equivalent(self, wave_cpdag, wave_tau):
        assert (
            tiers_more_informative(wave_cpdag, wave_tau, wave_tau).verdict
            is Informativeness.EQUIVALENT
        )

    def test_sufficient_conditions_imply_verdict(self):
        rng = np.random.default_rng(59)
        for _ in range(60):
            p = int(rng.integers(3, 9))
            c, t1, _ = random_cpdag_and_tau(rng, p, 2.0)
            t2 = random_coarsening(rng, p)
            res = tiers_more_informative(c, t1, t2)
            if res.sufficient_conditions_fired:
                assert res.verdict is Informativeness.MORE_INFORMATIVE

    def test_more_informative_is_transitive(self):
        rng = np.random.default_rng(61)
        found = 0
        for _ in range(400):
            p = int(rng.integers(3, 8))
            c, t1, _ = random_cpdag_and_tau(rng, p, 2.0)
            t2 = random_coarsening(rng, p)
            t3 = random_coarsening(rng, p)
            v12 = tiers_more_informative(c, t1, t2).verdict
            v23 = tiers_more_informative(c, t2, t3).verdict
            if (
                v12 is Informativeness.MORE_INFORMATIVE
                and v23 is Informativeness.MORE_INFORMATIVE
            ):
                found += 1
                assert (
                    tiers_more_informative(c, t1, t3).verdict
                    is Informativeness.MORE_INFORMATIVE
                )
        assert found > 0

    def test_finer_ordering_contained_mpdag(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            p = int(rng.integers(3, 9))
            c, t1, _ = random_cpdag_and_tau(rng, p, 2.0)
            t2 = random_coarsening(rng, p)
            cmp = compare_refinement(t1, t2)
            if cmp.verdict is Refinement.FIRST_FINER:
                assert contained_in(tiered_mpdag(c, t1), tiered_mpdag(c, t2))


class TestContainedIn:
    def test_matches_skeleton_oracle_on_reordered_copies(self):
        """Pairs of tiered MPDAGs of one CPDAG, each also with its nodes in
        another order, and graphs on other node sets."""
        rng = np.random.default_rng(139)
        verdicts = Counter()
        for _ in range(150):
            p = int(rng.integers(2, 9))
            c, t1, _ = random_cpdag_and_tau(rng, p, 2.0)
            g1 = tiered_mpdag(c, t1)
            g2 = tiered_mpdag(c, random_coarsening(rng, p)) if rng.random() < 0.7 else c
            order = [c.nodes[k] for k in rng.permutation(p)]
            r1, r2 = reordered(g1, order), reordered(g2, order)
            for a, b in itr.permutations((g1, g2, r1, r2, c.skeleton()), 2):
                got = contained_in(a, b)
                assert got == contained_in_by_skeletons(a, b)
                verdicts[got] += 1
            smaller = c.induced_subgraph(c.nodes[1:])
            other = PDAG([*smaller.nodes, "other"], directed=smaller.directed_edges)
            for h in (smaller, other):
                assert not contained_in(c, h) and not contained_in(h, c)
        assert verdicts[True] > 500 and verdicts[False] > 500, verdicts

    def test_index_sets_match_skeleton_oracle_on_shared_nodes(self):
        """Pairs on one node tuple, the case compared by index: tiered MPDAGs
        of one CPDAG, the CPDAG and its skeleton, and random PDAGs, whose
        skeletons mostly differ."""
        rng = np.random.default_rng(149)
        verdicts = Counter()
        for trial in range(200):
            p = int(rng.integers(2, 10))
            c, t1, _ = random_cpdag_and_tau(rng, p, 2.0)
            graphs = [c, c.skeleton(), tiered_mpdag(c, t1), tiered_mpdag(c, random_coarsening(rng, p))]
            if trial % 2:
                graphs.append(PDAG(c.nodes, undirected=[
                    pair for pair in itr.combinations(c.nodes, 2) if rng.random() < 0.5]))
            for a, b in itr.product(graphs, repeat=2):
                assert a.nodes is b.nodes or a.nodes == b.nodes
                got = contained_in(a, b)
                assert got == contained_in_by_skeletons(a, b)
                verdicts[got] += 1
        assert verdicts[True] > 1000 and verdicts[False] > 500, verdicts


class TestNormalizationInvariance:
    def test_all_operations_stable_under_relabelling(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            p = int(rng.integers(3, 8))
            c, tau, _ = random_cpdag_and_tau(rng, p, 2.0)
            stretched = TieredOrdering(
                {v: 10 * t + 3 for v, t in tau.assignment.items()}
            )
            assert tiered_mpdag(c, tau) == tiered_mpdag(c, stretched)
            assert orient_undirected_part(c, tau) == orient_undirected_part(c, stretched)
            r1 = cross_tier_report(c, tau)
            r2 = cross_tier_report(c, stretched)
            assert r1.earliest_paths == r2.earliest_paths
            assert r1.first_edges == r2.first_edges
            assert (
                r1.fully_shielded_cross_tier == r2.fully_shielded_cross_tier
            )
            assert tiers_equivalent(c, tau, stretched).equivalent


def two_disagreeing_components():
    """Two undirected paths x - y - z, the first labelled Z*, the second
    A*.  Under {x} < {y z} and {x y} < {z} each path's first cross-tier
    edge differs (x -> y against y -> z), so both components disagree
    and the witness must come from the first component, whose labels
    sort last."""
    c = PDAG(
        ["Z1", "Z2", "Z3", "A1", "A2", "A3"],
        undirected=[("Z1", "Z2"), ("Z2", "Z3"), ("A1", "A2"), ("A2", "A3")],
    )
    t1 = TieredOrdering.from_tiers([["Z1", "A1"], ["Z2", "Z3", "A2", "A3"]])
    t2 = TieredOrdering.from_tiers([["Z1", "Z2", "A1", "A2"], ["Z3", "A3"]])
    return c, t1, t2


class TestSharedEnumeration:
    """The three criterion functions share one reading of the floors and
    walk paths only where they must; they agree with the per-ordering
    loops in ``oracles``."""

    def test_maximal_paths_match_pairwise_filter(self):
        """The earliest-and-maximal filter by one-node extension keeps
        what the floor and the pairwise (or segment-set) filter keep,
        under orderings with negative and non-contiguous tiers."""
        rng = np.random.default_rng(83)
        checked = 0
        for _ in range(60):
            p = int(rng.integers(4, 11))
            c, _, _ = random_cpdag_and_tau(rng, p, 2.5)
            h = c.undirected_subgraph()
            paths = [
                path
                for component in h.chain_components()
                if len(component) > 1
                for path in component_paths_pairwise(h, component, 25)
            ]
            for _ in range(3):
                levels = rng.choice(np.arange(-6, 7), size=int(rng.integers(1, 5)), replace=False)
                tier = {v: int(rng.choice(levels)) for v in h.nodes}
                earliest = earliest_by_floor(paths, tier)
                expected = maximal_paths_pairwise(earliest)
                assert maximal_paths_by_segments(earliest) == expected
                vector = [tier[v] for v in h.nodes]
                floor = _floors(h._ne, vector)
                got = [q for q in listed_paths(h, 25) if is_earliest(q, vector, floor, h._ne)]
                assert [tuple(h.nodes[i] for i in path) for path in got] == expected
                checked += len(expected) > 1
        assert checked > 100, checked

    def test_first_edges_match_outward_walk(self):
        rng = np.random.default_rng(97)
        for _ in range(500):
            n = int(rng.integers(2, 10))
            path = tuple(f"V{k}" for k in rng.permutation(n))
            tau = TieredOrdering({v: int(rng.integers(-2, 3)) for v in path})
            assert first_cross_tier_edges(path, tau) == first_cross_tier_edges_walk(
                path, tau.assignment
            )

    def test_criterion_matches_per_ordering_loop(self):
        rng = np.random.default_rng(89)
        several = disagree = 0
        for _ in range(150):
            p = int(rng.integers(3, 12))
            c, t1, _ = random_cpdag_and_tau(rng, p, float(rng.choice([1.2, 2.0, 3.0])))
            t2 = random_coarsening(rng, p)
            components = c.undirected_subgraph().chain_components()
            several += sum(len(comp) > 1 for comp in components) > 1
            res = tiers_equivalent(c, t1, t2)
            disagree += not res.equivalent
            assert res == tiers_equivalent_loop(c, t1, t2)
            assert tiers_more_informative(c, t1, t2) == tiers_more_informative_loop(c, t1, t2)
            for ordering in (t1, t2):
                assert cross_tier_report(c, ordering) == cross_tier_report_loop(c, ordering)
        assert several > 20 and disagree > 50

    def test_witness_taken_in_component_order(self):
        c, t1, t2 = two_disagreeing_components()
        res = tiers_equivalent(c, t1, t2)
        assert res == tiers_equivalent_loop(c, t1, t2)
        assert res.witness == ("Z1", "Z2")
        assert not res.first_edges_agree and res.shielded_agree

    @pytest.mark.parametrize(
        "compare", ["tiers_equivalent", "tiers_more_informative", "cross_tier_report", "cli"]
    )
    def test_each_component_enumerated_once(
        self, compare, monkeypatch, tmp_path, wave_cpdag, wave_tau, two_wave_tau, triangle
    ):
        """A comparison walks no path, even to name a witness from the first
        edges, reaching neither the report nor the per-pair search; the report
        searches its ordering's floors once and walks every component."""
        reached, ends = [], []
        report, floors, maximal = tiers.cross_tier_report, tiers._floors, tiers._maximal

        def per_pair(*args, **kwargs):
            raise AssertionError("per-pair path search on the comparison path")

        def walked(c, t1, t2):
            reached.clear()
            ends.clear()
            if compare == "cross_tier_report":
                tiers.cross_tier_report(c, t1)
            elif compare == "cli":
                files = [tmp_path / name for name in ("g.txt", "t1.txt", "t2.txt")]
                for path, text in zip(files, (format_graph(c), format_tiers(t1), format_tiers(t2))):
                    path.write_text(text)
                assert main(["compare-tiers", *map(str, files)], out=io.StringIO()) == 0
            else:
                getattr(tiers, compare)(c, t1, t2)
            return reached[:]

        monkeypatch.setattr(tiers, "cross_tier_report",
                            lambda *args: reached.append("report") or report(*args))
        monkeypatch.setattr(tiers, "_floors",
                            lambda *args: reached.append("floors") or floors(*args))
        monkeypatch.setattr(tiers, "_maximal", lambda ne, floor, a, b: (
            ends.append(b) or maximal(ne, floor, a, b)))
        monkeypatch.setattr(PDAG, "find_unshielded_paths", per_pair)
        c, t1, t2 = two_disagreeing_components()
        a_first = TieredOrdering.from_tiers([["A"], ["B", "C"]])
        c_last = TieredOrdering.from_tiers([["A", "B"], ["C"]])
        if compare == "cross_tier_report":
            # one floor search, and a walk from each node of each three-node component
            assert walked(c, t1, t2) == ["report", "floors"]
            assert {c.nodes[b] for b in ends} == set(c.nodes)
            assert walked(triangle, a_first, c_last) == ["report", "floors"]
            assert {triangle.nodes[b] for b in ends} == {"A", "B", "C"}
            return
        # first edges that differ in both components, the same first edges,
        # or shielded edges that differ: one floor search per ordering
        assert walked(c, t1, t2) == ["floors", "floors"]
        assert tiers_equivalent(wave_cpdag, wave_tau, two_wave_tau)
        assert walked(wave_cpdag, wave_tau, two_wave_tau) == ["floors", "floors"]
        assert walked(triangle, a_first, c_last) == ["floors", "floors"]
        assert ends == []

    def test_compare_builds_two_graphs(self, monkeypatch):
        """One comparison orients a graph twice, once for each tiered
        MPDAG; each ordering's cross-tier edges come from its tier
        vector, with no oriented copy of the undirected part."""
        c, t1, t2 = two_disagreeing_components()
        built = []
        oriented = PDAG._oriented
        monkeypatch.setattr(
            PDAG, "_oriented", lambda g, *a, **k: built.append(g) or oriented(g, *a, **k)
        )
        _compare(c, t1, t2)
        assert len(built) == 2 and all(g is c for g in built), len(built)


def band_graph(rng, sizes, width):
    """Chordal bands (node i adjacent to i+1 .. i+width) of the given
    sizes, their nodes interleaved in a random order."""
    bands = [[f"{chr(65 + k)}{i}" for i in range(n)] for k, n in enumerate(sizes)]
    edges = [
        (nodes[i], nodes[j])
        for nodes in bands
        for i in range(len(nodes))
        for j in range(i + 1, min(len(nodes), i + width + 1))
    ]
    order = [v for nodes in bands for v in nodes]
    return PDAG([order[k] for k in rng.permutation(len(order))], undirected=edges)


def listed_paths(h, max_nodes):
    """:func:`oracles.component_paths` over every chain component of ``h``."""
    components = [comp for comp in h.chain_components() if len(comp) > 1]
    return component_paths(h, components, max_nodes)


class TestPathEnumeration:
    """One walk over all components, read from each path's lower end, lists
    each component's unshielded paths exactly as one walk per node pair
    does, and the report keeps that order."""

    def test_matches_per_pair_walks(self):
        rng = np.random.default_rng(107)
        graphs = []
        for _ in range(80):
            c, _, _ = random_cpdag_and_tau(rng, int(rng.integers(3, 15)), 2.5)
            graphs.append(c.undirected_subgraph())
        for _ in range(12):
            size = int(rng.integers(6, 19))
            sizes = [size] if rng.random() < 0.5 else [size - size // 2, size // 2]
            graphs.append(band_graph(rng, sizes, int(rng.integers(2, 4))))
        interleaved = 0
        for h in graphs:
            components = [comp for comp in h.chain_components() if len(comp) > 1]
            spans = sorted((h.index_of(comp[0]), h.index_of(comp[-1])) for comp in components)
            interleaved += any(b[0] < a[1] for a, b in zip(spans, spans[1:]))
            expected = []
            for component in components:
                expected += component_paths_pairwise(h, component, 25)
            # one walk over all components lists them component by component
            got = listed_paths(h, 25)
            assert [tuple(h.nodes[i] for i in path) for path in got] == expected
            # under one tier the report keeps every maximal path, in that order
            tau = TieredOrdering(dict.fromkeys(h.nodes, 1))
            assert cross_tier_report(h, tau) == cross_tier_report_loop(h, tau)
        assert interleaved > 10, interleaved

    def test_guard_text_at_the_boundary(self):
        names = [f"V{k}" for k in range(26)]
        h = PDAG(names, undirected=list(zip(names, names[1:])))
        (component,) = h.chain_components()
        assert len(listed_paths(h, 26)) == 26 * 25 // 2
        message = "component of 26 nodes exceeds the path enumeration limit of 25"
        for enumerate_paths in (
            lambda: cross_tier_report(h, TieredOrdering(dict.fromkeys(names, 1))),
            lambda: component_paths(h, [component], 25),
            lambda: component_paths_pairwise(h, component, 25),
        ):
            with pytest.raises(LimitError) as info:
                enumerate_paths()
            assert str(info.value) == message
        tau = TieredOrdering(dict.fromkeys(names, 1))
        assert cross_tier_report(h, tau, max_nodes=26).earliest_paths == (tuple(names),)
        assert tiers_equivalent(h, tau, tau)


def random_undirected_graph(rng, p):
    """An undirected graph of ``p`` nodes, each pair joined with chance 0.4,
    its nodes in a random order; often not chordal."""
    names = [f"V{i}" for i in range(p)]
    pairs = [pair for pair in itr.combinations(names, 2) if rng.random() < 0.4]
    return PDAG([names[i] for i in rng.permutation(p)], undirected=pairs)


class TestEarliestFromTree:
    """Each ordering's earliest maximal paths, read off the prefix tree
    entry by entry with the searched floors, against the per-path filter
    over the path list with floors read off the paths."""

    def test_matches_per_path_filter(self):
        rng = np.random.default_rng(151)
        graphs, drawn = [], 0
        for k in range(360):
            p = int(rng.integers(3, 11))
            if k % 3 == 0:
                graphs.append(random_cpdag_and_tau(rng, p, 2.5)[0].undirected_subgraph())
                continue
            h = random_undirected_graph(rng, p)
            if h.is_chordal():  # searched floors are exact on chordal graphs only
                graphs.append(h)
                drawn += 1
        graphs += [band_graph(rng, [n, n // 2], 3) for n in range(8, 14)]
        checked = 0
        for h in graphs:
            components = [comp for comp in h.chain_components() if len(comp) > 1]
            paths = component_paths(h, components, 25)
            for _ in range(4):
                # tiers from a few negative, non-contiguous values, so ties are common
                size = int(rng.integers(1, 5))
                levels = rng.choice(np.arange(-9, 10, 3), size=size, replace=False)
                tier = [int(rng.choice(levels)) for _ in h.nodes]
                expected = earliest_by_extension(paths, tier, h._ne)
                floor = _floors(h._ne, tier)
                assert [q for q in paths if is_earliest(q, tier, floor, h._ne)] == expected
                checked += len(expected) > 1
        assert drawn > 50 and checked > 500, (drawn, checked)

    def test_non_chordal_part_is_refused(self, tmp_path, capsys):
        """Searched floors are exact only on chordal graphs, which every
        CPDAG's undirected part is: the report refuses any other graph
        with one line, and so does the comparison, with the same line."""
        rng = np.random.default_rng(157)
        refused = compared = 0
        while refused < 40:
            h = random_undirected_graph(rng, int(rng.integers(4, 10)))
            k = h._non_simplicial()
            if k is None:
                continue
            tau = random_coarsening(rng, h.num_nodes)
            with pytest.raises(GraphError) as info:
                cross_tier_report(h, tau)
            message = f"not a CPDAG: the undirected part is not chordal at {h.nodes[k]}"
            assert str(info.value) == message
            t2 = random_coarsening(rng, h.num_nodes)
            if is_compatible(tau, t2):
                with pytest.raises(GraphError) as info:
                    _compare(h, tau, t2)
                assert str(info.value) == message
                files = [tmp_path / name for name in ("g.txt", "t1.txt", "t2.txt")]
                for path, text in zip(files, (format_graph(h), format_tiers(tau), format_tiers(t2))):
                    path.write_text(text)
                out = io.StringIO()
                assert main(["compare-tiers", *map(str, files)], out=out) == 1
                err = capsys.readouterr().err
                assert out.getvalue() == "" and err == f"error: {message}\n"
                compared += 1
            refused += 1
        assert compared > 10, compared

    def test_comparison_refuses_before_orienting(self, tmp_path, capsys):
        """A graph with arcs whose undirected part has the chordless cycle
        N0 - N4 - N1 - N5 - N0: both orderings are consistent, and their
        tiered MPDAGs are equal although the first edges read off the
        inexact floors differ, which the comparison once reported as a
        failure of the paper's theorem (InvariantError, witness N1 -> N4).
        It refuses the input first, as the library call and on the CLI, and
        so does each tiered pass: the ends of N0 - N4 have different parents,
        which no CPDAG allows."""
        text = ("nodes: N0 N1 N2 N3 N4 N5\n"
                "N0 -> N1\nN0 -> N2\nN0 -> N3\nN3 -> N2\nN5 -> N2\nN5 -> N4\n"
                "N0 -- N4\nN0 -- N5\nN1 -- N3\nN1 -- N4\nN1 -- N5\nN2 -- N4\nN3 -- N4\n")
        c = parse_graph(text)
        t1 = TieredOrdering.from_tiers([["N0", "N1"], ["N2", "N3", "N4", "N5"]])
        t2 = TieredOrdering.from_tiers([["N0"], ["N1"], ["N2", "N3", "N4", "N5"]])
        message = "not a CPDAG or tiered MPDAG: the ends of N0 - N4 have different parents"
        for call in (tiers_equivalent, tiers_more_informative, lambda c, t, _: tiered_mpdag(c, t),
                     lambda c, _, t: tiered_mpdag(c, t)):
            with pytest.raises(GraphError) as info:
                call(c, t1, t2)
            assert type(info.value) is GraphError and str(info.value) == message
        files = [tmp_path / name for name in ("g.txt", "t1.txt", "t2.txt")]
        for path, content in zip(files, (text, format_tiers(t1), format_tiers(t2))):
            path.write_text(content)
        out = io.StringIO()
        assert main(["compare-tiers", *map(str, files)], out=out) == 1
        assert (out.getvalue(), capsys.readouterr().err) == ("", f"error: {message}\n")

    def test_comparison_admits_through_the_shared_parents_gate(self, tmp_path, capsys):
        """The comparison, the report and the tiered pass (``tiered_mpdag``,
        CLI ``orient``) refuse, as class_size does, a graph with an undirected
        edge whose ends have different parents.  On V2 -> V1, V0 - V1, V0 - V2
        they raised InvariantError (a partially directed cycle) under one
        tier; under {V2} < {V1} < {V0} the comparison called two orderings
        equivalent and the pass printed a DAG.  On random PDAGs with an
        acyclic directed part, under two orderings cut from one order, none
        raises InvariantError, and each refuses with that line iff the gate
        fails."""
        text = "nodes: V0 V1 V2\nV2 -> V1\nV0 -- V1\nV0 -- V2\n"
        message = "not a CPDAG or tiered MPDAG: the ends of V0 - V1 have different parents"
        c = parse_graph(text)
        calls = (tiers_equivalent, tiers_more_informative, lambda c, t, _: cross_tier_report(c, t),
                 lambda c, t, _: tiered_mpdag(c, t))
        for groups in ([["V0", "V1", "V2"]], [["V2"], ["V1"], ["V0"]]):
            t = TieredOrdering.from_tiers(groups)
            for call in calls:
                with pytest.raises(GraphError) as info:
                    call(c, t, t)
                assert type(info.value) is GraphError and str(info.value) == message
            files = [tmp_path / name for name in ("g.txt", "t1.txt", "t2.txt")]
            for path, content in zip(files, (text, format_tiers(t), format_tiers(t))):
                path.write_text(content)
            for argv in (["compare-tiers", *map(str, files)],
                         ["orient", str(files[0]), "--tiers", str(files[1])]):
                out = io.StringIO()
                assert main(argv, out=out) == 1
                assert (out.getvalue(), capsys.readouterr().err) == ("", f"error: {message}\n")
        rng = np.random.default_rng(229)
        counts = Counter()
        for _ in range(1500):
            p = int(rng.integers(3, 8))
            order = [f"V{k}" for k in rng.permutation(p)]
            kinds = rng.choice(3, size=p * (p - 1) // 2, p=[0.3, 0.3, 0.4])
            pairs = list(itr.combinations(order, 2))
            g = PDAG(sorted(order), directed=[e for e, k in zip(pairs, kinds) if k == 0],
                     undirected=[e for e, k in zip(pairs, kinds) if k == 1])
            t1 = TieredOrdering(dict(zip(rng.permutation(order).tolist(),
                                         np.cumsum(rng.integers(0, 2, p)).tolist())))
            t2 = coarsened(rng, t1)
            gate = orientation._shares_parents(g._pa, g._ne, g._with_neighbours())
            for call in calls:
                try:
                    call(g, t1, t2)
                    refused = ""
                except GraphError as exc:
                    assert not isinstance(exc, InvariantError), (g, t1, t2, exc)
                    refused = str(exc)
                assert refused.startswith("not a CPDAG or tiered MPDAG: the ends of") != gate, (g, t1, t2)
                counts["answered" if not refused else "gate" if not gate else "refused"] += 1
        assert min(counts.values()) > 300, counts


def random_topological_tiers(rng, dag):
    """A tiered ordering consistent with ``dag``, cut from a random
    topological order, so it is often incompatible with the label order."""
    pa = {v: set(dag.parents_of(v)) for v in dag.nodes}
    order = []
    while pa:
        ready = sorted(v for v, parents in pa.items() if not parents)
        v = ready[int(rng.integers(len(ready)))]
        order.append(v)
        del pa[v]
        for parents in pa.values():
            parents.discard(v)
    tier, assignment = 1, {}
    for v in order:
        tier += bool(rng.random() < 0.4)
        assignment[v] = tier
    return TieredOrdering(assignment)


class TestTheoremCheck:
    """The pass checks the paper's theorem: the criterion holds iff the
    two tiered MPDAGs are equal."""

    def test_criterion_blind_to_first_edges_raises(
        self, monkeypatch, wave_cpdag, fine_late_tau, coarse_late_tau
    ):
        monkeypatch.setattr(tiers, "_first_edges", lambda floor, tier: set())
        message = (
            "equivalence criterion: the orderings are equivalent but their tiered "
            "MPDAGs are different, witness A -> C"
        )
        for compare in (tiers_equivalent, tiers_more_informative):
            with pytest.raises(InvariantError, match=re.escape(message)):
                compare(wave_cpdag, fine_late_tau, coarse_late_tau)

    def test_spurious_disagreement_raises(self, monkeypatch, wave_cpdag, wave_tau):
        same = TieredOrdering({v: 2 * t for v, t in wave_tau.assignment.items()})
        first, tier = tiers._first_edges, same._tiers(wave_cpdag.nodes)
        monkeypatch.setattr(
            tiers,
            "_first_edges",
            lambda floor, vector: first(floor, vector) if vector is tier else set(),
        )
        with pytest.raises(InvariantError) as info:
            tiers_equivalent(wave_cpdag, wave_tau, same)
        assert re.fullmatch(
            "equivalence criterion: the orderings are different but their tiered "
            "MPDAGs are equal, witness [A-G] -> [A-G]",
            str(info.value),
        )

    def test_consistent_incompatible_pairs(self):
        """Two orderings each consistent with the true DAG but ordering
        some pair oppositely: the pass agrees with the per-ordering loop
        and with MPDAG equality, and raises nothing."""
        rng = np.random.default_rng(101)
        outcomes = Counter()
        for _ in range(200):
            p = int(rng.integers(3, 10))
            c, t1, dag = random_cpdag_and_tau(rng, p, float(rng.choice([1.5, 2.5])))
            t2 = random_topological_tiers(rng, dag)
            try:
                check_compatible(t1, t2)
                outcomes["compatible"] += 1
            except IncompatibleOrderingsError:
                outcomes["incompatible"] += 1
            equiv, info = _compare(c, t1, t2)
            assert info == tiers_more_informative(c, t1, t2)
            assert info == tiers_more_informative_loop(c, t1, t2)
            assert equiv.equivalent == (tiered_mpdag(c, t1) == tiered_mpdag(c, t2))
            outcomes[equiv.equivalent] += 1
        assert min(outcomes.values()) > 20, outcomes


def is_compatible(t1, t2):
    try:
        check_compatible(t1, t2)
    except IncompatibleOrderingsError:
        return False
    return True


class TestDefinitionAudit:
    """The comparison against its definition on every 4-node class: an
    ordering admits R, the members with no arc from a later tier into an
    earlier one, and two orderings compare as their sets R do."""

    def test_comparison_matches_admitted_members(self):
        """Every ordering on every class; for each class with an undirected
        edge, a seeded sample of its compatible pairs of consistent
        orderings, each compared once."""
        orderings = [
            TieredOrdering(dict(enumerate(levels)))
            for levels in itr.product(range(4), repeat=4)
            if set(levels) == set(range(max(levels) + 1))
        ]
        assert len(orderings) == 75
        compatible = [[is_compatible(t1, t2) for t2 in orderings] for t1 in orderings]
        classes: dict = {}
        for arcs in all_dags(4):
            classes.setdefault(cpdag_of(PDAG(range(4), directed=list(arcs))), []).append(arcs)
        rng = np.random.default_rng(131)
        disagreements, compared = [], 0
        for c, members in classes.items():
            admitted = {}
            for k, t in enumerate(orderings):
                r = frozenset(m for m in members if all(t.tier_of(u) <= t.tier_of(v) for u, v in m))
                try:
                    tiered_mpdag(c, t)
                    consistent = True
                except InconsistentKnowledgeError:
                    consistent = False
                if consistent != bool(r):
                    disagreements.append(("consistency", c, t))
                if r:
                    admitted[k] = r
            if not c.undirected_edges:
                continue
            pairs = [(i, j) for i in admitted for j in admitted if compatible[i][j]]
            for k in rng.choice(len(pairs), size=min(60, len(pairs)), replace=False):
                i, j = pairs[k]
                t1, t2, r1, r2 = orderings[i], orderings[j], admitted[i], admitted[j]
                equiv, info = _compare(c, t1, t2)
                verdict = (
                    Informativeness.EQUIVALENT if r1 == r2
                    else Informativeness.MORE_INFORMATIVE if r1 < r2
                    else Informativeness.LESS_INFORMATIVE if r2 < r1
                    else Informativeness.INCOMPARABLE
                )
                finer = compare_refinement(t1, t2).verdict in (Refinement.FIRST_FINER, Refinement.EQUAL)
                for name, holds in [
                    ("equivalence", equiv.equivalent == (r1 == r2)),
                    ("informativeness", info.verdict == verdict),
                    ("sufficient conditions", not info.sufficient_conditions_fired or r1 < r2),
                    ("refinement", not finer or r1 <= r2),
                ]:
                    if not holds:
                        disagreements.append((name, c, t1, t2))
                compared += 1
        assert not disagreements, disagreements[:5]
        assert sum(1 for c in classes if c.undirected_edges) == 126
        assert compared > 5000, compared

    def test_comparison_matches_admitted_members_on_five_nodes(self):
        """A seeded sample of 5-node classes with an unshielded path of four
        or more nodes in their undirected part, each class listed from its
        skeleton and v-structures alone; for each, a seeded sample of the
        compatible pairs of consistent orderings among all 541."""
        orderings = [
            TieredOrdering(dict(enumerate(levels)))
            for levels in itr.product(range(5), repeat=5)
            if set(levels) == set(range(max(levels) + 1))
        ]
        assert len(orderings) == 541
        rng = np.random.default_rng(137)
        classes, disagreements, outcomes = set(), [], Counter()
        while len(classes) < 20:
            order = rng.permutation(5)
            arcs = frozenset(
                (int(order[i]), int(order[j]))
                for i, j in itr.combinations(range(5), 2)
                if rng.random() < 0.6
            )
            c = cpdag_of(PDAG(range(5), directed=list(arcs)))
            longest = max(map(len, listed_paths(c.undirected_subgraph(), 25)), default=0)
            if c in classes or longest < 4:
                continue
            classes.add(c)
            skeleton = [tuple(sorted(arc)) for arc in arcs]
            members = consistent_extensions(skeleton, (), vstructs_of_arcset(arcs), 5)
            admitted = []
            for t in orderings:
                tier = t._assignment
                r = frozenset(m for m in members if all(tier[u] <= tier[v] for u, v in m))
                if r:
                    admitted.append((t, r))
            pairs = 0
            for _ in range(600):
                (t1, r1), (t2, r2) = (admitted[k] for k in rng.integers(len(admitted), size=2))
                if not is_compatible(t1, t2):
                    continue
                equiv, info = _compare(c, t1, t2)
                verdict = (
                    Informativeness.EQUIVALENT if r1 == r2
                    else Informativeness.MORE_INFORMATIVE if r1 < r2
                    else Informativeness.LESS_INFORMATIVE if r2 < r1
                    else Informativeness.INCOMPARABLE
                )
                if equiv.equivalent != (r1 == r2):
                    disagreements.append(("equivalence", c, t1, t2))
                if info.verdict != verdict:
                    disagreements.append(("informativeness", c, t1, t2))
                outcomes[verdict] += 1
                pairs += 1
                if pairs == 120:
                    break
        assert not disagreements, disagreements[:5]
        assert min(outcomes.values()) > 50 and sum(outcomes.values()) > 1500, outcomes

    def test_class_and_parent_sets_match_admitted_members(self):
        """Every ordering on every 4-node class: the tiered MPDAG's directed
        edges are the arcs common to R, ``class_size`` is |R|, as root
        picking counts it, ``enumerate_class`` and branch and close
        (``leaves``) list R, local IDA gives each node's parent sets over R,
        and joint IDA on each node pair gives R's parent-set pairs with
        multiplicities proportional to their counts in R, and root picking's
        counts."""
        orderings = [
            TieredOrdering(dict(enumerate(levels)))
            for levels in itr.product(range(4), repeat=4)
            if set(levels) == set(range(max(levels) + 1))
        ]
        classes: dict = {}
        for arcs in all_dags(4):
            classes.setdefault(cpdag_of(PDAG(range(4), directed=list(arcs))), []).append(arcs)
        disagreements, checked = [], 0
        for c, members in classes.items():
            for t in orderings:
                r = [m for m in members if all(t.tier_of(u) <= t.tier_of(v) for u, v in m)]
                if not r:
                    continue
                g = tiered_mpdag(c, t)
                parents = [[frozenset(u for u, v in m if v == x) for x in range(4)] for m in r]
                checks = [
                    ("directed edges", set(g.directed_edges) == frozenset.intersection(*r)),
                    ("class_size", class_size(g) == len(r) == class_size_by_root_picking(g)),
                    ("enumerate_class",
                     Counter(frozenset(m.directed_edges) for m in enumerate_class(g)) == Counter(r)),
                    ("leaves",
                     Counter(frozenset(m.directed_edges) for m in leaves(g)) == Counter(r)),
                ]
                for x in range(4):
                    expected = {pa[x] for pa in parents}
                    checks.append((f"local_ida {x}", local_ida(g, x).distinct() == expected))
                for x, y in itr.combinations(range(4), 2):
                    expected = Counter((pa[x], pa[y]) for pa in parents)
                    got = joint_ida(g, [x, y])
                    checks.append((f"joint_ida {x} {y}", got.distinct() == set(expected) and all(
                        got.multiplicity(e) * len(r) == n * got.total() for e, n in expected.items()
                    ) and got.counts == joint_ida_by_root_picking(g, [x, y]).counts))
                disagreements += [(name, c, t) for name, holds in checks if not holds]
                checked += 1
        assert not disagreements, disagreements[:5]
        assert checked == 5953, checked


# === the per-edge criterion against the path tree


def weak_orders(n, max_tiers=None):
    """Every ordering of nodes 0..n-1 into contiguous tiers from 0, at most
    ``max_tiers`` of them."""
    return [
        TieredOrdering(dict(enumerate(levels)))
        for levels in itr.product(range(n if max_tiers is None else min(n, max_tiers)), repeat=n)
        if set(levels) == set(range(max(levels) + 1))
    ]


def chordal_graphs(n):
    """Every undirected chordal graph on nodes 0..n-1 with an edge, one per
    isomorphism class, the smallest edge set under node relabelling."""
    pairs = list(itr.combinations(range(n), 2))
    perms = list(itr.permutations(range(n)))
    seen = set()
    for mask in range(1, 1 << len(pairs)):
        edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        key = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)) for p in perms)
        if key not in seen:
            seen.add(key)
            h = PDAG(range(n), undirected=list(key))
            if h.is_chordal():
                yield h


def audit_per_edge_sets(h, orderings, pairs):
    """On the undirected chordal graph ``h``, the per-edge reading against
    the per-path one for the given pairs of indices into the consistent
    ``orderings``: each ordering's per-edge first edges are the union of its
    earliest paths' first edges, first edges agree on every earliest path of
    either ordering iff the per-edge sets agree, the criterion holds iff the
    MPDAGs are equal, and the witness is the first differing shielded edge,
    else the least edge of the unions' difference in the least component
    holding one."""
    tree = path_tree_with_edge_ids(h, 25)
    component, names = tree[0], h.nodes
    shielded = fully_shielded_edges(h)
    read = []
    for t in orderings:
        v = t._tiers(h.nodes)
        u, e = _first_edges(_floors(h._ne, v), v), earliest_by_tree_floors(tree, v, h._ne)
        assert u == {edge for path in e for edge in first_cross_tier_edges(path, v)}, (h, t)
        s = [(a, b) if t[a] < t[b] else (b, a) if t[b] < t[a] else None for a, b in shielded]
        read.append((v, u, e, s, tiered_mpdag(h, t)))
    outcomes = Counter()
    for i, j in pairs:
        (v1, u1, e1, s1, g1), (v2, u2, e2, s2, g2) = read[i], read[j]
        differ = [p for p in {*e1, *e2} if first_cross_tier_edges(p, v1) != first_cross_tier_edges(p, v2)]
        assert (not differ) == (u1 == u2), (h, orderings[i], orderings[j])
        assert (not differ and s1 == s2) == (g1 == g2), (h, orderings[i], orderings[j])
        shielded_diff = [a or b for a, b in zip(s1, s2) if a != b]
        expected = (shielded_diff[0] if shielded_diff else
                    least_edge_of_least_component(names, component, u1 ^ u2) if differ else None)
        assert tiers_equivalent(h, orderings[i], orderings[j]).witness == expected
        outcomes["differ" if differ else "agree"] += 1
    return outcomes


def consistent_compatible_pairs(h, orderings):
    """The orderings consistent on ``h`` and the index pairs of the
    compatible ones among them, each ordered pair once."""
    consistent = []
    for t in orderings:
        try:
            tiered_mpdag(h, t)
        except InconsistentKnowledgeError:
            continue
        consistent.append(t)
    pairs = [
        (i, j)
        for i, j in itr.product(range(len(consistent)), repeat=2)
        if is_compatible(consistent[i], consistent[j])
    ]
    return consistent, pairs


def two_component_cpdag(rng):
    """Two random CPDAGs on the label sets A* and B*, nodes interleaved,
    and two consistent orderings: blocks of topological orders."""
    sizes = [int(rng.integers(2, 8)) for _ in range(2)]
    dags = [random_dag(n, min(2.5, n - 1.0), "er", rng) for n in sizes]
    names = [f"{prefix}{v}" for prefix, d in zip("AB", dags) for v in d.nodes]
    arcs = [(f"{prefix}{u}", f"{prefix}{v}") for prefix, d in zip("AB", dags)
            for u, v in d.directed_edges]
    order = [names[k] for k in rng.permutation(len(names))]
    dag = PDAG(order, directed=arcs)
    return cpdag_of(dag), random_topological_tiers(rng, dag), random_topological_tiers(rng, dag)


def stretched(rng, t):
    """``t`` under a random increasing map to negative, non-contiguous tiers."""
    a, b = int(rng.integers(1, 6)), int(rng.integers(-40, 10))
    return TieredOrdering({v: a * k * k + b for v, k in t.normalized().assignment.items()})


class TestPerEdgeCriterion:
    """The criterion, its flags, conditions i-iv and the witness read from
    searched edge floors, against the comparison over the whole path tree."""

    def test_floors_match_path_floors(self):
        rng = np.random.default_rng(163)
        graphs = [random_cpdag_and_tau(rng, int(rng.integers(3, 12)), 2.5)[0].undirected_subgraph()
                  for _ in range(60)]
        graphs += [g for g in (random_undirected_graph(rng, int(rng.integers(3, 9)))
                               for _ in range(120)) if g.is_chordal()]
        graphs += [band_graph(rng, [n, n // 2], int(rng.integers(2, 4))) for n in range(6, 14)]
        edges = 0
        for h in graphs:
            components = [comp for comp in h.chain_components() if len(comp) > 1]
            paths = component_paths(h, components, 25)
            for _ in range(3):
                levels = rng.choice(np.arange(-9, 10, 3), size=int(rng.integers(1, 5)), replace=False)
                tier = [int(rng.choice(levels)) for _ in h.nodes]
                expected = [{} for _ in h.nodes]
                for path in paths:
                    m = min(tier[v] for v in path)
                    for a, b in zip(path, path[1:]):
                        for x, y in ((a, b), (b, a)):
                            expected[x][y] = min(expected[x].get(y, m), m)
                assert _floors(h._ne, tier) == expected
                edges += sum(map(len, expected)) // 2
        assert len(graphs) > 100 and edges > 2000, (len(graphs), edges)

    def test_floors_match_the_search_from_every_node(self):
        """Random chordal graphs, isolated nodes among them, and interleaved
        bands under tiers that are negative, non-contiguous or all one."""
        rng = np.random.default_rng(167)
        graphs = [random_chordal(rng, int(rng.integers(1, 16))) for _ in range(150)]
        graphs += [band_graph(rng, [n, int(rng.integers(1, 6))], int(rng.integers(1, 4)))
                   for n in range(2, 20)]
        isolated = 0
        for h in graphs:
            isolated += sum(not nb for nb in h._ne)
            for _ in range(4):
                levels = rng.choice(np.arange(-12, 13, 4), size=int(rng.integers(1, 6)), replace=False)
                tier = [int(rng.choice(levels)) for _ in h.nodes]
                assert _floors(h._ne, tier) == floors_from_every_node(h._ne, tier)
        assert isolated > 50, isolated

    def test_compare_matches_path_tree_oracle(self):
        """Random CPDAGs of the three generators, two-component CPDAGs and
        bands, with consistent orderings (ties, negative and non-contiguous
        tiers, often incompatible pairs) and some inconsistent ones: the
        same results and the same errors."""
        rng = np.random.default_rng(167)

        def outcome(compare, c, t1, t2):
            try:
                return compare(c, t1, t2)
            except GraphError as exc:
                return type(exc), str(exc)

        cases = []
        for generator in ("er", "power", "geometric"):
            for _ in range(100):
                p = int(rng.integers(3, 13))
                dag = random_dag(p, min(p - 1.0, float(rng.choice([1.5, 2.0, 3.0]))), generator, rng)
                cases.append((cpdag_of(dag), random_topological_tiers(rng, dag),
                              random_topological_tiers(rng, dag)))
        cases += [two_component_cpdag(rng) for _ in range(100)]
        for _ in range(60):
            size = int(rng.integers(5, 15))
            sizes = [size] if rng.random() < 0.5 else [size - size // 2, size // 2]
            h = band_graph(rng, sizes, int(rng.integers(2, 4)))
            position = {v: int(v[1:]) for v in h.nodes}
            draw = [
                TieredOrdering({v: (k // int(rng.integers(1, 5))) for v, k in position.items()})
                for _ in range(2)
            ]
            cases.append((h, *draw))
        for _ in range(40):
            c, t1, _ = random_cpdag_and_tau(rng, int(rng.integers(3, 9)), 2.0)
            cases.append((c, t1, TieredOrdering({v: int(rng.integers(-3, 3)) for v in c.nodes})))
        outcomes = Counter()
        for c, t1, t2 in cases:
            t1, t2 = stretched(rng, t1), stretched(rng, t2)
            got = outcome(_compare, c, t1, t2)
            assert got == outcome(compare_by_path_tree, c, t1, t2), (c, t1, t2)
            if isinstance(got[0], type):
                outcomes["error"] += 1
            elif got[0].witness and got[0].shielded_agree:
                outcomes["path witness"] += 1
            else:
                outcomes["no path witness"] += 1
        assert min(outcomes.values()) > 30, outcomes

    def test_per_edge_sets_on_every_small_graph(self):
        """Every chordal graph of 2-4 nodes, every compatible pair of its
        consistent orderings."""
        counts = Counter()
        for n in (2, 3, 4):
            orderings = weak_orders(n)
            for h in chordal_graphs(n):
                consistent, pairs = consistent_compatible_pairs(h, orderings)
                counts += audit_per_edge_sets(h, consistent, pairs)
                counts["graphs"] += 1
        assert counts == Counter(graphs=13, agree=2149, differ=4944), counts

    def test_per_edge_sets_on_a_five_and_six_node_slice(self):
        """A seeded sample of chordal graphs of 5 and 6 nodes, each with a
        seeded sample of the compatible pairs of its consistent orderings
        of at most three tiers."""
        rng = np.random.default_rng(173)
        orderings = {n: weak_orders(n, 3) for n in (5, 6)}
        counts = Counter()
        while counts["graphs"] < 8:
            n = 5 + counts["graphs"] % 2
            h = random_undirected_graph(rng, n)
            h = PDAG(range(n), undirected=[(h.index_of(a), h.index_of(b)) for a, b in h.undirected_edges])
            if not h.is_chordal() or not h.undirected_edges:
                continue
            consistent, pairs = consistent_compatible_pairs(h, orderings[n])
            sample = [pairs[k] for k in rng.choice(len(pairs), size=min(250, len(pairs)), replace=False)]
            counts += audit_per_edge_sets(h, consistent, sample)
            counts["graphs"] += 1
        assert counts["agree"] > 300 and counts["differ"] > 300, counts


def relabelled(rng, h, style):
    """``h`` with new labels, in the same node order, whose text order
    differs from their index order: ``V0``..``V<n>`` shuffled (so ``V10``
    sorts before ``V9``), labels that are prefixes of each other (``A1``,
    ``A10``, ``A100``), or ints of one to three digits."""
    n = h.num_nodes
    if style == "numbered":
        labels = [f"V{k}" for k in rng.permutation(n)]
    elif style == "prefix":
        pool = [f"A{d}{z}" for d in range(1, 10) for z in ("", "0", "00")]
        labels = [pool[k] for k in rng.choice(len(pool), size=n, replace=False)]
    else:
        labels = [int(k) for k in rng.choice(150, size=n, replace=False)]
    names = dict(zip(h.nodes, labels))
    return PDAG(labels, undirected=[(names[u], names[v]) for u, v in h.undirected_edges])


def shuffled_bands(rng, sizes, width):
    """Bands of the given sizes (node i adjacent to i+1 .. i+width in each)
    labelled by one shuffle of ``V0``..``V<p-1>`` along them, their nodes in
    another random order: so the components interleave, and label text,
    index and band position all differ.  Returns the graph and each band's
    labels in band order."""
    names = [f"V{k}" for k in rng.permutation(sum(sizes))]
    bands = [names[k - n:k] for n, k in zip(sizes, itr.accumulate(sizes))]
    edges = [(band[i], band[j]) for band in bands for i in range(len(band))
             for j in range(i + 1, min(len(band), i + width + 1))]
    return PDAG([names[k] for k in rng.permutation(len(names))], undirected=edges), bands


def shuffled_band(rng, n, width):
    """A band of ``n`` nodes from :func:`shuffled_bands`: the graph and its
    labels in band order."""
    h, (names,) = shuffled_bands(rng, [n], width)
    return h, names


def check_witness(c, t1, t2):
    """The witness of comparing ``t1`` and ``t2`` on ``c``, checked against
    its definition: None iff equivalent, else the first fully shielded edge
    the orderings orient differently, else the least edge, by label text, of
    U1 ^ U2, each ordering's first cross-tier edges of its earliest paths,
    in the least chain component holding one.  Returns the source of the
    witness: "shielded", "path" or None."""
    res, names = tiers_equivalent(c, t1, t2), c.nodes
    h = c.undirected_subgraph()
    oriented = [
        [(a, b) if t[a] < t[b] else (b, a) if t[b] < t[a] else None for a, b in fully_shielded_edges(h)]
        for t in (t1, t2)
    ]
    shielded_diff = [a or b for a, b in zip(*oriented) if a != b]
    u1, u2 = (_first_edges(_floors(h._ne, v), v) for v in (t._tiers(names) for t in (t1, t2)))
    if shielded_diff:
        assert res.witness == shielded_diff[0], (c, t1, t2)
        return "shielded"
    if u1 == u2:
        assert res.witness is None and res.equivalent, (c, t1, t2)
        return None
    label = _component_labels(h._ne)[0]
    u, v = map(c.index_of, res.witness)
    assert (u, v) in u1 ^ u2, (c, t1, t2)
    least = min(label[a] for a, _ in u1 ^ u2)
    assert label[u] == least, (c, t1, t2)
    assert res.witness == min(((names[a], names[b]) for a, b in u1 ^ u2 if label[a] == least), key=str)
    return "path"


def coarsened(rng, t):
    """``t`` with runs of its tiers merged: compatible with ``t`` and, where
    ``t`` is consistent, consistent too."""
    step = int(rng.integers(2, 4))
    return TieredOrdering({v: k // step for v, k in t.normalized().assignment.items()})


class TestWitness:
    """The witness is the first differing fully shielded edge, else the least
    differing first edge (``U1 ^ U2``) of the least component holding one: at
    every size, with no path search, against its definition and the
    comparison over whole path trees (``oracles.compare_by_path_tree``)."""

    def test_lies_in_the_difference(self):
        """Random CPDAGs of the three generators and two-component CPDAGs
        under orderings cut from topological orders, and random chordal
        graphs and bands relabelled three ways (so that label text, index and
        band position differ) under orderings along a search and their
        coarsenings, with negative and non-contiguous tiers."""
        rng = np.random.default_rng(181)
        cases = []
        for generator in ("er", "power", "geometric"):
            for _ in range(60):
                p = int(rng.integers(4, 14))
                dag = random_dag(p, min(p - 1.0, float(rng.choice([2.0, 3.0, 4.0]))), generator, rng)
                cases.append((cpdag_of(dag), random_topological_tiers(rng, dag),
                              random_topological_tiers(rng, dag)))
        cases += [two_component_cpdag(rng) for _ in range(60)]
        graphs = []
        while len(graphs) < 120:
            h = random_undirected_graph(rng, int(rng.integers(4, 10)))
            if h.is_chordal():
                graphs.append(h)
        for _ in range(40):
            size = int(rng.integers(6, 14))
            sizes = [size] if rng.random() < 0.5 else [size - size // 2, size // 2]
            graphs.append(band_graph(rng, sizes, int(rng.integers(2, 4))))
        for k, h in enumerate(graphs):
            h = relabelled(rng, h, ("numbered", "prefix", "int")[k % 3])
            levels = np.sort(rng.choice(np.arange(-20, 21, 4), size=int(rng.integers(2, 5)), replace=False))
            t1 = tiers_along_search(rng, h, levels)
            cases.append((h, t1, tiers_along_search(rng, h, levels)))
        counts = Counter()
        for c, t1, t2 in cases:
            for other in (t2, coarsened(rng, t1)):
                a, b = stretched(rng, t1), stretched(rng, other)
                if not is_compatible(a, b):
                    continue
                counts[check_witness(c, a, b)] += 1
                assert tiers_equivalent(c, a, b) == compare_by_path_tree(c, a, b)[0], (c, a, b)
        assert counts["path"] > 150 and counts["shielded"] > 50 and counts[None] > 50, counts

    def test_lies_in_the_difference_on_shuffled_bands(self):
        """Shuffled bands of 8-40 nodes in one or two interleaved components,
        width 2 or 3, under orderings along a search against their
        coarsenings, so that components of more and fewer than 25 nodes
        name witnesses by the same rule."""
        rng = np.random.default_rng(193)
        counts = Counter()
        while counts["path"] < 120:
            n = int(rng.integers(8, 41))
            sizes = [n] if rng.random() < 0.5 else [n - n // 3, n // 3]
            h, _ = shuffled_bands(rng, sizes, int(rng.integers(2, 4)))
            levels = np.sort(rng.choice(np.arange(-30, 31, 6), size=int(rng.integers(2, 5)),
                                        replace=False))
            t1 = tiers_along_search(rng, h, levels)
            source = check_witness(h, t1, coarsened(rng, t1))
            counts[source] += 1
            counts["over 25 nodes"] += source == "path" and max(sizes) > 25
        assert counts["over 25 nodes"] > 20, counts

    @pytest.mark.parametrize("n", [25, 26])
    def test_same_rule_either_side_of_25_nodes(self, n):
        """Random trees of ``n`` nodes (one chain component, no shielded
        edge) under two tierings monotone in the depth from node 0, so both
        consistent and compatible: the witness is the least differing first
        edge on 25 nodes as on 26, as the per-path loop over every earliest
        path names it."""
        rng = np.random.default_rng(191 + n)
        named = 0
        for _ in range(40):
            names = [f"V{k}" for k in rng.permutation(n)]
            parent = [int(rng.integers(0, k)) for k in range(1, n)]
            depth = [0]
            for k in parent:
                depth.append(depth[k] + 1)
            h = PDAG(names, undirected=[(names[k], names[j + 1]) for j, k in enumerate(parent)])
            t1, t2 = (
                TieredOrdering(dict(zip(names, np.cumsum(rng.integers(0, 2, n))[depth].tolist())))
                for _ in range(2)
            )
            named += check_witness(h, t1, t2) == "path"
            assert tiers_equivalent(h, t1, t2) == tiers_equivalent_loop(h, t1, t2, n), (h, t1, t2)
        assert named > 20, named

    def test_lists_no_path_on_the_benchmark_band(self, tmp_path, monkeypatch):
        """On the 18-node coarse-late band of the benchmark's compare_band
        workload the comparison reaches neither path-listing call, and it
        names the least differing first edge."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        op = workloads.compare_op(tmp_path, workloads.shape_rng(3, 2, 0),
                                  np.random.default_rng([2, 3, 0]), 0, 18, "coarse-late")
        c, t1, t2 = load_graph(op.argv[1]), load_tiers(op.argv[2]), load_tiers(op.argv[3])
        read = []
        for owner, name in [(tiers, "cross_tier_report"), (PDAG, "find_unshielded_paths")]:
            listing = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, listing=listing, **kwargs: (
                read.append(args) or listing(*args, **kwargs)))
        assert check_witness(c, t1, t2) == "path" and read == []

    def test_names_a_witness_on_a_3000_node_band(self):
        """A shuffled band of 3,000 nodes and width 3 under tiers cut at three
        band positions against the same with two tiers merged: the comparison
        names its witness under the default recursion limit."""
        rng = np.random.default_rng(227)
        h, names = shuffled_band(rng, 3000, 3)
        cuts = rng.choice(np.arange(1, 3000), size=3, replace=False)
        tier = {v: int(sum(k >= cuts)) for k, v in enumerate(names)}
        named = 0
        for merge in range(3):
            t1, t2 = TieredOrdering(tier), TieredOrdering({v: t - (t > merge) for v, t in tier.items()})
            named += check_witness(h, t1, t2) == "path"
        assert named, named


def tiers_along_search(rng, h, levels):
    """An ordering consistent with the undirected chordal graph ``h``, its
    tiers taken from ``levels`` (ascending) and non-decreasing along a
    maximum cardinality search with random ties: the neighbours of a node
    visited before it form a clique (Tarjan and Yannakakis, 1984), so the
    DAG with each edge from its earlier-visited end is in the class and
    respects the tiers."""
    weight, tier, k = dict.fromkeys(h.nodes, 0), {}, 0
    while weight:
        top = max(weight.values())
        ties = [v for v, w in weight.items() if w == top]
        v = ties[int(rng.integers(len(ties)))]
        del weight[v]
        for u in h.neighbors_of(v):
            if u in weight:
                weight[u] += 1
        k += k + 1 < len(levels) and rng.random() < len(levels) / h.num_nodes
        tier[v] = int(levels[k])
    return TieredOrdering(tier)


def walked_report_paths(h, ordering):
    """The report's earliest paths as the walk over every unshielded path
    with the per-path test lists them (``oracles.report_paths_by_walk``)."""
    vector = ordering._tiers(h.nodes)
    paths = report_paths_by_walk(h, vector, _floors(h._ne, vector))
    return tuple(tuple(map(h.nodes.__getitem__, path)) for path in paths)


class TestReportWalk:
    """The report walks only the prefixes that can still become earliest
    paths: a maximal first edge, edges of its floor, a maximal end and a node
    of that tier; against the per-pair loop and the walk over every
    unshielded path with the per-path test, which it replaced."""

    def test_matches_the_loop_on_shuffled_bands(self):
        """Shuffled bands of 8-25 nodes in 1-3 interleaved components, width
        1-4, under consistent orderings of negative, non-contiguous tiers:
        the report equals ``oracles.cross_tier_report_loop`` in every field
        and in order on 300 inputs whose components have at most 16 nodes
        (the loop's pairwise maximality filter takes seconds beyond), and its
        earliest paths equal the old walk's on the others."""
        rng = np.random.default_rng(199)
        counts = Counter()
        while counts["loop"] < 300:
            n = int(rng.integers(8, 26))
            cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, 3)), replace=False))
            sizes = [int(b - a) for a, b in zip([0, *cuts], [*cuts, n])]
            h, _ = shuffled_bands(rng, sizes, int(rng.integers(1, 5)))
            levels = np.sort(rng.choice(np.arange(-30, 31, 6), size=int(rng.integers(1, 5)),
                                        replace=False))
            tau = tiers_along_search(rng, h, levels)
            report = cross_tier_report(h, tau)
            if max(sizes) > 16:
                assert report.earliest_paths == walked_report_paths(h, tau), (h, tau)
                counts["over 16 nodes"] += 1
                continue
            assert report == cross_tier_report_loop(h, tau), (h, tau)
            counts["loop"] += 1
            counts["several components"] += sum(size > 1 for size in sizes) > 1
            counts["several paths"] += len(report.earliest_paths) > 1
            counts["first edges"] += bool(report.all_first_edges)
        assert counts["several components"] > 100 and counts["over 16 nodes"] > 20, counts
        assert counts["several paths"] > 250 and counts["first edges"] > 150, counts

    @pytest.mark.parametrize("n", [25, 26])
    def test_guard_text_on_shuffled_bands(self, n):
        """The guard counts a component's nodes, whatever its paths: the
        report answers on a 25-node band and refuses a 26-node one with the
        same line as before, unless ``max_nodes`` lets it in."""
        rng = np.random.default_rng(211 + n)
        h, _ = shuffled_band(rng, n, 3)
        tau = tiers_along_search(rng, h, [-12, -6, 0, 18])
        for limit in (n - 1, 25):
            if n > limit:
                with pytest.raises(LimitError) as info:
                    cross_tier_report(h, tau, max_nodes=limit)
                assert str(info.value) == (
                    f"component of {n} nodes exceeds the path enumeration limit of {limit}"
                )
        report = cross_tier_report(h, tau, max_nodes=n)
        assert report.earliest_paths == walked_report_paths(h, tau)
        assert len(report.earliest_paths) > 100, len(report.earliest_paths)
        if n == 25:
            assert cross_tier_report(h, tau) == report

    @pytest.mark.parametrize("n", [18, 22, 25])
    def test_enters_fewer_prefixes_than_the_walk(self, n, monkeypatch):
        """Seeded shuffled bands of width 3 under tiers cut at three band
        positions: the report checks maximality once per first edge tried
        and once per prefix it enters, at most 0.6 times as often as the
        walk over every unshielded path makes entries (4,268, 16,626 and
        45,871 on these bands; the report checked 2,058, 7,702 and 21,008
        times when this test was written)."""
        rng = np.random.default_rng(n)
        h, names = shuffled_band(rng, n, 3)
        cuts = rng.choice(np.arange(1, n), size=3, replace=False)
        tau = TieredOrdering({v: int(sum(k >= cuts)) for k, v in enumerate(names)})
        checks = []
        maximal = tiers._maximal
        monkeypatch.setattr(tiers, "_maximal", lambda *args: checks.append(args) or maximal(*args))
        report = cross_tier_report(h, tau)
        entries = sum(1 for _ in unshielded_walk(h, range(n), None))
        assert entries == {18: 4268, 22: 16626, 25: 45871}[n]
        assert 0 < len(checks) <= 0.6 * entries, (len(checks), entries)
        assert report.earliest_paths == walked_report_paths(h, tau)
