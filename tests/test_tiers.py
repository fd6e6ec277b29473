import io
import itertools as itr
import re
from collections import Counter

import numpy as np
import pytest

from causaltiers import (
    GraphError,
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
from causaltiers import tiers
from causaltiers.cli import main
from causaltiers.formats import format_graph, format_tiers
from causaltiers.orientation import InvariantError
from causaltiers.tiers import (
    _compare,
    _component_paths,
    check_compatible,
    _maximal_paths,
    first_cross_tier_edges,
    fully_shielded_edges,
)

from conftest import random_cpdag_and_tau, random_coarsening
from causaltiers import cpdag_of
from oracles import (
    cross_tier_edges,
    cross_tier_pairs,
    cross_tier_report_loop,
    first_cross_tier_edges_walk,
    forbidden_set,
    maximal_paths_pairwise,
    orient_undirected_part,
    tiers_equivalent_loop,
    tiers_more_informative_loop,
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

    def test_normalization_is_contiguous(self):
        tau = TieredOrdering({"A": 10, "B": 3, "C": 10})
        norm = tau.normalized()
        assert norm.assignment == {"A": 2, "B": 1, "C": 2}
        assert tau == norm  # equality is up to monotone relabelling

    def test_tier_groups(self):
        tau = TieredOrdering({"A": 2, "B": 1, "C": 2})
        assert tau.tier_groups() == [(1, ("B",)), (2, ("A", "C"))]


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
        names = [f"V{k}" for k in range(26)]
        path = PDAG(names, undirected=list(zip(names, names[1:])))
        tau = TieredOrdering.from_tiers([names])
        with pytest.raises(LimitError, match="limit of 25"):
            tiers_equivalent(path, tau, tau)
        assert tiers_equivalent(path, tau, tau, max_nodes=30).equivalent

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
    """The three criterion functions share one path enumeration; they
    must agree with the per-ordering loops in ``oracles``."""

    def test_maximal_paths_match_pairwise_filter(self):
        rng = np.random.default_rng(83)
        checked = 0
        for _ in range(60):
            p = int(rng.integers(4, 11))
            c, _, _ = random_cpdag_and_tau(rng, p, 2.5)
            h = c.undirected_subgraph()
            for component in h.chain_components():
                if len(component) < 2:
                    continue
                paths = _component_paths(h, component, 25)
                for _ in range(3):
                    k = int(rng.integers(0, len(paths) + 1))
                    subset = [
                        paths[i][::-1] if rng.random() < 0.3 else paths[i]
                        for i in rng.permutation(len(paths))[:k]
                    ]
                    assert _maximal_paths(subset) == maximal_paths_pairwise(subset)
                    checked += 1
        assert checked > 100

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
    def test_each_component_enumerated_once(self, compare, monkeypatch, tmp_path):
        c, t1, t2 = two_disagreeing_components()
        calls = []
        enumerate_paths = PDAG.find_unshielded_paths

        def counted(self, source, target, *args, **kwargs):
            calls.append((source, target))
            return enumerate_paths(self, source, target, *args, **kwargs)

        monkeypatch.setattr(PDAG, "find_unshielded_paths", counted)
        if compare == "cross_tier_report":
            cross_tier_report(c, t1)
        elif compare == "cli":
            files = [tmp_path / name for name in ("g.txt", "t1.txt", "t2.txt")]
            for path, text in zip(files, (format_graph(c), format_tiers(t1), format_tiers(t2))):
                path.write_text(text)
            assert main(["compare-tiers", *map(str, files)], out=io.StringIO()) == 0
        else:
            getattr(tiers, compare)(c, t1, t2)
        # one call per node pair inside each three-node component
        assert sorted(calls) == sorted(
            (u, v)
            for group in (("Z1", "Z2", "Z3"), ("A1", "A2", "A3"))
            for u, v in itr.combinations(group, 2)
        )


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
        monkeypatch.setattr(tiers, "first_cross_tier_edges", lambda path, ordering: frozenset())
        message = (
            "equivalence criterion: the orderings are equivalent but their tiered "
            "MPDAGs are different, witness A -> C"
        )
        for compare in (tiers_equivalent, tiers_more_informative):
            with pytest.raises(InvariantError, match=re.escape(message)):
                compare(wave_cpdag, fine_late_tau, coarse_late_tau)

    def test_spurious_disagreement_raises(self, monkeypatch, wave_cpdag, wave_tau):
        same = TieredOrdering({v: 2 * t for v, t in wave_tau.assignment.items()})
        first = tiers.first_cross_tier_edges
        monkeypatch.setattr(
            tiers,
            "first_cross_tier_edges",
            lambda path, ordering: first(path, ordering) if ordering is same else frozenset(),
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
            equiv, info = _compare(c, t1, t2, 25)
            assert info == tiers_more_informative(c, t1, t2)
            assert info == tiers_more_informative_loop(c, t1, t2)
            assert equiv.equivalent == (tiered_mpdag(c, t1) == tiered_mpdag(c, t2))
            outcomes[equiv.equivalent] += 1
        assert min(outcomes.values()) > 20, outcomes
