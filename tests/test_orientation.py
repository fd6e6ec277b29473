import itertools
import math
import re
import time
from collections import Counter

import numpy as np
import pytest

from causaltiers import orientation
from causaltiers import (
    BackgroundKnowledge,
    CycleError,
    GraphError,
    InconsistentKnowledgeError,
    LimitError,
    PDAG,
    TieredOrdering,
    check_consistency,
    class_size,
    cpdag_of,
    enumerate_class,
    format_graph,
    impose_knowledge,
    impose_tiers,
    meek_closure,
    mpdag_of,
    parse_graph,
    tiered_mpdag,
    v_structures,
)
from causaltiers.orientation import MEEK_RULES, InvariantError, meek_closure_trace

from causaltiers.simulation import GENERATORS, random_dag

from conftest import (
    cycle_close,
    no_op_close,
    random_chordal,
    random_coarsening,
    random_cpdag_and_tau,
    random_dag_instance,
    reordered,
)
from oracles import (
    SweepConflict,
    amat_of,
    apply_meek_rule,
    arcs_into_neighbours,
    build_from_sets,
    class_size_by_root_picking,
    consistent_extensions,
    cpdag_by_meek_closure,
    forbidden_set,
    full_closure_equals,
    has_chordless_cycle,
    has_partially_directed_cycle_bfs,
    is_acyclic,
    leaves,
    orient_tiered_full_scan,
    pdag_from_amat,
    pdag_from_amat_unchecked,
    require_invariants_scan,
    round_closure,
    sweep_apply,
    sweep_closure,
    sweep_firings,
    vstructs_of_arcset,
)


def random_pdag(rng, p):
    """Arbitrary PDAG: each pair of a random order is absent, directed
    along the order or undirected; usually neither closed nor consistent."""
    names = [f"V{k}" for k in range(p)]
    order = [names[k] for k in rng.permutation(p)]
    q = rng.random()
    directed, undirected = [], []
    for a in range(p):
        for b in range(a + 1, p):
            if rng.random() < q:
                (directed if rng.random() < 0.4 else undirected).append((order[a], order[b]))
    return PDAG(names, directed=directed, undirected=undirected)


def random_knowledge(rng, c):
    """Required and forbidden arcs drawn from the pairs of ``c``'s skeleton."""
    pairs = [e if rng.random() < 0.5 else e[::-1] for e in c.skeleton().undirected_edges]
    picks = [pairs[k] for k in rng.permutation(len(pairs))[:4]]
    return BackgroundKnowledge(required=picks[:1], forbidden=picks[1:])


def copied(s):
    """A copy of the closure state ``s``; orienting the copy leaves ``s`` as it is."""
    return [set(x) for x in s[0]], [set(x) for x in s[1]], s[2]


def rounds_outcome(s, rules, names, oriented=None):
    """Check the frontier closure ``orientation._close`` from ``oriented``, by
    default the arcs of ``s`` into its nodes with an undirected edge, against
    the round closure on copies of ``s``: the same trace and sets, or the same
    conflict message.  Returns which case it was."""
    oriented = arcs_into_neighbours(s) if oriented is None else oriented
    frontier, rounds = copied(s), copied(s)
    try:
        trace = round_closure(rounds, rules, names)
    except InconsistentKnowledgeError as conflict:
        with pytest.raises(InconsistentKnowledgeError, match=f"^{re.escape(str(conflict))}$"):
            orientation._close(frontier, rules, names, oriented)
        return "conflict"
    assert orientation._close(frontier, rules, names, oriented) == trace
    assert frontier[:2] == rounds[:2]
    return "closed"


def certificate(g, s):
    """The tiered pass's invariant checks, chordality search included."""
    orientation._require_invariants(g, s, True, g._with_neighbours())


def invariants_outcome(check, g):
    """The exception type and message ``check(g, state)`` raises, or None."""
    try:
        check(g, orientation._state(g))
    except GraphError as exc:
        return type(exc), str(exc)
    return None


def closure_outcome(g, rules):
    """Check ``meek_closure_trace`` against the pair sweep: the same
    trace and graph, or the same failure, and the frontier closure against
    the round closure.  Returns which case it was."""
    rounds_outcome(orientation._state(g), rules, g.nodes)
    try:
        amat, trace = sweep_closure(amat_of(g), rules)
    except SweepConflict as conflict:
        with pytest.raises(InconsistentKnowledgeError) as info:
            meek_closure_trace(g, rules)
        names = g.nodes
        assert f"orient {names[conflict.tail]!r}, {names[conflict.head]!r} both" in str(info.value)
        return "conflict"
    arcs = list(zip(*np.nonzero(amat & ~amat.T)))
    if not is_acyclic(arcs, g.num_nodes):
        with pytest.raises(CycleError):
            meek_closure_trace(g, rules)
        return "cycle"
    got, got_trace = meek_closure_trace(g, rules)
    assert got_trace == [(r, (g.nodes[t], g.nodes[h])) for r, t, h in trace]
    assert np.array_equal(amat_of(got), amat)
    return "closed"


def class_outcome(g):
    """Check branch and close (``leaves``) as a set against the bitmask
    oracle on the same undirected edges, directed edges and v-structures,
    and ``enumerate_class`` against it: the same list, in order, if the ends
    of each undirected edge have the same parents, else the gate's line."""
    idx = g.index_of
    und = [(idx(u), idx(v)) for u, v in g.undirected_edges]
    arcs = {(idx(u), idx(v)) for u, v in g.directed_edges}
    target = frozenset(
        (min(a, c), b, max(a, c))
        for a, b in arcs
        for c, b2 in arcs
        if b2 == b and a != c and not g.has_edge(g.nodes[a], g.nodes[c])
    )
    expected = set(consistent_extensions(und, arcs, target, g.num_nodes))
    members = list(leaves(g))
    got = [frozenset((idx(u), idx(v)) for u, v in m.directed_edges) for m in members]
    assert len(got) == len(set(got))
    assert set(got) == expected
    split = [(u, v) for u, v in g.undirected_edges if g.parents_of(u) != g.parents_of(v)]
    if split:
        message = "^not a CPDAG or tiered MPDAG: the ends of %s - %s have different parents$"
        with pytest.raises(GraphError, match=message % split[0]):
            enumerate_class(g)
    else:
        assert enumerate_class(g) == members
    return len(got)


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


class TestClosureAgainstSweep:
    """The set-based closure fires the same (rule, edge) sequence as the
    pair sweep in ``tests/oracles.py``, and fails in the same cases."""

    def test_cpdag_constructions(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            d = random_dag_instance(rng, int(rng.integers(2, 40)), 2.5)
            vs = v_structures(d)
            arcs = {(a, b) for a, b, _ in vs} | {(c, b) for _, b, c in vs}
            start = PDAG(d.nodes, directed=arcs,
                         undirected=[e for e in d.directed_edges if e not in arcs])
            assert closure_outcome(start, (1, 2, 3)) == "closed"
            assert meek_closure(start, rules=(1, 2, 3)) == cpdag_of(d)

    def test_cpdag_of_against_meek_closure(self):
        """The sweep gives exactly the graph, node order and index sets that
        closing a start graph of the v-structures gives, on DAGs of all
        three generators in shuffled node orders."""
        rng = np.random.default_rng(113)
        directed = 0
        for trial in range(1200):
            p = int(rng.integers(2, 40))
            d = random_dag(p, float(rng.uniform(0.5, min(6.0, p - 1))), GENERATORS[trial % 3], rng)
            if trial % 2:
                d = reordered(d, [d.nodes[k] for k in rng.permutation(p)])
            got, want = cpdag_of(d), cpdag_by_meek_closure(d)
            assert (got.nodes, got._pa, got._ne) == (want.nodes, want._pa, want._ne)
            directed += any(got._pa) and any(got._ne)
        assert directed > 300, directed

    def test_cpdag_of_on_dense_dags_in_every_node_order(self):
        """Dense DAGs up to complete ones, where every edge is reversible,
        drawn as a random order over all pairs, with nodes inserted in that
        order, in its reverse or at random."""
        rng = np.random.default_rng(131)
        seen = Counter()
        for trial in range(600):
            p = int(rng.integers(2, 24))
            names = [f"V{k}" for k in range(p)]
            order = [names[k] for k in rng.permutation(p)]
            q = 1.0 if trial % 4 == 0 else float(rng.uniform(0.5, 1.0))
            arcs = [(u, v) for u, v in itertools.combinations(order, 2) if rng.random() < q]
            nodes = (names, order, order[::-1])[trial % 3]
            d = PDAG(nodes, directed=arcs)
            got, want = cpdag_of(d), cpdag_by_meek_closure(d)
            assert (got.nodes, got._pa, got._ne) == (want.nodes, want._pa, want._ne)
            if q == 1.0:
                assert got == d.skeleton()
            seen["complete" if q == 1.0 else "mixed" if any(got._pa) else "undirected"] += 1
        assert min(seen.values()) > 50, seen

    def test_cpdag_of_on_every_four_node_dag(self):
        """Each of the 6 pairs absent or an arc either way: the 543 acyclic
        choices are all the labelled four-node DAGs."""
        pairs = list(itertools.combinations("ABCD", 2))
        dags = 0
        for kinds in itertools.product((None, False, True), repeat=len(pairs)):
            arcs = [(v, u) if flip else (u, v)
                    for (u, v), flip in zip(pairs, kinds) if flip is not None]
            try:
                d = PDAG("ABCD", directed=arcs)
            except CycleError:
                continue
            got, want = cpdag_of(d), cpdag_by_meek_closure(d)
            assert (got.nodes, got._pa, got._ne) == (want.nodes, want._pa, want._ne)
            dags += 1
        assert dags == 543

    def test_cpdag_of_builds_one_graph(self, monkeypatch):
        d = random_dag(60, 4.0, "er", np.random.default_rng(127))
        stores = []
        store = PDAG._store
        with monkeypatch.context() as m:
            m.setattr(PDAG, "_store", lambda g, *a, **k: stores.append(1) or store(g, *a, **k))
            got = cpdag_of(d)
        assert len(stores) == 1
        assert got == cpdag_by_meek_closure(d)

    def test_tiered_impositions(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            c, tau, _ = random_cpdag_and_tau(rng, int(rng.integers(2, 40)), 2.5)
            imposed = impose_tiers(c, tau)
            for rules in ((1,), (1, 2, 3, 4)):
                assert closure_outcome(imposed, rules) == "closed"

    def test_mpdag_of_random_knowledge(self):
        rng = np.random.default_rng(107)
        seen = set()
        for _ in range(150):
            c = cpdag_of(random_dag_instance(rng, int(rng.integers(3, 9)), 2.5))
            if c.is_directed:
                continue
            try:
                imposed = impose_knowledge(c, random_knowledge(rng, c))
            except GraphError:  # contradicts the graph, or closes a cycle
                continue
            seen.add(closure_outcome(imposed, (1, 2, 3, 4)))
        assert seen == {"closed", "conflict", "cycle"}

    def test_arbitrary_pdags(self):
        rng = np.random.default_rng(109)
        seen = set()
        for _ in range(300):
            g = random_pdag(rng, int(rng.integers(2, 16)))
            rules = tuple(rng.permutation([1, 2, 3, 4])[: int(rng.integers(1, 5))])
            seen.add(closure_outcome(g, rules))
            for rule in (1, 2, 3, 4):
                amat = amat_of(g)
                fired = sweep_firings(amat, rule)
                try:
                    sweep_apply(amat, fired)
                except SweepConflict:
                    with pytest.raises(InconsistentKnowledgeError):
                        apply_meek_rule(g, rule)
                    continue
                if not is_acyclic(list(zip(*np.nonzero(amat & ~amat.T))), g.num_nodes):
                    with pytest.raises(CycleError):
                        apply_meek_rule(g, rule)
                    continue
                out, edges = apply_meek_rule(g, rule)
                assert edges == [(g.nodes[t], g.nodes[h]) for t, h in fired]
                assert np.array_equal(amat_of(out), amat)
        assert seen == {"closed", "conflict", "cycle"}


class TestFrontierClosure:
    """The frontier closure fires the same (rule, edge) sequence as the
    round closure in ``tests/oracles.py``, with or without a start set."""

    def test_tiered_impositions(self):
        rng = np.random.default_rng(211)
        for _ in range(80):
            c, tau, _ = random_cpdag_and_tau(rng, int(rng.integers(2, 60)), 2.5)
            s, oriented = orientation._cross_tier_state(c, list(map(tau.tier_of, c.nodes)))
            for rules in ((1,), (1, 2, 3), (1, 2, 3, 4)):
                assert rounds_outcome(s, rules, c.nodes) == "closed"
                assert rounds_outcome(s, rules, c.nodes, oriented) == "closed"

    def test_tiered_pass_matches_full_scan(self):
        """The tiered pass, which closes from the cross-tier frontier, against
        the same pass with a first round over every edge: CPDAGs, tiered MPDAGs
        and random PDAGs that share parents, under consistent and random
        orderings; the same graph and trace, or the same error."""

        def outcome(run):
            try:
                g, trace = run()
            except GraphError as exc:
                return type(exc), str(exc)
            return g.nodes, g._pa, g._ch, g._ne, trace

        rng = np.random.default_rng(227)
        outcomes = Counter()
        for trial in range(600):
            c, tau, _ = random_cpdag_and_tau(rng, int(rng.integers(2, 40)), 3.0)
            if trial % 4 == 1:
                c = tiered_mpdag(c, random_coarsening(rng, c.num_nodes))
            elif trial % 4 == 2:
                c = random_pdag(rng, int(rng.integers(2, 9)))
                if not orientation._shares_parents(c._pa, c._ne, c._with_neighbours()):
                    continue
                tau = random_coarsening(rng, c.num_nodes)
            roots = [v for v in c.nodes if c.neighbors_of(v) and not c.parents_of(v)]
            if trial % 3 == 0:
                tau = TieredOrdering({v: int(rng.integers(-2, 3)) for v in c.nodes})
            elif trial % 3 == 1 and roots:  # the root's edges are the cross-tier ones
                root = roots[int(rng.integers(len(roots)))]
                tau = TieredOrdering({v: int(v != root) for v in c.nodes})
            for rules in ((1,), MEEK_RULES):
                got = outcome(lambda: orientation._orient_tiered(c, (tau,), rules)[0])
                assert got == outcome(lambda: orient_tiered_full_scan(c, tau, rules))
                outcomes[got[0].__name__ if isinstance(got[0], type) else bool(got[-1])] += 1
        assert outcomes[True] > 100 and outcomes[False] > 300, outcomes
        assert outcomes["InconsistentKnowledgeError"] > 100, outcomes

    def test_branch_edge_as_start(self):
        """Closed states with one undirected edge oriented either way, and
        undirected graphs with one node's edges oriented out of it, closed
        from those orientations alone."""
        rng = np.random.default_rng(223)
        seen = Counter()
        for trial in range(300):
            p = int(rng.integers(3, 14))
            if trial % 3 == 0:  # half of them undirected, often not chordal
                g = random_pdag(rng, p) if trial % 2 else random_pdag(rng, p).skeleton()
            else:
                c, tau, _ = random_cpdag_and_tau(rng, p, 3.0)
                g = c if trial % 3 == 1 else impose_tiers(c, tau)
            s = orientation._state(g)
            try:
                round_closure(s, MEEK_RULES, g.nodes)
            except InconsistentKnowledgeError:
                continue
            edges = [(i, j) for i, nb in enumerate(s[1]) for j in nb if i < j]
            for k in rng.permutation(len(edges))[: 3 if trial % 3 else None]:
                for tail, head in (edges[k], edges[k][::-1]):
                    branch = copied(s)
                    orientation._orient(branch, tail, head)
                    seen[rounds_outcome(branch, MEEK_RULES, g.nodes, [(tail, head)])] += 1
            ne = s[1]
            root = int(rng.integers(0, p))
            rooted = ([set() for _ in ne], [set(x) for x in ne], [frozenset(x) for x in ne])
            for w in ne[root]:
                orientation._orient(rooted, root, w)
            seen["rooted"] += bool(ne[root])
            seen[rounds_outcome(rooted, (1,), g.nodes, [(root, w) for w in ne[root]])] += 1
        assert min(seen[k] for k in ("closed", "conflict", "rooted")) > 30, seen

    def test_path_propagation_is_linear(self, monkeypatch):
        """Rule 1 carries the first node's tier along a 2000-node path in
        1999 rounds; each round examines only the edges at the last heads,
        so the pass evaluates a bounded number of firings per edge, where
        rescanning every edge each round evaluates about p^2 / 2."""
        path = band(2000, 1)
        fires, calls = orientation._fires, Counter()

        def counted(rule, s, b, c):
            calls[rule] += 1
            return fires(rule, s, b, c)

        monkeypatch.setattr(orientation, "_fires", counted)
        tau = TieredOrdering({v: 1 if v == "V0" else 2 for v in path.nodes})
        assert len(tiered_mpdag(path, tau).directed_edges) == 1999
        assert 0 < calls[1] <= 8 * 1999 and calls.keys() == {1}, calls

    def test_unknown_rule_still_raises(self):
        with pytest.raises(ValueError, match="rule must be one of"):
            meek_closure_trace(PDAG("AB", undirected=[("A", "B")]), (1, 5))


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
            got = {frozenset(x.directed_edges) for x in leaves(g)}
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

    def test_violations_in_canonical_order(self):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(100):
            c, _, _ = random_cpdag_and_tau(rng, int(rng.integers(2, 20)), 2.5)
            tau = TieredOrdering({v: int(rng.integers(0, 4)) for v in c.nodes})
            late = [(u, v) for u, v in c.directed_edges if tau.tier_of(u) > tau.tier_of(v)]
            assert check_consistency(c, tau) == late
            found += len(late) > 1
        assert found > 30, found

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

    def test_ordering_forcing_a_new_v_structure_raises(self):
        """Every directed edge is respected, yet V0 -> V2 <- V3 is forced."""
        c = PDAG(
            [f"V{k}" for k in range(6)],
            undirected=[("V0", "V1"), ("V0", "V2"), ("V2", "V3"), ("V3", "V4"), ("V3", "V5")],
        )
        tau = TieredOrdering.from_tiers([["V0"], ["V1", "V3", "V4"], ["V2", "V5"]])
        assert check_consistency(c, tau) == []
        with pytest.raises(
            InconsistentKnowledgeError,
            match=re.escape(
                "ordering creates the v-structure V0 -> V2 <- V3, which no DAG of the class has"
            ),
        ):
            tiered_mpdag(c, tau)

    def test_v_structure_from_one_round_of_rule_1(self):
        """Imposing V2 -> V0 and V4 -> V3 on the path V2 - V0 - V1 - V3 - V4
        adds no v-structure; rule 1 then fires V0 -> V1 and V3 -> V1 in the
        same round, so only the closed graph shows the contradiction."""
        c = PDAG(
            [f"V{k}" for k in range(5)],
            undirected=[("V0", "V1"), ("V0", "V2"), ("V1", "V3"), ("V3", "V4")],
        )
        tau = TieredOrdering.from_tiers([["V2"], ["V4"], ["V0", "V1", "V3"]])
        assert v_structures(impose_tiers(c, tau)) == v_structures(c)
        with pytest.raises(InconsistentKnowledgeError, match="V0 -> V1 <- V3"):
            tiered_mpdag(c, tau)

    def test_rejects_exactly_the_orderings_no_member_respects(self):
        rng = np.random.default_rng(53)
        outcomes = Counter()
        for _ in range(1500):
            p = int(rng.integers(3, 9))
            c = cpdag_of(random_dag_instance(rng, p, float(rng.choice([1.5, 2.5]))))
            tau = TieredOrdering({v: int(rng.integers(1, 4)) for v in c.nodes})
            respected = any(
                all(tau.tier_of(u) <= tau.tier_of(v) for u, v in m.directed_edges)
                for m in enumerate_class(c)
            )
            try:
                tiered_mpdag(c, tau)
                outcome = "kept"
            except InconsistentKnowledgeError as exc:
                outcome = "v-structure" if "v-structure" in str(exc) else "other"
            assert (outcome == "kept") == respected, (c, tau, outcome)
            outcomes[outcome] += 1
        assert min(outcomes.values()) > 100, outcomes

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


SQUARE = PDAG("ABCD", undirected=[("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])
INNER_ARC = PDAG("ABC", directed=[("A", "B")], undirected=[("B", "C"), ("C", "A")])
RULE3 = PDAG(
    "ABCD", directed=[("B", "D"), ("C", "D")], undirected=[("A", "B"), ("A", "C"), ("A", "D")]
)
RULE4 = PDAG(
    "ABCD", directed=[("A", "B"), ("B", "D")], undirected=[("C", "A"), ("C", "B"), ("C", "D")]
)


class TestInvariantChecks:
    """``tiered_mpdag``'s invariant checks, given a faulty rule-1 closure."""

    @pytest.mark.parametrize(
        "closed, message",
        [
            (None, "rule-1 sufficiency: rule 1 orients C -> D"),
            (RULE3, "rule-1 sufficiency: rule 3 orients A -> D"),
            (RULE4, "rule-1 sufficiency: rule 4 orients C -> D"),
            (INNER_ARC, "partially directed cycle: directed edge A -> B inside a chain"),
            (SQUARE, "chordality: later neighbours of D are not all adjacent"),
        ],
        ids=["rule-1", "rule-3", "rule-4", "partially-directed-cycle", "chordless-cycle"],
    )
    def test_faulty_closure_names_invariant_and_witness(
        self, monkeypatch, wave_cpdag, wave_tau, closed, message
    ):
        # None: the closure leaves the imposed graph as it is, so C - D
        # stays undirected although rule 1 orients it; otherwise the checks
        # run on ``closed`` as if the closure had returned it
        with pytest.raises(InvariantError, match=re.escape(message)):
            if closed is None:
                monkeypatch.setattr(orientation, "_close", no_op_close)
                tiered_mpdag(wave_cpdag, wave_tau)
            else:
                orientation._require_invariants(closed, orientation._state(closed), True,
                                                closed._with_neighbours())

    def test_rule_check_matches_full_closure_oracle(self):
        """No rule fires on a rule-1 result iff a second, full closure of
        the imposed graph gives it back.  Checked on rule-1 closures under
        consistent knowledge, some stopped early, and on arbitrary PDAGs,
        often closed under rules 1 and 2, taken as their own closure."""
        rng = np.random.default_rng(47)
        outcomes = Counter()
        for _ in range(800):
            if rng.random() < 0.4:
                imposed = random_pdag(rng, int(rng.integers(4, 10)))
                if rng.random() < 0.7:  # leave rules 3 and 4 to fire first
                    try:
                        imposed = meek_closure(imposed, (1, 2))
                    except GraphError:
                        pass
                closed = imposed
            else:
                c, _, dag = random_cpdag_and_tau(rng, int(rng.integers(3, 12)), 3.0)
                truth = [e for e in dag.directed_edges if c.has_undirected(*e)]
                order = rng.permutation(len(truth))
                picks = [truth[k] for k in order[: int(rng.integers(0, 4))]]
                imposed = impose_knowledge(c, BackgroundKnowledge(required=picks))
                closed, trace = meek_closure_trace(imposed, (1,))
                if rng.random() < 0.5:
                    amat = amat_of(imposed)
                    for _, (tail, head) in trace[: int(rng.integers(0, len(trace) + 1))]:
                        amat[imposed.index_of(head), imposed.index_of(tail)] = False
                    closed = pdag_from_amat(imposed.nodes, amat)
            try:
                expected = full_closure_equals(imposed, closed)
            except GraphError:  # the closure conflicts, so it is not ``closed``
                expected = False
            assert invariants_outcome(certificate, closed) == (
                invariants_outcome(require_invariants_scan, closed)
            )
            rule = None
            try:
                orientation._require_invariants(closed, orientation._state(closed), True,
                                                closed._with_neighbours())
            except InvariantError as exc:
                # knowledge that is not tiered may leave partially directed
                # cycles, which the later checks report
                fired = re.match(r"rule-1 sufficiency: rule (\d) orients \S+ -> \S+( and)?", str(exc))
                rule = fired and ("both ways" if fired.group(2) else int(fired.group(1)))
            assert (rule is None) == expected
            outcomes[rule] += 1
        assert min(outcomes[r] for r in (None, 1, 2, 4, "both ways")) > 10, outcomes
        assert outcomes[3], outcomes

    def test_certificate_matches_scan_on_unchecked_graphs(self):
        """The certificate raises what the four-rule scan raises, type and
        message, on graphs built without Kahn's check: arbitrary mixed
        graphs, often with directed cycles, their closures and skeletons."""
        rng = np.random.default_rng(229)
        outcomes = Counter()
        for trial in range(1500):
            p = int(rng.integers(2, 12))
            names = [f"V{k}" for k in range(p)]
            absent, undirected = rng.uniform(0.3, 0.8), rng.random()
            shares = [absent, (1 - absent) * (1 - undirected), (1 - absent) * undirected]
            kind = rng.choice(3, size=(p, p), p=shares)
            amat = np.triu(kind > 0, 1)
            amat = amat | np.triu(kind == 2, 1).T  # 2: undirected
            amat |= np.tril(kind > 0, -1) & ~amat.T  # some pairs directed upwards
            if trial % 5 == 0:  # undirected, for the chordality check
                amat |= amat.T
            g = pdag_from_amat_unchecked(names, amat)
            if trial % 2:
                s = orientation._state(g)
                try:
                    round_closure(s, MEEK_RULES, names)
                except InconsistentKnowledgeError:
                    continue
                g = build_from_sets(names, s[0], s[1], check=False)
            got = invariants_outcome(certificate, g)
            assert got == invariants_outcome(require_invariants_scan, g)
            assert got is None or got[0] is InvariantError, got
            both_ways = got and re.match(r"rule-1 sufficiency: .* and ", got[1])
            outcomes["both ways" if both_ways else got and got[1].split(":")[0]] += 1
        assert min(outcomes.values()) > 10 and len(outcomes) == 5, outcomes

    def test_faulty_closure_leaving_a_directed_cycle(self, monkeypatch):
        """The tiered result is built without Kahn's check, so a directed
        cycle is reported by the invariant checks, not as a CycleError."""
        triangle = PDAG("ABC", undirected=[("A", "B"), ("B", "C"), ("C", "A")])
        monkeypatch.setattr(orientation, "_close", cycle_close)
        message = "partially directed cycle: chain components cycle {A} -> {B} -> {C} -> {A}"
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            tiered_mpdag(triangle, TieredOrdering(dict.fromkeys("ABC", 1)))


def counting_only(ne, names, memo, query=(), parents=(), completions=orientation._completions):
    """``orientation._completions`` for counting alone: a listing, which
    carries parent sets, fails."""
    assert not query, "the listing started"
    return completions(ne, names, memo, query, parents)


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
        k5 = PDAG("ABCDE", undirected=[(u, v) for u in "ABCDE" for v in "ABCDE" if u < v])
        with pytest.raises(LimitError, match="over 100 members"):
            enumerate_class(k5, max_members=100)
        assert len(enumerate_class(k5, max_members=120)) == 120

    def test_counted_class_over_the_limit_fails_before_listing(self, monkeypatch):
        """K10 has 10! members: class_size counts them and the listing,
        clique picking that carries every node's parents, never starts."""
        names = [f"V{k}" for k in range(10)]
        k10 = PDAG(names, undirected=itertools.combinations(names, 2))
        monkeypatch.setattr(orientation, "_completions", counting_only)
        start = time.perf_counter()
        with pytest.raises(LimitError, match="^class has over 10000 members, the enumeration limit$"):
            enumerate_class(k10)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(LimitError, match="^class has over 5039 members"):
            enumerate_class(PDAG(names[:7], undirected=itertools.combinations(names[:7], 2)), 5039)

    def test_counted_empty_class_lists_nothing(self, monkeypatch):
        """K10 less V0 - V1 and V8 - V9 holds the chordless 4-cycle V0 V8 V1
        V9, so class_size is 0 and the listing, which assumes chordal
        components, never starts (K9 less two such edges took half a second
        by branch and close)."""
        names = [f"V{k}" for k in range(10)]
        g = PDAG(names, undirected=[e for e in itertools.combinations(names, 2)
                                    if e not in {("V0", "V1"), ("V8", "V9")}])
        monkeypatch.setattr(orientation, "_completions", counting_only)
        start = time.perf_counter()
        assert enumerate_class(g) == []
        assert time.perf_counter() - start < 0.1

    def test_listing_checked_against_the_count(self, monkeypatch):
        """A listing that drops a member's row, repeats one in place of
        another or counts one twice disagrees with class_size.  The faults
        hit only a result of several rows: the completions inside clique
        picking on K3 are of an empty graph, one row each."""
        completions = orientation._completions

        def faulty(fault):
            def listing(ne, names, memo, query=(), parents=()):
                rows = completions(ne, names, memo, query, parents)
                if query and len(rows) > 1:
                    first, second = list(rows)[:2]
                    fault(rows, first, second)
                return rows
            return listing

        faults = [
            (lambda rows, a, b: rows.pop(a), "5 members in 5 parent-set rows"),
            (lambda rows, a, b: (rows.pop(a), rows.update({b: 1})), "6 members in 5 parent-set rows"),
            (lambda rows, a, b: rows.update({b: 1}), "7 members in 6 parent-set rows"),
        ]
        k3 = PDAG("ABC", undirected=[("A", "B"), ("A", "C"), ("B", "C")])
        for fault, message in faults:
            monkeypatch.setattr(orientation, "_completions", faulty(fault))
            with pytest.raises(InvariantError, match=f"^clique picking: {message}, for a class of 6$"):
                enumerate_class(k3)

    def test_equals_branch_and_close_in_order(self):
        """K2-K8 less one edge (each edge up to K6, a middle one beyond), and
        less two edges, sharing an end or not (a chordless 4-cycle from n = 4
        on, so no member): clique picking lists what branch and close lists,
        in the same order."""
        sizes = []
        for n in range(2, 9):
            names = [f"V{k}" for k in range(n)]
            pairs = list(itertools.combinations(names, 2))
            singles = [{e} for e in pairs] if n <= 6 else [{pairs[len(pairs) // 2]}]
            for missing in singles + [set(pairs[:2]), {pairs[0], pairs[-1]}]:
                g = PDAG(names, undirected=[e for e in pairs if e not in missing])
                members = enumerate_class(g, 20_000)
                assert members == list(leaves(g)), (n, missing)
                sizes.append(len(members))
        assert 0 in sizes and max(sizes) == 13 * math.factorial(6)

    def test_members_in_documented_order(self):
        """Lexicographic in the directions of the input's undirected edges,
        taken in canonical order, lower-index tail first."""
        rng = np.random.default_rng(113)
        for _ in range(20):
            c = cpdag_of(random_dag_instance(rng, int(rng.integers(3, 7)), 2.5))
            keys = [
                tuple(m.has_directed(v, u) for u, v in c.undirected_edges)
                for m in enumerate_class(c)
            ]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_undirected_path_scales_linearly(self):
        names = [f"V{k}" for k in range(30)]
        path = PDAG(names, undirected=list(zip(names, names[1:])))
        assert len(enumerate_class(path)) == 30

    def test_band_of_21_edges(self):
        assert len(enumerate_class(band(9, 3))) == 114

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

    def test_classes_against_bitmask_oracle(self):
        """CPDAGs, tiered MPDAGs, ``mpdag_of`` outputs, and arbitrary
        PDAGs that are neither closed nor consistent, which
        ``enumerate_class`` refuses unless their undirected edges' ends
        share their parents."""
        rng = np.random.default_rng(127)
        sizes = []
        for _ in range(40):
            c, tau, _ = random_cpdag_and_tau(rng, int(rng.integers(2, 8)), 2.5)
            if len(c.undirected_edges) > 10:
                continue
            sizes.append(class_outcome(c))
            sizes.append(class_outcome(tiered_mpdag(c, tau)))
            try:
                g = mpdag_of(c, random_knowledge(rng, c)) if not c.is_directed else c
            except GraphError:
                continue
            sizes.append(class_outcome(g))
        assert min(sizes) >= 1
        empty = 0
        for _ in range(200):
            g = random_pdag(rng, int(rng.integers(2, 8)))
            if len(g.undirected_edges) <= 10:
                empty += class_outcome(g) == 0
        assert empty > 0


def listed(g):
    """The members branch and close lists, which ``enumerate_class`` lists too,
    in the same order."""
    members = list(leaves(g))
    assert enumerate_class(g, 20_000) == members
    return members


class TestClassSize:
    def test_amo_count_matches_enumeration_on_chordal_graphs(self):
        rng = np.random.default_rng(131)
        counted = 0
        for _ in range(150):
            g = random_chordal(rng, int(rng.integers(1, 9)))
            assert g.is_chordal()
            assert class_size(g) == len(listed(g)) == class_size_by_root_picking(g)
            for comp in g.chain_components():
                if len(comp) > 1:
                    idx = sorted(map(g.index_of, comp))
                    got = orientation._amo_count(g._ne, g.nodes, idx, {})
                    assert got == Counter({(): len(list(leaves(g.induced_subgraph(comp))))})
                    counted += 1
        assert counted > 100

    def test_k_less_edges_match_root_picking_and_enumeration(self):
        """K2-K10 less one edge, two disjoint edges (a chordless 4-cycle from
        n = 4 on, so no member) and two edges at V0: clique picking agrees
        with the root-picking oracle and, on K2-K8 up to 2,000 members, with
        the listed members; over the enumeration limit, enumeration refuses
        at once."""
        sizes = []
        for n in range(2, 11):
            names = [f"V{k}" for k in range(n)]
            pairs = list(itertools.combinations(names, 2))
            for missing in ({pairs[0]}, {pairs[0], pairs[-1]}, set(pairs[:2])):
                g = PDAG(names, undirected=[e for e in pairs if e not in missing])
                sizes.append(class_size(g))
                assert sizes[-1] == class_size_by_root_picking(g), (n, missing)
                if sizes[-1] > 10_000:
                    with pytest.raises(LimitError, match="^class has over 10000 members"):
                        enumerate_class(g)
                elif sizes[-1] <= 2_000 and n <= 8:
                    assert sizes[-1] == len(listed(g)), (n, missing)
        assert 0 in sizes and max(sizes) == 17 * math.factorial(8)

    def test_k16_less_one_edge_under_a_second(self):
        """Root picking took seconds here; (2n - 3)(n - 2)! members: the
        missing edge's ends either end in a sink, or one of them is the
        sink and the other's parents are any proper subset of the rest."""
        n = 16
        start = time.perf_counter()
        assert class_size(clique_less_one(n)) == (2 * n - 3) * math.factorial(n - 2)
        assert time.perf_counter() - start < 1.0

    def test_seeded_32_node_chordal_graph_under_a_second(self):
        """One connected 32-node chordal graph of 228 edges; the root-picking
        oracle gives the same count but takes about 20 s.  Relabelling the
        nodes changes the search order, so the clique tree, its root and
        every FP set, but not the count."""
        rng = np.random.default_rng(3)
        g = random_chordal(rng, 32)
        assert len(g.undirected_edges) == 228 and len(g.chain_components()) == 1
        start = time.perf_counter()
        assert class_size(g) == 377_702_110_218_240
        assert time.perf_counter() - start < 1.0
        for _ in range(5):
            order = [g.nodes[i] for i in rng.permutation(32)]
            assert class_size(reordered(g, order)) == 377_702_110_218_240

    def test_fp_keeps_only_separators_inside_the_clique(self):
        """Cliques V0V2V4 - V0V3V4 - V1V3V4, rooted at the first.  FP of
        V1V3V4 is {V3V4}; the separator V0V4 above it is not inside it.
        Taking FP as the intersections with the cliques above, {V3V4, V4},
        would also drop the order V4 V1 V3 of the last clique: 13."""
        g = PDAG([f"V{k}" for k in range(5)], undirected=[
            ("V0", "V2"), ("V0", "V3"), ("V0", "V4"), ("V1", "V3"), ("V1", "V4"),
            ("V2", "V4"), ("V3", "V4"),
        ])
        assert class_size(g) == 14 == len(listed(g)) == class_size_by_root_picking(g)

    def test_fp_walk_passes_separators_outside_the_clique(self):
        """Cliques AB - ACE - ACF - ADF, rooted at AB.  From ADF the walk
        meets its own separator AF (inside ADF), then ACF's, AC (not inside
        ADF but meeting it), then ACE's, A (inside ADF).  A walk stopped at
        AC would leave A out of FP(ADF) and count 19."""
        g = PDAG("ABCDEF", undirected=[
            ("A", "B"), ("A", "C"), ("A", "D"), ("A", "E"), ("A", "F"),
            ("C", "E"), ("C", "F"), ("D", "F"),
        ])
        assert class_size(g) == 18 == len(listed(g)) == class_size_by_root_picking(g)

    def test_cpdags_and_tiered_mpdags(self):
        rng = np.random.default_rng(137)
        sizes = []
        for _ in range(150):
            p = int(rng.integers(2, 10))
            c, tau, _ = random_cpdag_and_tau(rng, p, float(rng.uniform(1.0, 3.5)))
            for g in (c, tiered_mpdag(c, tau)):
                if len(g.undirected_edges) <= 14:
                    sizes.append(len(listed(g)))
                    assert class_size(g) == sizes[-1] == class_size_by_root_picking(g)
        assert max(sizes) > 100

    def test_cliques_cycles_and_dags(self, wave_dag):
        for n in range(1, 11):
            names = [f"V{k}" for k in range(n)]
            assert class_size(PDAG(names, undirected=itertools.combinations(names, 2))) == (
                math.factorial(n)
            )
        square = PDAG("ABCD", undirected=[("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])
        assert class_size(square) == 0 == len(listed(square))
        assert class_size(wave_dag) == 1

    def test_long_path(self):
        # one member per root, each rooted closure linear in the path
        assert class_size(band(300, 1)) == 300

    def test_admitted_random_pdags(self):
        """On random PDAGs and their closures, class_size counts the members
        of every graph whose undirected edges join nodes with the same
        parents, and refuses any other graph, naming its first undirected
        edge whose ends have different parents."""
        rng = np.random.default_rng(239)
        admitted = Counter()
        for trial in range(6000):
            g = random_pdag(rng, int(rng.integers(2, 8)))
            if trial % 2:
                try:
                    g = meek_closure(g, (1,) if trial % 4 == 1 else MEEK_RULES)
                except GraphError:
                    continue
            if len(g.undirected_edges) > 12:
                continue
            split = [(u, v) for u, v in g.undirected_edges if g.parents_of(u) != g.parents_of(v)]
            if split:
                admitted["refused"] += 1
                message = "^not a CPDAG or tiered MPDAG: the ends of %s - %s " % split[0]
                with pytest.raises(GraphError, match=message):
                    class_size(g)
                continue
            members = len(listed(g))
            assert class_size(g) == members == class_size_by_root_picking(g), g
            admitted[bool(g.undirected_edges), members > 0] += 1
        assert min(admitted.values()) > 20 and admitted[True, True] > 1000, admitted


def clique_less_one(n):
    """K_n on V0 .. V(n-1) less the edge V0 - V1."""
    names = [f"V{k}" for k in range(n)]
    return PDAG(names, undirected=[e for e in itertools.combinations(names, 2)
                                   if e != ("V0", "V1")])


def band(n, width):
    """Chordal band: node i adjacent to i+1 .. i+width."""
    names = [f"V{k}" for k in range(n)]
    return PDAG(names, undirected=[
        (names[i], names[j]) for i in range(n) for j in range(i + 1, min(n, i + width + 1))
    ])


# === the pass pays for what it changes: copy-on-write state, patched build


def unchecked_mixed(rng, p):
    """A mixed graph built without Kahn's check: often a directed cycle,
    sometimes nodes with only directed edges, sometimes none at all."""
    names = [f"V{k}" for k in range(p)]
    kind = rng.choice(3, size=(p, p), p=[0.5, 0.3, 0.2])  # absent, directed, undirected
    amat = np.triu(kind > 0, 1) | np.triu(kind == 2, 1).T
    amat |= np.tril(kind > 0, -1) & ~amat.T
    return pdag_from_amat_unchecked(names, amat)


def parsed(g):
    """``g`` read back from its file text: the loader's build, whose nodes
    without an edge of a kind share one empty set."""
    return parse_graph(format_graph(g))


def build_outcome(build):
    """The exact sets of the graph ``build()`` returns, or the exception
    type and message it raises."""
    try:
        g = build()
    except GraphError as exc:
        return type(exc), str(exc)
    return g.nodes, g._index, g._pa, g._ch, g._ne


def assert_patched_build(g, s):
    """``g._oriented`` on the orientation ``s`` of ``g``'s sets builds
    exactly what ``build_from_sets`` builds, checked or not, and shares
    the labels and the sets of every node it leaves as it was."""
    for check in (False, True):
        got = build_outcome(lambda: g._oriented(s[0], s[1], check=check))
        assert got == build_outcome(lambda: build_from_sets(g.nodes, s[0], s[1], check=check))
    new = g._oriented(s[0], s[1], check=False)
    assert new._names is g._names and new._index is g._index
    tails = {t for v in range(g.num_nodes) for t in new._pa[v] - g._pa[v]}
    for v in range(g.num_nodes):
        if len(s[1][v]) == len(g._ne[v]):
            assert new._pa[v] is g._pa[v] and new._ne[v] is g._ne[v]
        if v not in tails:
            assert new._ch[v] is g._ch[v]
    return len(tails)


class TestPatchedBuild:
    def test_state_shares_the_untouched_sets(self):
        rng = np.random.default_rng(311)
        shared = copied = 0
        for trial in range(200):
            p = int(rng.integers(2, 12))
            g = unchecked_mixed(rng, p) if trial % 2 else random_cpdag_and_tau(rng, p, 2.0)[0]
            if trial % 4 == 2:
                g = parsed(g)
            before = (g._pa, g._ch, g._ne)
            pa, ne, adj = s = orientation._state(g)
            for v in range(p):
                if g._ne[v]:
                    assert type(pa[v]) is set and type(ne[v]) is set
                    assert (pa[v], ne[v]) == (g._pa[v], g._ne[v])
                    assert adj[v] == g._pa[v] | g._ch[v] | g._ne[v]
                    copied += 1
                else:
                    assert pa[v] is g._pa[v] and ne[v] is g._ne[v] and adj[v] is None
                    shared += 1
            try:
                orientation._close(s, MEEK_RULES, g.nodes, arcs_into_neighbours(s))
            except InconsistentKnowledgeError:
                pass
            # orienting writes only to the copies: the graph is as it was
            assert (g._pa, g._ch, g._ne) == before
        assert shared > 200 and copied > 200, (shared, copied)

    def test_tiered_and_full_closures(self):
        """Random CPDAGs in a random node order under consistent and random
        orderings, closed under rule 1 and under rules 1-4."""
        rng = np.random.default_rng(313)
        outcomes = Counter()
        for trial in range(300):
            c, tau, _ = random_cpdag_and_tau(rng, int(rng.integers(2, 30)), 2.5)
            c = reordered(c, [c.nodes[k] for k in rng.permutation(c.num_nodes)])
            if trial % 2:
                c = parsed(c)
            if trial % 3 == 0:
                tau = TieredOrdering({v: int(rng.integers(0, 4)) for v in c.nodes})
            for rules in ((1,), MEEK_RULES):
                s = orientation._cross_tier_state(c, tau._tiers(c.nodes))[0]
                try:
                    orientation._close(s, rules, c.nodes, arcs_into_neighbours(s))
                except InconsistentKnowledgeError:
                    outcomes["conflict"] += 1
                    continue
                outcomes["patched" if assert_patched_build(c, s) else "unchanged"] += 1
        assert outcomes["patched"] > 200 and outcomes["unchanged"] > 20, outcomes
        assert outcomes["conflict"], outcomes

    def test_arbitrary_orientations_of_unchecked_graphs(self):
        """Graphs with and without directed cycles, some undirected edges
        oriented at random, sometimes closed: the checked builds raise the
        same ``CycleError``."""
        rng = np.random.default_rng(317)
        outcomes = Counter()
        for trial in range(400):
            g = unchecked_mixed(rng, int(rng.integers(2, 12)))
            s = orientation._state(g)
            for i, j in [(g.index_of(u), g.index_of(v)) for u, v in g.undirected_edges]:
                r = rng.random()
                if r < 0.6:
                    orientation._orient(s, *((i, j) if r < 0.3 else (j, i)))
            if trial % 2:
                try:
                    orientation._close(s, MEEK_RULES, g.nodes, arcs_into_neighbours(s))
                except InconsistentKnowledgeError:
                    continue
            assert_patched_build(g, s)
            cyclic = build_outcome(lambda: g._oriented(s[0], s[1]))[0] is CycleError
            outcomes["cycle" if cyclic else "acyclic"] += 1
        assert min(outcomes.values()) > 50, outcomes

    def test_class_members(self, monkeypatch):
        """Every graph branch and close (``leaves``) builds, members and
        dropped leaves alike, and every member ``enumerate_class`` builds,
        from graphs built by ``build_from_sets`` and by the loader."""
        built = Counter()
        graph = PDAG._oriented

        def both(g, pa, ne, check=True):
            with monkeypatch.context() as m:  # the checks below build unpatched
                m.setattr(PDAG, "_oriented", graph)
                expected = build_outcome(lambda: build_from_sets(g.nodes, pa, ne, check=check))
                assert build_outcome(lambda: graph(g, pa, ne, check)) == expected
                assert_patched_build(g, (pa, ne))
            built[expected[0] is CycleError] += 1
            return graph(g, pa, ne, check)

        monkeypatch.setattr(PDAG, "_oriented", both)
        rng = np.random.default_rng(331)
        for trial in range(250):
            p = int(rng.integers(2, 9))
            g = random_pdag(rng, p) if trial % 2 else random_cpdag_and_tau(rng, p, 3.0)[0]
            if len(g.undirected_edges) <= 10:
                class_outcome(parsed(g) if trial % 4 < 2 else g)
        assert built[False] > 500 and built[True] > 5, built

    def test_one_tier_vector_per_pass(self, wave_cpdag, wave_tau):
        """The pass reads each node's tier once, the consistency check and
        the orientation sharing one vector."""
        reads = Counter()

        class Counting(dict):
            def __getitem__(self, v):
                reads[v] += 1
                return super().__getitem__(v)

        expected = tiered_mpdag(wave_cpdag, wave_tau)
        tau = TieredOrdering(wave_tau.assignment)
        tau._assignment = Counting(tau._assignment)
        assert tiered_mpdag(wave_cpdag, tau) == expected
        assert reads == Counter(wave_cpdag.nodes)

    def test_tier_vector_follows_the_graph(self):
        """One ordering used on graphs with other node orders, and again on
        the first, gives what a fresh ordering gives each time."""
        rng = np.random.default_rng(337)
        for _ in range(40):
            c, tau, _ = random_cpdag_and_tau(rng, int(rng.integers(3, 25)), 2.5)
            shuffled = reordered(c, [c.nodes[k] for k in rng.permutation(c.num_nodes)])
            for g in (c, shuffled, c, c.undirected_subgraph(), shuffled):
                fresh = TieredOrdering(tau.assignment)
                assert tiered_mpdag(g, tau) == tiered_mpdag(g, fresh)
                assert check_consistency(g, tau) == check_consistency(g, fresh)
                assert tau._tiers(g.nodes) == tuple(map(tau.tier_of, g.nodes))

    def test_tier_vector_messages(self, wave_cpdag):
        names = list(wave_cpdag.nodes)
        cases = [
            ({v: 1 for v in names[2:]}, GraphError, "ordering does not cover nodes ['A', 'B']"),
            (
                {**{v: 1 for v in names}, "ZZZ": 2, "YYY": 0},
                GraphError,
                "ordering names nodes not in the graph: ['ZZZ', 'YYY']",
            ),
            (
                {"Z": 0, **{v: 1 for v in names}},
                GraphError,
                "ordering names nodes not in the graph: ['Z']",
            ),
            (
                {**{v: 2 for v in names}, "E": 1},
                InconsistentKnowledgeError,
                "ordering contradicts directed edges: B->E, D->E",
            ),
        ]
        for assignment, error, message in cases:
            for run in (check_consistency, impose_tiers, tiered_mpdag):
                if run is check_consistency and error is InconsistentKnowledgeError:
                    assert check_consistency(wave_cpdag, TieredOrdering(assignment))
                    continue
                with pytest.raises(error) as info:
                    run(wave_cpdag, TieredOrdering(assignment))
                assert str(info.value) == message

    def test_cpdag_of_labels_without_the_closure(self, monkeypatch):
        """``cpdag_of`` labels edges in one sweep of a topological order and
        never runs a Meek rule: on a 200-node path it leaves the skeleton, and
        on a collider it directs just the compelled arcs V2 -> V3 <- V5 and
        V3 -> V4, with ``_fires`` not called once."""
        fires = []
        original = orientation._fires
        monkeypatch.setattr(orientation, "_fires", lambda *a: fires.append(a[2:]) or original(*a))
        names = [f"V{k}" for k in range(200)]
        path = PDAG(names, directed=zip(names, names[1:]))
        assert cpdag_of(path) == path.skeleton()
        collider = PDAG(names, directed=[*zip(names[:4], names[1:5]), ("V5", "V3")])
        got = cpdag_of(collider)
        assert got.directed_edges == (("V2", "V3"), ("V3", "V4"), ("V5", "V3"))
        assert fires == []


class TestPartialOrderScope:
    """The tiered results need a total order of tiers.  Knowledge that orders
    only some pairs of tiers, its comparable cross-tier edges required, can
    need rules 2-4, and can leave a partially directed cycle or a chain
    component that is not chordal: three 4-node cases, each closed under
    rule 1 and rules 1-4 against the matrix sweep and read by the invariant
    oracles.  With the order of their tiers made total, each is a tiered
    MPDAG that ``tiered_mpdag`` builds."""

    @pytest.mark.parametrize(
        "undirected, tiers, ordered, expected",
        [
            (
                ["V0 V1", "V0 V2", "V1 V2", "V1 V3", "V2 V3"], [0, 0, 2, 3], {(0, 2)},
                {(1,): (True, False, "rule-1 sufficiency: rule 2 orients V1 -> V3"),
                 MEEK_RULES: (False, False, None)},
            ),
            (
                ["V0 V2", "V2 V3", "V0 V3"], [0, 1, 2, 3], {(0, 3)},
                dict.fromkeys([(1,), MEEK_RULES], (True, False, "partially directed cycle: "
                                                   "directed edge V0 -> V3 inside a chain component")),
            ),
            (
                ["V0 V1", "V0 V2", "V0 V3", "V1 V2", "V1 V3"], [0, 1, 2, 3], {(0, 1), (2, 3)},
                dict.fromkeys([(1,), MEEK_RULES], (True, True, "partially directed cycle: "
                                                   "directed edge V0 -> V1 inside a chain component")),
            ),
        ],
        ids=["rule-1-is-not-enough", "partially-directed-cycle", "chain-component-not-chordal"],
    )
    def test_partial_order_of_tiers(self, undirected, tiers, ordered, expected):
        names = [f"V{k}" for k in range(4)]
        c = PDAG(names, undirected=[tuple(e.split()) for e in undirected])
        tier = dict(zip(names, tiers))
        required = [(u, v) if tier[u] < tier[v] else (v, u) for u, v in c.undirected_edges
                    if tuple(sorted((tier[u], tier[v]))) in ordered]
        imposed = impose_knowledge(c, BackgroundKnowledge(required=required))
        for rules, (cycle, not_chordal, message) in expected.items():
            g = meek_closure(imposed, rules)
            assert (amat_of(g) == sweep_closure(amat_of(imposed), rules)[0]).all()
            assert has_partially_directed_cycle_bfs(amat_of(g)) == cycle
            assert has_chordless_cycle({v: set(g.neighbors_of(v)) for v in names}) == not_chordal
            got = invariants_outcome(require_invariants_scan, g)
            assert got == invariants_outcome(certificate, g)
            assert (got and got[1]) == message
        total = tiered_mpdag(c, TieredOrdering(tier))
        every = [(u, v) if tier[u] < tier[v] else (v, u) for u, v in c.undirected_edges
                 if tier[u] != tier[v]]
        assert total == mpdag_of(c, BackgroundKnowledge(required=every))
