"""Each stage of the tiered pass walks only the nodes with an undirected edge,
listed once per graph.

Every stage is checked against its full walk over all nodes in
``tests/oracles.py``, or given every node to walk: the same sets, the same
frozensets shared with the input where a node stays as it was, and the same
exceptions with the same messages.  Inputs are CPDAGs with their nodes in a
shuffled order, with isolated nodes, with nodes that have arcs only, and with
no undirected edge at all; orderings are consistent, random, short of one or
two nodes or naming one more."""

import itertools as itr

import numpy as np
import pytest

from causaltiers import (BackgroundKnowledge, GraphError, PDAG, TieredOrdering, check_consistency,
                         cpdag_of, format_graph, impose_knowledge, meek_closure, orientation,
                         parse_graph, tiered_mpdag)
from causaltiers.orientation import (MEEK_RULES, InconsistentKnowledgeError, InvariantError,
                                     require_consistency)

import oracles
from conftest import inner_arc_close


def outcome(run):
    """``("ok", result)``, or the type and message of the error ``run`` raised."""
    try:
        return "ok", run()
    except ValueError as exc:  # GraphError and its subclasses
        return type(exc), str(exc)


def walk_input(rng):
    """A CPDAG in a shuffled node order and one topological order of its nodes.

    The DAG behind it: 0-10 nodes ``V*`` with arcs along their index (all of
    them one time in five, which leaves them undirected), 0-3 isolated nodes
    ``I*`` and, half the time, a collider ``A -> C <- B`` whose nodes have arcs
    only.  With no ``V*`` node nothing is undirected."""
    p = int(rng.integers(0, 11))
    names = [f"V{k}" for k in range(p)]
    q = 1.0 if rng.random() < 0.2 else rng.uniform(0.1, 0.8)
    arcs = [(names[i], names[j]) for i, j in itr.combinations(range(p), 2) if rng.random() < q]
    order = names + [f"I{k}" for k in range(int(rng.integers(0, 4)))]
    if rng.random() < 0.5 or not order:
        order += ["A", "B", "C"]
        arcs += [("A", "C"), ("B", "C")]
    c = cpdag_of(PDAG(order, directed=arcs))
    shuffled = [c.nodes[k] for k in rng.permutation(c.num_nodes)]
    return PDAG(shuffled, directed=c.directed_edges, undirected=c.undirected_edges), order


def orderings(rng, order):
    """A consistent ordering (levels that never fall along ``order``), a random
    one, the consistent one short of one or two nodes (if it has two or more)
    and with one more."""
    tier, level = {}, 1
    for v in order:
        level += int(rng.random() < 0.4)
        tier[v] = level
    out = [TieredOrdering(tier), TieredOrdering({v: int(rng.integers(1, 4)) for v in order})]
    if len(order) > 1:
        gone = rng.choice(len(order), size=int(rng.integers(1, min(3, len(order)))), replace=False)
        out.append(TieredOrdering({v: tier[v] for k, v in enumerate(order) if k not in gone}))
    out.append(TieredOrdering({**tier, "X": int(rng.integers(1, 4))}))
    return out


def certified_alike(c, s):
    """Does the certificate give the result built from ``s`` the same verdict
    at ``c``'s nodes with an undirected edge as at every node, with the
    chordality search and without?"""
    g, u = c._oriented(s[0], s[1], False), c._with_neighbours()
    for search in (False, True):
        want = outcome(lambda: orientation._require_invariants(g, s, search, range(c.num_nodes)))
        assert outcome(lambda: orientation._require_invariants(g, s, search, u)) == want
    return want[0] == "ok"


def shared(s, g):
    """Per node, whether the sets of the state or graph ``s`` are ``g``'s own objects."""
    return [tuple(a is b for a, b in zip(mine, theirs)) for mine, theirs in zip(s, g)]


def full_walk_pass(c, ordering, rules):
    """The one-ordering tiered pass with the stages that walk every node."""
    orientation._require_shared_parents(c)
    require_consistency(c, ordering)
    s, oriented = oracles.cross_tier_state_full_walk(c, ordering._tiers(c.nodes))
    trace = orientation._close(s, rules, c.nodes, oriented)
    g = oracles.oriented_full_walk(c, s[0], s[1], False)
    orientation._require_invariants(g, s, True, range(c.num_nodes))
    oracles.require_no_new_v_structures_full_walk(c, s)
    return g, trace


def with_neighbours(g):
    """The ascending indices of the ends of ``g``'s undirected edges."""
    return tuple(sorted({g.index_of(x) for edge in g.undirected_edges for x in edge}))


def derived(rng, c, order):
    """Graphs built from ``c`` by each constructor and derivation: the
    constructor, the loader, ``cpdag_of`` of the DAG behind ``c``, the tiered
    pass under two consistent orderings and ``tiered_mpdag``, knowledge that
    orients one undirected edge along ``order`` and its closure, the skeleton,
    the undirected part and an induced subgraph."""
    at = {v: k for k, v in enumerate(order)}
    along = [(a, b) if at[a] < at[b] else (b, a) for a, b in c.undirected_edges]
    t1, t2 = orderings(rng, order)[0], orderings(rng, order)[0]
    imposed = impose_knowledge(c, BackgroundKnowledge(required=along[:1]))
    keep = [v for v in c.nodes if rng.random() < 0.7]
    return [PDAG(c.nodes, c.directed_edges, c.undirected_edges), parse_graph(format_graph(c)),
            cpdag_of(PDAG(c.nodes, directed=[*c.directed_edges, *along])),
            *(g for g, _ in orientation._orient_tiered(c, (t1, t2), (1,))),
            tiered_mpdag(c, t1), imposed, meek_closure(imposed), c.skeleton(),
            c.undirected_subgraph(), c.induced_subgraph(keep)]


def test_nodes_with_neighbours():
    """Each graph lists its own nodes with an undirected edge, whatever built
    it.  The input lists its nodes first, so a derivation that carried that
    listing over would fail where orienting left a node with no undirected edge."""
    rng = np.random.default_rng(381)
    fewer = 0
    for _ in range(100):
        c, order = walk_input(rng)
        assert c._with_neighbours() == with_neighbours(c)
        for g in derived(rng, c, order):
            assert g._with_neighbours() == with_neighbours(g)
            assert g._with_neighbours() is g._with_neighbours()  # listed once
            fewer += g.nodes == c.nodes and g._with_neighbours() != c._with_neighbours()
    assert fewer > 100, fewer


def test_states_match_the_full_walks():
    """``_state`` and ``_cross_tier_state`` at the nodes with a neighbour."""
    rng = np.random.default_rng(382)
    kinds = set()
    for _ in range(300):
        c, order = walk_input(rng)
        u, sets = c._with_neighbours(), (c._pa, c._ne)
        kinds.add((bool(u), len(u) < c.num_nodes))
        want, got = oracles.state_full_walk(c), orientation._state(c)
        assert got == want and shared(got[:2], sets) == shared(want[:2], sets)
        for ordering in orderings(rng, order):
            if set(ordering.nodes) < set(c.nodes):
                continue  # no tier vector
            tier = [ordering._assignment.get(v) for v in c.nodes]
            want, oriented = oracles.cross_tier_state_full_walk(c, tier)
            got = orientation._cross_tier_state(c, tier)
            assert got == (want, oriented)
            assert shared(got[0][:2], sets) == shared(want[:2], sets)
    assert kinds == {(False, True), (True, True), (True, False)}, kinds


def test_consistency_check_matches_the_full_walk():
    """The same edges, or the same refusal, for every kind of ordering."""
    rng = np.random.default_rng(383)
    seen = set()
    for _ in range(300):
        c, order = walk_input(rng)
        for ordering in orderings(rng, order):
            want = outcome(lambda: oracles.check_consistency_full_walk(c, ordering))
            assert outcome(lambda: check_consistency(c, ordering)) == want
            seen.add(" ".join(want[1].split()[:3]) if want[0] != "ok" else bool(want[1]))
    assert seen == {True, False, "ordering does not", "ordering names nodes"}, seen


def test_closed_states_match_the_full_walks():
    """Before and after the closure, the shared-parents test and the certificate;
    after it, the new v-structure check and the built graph, checked and
    unchecked, with the same sets shared."""
    rng = np.random.default_rng(384)
    seen = set()
    for _ in range(300):
        c, order = walk_input(rng)
        u = c._with_neighbours()
        for ordering in orderings(rng, order):
            if not set(c.nodes) <= set(ordering.nodes):
                continue  # no tier vector
            s, oriented = orientation._cross_tier_state(c, ordering._tiers(c.nodes))
            before = oracles.shares_parents_full_walk(s[0], s[1])
            assert orientation._shares_parents(s[0], s[1], u) == before
            seen.add(("certified before closure", certified_alike(c, s)))
            closed = outcome(lambda: orientation._close(s, MEEK_RULES, c.nodes, oriented))
            if closed[0] != "ok":
                seen.add("closure")
                continue
            after = oracles.shares_parents_full_walk(s[0], s[1])
            assert orientation._shares_parents(s[0], s[1], u) == after
            assert certified_alike(c, s)
            want = outcome(lambda: oracles.require_no_new_v_structures_full_walk(c, s))
            assert outcome(lambda: orientation._require_no_new_v_structures(c, s)) == want
            seen.add((before, after, want[0] == "ok"))
            for check in (False, True):
                g, h = c._oriented(s[0], s[1], check), oracles.oriented_full_walk(c, *s[:2], check)
                assert (g._pa, g._ch, g._ne) == (h._pa, h._ch, h._ne)
                sets = (c._pa, c._ch, c._ne)
                assert shared((g._pa, g._ch, g._ne), sets) == shared((h._pa, h._ch, h._ne), sets)
                assert g._names is c._names and g._index is c._index
    assert {"closure", (False, True, True), (True, True, True)} <= seen, seen
    assert any(len(x) == 3 and not x[2] for x in seen if isinstance(x, tuple)), seen
    assert {("certified before closure", False), ("certified before closure", True)} <= seen


@pytest.mark.parametrize("stub", [None, inner_arc_close], ids=["closure", "inner-arc"])
def test_pass_matches_the_full_walk_pass(monkeypatch, stub):
    """``_orient_tiered`` with one ordering, under rule 1 and rules 1-4: the
    same graph and trace, or the same error, as the pass of full walks; also
    with a closure that orients one more arc inside a chain component, which
    the certificate refuses."""
    if stub:
        monkeypatch.setattr(orientation, "_close", stub)
    rng = np.random.default_rng(385)
    seen = set()
    for _ in range(200):
        c, order = walk_input(rng)
        for ordering, rules in itr.product(orderings(rng, order), ((1,), MEEK_RULES)):
            want = outcome(lambda: full_walk_pass(c, ordering, rules))
            got = outcome(lambda: orientation._orient_tiered(c, (ordering,), rules)[0])
            if want[0] == "ok":
                (g, trace), (h, expected) = got[1], want[1]
                assert (g._pa, g._ch, g._ne, trace) == (h._pa, h._ch, h._ne, expected)
            else:
                assert got == want
            seen.add(want[0])
    assert {"ok", InconsistentKnowledgeError, GraphError} <= seen, seen
    assert (InvariantError in seen) == bool(stub), seen
