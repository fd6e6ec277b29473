"""Independent brute-force implementations used as test oracles.

Everything here is deliberately written against plain dict/set/bitmask
representations, or against raw boolean matrices with none of the
library's graph code, so a bug in the production code cannot hide in
its oracle.  The per-ordering loops at the end are the exception: they
reuse the library's per-pair path search and check only how its paths
are combined.  So are ``apply_meek_rule``, one sweep of one rule on the
library's sets, which the tests check against the matrix sweep here,
``round_closure`` and ``require_invariants_scan``, the closure and the
invariant checks that the frontier closure and the certificate replaced,
``orient_tiered_full_scan``, the tiered pass before its closure started
from the frontier of the cross-tier orientations, ``orient_tiered_each``
with ``require_chordal_part``, one pass per ordering and the comparison's
own admission, before one pass took all of an input's orderings,
``partially_directed_cycle_near_components`` and
``rule1_closed_without_partial_cycle``, the contraction that rewrote only
the lists in and next to chain components and the certificate's pass
test that the shared-parents test replaced,
``cpdag_by_meek_closure`` and ``local_ida_by_subsets``, the CPDAG
construction and the local parent-set scan that closing the parent sets
directly and clique extension replaced, ``joint_ida_branch_and_close``
with ``query_leaves``, the joint count by branch and close at the query
nodes that root picking carrying their parent sets replaced,
``amo_count_by_root_picking`` with ``completions_by_root_picking``,
``class_size_by_root_picking`` and ``joint_ida_by_root_picking``, the
root picking that clique picking replaced, ``component_paths`` with
``earliest_by_extension``, the path list and the per-path earliest filter
that the prefix tree of the unshielded paths replaced,
``compare_by_path_tree`` with its path tree, floors read off the tree
and per-path first edges, the comparison that the per-edge floors
replaced, ``unshielded_walk``, ``is_earliest`` and
``report_paths_by_walk``, the walk over every unshielded path and the
per-path earliest test that the report's floor-pruned walk replaced,
``adjustment_counterexample_bfs``, the length-bounded search that the
adjustment check ran before the partially directed cycle test decided it,
``floors_from_every_node``, the edge-floor search before it skipped isolated
starts and took the least of both directions without ``min``, ``leaves``,
the branch and close that listed a class before the listing came from clique
picking, ``markov_equivalent``, ``directed_subgraph`` and
``fully_shielded_edges``, the library names that only the tests used, the
moved generators:
``er_skeleton_one_draw``, the ER generator that drew every pair's uniform
at once, ``power_skeleton_by_choice``, the preferential attachment that called
``rng.choice`` for each pick, and ``power_skeleton_spelled_out``, the float
cdf per pick that the Fenwick descent replaced, ``build_two_pass``, the graph build from
index pairs that the one-pass build replaced, and ``build_from_sets``, the
build from per-node index sets that derived graphs, ``cpdag_of`` and
``random_dag`` used before they handed their edge pairs to the same pass,
and ``state_full_walk``, ``cross_tier_state_full_walk``,
``oriented_full_walk``, ``require_no_new_v_structures_full_walk``,
``shares_parents_full_walk`` and ``check_consistency_full_walk``, the stages
of the tiered pass as they walked every node before they walked only the
nodes with an undirected edge, and the coverage check before it read the
tier vector first.
"""

from __future__ import annotations

import itertools as itr
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np

from causaltiers import orientation
from causaltiers.graphs import (
    CycleError,
    GraphError,
    LimitError,
    PDAG,
    _component_labels,
    _directed_cycle,
    v_structures,
)
from causaltiers.ida import ParentSetMultiset
from causaltiers.orientation import (
    MEEK_RULES,
    BackgroundKnowledge,
    InconsistentKnowledgeError,
    InvariantError,
    impose_tiers,
    meek_closure,
    require_consistency,
    tiered_mpdag,
)
from causaltiers.simulation import _geometric_radius
from causaltiers.tiers import (
    CrossTierEdgeReport,
    Informativeness,
    IncompatibleOrderingsError,
    InformativenessResult,
    Refinement,
    TierEquivalence,
    _shielded,
    contained_in,
    first_cross_tier_edges,
)


def is_acyclic(arcs, p: int) -> bool:
    children = {i: set() for i in range(p)}
    indeg = {i: 0 for i in range(p)}
    for a, b in arcs:
        children[a].add(b)
        indeg[b] += 1
    queue = [v for v in range(p) if indeg[v] == 0]
    removed = 0
    while queue:
        v = queue.pop()
        removed += 1
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return removed == p


def all_dags(p: int) -> list[frozenset]:
    """Every labelled DAG on p nodes, as frozensets of (tail, head) arcs."""
    pairs = list(itr.combinations(range(p), 2))
    out = []
    arcs: list[tuple[int, int]] = []

    def rec(k: int):
        if k == len(pairs):
            if is_acyclic(arcs, p):
                out.append(frozenset(arcs))
            return
        i, j = pairs[k]
        rec(k + 1)
        for arc in ((i, j), (j, i)):
            arcs.append(arc)
            rec(k + 1)
            arcs.pop()

    rec(0)
    return out


def descendants(arcs, v) -> set:
    children: dict = {}
    for a, b in arcs:
        children.setdefault(a, set()).add(b)
    seen = set()
    stack = [v]
    while stack:
        x = stack.pop()
        for w in children.get(x, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def dsep_oracle(arcs, p: int, a_set, b_set, c_set) -> bool:
    """d-separation by exhaustive enumeration of simple paths.

    A path d-connects given C when every collider on it is in C or has
    a descendant in C, and no non-collider on it is in C.
    """
    arcs = set(arcs)
    adj = {i: set() for i in range(p)}
    for x, y in arcs:
        adj[x].add(y)
        adj[y].add(x)
    c_set = set(c_set)
    desc_hits = {
        v: (v in c_set or bool(descendants(arcs, v) & c_set)) for v in range(p)
    }

    def connecting(path) -> bool:
        for k in range(1, len(path) - 1):
            prev, v, nxt = path[k - 1], path[k], path[k + 1]
            collider = (prev, v) in arcs and (nxt, v) in arcs
            if collider:
                if not desc_hits[v]:
                    return False
            else:
                if v in c_set:
                    return False
        return True

    for s in a_set:
        for t in b_set:
            stack = [(s, [s])]
            while stack:
                v, path = stack.pop()
                if v == t:
                    if connecting(path):
                        return False
                    continue
                for w in adj[v]:
                    if w not in path:
                        stack.append((w, path + [w]))
    return True


def independence_model(arcs, p: int) -> frozenset:
    """All pairwise d-separation statements (a, b, C) with singleton
    endpoints and every conditioning subset; identical models identify
    Markov-equivalent DAGs."""
    stmts = set()
    for a, b in itr.combinations(range(p), 2):
        rest = [v for v in range(p) if v not in (a, b)]
        for r in range(len(rest) + 1):
            for c in itr.combinations(rest, r):
                if dsep_oracle(arcs, p, {a}, {b}, set(c)):
                    stmts.add((a, b, frozenset(c)))
    return frozenset(stmts)


def vstructs_triple_scan(directed_pairs, adjacent) -> frozenset:
    """Unshielded colliders by scanning all pairs of directed edges.

    ``adjacent`` is a predicate on node pairs.  Triples are normalised
    as (frozenset of parents, collider) to stay label-order agnostic.
    """
    directed_pairs = set(directed_pairs)
    out = set()
    for a, b in directed_pairs:
        for c, b2 in directed_pairs:
            if b2 == b and c != a and not adjacent(a, c):
                out.add((frozenset((a, c)), b))
    return frozenset(out)


def vstructs_of_arcset(arcs) -> frozenset:
    """V-structures of a pure DAG given as integer arcs."""
    arcs = set(arcs)
    adj = {(a, b) for a, b in arcs} | {(b, a) for a, b in arcs}
    out = set()
    for a, b in arcs:
        for c, b2 in arcs:
            if b2 == b and c != a and (a, c) not in adj:
                out.add((min(a, c), b, max(a, c)))
    return frozenset(out)


def markov_equivalent(d1: PDAG, d2: PDAG) -> bool:
    """Same skeleton and same v-structures, for two DAGs on one node set
    (else :class:`GraphError`)."""
    if not (d1.is_directed and d2.is_directed):
        raise GraphError("this operation is defined for DAGs only")
    if set(d1.nodes) != set(d2.nodes):
        raise GraphError("graphs must share the same node set")
    # a v-structure's two parents come in index order, which node order sets
    v1, v2 = ({(frozenset((a, c)), b) for a, b, c in v_structures(d)} for d in (d1, d2))
    return d1.skeleton() == d2.skeleton() and v1 == v2


def directed_subgraph(g: PDAG) -> PDAG:
    """Same nodes, only the directed edges."""
    return PDAG._from_pairs(g.nodes, g._index, g._pairs()[0], ())


def fully_shielded_edges(h: PDAG) -> list:
    """Edges occurring on no unshielded path: both endpoints have the same
    adjacency set apart from each other.  On the skeleton, in canonical order."""
    return [(h.nodes[i], h.nodes[j]) for i, j in _shielded(h._adjacency())]


def has_chordless_cycle(adj: dict) -> bool:
    """Does an undirected graph contain an induced cycle of length >= 4?

    A chordless cycle on a node subset S shows up as an induced subgraph
    where every node has degree exactly 2 within S and S is connected.
    """
    nodes = sorted(adj)
    for r in range(4, len(nodes) + 1):
        for subset in itr.combinations(nodes, r):
            inside = set(subset)
            degs = [len(adj[v] & inside) for v in subset]
            if any(d != 2 for d in degs):
                continue
            seen = {subset[0]}
            stack = [subset[0]]
            while stack:
                v = stack.pop()
                for w in adj[v] & inside:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == r:
                return True
    return False


def consistent_extensions(skeleton_pairs, directed_arcs, target_vstructs, p):
    """All orientations of the undirected pairs that keep the graph
    acyclic and reproduce exactly the target v-structures."""
    out = []
    und = list(skeleton_pairs)
    for mask in range(1 << len(und)):
        arcs = set(directed_arcs)
        for bit, (i, j) in enumerate(und):
            arcs.add((j, i) if mask >> bit & 1 else (i, j))
        if is_acyclic(arcs, p) and vstructs_of_arcset(arcs) == target_vstructs:
            out.append(frozenset(arcs))
    return out


def paths_recursive(adj: dict, order: dict, s, t, max_edges=None, unshielded=False) -> list:
    """Simple paths s ... t by recursive depth-first search over the
    adjacency sets ``adj``, neighbours visited in ``order``; at most
    ``max_edges`` edges, and with ``unshielded`` no triple whose ends
    are adjacent."""
    out = []
    path = [s]

    def extend():
        if max_edges is not None and len(path) > max_edges:
            return
        for w in sorted(adj[path[-1]], key=order.__getitem__):
            if w in path or (unshielded and len(path) > 1 and w in adj[path[-2]]):
                continue
            path.append(w)
            if w == t:
                out.append(tuple(path))
            else:
                extend()
            path.pop()

    extend()
    return out


def adjustment_counterexample_scan(g: PDAG, max_path_edges: int) -> tuple | None:
    """The first simple path of at most ``max_path_edges`` edges, over
    ordered node pairs and then depth first by node index, that is
    possibly causal (no edge of the path points back) but not b-possibly
    causal (some edge of the graph points from a later path node to an
    earlier one); None if there is none.  Exponential: it scans every
    path."""
    adj = {v: set(g.adjacent_to(v)) for v in g.nodes}
    order = {v: i for i, v in enumerate(g.nodes)}
    for s, t in itr.permutations(g.nodes, 2):
        for path in paths_recursive(adj, order, s, t, max_edges=max_path_edges):
            plain = not any(g.has_directed(b, a) for a, b in zip(path, path[1:]))
            strict = not any(g.has_directed(b, a) for a, b in itr.combinations(path, 2))
            if plain != strict:
                return path
    return None


def adjustment_counterexample_bfs(g: PDAG, max_path_edges: int) -> tuple | None:
    """The path that the adjustment check returned while it took a length
    bound: per directed edge u -> v in canonical order, a breadth-first
    search from v along forward and undirected edges, neighbours by index,
    cut after ``max_path_edges`` layers; the first search path that
    reaches u, read from v to u, or None if none does within the bound."""
    step = [sorted(ch | ne) for ch, ne in zip(g._ch, g._ne)]
    for u, heads in enumerate(g._ch):
        for v in sorted(heads):
            prev, layer = {v: v}, [v]
            for _ in range(min(max_path_edges, g.num_nodes)):
                reached = []
                for x in layer:
                    for w in step[x]:
                        if w not in prev:
                            prev[w] = x
                            reached.append(w)
                layer = reached
                if u in prev:
                    path = [u]
                    while path[-1] != v:
                        path.append(prev[path[-1]])
                    return tuple(g.nodes[i] for i in path[::-1])
    return None


def quantile_sorted(values, q: float) -> float:
    """Sort-based quantile with linear interpolation between order stats."""
    data = sorted(values)
    if not data:
        raise ValueError("empty data")
    if len(data) == 1:
        return float(data[0])
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return float(data[lo] * (1 - frac) + data[hi] * frac)


def multiplicity_ratios_equal(m1: dict, m2: dict) -> bool:
    """Exact rational check that two multisets have proportional counts
    on their (identical) support."""
    if set(m1) != set(m2):
        return False
    items = sorted(m1, key=str)
    base = items[0]
    ref = Fraction(m1[base], m2[base])
    return all(Fraction(m1[e], m2[e]) == ref for e in items)


def cross_tier_pairs(undirected_pairs, tier: dict) -> set:
    """Each undirected pair whose endpoints lie in different tiers, as
    ``(earlier, later)``."""
    return {
        (u, v) if tier[u] < tier[v] else (v, u)
        for u, v in undirected_pairs
        if tier[u] != tier[v]
    }


# === Meek closure by sweeping every node pair of an adjacency matrix


class SweepConflict(ValueError):
    """A rule orients the pair both ways; ``tail`` and ``head`` are the
    indices of the second of the two firings."""

    def __init__(self, tail: int, head: int):
        super().__init__(tail, head)
        self.tail, self.head = tail, head


def sweep_firings(amat: np.ndarray, rule: int) -> list[tuple[int, int]]:
    """All orientations ``rule`` induces on ``amat`` (``amat[i, j]`` and
    not ``amat[j, i]`` is i -> j; both is i - j), matched as induced
    subgraphs and collected in canonical edge order without applying them."""
    d = amat & ~amat.T
    u = amat & amat.T
    adj = amat | amat.T
    fired = []
    p = amat.shape[0]
    for i in range(p):
        for j in range(i + 1, p):
            if not u[i, j]:
                continue
            for tail, head in ((i, j), (j, i)):
                if _sweep_fires(rule, d, u, adj, tail, head):
                    fired.append((tail, head))
    return fired


def _sweep_fires(rule: int, d, u, adj, b: int, c: int) -> bool:
    """Does ``rule`` orient the undirected edge b - c as b -> c?"""
    if rule == 1:
        # a -> b - c with a, c non-adjacent
        return bool(np.any(d[:, b] & ~adj[:, c] & ~adj[c, :]))
    if rule == 2:
        # b -> x -> c with b - c
        return bool(np.any(d[b, :] & d[:, c]))
    if rule == 3:
        # b - x, b - y, x -> c, y -> c, x and y non-adjacent
        cand = np.nonzero(u[b, :] & d[:, c])[0]
        return any(not adj[x, y] for x, y in itr.combinations(cand, 2))
    # rule 4: b - x, b - y, x -> y, y -> c, x and c non-adjacent
    return any(
        np.any(u[b, :] & d[:, y] & ~adj[:, c] & ~adj[c, :])
        for y in np.nonzero(u[b, :] & d[:, c])[0]
    )


def sweep_apply(amat: np.ndarray, fired) -> None:
    """Orient every firing in ``amat`` in place; raises
    :class:`SweepConflict` at the first pair fired both ways."""
    oriented: dict[frozenset, tuple[int, int]] = {}
    for tail, head in fired:
        prev = oriented.setdefault(frozenset((tail, head)), (tail, head))
        if prev != (tail, head):
            raise SweepConflict(tail, head)
        amat[head, tail] = False


def sweep_closure(amat: np.ndarray, rules) -> tuple[np.ndarray, list]:
    """Fixpoint of ``rules`` by repeated sweeps: in each round, each rule
    in turn collects all its firings over every node pair, then applies
    them.  Returns the closed matrix and the ``(rule, tail, head)`` trace."""
    amat = amat.copy()
    trace = []
    changed = True
    while changed:
        changed = False
        for rule in rules:
            fired = sweep_firings(amat, rule)
            if fired:
                sweep_apply(amat, fired)
                trace.extend((rule, t, h) for t, h in fired)
                changed = True
    return amat, trace


# === the p x p matrix view the graph core once stored
#
# ``amat[i, j]`` and not ``amat[j, i]`` is i -> j; both is i - j.  Graphs
# cross between the two views only through the public constructor and
# the public edge lists.


def amat_of(g) -> np.ndarray:
    """The adjacency matrix of ``g``, rows and columns in node order."""
    amat = np.zeros((g.num_nodes, g.num_nodes), dtype=bool)
    for u, v in g.directed_edges:
        amat[g.index_of(u), g.index_of(v)] = True
    for u, v in g.undirected_edges:
        i, j = g.index_of(u), g.index_of(v)
        amat[i, j] = amat[j, i] = True
    return amat


def build_from_sets(names, pa, ne, check: bool = True) -> PDAG:
    """The PDAG whose nodes have the parent and neighbour index sets ``pa``
    and ``ne``, each slot frozen on its own, children derived in a second
    loop; ``check`` false leaves a directed cycle for the caller to find."""
    ch = [set() for _ in names]
    for j, tails in enumerate(pa):
        for i in tails:
            ch[i].add(j)
    frozen = (tuple(map(frozenset, x)) for x in (pa, ch, ne))
    return PDAG.__new__(PDAG)._store(names, {v: i for i, v in enumerate(names)}, *frozen, check)


def pdag_from_amat_unchecked(names, amat: np.ndarray) -> PDAG:
    """The PDAG with the edges of ``amat``, built without the constructor's
    directed-cycle check, as the tiered pass builds its result."""
    d, u = amat & ~amat.T, amat & amat.T
    pa = [np.nonzero(d[:, j])[0].tolist() for j in range(len(names))]
    ne = [np.nonzero(u[i])[0].tolist() for i in range(len(names))]
    return build_from_sets(names, pa, ne, check=False)


def pdag_from_amat(names, amat: np.ndarray) -> PDAG:
    """``PDAG(names, ...)`` with the edges of ``amat``."""
    d, u = amat & ~amat.T, np.triu(amat & amat.T)
    return PDAG(
        names,
        directed=[(names[i], names[j]) for i, j in zip(*np.nonzero(d))],
        undirected=[(names[i], names[j]) for i, j in zip(*np.nonzero(u))],
    )


def partially_directed_cycle_amat(amat: np.ndarray, names) -> str | None:
    """The partially-directed-cycle witness text, from the matrix: the
    first directed edge inside a chain component in row-major order, else
    the first mutual pair of the contracted graph, else the cycle
    :func:`directed_cycle_per_node` finds in it."""
    p = amat.shape[0]
    u = amat & amat.T
    label = np.full(p, -1)
    for start in range(p):
        if label[start] < 0:
            label[start] = start
            queue = deque([start])
            while queue:
                for w in np.nonzero(u[queue.popleft()] & (label < 0))[0]:
                    label[w] = start
                    queue.append(w)
    tails, heads = np.nonzero(amat & ~amat.T)
    inner = np.flatnonzero(label[tails] == label[heads])
    if inner.size:
        i, j = tails[inner[0]], heads[inner[0]]
        return f"directed edge {names[i]} -> {names[j]} inside a chain component"
    contracted = np.zeros((p, p), dtype=bool)
    contracted[label[tails], label[heads]] = True
    mutual = np.argwhere(contracted & contracted.T)
    cycle = [*mutual[0], mutual[0][0]] if mutual.size else directed_cycle_per_node(contracted)
    if cycle is None:
        return None
    members = [",".join(str(names[v]) for v in np.nonzero(label == k)[0]) for k in cycle]
    return "chain components cycle {" + "} -> {".join(members) + "}"


# === the invariant checks and generators the linear-time versions replaced
#
# Earlier library code, kept verbatim in substance: quadratic scans over
# raw matrices, one numpy call per node or per pair.


def directed_cycle_per_node(amat: np.ndarray) -> list[int] | None:
    """Kahn's algorithm with one ``np.nonzero`` per removed node; the
    cycle is walked back from the lowest remaining node, each step to
    its lowest remaining predecessor."""
    d = amat & ~amat.T
    p = amat.shape[0]
    indeg = d.sum(axis=0).astype(int)
    queue = deque(i for i in range(p) if indeg[i] == 0)
    removed = 0
    alive = np.ones(p, dtype=bool)
    while queue:
        v = queue.popleft()
        alive[v] = False
        removed += 1
        for w in np.nonzero(d[v])[0]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(int(w))
    if removed == p:
        return None
    start = int(np.nonzero(alive)[0][0])
    seen = {start: 0}
    walk = [start]
    v = start
    while True:
        v = int(np.nonzero(d[:, v] & alive)[0][0])
        if v in seen:
            return [v] + walk[seen[v] :][::-1]
        seen[v] = len(walk)
        walk.append(v)


def _reaches(semi: np.ndarray, start: int, goal: int) -> bool:
    """BFS along rows of ``semi`` (edge i -> j iff semi[i, j])."""
    seen = np.zeros(semi.shape[0], dtype=bool)
    seen[start] = True
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v == goal:
            return True
        nxt = np.nonzero(semi[v] & ~seen)[0]
        seen[nxt] = True
        queue.extend(int(w) for w in nxt)
    return False


def has_partially_directed_cycle_bfs(amat: np.ndarray) -> bool:
    """A directed edge a -> b closes a partially directed cycle iff a is
    reachable from b along directed-forward or undirected edges."""
    d = amat & ~amat.T
    return any(_reaches(amat, int(j), int(i)) for i, j in zip(*np.nonzero(d)))


def non_simplicial_max_mcs(amat: np.ndarray) -> int | None:
    """Maximum cardinality search by ``max()`` over the unnumbered set
    (heaviest, then lowest index) and the perfect-elimination check:
    the lowest node whose later neighbours are not all adjacent, or None."""
    p = amat.shape[0]
    adj = [set(np.nonzero(amat[i])[0]) for i in range(p)]
    weight = [0] * p
    number = [0] * p
    unnumbered = set(range(p))
    for num in range(p, 0, -1):
        z = max(unnumbered, key=lambda v: (weight[v], -v))
        unnumbered.discard(z)
        number[z] = num
        for y in adj[z]:
            if y in unnumbered:
                weight[y] += 1
    for v in range(p):
        later = {w for w in adj[v] if number[w] > number[v]}
        if not later:
            continue
        u = min(later, key=lambda w: number[w])
        if not (later - {u}) <= adj[u]:
            return v
    return None


def full_closure_equals(imposed, g) -> bool:
    """Rule-1 sufficiency as a second closure from scratch: the full
    closure of the imposed graph equals the rule-1 result ``g``."""
    return g == meek_closure(imposed, MEEK_RULES)


def apply_meek_rule(g, rule: int):
    """One full sweep of a single Meek rule: the library's firing pass of
    one rule, applied once (the closure runs it round after round).

    Returns the updated graph and the newly oriented edges in canonical
    order.  A fixpoint returns the graph unchanged with an empty list.
    """
    s = orientation._state(g)
    fired = orientation._firings(s, rule, g.nodes, undirected_pairs(s[1]))
    for tail, head in fired:
        orientation._orient(s, tail, head)
    return g._oriented(s[0], s[1]), [(g.nodes[t], g.nodes[h]) for t, h in fired]


def undirected_pairs(ne) -> list[tuple[int, int]]:
    """Every undirected edge of the neighbour sets ``ne``, as pairs i < j in
    canonical order."""
    return sorted((i, j) for i, nb in enumerate(ne) for j in nb if i < j)


def arcs_into_neighbours(s) -> list[tuple[int, int]]:
    """The arcs of the state ``s`` into the nodes with an undirected edge, the
    seed that starts a closure of ``s``'s input."""
    return [(t, v) for v, nb in enumerate(s[1]) if nb for t in s[0][v]]


def er_skeleton_combinations(p: int, degree: float, rng) -> list[tuple[int, int]]:
    pairs = list(itr.combinations(range(p), 2))
    q = degree / (p - 1)
    mask = rng.random(len(pairs)) < q
    return [pair for pair, keep in zip(pairs, mask) if keep]


def er_skeleton_one_draw(p: int, degree: float, rng) -> list[tuple[int, int]]:
    """The ER generator that blocked draws replaced: all p(p-1)/2 uniforms
    and both index arrays at once."""
    i, j = np.triu_indices(p, 1)  # the pairs in itertools.combinations order
    keep = rng.random(i.size) < degree / (p - 1)
    return list(zip(i[keep].tolist(), j[keep].tolist()))


def power_skeleton_by_choice(p: int, degree: float, rng) -> list[tuple[int, int]]:
    """The preferential-attachment generator whose picks the spelled-out
    cdf search replaced: one ``rng.choice`` per pick over the nodes still
    available, the picked one deleted from the list."""
    target = p * degree / 2.0

    def expected_total(m: int) -> float:
        return float(sum(min(i, m) for i in range(1, p)))

    m = 0
    while m < p and expected_total(m + 1) <= target:
        m += 1
    lo, hi = expected_total(m), expected_total(m + 1)
    frac = 0.0 if hi <= lo else min(1.0, (target - lo) / (hi - lo))

    deg = np.zeros(p, dtype=float)
    edges: list[tuple[int, int]] = []
    for i in range(1, p):
        k = m + (1 if rng.random() < frac else 0)
        k = min(i, k)
        if k == 0:
            continue
        available = list(range(i))
        for _ in range(k):
            weights = deg[available] + 1.0
            probs = weights / weights.sum()
            pick = int(rng.choice(len(available), p=probs))
            j = available.pop(pick)
            edges.append((j, i))
            deg[j] += 1
            deg[i] += 1
    return edges


def power_skeleton_spelled_out(p: int, degree: float, rng) -> list[tuple[int, int]]:
    """The preferential-attachment generator whose float cdf per pick the
    Fenwick descent replaced: ``rng.choice(i, p=w / w.sum())`` spelled out on
    all i earlier nodes, those already picked weighted 0, so the cdf floats,
    the one uniform drawn per pick and the edges are ``choice``'s, at O(i) per
    pick.  One scalar draw for each node's Bernoulli, then one per pick."""
    target = p * degree / 2.0

    def expected_total(m: int) -> float:
        return float(sum(min(i, m) for i in range(1, p)))

    m = 0
    while m < p and expected_total(m + 1) <= target:
        m += 1
    lo, hi = expected_total(m), expected_total(m + 1)
    frac = 0.0 if hi <= lo else min(1.0, (target - lo) / (hi - lo))

    weight = np.ones(p)  # degree + 1
    edges: list[tuple[int, int]] = []
    for i in range(1, p):
        k = min(i, m + (1 if rng.random() < frac else 0))
        w, picks = weight[:i].copy(), []
        total = w.sum()  # of integers, so exact, and kept exact by subtraction
        for _ in range(k):
            cdf = (w / total).cumsum()
            cdf /= cdf[-1]
            j = int(cdf.searchsorted(rng.random(), side="right"))
            picks.append(j)
            total -= w[j]
            w[j] = 0.0
        weight[picks] += 1.0
        weight[i] += k
        edges.extend((j, i) for j in picks)
    return edges


def geometric_skeleton_per_pair(p: int, degree: float, rng) -> list[tuple[int, int]]:
    pts = rng.random((p, 2))
    r = _geometric_radius(p, degree)
    edges = []
    for i, j in itr.combinations(range(p), 2):
        if float(np.hypot(*(pts[i] - pts[j]))) <= r:
            edges.append((i, j))
    return edges


# === the tiered ordering as a pair set, and its cross-tier edges


def forbidden_set(ordering, nodes=None) -> BackgroundKnowledge:
    """Background knowledge induced by ``ordering``: forbidden later ->
    earlier edges over ``nodes`` (defaults to the ordering's own nodes)
    and no required edges."""
    return BackgroundKnowledge(forbidden=ordering.forbidden_pairs(nodes))


def orient_undirected_part(c, ordering):
    """Drop the directed edges of ``c``, then orient the remaining edges
    whose endpoints lie in different tiers (earlier tier first)."""
    return impose_tiers(c.undirected_subgraph(), ordering)


def cross_tier_edges(c, ordering) -> set:
    """Ordered pairs ``(u, v)`` adjacent in the undirected part of ``c``
    with ``u`` in a strictly earlier tier than ``v``."""
    return set(orient_undirected_part(c, ordering).directed_edges)


# === orderings compared node pair by node pair


def _strict_pairs(ordering, nodes) -> set:
    return {(a, b) for a in nodes for b in nodes if ordering.tier_of(a) < ordering.tier_of(b)}


def check_compatible_pairwise(t1, t2) -> None:
    """:func:`causaltiers.tiers.check_compatible` by a loop over every
    node pair, in ``t1``'s node order."""
    if set(t1.nodes) != set(t2.nodes):
        raise GraphError("orderings are defined on different node sets")
    nodes = list(t1.nodes)
    for a in nodes:
        for b in nodes:
            if t1.tier_of(a) < t1.tier_of(b) and t2.tier_of(a) > t2.tier_of(b):
                raise IncompatibleOrderingsError(
                    f"orderings contradict each other on ({a!r}, {b!r})"
                )


def compare_refinement_pairwise(t1, t2) -> Refinement:
    """The verdict of :func:`causaltiers.tiers.compare_refinement`, by
    comparing the two sets of strictly ordered node pairs."""
    check_compatible_pairwise(t1, t2)
    nodes = list(t1.nodes)
    s1, s2 = _strict_pairs(t1, nodes), _strict_pairs(t2, nodes)
    if s1 == s2:
        return Refinement.EQUAL
    if s2 <= s1:
        return Refinement.FIRST_FINER
    if s1 <= s2:
        return Refinement.SECOND_FINER
    return Refinement.INCOMPARABLE


# === per-ordering loops over per-pair path enumeration
#
# Unlike the rest of this module, these reuse library code for the
# unshielded paths between two nodes, the fully shielded edges and the
# cross-tier orientation.  They enumerate each chain component once per
# ordering and per node pair, find earliest paths by a per-edge floor,
# filter maximal paths pairwise, walk outward for first cross-tier edges
# and combine joint IDA per orientation combination.


def component_paths_pairwise(h, component, max_nodes: int) -> list:
    """Every unshielded path (>= 2 nodes) inside one chain component of
    ``h``: one :meth:`PDAG.find_unshielded_paths` walk per node pair of
    the component, pairs in index order."""
    if len(component) > max_nodes:
        raise LimitError(
            f"component of {len(component)} nodes exceeds the path "
            f"enumeration limit of {max_nodes}"
        )
    sub = h.induced_subgraph(component)
    return [
        path
        for s, t in itr.combinations(sub.nodes, 2)
        for path in sub.find_unshielded_paths(s, t, max_nodes)
    ]


def first_cross_tier_edges_walk(path, tier: dict) -> frozenset:
    """From each run of minimum-tier nodes, walk outward to the nearest
    edge whose endpoints lie in different tiers; orient it from the
    earlier tier."""
    tiers = [tier[v] for v in path]
    m = min(tiers)
    runs = []
    i = 0
    while i < len(tiers):
        if tiers[i] == m:
            j = i
            while j + 1 < len(tiers) and tiers[j + 1] == m:
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1
    out = set()
    for a, b in runs:
        for i in range(a - 1, -1, -1):
            if tiers[i] != tiers[i + 1]:
                lo, hi = (i, i + 1) if tiers[i] < tiers[i + 1] else (i + 1, i)
                out.add((path[lo], path[hi]))
                break
        for i in range(b, len(tiers) - 1):
            if tiers[i] != tiers[i + 1]:
                lo, hi = (i, i + 1) if tiers[i] < tiers[i + 1] else (i + 1, i)
                out.add((path[lo], path[hi]))
                break
    return frozenset(out)


def earliest_by_floor(paths: list, tier: dict) -> list:
    """Paths none of whose edges lies on a path of ``paths`` reaching a
    strictly lower tier."""
    floor = {}
    for path in paths:
        m = min(tier[v] for v in path)
        for x, y in zip(path, path[1:]):
            key = frozenset((x, y))
            if m < floor.get(key, m + 1):
                floor[key] = m
    out = []
    for path in paths:
        m = min(tier[v] for v in path)
        if all(floor[frozenset((x, y))] >= m for x, y in zip(path, path[1:])):
            out.append(path)
    return out


def is_subpath(short, long) -> bool:
    """Is ``short`` (or its reverse) a contiguous segment of ``long``?"""
    n, m = len(short), len(long)
    if n > m:
        return False
    fwd = tuple(short)
    rev = fwd[::-1]
    for i in range(m - n + 1):
        window = tuple(long[i : i + n])
        if window == fwd or window == rev:
            return True
    return False


def maximal_paths_pairwise(paths: list) -> list:
    """Drop every path that is a proper subpath of another listed path."""
    out = []
    for path in paths:
        if not any(
            other is not path and len(other) > len(path) and is_subpath(path, other)
            for other in paths
        ):
            out.append(path)
    return out


def maximal_paths_by_segments(paths: list) -> list:
    """Drop every path that is a proper segment of another listed path,
    in either direction, by the set of all proper segments."""
    segments = set()
    for path in paths:
        for length in range(2, len(path)):
            for i in range(len(path) - length + 1):
                segment = path[i : i + length]
                segments.add(segment)
                segments.add(segment[::-1])
    return [path for path in paths if path not in segments]


def _earliest_by_component(h, ordering, max_nodes: int) -> list[list]:
    tier = ordering.assignment
    out = []
    for component in h.chain_components():
        if len(component) < 2:
            continue
        paths = component_paths_pairwise(h, component, max_nodes)
        out.append(maximal_paths_pairwise(earliest_by_floor(paths, tier)))
    return out


def cross_tier_report_loop(c, ordering, max_nodes: int = 25):
    """:func:`causaltiers.tiers.cross_tier_report`, enumerating every
    chain component for this ordering alone."""
    require_consistency(c, ordering)
    h = c.undirected_subgraph()
    oriented = orient_undirected_part(c, ordering)
    cross = set(oriented.directed_edges)
    shielded = [
        e if e in cross else (e[1], e[0])
        for e in fully_shielded_edges(h)
        if e in cross or (e[1], e[0]) in cross
    ]
    earliest = [p for paths in _earliest_by_component(h, ordering, max_nodes) for p in paths]
    return CrossTierEdgeReport(
        graph=oriented,
        earliest_paths=tuple(earliest),
        first_edges=tuple(
            first_cross_tier_edges_walk(p, ordering.assignment) for p in earliest
        ),
        fully_shielded_cross_tier=tuple(shielded),
    )


def tiers_equivalent_loop(c, t1, t2, max_nodes: int = 25):
    """:func:`causaltiers.tiers.tiers_equivalent` with its own component
    loop: the first edges compared on the union of both orderings' earliest
    paths, component by component; the witness from the shielded scan
    first, then the least edge, by label text, that is a first edge of an
    earliest path under one ordering only, in the first component with one."""
    check_compatible_pairwise(t1, t2)
    for ordering in (t1, t2):
        require_consistency(c, ordering)
    h = c.undirected_subgraph()
    cross1 = cross_tier_edges(c, t1)
    cross2 = cross_tier_edges(c, t2)

    witness = None
    shielded_agree = True
    for u, v in fully_shielded_edges(h):
        s1 = (u, v) if (u, v) in cross1 else (v, u) if (v, u) in cross1 else None
        s2 = (u, v) if (u, v) in cross2 else (v, u) if (v, u) in cross2 else None
        if s1 != s2:
            shielded_agree = False
            if witness is None:
                witness = s1 if s1 is not None else s2

    first_agree = True
    by_component = zip(
        _earliest_by_component(h, t1, max_nodes), _earliest_by_component(h, t2, max_nodes)
    )
    for earliest1, earliest2 in by_component:
        for path in set(earliest1) | set(earliest2):
            f1 = first_cross_tier_edges_walk(path, t1.assignment)
            f2 = first_cross_tier_edges_walk(path, t2.assignment)
            first_agree &= f1 == f2
        union1 = {e for p in earliest1 for e in first_cross_tier_edges_walk(p, t1.assignment)}
        union2 = {e for p in earliest2 for e in first_cross_tier_edges_walk(p, t2.assignment)}
        if witness is None and union1 != union2:
            witness = min(union1 ^ union2, key=str)
    equivalent = shielded_agree and first_agree
    return TierEquivalence(
        equivalent=equivalent,
        witness=None if equivalent else witness,
        first_edges_agree=first_agree,
        shielded_agree=shielded_agree,
    )


def tiers_more_informative_loop(c, t1, t2, max_nodes: int = 25):
    """:func:`causaltiers.tiers.tiers_more_informative` with one
    :func:`cross_tier_report_loop` per ordering."""
    g1, g2 = tiered_mpdag(c, t1), tiered_mpdag(c, t2)
    if g1 == g2:
        verdict = Informativeness.EQUIVALENT
    elif contained_in(g1, g2):
        verdict = Informativeness.MORE_INFORMATIVE
    elif contained_in(g2, g1):
        verdict = Informativeness.LESS_INFORMATIVE
    else:
        verdict = Informativeness.INCOMPARABLE
    r1 = cross_tier_report_loop(c, t1, max_nodes)
    r2 = cross_tier_report_loop(c, t2, max_nodes)
    cross1 = set(r1.graph.directed_edges)
    cross2 = set(r2.graph.directed_edges)
    return InformativenessResult(
        verdict,
        all(e in cross1 for e in r2.all_first_edges),
        all(e in cross1 for e in r2.fully_shielded_cross_tier),
        any(e not in cross2 for e in r1.all_first_edges),
        len(r1.fully_shielded_cross_tier) > len(r2.fully_shielded_cross_tier),
    )


# === the walk and the per-path filter that the floor-pruned walk replaced


def unshielded_walk(h, sources, target):
    """The unshielded paths (no triple with adjacent ends) from each source
    in turn, never walking through ``target``, made one by one as they are
    read, in lexicographic order of their indices (a prefix first): a
    reader that stops early walks no further.  The generator that was
    ``PDAG._walk``, before the report and the per-pair search each walked
    only what they list."""
    adjacent = h._adjacency()
    adj = [sorted(row) for row in adjacent]
    on_path = [False] * len(adj)
    for s in sources:
        yield (s,)
        on_path[s] = True
        stack = [((s,), iter(adj[s]), frozenset())]  # path, next nodes, shields
        while stack:
            path, later, shields = stack[-1]
            for w in later:
                if on_path[w] or w in shields:
                    continue
                longer = (*path, w)
                yield longer
                if w != target:
                    on_path[w] = True
                    stack.append((longer, iter(adj[w]), adjacent[path[-1]]))
                    break
            else:
                stack.pop()
                on_path[path[-1]] = False


def is_earliest(path: tuple, tier, floor: list, adjacent) -> bool:
    """Whether ``path`` is earliest and no proper segment of another earliest
    path; node ``i`` has tier ``tier[i]`` and neighbours ``adjacent[i]``, edge
    i - j floor ``floor[i][j]``.  A path is earliest iff each of its edges'
    floors is its minimum m, and lies inside a longer earliest path iff a
    one-node extension at an end is, that is iff the new edge's floor is at
    least m (no floor on a path exceeds its minimum).  The per-path test that
    the report's floor-pruned walk replaced."""
    m = min(map(tier.__getitem__, path))
    return min(map(dict.__getitem__, map(floor.__getitem__, path), path[1:])) == m and not any(
        floor[end][x] >= m
        for end, inner in ((path[-1], path[-2]), (path[0], path[1]))
        for x in adjacent[end] - adjacent[inner] if x not in path
    )


def report_paths_by_walk(h, tier, floor) -> list:
    """The earliest paths of the report, as indices: every unshielded path of
    the multi-node components of the chordal graph ``h`` from one walk from
    every node, kept by :func:`is_earliest` when read from its lower end, and
    sorted stably by (component, start, end)."""
    groups = _component_labels(h._ne)[1].values()
    rank = {v: r for r, group in enumerate(groups) for v in group}
    paths = [path for path in unshielded_walk(h, sorted(rank), None)
             if path[-1] > path[0] and is_earliest(path, tier, floor, h._ne)]
    return sorted(paths, key=lambda path: (rank[path[0]], path[0], path[-1]))


def floors_from_every_node(ne, tier) -> list[dict[int, int]]:
    """:func:`causaltiers.tiers._floors` as first written: the same search over
    directed edges, started from every node, isolated ones too, in ascending
    tier, and each floor the ``min`` of the edge's two directions."""
    reach: list[dict[int, int]] = [{} for _ in ne]
    for s in sorted(range(len(ne)), key=tier.__getitem__):
        m, stack = tier[s], [(s, b) for b in ne[s]]
        while stack:
            a, b = stack.pop()
            if b not in reach[a]:
                reach[a][b] = m
                stack.extend((b, c) for c in ne[b] - ne[a] if c != a and c not in reach[b])
    return [{b: min(f, reach[b][a]) for b, f in row.items()} for a, row in enumerate(reach)]


# === the path list and per-path filter that the prefix tree replaced


def walk_paths(h, sources):
    """Depth first from each source in turn, neighbours by index, every
    unshielded path of ``h`` to a node after its source, as indices."""
    adjacent = h._adjacency()
    adj = [sorted(row) for row in adjacent]
    on_path = [False] * len(adj)
    for s in sources:
        path = [s]
        on_path[s] = True
        stack = [iter(adj[s])]
        while stack:
            for w in stack[-1]:
                if on_path[w] or (len(path) > 1 and w in adjacent[path[-2]]):
                    continue
                if w > s:
                    yield (*path, w)
                path.append(w)
                on_path[w] = True
                stack.append(iter(adj[w]))
                break
            else:
                stack.pop()
                on_path[path.pop()] = False


def component_paths(h, components, max_nodes: int) -> list:
    """Every unshielded path (>= 2 nodes) inside the given chain components
    of ``h``, as indices, each once from its lower-index end: one walk from
    every node, sorted stably by (component, start, end)."""
    for component in components:
        if len(component) > max_nodes:
            raise LimitError(
                f"component of {len(component)} nodes exceeds the path "
                f"enumeration limit of {max_nodes}"
            )
    rank = {h.index_of(v): k for k, component in enumerate(components) for v in component}
    walk = walk_paths(h, sorted(rank))
    return sorted(walk, key=lambda path: (rank[path[0]], path[0], path[-1]))


def earliest_by_extension(paths, tier, adjacent) -> list:
    """The earliest of ``paths`` (all unshielded paths of a graph, as
    indices) that no earliest one-node extension contains: each edge's
    floor is the least minimum tier of a path through it, a path is
    earliest iff every floor on it is its minimum, and an extension is
    earliest iff its new edge's floor is at least that minimum."""
    edge_id = [{v: min(u, v) * len(tier) + max(u, v) for v in ne} for u, ne in enumerate(adjacent)]
    lowest = [min(map(tier.__getitem__, path)) for path in paths]
    floor: dict[int, int] = {}
    for m, path in sorted(zip(lowest, paths), key=lambda entry: entry[0]):
        for u, v in zip(path, path[1:]):
            floor.setdefault(edge_id[u][v], m)  # the lowest path comes first
    return [
        path
        for path, m in zip(paths, lowest)
        if all(floor[edge_id[u][v]] == m for u, v in zip(path, path[1:]))
        and not any(
            floor[edge_id[end][x]] >= m
            for end, inner in ((path[0], path[1]), (path[-1], path[-2]))
            for x in adjacent[end]
            if x not in adjacent[inner] and x not in path
        )
    ]


# === the comparison by paths that the per-edge floors replaced


def path_tree_with_edge_ids(h, max_nodes: int) -> tuple:
    """The prefix tree of the unshielded paths in the multi-node chain
    components of the undirected graph ``h``: each node's component (named
    by its least index); each entry's parent, node and path from one
    :func:`unshielded_walk` from every node of them, and its edge id (-1 for a
    start); the edge ids by their ends; and the entries listed from their
    lower end, stably by (component, start, end), as per-pair walks list."""
    component, groups = _component_labels(h._ne)
    for group in groups.values():
        if len(group) > max_nodes:
            raise LimitError(
                f"component of {len(group)} nodes exceeds the path "
                f"enumeration limit of {max_nodes}"
            )
    starts = sorted(v for group in groups.values() for v in group)
    paths = list(unshielded_walk(h, starts, None))
    parent, node = prefix_tree(paths)
    edge_of: list[dict[int, int]] = [{} for _ in h._ne]
    for k, (u, v) in enumerate((u, v) for u, ne in enumerate(h._ne) for v in ne if u < v):
        edge_of[u][v] = edge_of[v][u] = k
    edge = [edge_of[node[p]][v] if p >= 0 else -1 for p, v in zip(parent, node)]
    listed = [e for e, path in enumerate(paths) if path[-1] > path[0]]
    listed.sort(key=lambda e: (component[paths[e][0]], paths[e][0], paths[e][-1]))
    return component, parent, node, paths, edge, edge_of, listed


def prefix_tree(paths: list) -> tuple[list, list]:
    """Each path's parent entry in ``paths``, a walk in preorder (-1 for a
    start), and its last node."""
    entry = {path: e for e, path in enumerate(paths)}
    return [entry.get(path[:-1], -1) for path in paths], [path[-1] for path in paths]


def earliest_by_tree_floors(tree: tuple, tier, adjacent) -> list:
    """The earliest maximal paths of :func:`path_tree_with_edge_ids`'s tree,
    each edge's floor read off the tree: top down each entry's minimum,
    whose least over the entries ending in an edge is the edge's floor;
    then top down each entry's least floor and whether a child is earliest."""
    _, parent, node, paths, edge, edge_of, listed = tree
    inf, size = math.inf, len(node)
    low, floor = [inf] * (size + 1), [inf] * (size + 1)  # slots -1: a start's parent and edge
    for e, (p, v, k) in enumerate(zip(parent, node, edge)):
        t, m = tier[v], low[p]
        m = low[e] = t if t < m else m
        if m < floor[k]:
            floor[k] = m
    floor[-1] = inf
    least, extended = [inf] * (size + 1), [False] * (size + 1)
    for e, (p, k) in enumerate(zip(parent, edge)):
        f, m = floor[k], least[p]
        least[e] = f if f < m else m
        if f >= low[p]:
            extended[p] = True
    earliest = []
    for e in listed:
        m, path = low[e], paths[e]
        if least[e] == m and not extended[e]:
            s, inner = path[0], adjacent[path[1]]
            if all(floor[edge_of[s][x]] < m for x in adjacent[s] - inner if x not in path):
                earliest.append(path)
    return earliest


def reports_by_path_tree(h, orderings, max_nodes: int) -> tuple:
    """Each node's chain component in ``h``, named by its least index, and
    for each ordering its earliest paths as indices and each fully shielded
    edge of ``h`` oriented from its earlier tier (``None`` within a tier)."""
    tree = path_tree_with_edge_ids(h, max_nodes)
    shielded, names = fully_shielded_edges(h), h.nodes
    records = []
    for ordering in orderings:
        t = ordering._assignment
        oriented = [(u, v) if t[u] < t[v] else (v, u) if t[v] < t[u] else None for u, v in shielded]
        records.append((earliest_by_tree_floors(tree, ordering._tiers(names), h._ne), oriented))
    return tree[0], records


def least_edge_of_least_component(names, component, diff) -> tuple:
    """The least edge, by label text, of the index pairs ``diff`` in the chain
    component, named by ``component`` per node, of least name holding one."""
    k = min(component[u] for u, _ in diff)
    return min(((names[u], names[v]) for u, v in diff if component[u] == k), key=str)


def compare_by_path_tree(c, t1, t2, max_nodes: int = 25) -> tuple:
    """:func:`causaltiers.tiers._compare` reading the first cross-tier edges
    path by path off the whole path tree: the criterion, the witness and
    conditions i and iii from the earliest paths of both orderings, the
    witness from the union of each ordering's first edges on its own."""
    g1, g2 = tiered_mpdag(c, t1), tiered_mpdag(c, t2)
    component, ((e1, s1), (e2, s2)) = reports_by_path_tree(
        c.undirected_subgraph(), (t1, t2), max_nodes
    )
    names = c.nodes
    v1, v2 = t1._tiers(names), t2._tiers(names)
    shielded_diff = [a or b for a, b in zip(s1, s2) if a != b]
    first = {p: (first_cross_tier_edges(p, v1), first_cross_tier_edges(p, v2))
             for p in {*e1, *e2}}
    first_diff = [p for p, (f1, f2) in first.items() if f1 != f2]
    equivalent = not (shielded_diff or first_diff)
    witness = shielded_diff[0] if shielded_diff else None
    if first_diff and witness is None:  # from each ordering's union of per-path first edges
        diff = {e for p in e1 for e in first[p][0]} ^ {e for p in e2 for e in first[p][1]}
        witness = least_edge_of_least_component(names, component, diff)
    same = g1 == g2
    if equivalent != same:
        u, v = witness or min(set(g1.directed_edges) ^ set(g2.directed_edges), key=str)
        criterion, graphs = ("different", "equal") if same else ("equivalent", "different")
        raise InvariantError(
            f"equivalence criterion: the orderings are {criterion} but their tiered "
            f"MPDAGs are {graphs}, witness {u} -> {v}"
        )
    if same:
        verdict = Informativeness.EQUIVALENT
    elif contained_in(g1, g2):
        verdict = Informativeness.MORE_INFORMATIVE
    elif contained_in(g2, g1):
        verdict = Informativeness.LESS_INFORMATIVE
    else:
        verdict = Informativeness.INCOMPARABLE
    return (
        TierEquivalence(equivalent, witness, not first_diff, not shielded_diff),
        InformativenessResult(
            verdict,
            condition_i=all(v1[u] < v1[v] for p in e2 for u, v in first[p][1]),
            condition_ii=all(t1[u] < t1[v] for u, v in filter(None, s2)),
            condition_iii=any(v2[u] >= v2[v] for p in e1 for u, v in first[p][0]),
            condition_iv=s1.count(None) < s2.count(None),
        ),
    )


def joint_ida_per_combination(g, xs) -> dict:
    """Counts of :func:`causaltiers.joint_ida`, built from one tuple per
    combination of component orientations."""
    query = set(xs)
    dir_parents = {x: frozenset(g.parents_of(x)) for x in xs}
    und = g.undirected_subgraph()
    per_component = [
        [
            {x: frozenset(dag.parents_of(x)) for x in comp if x in query}
            for dag in leaves(und.induced_subgraph(comp))
        ]
        for comp in g.chain_components()
        if len(comp) > 1 and query.intersection(comp)
    ]
    entries = []
    for combo in itr.product(*per_component):
        merged = {}
        for assignment in combo:
            merged.update(assignment)
        entries.append(tuple(dir_parents[x] | merged.get(x, frozenset()) for x in xs))
    return dict(Counter(entries))


def joint_ida_by_enumeration(g, xs, max_members: int = 10_000) -> ParentSetMultiset:
    """:func:`causaltiers.joint_ida` as it was before counting: every member
    of each queried chain component is listed by :func:`leaves`, up to one
    over ``max_members`` (:class:`LimitError`), and distinct per-component
    assignments are combined with the product of their counts."""
    xs = list(xs)
    query = set(xs)
    if len(query) != len(xs):
        raise GraphError("query nodes must be distinct")
    for x in xs:
        g.index_of(x)
    dir_parents = {x: frozenset(g.parents_of(x)) for x in xs}
    und = g.undirected_subgraph()
    per_component = []
    for comp in g.chain_components():
        if len(comp) > 1 and query.intersection(comp):
            dags = list(itr.islice(leaves(und.induced_subgraph(comp)), max_members + 1))
            if len(dags) > max_members:
                raise LimitError(f"class has over {max_members} members, the enumeration limit")
            assignments = Counter(
                tuple((x, frozenset(dag.parents_of(x))) for x in comp if x in query)
                for dag in dags
            )
            per_component.append(list(assignments.items()))
    counts: Counter = Counter()
    for combo in itr.product(*per_component):
        merged = {}
        for assignment, _ in combo:
            merged.update(assignment)
        entry = tuple(dir_parents[x] | merged.get(x, frozenset()) for x in xs)
        counts[entry] += math.prod(m for _, m in combo)
    return ParentSetMultiset(counts)


def joint_ida_branch_and_close(g, xs) -> ParentSetMultiset:
    """:func:`causaltiers.joint_ida` as it was before root picking carried
    the query nodes' parent sets: in each queried chain component, branch
    on the undirected edges at the query nodes and close each branch under
    rules 1-4 (:func:`query_leaves`); each leaf fixes the query nodes'
    parent sets, and its members are counted by root picking over its
    chain components.  Distinct per-component assignments are combined
    with the product of their counts."""
    xs = list(xs)
    query = set(xs)
    if len(query) != len(xs):
        raise GraphError("query nodes must be distinct")
    for x in xs:
        g.index_of(x)
    dir_parents = {x: frozenset(g.parents_of(x)) for x in xs}
    und = g.undirected_subgraph()
    memo: dict = {}
    per_component = []
    for comp in g.chain_components():
        if len(comp) > 1 and query.intersection(comp):
            h = und.induced_subgraph(comp)
            counts: Counter = Counter()
            if h.is_chordal():
                qs = [x for x in h.nodes if x in query]
                for leaf in query_leaves(h, [h.index_of(x) for x in qs]):
                    assignment = tuple((x, frozenset(leaf.parents_of(x))) for x in qs)
                    counts[assignment] += completions_by_root_picking(leaf._ne, leaf.nodes, memo)
            per_component.append(list(counts.items()))
    counts = Counter()
    for combo in itr.product(*per_component):
        merged = {}
        for assignment, _ in combo:
            merged.update(assignment)
        entry = tuple(dir_parents[x] | merged.get(x, frozenset()) for x in xs)
        counts[entry] += math.prod(m for _, m in combo)
    return ParentSetMultiset(counts)


def query_leaves(g, branch):
    """Branch and close on the undirected edges at the nodes ``branch``
    (indices, ascending): close under rules 1-4; at the first of those
    nodes i with an undirected edge, orient i - j, j lowest, each way, and
    close each branch again.  A branch whose closure orients an edge both
    ways is dropped; a leaf, with no undirected edge at ``branch`` left, is
    yielded if it is acyclic and has no new v-structure."""
    stack = [orientation._state(g)]
    while stack:
        s = stack.pop()
        try:
            orientation._close(s, MEEK_RULES, g.nodes, arcs_into_neighbours(s))
        except InconsistentKnowledgeError:
            continue
        pa, ne, adj = s
        i = next((i for i in branch if ne[i]), None)
        if i is not None:
            j = min(ne[i])
            for tail, head in ((j, i), (i, j)):
                copy = ([x if a is None else set(x) for x, a in zip(pa, adj)],
                        [x if a is None else set(x) for x, a in zip(ne, adj)], adj)
                orientation._orient(copy, tail, head)
                stack.append(copy)
            continue
        try:
            require_no_new_v_structures_full_walk(g, s)
            leaf = g._oriented(s[0], s[1])
        except GraphError:  # a new v-structure or a directed cycle
            continue
        yield leaf


def leaves(g):
    """:func:`causaltiers.enumerate_class` as it was before it listed what
    clique picking counts, yielding the members one by one: branch and close
    on the undirected edges of ``g`` (:func:`query_leaves` at every node,
    each branch closed from the frontier of its one orientation).  Close
    under rules 1-4; at the lowest node i with an undirected edge, orient
    i - j, j lowest, each way, i -> j first, and close each branch again.
    A branch whose closure orients an edge both ways is dropped; a leaf,
    with no undirected edge left, is yielded if it is acyclic and gives no
    node a new parent that is not adjacent to another of its parents: a
    leaf keeps ``g``'s adjacencies and only gains parents, so that is
    exactly when it has the v-structures of ``g``.  Any PDAG is taken, and
    the members come in lexicographic order of the directions of ``g``'s
    undirected edges in canonical order, lower-index tail first."""
    u = g._with_neighbours()
    stack = [(orientation._state(g), [(t, v) for v in u for t in g._pa[v]])]
    while stack:
        s, oriented = stack.pop()
        try:
            orientation._close(s, MEEK_RULES, g.nodes, oriented)
        except InconsistentKnowledgeError:
            continue
        pa, ne, adj = s
        i = next((i for i in u if ne[i]), None)
        if i is not None:
            j = min(ne[i])
            # copy the sets that orienting writes to, those with adjacency
            back = ([x if a is None else set(x) for x, a in zip(pa, adj)],
                    [x if a is None else set(x) for x, a in zip(ne, adj)], adj)
            orientation._orient(back, j, i)
            orientation._orient(s, i, j)
            stack += ((back, [(j, i)]), (s, [(i, j)]))
            continue
        try:
            orientation._require_no_new_v_structures(g, s)
            leaf = g._oriented(s[0], s[1])
        except GraphError:  # a new v-structure or a directed cycle
            continue
        yield leaf


def amo_count_by_root_picking(ne, names, comp, memo: dict, query=()):
    """:func:`causaltiers.orientation._amo_count` as it was before clique
    picking: root picking (He, Jia and Yu, JMLR 2015), memoised by label
    set.  Every acyclic orientation without v-structures of a connected
    chordal component has one source r; for each r, orient r's edges out,
    close under rule 1, and convolve the query nodes' directed parents with
    the counts of the chain components left.  A clique is closed form.
    Exponential on some components (K16 less one edge takes seconds).  It
    reuses the library's ``_orient``, ``_close`` and ``_clique_orders``."""
    key = frozenset(names[v] for v in comp)
    if key not in memo:
        local = {v: k for k, v in enumerate(comp)}
        sub = [frozenset(local[w] for w in ne[v] if w in local) for v in comp]
        labels = [names[v] for v in comp]
        at = {x: k for k, x in enumerate(labels) if x in query}
        n = len(sub)
        if sum(map(len, sub)) == n * (n - 1):
            memo[key] = orientation._clique_orders(query, labels) if at else math.factorial(n)
        else:
            total = Counter() if at else 0
            for root in range(n):
                s = ([set() for _ in sub], [set(x) for x in sub], sub)
                for w in sub[root]:
                    orientation._orient(s, root, w)
                orientation._close(s, (1,), labels, [(root, w) for w in sub[root]])
                if at:
                    total.update(completions_by_root_picking(s[1], labels, memo, query, tuple(
                        frozenset(labels[p] for p in s[0][at[x]]) if x in at else frozenset()
                        for x in query)))
                else:
                    total += completions_by_root_picking(s[1], labels, memo)
            memo[key] = total
    return memo[key]


def completions_by_root_picking(ne, names, memo: dict, query=(), parents=None):
    """:func:`causaltiers.orientation._completions` over
    :func:`amo_count_by_root_picking`."""
    groups = _component_labels(ne)[1].values()
    if parents is None:
        return math.prod(amo_count_by_root_picking(ne, names, comp, memo) for comp in groups)
    out = Counter({parents: 1})
    for comp in groups:
        part = amo_count_by_root_picking(ne, names, comp, memo, query)
        out = Counter({a: m * part for a, m in out.items()} if isinstance(part, int) else {
            tuple(map(frozenset.union, a, b)): m * k
            for a, m in out.items() for b, k in part.items()})
    return out


def class_size_by_root_picking(g) -> int:
    """:func:`causaltiers.class_size` by root picking."""
    return completions_by_root_picking(g._ne, g.nodes, {}) if orientation._has_members(g) else 0


def joint_ida_by_root_picking(g, xs) -> ParentSetMultiset:
    """:func:`causaltiers.joint_ida` by root picking: the same restriction to
    the queried chain components, counted by
    :func:`amo_count_by_root_picking`."""
    idx = [g.index_of(x) for x in xs]
    if not orientation._has_members(g):
        return ParentSetMultiset()
    label = _component_labels(g._ne)[0]
    keep = {label[i] for i in idx}
    ne = [nb if label[v] in keep else () for v, nb in enumerate(g._ne)]
    parents = tuple(frozenset(g.parents_of(x)) for x in xs)
    return ParentSetMultiset(completions_by_root_picking(ne, g.nodes, {}, tuple(xs), parents))


def contained_in_by_skeletons(g1, g2) -> bool:
    """:func:`causaltiers.tiers.contained_in` by building both skeletons."""
    if g1.skeleton() != g2.skeleton():
        return False
    return set(g2.directed_edges) <= set(g1.directed_edges)


def round_closure(s, rules, names) -> list:
    """The closure with every round rescanning every undirected edge: each
    rule in turn collects all its firings over the whole state, in canonical
    edge order, then applies them, until a round fires nothing.  Closes the
    sets ``s`` in place and returns the ``(rule, edge)`` trace."""
    trace = []
    while True:
        before = len(trace)
        for rule in rules:
            for tail, head in orientation._firings(s, rule, names, undirected_pairs(s[1])):
                orientation._orient(s, tail, head)
                trace.append((rule, (names[tail], names[head])))
        if len(trace) == before:
            return trace


def orient_tiered_full_scan(c, ordering, rules):
    """``orientation._orient_tiered`` with every closure round over every
    undirected edge (:func:`round_closure`): the same checks, the graph and
    its trace."""
    orientation._require_shared_parents(c)
    require_consistency(c, ordering)
    s = orientation._cross_tier_state(c, ordering._tiers(c.nodes))[0]
    trace = round_closure(s, rules, c.nodes)
    g = c._oriented(s[0], s[1], check=False)
    orientation._require_invariants(g, s, True, c._with_neighbours())
    require_no_new_v_structures_full_walk(c, s)
    return g, trace


def require_chordal_part(c) -> None:
    """The comparison's admission before the tiered pass took it over: the
    shared-parents gate, then the chordality search of the undirected part."""
    if not orientation._has_members(c):
        k = c._non_simplicial()
        raise GraphError(f"not a CPDAG: the undirected part is not chordal at {c.nodes[k]}")


def orient_tiered_each(c, orderings, rules) -> list:
    """The tiered passes before one call took all of an input's orderings:
    with two or more, :func:`require_chordal_part` first, as the comparison
    did; then a whole pass per ordering, each with its own gate and its own
    result's chordality search.  The graphs and traces, one per ordering."""
    if len(orderings) > 1:
        require_chordal_part(c)
    out = []
    for ordering in orderings:
        orientation._require_shared_parents(c)
        require_consistency(c, ordering)
        s, oriented = orientation._cross_tier_state(c, ordering._tiers(c.nodes))
        trace = orientation._close(s, rules, c.nodes, oriented)
        g = c._oriented(s[0], s[1], check=False)
        orientation._require_invariants(g, s, True, c._with_neighbours())
        require_no_new_v_structures_full_walk(c, s)
        out.append((g, trace))
    return out


def require_invariants_scan(g, s) -> None:
    """The invariant checks of the tiered pass by a matrix sweep of each
    rule in turn (its first firing in canonical order, both directions if
    the edge fires both ways), then the partially-directed-cycle witness,
    then the chordality search; raises what
    ``orientation._require_invariants`` raises."""
    names, amat = g.nodes, amat_of(g)
    for r in MEEK_RULES:
        fired = sweep_firings(amat, r)
        if fired:
            t, h = fired[0]
            both = f" and {names[h]} -> {names[t]}" if (h, t) in fired else ""
            raise InvariantError(f"rule-1 sufficiency: rule {r} orients {names[t]} -> {names[h]}{both}")
    witness = g._partially_directed_cycle()
    if witness is not None:
        raise InvariantError(f"partially directed cycle: {witness}")
    k = g._non_simplicial()
    if k is not None:
        raise InvariantError(f"chordality: later neighbours of {names[k]} are not all adjacent")


def partially_directed_cycle_near_components(g) -> str | None:
    """``PDAG._partially_directed_cycle`` as it was when the contracted
    lists were rewritten only in and next to chain components of two or
    more nodes, every other node keeping the graph's own parent and child
    sets: the same Kahn pass and the same witness."""
    names, (label, groups) = g.nodes, _component_labels(g._ne)
    cpa, cch = list(g._pa), list(g._ch)
    for k, group in groups.items():
        cpa[k] = [label[i] for v in group for i in g._pa[v]]
        cch[k] = [label[j] for v in group for j in g._ch[v]]
        for v in group[1:]:
            cpa[v] = cch[v] = ()
    for v in {w for k in groups for w in (*cpa[k], *cch[k])} - groups.keys():
        cpa[v] = [label[i] for i in g._pa[v]]
        cch[v] = [label[j] for j in g._ch[v]]
    cycle = _directed_cycle(cpa, cch)
    if cycle is None:
        return None
    for i, ch in enumerate(g._ch):
        inner = [j for j in ch if label[j] == label[i]]
        if inner:
            return f"directed edge {names[i]} -> {names[min(inner)]} inside a chain component"
    mutual = min(((a, b) for a, ch in enumerate(cch) for b in ch if a in cch[b]), default=None)
    if mutual:
        cycle = [*mutual, mutual[0]]
    listed = (",".join(str(names[v]) for v in groups.get(k, (k,))) for k in cycle)
    return "chain components cycle {" + "} -> {".join(listed) + "}"


def rule1_closed_without_partial_cycle(g, s) -> bool:
    """The pass test of the tiered certificate before the shared-parents
    test replaced it: no rule-1 firing in the sets ``s`` of ``g`` (each
    neighbour adjacent to every parent) and no partially directed cycle
    by :func:`partially_directed_cycle_near_components`."""
    pa, ne, adj = s
    rule1 = all(pa[i] <= adj[j] for i, nb in enumerate(ne) for j in nb)
    return rule1 and partially_directed_cycle_near_components(g) is None


def cpdag_by_meek_closure(d) -> PDAG:
    """:func:`causaltiers.cpdag_of` by way of label triples: the v-structures
    of ``d`` directed in a start graph with the rest of the skeleton
    undirected, then :func:`meek_closure` under rules 1-3."""
    pa = [set() for _ in d.nodes]
    for a, b, c in v_structures(d):
        pa[d.index_of(b)] |= {d.index_of(a), d.index_of(c)}
    adj = d._adjacency()
    ne = [{w for w in adj[v] if w not in pa[v] and v not in pa[w]} for v in range(len(adj))]
    start = build_from_sets(d.nodes, pa, ne)
    return meek_closure(start, rules=(1, 2, 3))


def local_ida_by_subsets(g, x) -> ParentSetMultiset:
    """:func:`causaltiers.local_ida` by scanning all 2^deg subsets S of the
    neighbours of ``x``: S is kept iff it is a clique whose members are all
    adjacent to every parent of ``x``."""
    pa = frozenset(g.parents_of(x))
    nb = list(g.neighbors_of(x))
    entries = []
    for r in range(len(nb) + 1):
        for s in itr.combinations(nb, r):
            clique = all(g.has_edge(a, b) for a, b in itr.combinations(s, 2))
            if clique and all(g.has_edge(a, q) for a in s for q in pa):
                entries.append(pa | frozenset(s))
    return ParentSetMultiset(entries)


# === the graph build from index pairs before the one-pass build


def build_two_pass(names, directed, undirected) -> tuple:
    """The labels and the frozen parent, child and neighbour index sets that
    the constructor and the parser built from index pairs before the one-pass
    build: a scratch parent and neighbour set per node filled from the pairs,
    directed pairs first, each pair checked against those sets; the children
    derived in a second loop; three sets frozen per node; then the same
    directed-cycle check.  Raises the :class:`GraphError` that build raised."""
    pa, ne = [set() for _ in names], [set() for _ in names]
    for pairs, sets in ((directed, pa), (undirected, ne)):
        for i, j in pairs:
            if i == j:
                raise GraphError(f"self-loop at node {names[i]!r}")
            if j in pa[i] or i in pa[j] or j in ne[i]:
                raise GraphError(f"more than one edge between {names[i]!r} and {names[j]!r}")
            sets[j].add(i)
            if sets is ne:
                ne[i].add(j)
    ch = [set() for _ in names]
    for j, tails in enumerate(pa):
        for i in tails:
            ch[i].add(j)
    pa, ch, ne = (tuple(map(frozenset, x)) for x in (pa, ch, ne))
    cycle = _directed_cycle(pa, ch)
    if cycle is not None:
        raise CycleError("directed cycle: " + " -> ".join(str(names[i]) for i in cycle))
    return tuple(names), pa, ch, ne


# === the stages of the tiered pass, each walking every node


def state_full_walk(g):
    """``orientation._state`` walking every node: ``g``'s parent and neighbour
    sets, copied at the nodes with an undirected edge, and their adjacency sets."""
    pa, ne, adj = list(g._pa), list(g._ne), [None] * g.num_nodes
    for v, nb in enumerate(g._ne):
        if nb:
            pa[v], ne[v], adj[v] = set(pa[v]), set(nb), pa[v] | g._ch[v] | nb
    return pa, ne, adj


def cross_tier_state_full_walk(c, tier):
    """``orientation._cross_tier_state`` walking every node: the state with
    each cross-tier undirected edge oriented from the earlier tier, and the
    (tail, head) pairs."""
    s = state_full_walk(c)
    oriented = [(i, j) for i, ne in enumerate(c._ne) for j in ne if tier[i] < tier[j]]
    for i, j in oriented:
        orientation._orient(s, i, j)
    return s, oriented


def oriented_full_walk(g, pa, ne, check: bool = True):
    """``PDAG._oriented`` walking every node, without the labels' header text:
    ``g`` with the sets ``pa`` and ``ne``, new frozensets only where a node
    lost a neighbour or gained a child."""
    new_pa, ch, new_ne = list(g._pa), list(g._ch), list(g._ne)
    heads = {}
    for v, old in enumerate(g._ne):
        if old and len(ne[v]) != len(old):
            new_pa[v], new_ne[v] = frozenset(pa[v]), frozenset(ne[v])
            for t in new_pa[v] - g._pa[v]:
                heads.setdefault(t, set()).add(v)
    for t, new in heads.items():
        ch[t] = ch[t] | new
    return PDAG.__new__(PDAG)._store(g._names, g._index, tuple(new_pa), tuple(ch),
                                     tuple(new_ne), check)


def require_no_new_v_structures_full_walk(c, s) -> None:
    """``orientation._require_no_new_v_structures`` walking every node."""
    names, (pa, _, adj) = c.nodes, s
    for w, nb in enumerate(c._ne):
        if not nb or len(pa[w]) == len(c._pa[w]):
            continue
        for x in sorted(pa[w] - c._pa[w]):
            unlinked = pa[w] - adj[x] - {x}
            if unlinked:
                raise InconsistentKnowledgeError(
                    f"ordering creates the v-structure {names[x]} -> {names[w]} <- "
                    f"{names[min(unlinked)]}, which no DAG of the class has"
                )


def shares_parents_full_walk(pa, ne) -> bool:
    """``orientation._shares_parents`` walking every node."""
    return all(pa[i] == pa[j] for i, nb in enumerate(ne) for j in nb)


def check_consistency_full_walk(c, ordering) -> list:
    """``orientation.check_consistency`` listing the uncovered nodes before it
    reads the tier vector."""
    names, tiers = c.nodes, ordering._assignment
    missing = [v for v in names if v not in tiers]
    if missing:
        raise GraphError(f"ordering does not cover nodes {missing!r}")
    if len(tiers) > len(names):
        extra = [v for v in tiers if not c.has_node(v)]
        raise GraphError(f"ordering names nodes not in the graph: {extra!r}")
    tier = [tiers[v] for v in names]
    late = sorted((i, j) for j, pa in enumerate(c._pa) for i in pa if tier[i] > tier[j])
    return [(names[i], names[j]) for i, j in late]
