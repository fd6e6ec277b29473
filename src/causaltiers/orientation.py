"""Edge orientation: background knowledge, Meek's rules, MPDAG construction.

Knowledge orients undirected edges in a CPDAG's parent and neighbour sets,
copied only at the nodes U with an undirected edge (listed once per graph),
then Meek's four rules run to the fixpoint, the maximally oriented PDAG; in
each round each rule collects its firings in canonical edge order, then
applies them, examining only the edges where the orientations since it last
ran could let it fire.  Every closure starts from such a frontier: that of
the cross-tier orientations, a clique's edges out or, for
:func:`meek_closure`, the input's arcs into U, as every rule needs a parent
at one end of the edge it orients.  One tiered pass takes an input and all
its orderings (:func:`tiered_mpdag`, CLI ``orient``, the comparison, the
simulation), whatever their number: it runs the shared-parents gate on the
input, then per ordering orients the cross-tier edges from one tier vector,
closes them (rule 1 alone reaches the fixpoint), builds the result from the
input and certifies it in linear time and every mode (:class:`InvariantError`),
the first result with a chordality search, and rejects a new v-structure;
only a failed pass searches the input.  :func:`class_size` and joint IDA
count by clique picking (Wienobst, Bannach and Liskiewicz, AAAI 2021) in
polynomial time, with rule-1 closures only; :func:`enumerate_class` lists
what they count, as joint IDA on every node, up to ``max_members`` members
(:class:`LimitError`).  Each member of a connected chordal component is
counted under one maximal clique C of a rooted clique tree, whose nodes it
orders first, in one of phi(C, FP(C)) orders (:func:`_phi`).  C first is the
tiered MPDAG of {c1} < ... < {ck} < rest, so rule 1 builds it, and its chain
components outside C orient independently.  A node's parents are its
directed parents there and its parents inside its chain component or C.
"""

from __future__ import annotations

import itertools as itr
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .graphs import Edge, GraphError, LimitError, PDAG, _component_labels, _max_cardinality_search

if TYPE_CHECKING:  # pragma: no cover
    from .tiers import TieredOrdering

MEEK_RULES = (1, 2, 3, 4)


class InconsistentKnowledgeError(GraphError):
    """Background knowledge contradicts the graph or itself."""


class InvariantError(GraphError):
    """A constructed graph breaks one of the paper's structural results."""


@dataclass(frozen=True)
class BackgroundKnowledge:
    """Required and forbidden directed edges, as ``(tail, head)`` pairs."""

    required: frozenset[Edge] = field(default_factory=frozenset)
    forbidden: frozenset[Edge] = field(default_factory=frozenset)

    def __init__(self, required: Iterable[Edge] = (), forbidden: Iterable[Edge] = ()):
        object.__setattr__(self, "required", frozenset((u, v) for u, v in required))
        object.__setattr__(self, "forbidden", frozenset((u, v) for u, v in forbidden))
        clash = self.required & self.forbidden
        if clash:
            u, v = sorted(clash, key=str)[0]
            raise InconsistentKnowledgeError(
                f"edge {u!r} -> {v!r} is both required and forbidden"
            )
        for u, v in self.required:
            if (v, u) in self.required:
                raise InconsistentKnowledgeError(
                    f"both orientations of {u!r}, {v!r} are required"
                )

    def __bool__(self) -> bool:
        return bool(self.required or self.forbidden)


def impose_knowledge(c: PDAG, k: BackgroundKnowledge) -> PDAG:
    """Orient the undirected edges of ``c`` according to ``k``.

    Every undirected edge with a forbidden orientation is turned against
    the forbidden direction; otherwise a required orientation is applied.
    Forbidden membership is checked before required membership.  Directed
    edges of ``c`` are left untouched.

    Raises
    ------
    InconsistentKnowledgeError
        If ``k`` contradicts a directed edge of ``c``, requires an edge
        between non-adjacent nodes, or forbids both orientations of an
        adjacent pair.  The message names the offending pair.
    """
    for u, v in sorted(k.forbidden, key=str):
        if c.has_node(u) and c.has_node(v) and c.has_directed(u, v):
            raise InconsistentKnowledgeError(
                f"forbidden edge {u!r} -> {v!r} is directed in the graph"
            )
    for u, v in sorted(k.required, key=str):
        if not (c.has_node(u) and c.has_node(v)) or not c.has_edge(u, v):
            raise InconsistentKnowledgeError(
                f"required edge {u!r} -> {v!r} has no adjacency in the graph"
            )
        if c.has_directed(v, u):
            raise InconsistentKnowledgeError(
                f"required edge {u!r} -> {v!r} is directed {v!r} -> {u!r} "
                "in the graph"
            )

    s = _state(c)
    for u, v in c.undirected_edges:
        i, j = c.index_of(u), c.index_of(v)
        if (u, v) in k.forbidden and (v, u) in k.forbidden:
            raise InconsistentKnowledgeError(
                f"both orientations between {u!r} and {v!r} are forbidden "
                "but the nodes are adjacent"
            )
        if (u, v) in k.forbidden:
            _orient(s, j, i)
        elif (v, u) in k.forbidden or (u, v) in k.required:
            _orient(s, i, j)
        elif (v, u) in k.required:
            _orient(s, j, i)
    return c._oriented(s[0], s[1])


# === Meek's rules on per-node parent and neighbour sets


def _state(g: PDAG) -> tuple[list, list, list]:
    """``g``'s parent and neighbour sets, copied only at the nodes with an
    undirected edge, which alone orienting writes to (the rest are ``g``'s
    frozensets), and their adjacency sets, which orienting keeps."""
    pa, ne, adj = list(g._pa), list(g._ne), [None] * g.num_nodes
    for v in g._with_neighbours():
        pa[v], ne[v], adj[v] = set(pa[v]), set(ne[v]), pa[v] | g._ch[v] | ne[v]
    return pa, ne, adj


def _orient(s, tail: int, head: int) -> None:
    pa, ne, _ = s
    ne[tail].discard(head)
    ne[head].discard(tail)
    pa[head].add(tail)


def _fires(rule: int, s, b: int, c: int) -> bool:
    """Does ``rule`` orient the undirected edge b - c as b -> c (induced patterns)?"""
    pa, ne, adj = s
    if rule == 1:
        # a -> b - c with a, c non-adjacent
        return not pa[b] <= adj[c]
    if rule == 2:
        # b -> x -> c with b - c
        return any(b in pa[x] for x in pa[c])
    cand = ne[b] & pa[c]
    if rule == 3:
        # b - x, b - y, x -> c, y -> c, x and y non-adjacent (cand - adj[x] holds x)
        return any(len(cand - adj[x]) > 1 for x in cand)
    # rule 4: b - x, b - y, x -> y, y -> c, x and c non-adjacent
    return any(not (ne[b] & pa[y]) <= adj[c] for y in cand)


def _firings(s, rule: int, names, edges) -> list[tuple[int, int]]:
    """The orientations ``rule`` induces on the undirected edges ``edges`` of
    ``s`` (pairs i < j in canonical order); raises
    :class:`InconsistentKnowledgeError` if one edge fires both ways."""
    if rule not in MEEK_RULES:
        raise ValueError(f"rule must be one of {MEEK_RULES}, got {rule}")
    fired: list[tuple[int, int]] = []
    for i, j in edges:
        forward, backward = _fires(rule, s, i, j), _fires(rule, s, j, i)
        if forward and backward:
            raise InconsistentKnowledgeError(
                f"rules orient {names[j]!r}, {names[i]!r} both ways; "
                "the imposed knowledge is not consistent with the graph"
            )
        if forward or backward:
            fired.append((i, j) if forward else (j, i))
    return fired


def _frontier(ne, rule: int, oriented) -> list[tuple[int, int]]:
    """The undirected edges (sorted pairs i < j) on which ``rule`` can newly
    fire after ``oriented``: parents only grow and neighbours only shrink, so
    b -> c needs a new parent of b (rule 1) or c (rules 2-4), a new child of
    b (rule 2) or a new parent of some y in ne[b] (rule 4).  After the arcs
    into the nodes with an undirected edge, it holds every edge that can fire."""
    ends = {head for _, head in oriented}
    if rule == 2:
        ends.update(tail for tail, _ in oriented)
    if rule == 4:
        ends.update(w for _, head in oriented for w in ne[head])
    return sorted({(i, j) if i < j else (j, i) for i in ends for j in ne[i]})


def _close(s, rules: Sequence[int], names, oriented) -> list[tuple[int, Edge]]:
    """Close ``s`` in place, round by round, each rule collecting all its
    firings in canonical edge order before applying them; returns the
    ``(rule, edge)`` firings.  Each rule examines only the :func:`_frontier`
    of the orientations since it last ran, the first round that of
    ``oriented``: the arcs into nodes with an undirected edge, or those just
    made to a state on which no rule fired.  Every rule orienting b -> c
    needs a parent of b or of c, so the trace is that of full rescans."""
    log = list(oriented)
    seen = [0] * len(rules)  # log entries read per rule
    trace: list[tuple[int, Edge]] = []
    while True:
        before = len(trace)
        for k, rule in enumerate(rules):
            edges = _frontier(s[1], rule, log[seen[k] :])
            seen[k] = len(log)
            for tail, head in _firings(s, rule, names, edges):
                _orient(s, tail, head)
                log.append((tail, head))
                trace.append((rule, (names[tail], names[head])))
        if len(trace) == before:
            return trace


def meek_closure(g: PDAG, rules: Sequence[int] = MEEK_RULES) -> PDAG:
    """Fixpoint of repeated application of the given Meek rules.

    The fixpoint does not depend on the order in which rules are swept.
    """
    return meek_closure_trace(g, rules)[0]


def meek_closure_trace(
    g: PDAG, rules: Sequence[int] = MEEK_RULES
) -> tuple[PDAG, list[tuple[int, Edge]]]:
    """Like :func:`meek_closure` but also returns (rule, edge) firings:
    round by round, each rule's firings in canonical edge order."""
    s = _state(g)
    trace = _close(s, rules, g.nodes, [(t, v) for v in g._with_neighbours() for t in g._pa[v]])
    return g._oriented(s[0], s[1]), trace


def mpdag_of(c: PDAG, k: BackgroundKnowledge) -> PDAG:
    """Maximally oriented PDAG of ``c`` under knowledge ``k``.

    Imposes ``k`` on the undirected edges and closes under rules 1-4.
    """
    return meek_closure(impose_knowledge(c, k), MEEK_RULES)


def check_consistency(c: PDAG, ordering: "TieredOrdering") -> list[Edge]:
    """Directed edges of ``c`` that point from a later into an earlier tier.

    An empty list does not mean that some DAG of the class respects
    ``ordering``: the ordering may still force a v-structure that ``c``
    lacks, which :func:`tiered_mpdag` rejects after closing.  A
    :class:`GraphError` is raised unless ``ordering`` assigns a tier to
    exactly the nodes of ``c``.
    """
    names, tiers = c.nodes, ordering._assignment
    try:
        tier = ordering._tiers(names)
    except KeyError:
        missing = [v for v in names if v not in tiers]
        raise GraphError(f"ordering does not cover nodes {missing!r}") from None
    if len(tiers) > len(names):  # none missing, so some are extra
        extra = [v for v in tiers if not c.has_node(v)]
        raise GraphError(f"ordering names nodes not in the graph: {extra!r}")
    late = sorted((i, j) for j, pa in enumerate(c._pa) for i in pa if tier[i] > tier[j])
    return [(names[i], names[j]) for i, j in late]


def require_consistency(c: PDAG, ordering: "TieredOrdering") -> None:
    """Raise :class:`InconsistentKnowledgeError` listing the violations
    :func:`check_consistency` finds, if any."""
    violations = check_consistency(c, ordering)
    if violations:
        listing = ", ".join(f"{u}->{v}" for u, v in violations)
        raise InconsistentKnowledgeError(f"ordering contradicts directed edges: {listing}")


def _require_no_new_v_structures(c: PDAG, s) -> None:
    """Raise :class:`InconsistentKnowledgeError` if ``s``, an orientation of
    ``c``'s sets at its nodes with an undirected edge, gives a node a new
    parent that is not adjacent to one of its other parents: no DAG of ``c``'s
    class has that v-structure."""
    names, (pa, _, adj), old = c.nodes, s, c._pa
    for w in c._with_neighbours():
        if len(pa[w]) == len(old[w]):
            continue
        for x in sorted(pa[w] - old[w]):
            unlinked = pa[w] - adj[x] - {x}
            if unlinked:
                raise InconsistentKnowledgeError(
                    f"ordering creates the v-structure {names[x]} -> {names[w]} <- "
                    f"{names[min(unlinked)]}, which no DAG of the class has"
                )


def impose_tiers(c: PDAG, ordering: "TieredOrdering") -> PDAG:
    """Orient every undirected edge of ``c`` whose endpoints lie in
    different tiers from the earlier tier, after
    :func:`require_consistency`."""
    require_consistency(c, ordering)
    return c._oriented(*_cross_tier_state(c, ordering._tiers(c.nodes))[0][:2])


def _cross_tier_state(c: PDAG, tier: Sequence[int]):
    """``c``'s sets as :func:`_state` gives them, each undirected edge across tiers
    of the tier vector ``tier`` oriented from the earlier, unchecked, and the
    (tail, head) pairs."""
    s, ne = _state(c), c._ne
    oriented = [(i, j) for i in c._with_neighbours() for j in ne[i] if tier[i] < tier[j]]
    for i, j in oriented:
        _orient(s, i, j)
    return s, oriented


def _shares_parents(pa, ne, u: Iterable[int]) -> bool:
    """Do the ends of each undirected edge b - c of the sets ``pa`` and ``ne``
    (of the nodes ``u``, which hold every node with a neighbour) have the same
    parents?  On an acyclic PDAG, iff no Meek rule fires and
    no cycle is partially directed.  (<=) Take p in pa(b).  p is outside
    b's chain component, as a directed edge inside one closes a partially
    directed cycle.  Rule 1 does not fire, so p is adjacent to c.  But p - c
    would put p inside the component, and c -> p would close c -> p -> b - c.
    So p -> c, and symmetrically.  (=>) Rule 1 cannot fire, as pa(b) = pa(c),
    and each pattern of rules 2-4 holds a partially directed cycle (b -> x ->
    c - b; y -> c - b - y).  In such a cycle, replace each undirected run
    u - ... - v entered by x -> u with x -> v, which exists as pa(u) = pa(v):
    a closed directed walk is left, which an acyclic graph cannot have."""
    return all(pa[i] == pa[j] for i in u for j in ne[i])


def _require_shared_parents(g: PDAG) -> None:
    """Refuse ``g``, naming its least edge, unless :func:`_shares_parents` holds."""
    if not _shares_parents(g._pa, g._ne, g._with_neighbours()):
        i, j = min((i, j) for i in g._with_neighbours() for j in g._ne[i] if g._pa[i] != g._pa[j])
        raise GraphError(f"not a CPDAG or tiered MPDAG: the ends of {g.nodes[i]} - {g.nodes[j]} "
                         "have different parents")


def _require_chordal_part(c: PDAG) -> None:
    """The domain of every function that takes a CPDAG or tiered MPDAG: after
    :func:`_require_shared_parents`, refuse ``c``, naming a node, unless its undirected
    part is chordal, so that ``c`` has a member.  Any ordering whose pass passes implies
    it: let ``c`` share parents and have a chordless cycle Z of 4+ nodes (no arc is a
    chord, as Z's nodes share parents).  A result leaves Z undirected (not chordal), directs
    it one way round (a partially directed cycle), or has a sink run x -> u - ... - v <- y
    on Z: if u = v, x -> u <- y is a new v-structure; else x, a parent of u, misses v, or
    an inner node of the run if Z is x and the run, so parents differ along the run."""
    _require_shared_parents(c)
    if (k := c._non_simplicial()) is not None:
        raise GraphError(f"not a CPDAG: the undirected part is not chordal at {c.nodes[k]}")


def _require_invariants(g: PDAG, s, search: bool, u: Sequence[int]) -> None:
    """Raise :class:`InvariantError` with a witness if a Meek rule fires on
    ``g`` (its sets are ``s``; the fixpoint does not depend on rule order,
    so ``g`` is the full closure iff none fires), or if ``g`` has a partially
    directed cycle (a directed one too: ``g`` may be built unchecked) or a
    chain component that is not chordal; linear time.  A pass is
    :func:`_shares_parents` at the nodes ``u``, Kahn's check and, if ``search`` (the
    tiered pass's first result), the chordality search, needless once that result has
    proved the input's undirected part U chordal: an edge of U in a chain component K
    that ``g`` directs closes a partially directed cycle, so K is induced in U.  Only a
    failure scans the four rules, for the first firing in rule and edge order, which
    names both directions if the edge fires both ways, then the contracted
    components."""
    if (_shares_parents(s[0], s[1], u) and not g.has_directed_cycle()
            and (not search or g._non_simplicial() is None)):
        return
    names = g.nodes
    edges = [(i, j) for i in u for j in sorted(s[1][i]) if i < j]
    for r, (i, j) in itr.product(MEEK_RULES, edges):
        forward, backward = _fires(r, s, i, j), _fires(r, s, j, i)
        if forward or backward:
            t, h = (names[i], names[j]) if forward else (names[j], names[i])
            both = f" and {h} -> {t}" if forward and backward else ""
            raise InvariantError(f"rule-1 sufficiency: rule {r} orients {t} -> {h}{both}")
    witness = g._partially_directed_cycle()
    if witness is not None:
        raise InvariantError(f"partially directed cycle: {witness}")
    k = g._non_simplicial()
    if k is not None:
        raise InvariantError(f"chordality: later neighbours of {names[k]} are not all adjacent")


def _orient_tiered(c: PDAG, orderings: Sequence["TieredOrdering"], rules: Sequence[int]):
    """The tiered pass: per ordering, the graph closed under ``rules`` from the
    frontier of the cross-tier orientations (no rule fires on an admitted ``c``:
    :func:`_shares_parents`) and its :func:`meek_closure_trace` firings, built
    unchecked, as the invariant checks find a directed cycle.  ``c`` is admitted once
    for any k orderings: the shared-parents gate, then the first result's chordality
    search, which proves ``c`` chordal if its pass passes; on a failure, ``c``'s search
    (:func:`_require_chordal_part`), so k orderings give the outcome of k one-ordering
    passes in turn.  Stages walk only U, listed once."""
    _require_shared_parents(c)
    names, u, out = c.nodes, c._with_neighbours(), []
    try:
        for ordering in orderings:
            require_consistency(c, ordering)
            s, oriented = _cross_tier_state(c, ordering._tiers(names))
            trace = _close(s, rules, names, oriented)
            g = c._oriented(s[0], s[1], False)
            _require_invariants(g, s, not out, u)
            _require_no_new_v_structures(c, s)
            out.append((g, trace))
    except GraphError:
        _require_chordal_part(c)
        raise
    return out


def tiered_mpdag(c: PDAG, ordering: "TieredOrdering") -> PDAG:
    """Maximally oriented PDAG of ``c`` under a tiered ordering.

    Orients the cross-tier edges and closes under Meek's rule 1 only;
    for tiered knowledge this reaches the same fixpoint as rules 1-4.
    Every call then checks in linear time, ``python -O`` included, that the
    result is closed, a chain graph and chordal in its components, and
    raises :class:`InvariantError` with a witness if not.

    Raises
    ------
    GraphError
        If ``c`` is outside :func:`class_size`'s domain, first if the ends of
        an undirected edge have different parents.
    InconsistentKnowledgeError
        If a directed edge of ``c`` contradicts ``ordering`` (the message
        lists the violating cross-tier edges), or if the result has a
        v-structure that ``c`` lacks (the message names one), so that no
        DAG of the class respects ``ordering``.
    """
    return _orient_tiered(c, (ordering,), (1,))[0][0]


def enumerate_class(g: PDAG, max_members: int = 10_000) -> list[PDAG]:
    """All DAGs of the class the CPDAG or tiered MPDAG ``g`` represents: the
    orientations of its undirected edges that are acyclic and have exactly
    the v-structures of ``g``.

    :func:`class_size` admits ``g`` and counts the members first.  The
    listing is joint IDA on every node: clique picking with
    each node's parents carried, so every key is one member's parent sets,
    counted once (else :class:`InvariantError`).  Members come in
    lexicographic order of the directions of ``g``'s undirected edges in
    canonical order, lower-index tail first; a DAG yields a singleton list.

    Raises
    ------
    GraphError
        As :func:`class_size`, if ``g`` is outside the domain.
    LimitError
        Before listing, if over ``max_members`` members exist.
    """
    if (size := class_size(g)) > max_members:
        raise LimitError(f"class has over {max_members} members, the enumeration limit")
    names, index = g.nodes, g._index
    rows = _completions(g._ne, names, {}, names, tuple(frozenset(g._labels(x)) for x in g._pa))
    if len(rows) != size or set(rows.values()) != {1}:
        raise InvariantError(f"clique picking: {sum(rows.values())} members in {len(rows)} "
                             f"parent-set rows, for a class of {size}")
    empty = [()] * len(names)
    members = [g._oriented([{index[x] for x in pa} for pa in row], empty) for row in rows]
    edges = [(i, j) for i in g._with_neighbours() for j in sorted(g._ne[i]) if i < j]
    return sorted(members, key=lambda m: [j in m._pa[i] for i, j in edges])


def _amo_count(ne: Sequence[frozenset[int]], names, comp, memo: dict, query=()):
    """The acyclic orientations without v-structures of the connected chordal
    graph that ``ne`` induces on the indices ``comp`` (module docstring): a
    :class:`Counter` of the parent sets they give the labels ``query`` (empty
    outside ``comp``), memoised in ``memo`` (one per ``query``) by ``names``."""
    key = frozenset(names[v] for v in comp)
    if key not in memo:
        local = {v: k for k, v in enumerate(comp)}
        sub = [frozenset(local[w] for w in ne[v] if w in local) for v in comp]
        labels = [names[v] for v in comp]
        at = {x: k for k, x in enumerate(labels) if x in query}
        total = Counter()
        for clique, fp in _clique_tree(sub):
            s = ([set() if v in clique else set(x & clique) for v, x in enumerate(sub)],
                 [set() if v in clique else set(x - clique) for v, x in enumerate(sub)], sub)
            _close(s, (1,), labels, [(c, w) for c in clique for w in sub[c] - clique])  # C first
            parents = tuple(frozenset(labels[p] for p in s[0][at[x]]) if x in at else frozenset()
                            for x in query)
            total.update(_join(_phi(clique, fp, labels, query),
                               _completions(s[1], labels, memo, query, parents)))
        memo[key] = total
    return memo[key]


def _clique_tree(sub: Sequence[frozenset[int]]) -> Iterator[tuple[frozenset[int], set]]:
    """Each maximal clique C of the connected chordal graph ``sub`` with the
    separators on its path to the root that lie in C, FP(C), on Blair and
    Peyton's (1993) clique tree: a clique starts where the count of visited
    neighbours fails to grow; they are its separator, and its parent holds
    the latest visited.  No clique past a separator disjoint from C meets C."""
    cliques, seps, up, home, last = [], [], [], [-1] * len(sub), 0
    for z in _max_cardinality_search(sub, range(len(sub))):
        before = [y for y in sub[z] if home[y] >= 0]
        if len(before) <= last:
            seps.append(frozenset(before))
            up.append(max((home[y] for y in before), default=None))
            cliques.append({z, *before})
        else:
            cliques[-1].add(z)
        home[z], last = len(cliques) - 1, len(before)
    for k, clique in enumerate(cliques):
        fp = set()
        while up[k] is not None and seps[k] & clique:
            if seps[k] <= clique:
                fp.add(seps[k])
            k = up[k]
        yield frozenset(clique), fp


def _phi(clique: frozenset[int], fp, names, query=()) -> Counter:
    """phi: the orders of ``clique`` with no prefix that is, as a set, in ``fp``,
    counted as by :func:`_clique_orders`.  Over ``fp`` by size, then ``clique``:
    r's orders less, per q of ``fp`` inside r, those first in ``fp`` at q: q's, then r - q's."""
    counted = any(names[v] in query for v in clique)
    f: dict = {}
    for r in sorted(fp, key=len) + [clique]:
        if not counted:
            f[r] = math.factorial(len(r)) - sum(
                math.factorial(len(r - q)) * f[q] for q in f if q < r)
            continue
        f[r] = _clique_orders(query, [names[v] for v in r])
        for q in [q for q in f if q < r]:
            before = frozenset(names[v] for v in q)
            f[r].subtract(_join(f[q], _clique_orders(query, [names[v] for v in r - q], before)))
        if min(f[r].values()) < 0:
            listed = ",".join(sorted(str(names[v]) for v in r))
            raise InvariantError(f"clique picking: a negative count of orders of {{{listed}}}")
        f[r] = +f[r]
    return f[clique] if counted else +Counter({(frozenset(),) * len(query): f[clique]})


def _clique_orders(query: Sequence, nodes: Sequence, before: frozenset = frozenset()) -> Counter:
    """The parent sets of ``query`` (empty outside the clique) in the orders of
    a clique on ``nodes`` after all of ``before``, with their numbers: an order
    of its query nodes and a gap for each other node fix them, gap-mates in any order."""
    qs = [x for x in nodes if x in query]
    others = [x for x in nodes if x not in query]
    out = Counter()
    for order in itr.permutations(qs):
        at = {q: i for i, q in enumerate(order)}
        for gaps in itr.product(range(len(qs) + 1), repeat=len(others)):
            out[tuple(
                before.union(order[:at[x]], itr.compress(others, [g <= at[x] for g in gaps]))
                if x in at else frozenset() for x in query
            )] = math.prod(math.factorial(gaps.count(g)) for g in range(len(qs) + 1))
    return out


def _join(a: Counter, b: Counter) -> Counter:
    """Counts of parent-set tuples from two independent choices: the unions of
    all pairs, with the products of counts (a lone tuple of empty sets scales)."""
    if len(b) == 1 and not any(*b):
        return Counter({x: m * k for k in b.values() for x, m in a.items()})
    return Counter({tuple(p | q if p and q else p or q for p, q in zip(x, y)): m * k
                    for x, m in a.items() for y, k in b.items()})


def _completions(ne: Sequence[Iterable[int]], names, memo: dict, query=(), parents=()) -> Counter:
    """The orientations of a chain graph with chordal components and
    undirected part ``ne`` that keep it acyclic and add no v-structure: a
    :class:`Counter` of the parent sets of ``query``, from ``parents`` on."""
    out = Counter({parents: 1})
    for comp in _component_labels(ne)[1].values():
        out = _join(_amo_count(ne, names, comp, memo, query), out)
    return out


def class_size(g: PDAG) -> int:
    """Number of DAGs the CPDAG or tiered MPDAG ``g`` represents, without
    listing them (:func:`enumerate_class` lists them).

    The ends of each undirected edge of a CPDAG, and by the paper's result
    of a tiered MPDAG, have the same parents, so its chain components can
    be oriented independently of each other and of the directed part:
    every choice of one acyclic orientation without v-structures per
    component gives a member, and every member arises once.  So the size
    is the product of the components' counts, each found by clique
    picking.  Any other graph, or one whose undirected part is not
    chordal (it has no member), raises a :class:`GraphError`.
    """
    _require_chordal_part(g)
    return _completions(g._ne, g.nodes, {})[()]
