"""Edge orientation: background knowledge, Meek's rules, MPDAG construction.

Knowledge is imposed on a CPDAG by orienting undirected edges, then
Meek's four rules are applied until no further change; the fixpoint is
the maximally oriented PDAG for that knowledge.  The imposition and the
closure copy the graph's own parent and neighbour sets, orient only
undirected edges in the copies and build the result from them; in each
round of the closure, each rule collects all its firings in canonical
edge order, then applies them.  Tiered knowledge is imposed from the
tier vector alone by :func:`impose_tiers`, never as a set of forbidden
pairs (that view, ``forbidden_set``, is a test oracle); closing under rule 1
alone then reaches the fixpoint, so :func:`tiered_mpdag` runs only
rule 1 (and, in debug mode, checks the paper's invariants in linear
time on the result's own sets, raising :class:`InvariantError`); it
then rejects an ordering that forces a v-structure the input lacks.
:func:`enumerate_class` lists a class by branch and close, in a fixed
lexicographic order, and stops with :class:`LimitError` beyond
``max_members`` members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from .graphs import Edge, GraphError, LimitError, PDAG, v_structures

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
    return _graph(c, s)


# === Meek's rules on per-node parent and neighbour sets


def _state(g: PDAG) -> tuple[list[set], list[set], list[frozenset]]:
    """Copies of ``g``'s parent and neighbour sets, and its adjacency sets,
    which orienting keeps."""
    return [set(x) for x in g._pa], [set(x) for x in g._ne], g._adjacency()


def _graph(g: PDAG, s) -> PDAG:
    """The graph on ``g``'s nodes with the parents and neighbours of ``s``."""
    return PDAG._from_sets(g.nodes, s[0], s[1])


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


def _firings(s, rule: int, names) -> list[tuple[int, int]]:
    """All orientations ``rule`` induces on ``s``, in canonical edge order;
    raises :class:`InconsistentKnowledgeError` if one edge fires both ways."""
    if rule not in MEEK_RULES:
        raise ValueError(f"rule must be one of {MEEK_RULES}, got {rule}")
    fired: list[tuple[int, int]] = []
    for i, j in sorted((i, j) for i, nb in enumerate(s[1]) for j in nb if i < j):
        forward, backward = _fires(rule, s, i, j), _fires(rule, s, j, i)
        if forward and backward:
            raise InconsistentKnowledgeError(
                f"rules orient {names[j]!r}, {names[i]!r} both ways; "
                "the imposed knowledge is not consistent with the graph"
            )
        if forward or backward:
            fired.append((i, j) if forward else (j, i))
    return fired


def _close(s, rules: Sequence[int], names) -> list[tuple[int, int, int]]:
    """Close ``s`` in place, round by round, each rule collecting all its
    firings before applying them; returns the ``(rule, tail, head)`` firings."""
    trace: list[tuple[int, int, int]] = []
    while True:
        before = len(trace)
        for rule in rules:
            for tail, head in _firings(s, rule, names):
                _orient(s, tail, head)
                trace.append((rule, tail, head))
        if len(trace) == before:
            return trace


def apply_meek_rule(g: PDAG, rule: int) -> tuple[PDAG, list[Edge]]:
    """One full sweep of a single Meek rule.

    Returns the updated graph and the newly oriented edges in canonical
    order.  A fixpoint returns the graph unchanged with an empty list.
    """
    s = _state(g)
    fired = _firings(s, rule, g.nodes)
    for tail, head in fired:
        _orient(s, tail, head)
    return _graph(g, s), [(g.nodes[t], g.nodes[h]) for t, h in fired]


def meek_closure(g: PDAG, rules: Sequence[int] = MEEK_RULES) -> PDAG:
    """Fixpoint of repeated application of the given Meek rules.

    The fixpoint does not depend on the order in which rules are swept.
    """
    s = _state(g)
    _close(s, rules, g.nodes)
    return _graph(g, s)


def meek_closure_trace(
    g: PDAG, rules: Sequence[int] = MEEK_RULES
) -> tuple[PDAG, list[tuple[int, Edge]]]:
    """Like :func:`meek_closure` but also returns (rule, edge) firings:
    round by round, each rule's firings in canonical edge order."""
    s = _state(g)
    trace = _close(s, rules, g.nodes)
    edges = [(rule, (g.nodes[t], g.nodes[h])) for rule, t, h in trace]
    return _graph(g, s), edges


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
    tiers = ordering.assignment
    missing = [v for v in c.nodes if v not in tiers]
    if missing:
        raise GraphError(f"ordering does not cover nodes {missing!r}")
    extra = [v for v in tiers if not c.has_node(v)]
    if extra:
        raise GraphError(f"ordering names nodes not in the graph: {extra!r}")
    return [(u, v) for u, v in c.directed_edges if tiers[u] > tiers[v]]


def require_consistency(c: PDAG, ordering: "TieredOrdering") -> None:
    """Raise :class:`InconsistentKnowledgeError` listing the violations
    :func:`check_consistency` finds, if any."""
    violations = check_consistency(c, ordering)
    if violations:
        listing = ", ".join(f"{u}->{v}" for u, v in violations)
        raise InconsistentKnowledgeError(
            f"ordering contradicts directed edges: {listing}"
        )


def _require_no_new_v_structures(c: PDAG, g: PDAG) -> None:
    """Raise :class:`InconsistentKnowledgeError` if ``g``, an orientation
    of ``c``, gives a node a new parent that is not adjacent to one of its
    other parents: no DAG of ``c``'s class has that v-structure."""
    names = g.nodes
    for w, (pa, old) in enumerate(zip(g._pa, c._pa)):
        if len(pa) == len(old):
            continue
        for x in sorted(pa - old):
            px, cx, nx = g._pa[x], g._ch[x], g._ne[x]
            unlinked = [u for u in pa if u != x and u not in px and u not in cx and u not in nx]
            if unlinked:
                u = min(unlinked)
                raise InconsistentKnowledgeError(
                    f"ordering creates the v-structure {names[x]} -> {names[w]} <- "
                    f"{names[u]}, which no DAG of the class has"
                )


def impose_tiers(c: PDAG, ordering: "TieredOrdering") -> PDAG:
    """Orient every undirected edge of ``c`` whose endpoints lie in
    different tiers from the earlier tier, after
    :func:`require_consistency`."""
    require_consistency(c, ordering)
    tiers = ordering.assignment
    tier = [tiers[v] for v in c.nodes]
    s = _state(c)
    for i, ne in enumerate(c._ne):
        for j in ne:
            if tier[i] < tier[j]:
                _orient(s, i, j)
    return _graph(c, s)


def tiered_mpdag(c: PDAG, ordering: "TieredOrdering") -> PDAG:
    """Maximally oriented PDAG of ``c`` under a tiered ordering.

    Orients the cross-tier edges and closes under Meek's rule 1 only;
    for tiered knowledge this reaches the same fixpoint as rules 1-4.
    In debug mode (``python`` without ``-O``) every construction checks,
    in linear time, that no Meek rule fires on the result, that it has
    no partially directed cycle, and that its chain components are
    chordal, and raises :class:`InvariantError` with a witness if not.

    Raises
    ------
    InconsistentKnowledgeError
        If a directed edge of ``c`` contradicts ``ordering`` (the message
        lists the violating cross-tier edges), or if the result has a
        v-structure that ``c`` lacks (the message names one), so that no
        DAG of the class respects ``ordering``.
    """
    imposed = impose_tiers(c, ordering)
    g = meek_closure(imposed, rules=(1,))
    if __debug__:
        # the closure does not depend on rule order, so the full closure
        # of ``imposed`` is ``g`` iff no rule fires on ``g``
        s, names = (g._pa, g._ne, g._adjacency()), g.nodes
        fired = [(r, names[t], names[h]) for r in MEEK_RULES for t, h in _firings(s, r, names)]
        if fired:
            raise InvariantError("rule-1 sufficiency: rule %s orients %s -> %s" % fired[0])
        if g.has_partially_directed_cycle():
            raise InvariantError(f"partially directed cycle: {g._partially_directed_cycle()}")
        k = g._non_simplicial()
        if k is not None:
            v = names[k]
            raise InvariantError(f"chordality: later neighbours of {v} are not all adjacent")
    _require_no_new_v_structures(c, g)
    return g


def enumerate_class(g: PDAG, max_members: int = 10_000) -> list[PDAG]:
    """All DAGs of the restricted equivalence class represented by ``g``:
    the orientations of its undirected edges that are acyclic and have
    exactly the v-structures of ``g``.

    Branch and close: close under rules 1-4, orient the lowest-index
    undirected edge each way, close each branch again; drop a branch
    whose closure orients an edge both ways, and keep one with no
    undirected edge left if it passes the check above.  On a CPDAG or
    MPDAG every branch ends in a member.  Members come in lexicographic
    order of the directions of ``g``'s undirected edges in canonical
    order, lower-index tail first; a DAG yields a singleton list.

    Raises
    ------
    LimitError
        As soon as more than ``max_members`` members are found.
    """
    target = v_structures(g)
    out: list[PDAG] = []
    stack = [_state(g)]
    while stack:
        s = stack.pop()
        try:
            _close(s, MEEK_RULES, g.nodes)
        except InconsistentKnowledgeError:
            continue
        pa, ne, adj = s
        i = next((i for i, nb in enumerate(ne) if nb), None)
        if i is not None:
            j = min(ne[i])
            back = ([set(x) for x in pa], [set(x) for x in ne], adj)
            _orient(back, j, i)
            _orient(s, i, j)
            stack += (back, s)
            continue
        try:
            member = _graph(g, s)
        except GraphError:
            continue
        if v_structures(member) == target:
            out.append(member)
            if len(out) > max_members:
                raise LimitError(f"class has over {max_members} members, the enumeration limit")
    return out
