"""Edge orientation: background knowledge, Meek's rules, MPDAG construction.

Knowledge is imposed on a CPDAG by orienting undirected edges, then
Meek's four rules are applied until no further change; the fixpoint is
the maximally oriented PDAG for that knowledge.  Tiered knowledge is
imposed from the tier vector alone by :func:`impose_tiers`, which every
tiered construction goes through; closing under rule 1 alone then
already reaches the fixpoint, so :func:`tiered_mpdag` runs only rule 1
and (in debug mode) asserts agreement with the full closure, the absence
of partially directed cycles, and chordality of the chain components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .graphs import Edge, GraphError, LimitError, PDAG, v_structures

if TYPE_CHECKING:  # pragma: no cover
    from .tiers import TieredOrdering

MEEK_RULES = (1, 2, 3, 4)


class InconsistentKnowledgeError(GraphError):
    """Background knowledge contradicts the graph or itself."""


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

    amat = c._amat.copy()
    for u, v in c.undirected_edges:
        i, j = c.index_of(u), c.index_of(v)
        if (u, v) in k.forbidden and (v, u) in k.forbidden:
            raise InconsistentKnowledgeError(
                f"both orientations between {u!r} and {v!r} are forbidden "
                "but the nodes are adjacent"
            )
        if (u, v) in k.forbidden:
            amat[i, j] = False  # v -> u
        elif (v, u) in k.forbidden:
            amat[j, i] = False  # u -> v
        elif (u, v) in k.required:
            amat[j, i] = False
        elif (v, u) in k.required:
            amat[i, j] = False
    return PDAG._from_amat(c.nodes, amat)


# === Meek's rules on raw adjacency matrices


def _rule_firings(amat: np.ndarray, rule: int) -> list[tuple[int, int]]:
    """All orientations the given rule induces on the current matrix.

    Patterns are matched as induced subgraphs; firings are collected in
    canonical edge order without applying them.
    """
    d = amat & ~amat.T
    u = amat & amat.T
    adj = amat | amat.T
    fired: list[tuple[int, int]] = []
    p = amat.shape[0]
    for i in range(p):
        for j in range(i + 1, p):
            if not u[i, j]:
                continue
            for tail, head in ((i, j), (j, i)):
                if _fires(rule, d, u, adj, tail, head):
                    fired.append((tail, head))
    return fired


def _fires(rule: int, d, u, adj, b: int, c: int) -> bool:
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
        for ii in range(len(cand)):
            for jj in range(ii + 1, len(cand)):
                if not adj[cand[ii], cand[jj]]:
                    return True
        return False
    if rule == 4:
        # b - x, b - y, x -> y, y -> c, x and c non-adjacent
        for y in np.nonzero(u[b, :] & d[:, c])[0]:
            if np.any(u[b, :] & d[:, y] & ~adj[:, c] & ~adj[c, :]):
                return True
        return False
    raise ValueError(f"unknown rule {rule}")


def _apply_firings(amat: np.ndarray, fired: Sequence[tuple[int, int]], names) -> None:
    oriented: dict[frozenset, tuple[int, int]] = {}
    for tail, head in fired:
        key = frozenset((tail, head))
        prev = oriented.get(key)
        if prev is not None and prev != (tail, head):
            raise InconsistentKnowledgeError(
                f"rules orient {names[tail]!r}, {names[head]!r} both ways; "
                "the imposed knowledge is not consistent with the graph"
            )
        oriented[key] = (tail, head)
        amat[head, tail] = False


def apply_meek_rule(g: PDAG, rule: int) -> tuple[PDAG, list[Edge]]:
    """One full sweep of a single Meek rule.

    Returns the updated graph and the newly oriented edges in canonical
    order.  A fixpoint returns the graph unchanged with an empty list.
    """
    if rule not in MEEK_RULES:
        raise ValueError(f"rule must be one of {MEEK_RULES}, got {rule}")
    amat = g._amat.copy()
    fired = _rule_firings(amat, rule)
    _apply_firings(amat, fired, g.nodes)
    edges = [(g.nodes[t], g.nodes[h]) for t, h in fired]
    return PDAG._from_amat(g.nodes, amat), edges


def _closure(
    amat: np.ndarray, rules: Sequence[int], names
) -> list[tuple[int, Edge]]:
    """Close ``amat`` in place under the given rules; returns the trace."""
    trace: list[tuple[int, Edge]] = []
    changed = True
    while changed:
        changed = False
        for rule in rules:
            fired = _rule_firings(amat, rule)
            if fired:
                _apply_firings(amat, fired, names)
                trace.extend((rule, (names[t], names[h])) for t, h in fired)
                changed = True
    return trace


def meek_closure(g: PDAG, rules: Sequence[int] = MEEK_RULES) -> PDAG:
    """Fixpoint of repeated application of the given Meek rules.

    The fixpoint does not depend on the order in which rules are swept.
    """
    for rule in rules:
        if rule not in MEEK_RULES:
            raise ValueError(f"rule must be one of {MEEK_RULES}, got {rule}")
    amat = g._amat.copy()
    _closure(amat, rules, g.nodes)
    return PDAG._from_amat(g.nodes, amat)


def meek_closure_trace(
    g: PDAG, rules: Sequence[int] = MEEK_RULES
) -> tuple[PDAG, list[tuple[int, Edge]]]:
    """Like :func:`meek_closure` but also returns (rule, edge) firings."""
    amat = g._amat.copy()
    trace = _closure(amat, rules, g.nodes)
    return PDAG._from_amat(g.nodes, amat), trace


def mpdag_of(c: PDAG, k: BackgroundKnowledge) -> PDAG:
    """Maximally oriented PDAG of ``c`` under knowledge ``k``.

    Imposes ``k`` on the undirected edges and closes under rules 1-4.
    """
    return meek_closure(impose_knowledge(c, k), MEEK_RULES)


def check_consistency(c: PDAG, ordering: "TieredOrdering") -> list[Edge]:
    """Directed edges of ``c`` that point from a later into an earlier tier.

    An empty list means ``ordering`` is consistent with ``c``: only the
    cross-tier edges need checking because an ordering drawn from a DAG
    of the represented class can never contradict anything else.  A
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


def impose_tiers(c: PDAG, ordering: "TieredOrdering") -> PDAG:
    """Orient every undirected edge of ``c`` whose endpoints lie in
    different tiers from the earlier tier, after
    :func:`require_consistency`."""
    require_consistency(c, ordering)
    # contiguous levels keep any integer tiers exact in an int64 array
    levels = ordering.normalized()
    tier = np.array([levels.tier_of(v) for v in c.nodes])
    # no directed edge points later -> earlier, so only undirected ones lose a half
    return PDAG._from_amat(c.nodes, c._amat & ~(tier[:, None] > tier[None, :]))


def tiered_mpdag(c: PDAG, ordering: "TieredOrdering") -> PDAG:
    """Maximally oriented PDAG of ``c`` under a tiered ordering.

    Orients the cross-tier edges and closes under Meek's rule 1 only;
    for tiered knowledge this reaches the same fixpoint as rules 1-4.
    In debug mode (``python`` without ``-O``) that agreement, the absence
    of partially directed cycles, and chordality of the chain components
    are all asserted on every construction.

    Raises
    ------
    InconsistentKnowledgeError
        If a directed edge of ``c`` contradicts ``ordering``; the message
        lists the violating cross-tier edges.
    """
    imposed = impose_tiers(c, ordering)
    g = meek_closure(imposed, rules=(1,))
    if __debug__:
        full = meek_closure(imposed, rules=MEEK_RULES)
        assert g == full, "rule-1 closure differs from full closure"
        assert not g.has_partially_directed_cycle()
        assert g.undirected_subgraph().is_chordal()
    return g


def enumerate_class(g: PDAG, max_undirected: int = 12) -> list[PDAG]:
    """All DAGs of the restricted equivalence class represented by ``g``.

    Brute force over the ``2**k`` orientations of the ``k`` undirected
    edges, keeping those that are acyclic and preserve the v-structures
    of ``g``.  A DAG input yields a singleton list.

    Raises
    ------
    LimitError
        If ``g`` has more than ``max_undirected`` undirected edges.
    """
    und = g.undirected_edges
    if len(und) > max_undirected:
        raise LimitError(
            f"{len(und)} undirected edges exceed the enumeration limit "
            f"of {max_undirected}"
        )
    target = v_structures(g)
    pairs = [(g.index_of(u), g.index_of(v)) for u, v in und]
    base = g._amat
    out = []
    for mask in range(1 << len(pairs)):
        amat = base.copy()
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                amat[i, j] = False  # orient j -> i
            else:
                amat[j, i] = False  # orient i -> j
        try:
            cand = PDAG._from_amat(g.nodes, amat)
        except GraphError:
            continue
        if v_structures(cand) == target:
            out.append(cand)
    return out
