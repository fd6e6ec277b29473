"""d-separation and oracle CPDAG construction.

d-separation queries are answered with a linear-time reachability walk
over (node, direction) states; the exhaustive path-enumeration
definition is kept as a test oracle for small graphs.  Queries are
restricted to DAGs: the collider semantics of undirected edges is not
defined here, so mixed graphs are rejected rather than guessed at.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .graphs import GraphError, Node, PDAG, _topological_order


def _as_index_set(g: PDAG, nodes: Iterable[Node]) -> set[int]:
    return {g.index_of(v) for v in nodes}


def _require_dag(g: PDAG) -> None:
    if not g.is_directed:
        raise GraphError("this operation is defined for DAGs only")


def is_d_separated(
    g: PDAG, a: Iterable[Node], b: Iterable[Node], c: Iterable[Node] = ()
) -> bool:
    """Are the sets ``a`` and ``b`` d-separated given ``c`` in the DAG ``g``?

    True iff no path from ``a`` to ``b`` is d-connecting given ``c``:
    on a d-connecting path every collider (or one of its descendants)
    is in ``c`` and no non-collider is.

    Raises
    ------
    GraphError
        If ``g`` is not a DAG, the sets overlap, or ``a``/``b`` is empty.
    """
    _require_dag(g)
    sa = _as_index_set(g, a)
    sb = _as_index_set(g, b)
    sc = _as_index_set(g, c)
    if not sa or not sb:
        raise GraphError("both endpoint sets must be non-empty")
    if sa & sb or sa & sc or sb & sc:
        raise GraphError("the three node sets must be pairwise disjoint")

    children, parents = g._ch, g._pa

    # ancestors of c (including c): colliders may pass the walk there
    anc_c = set(sc)
    queue = deque(sc)
    while queue:
        v = queue.popleft()
        for w in parents[v]:
            if w not in anc_c:
                anc_c.add(w)
                queue.append(w)

    # states: (node, came_from_parent); start as if arriving from a child
    seen: set[tuple[int, bool]] = set()
    queue = deque((s, False) for s in sa)
    while queue:
        v, from_parent = queue.popleft()
        if (v, from_parent) in seen:
            continue
        seen.add((v, from_parent))
        if v in sb:
            return False
        if not from_parent:
            # trail continues through a non-collider
            if v not in sc:
                for w in parents[v]:
                    queue.append((w, False))
                for w in children[v]:
                    queue.append((w, True))
        else:
            if v not in sc:
                for w in children[v]:
                    queue.append((w, True))
            if v in anc_c:
                # collider open: v is in c or has a descendant in c
                for w in parents[v]:
                    queue.append((w, False))
    return True


def cpdag_of(d: PDAG) -> PDAG:
    """CPDAG of the equivalence class of the DAG ``d``.

    Labels each edge compelled, directed in the result, or reversible,
    undirected, in one sweep of a topological order (Chickering's
    Find-Compelled, UAI 1995).  For a node ``y`` with latest parent ``x``:
    if the compelled parents of ``x`` are parents of ``y`` and the other
    parents of ``y`` are parents of ``x``, ``y`` has the compelled parents of
    ``x`` and its other edges are reversible; else all its edges in are compelled.
    """
    _require_dag(d)
    order, pa = _topological_order(d._pa, d._ch), d._pa
    rank = {v: k for k, v in enumerate(order)}
    compelled = [frozenset()] * len(pa)
    arcs, undirected = [], []
    for y in order:
        if ps := pa[y]:
            x = max(ps, key=rank.__getitem__)
            if compelled[x] <= ps and len(ps - pa[x]) == 1:
                compelled[y] = compelled[x]
                undirected += [(i, y) for i in ps - compelled[x]]
            else:
                compelled[y] = ps
            arcs += [(i, y) for i in compelled[y]]
    return PDAG._from_pairs(d.nodes, d._index, arcs, undirected)
