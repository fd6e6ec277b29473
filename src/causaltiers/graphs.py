"""Mixed graphs with directed and undirected edges (PDAGs).

A :class:`PDAG` holds at most one edge per node pair, forbids self-loops
and directed cycles, and is immutable after construction.  DAGs, CPDAGs
and maximally oriented PDAGs are all validity states of this one
structure.  Nodes carry arbitrary hashable labels; internally they are
mapped to dense indices in insertion order, and every set-valued result
is returned sorted by that index so outputs are deterministic.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

Node = Hashable
Edge = tuple[Node, Node]

#: Node-count guard for exhaustive path enumeration.
DEFAULT_PATH_NODE_LIMIT = 25


class GraphError(ValueError):
    """Structural problem with a graph or a graph operation's input."""


class CycleError(GraphError):
    """A set of directed edges closes a directed cycle."""


class LimitError(GraphError):
    """An enumeration guard (node count or class members) was exceeded."""


class PDAG:
    """Partially directed acyclic graph.

    Parameters
    ----------
    nodes:
        Iterable of node labels.  Labels must be unique; endpoints of
        edges that are not listed are appended in order of appearance.
    directed:
        Iterable of ``(tail, head)`` pairs.
    undirected:
        Iterable of unordered ``(u, v)`` pairs.

    Raises
    ------
    GraphError
        On self-loops, duplicate edges between a pair, or unknown input.
    CycleError
        If the directed edges contain a cycle.

    Examples
    --------
    >>> g = PDAG("ABC", directed=[("A", "B")], undirected=[("B", "C")])
    >>> g.parents_of("B")
    ('A',)
    >>> g.neighbors_of("B")
    ('C',)
    """

    __slots__ = ("_names", "_index", "_amat", "_hash")

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        directed: Iterable[Edge] = (),
        undirected: Iterable[Edge] = (),
    ):
        names: list[Node] = []
        index: dict[Node, int] = {}

        def intern(label: Node) -> int:
            if label not in index:
                index[label] = len(names)
                names.append(label)
            return index[label]

        for label in nodes:
            if label in index:
                raise GraphError(f"duplicate node label {label!r}")
            intern(label)

        directed = [(u, v) for u, v in directed]
        undirected = [(u, v) for u, v in undirected]
        for u, v in directed + undirected:
            intern(u)
            intern(v)

        p = len(names)
        amat = np.zeros((p, p), dtype=bool)
        for u, v in directed:
            i, j = index[u], index[v]
            self._check_new_pair(amat, i, j, u, v)
            amat[i, j] = True
        for u, v in undirected:
            i, j = index[u], index[v]
            self._check_new_pair(amat, i, j, u, v)
            amat[i, j] = amat[j, i] = True

        cycle = _directed_cycle(amat)
        if cycle is not None:
            raise CycleError(
                "directed cycle: " + " -> ".join(str(names[i]) for i in cycle)
            )

        self._names = tuple(names)
        self._index = index
        self._amat = amat
        self._amat.setflags(write=False)
        self._hash: int | None = None

    @staticmethod
    def _check_new_pair(amat, i: int, j: int, u: Node, v: Node) -> None:
        if i == j:
            raise GraphError(f"self-loop at node {u!r}")
        if amat[i, j] or amat[j, i]:
            raise GraphError(f"more than one edge between {u!r} and {v!r}")

    @classmethod
    def _from_amat(cls, names: Sequence[Node], amat: np.ndarray) -> "PDAG":
        """Build from an adjacency matrix without copying edge lists."""
        g = cls.__new__(cls)
        g._names = tuple(names)
        g._index = {label: i for i, label in enumerate(names)}
        cycle = _directed_cycle(amat)
        if cycle is not None:
            raise CycleError(
                "directed cycle: " + " -> ".join(str(names[i]) for i in cycle)
            )
        g._amat = amat.copy()
        g._amat.setflags(write=False)
        g._hash = None
        return g

    # === basic accessors

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._names

    @property
    def num_nodes(self) -> int:
        return len(self._names)

    def has_node(self, v: Node) -> bool:
        return v in self._index

    def index_of(self, v: Node) -> int:
        """Dense index of ``v`` (insertion order)."""
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown node {v!r}") from None

    # _entries lists entries row by row, so both are in canonical order
    @property
    def directed_edges(self) -> tuple[Edge, ...]:
        rows, cols, both = _entries(self._amat)
        names = self._names
        return tuple((names[i], names[j]) for i, j in zip(rows[~both], cols[~both]))

    @property
    def undirected_edges(self) -> tuple[Edge, ...]:
        rows, cols, both = _entries(self._amat)
        keep, names = both & (rows < cols), self._names
        return tuple((names[i], names[j]) for i, j in zip(rows[keep], cols[keep]))

    @property
    def num_edges(self) -> int:
        return len(self.directed_edges) + len(self.undirected_edges)

    @property
    def is_directed(self) -> bool:
        """True iff every edge is directed (the graph is a DAG)."""
        return not self.undirected_edges

    @property
    def is_undirected(self) -> bool:
        return not self.directed_edges

    def has_edge(self, u: Node, v: Node) -> bool:
        i, j = self.index_of(u), self.index_of(v)
        return bool(self._amat[i, j] or self._amat[j, i])

    def has_directed(self, u: Node, v: Node) -> bool:
        i, j = self.index_of(u), self.index_of(v)
        return bool(self._amat[i, j] and not self._amat[j, i])

    def has_undirected(self, u: Node, v: Node) -> bool:
        i, j = self.index_of(u), self.index_of(v)
        return bool(self._amat[i, j] and self._amat[j, i])

    def _labels(self, idxs: Iterable[int]) -> tuple[Node, ...]:
        return tuple(self._names[i] for i in sorted(idxs))

    def parents_of(self, v: Node) -> tuple[Node, ...]:
        j = self.index_of(v)
        a = self._amat
        return self._labels(np.nonzero(a[:, j] & ~a[j, :])[0])

    def children_of(self, v: Node) -> tuple[Node, ...]:
        i = self.index_of(v)
        a = self._amat
        return self._labels(np.nonzero(a[i, :] & ~a[:, i])[0])

    def neighbors_of(self, v: Node) -> tuple[Node, ...]:
        """Nodes joined to ``v`` by an undirected edge."""
        i = self.index_of(v)
        a = self._amat
        return self._labels(np.nonzero(a[i, :] & a[:, i])[0])

    def adjacent_to(self, v: Node) -> tuple[Node, ...]:
        i = self.index_of(v)
        a = self._amat
        return self._labels(np.nonzero(a[i, :] | a[:, i])[0])

    # === comparison

    def __eq__(self, other) -> bool:
        if not isinstance(other, PDAG):
            return NotImplemented
        return (
            set(self._names) == set(other._names)
            and set(self.directed_edges) == set(other.directed_edges)
            and set(self.undirected_edges) == set(other.undirected_edges)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    frozenset(self._names),
                    frozenset(self.directed_edges),
                    frozenset(self.undirected_edges),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        parts = [f"{u}->{v}" for u, v in self.directed_edges]
        parts += [f"{u}--{v}" for u, v in self.undirected_edges]
        return f"PDAG({list(self._names)!r}, [{', '.join(parts)}])"

    # === derived graphs

    def skeleton(self) -> "PDAG":
        """Same adjacencies with every edge undirected."""
        a = self._amat
        return PDAG._from_amat(self._names, a | a.T)

    def undirected_subgraph(self) -> "PDAG":
        """Same nodes, only the undirected edges."""
        a = self._amat
        return PDAG._from_amat(self._names, a & a.T)

    def directed_subgraph(self) -> "PDAG":
        """Same nodes, only the directed edges."""
        a = self._amat
        return PDAG._from_amat(self._names, a & ~a.T)

    def induced_subgraph(self, nodes: Iterable[Node]) -> "PDAG":
        """Subgraph over ``nodes`` keeping all and only edges between them."""
        keep = [self.index_of(v) for v in nodes]
        if len(set(keep)) != len(keep):
            raise GraphError("duplicate node in induced subgraph selection")
        keep.sort()
        sub = self._amat[np.ix_(keep, keep)]
        return PDAG._from_amat([self._names[i] for i in keep], sub)

    # === structure queries

    def has_directed_cycle(self) -> bool:
        return _directed_cycle(self._amat) is not None

    def has_partially_directed_cycle(self) -> bool:
        """True iff some cycle traverses >= 1 directed edge, none backwards.

        Undirected edges may be walked in either direction.  One exists iff
        a directed edge joins two nodes of one chain component, or the
        contracted chain components have a directed cycle: O(V + E).
        """
        return self._partially_directed_cycle() is not None

    def _partially_directed_cycle(self) -> str | None:
        """Describe one partially directed cycle, or return None."""
        a, names = self._amat, self._names
        label = np.array(self._component_labels(), dtype=int)
        tails, heads = np.nonzero(a & ~a.T)
        inner = np.flatnonzero(label[tails] == label[heads])
        if inner.size:
            i, j = tails[inner[0]], heads[inner[0]]
            return f"directed edge {names[i]} -> {names[j]} inside a chain component"
        contracted = np.zeros(a.shape, dtype=bool)
        contracted[label[tails], label[heads]] = True
        # edges both ways between two components would read as undirected
        mutual = np.argwhere(contracted & contracted.T)
        cycle = [*mutual[0], mutual[0][0]] if mutual.size else _directed_cycle(contracted)
        if cycle is None:
            return None
        members = [",".join(str(names[v]) for v in np.nonzero(label == k)[0]) for k in cycle]
        return "chain components cycle {" + "} -> {".join(members) + "}"

    def _component_labels(self) -> list[int]:
        """Each node's chain component, named by its smallest member index."""
        nb = _rows(self.num_nodes, *np.nonzero(self._amat & self._amat.T))
        label = [-1] * self.num_nodes
        for start in range(self.num_nodes):
            if label[start] < 0:
                label[start], stack = start, [start]
                while stack:
                    for w in nb[stack.pop()]:
                        if label[w] < 0:
                            label[w] = start
                            stack.append(w)
        return label

    def chain_components(self) -> list[tuple[Node, ...]]:
        """Connected components of the undirected subgraph, singletons included.

        Components are sorted by their smallest node index.
        """
        comps: dict[int, list[Node]] = {}
        for v, k in enumerate(self._component_labels()):
            comps.setdefault(k, []).append(self._names[v])
        return [tuple(c) for c in comps.values()]

    def is_chordal(self) -> bool:
        """Chordality of an undirected graph.

        Maximum cardinality search with a bucket queue (Tarjan and
        Yannakakis, 1984; lowest index first among the heaviest nodes),
        then a check that its order is a perfect elimination ordering.
        A disconnected graph is chordal iff every component is.

        Raises
        ------
        GraphError
            If the graph has a directed edge.
        """
        return self._non_simplicial() is None

    def _non_simplicial(self) -> int | None:
        """Index of the lowest node whose later neighbours in the search order
        are not all adjacent to the first of them; None if the graph is chordal."""
        if not self.is_undirected:
            raise GraphError("chordality is defined for undirected graphs")
        p = self.num_nodes
        adj = [set(row) for row in _rows(p, *np.nonzero(self._amat))]

        # buckets[w] is a heap of the nodes last seen with weight w
        weight = [0] * p
        number = [0] * p
        buckets: list[list[int]] = [list(range(p))] + [[] for _ in range(p)]
        top = 0
        for num in range(p, 0, -1):
            while True:
                while not buckets[top]:
                    top -= 1
                z = heapq.heappop(buckets[top])
                if not number[z] and weight[z] == top:
                    break
            number[z] = num
            for y in adj[z]:
                if not number[y]:
                    weight[y] += 1
                    heapq.heappush(buckets[weight[y]], y)
                    top = max(top, weight[y])

        for v in range(p):
            later = {w for w in adj[v] if number[w] > number[v]}
            if not later:
                continue
            u = min(later, key=lambda w: number[w])
            if not (later - {u}) <= adj[u]:
                return v
        return None

    # === path enumeration

    def find_unshielded_paths(
        self, source: Node, target: Node, max_nodes: int = DEFAULT_PATH_NODE_LIMIT
    ) -> list[tuple[Node, ...]]:
        """All simple paths from ``source`` to ``target`` whose every
        consecutive triple <A, B, C> has A and C non-adjacent.

        Paths are returned in depth-first order with neighbours visited
        by node index, so the result is deterministic.
        """
        return list(self._paths(source, target, max_nodes, unshielded=True))

    def simple_paths(
        self,
        source: Node,
        target: Node,
        max_edges: int | None = None,
        max_nodes: int = DEFAULT_PATH_NODE_LIMIT,
    ) -> Iterator[tuple[Node, ...]]:
        """Yield all simple paths from ``source`` to ``target``.

        ``max_edges`` bounds the path length; the node-count guard
        protects against exponential blowup on large graphs.
        """
        return self._paths(source, target, max_nodes, max_edges=max_edges)

    def _paths(
        self,
        source: Node,
        target: Node,
        max_nodes: int,
        max_edges: int | None = None,
        unshielded: bool = False,
    ) -> Iterator[tuple[Node, ...]]:
        """Check the endpoints and the size guard now, then walk lazily:
        depth first, neighbours by node index, at most ``max_edges`` edges,
        and with ``unshielded`` no triple whose ends are adjacent."""
        s, t = self.index_of(source), self.index_of(target)
        if s == t:
            raise GraphError("source and target must differ")
        self._check_path_guard(max_nodes)
        a = self._amat
        adjacent = (a | a.T).tolist()
        adj = [[w for w, on in enumerate(row) if on] for row in adjacent]
        names = self._names
        cap = self.num_nodes if max_edges is None else max_edges

        def walk() -> Iterator[tuple[Node, ...]]:
            if cap < 1:
                return
            path = [s]
            on_path = [False] * len(names)
            on_path[s] = True
            stack = [iter(adj[s])]
            while stack:
                for w in stack[-1]:
                    if on_path[w] or (unshielded and len(path) > 1 and adjacent[path[-2]][w]):
                        continue
                    if w == t:
                        yield tuple(names[i] for i in path) + (names[t],)
                    elif len(path) < cap:
                        path.append(w)
                        on_path[w] = True
                        stack.append(iter(adj[w]))
                        break
                else:
                    stack.pop()
                    on_path[path.pop()] = False

        return walk()

    def _check_path_guard(self, max_nodes: int) -> None:
        if self.num_nodes > max_nodes:
            raise LimitError(
                f"graph has {self.num_nodes} nodes; exhaustive path "
                f"enumeration is limited to {max_nodes} (raise max_nodes "
                "to override)"
            )

    def check_path(self, path: Sequence[Node]) -> None:
        """Validate that ``path`` is a path of this graph.

        A path has >= 2 distinct nodes with consecutive nodes adjacent.
        """
        if len(path) < 2:
            raise GraphError("a path needs at least two nodes")
        if len(set(path)) != len(path):
            raise GraphError("path nodes must be distinct")
        for u, v in zip(path, path[1:]):
            if not self.has_edge(u, v):
                raise GraphError(f"{u!r} and {v!r} are not adjacent")


def v_structures(g: PDAG) -> frozenset[tuple[Node, Node, Node]]:
    """All unshielded colliders of ``g`` as (parent, collider, parent) triples.

    The two parents are ordered by node index, so each v-structure has a
    single canonical form.
    """
    a = g._amat
    d = a & ~a.T
    adj = a | a.T
    out = set()
    for b in range(g.num_nodes):
        parents = np.nonzero(d[:, b])[0]
        for x in range(len(parents)):
            for y in range(x + 1, len(parents)):
                i, j = int(parents[x]), int(parents[y])
                if not adj[i, j]:
                    out.add((g.nodes[i], g.nodes[b], g.nodes[j]))
    return frozenset(out)


def _entries(amat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major ``(i, j)`` of ``amat``'s True entries, and whether ``amat[j, i]`` is too."""
    rows, cols = np.nonzero(amat)
    return rows, cols, amat[cols, rows]


def _rows(p: int, rows: np.ndarray, cols: np.ndarray) -> list[list[int]]:
    """``cols`` split into one list per row index, ``rows`` being sorted."""
    ends = np.searchsorted(rows, np.arange(p + 1)).tolist()
    cols = cols.tolist()
    return [cols[ends[i] : ends[i + 1]] for i in range(p)]


def _directed_cycle(amat: np.ndarray) -> list[int] | None:
    """Return node indices of a directed cycle, or None (Kahn's algorithm).

    The nodes Kahn's algorithm leaves do not depend on queue order; the cycle
    is walked back from the lowest, each step to the lowest remaining parent.
    """
    p = amat.shape[0]
    rows, cols, both = _entries(amat)
    tails, heads = rows[~both], cols[~both]
    by_head = np.argsort(heads, kind="stable")
    succ, pred = _rows(p, tails, heads), _rows(p, heads[by_head], tails[by_head])
    indeg = [len(x) for x in pred]
    queue = [v for v, n in enumerate(indeg) if not n]
    for v in queue:
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                queue.append(w)
    if len(queue) == len(indeg):
        return None
    v = next(v for v, n in enumerate(indeg) if n)
    seen = {v: 0}
    walk = [v]
    while True:
        v = next(u for u in pred[v] if indeg[u])
        if v in seen:
            return [v] + walk[seen[v] :][::-1]
        seen[v] = len(walk)
        walk.append(v)
