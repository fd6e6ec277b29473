"""Mixed graphs with directed and undirected edges (PDAGs).

A :class:`PDAG` holds at most one edge per node pair, forbids self-loops
and directed cycles, and is immutable after construction.  DAGs, CPDAGs
and maximally oriented PDAGs are all validity states of this one
structure.  Nodes carry arbitrary hashable labels; internally they are
mapped to dense indices in insertion order, and every set-valued result
is returned sorted by that index so outputs are deterministic.

Each node's parent, child and neighbour index sets are the only storage,
so queries read one node's sets and construction, the cycle checks and
derived graphs take time linear in the nodes and edges; a graph that
orients edges of another shares the sets of each node it leaves as it was.
Edge lists come row by row in index order, as an adjacency matrix would
list them; that matrix view exists only in the tests.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Collection, Hashable, Iterable, Iterator, Sequence

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

    __slots__ = ("_names", "_index", "_pa", "_ch", "_ne", "_hash")

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
        directed = [(intern(u), intern(v)) for u, v in directed]
        undirected = [(intern(u), intern(v)) for u, v in undirected]
        self._store(names, index, *_frozen_sets(names, directed, undirected))

    @classmethod
    def _from_sets(
        cls, names: Sequence[Node], pa: Sequence[Iterable[int]], ne: Sequence[Iterable[int]],
        check: bool = True,
    ) -> "PDAG":
        """Build from each node's parent and neighbour index sets; ``check``
        false leaves a directed cycle for the caller to find."""
        ch = [set() for _ in names]
        for j, tails in enumerate(pa):
            for i in tails:
                ch[i].add(j)
        frozen = (tuple(map(frozenset, x)) for x in (pa, ch, ne))
        return cls.__new__(cls)._store(names, {v: i for i, v in enumerate(names)}, *frozen, check)

    @classmethod
    def _from_pairs(cls, names: Sequence[Node], index: dict, directed, undirected) -> "PDAG":
        """Build from the index pairs of the directed and undirected edges."""
        return cls.__new__(cls)._store(names, index, *_frozen_sets(names, directed, undirected))

    def _oriented(self, pa, ne, check: bool = True) -> "PDAG":
        """This graph with the parent and neighbour sets ``pa`` and ``ne``, an
        orientation of some of its undirected edges, sharing the labels and the
        sets that stay: all but those of nodes that lost a neighbour or gained a child."""
        new_pa, ch, new_ne = list(self._pa), list(self._ch), list(self._ne)
        heads: dict[int, set[int]] = {}
        for v, old in enumerate(self._ne):
            if old and len(ne[v]) != len(old):
                new_pa[v], new_ne[v] = frozenset(pa[v]), frozenset(ne[v])
                for t in new_pa[v] - self._pa[v]:
                    heads.setdefault(t, set()).add(v)
        for t, new in heads.items():
            ch[t] = ch[t] | new
        g = PDAG.__new__(PDAG)
        return g._store(self._names, self._index, tuple(new_pa), tuple(ch), tuple(new_ne), check)

    def _store(self, names, index, pa, ch, ne, check: bool = True) -> "PDAG":
        """This graph with the labels and the frozen sets, unless they close a cycle."""
        cycle = _directed_cycle(pa, ch) if check else None
        if cycle is not None:
            raise CycleError("directed cycle: " + " -> ".join(str(names[i]) for i in cycle))
        self._names, self._index, self._pa, self._ch, self._ne = tuple(names), index, pa, ch, ne
        self._hash: int | None = None
        return self

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

    # row by row, each row by index: the canonical order
    @property
    def directed_edges(self) -> tuple[Edge, ...]:
        names = self._names
        return tuple((names[i], names[j]) for i, ch in enumerate(self._ch) for j in sorted(ch))

    @property
    def undirected_edges(self) -> tuple[Edge, ...]:
        names = self._names
        return tuple(
            (names[i], names[j]) for i, ne in enumerate(self._ne) for j in sorted(ne) if i < j
        )

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._pa)) + sum(map(len, self._ne)) // 2

    @property
    def is_directed(self) -> bool:
        """True iff every edge is directed (the graph is a DAG)."""
        return not any(self._ne)

    @property
    def is_undirected(self) -> bool:
        return not any(self._pa)

    def has_edge(self, u: Node, v: Node) -> bool:
        i, j = self.index_of(u), self.index_of(v)
        return j in self._pa[i] or j in self._ch[i] or j in self._ne[i]

    def has_directed(self, u: Node, v: Node) -> bool:
        return self.index_of(v) in self._ch[self.index_of(u)]

    def has_undirected(self, u: Node, v: Node) -> bool:
        return self.index_of(v) in self._ne[self.index_of(u)]

    def _labels(self, idxs: Iterable[int]) -> tuple[Node, ...]:
        return tuple(self._names[i] for i in sorted(idxs))

    def _adjacency(self) -> list[frozenset[int]]:
        """Each node's adjacent indices, whatever the edge type."""
        return [pa | ch | ne for pa, ch, ne in zip(self._pa, self._ch, self._ne)]

    def parents_of(self, v: Node) -> tuple[Node, ...]:
        return self._labels(self._pa[self.index_of(v)])

    def children_of(self, v: Node) -> tuple[Node, ...]:
        return self._labels(self._ch[self.index_of(v)])

    def neighbors_of(self, v: Node) -> tuple[Node, ...]:
        """Nodes joined to ``v`` by an undirected edge."""
        return self._labels(self._ne[self.index_of(v)])

    def adjacent_to(self, v: Node) -> tuple[Node, ...]:
        i = self.index_of(v)
        return self._labels(self._pa[i] | self._ch[i] | self._ne[i])

    # === comparison

    # by labels, undirected edges as unordered pairs: node order plays no part
    def _key(self) -> tuple[frozenset, frozenset, frozenset]:
        return (
            frozenset(self._names),
            frozenset(self.directed_edges),
            frozenset(map(frozenset, self.undirected_edges)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PDAG):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        parts = [f"{u}->{v}" for u, v in self.directed_edges]
        parts += [f"{u}--{v}" for u, v in self.undirected_edges]
        return f"PDAG({list(self._names)!r}, [{', '.join(parts)}])"

    # === derived graphs

    def skeleton(self) -> "PDAG":
        """Same adjacencies with every edge undirected."""
        return PDAG._from_sets(self._names, [()] * self.num_nodes, self._adjacency())

    def undirected_subgraph(self) -> "PDAG":
        """Same nodes, only the undirected edges."""
        return PDAG._from_sets(self._names, [()] * self.num_nodes, self._ne)

    def directed_subgraph(self) -> "PDAG":
        """Same nodes, only the directed edges."""
        return PDAG._from_sets(self._names, self._pa, [()] * self.num_nodes)

    def induced_subgraph(self, nodes: Iterable[Node]) -> "PDAG":
        """Subgraph over ``nodes`` keeping all and only edges between them."""
        keep = [self.index_of(v) for v in nodes]
        if len(set(keep)) != len(keep):
            raise GraphError("duplicate node in induced subgraph selection")
        keep.sort()
        new = {v: k for k, v in enumerate(keep)}

        def restrict(sets):
            return [[new[w] for w in sets[v] if w in new] for v in keep]

        return PDAG._from_sets(
            [self._names[i] for i in keep], restrict(self._pa), restrict(self._ne)
        )

    # === structure queries

    def has_directed_cycle(self) -> bool:
        return _directed_cycle(self._pa, self._ch) is not None

    def has_partially_directed_cycle(self) -> bool:
        """True iff some cycle traverses >= 1 directed edge, none backwards.

        Undirected edges may be walked in either direction.  One exists iff
        contracting each chain component to a node leaves a directed cycle (or
        loop): one Kahn pass, O(V + E), that also finds any directed cycle.
        """
        return self._partially_directed_cycle() is not None

    def _partially_directed_cycle(self) -> str | None:
        """Describe one partially directed cycle, or return None when the Kahn
        pass over the contracted graph (lists rewritten only in and next to
        components of two or more nodes) finds none; a cycle pays for the witness."""
        names, (label, groups) = self._names, _component_labels(self._ne)
        cpa, cch = list(self._pa), list(self._ch)
        for k, group in groups.items():
            cpa[k] = [label[i] for v in group for i in self._pa[v]]
            cch[k] = [label[j] for v in group for j in self._ch[v]]
            for v in group[1:]:
                cpa[v] = cch[v] = ()
        for v in {w for k in groups for w in (*cpa[k], *cch[k])} - groups.keys():
            cpa[v] = [label[i] for i in self._pa[v]]
            cch[v] = [label[j] for j in self._ch[v]]
        cycle = _directed_cycle(cpa, cch)
        if cycle is None:
            return None
        # the first directed edge inside a component, in canonical order
        for i, ch in enumerate(self._ch):
            inner = [j for j in ch if label[j] == label[i]]
            if inner:
                return f"directed edge {names[i]} -> {names[min(inner)]} inside a chain component"
        # edges both ways between two components would read as undirected
        mutual = min(((a, b) for a, ch in enumerate(cch) for b in ch if a in cch[b]), default=None)
        if mutual:
            cycle = [*mutual, mutual[0]]
        listed = (",".join(str(names[v]) for v in groups.get(k, (k,))) for k in cycle)
        return "chain components cycle {" + "} -> {".join(listed) + "}"

    def chain_components(self) -> list[tuple[Node, ...]]:
        """Connected components of the undirected subgraph, singletons included.

        Components are sorted by their smallest node index.
        """
        return [self._labels(c) for c in _components(self._ne)]

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
        if not self.is_undirected:
            raise GraphError("chordality is defined for undirected graphs")
        return self._non_simplicial() is None

    def _non_simplicial(self) -> int | None:
        """Index of the lowest node whose later neighbours in the search order
        are not all adjacent to the first of them, in the undirected part;
        None if the undirected part is chordal.

        Only nodes with an undirected edge are searched: any other node keeps
        weight 0, raises none and is never reported, so a search over all
        nodes numbers the rest in the same relative order, which is all the
        check reads, and reports the same node."""
        adj = self._ne
        nodes = [v for v, nb in enumerate(adj) if nb]

        # buckets[w] is a heap of the nodes last seen with weight w
        weight, number = [0] * len(adj), [0] * len(adj)
        buckets: list[list[int]] = [nodes[:]] + [[] for _ in nodes]
        top = 0
        for num in range(len(nodes), 0, -1):
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

        for v in nodes:
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
        by node index, so the result is deterministic.  The node-count
        guard protects against exponential blowup on large graphs.
        """
        s, t = self.index_of(source), self.index_of(target)
        if s == t:
            raise GraphError("source and target must differ")
        if self.num_nodes > max_nodes:
            raise LimitError(
                f"graph has {self.num_nodes} nodes; exhaustive path enumeration "
                f"is limited to {max_nodes} (raise max_nodes to override)"
            )
        return [tuple(map(self._names.__getitem__, path))
                for path in self._walk((s,), t) if path[-1] == t]

    def _walk(self, sources: Iterable[int], target: int | None,
              key: Callable[[int], Any] | None = None) -> Iterator[tuple[int, ...]]:
        """The unshielded paths (no triple with adjacent ends) from each source
        in turn, never walking through ``target``, made one by one as they are
        read: the prefix tree of the paths in preorder with neighbours by
        ``key`` (by index if None), so the paths to a node come in
        lexicographic order of their keys.  A reader that stops early walks
        no further."""
        adjacent = self._adjacency()
        adj = [sorted(row, key=key) for row in adjacent]
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


def _frozen_sets(names: Sequence[Node], directed, undirected) -> list[tuple[frozenset, ...]]:
    """Parent, child and neighbour index sets from index pairs in one pass,
    directed pairs first: a :class:`GraphError` on a self-loop or a second edge
    between a pair.  A node with no edge of a kind holds one shared empty set."""
    n, seen, empty = len(names), set(), frozenset()
    pa, ch, ne = {}, {}, {}  # index lists of the nodes with an edge of the kind
    for pairs, heads, tails in ((directed, pa, ch), (undirected, ne, ne)):
        for i, j in pairs:
            if i == j:
                raise GraphError(f"self-loop at node {names[i]!r}")
            key = i * n + j if i < j else j * n + i
            if key in seen:
                raise GraphError(f"more than one edge between {names[i]!r} and {names[j]!r}")
            seen.add(key)
            heads.setdefault(j, []).append(i)
            tails.setdefault(i, []).append(j)
    rows = [[empty] * n for _ in range(3)]
    for row, lists in zip(rows, (pa, ch, ne)):
        for v, members in lists.items():
            row[v] = frozenset(members)
    return list(map(tuple, rows))


def _component_labels(ne: Sequence[Iterable[int]]) -> tuple[list[int], dict[int, list[int]]]:
    """Each node's connected component under the neighbour index sets ``ne``,
    named by its smallest member, and the ascending members of each component
    of two or more nodes by name; only nodes with a neighbour are walked."""
    label, groups = list(range(len(ne))), {}
    for start, nb in enumerate(ne):
        if nb and label[start] == start:
            group = [start]
            for v in group:  # breadth first: the loop reads what it appends
                for w in ne[v]:
                    if label[w] != start:
                        label[w] = start
                        group.append(w)
            groups[start] = sorted(group)
    return label, groups


def _components(ne: Sequence[Iterable[int]]) -> list[list[int]]:
    """The connected components under ``ne`` as ascending index lists,
    sorted by their smallest index, singletons included."""
    label, groups = _component_labels(ne)
    return [groups.get(v, [v]) for v, k in enumerate(label) if k == v]


def v_structures(g: PDAG) -> frozenset[tuple[Node, Node, Node]]:
    """All unshielded colliders of ``g`` as (parent, collider, parent) triples.

    The two parents are ordered by node index, so each v-structure has a
    single canonical form within one graph.  Two graphs equal under ``==``
    but with their nodes in another order can list the same v-structure
    with its parents swapped: compare across graphs by unordered parent
    pairs, as :func:`markov_equivalent` does.
    """
    adj, names = g._adjacency(), g.nodes
    out = set()
    for b, pa in enumerate(g._pa):
        parents = sorted(pa)
        for x, i in enumerate(parents):
            for j in parents[x + 1 :]:
                if j not in adj[i]:
                    out.add((names[i], names[b], names[j]))
    return frozenset(out)


def _directed_cycle(
    pa: Sequence[Collection[int]], ch: Sequence[Collection[int]]
) -> list[int] | None:
    """Return node indices of a directed cycle, or None (Kahn's algorithm).

    The nodes Kahn's algorithm leaves do not depend on queue order; the cycle
    is walked back from the lowest, each step to the lowest remaining parent.
    """
    indeg = [len(x) for x in pa]
    queue = [v for v, n in enumerate(indeg) if not n]
    for v in queue:
        for w in ch[v]:
            indeg[w] -= 1
            if not indeg[w]:
                queue.append(w)
    if len(queue) == len(indeg):
        return None
    v = next(v for v, n in enumerate(indeg) if n)
    seen = {v: 0}
    walk = [v]
    while True:
        v = min(u for u in pa[v] if indeg[u])
        if v in seen:
            return [v] + walk[seen[v] :][::-1]
        seen[v] = len(walk)
        walk.append(v)
