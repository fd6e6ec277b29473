"""Tiered orderings and their comparison on a CPDAG.

A tiered ordering assigns every node to one tier; it forbids all edges
pointing from a later tier into an earlier one and nothing else.  Two
consistent orderings can induce the same maximally oriented graph even
when they differ; the equivalence test here decides that graphically,
by comparing (i) the first cross-tier edges on earliest unshielded
paths and (ii) the fully shielded cross-tier edges of the undirected
part of the CPDAG, both read from each ordering's tier vector: an edge
is cross-tier iff its ends' tiers differ, and points from the earlier.
Only :func:`cross_tier_report` builds the oriented undirected part.
One pass over two orderings builds each tiered MPDAG once, enumerates
the unshielded paths of all chain components in one walk, one
depth-first search per start node, and checks the paper's theorem: the
criterion holds iff the two MPDAGs are equal.  Earliest paths that are
proper segments of longer earliest paths are found by one-node
extension, on node indices and a tier vector; only the reported paths
are turned into labels.  Compatibility and refinement of two orderings
are read from their tier groups, with no loop over node pairs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

from .graphs import DEFAULT_PATH_NODE_LIMIT, Edge, GraphError, LimitError, Node, PDAG
from .orientation import InvariantError, impose_tiers, require_consistency, tiered_mpdag


class IncompatibleOrderingsError(GraphError):
    """Two orderings disagree on the relative order of a node pair."""


class TieredOrdering:
    """Total assignment of nodes to integer tiers.

    Tier values only matter through their relative order: any strictly
    monotone relabelling describes the same ordering.

    Parameters
    ----------
    assignment:
        Mapping from node label to tier.  Every node of a graph this
        ordering is used with must be present.
    """

    __slots__ = ("_assignment", "_vector")

    def __init__(self, assignment: Mapping[Node, int]):
        items = dict(assignment)
        for v, t in items.items():
            if isinstance(t, bool) or not isinstance(t, int):
                raise GraphError(f"tier of {v!r} must be an integer, got {t!r}")
        if not items:
            raise GraphError("an ordering needs at least one node")
        self._assignment = items
        self._vector: tuple = (None, ())

    @classmethod
    def from_tiers(cls, groups: Sequence[Iterable[Node]]) -> "TieredOrdering":
        """Build from groups of nodes listed earliest tier first."""
        assignment: dict[Node, int] = {}
        for t, group in enumerate(groups, start=1):
            for v in group:
                if v in assignment:
                    raise GraphError(f"node {v!r} assigned to more than one tier")
                assignment[v] = t
        return cls(assignment)

    @property
    def assignment(self) -> dict[Node, int]:
        return dict(self._assignment)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._assignment)

    def tier_of(self, v: Node) -> int:
        try:
            return self._assignment[v]
        except KeyError:
            raise GraphError(f"node {v!r} is not assigned to a tier") from None

    def _tiers(self, names: tuple) -> tuple[int, ...]:
        """The tiers of ``names``, kept for the last tuple: once per pass."""
        if self._vector[0] is not names:
            self._vector = (names, tuple(map(self._assignment.__getitem__, names)))
        return self._vector[1]

    @property
    def num_tiers(self) -> int:
        return len(set(self._assignment.values()))

    def normalized(self) -> "TieredOrdering":
        """Relabel tiers to the contiguous range 1..T, preserving order."""
        levels = {t: i for i, t in enumerate(sorted(set(self._assignment.values())), 1)}
        return TieredOrdering({v: levels[t] for v, t in self._assignment.items()})

    def tier_groups(self) -> list[tuple[int, tuple[Node, ...]]]:
        """Tiers with their members, earliest first."""
        groups: dict[int, list[Node]] = {}
        for v, t in self._assignment.items():
            groups.setdefault(t, []).append(v)
        return [(t, tuple(groups[t])) for t in sorted(groups)]

    def forbidden_pairs(self, nodes: Iterable[Node] | None = None) -> set[Edge]:
        """Forbidden directed edges ``(tail, head)``: all later -> earlier pairs."""
        universe = list(self._assignment) if nodes is None else list(nodes)
        out = set()
        for a in universe:
            ta = self.tier_of(a)
            for b in universe:
                if ta < self.tier_of(b):
                    out.add((b, a))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TieredOrdering):
            return NotImplemented
        return self.normalized()._assignment == other.normalized()._assignment

    def __hash__(self) -> int:
        return hash(frozenset(self.normalized()._assignment.items()))

    def __repr__(self) -> str:
        groups = ["{" + " ".join(map(str, g)) + "}" for _, g in self.tier_groups()]
        return f"TieredOrdering({' < '.join(groups)})"


# === refinement comparison


class Refinement(enum.Enum):
    EQUAL = "equal"
    FIRST_FINER = "first-finer"
    SECOND_FINER = "second-finer"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class TierComparison:
    verdict: Refinement


def check_compatible(t1: TieredOrdering, t2: TieredOrdering) -> None:
    """Raise unless no node pair is ordered oppositely by ``t1`` and ``t2``.

    A node conflicts iff its ``t2`` tier is above the least ``t2`` tier of
    the nodes in strictly later ``t1`` tiers: one suffix minimum per ``t1``
    tier, O(p log p).  The error names the first conflicting node in
    ``t1``'s node order and then its first partner in that order.
    """
    a1, a2 = t1._assignment, t2._assignment
    if a1.keys() != a2.keys():
        raise GraphError("orderings are defined on different node sets")
    least: dict[int, int] = {}  # t1 tier -> least t2 tier inside it
    for v, t in a1.items():
        least[t] = min(least.get(t, a2[v]), a2[v])
    later: dict[int, float] = {}  # t1 tier -> least t2 tier of the later t1 tiers
    bound = math.inf
    for t in sorted(least, reverse=True):
        later[t] = bound
        bound = min(bound, least[t])
    for a, ta in a1.items():
        if a2[a] > later[ta]:
            b = next(b for b, tb in a1.items() if ta < tb and a2[a] > a2[b])
            raise IncompatibleOrderingsError(
                f"orderings contradict each other on ({a!r}, {b!r})"
            )


def compare_refinement(t1: TieredOrdering, t2: TieredOrdering) -> TierComparison:
    """Refinement relation between two compatible orderings.

    ``t1`` is finer than ``t2`` when every strict order of ``t2`` also
    holds strictly in ``t1``.  For compatible orderings that holds iff
    each tier of ``t1`` lies inside one tier of ``t2``, that is iff the
    distinct ``(t1, t2)`` tier pairs of the nodes are as many as the
    tiers of ``t1``.
    """
    check_compatible(t1, t2)
    a2 = t2._assignment
    cells = len({(t, a2[v]) for v, t in t1._assignment.items()})
    first_finer, second_finer = cells == t1.num_tiers, cells == t2.num_tiers
    if first_finer and second_finer:
        verdict = Refinement.EQUAL
    elif first_finer:
        verdict = Refinement.FIRST_FINER
    elif second_finer:
        verdict = Refinement.SECOND_FINER
    else:
        verdict = Refinement.INCOMPARABLE
    return TierComparison(verdict)


# === the undirected part of a CPDAG under an ordering


def fully_shielded_edges(h: PDAG) -> list[tuple[Node, Node]]:
    """Edges occurring on no unshielded path: both endpoints have the
    same adjacency set apart from each other.  Computed on the skeleton."""
    adj, names = h._adjacency(), h.nodes
    edges = [(i, j) for i, ne in enumerate(h._ne) for j in ne if i < j]
    edges += [(i, j) for i, ch in enumerate(h._ch) for j in ch]  # sorted by tail
    return [
        (names[min(i, j)], names[max(i, j)])
        for i, j in sorted(edges)
        if adj[i] - {j} == adj[j] - {i}
    ]


def _component_paths(
    h: PDAG, components: Sequence[Sequence[Node]], max_nodes: int
) -> list[tuple[int, ...]]:
    """Every unshielded path (>= 2 nodes) inside the given chain components
    of the undirected graph ``h``, as node indices, each listed once from
    its lower-index end, component by component in the given order.  Each
    prefix of an unshielded path is one too, so one depth-first walk from
    every node of the components records every path to a node ``t > s``
    from each start ``s``; the walk visits them in lexicographic order, so
    grouping the paths by component, start and ``t``, stably, lists them as
    one walk per component and node pair would."""
    for component in components:
        if len(component) > max_nodes:
            raise LimitError(
                f"component of {len(component)} nodes exceeds the path "
                f"enumeration limit of {max_nodes}"
            )
    rank = {h.index_of(v): k for k, component in enumerate(components) for v in component}
    walk = h._walk(sorted(rank), None)
    return sorted(walk, key=lambda path: (rank[path[0]], path[0], path[-1]))


def _earliest(
    paths: Sequence[tuple[int, ...]], tier: Sequence[int], adjacent: Sequence[Collection[int]]
) -> list[tuple[int, ...]]:
    """The earliest of ``paths`` that are no proper segment of another
    earliest path, in listed order.  ``paths`` are all unshielded paths of
    a graph, as indices; node ``i`` has tier ``tier[i]`` and the adjacent
    nodes ``adjacent[i]``.

    An earliest path shares no edge with an unshielded path visiting a tier
    below its own minimum (orientation travels only along unshielded paths):
    each edge's floor, the lowest tier of a path through it, is that minimum.
    Every segment of an unshielded path is one, so an earliest P lies
    inside a longer earliest Q iff some one-node extension of P is earliest:

    - min(Q) = min(P), as P's edges lie on Q: their floor is both;
    - so P extended by Q's next node has that minimum and those floors,
      which makes it earliest; the converse is immediate.

    An extension's floors are at most its minimum, so it is earliest iff
    its new edge's floor is at least min(P).
    """
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


def first_cross_tier_edges(
    path: Sequence[Node], ordering: TieredOrdering
) -> frozenset[Edge]:
    """First cross-tier edges of a path: walking outward from each run of
    minimum-tier nodes, the nearest edge whose endpoints lie in different
    tiers, oriented from the earlier tier.  That is the edge leaving the
    run, so these are the path's edges with one endpoint in the minimum
    tier and one above it.  At most two on paths whose tier profile has
    a single valley."""
    tiers = [ordering.tier_of(v) for v in path]
    m = min(tiers)
    return frozenset(
        (x, y) if tx == m else (y, x)
        for x, y, tx, ty in zip(path, path[1:], tiers, tiers[1:])
        if (tx == m) != (ty == m)
    )


@dataclass(frozen=True)
class CrossTierEdgeReport:
    """Earliest unshielded paths with their first cross-tier edges, and
    the fully shielded cross-tier edges, all on the oriented undirected
    part of the CPDAG."""

    graph: PDAG  #: the undirected part oriented by the ordering
    earliest_paths: tuple[tuple[Node, ...], ...]
    first_edges: tuple[frozenset[Edge], ...]  #: aligned with earliest_paths
    fully_shielded_cross_tier: tuple[Edge, ...]

    @property
    def all_first_edges(self) -> frozenset[Edge]:
        return frozenset().union(*self.first_edges)


def _reports(
    h: PDAG, orderings: Sequence[TieredOrdering], max_nodes: int
) -> tuple[dict[Node, int], list[tuple[list[tuple[Node, ...]], list[Edge | None]]]]:
    """Each node's chain component rank in the undirected graph ``h`` and,
    for each ordering, read from its tier vector and one walk over the
    unshielded paths of the chain components: the earliest paths, and each
    fully shielded edge of ``h`` oriented from its earlier tier (``None``
    when both ends share a tier)."""
    components = h.chain_components()
    rank = {v: i for i, component in enumerate(components) for v in component}
    paths = _component_paths(h, [comp for comp in components if len(comp) > 1], max_nodes)
    shielded, names = fully_shielded_edges(h), h.nodes
    records = []
    for ordering in orderings:
        t, earliest = ordering._assignment, _earliest(paths, ordering._tiers(names), h._ne)
        oriented = [(u, v) if t[u] < t[v] else (v, u) if t[v] < t[u] else None for u, v in shielded]
        records.append(([tuple(names[i] for i in path) for path in earliest], oriented))
    return rank, records


def cross_tier_report(
    c: PDAG, ordering: TieredOrdering, max_nodes: int = DEFAULT_PATH_NODE_LIMIT
) -> CrossTierEdgeReport:
    """Summary of where ``ordering`` places cross-tier edges on the
    undirected part of ``c``; the ingredients of the equivalence
    criterion.  The only builder of the oriented undirected part."""
    require_consistency(c, ordering)
    h = c.undirected_subgraph()
    ((earliest, shielded),) = _reports(h, (ordering,), max_nodes)[1]
    return CrossTierEdgeReport(
        graph=impose_tiers(h, ordering),
        earliest_paths=tuple(earliest),
        first_edges=tuple(first_cross_tier_edges(p, ordering) for p in earliest),
        fully_shielded_cross_tier=tuple(filter(None, shielded)),
    )


# === equivalence and informativeness


@dataclass(frozen=True)
class TierEquivalence:
    equivalent: bool
    #: a directed edge the two orderings disagree on, when not equivalent
    witness: Edge | None
    first_edges_agree: bool  #: criterion condition on earliest unshielded paths
    shielded_agree: bool  #: criterion condition on fully shielded edges

    def __bool__(self) -> bool:
        return self.equivalent


def tiers_equivalent(
    c: PDAG,
    t1: TieredOrdering,
    t2: TieredOrdering,
    max_nodes: int = DEFAULT_PATH_NODE_LIMIT,
) -> TierEquivalence:
    """Do ``t1`` and ``t2`` induce the same maximally oriented graph on ``c``?

    Decided graphically: the orderings are equivalent iff they agree on
    the first cross-tier edges of every earliest unshielded path and on
    every fully shielded cross-tier edge.
    """
    check_compatible(t1, t2)
    return _compare(c, t1, t2, max_nodes)[0]


class Informativeness(enum.Enum):
    MORE_INFORMATIVE = "more-informative"
    EQUIVALENT = "equivalent"
    LESS_INFORMATIVE = "less-informative"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class InformativenessResult:
    verdict: Informativeness
    #: sufficient-condition diagnostics; the verdict itself is decided by
    #: containment of the constructed graphs
    condition_i: bool
    condition_ii: bool
    condition_iii: bool
    condition_iv: bool

    @property
    def sufficient_conditions_fired(self) -> bool:
        return (
            self.condition_i
            and self.condition_ii
            and (self.condition_iii or self.condition_iv)
        )


def contained_in(g1: PDAG, g2: PDAG) -> bool:
    """Same skeleton and every directed edge of ``g2`` also in ``g1``.

    Nodes are matched by label, so node order plays no part: each node's
    adjacent and parent sets in ``g2``, carried to ``g1``'s indices, are
    compared with its sets in ``g1``."""
    to1 = [g1._index.get(v) for v in g2.nodes]
    if len(to1) != g1.num_nodes or None in to1:
        return False
    adj1 = g1._adjacency()
    for j, (adj, pa) in enumerate(zip(g2._adjacency(), g2._pa)):
        i = to1[j]
        if {to1[k] for k in adj} != adj1[i] or not {to1[k] for k in pa} <= g1._pa[i]:
            return False
    return True


def tiers_more_informative(
    c: PDAG,
    t1: TieredOrdering,
    t2: TieredOrdering,
    max_nodes: int = DEFAULT_PATH_NODE_LIMIT,
) -> InformativenessResult:
    """Compare how much ``t1`` and ``t2`` orient on ``c``.

    The verdict comes from containment of the two maximally oriented
    graphs; the sufficient graphical conditions are reported alongside
    as diagnostics (they imply, but are not implied by, the verdict).
    """
    return _compare(c, t1, t2, max_nodes)[1]


def _compare(
    c: PDAG, t1: TieredOrdering, t2: TieredOrdering, max_nodes: int
) -> tuple[TierEquivalence, InformativenessResult]:
    """Equivalence and informativeness of ``t1`` and ``t2`` on ``c`` in one
    pass: each tiered MPDAG is built once (which checks each ordering's
    consistency), the unshielded paths are enumerated once, and each
    ordering's first and shielded cross-tier edges are read from its tier
    vector, with no oriented copy of the undirected part.  Raises
    :class:`InvariantError`, naming a witness, if the criterion and
    equality of the two MPDAGs disagree, against the paper's theorem."""
    g1, g2 = tiered_mpdag(c, t1), tiered_mpdag(c, t2)
    rank, ((e1, s1), (e2, s2)) = _reports(c.undirected_subgraph(), (t1, t2), max_nodes)
    shielded_diff = [a or b for a, b in zip(s1, s2) if a != b]
    paths = sorted({*e1, *e2}, key=lambda p: (rank[p[0]], str(p)))  # in component order
    first = {p: (first_cross_tier_edges(p, t1), first_cross_tier_edges(p, t2)) for p in paths}
    first_diff = [min(f1 ^ f2, key=str) for f1, f2 in first.values() if f1 != f2]
    equivalent = not (shielded_diff or first_diff)
    witness = None if equivalent else (shielded_diff + first_diff)[0]
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
    a1, a2 = t1._assignment, t2._assignment  # (u, v) is cross-tier under t iff t[u] < t[v]
    return (
        TierEquivalence(equivalent, witness, not first_diff, not shielded_diff),
        InformativenessResult(
            verdict,
            condition_i=all(a1[u] < a1[v] for p in e2 for u, v in first[p][1]),
            condition_ii=all(a1[u] < a1[v] for u, v in filter(None, s2)),
            condition_iii=any(a2[u] >= a2[v] for p in e1 for u, v in first[p][0]),
            condition_iv=s1.count(None) < s2.count(None),
        ),
    )
