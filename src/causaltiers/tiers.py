"""Tiered orderings and their comparison on a CPDAG.

A tiered ordering assigns every node to one tier; it forbids all edges
pointing from a later tier into an earlier one and nothing else.  Two
consistent orderings can induce the same maximally oriented graph even
when they differ; the equivalence test here decides that graphically,
by comparing (i) the first cross-tier edges on earliest unshielded
paths and (ii) the fully shielded cross-tier edges of the undirected
part of the CPDAG, both read from each ordering's tier vector: an edge
is cross-tier iff its ends' tiers differ, and points from the earlier.
Both are read per edge, from edge floors, which need the undirected part
chordal, as a CPDAG's is: one tiered pass over both orderings admits only
such inputs and builds both MPDAGs, and the comparison checks the paper's
theorem: the criterion holds iff the two MPDAGs are equal.  A witness is
the least edge, by label text, that is a first cross-tier edge of an
earliest path under one ordering only, in the least chain component
holding one.  Paths are listed only by :func:`cross_tier_report`, whose
``max_nodes`` is the opt-in and which walks only prefixes that can still
become earliest.  Compatibility and refinement are read from tier groups,
with no node-pair loop.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graphs import DEFAULT_PATH_NODE_LIMIT, Edge, GraphError, LimitError, Node, PDAG
from .graphs import _component_labels
from .orientation import InvariantError, _cross_tier_state, _orient_tiered, _require_chordal_part


class IncompatibleOrderingsError(GraphError):
    """Two orderings disagree on the relative order of a node pair."""


class TieredOrdering:
    """Total assignment of nodes to integer tiers.

    Tier values only matter through their relative order: any strictly
    monotone relabelling describes the same ordering.

    Parameters
    ----------
    assignment:
        Mapping from each node of the graphs it is used with to its tier,
        an integer of any type but bool, kept as an int.
    """

    __slots__ = ("_assignment", "_vector")

    def __init__(self, assignment: Mapping[Node, int]):
        items = dict(assignment)
        if set(map(type, items.values())) - {int}:  # parsed tiers are plain ints
            for v, t in items.items():
                if isinstance(t, bool) or not hasattr(t, "__index__"):
                    raise GraphError(f"tier of {v!r} must be an integer, got {t!r}")
                items[v] = operator.index(t)
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

    __getitem__ = tier_of

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


def _shielded(adj: Sequence[frozenset[int]]) -> list[tuple[int, int]]:
    """The fully shielded edges i < j of the skeleton with adjacency sets ``adj``,
    those on no unshielded path: both ends have the same adjacency set apart
    from each other."""
    return [(i, j) for i, nb in enumerate(adj) for j in sorted(nb)
            if i < j and nb - {j} == adj[j] - {i}]


def _floors(ne: Sequence[frozenset[int]], tier: Sequence[int]) -> list[dict[int, int]]:
    """Each edge's floor, the least tier on an unshielded path through it, as
    ``floor[a][b]`` for each edge a - b of the chordal graph with neighbour
    sets ``ne``: one search over directed edges, (a, b) stepping to (b, c)
    when c is neither a nor adjacent to a, from starts in ascending tier,
    each direction expanded once.  Such walks are paths on a chordal graph (a
    repeated node would close a cycle whose completeness or two non-adjacent
    simplicial nodes shield a triple: Dirac, 1961), and a path's least node
    starts a segment into each of its edges."""
    reach: list[dict[int, int]] = [{} for _ in ne]
    for s in sorted((v for v, nb in enumerate(ne) if nb), key=tier.__getitem__):
        m, stack = tier[s], [(s, b) for b in ne[s]]
        while stack:
            a, b = stack.pop()
            ra = reach[a]
            if b not in ra:
                ra[b], rb = m, reach[b]
                for c in ne[b] - ne[a]:
                    if c != a and c not in rb:
                        stack.append((b, c))
    return [{b: f if f <= (g := reach[b][a]) else g for b, f in row.items()}
            for a, row in enumerate(reach)]


def _first_edges(floor: list[dict[int, int]], tier: Sequence[int]) -> set[tuple[int, int]]:
    """The edges (x, y) with ``tier[x] = floor[x][y] < tier[y]``, which are the
    first cross-tier edges of the earliest maximal paths (x y is earliest)."""
    return {(x, y) for x, row in enumerate(floor) for y, f in row.items() if tier[x] == f < tier[y]}


def _maximal(ne: Sequence[frozenset[int]], floor: list[dict[int, int]], a: int, b: int) -> bool:
    """Whether a path ending a - b, if earliest, ends at ``b``: no unshielded
    one-node extension there keeps the floor of a - b."""
    return all(floor[b][x] < floor[a][b] for x in ne[b] - ne[a] if x != a)


def first_cross_tier_edges(path: Sequence[Node], tier) -> frozenset[Edge]:
    """First cross-tier edges of a path: walking outward from each run of
    minimum-tier nodes, the edge leaving the run, oriented from the earlier
    tier; so the path's edges with one end in the minimum tier and one
    above it.  Node ``v`` has tier ``tier[v]``: ``tier`` is a
    :class:`TieredOrdering`, or a tier vector for a path of indices."""
    tiers = [tier[v] for v in path]
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


def cross_tier_report(
    c: PDAG, ordering: TieredOrdering, max_nodes: int = DEFAULT_PATH_NODE_LIMIT
) -> CrossTierEdgeReport:
    """Summary of where ``ordering`` places cross-tier edges on the
    undirected part of ``c``, the ingredients of the equivalence criterion.
    It lists paths, so a chain component of more than ``max_nodes`` nodes
    raises LimitError; each earliest path comes once, from its lower end, by
    (component, start, end).  Only prefixes whose floors all equal the first
    edge's, m, are walked: a path is earliest iff that holds and it has a
    node of tier m.  An undirected edge whose ends have different parents,
    or a part that is not chordal (no CPDAG has either), raises GraphError,
    and an ordering that no DAG of the class respects raises as in
    :func:`tiered_mpdag`."""
    _require_chordal_part(c)
    _orient_tiered(c, (ordering,), (1,), searched=True)
    names, ne, tier = c.nodes, c._ne, ordering._tiers(c.nodes)
    groups = _component_labels(ne)[1].values()
    if size := next((len(group) for group in groups if len(group) > max_nodes), 0):
        raise LimitError(
            f"component of {size} nodes exceeds the path enumeration limit of {max_nodes}"
        )
    rank = {v: r for r, group in enumerate(groups) for v in group}
    floor = _floors(ne, tier)
    paths = []
    for s in sorted(rank):  # each prefix: its floor m and whether it holds a node of tier m
        stack = [((s, b), floor[s][b], floor[s][b] in (tier[s], tier[b]))
                 for b in sorted(ne[s], reverse=True) if _maximal(ne, floor, b, s)]
        while stack:
            path, m, got = stack.pop()
            a, b = path[-2:]
            if not _maximal(ne, floor, a, b):  # else no extension keeps the floor m
                stack += [((*path, x), m, got or tier[x] == m)
                          for x in sorted(ne[b] - ne[a] - {a}, reverse=True) if floor[b][x] == m]
            elif b > s and got:
                paths.append(path)
    paths.sort(key=lambda path: (rank[path[0]], path[0], path[-1]))
    earliest = [tuple(map(names.__getitem__, path)) for path in paths]
    shielded = [(names[i], names[j]) if tier[i] < tier[j] else (names[j], names[i])
                for i, j in _shielded(ne) if tier[i] != tier[j]]  # from the earlier tier
    h = c.undirected_subgraph()
    return CrossTierEdgeReport(
        graph=h._oriented(*_cross_tier_state(h, tier)[0][:2]),
        earliest_paths=tuple(earliest),
        first_edges=tuple(first_cross_tier_edges(p, ordering) for p in earliest),
        fully_shielded_cross_tier=tuple(shielded),
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


def tiers_equivalent(c: PDAG, t1: TieredOrdering, t2: TieredOrdering) -> TierEquivalence:
    """Do ``t1`` and ``t2`` induce the same maximally oriented graph on ``c``?

    Decided graphically: the orderings are equivalent iff they agree on
    the first cross-tier edges of every earliest unshielded path and on
    every fully shielded cross-tier edge.  No path is listed: the witness
    is the first differing shielded edge, else the least differing first
    edge (module docstring), read from the same per-edge sets at every size.
    """
    check_compatible(t1, t2)
    return _compare(c, t1, t2)[0]


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
    adjacent and parent sets in ``g2`` are compared with its sets in ``g1``,
    by index on equal node tuples, else carried to ``g1``'s indices first."""
    if g1.nodes == g2.nodes:
        return g1._adjacency() == g2._adjacency() and all(map(operator.le, g2._pa, g1._pa))
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
    c: PDAG, t1: TieredOrdering, t2: TieredOrdering
) -> InformativenessResult:
    """Compare how much ``t1`` and ``t2`` orient on ``c``.

    The verdict comes from containment of the two maximally oriented
    graphs; the sufficient graphical conditions are reported alongside
    as diagnostics (they imply, but are not implied by, the verdict).
    """
    return _compare(c, t1, t2)[1]


def _compare(
    c: PDAG, t1: TieredOrdering, t2: TieredOrdering
) -> tuple[TierEquivalence, InformativenessResult]:
    """Equivalence and informativeness of ``t1`` and ``t2`` on ``c``: one tiered pass
    over both admits ``c`` and builds both MPDAGs, which share its node tuple; the rest
    is read by index from ``c``'s neighbour sets, tier vectors and edge floors, and
    equality and containment compare index sets.  Raises :class:`InvariantError`,
    naming a witness, if the criterion and equality of the MPDAGs disagree."""
    (g1, _), (g2, _) = _orient_tiered(c, (t1, t2), (1,))
    names, ne = c.nodes, c._ne
    v1, v2 = t1._tiers(names), t2._tiers(names)  # (u, v) is cross-tier under t iff t[u] < t[v]
    shielded = _shielded(ne)  # each oriented from its earlier tier, None within one
    s1, s2 = ([(u, v) if t[u] < t[v] else (v, u) if t[v] < t[u] else None for u, v in shielded]
              for t in (v1, v2))
    f1, f2 = _floors(ne, v1), _floors(ne, v2)
    u1, u2 = _first_edges(f1, v1), _first_edges(f2, v2)
    shielded_diff = [a or b for a, b in zip(s1, s2) if a != b]
    equivalent = not shielded_diff and u1 == u2
    witness = (names[shielded_diff[0][0]], names[shielded_diff[0][1]]) if shielded_diff else None
    if witness is None and u1 != u2:  # the least differing first edge of the least component
        label, diff = _component_labels(ne)[0], u1 ^ u2
        k = min(label[u] for u, _ in diff)
        witness = min(((names[u], names[v]) for u, v in diff if label[u] == k), key=str)
    same = g1 == g2
    if equivalent != same:
        u, v = witness or min(set(g1.directed_edges) ^ set(g2.directed_edges), key=str)
        criterion, graphs = ("different", "equal") if same else ("equivalent", "different")
        raise InvariantError(
            f"equivalence criterion: the orderings are {criterion} but their tiered "
            f"MPDAGs are {graphs}, witness {u} -> {v}"
        )
    verdict = (Informativeness.EQUIVALENT if same
               else Informativeness.MORE_INFORMATIVE if contained_in(g1, g2)
               else Informativeness.LESS_INFORMATIVE if contained_in(g2, g1)
               else Informativeness.INCOMPARABLE)
    return (
        TierEquivalence(equivalent, witness, u1 == u2, not shielded_diff),
        InformativenessResult(
            verdict,
            condition_i=all(v1[u] < v1[v] for u, v in u2),
            condition_ii=all(v1[u] < v1[v] for u, v in filter(None, s2)),
            condition_iii=any(v2[u] >= v2[v] for u, v in u1),
            condition_iv=s1.count(None) < s2.count(None),
        ),
    )
