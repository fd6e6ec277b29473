"""Tiered orderings and their comparison on a CPDAG.

A tiered ordering assigns every node to one tier; it forbids all edges
pointing from a later tier into an earlier one and nothing else.  Two
consistent orderings can induce the same maximally oriented graph even
when they differ; the equivalence test here decides that graphically,
by comparing (i) the first cross-tier edges on earliest unshielded
paths and (ii) the fully shielded cross-tier edges, both computed on
the undirected part of the CPDAG oriented by each ordering.  Each of
:func:`cross_tier_report`, :func:`tiers_equivalent` and
:func:`tiers_more_informative` enumerates the unshielded paths of every
chain component once, and both orderings' reports are read from them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graphs import DEFAULT_PATH_NODE_LIMIT, Edge, GraphError, LimitError, Node, PDAG
from .orientation import impose_tiers, require_consistency, tiered_mpdag


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

    __slots__ = ("_assignment",)

    def __init__(self, assignment: Mapping[Node, int]):
        items = dict(assignment)
        for v, t in items.items():
            if isinstance(t, bool) or not isinstance(t, int):
                raise GraphError(f"tier of {v!r} must be an integer, got {t!r}")
        if not items:
            raise GraphError("an ordering needs at least one node")
        self._assignment = items

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
    #: strict orderings present in the first ordering only / second only
    only_in_first: frozenset[tuple[Node, Node]]
    only_in_second: frozenset[tuple[Node, Node]]


def _strict_pairs(ordering: TieredOrdering, nodes: Sequence[Node]) -> set[tuple[Node, Node]]:
    return {
        (a, b)
        for a in nodes
        for b in nodes
        if ordering.tier_of(a) < ordering.tier_of(b)
    }


def _check_same_nodes(t1: TieredOrdering, t2: TieredOrdering) -> list[Node]:
    if set(t1.nodes) != set(t2.nodes):
        raise GraphError("orderings are defined on different node sets")
    return list(t1.nodes)


def check_compatible(t1: TieredOrdering, t2: TieredOrdering) -> None:
    """Raise unless no node pair is ordered oppositely by ``t1`` and ``t2``."""
    nodes = _check_same_nodes(t1, t2)
    for a in nodes:
        for b in nodes:
            if t1.tier_of(a) < t1.tier_of(b) and t2.tier_of(a) > t2.tier_of(b):
                raise IncompatibleOrderingsError(
                    f"orderings contradict each other on ({a!r}, {b!r})"
                )


def compare_refinement(t1: TieredOrdering, t2: TieredOrdering) -> TierComparison:
    """Refinement relation between two compatible orderings.

    ``t1`` is finer than ``t2`` when every strict order of ``t2`` also
    holds strictly in ``t1``.
    """
    check_compatible(t1, t2)
    nodes = list(t1.nodes)
    s1 = _strict_pairs(t1, nodes)
    s2 = _strict_pairs(t2, nodes)
    if s1 == s2:
        verdict = Refinement.EQUAL
    elif s2 <= s1:
        verdict = Refinement.FIRST_FINER
    elif s1 <= s2:
        verdict = Refinement.SECOND_FINER
    else:
        verdict = Refinement.INCOMPARABLE
    return TierComparison(
        verdict, frozenset(s1 - s2), frozenset(s2 - s1)
    )


# === the undirected part of a CPDAG under an ordering


def fully_shielded_edges(h: PDAG) -> list[tuple[Node, Node]]:
    """Edges occurring on no unshielded path: both endpoints have the
    same adjacency set apart from each other.  Computed on the skeleton."""
    out = []
    for u, v in sorted(
        list(h.undirected_edges) + list(h.directed_edges),
        key=lambda e: (h.index_of(e[0]), h.index_of(e[1])),
    ):
        adj_u = set(h.adjacent_to(u)) - {v}
        adj_v = set(h.adjacent_to(v)) - {u}
        if adj_u == adj_v:
            out.append((u, v) if h.index_of(u) < h.index_of(v) else (v, u))
    return out


def _component_paths(
    h: PDAG, component: Sequence[Node], max_nodes: int
) -> list[tuple[Node, ...]]:
    """Every unshielded path (>= 2 nodes) inside one chain component,
    each listed once, starting from its lower-index endpoint."""
    if len(component) > max_nodes:
        raise LimitError(
            f"component of {len(component)} nodes exceeds the path "
            f"enumeration limit of {max_nodes}"
        )
    sub = h.induced_subgraph(component)
    paths = []
    nodes = sub.nodes
    for si in range(len(nodes)):
        for ti in range(si + 1, len(nodes)):
            paths.extend(sub.find_unshielded_paths(nodes[si], nodes[ti], max_nodes))
    return paths


def _earliest(
    paths: Sequence[tuple[Node, ...]], ordering: TieredOrdering
) -> list[tuple[Node, ...]]:
    """The earliest of ``paths`` (all unshielded paths of the graph):
    those sharing no subpath with a strictly earlier path.

    Sharing a subpath means sharing an edge, and an earlier path through
    an edge exists precisely when some unshielded path through that edge
    visits a tier strictly below this path's own minimum.  Shielded
    detours do not count: orientation only travels along unshielded
    paths, so only those can pre-empt an edge.
    """
    lowest = [min(ordering.tier_of(v) for v in path) for path in paths]
    floor: dict[frozenset, int] = {}  # per edge: the lowest tier of a path through it
    for path, m in zip(paths, lowest):
        for edge in zip(path, path[1:]):
            key = frozenset(edge)
            floor[key] = min(m, floor.get(key, m))
    return [
        path
        for path, m in zip(paths, lowest)
        if all(floor[frozenset(edge)] >= m for edge in zip(path, path[1:]))
    ]


def _maximal_paths(paths: list[tuple[Node, ...]]) -> list[tuple[Node, ...]]:
    """Drop every path that is a proper subpath of another listed path,
    in either direction."""
    segments = set()
    for path in paths:
        for length in range(2, len(path)):
            for i in range(len(path) - length + 1):
                segment = path[i : i + length]
                segments.add(segment)
                segments.add(segment[::-1])
    return [path for path in paths if path not in segments]


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
        out: set[Edge] = set()
        for edges in self.first_edges:
            out |= edges
        return frozenset(out)


def _reports(
    c: PDAG, orderings: Sequence[TieredOrdering], max_nodes: int
) -> list[CrossTierEdgeReport]:
    """One :class:`CrossTierEdgeReport` per ordering, all read from a
    single enumeration of the unshielded paths of each chain component."""
    for ordering in orderings:
        require_consistency(c, ordering)
    h = c.undirected_subgraph()
    paths = [
        path
        for component in h.chain_components()
        if len(component) > 1
        for path in _component_paths(h, component, max_nodes)
    ]
    shielded = fully_shielded_edges(h)
    reports = []
    for ordering in orderings:
        oriented = impose_tiers(h, ordering)
        cross = set(oriented.directed_edges)
        earliest = _maximal_paths(_earliest(paths, ordering))
        reports.append(
            CrossTierEdgeReport(
                graph=oriented,
                earliest_paths=tuple(earliest),
                first_edges=tuple(first_cross_tier_edges(p, ordering) for p in earliest),
                fully_shielded_cross_tier=tuple(
                    (u, v) if (u, v) in cross else (v, u)
                    for u, v in shielded
                    if (u, v) in cross or (v, u) in cross
                ),
            )
        )
    return reports


def cross_tier_report(
    c: PDAG, ordering: TieredOrdering, max_nodes: int = DEFAULT_PATH_NODE_LIMIT
) -> CrossTierEdgeReport:
    """Summary of where ``ordering`` places cross-tier edges on the
    undirected part of ``c``; the ingredients of the equivalence
    criterion."""
    return _reports(c, (ordering,), max_nodes)[0]


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
    r1, r2 = _reports(c, (t1, t2), max_nodes)
    cross1 = set(r1.graph.directed_edges)
    cross2 = set(r2.graph.directed_edges)
    h = c.undirected_subgraph()

    witness: Edge | None = None
    shielded_agree = True
    for u, v in fully_shielded_edges(h):
        s1 = (u, v) if (u, v) in cross1 else (v, u) if (v, u) in cross1 else None
        s2 = (u, v) if (u, v) in cross2 else (v, u) if (v, u) in cross2 else None
        if s1 != s2:
            shielded_agree = False
            if witness is None:
                witness = s1 if s1 is not None else s2

    # chain component by component, as the paths were enumerated
    rank = {v: i for i, component in enumerate(h.chain_components()) for v in component}
    first_agree = True
    for path in sorted(
        set(r1.earliest_paths) | set(r2.earliest_paths),
        key=lambda p: (rank[p[0]], str(p)),
    ):
        f1 = first_cross_tier_edges(path, t1)
        f2 = first_cross_tier_edges(path, t2)
        if f1 != f2:
            first_agree = False
            if witness is None:
                diff = sorted(f1 ^ f2, key=str)
                witness = diff[0]
    equivalent = shielded_agree and first_agree
    return TierEquivalence(
        equivalent=equivalent,
        witness=None if equivalent else witness,
        first_edges_agree=first_agree,
        shielded_agree=shielded_agree,
    )


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
    """Same skeleton and every directed edge of ``g2`` also in ``g1``."""
    if g1.skeleton() != g2.skeleton():
        return False
    return set(g2.directed_edges) <= set(g1.directed_edges)


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
    g1 = tiered_mpdag(c, t1)
    g2 = tiered_mpdag(c, t2)
    if g1 == g2:
        verdict = Informativeness.EQUIVALENT
    elif contained_in(g1, g2):
        verdict = Informativeness.MORE_INFORMATIVE
    elif contained_in(g2, g1):
        verdict = Informativeness.LESS_INFORMATIVE
    else:
        verdict = Informativeness.INCOMPARABLE

    r1, r2 = _reports(c, (t1, t2), max_nodes)
    cross1 = set(r1.graph.directed_edges)
    cross2 = set(r2.graph.directed_edges)
    cond_i = all(e in cross1 for e in r2.all_first_edges)
    cond_ii = all(e in cross1 for e in r2.fully_shielded_cross_tier)
    cond_iii = any(e not in cross2 for e in r1.all_first_edges)
    cond_iv = len(r1.fully_shielded_cross_tier) > len(r2.fully_shielded_cross_tier)
    return InformativenessResult(verdict, cond_i, cond_ii, cond_iii, cond_iv)
