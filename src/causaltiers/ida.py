"""Candidate parent-set enumeration (local and joint IDA).

On graphs whose chain components can be oriented independently of the
directed part, the original local and joint procedures apply without
any validity post-check.  The local variant lists the cliques of a
node's neighbours that add no new collider at that node.  The joint
variant branches only on the edges at the query nodes, counts the
members behind each branch instead of listing them, and combines the
results across components; it has no member guard.
"""

from __future__ import annotations

import itertools as itr
import math
from collections import Counter
from typing import Iterable, Sequence

from .graphs import GraphError, Node, PDAG
from .orientation import _completions, _leaves


class ParentSetMultiset:
    """Multiset of candidate parent sets (or tuples of parent sets).

    Keys are frozensets for a single node and tuples of frozensets for a
    node set; multiplicities are exact integers.
    """

    def __init__(self, entries: Iterable = ()):
        self._counts: Counter = Counter(entries)

    @property
    def counts(self) -> dict:
        return dict(self._counts)

    def distinct(self) -> frozenset:
        return frozenset(self._counts)

    def multiplicity(self, entry) -> int:
        return self._counts.get(entry, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParentSetMultiset):
            return NotImplemented
        return self._counts == other._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self):
        return iter(self._counts.items())

    def __repr__(self) -> str:
        rows = sorted((_format_entry(e), m) for e, m in self._counts.items())
        return f"ParentSetMultiset({', '.join(f'{text} x{m}' for text, m in rows)})"


def _format_entry(entry) -> str:
    """``{A,B}`` for a parent set, ``({A}, {})`` for a tuple of them."""
    if isinstance(entry, frozenset):
        return "{" + ",".join(sorted(map(str, entry))) + "}"
    return "(" + ", ".join(map(_format_entry, entry)) + ")"


def local_ida(g: PDAG, x: Node) -> ParentSetMultiset:
    """Candidate parent sets of ``x``: parents(x) | S for every set S of
    x's neighbours that can be oriented into ``x`` without creating a new
    collider at ``x``, that is every clique S (the empty one included) of
    the neighbours adjacent to all parents of ``x``.  Each clique is
    extended with the later such neighbours adjacent to all of it, so the
    cost follows the number of answers, not 2^deg."""
    i = g.index_of(x)
    pa = g._pa[i]
    adj = {w: g._pa[w] | g._ch[w] | g._ne[w] for w in g._ne[i]}
    cliques = [frozenset()]
    for w in sorted(g._ne[i]):
        if pa <= adj[w]:
            cliques += [c | {w} for c in cliques if c <= adj[w]]
    return ParentSetMultiset(frozenset(g._labels(pa | c)) for c in cliques)


def joint_ida(g: PDAG, xs: Sequence[Node]) -> ParentSetMultiset:
    """Jointly valid parent sets of the nodes ``xs``, with the number of
    class members that give each.

    Each chain component touching ``xs`` is handled on its own: branch
    and close over the undirected edges at its query nodes only.  Each
    leaf fixes their parent sets and is the interventional essential graph
    of one intervention per query node (Hauser and Bühlmann, JMLR 2012),
    a chain graph with chordal components; the members it stands for are
    counted, as the product of those components' counts, never listed.
    A component that is not chordal has no member, so neither has the
    query.  The distinct tuples of parent sets (ordered like ``xs``) then
    combine across components with the parents from the directed part;
    each multiplicity is the product of the per-component counts.  The
    counts are over the queried components; an untouched component
    scales every count alike and is left out.

    Raises
    ------
    GraphError
        On duplicate or unknown nodes.
    """
    xs = list(xs)
    query = set(xs)
    if len(query) != len(xs):
        raise GraphError("query nodes must be distinct")
    for x in xs:
        g.index_of(x)

    dir_parents = {x: frozenset(g.parents_of(x)) for x in xs}

    und = g.undirected_subgraph()
    memo: dict = {}
    # per component: its distinct query-node parent assignments, with counts
    per_component = []
    for comp in g.chain_components():
        if len(comp) > 1 and query.intersection(comp):
            per_component.append(_assignments(und.induced_subgraph(comp), query, memo))

    counts: Counter = Counter()
    for combo in itr.product(*per_component):
        merged: dict[Node, frozenset[Node]] = {}
        for assignment, _ in combo:
            merged.update(assignment)
        entry = tuple(dir_parents[x] | merged.get(x, frozenset()) for x in xs)
        counts[entry] += math.prod(m for _, m in combo)
    return ParentSetMultiset(counts)


def _assignments(h: PDAG, query: set, memo: dict) -> list:
    """The distinct parent-set assignments of the query nodes of the
    undirected component ``h``, each with the number of its orientations
    that give it; ``memo`` is the shared :func:`_amo_count` memo."""
    if not h.is_chordal():
        return []
    qs = [x for x in h.nodes if x in query]
    counts: Counter = Counter()
    for leaf in _leaves(h, map(h.index_of, qs)):
        assignment = tuple((x, frozenset(leaf.parents_of(x))) for x in qs)
        counts[assignment] += _completions(leaf._ne, leaf.nodes, memo)
    return list(counts.items())
