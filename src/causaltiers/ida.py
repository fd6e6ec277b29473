"""Candidate parent-set enumeration (local and joint IDA).

On graphs whose chain components can be oriented independently of the
directed part, the original local and joint procedures apply without
any validity post-check.  The local variant lists the cliques of a
node's neighbours that add no new collider at that node.  The joint
variant counts the members behind each assignment of parent sets to the
query nodes by root picking (He, Jia and Yu, JMLR 2015), with no
branching, no listing and no member guard.  Every acyclic orientation
without v-structures of a connected chordal component has one source r;
the r-rooted graph is the tiered MPDAG of the ordering {r} < rest, so
rule 1 alone builds it; and a query node's parents are its directed
parents there together with its parents inside its chain component.  A
chain component that is not chordal has no member, so both give nothing.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .graphs import GraphError, Node, PDAG, _component_labels
from .orientation import _completions


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
    cost follows the number of answers, not 2^deg.  If x's chain component
    is not chordal it has no member, and the multiset is empty."""
    i = g.index_of(x)
    if _queried_part(g, [i]) is None:
        return ParentSetMultiset()
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

    Each chain component touching ``xs`` is counted on its own by root
    picking that carries the query nodes' parent sets.  Every acyclic
    orientation without v-structures of a connected chordal component has
    exactly one source r.  Those with source r are the products of the
    orientations of the chain components of the r-rooted graph, which is
    the tiered MPDAG of the ordering {r} < rest, so rule 1 alone builds it
    (the paper's rule-1 sufficiency).  In each of them a query node's
    parents are its directed parents in the rooted graph together with its
    parents inside its chain component there.  So one memoised recursion
    sums over roots the directed parents and the convolved counts of the
    sub-components; a clique is closed form.  A component that is not
    chordal has no member, so neither has the query.  The tuples of
    parent sets (ordered like ``xs``) then combine across components with
    the parents from the directed part, each multiplicity the product of
    the per-component counts.  The counts are over the queried
    components; an untouched component scales every count alike and is
    left out.

    Raises
    ------
    GraphError
        On duplicate or unknown nodes.
    """
    xs = list(xs)
    if len(set(xs)) != len(xs):
        raise GraphError("query nodes must be distinct")
    ne = _queried_part(g, [g.index_of(x) for x in xs])
    if ne is None:
        return ParentSetMultiset()
    parents = tuple(frozenset(g.parents_of(x)) for x in xs)
    return ParentSetMultiset(_completions(ne, g.nodes, {}, tuple(xs), parents))


def _queried_part(g: PDAG, idx: Iterable[int]) -> list | None:
    """``g``'s neighbour sets on the chain components that hold the indices
    ``idx``, empty elsewhere, or None if one of those is not chordal."""
    label, groups = _component_labels(g._ne)
    keep = {label[i] for i in idx} & groups.keys()
    if any(g.induced_subgraph(g._labels(groups[k]))._non_simplicial() is not None for k in keep):
        return None
    return [nb if label[v] in keep else () for v, nb in enumerate(g._ne)]
