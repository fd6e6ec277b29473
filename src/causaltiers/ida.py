"""Candidate parent-set enumeration (local and joint IDA).

The domain is the graphs whose undirected edges each join two nodes with
the same parents, CPDAGs and tiered MPDAGs among them: their chain
components orient independently of each other and of the directed part,
so the original local and joint procedures apply without any validity
post-check.  Their undirected part must also be chordal, so the class has
a member; other graphs raise a :class:`GraphError`.
The local variant lists the cliques of a node's neighbours.  The joint
variant counts the members behind each assignment of parent sets to the
query nodes by clique picking (Wienobst, Bannach and Liskiewicz, AAAI
2021), as :mod:`causaltiers.orientation` proves it, in polynomial time
per assignment, with no branching, no listing and no member guard."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .graphs import GraphError, Node, PDAG, _component_labels
from .orientation import _completions, _require_chordal_part


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
    """Candidate parent sets of ``x``: parents(x) | S for every clique S
    (the empty one included) of x's neighbours, which all have x's parents,
    so no S adds a collider at ``x``.  Each clique is extended with the
    later neighbours adjacent to all of it, so the cost follows the number
    of answers, not 2^deg.  A graph outside the module's domain raises a
    :class:`GraphError`."""
    i = g.index_of(x)
    _require_chordal_part(g)
    cliques = [frozenset()]
    for w in sorted(g._ne[i]):
        cliques += [c | {w} for c in cliques if c <= g._ne[w]]
    return ParentSetMultiset(frozenset(g._labels(g._pa[i] | c)) for c in cliques)


def joint_ida(g: PDAG, xs: Sequence[Node]) -> ParentSetMultiset:
    """Jointly valid parent sets of the nodes ``xs``, with the number of
    class members that give each.

    Each chain component touching ``xs`` is counted on its own by clique
    picking that carries the query nodes' parent sets: over maximal
    cliques C, those C's orders give its query nodes, convolved with the
    other query nodes' directed parents in the C-first graph and the counts
    of its chain components outside C.  The tuples of parent sets (ordered
    like ``xs``) then combine across components with the parents from the
    directed part, each multiplicity the product of the per-component
    counts.  The counts are over the queried components; an untouched
    component scales every count alike and is left out.

    Raises
    ------
    GraphError
        On duplicate or unknown nodes, or outside the module's domain.
    """
    xs = list(xs)
    if len(set(xs)) != len(xs):
        raise GraphError("query nodes must be distinct")
    idx = [g.index_of(x) for x in xs]
    _require_chordal_part(g)
    label = _component_labels(g._ne)[0]
    keep = {label[i] for i in idx}
    ne = [nb if label[v] in keep else () for v, nb in enumerate(g._ne)]
    parents = tuple(frozenset(g.parents_of(x)) for x in xs)
    return ParentSetMultiset(_completions(ne, g.nodes, {}, tuple(xs), parents))
