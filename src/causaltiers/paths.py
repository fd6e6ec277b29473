"""Causal path classification on partially directed graphs.

A path is possibly causal when none of its own edges is traversed
against its direction.  The b-variant additionally forbids any edge of
the graph from a later path node back to an earlier one; it is the
notion that stays sound on graphs with partially directed cycles.  On
graphs without such cycles, and only there, the two coincide at every path
length; :func:`check_adjustment_equivalence` decides this in O(V + E) and
lists no path: it searches for one where they differ only on a cyclic graph.
"""

from __future__ import annotations

import enum
import itertools as itr
from dataclasses import dataclass
from typing import Sequence

from .graphs import Node, PDAG
from .orientation import InvariantError


class PathVerdict(enum.Enum):
    POSSIBLY_CAUSAL = "possibly-causal"
    NON_CAUSAL = "non-causal"


class BPathVerdict(enum.Enum):
    B_POSSIBLY_CAUSAL = "b-possibly-causal"
    B_NON_CAUSAL = "b-non-causal"


def classify_possibly_causal(g: PDAG, path: Sequence[Node]) -> PathVerdict:
    """Possibly causal iff no edge on the path points backwards."""
    g.check_path(path)
    for u, v in zip(path, path[1:]):
        if g.has_directed(v, u):
            return PathVerdict.NON_CAUSAL
    return PathVerdict.POSSIBLY_CAUSAL


def classify_b_possibly_causal(g: PDAG, path: Sequence[Node]) -> BPathVerdict:
    """B-possibly causal iff no edge of ``g`` (on or off the path) points
    from a later path node to a strictly earlier one."""
    g.check_path(path)
    for i, j in itr.combinations(range(len(path)), 2):
        if g.has_directed(path[j], path[i]):
            return BPathVerdict.B_NON_CAUSAL
    return BPathVerdict.B_POSSIBLY_CAUSAL


@dataclass(frozen=True)
class AdjustmentEquivalenceReport:
    counterexample: tuple[Node, ...] | None

    @property
    def equivalent(self) -> bool:
        return self.counterexample is None


def check_adjustment_equivalence(g: PDAG) -> AdjustmentEquivalenceReport:
    """Whether both classifications agree on every path of ``g``; if not,
    one path where they differ.

    Such a path has every edge forward or undirected and a backward
    chord, from a later path node to an earlier one.  The segment between
    the chord's ends is such a path too, and with the chord it closes a
    partially directed cycle; such a cycle less one of its directed edges
    u -> v is such a path from v to u.  So one exists iff ``g`` has a
    partially directed cycle, which one Kahn pass decides in O(V + E)
    (:meth:`PDAG.has_partially_directed_cycle`).  Only on such a graph is
    a path searched for: per directed edge u -> v in canonical order, a
    breadth-first search from v along forward and undirected edges,
    neighbours by index, and the first that reaches u gives its search
    path, read from v to u: O(E (V + E)).
    """
    if not g.has_partially_directed_cycle():
        return AdjustmentEquivalenceReport(None)
    step = [sorted(ch | ne) for ch, ne in zip(g._ch, g._ne)]
    for u, heads in enumerate(g._ch):
        for v in sorted(heads):
            prev, queue = {v: v}, [v]
            for x in queue:
                for w in step[x]:
                    if w not in prev:
                        prev[w] = x
                        queue.append(w)
            if u in prev:
                path = [u]
                while path[-1] != v:
                    path.append(prev[path[-1]])
                return AdjustmentEquivalenceReport(tuple(g.nodes[i] for i in path[::-1]))
    raise InvariantError("partially directed cycle, but no directed edge closes one")
