"""Reference computations the benchmark checks the program against.

Everything here is written against plain dict and set graphs and calls
no code of the package, so a fault in the program cannot hide in its
own check.  A :class:`Graph` gives its edges as a set of ``(tail, head)``
arcs and a set of frozenset undirected edges.
"""

from __future__ import annotations

import itertools as itr
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

# === the simulation's DAG draws, redrawn under its documented seed policy
#
# Every replication owns a Philox stream keyed by
# SeedSequence(seed, spawn_key=(nodes, density, generator, rep)), with the
# density and generator given by their index in the lists below.

DENSITY_NEIGHBOURS = {"sparse": 2.0, "dense": 5.0}
GENERATORS = ("er", "power", "geometric")
#: scheme name -> tier of each of the five equal base blocks
SCHEMES = {
    "full": (1, 2, 3, 4, 5),
    "early1": (1, 2, 2, 2, 2),
    "early2": (1, 2, 3, 3, 3),
    "late1": (1, 1, 1, 1, 2),
    "late2": (1, 1, 1, 2, 3),
}


def replication_rng(seed: int, nodes: int, density: str, generator: str, rep: int):
    key = (nodes, sorted(DENSITY_NEIGHBOURS).index(density), GENERATORS.index(generator), rep)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _er_skeleton(p, degree, rng):
    pairs = list(itr.combinations(range(p), 2))
    keep = rng.random(len(pairs)) < degree / (p - 1)
    return [pair for pair, k in zip(pairs, keep) if k]


def _power_skeleton(p, degree, rng):
    target = p * degree / 2.0
    totals = [sum(min(i, m) for i in range(1, p)) for m in range(p + 1)]
    m = 0
    while m < p and totals[m + 1] <= target:
        m += 1
    lo, hi = totals[m], totals[m + 1] if m + 1 <= p else totals[m]
    frac = 0.0 if hi <= lo else min(1.0, (target - lo) / (hi - lo))
    deg = np.zeros(p)
    edges = []
    for i in range(1, p):
        k = min(i, m + (1 if rng.random() < frac else 0))
        available = list(range(i))
        for _ in range(k):
            weights = deg[available] + 1.0
            pick = int(rng.choice(len(available), p=weights / weights.sum()))
            j = available.pop(pick)
            edges.append((j, i))
            deg[j] += 1
            deg[i] += 1
    return edges


def _geometric_skeleton(p, degree, rng):
    pts = rng.random((p, 2))

    def cdf(r):  # P(distance <= r) for two uniform points in the unit square
        return math.pi * r * r - 8.0 / 3.0 * r**3 + 0.5 * r**4

    target = degree / (p - 1)
    if target >= cdf(1.0):
        r = 1.5
    else:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if cdf(mid) < target else (lo, mid)
        r = (lo + hi) / 2.0
    return [
        (i, j)
        for i, j in itr.combinations(range(p), 2)
        if float(np.hypot(*(pts[i] - pts[j]))) <= r
    ]


_SKELETONS = {"er": _er_skeleton, "power": _power_skeleton, "geometric": _geometric_skeleton}


def simulation_dag(seed, nodes, density, generator, rep):
    """The DAG of one simulation replication: labels V0.. in topological
    order, arcs directed along a random permutation of the skeleton."""
    rng = replication_rng(seed, nodes, density, generator, rep)
    skeleton = _SKELETONS[generator](nodes, DENSITY_NEIGHBOURS[density], rng)
    rank = {int(v): k for k, v in enumerate(rng.permutation(nodes))}
    arcs = set()
    for a, b in skeleton:
        i, j = sorted((rank[a], rank[b]))
        arcs.add((f"V{i}", f"V{j}"))
    return [f"V{k}" for k in range(nodes)], arcs


def scheme_tiers(scheme: str, nodes) -> dict:
    """Tier of each node under a scheme: five contiguous blocks of the
    given (topological) node order, remainders to the earliest blocks."""
    q, r = divmod(len(nodes), 5)
    out, k = {}, 0
    for block in range(5):
        for _ in range(q + 1 if block < r else q):
            out[nodes[k]] = SCHEMES[scheme][block]
            k += 1
    return out


def sparse_dag(rng, p: int, degree: float, prefix: str):
    """Uniform random DAG with about ``p * degree / 2`` arcs, labels in
    topological order; used for graphs too large for the O(p^2) draws."""
    m = int(round(p * degree / 2))
    arcs = set()
    while len(arcs) < m:
        a, b = (int(x) for x in rng.integers(0, p, size=2))
        if a != b:
            arcs.add((f"{prefix}{min(a, b)}", f"{prefix}{max(a, b)}"))
    return [f"{prefix}{k}" for k in range(p)], arcs


# === graphs with dict/set adjacency


class Graph:
    """Mixed graph on dicts: directed parents/children and undirected neighbours."""

    def __init__(self, nodes, arcs=(), undirected=()):
        self.nodes = list(nodes)
        self.par = {v: set() for v in self.nodes}
        self.chi = {v: set() for v in self.nodes}
        self.und = {v: set() for v in self.nodes}
        for a, b in arcs:
            self.par[b].add(a)
            self.chi[a].add(b)
        for a, b in undirected:
            self.und[a].add(b)
            self.und[b].add(a)

    def copy(self) -> "Graph":
        return Graph(self.nodes, self.arcs(), self.undirected())

    def adjacent(self, a, b) -> bool:
        return b in self.und[a] or b in self.par[a] or b in self.chi[a]

    def arcs(self) -> set:
        return {(a, b) for b in self.nodes for a in self.par[b]}

    def undirected(self) -> set:
        return {frozenset((a, b)) for a in self.nodes for b in self.und[a]}

    def orient(self, a, b) -> None:
        self.und[a].discard(b)
        self.und[b].discard(a)
        self.par[b].add(a)
        self.chi[a].add(b)


def _fires(g: Graph, rule: int, b, c) -> bool:
    """Would Meek's ``rule`` orient the undirected edge b - c as b -> c?"""
    if rule == 1:
        return any(a != c and not g.adjacent(a, c) for a in g.par[b])
    if rule == 2:
        return bool(g.chi[b] & g.par[c])
    if rule != 3:
        raise ValueError(f"Meek rule {rule} is not needed by any reference here")
    cand = g.und[b] & g.par[c]
    return any(not g.adjacent(x, y) for x, y in itr.combinations(cand, 2))


def close(g: Graph, rules) -> list:
    """Close ``g`` in place under the given Meek rules; returns the arcs
    oriented, in the order they were oriented."""
    oriented = []
    changed = True
    while changed:
        changed = False
        for b in g.nodes:
            for c in list(g.und[b]):
                if c in g.und[b] and any(_fires(g, r, b, c) for r in rules):
                    g.orient(b, c)
                    oriented.append((b, c))
                    changed = True
    return oriented


def cpdag(nodes, arcs) -> Graph:
    """CPDAG of a DAG: v-structure arcs directed, then Meek rules 1-3."""
    parents = {v: set() for v in nodes}
    for a, b in arcs:
        parents[b].add(a)
    skeleton = {frozenset(e) for e in arcs}
    compelled = set()
    for b in nodes:
        for a, c in itr.combinations(sorted(parents[b]), 2):
            if frozenset((a, c)) not in skeleton:
                compelled |= {(a, b), (c, b)}
    g = Graph(nodes, compelled, [e for e in arcs if e not in compelled])
    close(g, (1, 2, 3))
    return g


class TieredResult(NamedTuple):
    """Tiered MPDAG with how each arc came to be directed."""

    graph: Graph
    by_tiers: set
    by_rule1: set


def tiered_closure(c: Graph, tiers: dict) -> TieredResult:
    """Orient every cross-tier undirected edge of ``c`` from the earlier
    tier, then close under Meek's rule 1 alone."""
    g = c.copy()
    by_tiers = set()
    for e in c.undirected():
        a, b = sorted(e, key=lambda v: tiers[v])
        if tiers[a] < tiers[b]:
            g.orient(a, b)
            by_tiers.add((a, b))
    return TieredResult(g, by_tiers, set(close(g, (1,))))


def same_graph(g: Graph, h: Graph) -> bool:
    return g.arcs() == h.arcs() and g.undirected() == h.undirected()


def informativeness(g1: Graph, g2: Graph) -> str:
    """Containment verdict between two MPDAGs of one CPDAG."""
    a1, a2 = g1.arcs(), g2.arcs()
    if same_graph(g1, g2):
        return "equivalent"
    if a2 < a1:
        return "first-more-informative"
    if a1 < a2:
        return "second-more-informative"
    return "incomparable"


def refinement(t1: dict, t2: dict) -> str:
    """Refinement relation read from two tier assignments."""

    def strict(t):
        return {(a, b) for a in t for b in t if t[a] < t[b]}

    s1, s2 = strict(t1), strict(t2)
    if s1 == s2:
        return "equal"
    if s2 < s1:
        return "first-finer"
    if s1 < s2:
        return "second-finer"
    return "incomparable"


# === orientations of chordal components


def components(g: Graph) -> list:
    """Connected components of the undirected part with two or more nodes."""
    seen, out = set(), []
    for v in g.nodes:
        if v in seen or not g.und[v]:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in g.und[x] - seen:
                seen.add(y)
                stack.append(y)
        out.append(comp)
    return out


def _acyclic(nodes, parents) -> bool:
    indeg = {v: len(parents[v]) for v in nodes}
    children = {v: [] for v in nodes}
    for v in nodes:
        for u in parents[v]:
            children[u].append(v)
    stack = [v for v in nodes if indeg[v] == 0]
    done = 0
    while stack:
        v = stack.pop()
        done += 1
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return done == len(nodes)


def orientations(g: Graph, comp) -> list:
    """Parent sets within ``comp`` of every acyclic orientation of its
    undirected edges that adds no v-structure, by backtracking."""
    edges = sorted({tuple(sorted(e)) for e in g.undirected() if set(e) <= set(comp)})
    parents = {v: set() for v in comp}
    out = []

    def rec(k):
        if k == len(edges):
            if _acyclic(comp, parents):
                out.append({v: frozenset(parents[v]) for v in comp})
            return
        for tail, head in (edges[k], edges[k][::-1]):
            if any(not g.adjacent(w, tail) for w in parents[head]):
                continue  # tail -> head <- w would be a new v-structure
            parents[head].add(tail)
            rec(k + 1)
            parents[head].discard(tail)

    rec(0)
    return out


def joint_parent_sets(g: Graph, xs) -> Counter:
    """Multiset of parent-set tuples of ``xs`` over all orientations of
    the chain components that ``xs`` touches."""
    per_component = []
    for comp in components(g):
        hit = [x for x in xs if x in comp]
        if hit:
            per_component.append([{x: o[x] for x in hit} for o in orientations(g, comp)])
    out = Counter()
    for combo in itr.product(*per_component):
        merged = {}
        for part in combo:
            merged.update(part)
        out[tuple(frozenset(g.par[x]) | merged.get(x, frozenset()) for x in xs)] += 1
    return out
