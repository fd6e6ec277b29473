"""Text formats for graphs and tier files.

Graph files: a ``nodes:`` header followed by one edge per line, either
``A -> B`` or ``A -- B``; ``#`` starts a comment.  Tier files: lines of
the form ``tier 1: A B``.  Both formats round-trip byte-exactly through
the writers here.
"""

from __future__ import annotations

from .graphs import GraphError, PDAG
from .tiers import TieredOrdering


def parse_graph(text: str) -> PDAG:
    nodes: list[str] | None = None
    directed = []
    undirected = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if nodes is None:
            if not line.startswith("nodes:"):
                raise GraphError(f"line {lineno}: expected a 'nodes:' header")
            nodes = line[len("nodes:") :].split()
            known = set(nodes)
            if len(known) != len(nodes):
                raise GraphError(f"line {lineno}: duplicate node label")
            continue
        for mark, bucket in ((" -> ", directed), (" -- ", undirected)):
            if mark in line:
                left, right = line.split(mark, 1)
                u, v = left.strip(), right.strip()
                for w in (u, v):
                    if w not in known:
                        raise GraphError(f"line {lineno}: unknown node {w!r}")
                bucket.append((u, v))
                break
        else:
            raise GraphError(f"line {lineno}: cannot parse edge {line!r}")
    if nodes is None:
        raise GraphError("missing 'nodes:' header")
    return PDAG(nodes, directed=directed, undirected=undirected)


def format_graph(g: PDAG) -> str:
    lines = ["nodes: " + " ".join(str(v) for v in g.nodes)]
    edges = [(g.index_of(u), g.index_of(v), f"{u} -> {v}") for u, v in g.directed_edges]
    edges += [
        (g.index_of(u), g.index_of(v), f"{u} -- {v}") for u, v in g.undirected_edges
    ]
    lines.extend(text for _, _, text in sorted(edges))
    return "\n".join(lines) + "\n"


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise GraphError(f"{path}: not UTF-8 text") from None


def load_graph(path) -> PDAG:
    return parse_graph(_read_text(path))


def parse_tiers(text: str) -> TieredOrdering:
    assignment: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("tier "):
            raise GraphError(f"line {lineno}: expected 'tier <k>: ...'")
        head, _, members = line.partition(":")
        try:
            tier = int(head[len("tier ") :].strip())
        except ValueError:
            raise GraphError(f"line {lineno}: bad tier index in {head!r}") from None
        for v in members.split():
            if v in assignment:
                raise GraphError(f"line {lineno}: node {v!r} already has a tier")
            assignment[v] = tier
    if not assignment:
        raise GraphError("tier file assigns no nodes")
    return TieredOrdering(assignment)


def format_tiers(ordering: TieredOrdering) -> str:
    lines = [
        f"tier {t}: " + " ".join(str(v) for v in group)
        for t, group in ordering.tier_groups()
    ]
    return "\n".join(lines) + "\n"


def load_tiers(path) -> TieredOrdering:
    return parse_tiers(_read_text(path))
