"""Text formats for graphs and tier files.

Graph files: a ``nodes:`` header followed by one edge per line, either
``A -> B`` or ``A -- B``; ``#`` starts a comment.  Tier files: lines of
the form ``tier 1: A B``.  Both formats round-trip byte-exactly through
the writers here; they refuse a label that is empty, contains whitespace
or ``#`` or repeats another label's text, which would not read back.  The
labels of a parsed graph passed these checks when read: the graph and
its orientations carry their header text, which the writer reuses.
"""

from __future__ import annotations

import re

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
            index = {v: i for i, v in enumerate(nodes)}
            if len(index) != len(nodes):
                raise GraphError(f"line {lineno}: duplicate node label")
            continue
        left, mark, right = line.partition(" -> ")
        if not mark:
            left, mark, right = line.partition(" -- ")
            if not mark:
                raise GraphError(f"line {lineno}: cannot parse edge {line!r}")
        u, v = left.strip(), right.strip()
        i, j = index.get(u), index.get(v)
        if i is None or j is None:
            raise GraphError(f"line {lineno}: unknown node {u if i is None else v!r}")
        (directed if mark == " -> " else undirected).append((i, j))
    if nodes is None:
        raise GraphError("missing 'nodes:' header")
    return PDAG._from_pairs(nodes, index, directed, undirected, " ".join(nodes))


def _labels(nodes) -> str:
    """The labels of ``nodes`` joined by spaces, checked to read back as
    the same labels: distinct, none empty or with whitespace or ``#``."""
    labels = list(map(str, nodes))
    joined = " ".join(labels)
    if "#" in joined or joined.split() != labels:
        bad = next(v for v in labels if "#" in v or v.split() != [v])
        raise GraphError(f"label {bad!r} is empty or contains whitespace or '#'")
    if len(set(labels)) != len(labels):
        bad = next(v for k, v in enumerate(labels) if v in labels[:k])
        raise GraphError(f"two labels read back as {bad!r}")
    return joined


def format_graph(g: PDAG) -> str:
    names = g.nodes
    lines = ["nodes: " + (g._header or _labels(names))]
    rows = [(i, j, f"{names[i]} -> {names[j]}") for i, ch in enumerate(g._ch) for j in ch]
    rows += [
        (i, j, f"{names[i]} -- {names[j]}") for i, ne in enumerate(g._ne) for j in ne if i < j
    ]
    lines.extend(text for _, _, text in sorted(rows))
    return "\n".join(lines) + "\n"


def _read_text(path) -> str:
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
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
        index = head[len("tier ") :].strip()
        if not re.fullmatch(r"[+-]?[0-9]+", index):  # int() reads "1_0" and non-ASCII digits too
            raise GraphError(f"line {lineno}: bad tier index in {head!r}")
        tier = int(index)
        for v in members.split():
            if v in assignment:
                raise GraphError(f"line {lineno}: node {v!r} already has a tier")
            assignment[v] = tier
    if not assignment:
        raise GraphError("tier file assigns no nodes")
    return TieredOrdering(assignment)


def format_tiers(ordering: TieredOrdering) -> str:
    groups = ordering.tier_groups()
    _labels(v for _, group in groups for v in group)
    lines = [f"tier {t}: " + " ".join(map(str, group)) for t, group in groups]
    return "\n".join(lines) + "\n"


def load_tiers(path) -> TieredOrdering:
    return parse_tiers(_read_text(path))
