"""Command-line interface.

Exit codes: 0 on success, 1 on a domain error (inconsistent knowledge,
bad graph structure, unparsable files), 2 on a usage error (bad flags,
missing files, paths that cannot be read or written, output that stdout
cannot encode).  Files are written as UTF-8.  Every subcommand
accepts ``--json`` for machine consumption; the schemas are documented
in the README.  Each ``_cmd_*`` handler returns the text its subcommand
prints, and :func:`main` writes it in one call, so a failed run prints
nothing to stdout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

from .formats import format_graph, load_graph, load_tiers
from .graphs import GraphError, PDAG
from .ida import _format_entry, joint_ida, local_ida
from .independence import is_d_separated
from .orientation import _orient_tiered
from .paths import (
    BPathVerdict,
    PathVerdict,
    classify_b_possibly_causal,
    classify_possibly_causal,
)
from .tiers import Informativeness, _compare, compare_refinement


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _node(text: str) -> str:
    """A node name decoded as graph files are, as UTF-8, if its bytes are UTF-8."""
    try:
        return os.fsencode(text).decode("utf-8")
    except UnicodeError:
        return text


def _node_list(text: str) -> list[str]:
    items = [_node(part.strip()) for part in text.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated node list")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causaltiers",
        description="Causal graph orientation under tiered background knowledge",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a graph file and check invariants")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("orient", help="impose a tiered ordering and close under Meek rules")
    p.add_argument("graph", help="CPDAG in graph text format")
    p.add_argument("--tiers", required=True, help="tiers file")
    p.add_argument("--rules", choices=["1", "all"], default="1")
    p.add_argument("--trace", action="store_true", help="log fired rules to stderr")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("compare-tiers", help="equivalence and informativeness of two orderings")
    p.add_argument("graph", help="CPDAG in graph text format")
    p.add_argument("tiers1")
    p.add_argument("tiers2")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("dsep", help="d-separation query on a DAG")
    p.add_argument("graph")
    p.add_argument("--a", required=True, type=_node_list)
    p.add_argument("--b", required=True, type=_node_list)
    p.add_argument("--c", type=_node_list, default=())
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify-path", help="possibly-causal verdicts for one path")
    p.add_argument("graph")
    p.add_argument("--path", required=True, type=_node_list)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ida", help="candidate parent sets (local or joint)")
    p.add_argument("graph")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--x", type=_node, help="node for local enumeration")
    target.add_argument("--joint", type=_node_list, help="node set for joint enumeration")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simulate", help="orientation-gain experiment on random DAGs")
    p.add_argument("--nodes", type=_positive_int, required=True)
    p.add_argument("--density", choices=["sparse", "dense"], required=True)
    p.add_argument("--generator", choices=["er", "power", "geometric"], required=True)
    p.add_argument("--reps", type=_positive_int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--boxplot", help="optional boxplot-data JSON path")
    p.add_argument("--json", action="store_true")
    return parser


def _graph_payload(g: PDAG) -> dict:
    return {
        "nodes": [str(v) for v in g.nodes],
        "directed": [[str(u), str(v)] for u, v in g.directed_edges],
        "undirected": [[str(u), str(v)] for u, v in g.undirected_edges],
    }


def _json(payload) -> str:
    """A ``--json`` document: one line."""
    return json.dumps(payload) + "\n"


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _cmd_validate(args) -> str:
    g = load_graph(args.graph)
    if args.json:
        return _json({"ok": True, **_graph_payload(g)})
    nd, nu = len(g.directed_edges), len(g.undirected_edges)
    return f"ok: {g.num_nodes} nodes, {nd + nu} edges ({nd} directed, {nu} undirected)\n"


def _cmd_orient(args) -> str:
    g = load_graph(args.graph)
    ordering = load_tiers(args.tiers)
    rules = (1,) if args.rules == "1" else (1, 2, 3, 4)
    result, trace = _orient_tiered(g, (ordering,), rules)[0]
    if args.trace:
        sys.stderr.write(_lines(f"rule{rule}: {u}->{v}" for rule, (u, v) in trace))
    if args.json:
        text = _json({
            "graph": _graph_payload(result),
            "trace": [[rule, str(u), str(v)] for rule, (u, v) in trace],
        })
    else:
        text = format_graph(result)
    if not args.out:
        return text
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return ""


_INFORMATIVENESS_TEXT = {
    Informativeness.MORE_INFORMATIVE: "first-more-informative",
    Informativeness.EQUIVALENT: "equivalent",
    Informativeness.LESS_INFORMATIVE: "second-more-informative",
    Informativeness.INCOMPARABLE: "incomparable",
}


def _cmd_compare_tiers(args) -> str:
    g = load_graph(args.graph)
    t1 = load_tiers(args.tiers1)
    t2 = load_tiers(args.tiers2)
    refinement = compare_refinement(t1, t2)
    equiv, info = _compare(g, t1, t2)
    if args.json:
        return _json({
            "equivalent": equiv.equivalent,
            "witness": None if equiv.witness is None else list(map(str, equiv.witness)),
            "earliest_path_first_edges_agree": equiv.first_edges_agree,
            "fully_shielded_cross_tier_agree": equiv.shielded_agree,
            "informativeness": _INFORMATIVENESS_TEXT[info.verdict],
            "sufficient_conditions": {
                "i": info.condition_i,
                "ii": info.condition_ii,
                "iii": info.condition_iii,
                "iv": info.condition_iv,
            },
            "refinement": refinement.verdict.value,
        })
    witness = [] if equiv.witness is None else [f"witness: {equiv.witness[0]}->{equiv.witness[1]}"]
    return _lines([
        f"equivalence: {'equivalent' if equiv.equivalent else 'different'}",
        *witness,
        f"earliest-path first edges: {'agree' if equiv.first_edges_agree else 'disagree'}",
        f"fully-shielded cross-tier edges: {'agree' if equiv.shielded_agree else 'disagree'}",
        f"informativeness: {_INFORMATIVENESS_TEXT[info.verdict]}",
        f"refinement: {refinement.verdict.value}",
    ])


def _cmd_dsep(args) -> str:
    separated = is_d_separated(load_graph(args.graph), args.a, args.b, args.c)
    if args.json:
        return _json({"separated": separated})
    return "separated\n" if separated else "connected\n"


def _cmd_classify_path(args) -> str:
    g = load_graph(args.graph)
    plain = classify_possibly_causal(g, args.path) is PathVerdict.POSSIBLY_CAUSAL
    strict = classify_b_possibly_causal(g, args.path) is BPathVerdict.B_POSSIBLY_CAUSAL
    if args.json:
        return _json({"possibly_causal": plain, "b_possibly_causal": strict})
    return (
        f"possibly-causal: {'yes' if plain else 'no'}\n"
        f"b-possibly-causal: {'yes' if strict else 'no'}\n"
    )


def _entry_key(entry):
    """Sort key of a parent set (by size, then names) or of a tuple of them."""
    if isinstance(entry, frozenset):
        return len(entry), sorted(map(str, entry))
    return tuple(map(_entry_key, entry))


def _cmd_ida(args) -> str:
    g = load_graph(args.graph)
    if args.joint:
        result, key = joint_ida(g, args.joint), "joint_parent_sets"
    else:
        result, key = local_ida(g, args.x), "parent_sets"
    rows = [(_format_entry(e), m) for e, m in sorted(result, key=lambda row: _entry_key(row[0]))]
    if args.json:
        return _json({key: [{"sets": text, "multiplicity": m} for text, m in rows]})
    return _lines(f"{text} x{m}" for text, m in rows)


def _cmd_simulate(args) -> str:
    from .simulation import SimCell, TIER_SCHEMES, emit_results, run_cell  # imports numpy
    cell = SimCell(nodes=args.nodes, density=args.density, generator=args.generator)
    records = run_cell(cell, tuple(TIER_SCHEMES), args.reps, seed=args.seed)
    summary = emit_results(records, args.out, boxplot_path=args.boxplot)
    if args.json:
        return _json({"cells": [
            {
                "scheme": s.scheme,
                "count": s.count,
                "min": s.minimum,
                "q1": s.q1,
                "median": s.median,
                "q3": s.q3,
                "max": s.maximum,
            }
            for s in summary
        ]})
    return _lines([
        "scheme count min q1 median q3 max",
        *(
            f"{s.scheme} {s.count} {s.minimum:.6f} {s.q1:.6f} "
            f"{s.median:.6f} {s.q3:.6f} {s.maximum:.6f}"
            for s in summary
        ),
    ])


_COMMANDS = {
    "validate": _cmd_validate,
    "orient": _cmd_orient,
    "compare-tiers": _cmd_compare_tiers,
    "dsep": _cmd_dsep,
    "classify-path": _cmd_classify_path,
    "ida": _cmd_ida,
    "simulate": _cmd_simulate,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a command builds only acyclic containers, so collections would find
    # nothing (parsing, whose error paths make cycles, runs before the pause)
    enabled = gc.isenabled()
    gc.disable()
    try:
        out.write(_COMMANDS[args.command](args))
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: no such file: {exc.filename}\n")
        return 2
    except OSError as exc:
        where = "" if exc.filename is None else f": {exc.filename}"
        sys.stderr.write(f"error: {exc.strerror}{where}\n")
        return 2
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start:exc.end]
        sys.stderr.write(f"error: stdout's encoding {exc.encoding} cannot write {bad!r}"
                         " (set PYTHONIOENCODING=utf-8)\n")
        return 2
    except GraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        if enabled:
            gc.enable()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
