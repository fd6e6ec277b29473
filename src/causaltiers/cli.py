"""Command-line interface.

Exit codes: 0 on success, 1 on a domain error (inconsistent knowledge,
bad graph structure, unparsable files), 2 on a usage error (bad flags,
missing files, paths that cannot be read or written).  Every subcommand
accepts ``--json`` for machine consumption; the schemas are documented
in the README.
"""

from __future__ import annotations

import argparse
import json
import sys

from .formats import format_graph, load_graph, load_tiers
from .graphs import DEFAULT_PATH_NODE_LIMIT, GraphError, PDAG
from .ida import joint_ida, local_ida
from .independence import is_d_separated
from .orientation import _require_no_new_v_structures, impose_tiers, meek_closure_trace
from .paths import (
    BPathVerdict,
    PathVerdict,
    classify_b_possibly_causal,
    classify_possibly_causal,
)
from .simulation import (
    SimCell,
    TIER_SCHEMES,
    emit_results,
    run_cell,
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


def _node_list(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",") if part.strip()]
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
    p.add_argument("--c", type=_node_list, default=[])
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify-path", help="possibly-causal verdicts for one path")
    p.add_argument("graph")
    p.add_argument("--path", required=True, type=_node_list)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ida", help="candidate parent sets (local or joint)")
    p.add_argument("graph")
    p.add_argument("--x", help="node for local enumeration")
    p.add_argument("--joint", type=_node_list, help="node set for joint enumeration")
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


def _cmd_validate(args, out) -> int:
    g = load_graph(args.graph)
    nd, nu = len(g.directed_edges), len(g.undirected_edges)
    if args.json:
        json.dump({"ok": True, **_graph_payload(g)}, out)
        out.write("\n")
    else:
        out.write(
            f"ok: {g.num_nodes} nodes, {nd + nu} edges "
            f"({nd} directed, {nu} undirected)\n"
        )
    return 0


def _cmd_orient(args, out) -> int:
    g = load_graph(args.graph)
    ordering = load_tiers(args.tiers)
    rules = (1,) if args.rules == "1" else (1, 2, 3, 4)
    result, trace = meek_closure_trace(impose_tiers(g, ordering), rules)
    _require_no_new_v_structures(g, result)
    if args.trace:
        for rule, (u, v) in trace:
            sys.stderr.write(f"rule{rule}: {u}->{v}\n")
    text = format_graph(result)
    if args.json:
        payload = {
            "graph": _graph_payload(result),
            "trace": [[rule, str(u), str(v)] for rule, (u, v) in trace],
        }
        json.dump(payload, out)
        out.write("\n")
    elif args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


_INFORMATIVENESS_TEXT = {
    Informativeness.MORE_INFORMATIVE: "first-more-informative",
    Informativeness.EQUIVALENT: "equivalent",
    Informativeness.LESS_INFORMATIVE: "second-more-informative",
    Informativeness.INCOMPARABLE: "incomparable",
}


def _cmd_compare_tiers(args, out) -> int:
    g = load_graph(args.graph)
    t1 = load_tiers(args.tiers1)
    t2 = load_tiers(args.tiers2)
    refinement = compare_refinement(t1, t2)
    equiv, info = _compare(g, t1, t2, DEFAULT_PATH_NODE_LIMIT)
    if args.json:
        payload = {
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
        }
        json.dump(payload, out)
        out.write("\n")
        return 0
    out.write(f"equivalence: {'equivalent' if equiv.equivalent else 'different'}\n")
    if equiv.witness is not None:
        out.write(f"witness: {equiv.witness[0]}->{equiv.witness[1]}\n")
    out.write(
        "earliest-path first edges: "
        f"{'agree' if equiv.first_edges_agree else 'disagree'}\n"
    )
    out.write(
        "fully-shielded cross-tier edges: "
        f"{'agree' if equiv.shielded_agree else 'disagree'}\n"
    )
    out.write(f"informativeness: {_INFORMATIVENESS_TEXT[info.verdict]}\n")
    out.write(f"refinement: {refinement.verdict.value}\n")
    return 0


def _cmd_dsep(args, out) -> int:
    g = load_graph(args.graph)
    separated = is_d_separated(g, args.a, args.b, args.c)
    if args.json:
        json.dump({"separated": separated}, out)
        out.write("\n")
    else:
        out.write("separated\n" if separated else "connected\n")
    return 0


def _cmd_classify_path(args, out) -> int:
    g = load_graph(args.graph)
    plain = classify_possibly_causal(g, args.path)
    strict = classify_b_possibly_causal(g, args.path)
    if args.json:
        json.dump(
            {
                "possibly_causal": plain is PathVerdict.POSSIBLY_CAUSAL,
                "b_possibly_causal": strict is BPathVerdict.B_POSSIBLY_CAUSAL,
            },
            out,
        )
        out.write("\n")
    else:
        out.write(
            f"possibly-causal: {'yes' if plain is PathVerdict.POSSIBLY_CAUSAL else 'no'}\n"
        )
        out.write(
            "b-possibly-causal: "
            f"{'yes' if strict is BPathVerdict.B_POSSIBLY_CAUSAL else 'no'}\n"
        )
    return 0


def _format_set(nodes) -> str:
    return "{" + ",".join(sorted(map(str, nodes))) + "}"


def _cmd_ida(args, out) -> int:
    g = load_graph(args.graph)
    if args.joint:
        result = joint_ida(g, args.joint)
        rows = [
            (
                tuple((len(s), sorted(map(str, s))) for s in entry),
                "(" + ", ".join(_format_set(s) for s in entry) + ")",
                mult,
            )
            for entry, mult in result
        ]
        key = "joint_parent_sets"
    elif args.x:
        result = local_ida(g, args.x)
        rows = [
            ((len(entry), sorted(map(str, entry))), _format_set(entry), mult)
            for entry, mult in result
        ]
        key = "parent_sets"
    else:
        raise UsageError("one of --x or --joint is required")
    rows = [(text, mult) for _, text, mult in sorted(rows)]
    if args.json:
        json.dump({key: [{"sets": text, "multiplicity": m} for text, m in rows]}, out)
        out.write("\n")
    else:
        for text, mult in rows:
            out.write(f"{text} x{mult}\n")
    return 0


def _cmd_simulate(args, out) -> int:
    cell = SimCell(nodes=args.nodes, density=args.density, generator=args.generator)
    records = run_cell(cell, tuple(TIER_SCHEMES), args.reps, seed=args.seed)
    summary = emit_results(records, args.out, boxplot_path=args.boxplot)
    if args.json:
        payload = [
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
        ]
        json.dump({"cells": payload}, out)
        out.write("\n")
        return 0
    out.write("scheme count min q1 median q3 max\n")
    for s in summary:
        out.write(
            f"{s.scheme} {s.count} {s.minimum:.6f} {s.q1:.6f} "
            f"{s.median:.6f} {s.q3:.6f} {s.maximum:.6f}\n"
        )
    return 0


class UsageError(Exception):
    pass


_COMMANDS = {
    "validate": _cmd_validate,
    "orient": _cmd_orient,
    "compare-tiers": _cmd_compare_tiers,
    "dsep": _cmd_dsep,
    "classify-path": _cmd_classify_path,
    "ida": _cmd_ida,
    "simulate": _cmd_simulate,
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, out)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: no such file: {exc.filename}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc.strerror}: {exc.filename}\n")
        return 2
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except GraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
