"""Benchmark of the causaltiers command line, run in-process.

    python3 perfbench/run.py --workload sim_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Builds the workload's inputs from the seed, times fresh interpreter
starts (``setup_s``), then runs whole passes of the workload's ops
through ``causaltiers.cli.main`` in this process, one at a time, and
checks every output against the benchmark's reference computations.
Every timing is adjusted for host speed (see :mod:`hostspeed`).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics of a traced run.  A run log
with the raw figures goes to ``perfbench/out/``.  ``--workload all`` runs
the four workloads one after another, each in a fresh process, and
prints each one's line prefixed with its name.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: environment every measured interpreter runs under.  Bytecode caches
#: go to a tree inside the checkout, so a warm start reads them as an
#: installed program's start would, and nothing is written outside it.
ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
}
#: removed from that environment, so the bytecode caches get written
UNSET = ["PYTHONDONTWRITEBYTECODE"]

#: nominal seconds of one pass of a workload; a run makes
#: round(--seconds / this) passes, at least one
PASS_SECONDS = 20

#: fresh interpreter starts per run, after one discarded warm-up start
SETUP_STARTS = 7

WORKLOAD_NAMES = ["sim_grid", "orient_large", "compare_band", "ida_band"]

PER_LAYER_SPANS = [
    "cli.main",
    "formats.load_graph",
    "formats.load_tiers",
    "formats.format_graph",
    "graphs.is_chordal",
    "graphs.has_partially_directed_cycle",
    "graphs.chain_components",
    "graphs.find_unshielded_paths",
    "independence.cpdag_of",
    "orientation.tiered_mpdag",
    "orientation.check_consistency",
    "orientation.impose_knowledge",
    "orientation.meek_closure.rule1",
    "orientation.meek_closure.full",
    "orientation.meek_closure.rules123",
    "orientation.meek_closure_trace",
    "orientation.enumerate_class",
    "tiers.forbidden_pairs",
    "tiers.tiers_equivalent",
    "tiers.tiers_more_informative",
    "tiers.cross_tier_report",
    "tiers.compare_refinement",
    "ida.joint_ida",
    "simulation.random_dag",
    "simulation.emit_results",
]
PER_LAYER_COUNTS = [
    "tiers.forbidden_pairs.pairs",
    "graphs.find_unshielded_paths.paths",
    "orientation.enumerate_class.dags",
]


def _measured_env() -> dict:
    env = {**os.environ, **ENV}
    for key in UNSET:
        env.pop(key, None)
    return env


def _reexec_if_needed(argv) -> None:
    """Restart this interpreter (same process) under :data:`ENV`, so hash
    seeds and numeric thread pools are fixed before anything is imported."""
    if _measured_env() == dict(os.environ):
        return
    flags = ["-O"] * sys.flags.optimize
    os.execve(sys.executable, [sys.executable, *flags, str(Path(__file__).resolve()), *argv],
              _measured_env())


def _import_program():
    sys.path.insert(0, str(SRC))
    from causaltiers import cli

    if Path(cli.__file__).resolve().parent != SRC / "causaltiers":
        raise SystemExit(f"causaltiers imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(hostspeed) -> dict:
    """Fresh interpreters importing the CLI: adjusted seconds of each start."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import causaltiers.cli as c; c.build_parser()")
    cmd = [sys.executable] + ["-O"] * sys.flags.optimize + ["-c", code]
    raw, kernel = [], []
    for _ in range(SETUP_STARTS + 1):
        kernel.append(hostspeed.sample())
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, env=_measured_env(), cwd=ROOT)
        raw.append(time.perf_counter() - start)
    adjusted = sorted(hostspeed.adjust(r, statistics.median(kernel)) for r in raw[1:])
    # second-fastest start: a low statistic, robust to one lucky start
    return {"setup_s": adjusted[1], "raw_s": raw, "kernel_s": kernel}


def run_ops(cli, ops, hostspeed, recorder=None) -> list:
    """Run each op once, in order; returns one record per op, with the
    range of its spans when ``recorder`` traces the run."""
    records = []
    gaps = [hostspeed.sample()]
    for op in ops:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        begin = recorder.mark() if recorder else 0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(op.argv, out=out)
        except Exception as exc:  # an op that crashes counts as failed
            rc, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
        raw = time.perf_counter() - start
        spans = (begin, recorder.mark() if recorder else 0)
        gaps.append(hostspeed.sample())
        records.append({"op": op, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "raw_s": raw, "spans": spans})
    # the host's speed during op i: median kernel time over the gaps
    # i-2 .. i+3 around it, which follows phases of a few seconds
    for i, r in enumerate(records):
        r["kernel_s"] = statistics.median(gaps[max(0, i - 2):i + 4])
    return records


def tail_rank(n: int) -> int:
    """Index into sorted latencies of the highest percentile that has at
    least ten samples beyond it (the maximum when there are fewer)."""
    return max(0, n - 11)


def end_to_end(records, setup, peak_mib) -> dict:
    lat = sorted(r["adj_s"] for r in records)
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (lat[tail_rank(len(lat))] * 1e3, "ms"),
        "peak_rss_mib": (peak_mib, "MiB"),
        "setup_s": (setup["setup_s"], "s"),
    }


def per_layer(records, recorder, ops) -> dict:
    n = len(records)
    totals: dict = {}
    for r in records:
        scale = r["adj_s"] / r["raw_s"] if r["raw_s"] else 1.0
        for name, (ms, calls, count) in recorder.summarize(*r["spans"], scale).items():
            t = totals.setdefault(name, [0.0, 0, 0])
            t[0] += ms
            t[1] += calls
            t[2] += count
    out = {}
    for name in PER_LAYER_SPANS:
        ms, calls, _ = totals.get(name, (0.0, 0, 0))
        out[f"{name}.ms"] = (ms / n, "ms")
        out[f"{name}.calls"] = (calls / n, "count")
    for name in PER_LAYER_COUNTS:
        span = name.rsplit(".", 1)[0]
        out[name] = (totals.get(span, (0, 0, 0))[2] / n, "count")
    ms, _, dags = totals.get("orientation.enumerate_class", (0.0, 0, 0))
    out["orientation.enumerate_class.ms_per_dag"] = (ms / dags if dags else 0.0, "ms")
    out["orientation.directed_by_tiers"] = (sum(op.directed_by_tiers for op in ops) / n, "count")
    out["orientation.directed_by_rule1"] = (sum(op.directed_by_rule1 for op in ops) / n, "count")
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    flags = ["-O"] * sys.flags.optimize
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, *flags, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}", flush=True)
        status = status or done.returncode or (0 if lines else 1)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "causaltiers" / "cli.py").is_file():
        sys.stderr.write(f"error: no program source at {SRC / 'causaltiers'}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    _reexec_if_needed(argv)
    sys.path.insert(0, str(HERE))
    import hostspeed
    import tracing
    import workloads

    cli = _import_program()
    passes = max(1, round(args.seconds / PASS_SECONDS))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        started = time.perf_counter()
        ops = workloads.WORKLOADS[args.workload](args.seed, passes, work)
        prepare_s = time.perf_counter() - started
        setup = measure_setup(hostspeed)
        recorder = tracing.install() if args.trace else None
        records = run_ops(cli, ops, hostspeed, recorder)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = []
        for r in records:
            r["adj_s"] = hostspeed.adjust(r["raw_s"], r["kernel_s"])
            if r["rc"] != 0:
                continue
            try:
                problem = r["op"].check(r["op"], r["stdout"], r["stderr"])
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                errors.append(f"op {r['op'].argv}: {problem}")
        failed = sum(r["rc"] != 0 for r in records)
        if recorder:
            metrics = per_layer(records, recorder, ops)
        else:
            metrics = end_to_end(records, setup, peak_mib)
        log = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": passes, "optimize": sys.flags.optimize, "prepare_s": prepare_s,
            "nominal_kernel_s": hostspeed.NOMINAL_S, "setup": setup,
            "tail_rank": tail_rank(len(records)), "errors": errors,
            "failures": [{"argv": r["op"].argv, "rc": r["rc"], "stderr": r["stderr"][-500:]}
                         for r in records if r["rc"] != 0],
            "ops": [{"label": r["op"].label, "rc": r["rc"], "raw_s": r["raw_s"],
                     "kernel_s": r["kernel_s"], "adj_s": r["adj_s"]} for r in records],
            "metrics": metrics,
        }
        if recorder:
            log["spans"] = recorder.spans
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
        (OUT / name).write_text(json.dumps(log))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors[:5]:
        sys.stderr.write(f"check failed: {e}\n")
    for f in log["failures"][:5]:
        sys.stderr.write(f"op failed: {f['argv']} rc={f['rc']} {f['stderr']}\n")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
