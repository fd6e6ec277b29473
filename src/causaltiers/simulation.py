"""Simulation harness: how much do tiered orderings orient on random graphs?

For each replication a random DAG is drawn, its CPDAG is built from the
independence model (no finite-sample noise), and one tiered pass builds
each tier scheme's maximally oriented graph.  The recorded gain is the
number of newly directed edges divided by the total edge count.

Randomness policy: every replication owns a Philox stream derived from
``(seed, nodes, density, generator, rep)`` via ``SeedSequence`` spawn
keys.  The stream does not depend on the tier scheme, so all schemes
see the same DAG within a replication, and cells can run in any order
or in parallel with bit-identical results.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Sequence

import numpy as np

from .graphs import GraphError, PDAG
from .independence import cpdag_of
from .orientation import _orient_tiered
from .tiers import TieredOrdering

#: expected number of adjacent nodes per density class
DENSITY_NEIGHBOURS = {"sparse": 2.0, "dense": 5.0}

@dataclass(frozen=True)
class TierScheme:
    """Coarsening of the five equal base tiers into scheme tiers."""

    name: str
    base_to_scheme: tuple[int, int, int, int, int]


#: the five schemes compared by the study: full detail, early/late
#: knowledge at two levels of detail
TIER_SCHEMES = {
    s.name: s
    for s in (
        TierScheme("full", (1, 2, 3, 4, 5)),
        TierScheme("early1", (1, 2, 2, 2, 2)),
        TierScheme("early2", (1, 2, 3, 3, 3)),
        TierScheme("late1", (1, 1, 1, 1, 2)),
        TierScheme("late2", (1, 1, 1, 2, 3)),
    )
}


@dataclass(frozen=True)
class SimCell:
    nodes: int
    density: str
    generator: str

    def __post_init__(self):
        if self.nodes < 2:
            raise GraphError("a cell needs at least 2 nodes")
        if self.density not in DENSITY_NEIGHBOURS:
            raise GraphError(f"density must be one of {sorted(DENSITY_NEIGHBOURS)}")
        if self.generator not in GENERATORS:
            raise GraphError(f"generator must be one of {GENERATORS}")


@dataclass(frozen=True)
class SimRecord:
    nodes: int
    density: str
    generator: str
    scheme: str
    rep: int
    n_edges: int
    n_dir_cpdag: int
    n_dir_mpdag: int
    gain_frac: float

    def __post_init__(self):
        if self.n_dir_mpdag < self.n_dir_cpdag:
            raise GraphError("an oriented graph cannot lose directed edges")
        if not 0.0 <= self.gain_frac <= 1.0:
            raise GraphError("gain fraction out of [0, 1]")


CSV_COLUMNS = tuple(f.name for f in fields(SimRecord))


# === random graph generation


#: uniforms per ER draw: a cell of up to 724 nodes makes one draw
_ER_BLOCK = 1 << 18


def _er_skeleton(p: int, degree: float, rng) -> list[tuple[int, int]]:
    """Each pair, in itertools.combinations order, kept with probability
    d/(p-1): one uniform per pair, drawn in blocks of ``_ER_BLOCK``."""
    row = np.arange(p)
    start = row * (2 * p - row - 1) // 2  # flat index of each row's pair (i, i + 1)
    n, q, kept = p * (p - 1) // 2, degree / (p - 1), []
    for lo in range(0, n, _ER_BLOCK):
        kept.append(lo + np.flatnonzero(rng.random(min(_ER_BLOCK, n - lo)) < q))
    pos = np.concatenate(kept)
    i = start.searchsorted(pos, side="right") - 1
    return list(zip(i.tolist(), (pos - start[i] + i + 1).tolist()))


def _power_skeleton(p: int, degree: float, rng) -> list[tuple[int, int]]:
    """Preferential attachment with a fractional edges-per-node budget.

    Node i joins min(i, m + Bernoulli(f)) earlier nodes, picked with
    probability proportional to degree + 1; (m, f) are calibrated so the
    expected mean degree is exactly ``degree``.  A pick is ``rng.choice(i,
    p=w / T)`` for the weights w of the i earlier nodes, those picked at 0,
    and their sum T: the first t with c_t > u, for one uniform u and the
    float cdf c = (w / T).cumsum() / last.  A Fenwick tree of the integer w
    finds the j with S_{j-1} <= x < S_j, for the prefix sums S and x = fl(uT).
    Each c_t is a quotient of sums of at most i rounded terms, rounded once
    more, so |c_t - S_t / T| <= (2i + 3) 2^-53 for i < 2^25; x rounds by at
    most 2^-53 T, and the bounds tested by 2^-52 T.  So where x lies over
    (4i + 16) 2^-53 T from S_{j-1} and S_j, c_{j-1} <= u < c_j, as c is
    nondecreasing; else c decides.  One draw per node holds its picks'
    uniforms, then the next node's Bernoulli.
    """
    target = p * degree / 2.0

    def expected_total(m: int) -> float:  # the sum of min(i, m) over 0 < i < p
        return float(min(m, p) * (2 * p - min(m, p) - 1) // 2)

    m = 0
    while m < p and expected_total(m + 1) <= target:
        m += 1
    lo, hi = expected_total(m), expected_total(m + 1)
    frac = 0.0 if hi <= lo else min(1.0, (target - lo) / (hi - lo))

    weight, size = [1] * p, 1 << p.bit_length()  # weight: degree + 1
    tree = [k & -k for k in range(size)]  # Fenwick tree of weight, padded with ones
    edges, coin = [], rng.random()  # node 1's Bernoulli
    for i in range(1, p):
        k = min(i, m + (coin < frac))
        draws, picks, total = rng.random(k + (i < p - 1)).tolist(), [], i + 2 * len(edges)
        for u in draws[:k]:
            j, rest, step = 0, int(x := u * total), size >> 1
            while step:
                if tree[j + step] <= rest:  # S_j <= x iff S_j <= floor(x)
                    j += step
                    rest -= tree[j]
                step >>= 1
            low, gap = int(x) - rest, (2 * i + 8) * total * 2.0**-52
            if not low + gap < x < low + weight[j] - gap:  # near a tie: the floats decide
                w = np.array(weight[:i], dtype=float)
                w[picks] = 0.0
                cdf = (w / total).cumsum()
                j = int((cdf / cdf[-1]).searchsorted(u, side="right"))
            picks.append(j)
            total, t = total - weight[j], j + 1
            while t < size:  # j leaves the tree until node i is done
                tree[t] -= weight[j]
                t += t & -t
        coin = draws[-1] if draws else 0.0  # the next node's Bernoulli
        for t, d in [(j + 1, weight[j] + 1) for j in picks] + [(i + 1, k)]:
            while t < size:
                tree[t] += d
                t += t & -t
        for j in picks + [i] * k:  # each edge (j, i) adds 1 to both ends
            weight[j] += 1
        edges += [(j, i) for j in picks]
    return edges


def _pair_distance_cdf(r: float) -> float:
    """P(distance <= r) for two uniform points in the unit square, r <= 1."""
    return math.pi * r * r - 8.0 / 3.0 * r**3 + 0.5 * r**4


def _geometric_radius(p: int, degree: float) -> float:
    """Radius giving an exact expected degree on the unit square."""
    target = degree / (p - 1)
    if target >= _pair_distance_cdf(1.0):
        return 1.5  # denser than any unit radius: connect everything
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if _pair_distance_cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _geometric_skeleton(p: int, degree: float, rng) -> list[tuple[int, int]]:
    pts = rng.random((p, 2))
    i, j = np.triu_indices(p, 1)
    keep = np.hypot(*(pts[i] - pts[j]).T) <= _geometric_radius(p, degree)
    return list(zip(i[keep].tolist(), j[keep].tolist()))


_SKELETONS = {
    "er": _er_skeleton,
    "power": _power_skeleton,
    "geometric": _geometric_skeleton,
}
GENERATORS = tuple(_SKELETONS)  # in _replication_rng's spawn key: keep the order


def random_dag(p: int, expected_neighbours: float, generator: str, rng) -> PDAG:
    """Random DAG whose skeleton follows the chosen attachment model.

    Edges are directed along a uniformly random topological order, and
    nodes are labelled ``V0 .. V{p-1}`` in that order, so the label
    order is topological and any ordering built from contiguous label
    blocks is consistent by construction.
    """
    if p < 2:
        raise GraphError("need at least 2 nodes")
    if not 0 <= expected_neighbours < p:
        raise GraphError(f"expected neighbour count {expected_neighbours} must be in [0, {p})")
    if generator not in _SKELETONS:
        raise GraphError(f"generator must be one of {GENERATORS}")
    skeleton = _SKELETONS[generator](p, expected_neighbours, rng)
    rank = rng.permutation(p).argsort().tolist()
    arcs = [(s, t) if (s := rank[a]) < (t := rank[b]) else (t, s) for a, b in skeleton]
    names = [f"V{k}" for k in range(p)]
    return PDAG._from_pairs(names, dict(zip(names, range(p))), arcs, ())


# === tier schemes on generated DAGs


def base_tier_sizes(p: int) -> list[int]:
    """Five contiguous blocks of near-equal size, remainders to the
    earliest tiers."""
    q, r = divmod(p, 5)
    return [q + 1 if t < r else q for t in range(5)]


def scheme_ordering(scheme: TierScheme | str, p: int) -> TieredOrdering:
    """Tiered ordering that ``scheme`` induces on ``V0 .. V{p-1}``."""
    if isinstance(scheme, str):
        scheme = TIER_SCHEMES[scheme]
    assignment = {}
    k = 0
    for base, size in enumerate(base_tier_sizes(p), start=1):
        for _ in range(size):
            assignment[f"V{k}"] = scheme.base_to_scheme[base - 1]
            k += 1
    return TieredOrdering(assignment)


# === running cells


def _replication_rng(seed: int, cell: SimCell, rep: int):
    key = (
        cell.nodes,
        sorted(DENSITY_NEIGHBOURS).index(cell.density),
        GENERATORS.index(cell.generator),
        rep,
    )
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def run_cell(
    cell: SimCell,
    schemes: TierScheme | str | Sequence[TierScheme | str],
    replications: int,
    seed: int = 0,
) -> list[SimRecord]:
    """All records for one cell: ``replications`` DAG draws, one record
    per draw and scheme.  The DAG stream depends only on (seed, cell,
    rep), so every scheme is evaluated on the same DAGs."""
    if isinstance(schemes, (TierScheme, str)):
        schemes = [schemes]
    schemes = [TIER_SCHEMES[s] if isinstance(s, str) else s for s in schemes]
    if replications < 1:
        raise GraphError("replications must be >= 1")
    records = []
    degree = DENSITY_NEIGHBOURS[cell.density]
    orderings = [scheme_ordering(scheme, cell.nodes) for scheme in schemes]
    for rep in range(replications):
        rng = _replication_rng(seed, cell, rep)
        dag = random_dag(cell.nodes, degree, cell.generator, rng)
        cpdag = cpdag_of(dag)
        n_edges = dag.num_edges
        n_dir_c = sum(map(len, cpdag._pa))
        for scheme, (mpdag, _) in zip(schemes, _orient_tiered(cpdag, orderings, (1,))):
            n_dir_g = sum(map(len, mpdag._pa))
            gain = (n_dir_g - n_dir_c) / n_edges if n_edges else 0.0
            records.append(
                SimRecord(
                    nodes=cell.nodes,
                    density=cell.density,
                    generator=cell.generator,
                    scheme=scheme.name,
                    rep=rep,
                    n_edges=n_edges,
                    n_dir_cpdag=n_dir_c,
                    n_dir_mpdag=n_dir_g,
                    gain_frac=gain,
                )
            )
    return records


# === output


def write_csv(records: Sequence[SimRecord], fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(attrgetter(*CSV_COLUMNS), records))


@dataclass(frozen=True)
class SummaryRow:
    nodes: int
    density: str
    generator: str
    scheme: str
    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def summarize(records: Sequence[SimRecord]) -> list[SummaryRow]:
    """Per-cell five-number summaries of the orientation gain.  One
    ``np.quantile`` call per group size, whose rows are bit for bit the
    calls per group."""
    groups: dict[tuple, list[float]] = {}
    for r in records:
        groups.setdefault((r.nodes, r.density, r.generator, r.scheme), []).append(
            r.gain_frac
        )
    by_count: dict[int, list[tuple]] = {}
    for key, values in groups.items():
        by_count.setdefault(len(values), []).append(key)
    quartiles = {}
    for keys in by_count.values():
        q = np.quantile([groups[k] for k in keys], [0.25, 0.5, 0.75], axis=1)
        quartiles.update(zip(keys, q.T.tolist()))
    return [
        SummaryRow(*key, len(v), float(min(v)), *quartiles[key], float(max(v)))
        for key, v in sorted(groups.items(), key=lambda kv: str(kv[0]))
    ]


def emit_results(
    records: Sequence[SimRecord],
    csv_path,
    boxplot_path=None,
) -> list[SummaryRow]:
    """Write the record CSV (and optional boxplot JSON); return summaries.

    Raises
    ------
    GraphError
        If ``records`` is empty.
    """
    if not records:
        raise GraphError("no records to emit")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        write_csv(records, fh)
    summary = summarize(records)
    if boxplot_path is not None:
        rows = [{"nodes": s.nodes, "density": s.density, "generator": s.generator,
                 "scheme": s.scheme, "count": s.count, "whisker_low": s.minimum, "q1": s.q1,
                 "median": s.median, "q3": s.q3, "whisker_high": s.maximum} for s in summary]
        # what json.dump(..., indent=2, sort_keys=True) writes, from the C encoder's
        # values: the indenting encoder is pure Python and leaves reference cycles
        items = ",\n".join("    {\n" + ",\n".join(
            f"      {json.dumps(k)}: {json.dumps(row[k])}" for k in sorted(row)) + "\n    }"
            for row in rows)
        with open(boxplot_path, "w", encoding="utf-8") as fh:
            fh.write(f'{{\n  "gain_frac_boxplots": [\n{items}\n  ]\n}}\n')
    return summary
