import csv
import io
import itertools as itr
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from causaltiers import GraphError, PDAG, SimCell, SimRecord, TieredOrdering, cpdag_of, orientation
from causaltiers.simulation import GENERATORS, write_csv

FIXTURES = Path(__file__).parent / "fixtures"

WAVE_ARCS = [
    ("A", "B"),
    ("A", "C"),
    ("B", "E"),
    ("C", "D"),
    ("C", "F"),
    ("D", "E"),
    ("F", "G"),
]


@pytest.fixture
def wave_dag():
    return PDAG("ABCDEFG", directed=WAVE_ARCS)


@pytest.fixture
def wave_cpdag(wave_dag):
    return cpdag_of(wave_dag)


@pytest.fixture
def wave_mpdag():
    return PDAG(
        "ABCDEFG",
        directed=[
            ("A", "C"),
            ("B", "E"),
            ("C", "D"),
            ("C", "F"),
            ("D", "E"),
            ("F", "G"),
        ],
        undirected=[("A", "B")],
    )


@pytest.fixture
def wave_tau():
    return TieredOrdering.from_tiers([["A", "B"], ["C", "D", "E"], ["F", "G"]])


# === stand-ins for ``orientation._close``, with its call signature


def no_op_close(s, rules, names, oriented):
    """A closure that orients nothing."""
    return []


def cycle_close(s, rules, names, oriented):
    """A closure that orients nodes 0 -> 1 -> 2 -> 0, and fires nothing."""
    for tail, head in ((0, 1), (1, 2), (2, 0)):
        orientation._orient(s, tail, head)
    return []


_close = orientation._close  # the closure itself, for stand-ins that patch over it


def inner_arc_close(s, rules, names, oriented):
    """The closure, then one more arc inside a chain component: the least
    undirected edge i - j (i < j) on a triangle of undirected edges, as i -> j."""
    trace = _close(s, rules, names, oriented)
    ne = s[1]
    edge = min(((i, j) for i, nb in enumerate(ne) for j in nb if i < j and ne[i] & ne[j]),
               default=None)
    if edge is not None:
        orientation._orient(s, *edge)
    return trace


def random_dag_instance(rng, p, degree):
    """ER DAG over labels V0..V{p-1}, arcs pointing label-ascending."""
    q = min(1.0, degree / (p - 1))
    arcs = [
        (f"V{i}", f"V{j}")
        for i in range(p)
        for j in range(i + 1, p)
        if rng.random() < q
    ]
    return PDAG([f"V{k}" for k in range(p)], directed=arcs)


def random_coarsening(rng, p):
    """Random tiered ordering consistent with the label order."""
    n_cuts = int(rng.integers(0, p))
    if p > 1 and n_cuts:
        cuts = sorted(
            int(c) for c in rng.choice(np.arange(1, p), size=min(n_cuts, p - 1), replace=False)
        )
    else:
        cuts = []
    tiers = {}
    tier, ci = 1, 0
    for k in range(p):
        while ci < len(cuts) and k >= cuts[ci]:
            tier += 1
            ci += 1
        tiers[f"V{k}"] = tier
    return TieredOrdering(tiers)


def reordered(g, order):
    """``g`` rebuilt with its nodes inserted in ``order``, each undirected
    edge listed from its later end in that order."""
    pos = {v: k for k, v in enumerate(order)}
    return PDAG(
        order,
        directed=g.directed_edges,
        undirected=[(u, v) if pos[u] > pos[v] else (v, u) for u, v in g.undirected_edges],
    )


def random_cpdag_and_tau(rng, p, degree):
    """A CPDAG plus a consistent tiered ordering, drawn from one DAG so
    the ordering is correct by construction."""
    dag = random_dag_instance(rng, p, degree)
    return cpdag_of(dag), random_coarsening(rng, p), dag


# === simulation configurations and CSV round trips


@dataclass(frozen=True)
class SimConfig:
    node_counts: tuple[int, ...] = (10, 25, 50, 100)
    densities: tuple[str, ...] = ("sparse", "dense")
    generators: tuple[str, ...] = GENERATORS
    replications: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise GraphError("replications must be >= 1")

    def cells(self) -> list[SimCell]:
        return [
            SimCell(n, d, g)
            for n, d, g in itr.product(self.node_counts, self.densities, self.generators)
        ]


def random_chordal(rng, p):
    """A random graph on ``p`` nodes made chordal by elimination fill-in:
    in a random order, each node's later neighbours become a clique."""
    names = [f"V{k}" for k in range(p)]
    density = rng.uniform(0.1, 0.7)
    adj = [set() for _ in names]
    for a, b in itr.combinations(range(p), 2):
        if rng.random() < density:
            adj[a].add(b)
            adj[b].add(a)
    left = set(range(p))
    for v in map(int, rng.permutation(p)):
        left.discard(v)
        for a, b in itr.combinations(sorted(adj[v] & left), 2):
            adj[a].add(b)
            adj[b].add(a)
    return PDAG(names, undirected=[
        (names[a], names[b]) for a in range(p) for b in adj[a] if a < b
    ])


def read_csv(fileobj) -> list[SimRecord]:
    reader = csv.DictReader(fileobj)
    out = []
    for row in reader:
        out.append(
            SimRecord(
                nodes=int(row["nodes"]),
                density=row["density"],
                generator=row["generator"],
                scheme=row["scheme"],
                rep=int(row["rep"]),
                n_edges=int(row["n_edges"]),
                n_dir_cpdag=int(row["n_dir_cpdag"]),
                n_dir_mpdag=int(row["n_dir_mpdag"]),
                gain_frac=float(row["gain_frac"]),
            )
        )
    return out


def records_to_csv_bytes(records) -> bytes:
    buf = io.StringIO()
    write_csv(records, buf)
    return buf.getvalue().encode()
