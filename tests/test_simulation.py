import io
import itertools as itr
import json
import time
from collections import defaultdict
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from causaltiers import (
    GraphError,
    TIER_SCHEMES,
    check_consistency,
    cpdag_of,
)
from causaltiers.simulation import (
    DENSITY_NEIGHBOURS,
    SimCell,
    SimRecord,
    TierScheme,
    _SKELETONS,
    _er_skeleton,
    _geometric_skeleton,
    _power_skeleton,
    base_tier_sizes,
    emit_results,
    random_dag,
    run_cell,
    scheme_ordering,
    summarize,
    write_csv,
)

from conftest import SimConfig, read_csv, records_to_csv_bytes
from oracles import (
    er_skeleton_combinations,
    er_skeleton_one_draw,
    geometric_skeleton_per_pair,
    power_skeleton_by_choice,
    power_skeleton_spelled_out,
    quantile_sorted,
)


class ReplayRng:
    """Hands out the given uniforms in order, as ``Generator.random`` would."""

    def __init__(self, uniforms):
        self.left = list(uniforms)

    def random(self, size=None):
        if size is None:
            return self.left.pop(0)
        out, self.left = np.array(self.left[:size]), self.left[size:]
        assert out.size == size
        return out


class TestRandomDag:
    @pytest.mark.parametrize("generator", ["er", "power", "geometric"])
    def test_mean_degree_calibration(self, generator):
        rng = np.random.default_rng(5)
        degrees = [
            2 * random_dag(10, 2.0, generator, rng).num_edges / 10
            for _ in range(1000)
        ]
        assert abs(float(np.mean(degrees)) - 2.0) <= 0.2

    def test_two_nodes(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = random_dag(2, 1.0, "er", rng)
            assert d.num_edges <= 1

    def test_tier_consistency_by_construction(self):
        rng = np.random.default_rng(2)
        for generator in ("er", "power", "geometric"):
            for _ in range(20):
                d = random_dag(12, 3.0, generator, rng)
                c = cpdag_of(d)
                for scheme in TIER_SCHEMES.values():
                    tau = scheme_ordering(scheme, 12)
                    assert check_consistency(c, tau) == []

    @pytest.mark.parametrize(
        "fast, oracle",
        [
            (_er_skeleton, er_skeleton_combinations),
            (_power_skeleton, power_skeleton_spelled_out),
            (_geometric_skeleton, geometric_skeleton_per_pair),
        ],
        ids=["er", "power", "geometric"],
    )
    def test_skeletons_match_per_pair_loops(self, fast, oracle):
        """Same edges from the same stream, and the stream left in the same state."""
        for p in range(2, 121):
            for seed, degree in zip((p, 1000 + p), sorted(DENSITY_NEIGHBOURS.values())):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert fast(p, degree, rng) == oracle(p, degree, ref), (p, seed)
                assert rng.random() == ref.random()

    def test_power_matches_choice_per_pick(self):
        """Same edges and the same next draw as one ``rng.choice`` per pick,
        on 2,000 (p, degree, seed) cases: most small, where ``min(i, m + 1)``
        caps the picks, and a log-uniform tail up to p = 400."""
        draw = np.random.default_rng(2024)
        for case in range(2000):
            small = case < 1960
            p = int(draw.integers(2, 13) if small else np.exp(draw.uniform(2.8, 6.0)))
            degree = float(draw.uniform(0.0, min(p - 1, 9.5)))
            rng, ref = np.random.default_rng(case), np.random.default_rng(case)
            edges = _power_skeleton(p, degree, rng)
            assert edges == power_skeleton_by_choice(p, degree, ref), (p, degree, case)
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("degree", [*DENSITY_NEIGHBOURS.values(), 9.5])
    def test_power_matches_the_float_cdf_at_3200_nodes(self, degree):
        """Same edges and the same next draw as the float cdf per pick, where
        the cdf sums over 3,200 terms and the near-tie margin is widest."""
        rng, ref = np.random.default_rng(3200), np.random.default_rng(3200)
        assert _power_skeleton(3200, degree, rng) == power_skeleton_spelled_out(3200, degree, ref)
        assert rng.random() == ref.random()

    def test_power_near_ties_follow_the_float_cdf(self):
        """Draws on a boundary S_j / T of a pick's cdf and up to 3 floats either
        side, with the node's earlier picks at weight 0: the picks are those of
        numpy's searchsorted on the float cdf.  Where that differs from the
        pick of the exact prefix sums, only the float fallback gets it right."""
        p, m = 64, 3
        degree = 2 * (m * (m - 1) // 2 + m * (p - m)) / p  # exact: m picks, f = 0
        draw = np.random.default_rng(17)
        weight, stream, expected, exact_differs = np.ones(p), [], [], 0
        for i in range(1, p):
            stream.append(0.5)  # node i's Bernoulli, never below f = 0
            w = weight[:i].copy()
            for _ in range(min(i, m)):
                total = w.sum()
                cdf = (w / total).cumsum()
                cdf /= cdf[-1]
                prefix = w.cumsum()
                t = int(draw.choice(np.flatnonzero(w)))
                u, toward = float(prefix[t] / total), float(draw.integers(2))
                for _ in range(int(draw.integers(4))):  # up to 3 floats down or up
                    u = float(np.nextafter(u, toward))
                u = min(u, float(np.nextafter(1.0, 0.0)))
                j = int(cdf.searchsorted(u, side="right"))
                x = Fraction(u) * int(total)
                exact_differs += j != next(s for s in range(i) if prefix[s] > x)
                stream.append(u)
                expected.append((j, i))
                w[j] = 0.0
            weight[[j for j, _ in expected[-min(i, m):]]] += 1.0
            weight[i] += min(i, m)
        for skeleton in (_power_skeleton, power_skeleton_spelled_out):
            replay = ReplayRng(stream)
            assert skeleton(p, degree, replay) == expected
            assert replay.left == []
        assert exact_differs > 5, exact_differs

    def test_power_at_12800_nodes_is_fast(self):
        """O(log p) per pick: about 0.2 s on a shared 2-core Xeon, where the
        float cdf per pick took 1.5 s."""
        start = time.perf_counter()
        _power_skeleton(12800, 5.0, np.random.default_rng(0))
        assert time.perf_counter() - start < 1.0

    def test_er_blocks_match_one_draw(self):
        """Same edges and the same next draw as all pairs' uniforms in one
        draw, across block boundaries (p = 3200 takes 20 blocks)."""
        for p in (2, 3, 100, 500, 3200):
            for degree in (0.7, *DENSITY_NEIGHBOURS.values(), min(p - 1, 9.5)):
                if degree >= p:
                    continue
                for seed in range(3 if p < 3200 else 1):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert _er_skeleton(p, degree, rng) == er_skeleton_one_draw(p, degree, ref)
                    assert rng.random() == ref.random()

    def test_invalid_parameters(self):
        rng = np.random.default_rng(3)
        with pytest.raises(GraphError):
            random_dag(1, 0.5, "er", rng)
        with pytest.raises(GraphError):
            random_dag(5, 5.0, "er", rng)
        with pytest.raises(GraphError):
            random_dag(5, 2.0, "uniform", rng)


class TestSchemes:
    def test_scheme_definitions(self):
        assert TIER_SCHEMES["full"].base_to_scheme == (1, 2, 3, 4, 5)
        assert TIER_SCHEMES["early1"].base_to_scheme == (1, 2, 2, 2, 2)
        assert TIER_SCHEMES["early2"].base_to_scheme == (1, 2, 3, 3, 3)
        assert TIER_SCHEMES["late1"].base_to_scheme == (1, 1, 1, 1, 2)
        assert TIER_SCHEMES["late2"].base_to_scheme == (1, 1, 1, 2, 3)

    def test_early_schemes_isolate_the_earliest_tier(self):
        # the simple-early ordering can distinguish the first base tier;
        # relabellings that would put it last are not orderings at all
        tau = scheme_ordering("early1", 10)
        first_block = [f"V{k}" for k in range(2)]
        assert {tau.tier_of(v) for v in first_block} == {1}
        assert {tau.tier_of(f"V{k}") for k in range(2, 10)} == {2}

    def test_base_tier_sizes_remainders_to_earliest(self):
        assert base_tier_sizes(25) == [5, 5, 5, 5, 5]
        assert base_tier_sizes(12) == [3, 3, 2, 2, 2]
        assert base_tier_sizes(7) == [2, 2, 1, 1, 1]

    def test_full_is_finer_than_all_other_schemes(self):
        from causaltiers import Refinement, compare_refinement

        full = scheme_ordering("full", 15)
        for name in ("early1", "early2", "late1", "late2"):
            cmp = compare_refinement(full, scheme_ordering(name, 15))
            assert cmp.verdict is Refinement.FIRST_FINER


class TestRunCell:
    def test_record_invariants(self):
        records = run_cell(SimCell(10, "sparse", "er"), tuple(TIER_SCHEMES), 25, seed=11)
        assert len(records) == 25 * 5
        for r in records:
            assert 0.0 <= r.gain_frac <= 1.0
            assert r.n_dir_mpdag >= r.n_dir_cpdag

    def test_full_dominates_per_replication(self):
        records = run_cell(SimCell(10, "sparse", "power"), tuple(TIER_SCHEMES), 30, seed=13)
        by_rep = defaultdict(dict)
        for r in records:
            by_rep[r.rep][r.scheme] = r.gain_frac
        for gains in by_rep.values():
            assert all(gains["full"] >= g for g in gains.values())

    def test_refinement_chains_dominate_per_replication(self):
        # full refines early2 refines early1; full refines late2 refines late1
        records = run_cell(SimCell(12, "dense", "er"), tuple(TIER_SCHEMES), 30, seed=15)
        by_rep = defaultdict(dict)
        for r in records:
            by_rep[r.rep][r.scheme] = r.gain_frac
        for gains in by_rep.values():
            assert gains["full"] >= gains["early2"] >= gains["early1"]
            assert gains["full"] >= gains["late2"] >= gains["late1"]

    def test_degenerate_single_tier_scheme(self):
        flat = TierScheme("flat", (1, 1, 1, 1, 1))
        records = run_cell(SimCell(10, "sparse", "er"), flat, 10, seed=17)
        assert all(r.gain_frac == 0.0 for r in records)

    def test_same_dag_stream_across_schemes(self):
        cell = SimCell(8, "dense", "geometric")
        full_only = run_cell(cell, "full", 10, seed=19)
        both = run_cell(cell, ("early1", "full"), 10, seed=19)
        full_again = [r for r in both if r.scheme == "full"]
        assert full_only == full_again

    @pytest.mark.parametrize("generator", ["er", "power", "geometric"])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_tiny_cells(self, generator, p, monkeypatch):
        """Every degree the ``random_dag`` guard allows, fractional ones
        and p - 1 included: for power, ``min(i, m + 1)`` caps the picks."""
        for degree in (0.0, 0.5, p / 2, p - 1, p - 0.25):
            monkeypatch.setitem(DENSITY_NEIGHBOURS, "sparse", degree)
            records = run_cell(SimCell(p, "sparse", generator), tuple(TIER_SCHEMES), 8, seed=p)
            assert len(records) == 8 * 5
            assert all(r.n_edges <= p * (p - 1) // 2 for r in records)
            if degree == 0.0:
                assert all(r.n_edges == 0 and r.gain_frac == 0.0 for r in records)
            rng = np.random.default_rng(p)
            edges = _SKELETONS[generator](p, degree, rng)
            assert len(set(edges)) == len(edges)
            assert all(0 <= min(e) < max(e) < p for e in edges)

    def test_record_validation(self):
        with pytest.raises(GraphError):
            SimRecord(10, "sparse", "er", "full", 0, 5, 3, 2, 0.0)
        with pytest.raises(GraphError):
            SimRecord(10, "sparse", "er", "full", 0, 5, 1, 2, 1.5)

    def test_config_validation(self):
        with pytest.raises(GraphError):
            SimConfig(replications=0)
        with pytest.raises(GraphError):
            SimCell(10, "medium", "er")
        with pytest.raises(GraphError, match="^a cell needs at least 2 nodes$"):
            SimCell(1, "sparse", "er")
        with pytest.raises(GraphError, match="^generator must be one of "):
            SimCell(10, "sparse", "uniform")
        with pytest.raises(GraphError, match="^replications must be >= 1$"):
            run_cell(SimCell(10, "sparse", "er"), ("full",), 0)
        assert len(SimConfig(node_counts=(10,), replications=1).cells()) == 6


class TestOutput:
    def test_csv_round_trip(self):
        records = run_cell(SimCell(8, "sparse", "er"), tuple(TIER_SCHEMES), 10, seed=23)
        buf = io.StringIO()
        write_csv(records, buf)
        buf.seek(0)
        assert read_csv(buf) == records

    def test_determinism_bit_identical(self):
        cell = SimCell(10, "dense", "power")
        a = records_to_csv_bytes(run_cell(cell, tuple(TIER_SCHEMES), 15, seed=29))
        b = records_to_csv_bytes(run_cell(cell, tuple(TIER_SCHEMES), 15, seed=29))
        assert a == b
        c = records_to_csv_bytes(run_cell(cell, tuple(TIER_SCHEMES), 15, seed=30))
        assert a != c

    def test_quartiles_match_sort_based_oracle(self):
        records = run_cell(SimCell(10, "sparse", "er"), tuple(TIER_SCHEMES), 40, seed=31)
        for row in summarize(records):
            values = [
                r.gain_frac
                for r in records
                if (r.nodes, r.density, r.generator, r.scheme)
                == (row.nodes, row.density, row.generator, row.scheme)
            ]
            assert row.q1 == pytest.approx(quantile_sorted(values, 0.25), abs=1e-12)
            assert row.median == pytest.approx(quantile_sorted(values, 0.5), abs=1e-12)
            assert row.q3 == pytest.approx(quantile_sorted(values, 0.75), abs=1e-12)

    def test_summary_matches_quantile_per_group(self):
        """Groups of unequal counts, one-record groups and ties included:
        the batched quantiles equal one ``np.quantile`` call per group."""
        draw = np.random.default_rng(41)
        records = []
        for g in range(300):
            cell = (int(draw.integers(2, 200)), ("sparse", "dense")[g % 2], "er", f"s{g}")
            for rep in range(1 + g % 29):
                gain = float(draw.integers(0, 12) / 11 if g % 3 else draw.random())
                records.append(SimRecord(*cell, rep, 11, 0, 0, gain))
        draw.shuffle(records)
        groups = defaultdict(list)
        for r in records:
            groups[(r.nodes, r.density, r.generator, r.scheme)].append(r.gain_frac)
        expected = []
        for key in sorted(groups, key=str):
            values = np.array(groups[key])
            quartiles = np.quantile(values, [0.25, 0.5, 0.75]).tolist()
            expected.append((*key, values.size, values.min(), *quartiles, values.max()))
        assert list(map(astuple, summarize(records))) == expected

    def test_emit_results(self, tmp_path):
        records = run_cell(SimCell(8, "sparse", "er"), ("full",), 5, seed=37)
        csv_path = tmp_path / "out.csv"
        box_path = tmp_path / "box.json"
        summary = emit_results(records, csv_path, boxplot_path=box_path)
        assert csv_path.read_text().startswith(
            "nodes,density,generator,scheme,rep,n_edges,n_dir_cpdag,n_dir_mpdag,gain_frac"
        )
        assert '"gain_frac_boxplots"' in box_path.read_text()
        assert len(summary) == 1

    def test_boxplot_json_is_what_json_dump_indents(self, tmp_path):
        """The boxplot file is spelled out on the C encoder's values, byte for
        byte what ``json.dump(payload, indent=2, sort_keys=True)`` writes."""
        draw = np.random.default_rng(53)
        records = [
            SimRecord(nodes, density, generator, scheme, rep, 11, 0, 0, float(draw.random()))
            for nodes, density, generator, scheme in itr.product(
                (25, 100), ("sparse", "dense"), ("er", "power"), ("full", "late1"))
            for rep in range(int(draw.integers(1, 6)))
        ]
        box_path = tmp_path / "box.json"
        summary = emit_results(records, tmp_path / "out.csv", boxplot_path=box_path)
        payload = {"gain_frac_boxplots": [
            {"nodes": s.nodes, "density": s.density, "generator": s.generator, "scheme": s.scheme,
             "count": s.count, "whisker_low": s.minimum, "q1": s.q1, "median": s.median,
             "q3": s.q3, "whisker_high": s.maximum}
            for s in summary
        ]}
        assert box_path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert len(summary) == 16

    def test_emit_results_rejects_empty(self, tmp_path):
        with pytest.raises(GraphError):
            emit_results([], tmp_path / "out.csv")
