import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from causaltiers import InconsistentKnowledgeError, orientation, tiered_mpdag, tiers
from causaltiers.cli import main
from causaltiers.formats import load_graph, load_tiers

from conftest import FIXTURES

EXPECTED = FIXTURES / "expected"


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def fixture(name):
    return str(FIXTURES / name)


def run_cli_optimized(*argv, setup=""):
    """Run the CLI in a ``python -O`` subprocess after ``setup``;
    returns the exit code, stdout and stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "\n".join(
        ["import sys", "from causaltiers import cli, tiers", setup, f"sys.exit(cli.main({argv!r}))"]
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def undirected_graph_file(path, n, width):
    """Graph file of nodes V0..V{n-1}, node i joined to i+1 .. i+width."""
    lines = [f"V{i} -- V{j}" for i in range(n) for j in range(i + 1, min(n, i + width + 1))]
    path.write_text(f"nodes: {' '.join(f'V{i}' for i in range(n))}\n" + "\n".join(lines) + "\n")
    return str(path)


class TestGoldenExamples:
    """End-to-end byte-exact runs of every figure example."""

    @pytest.mark.parametrize(
        "expected, argv",
        [
            (
                "wave_mpdag.txt",
                ["orient", "wave_cpdag.txt", "--tiers", "wave_tiers3.txt"],
            ),
            (
                "wave_mpdag_via_two_waves.txt",
                ["orient", "wave_cpdag.txt", "--tiers", "wave_tiers2.txt"],
            ),
            (
                "triangle_total.txt",
                ["orient", "triangle_cpdag.txt", "--tiers", "triangle_tiers_total.txt"],
            ),
            (
                "triangle_single.txt",
                ["orient", "triangle_cpdag.txt", "--tiers", "triangle_tiers_single.txt"],
            ),
            (
                "triangle_a_first.txt",
                ["orient", "triangle_cpdag.txt", "--tiers", "triangle_tiers_a_first.txt"],
            ),
            (
                "triangle_c_last.txt",
                ["orient", "triangle_cpdag.txt", "--tiers", "triangle_tiers_c_last.txt"],
            ),
            (
                "compare_wave_tiers.txt",
                [
                    "compare-tiers",
                    "wave_cpdag.txt",
                    "wave_tiers3.txt",
                    "wave_tiers2.txt",
                ],
            ),
            (
                "compare_fine_vs_coarse_late.txt",
                [
                    "compare-tiers",
                    "wave_cpdag.txt",
                    "wave_tiers_fine_late.txt",
                    "wave_tiers_coarse_late.txt",
                ],
            ),
            (
                "compare_triangle.txt",
                [
                    "compare-tiers",
                    "triangle_cpdag.txt",
                    "triangle_tiers_a_first.txt",
                    "triangle_tiers_c_last.txt",
                ],
            ),
            (
                "pair_mpdag.txt",
                ["orient", "pair_cpdag.txt", "--tiers", "pair_tiers.txt"],
            ),
        ],
    )
    def test_byte_exact(self, expected, argv):
        argv = [argv[0]] + [
            fixture(a) if a.endswith(".txt") else a for a in argv[1:]
        ]
        code, out = run_cli(*argv)
        assert code == 0
        assert out == (EXPECTED / expected).read_text()

    def test_triangle_outputs_are_pairwise_distinct(self):
        outputs = {
            (EXPECTED / f"triangle_{name}.txt").read_text()
            for name in ("total", "single", "a_first", "c_last")
        }
        assert len(outputs) == 4

    @pytest.mark.parametrize(
        "tiers, expected",
        [
            ("cohort_waves.txt", "cohort_waves_mpdag.txt"),
            ("cohort_expert.txt", "cohort_expert_mpdag.txt"),
        ],
    )
    def test_cohort_example(self, tiers, expected):
        """The applied two-wave example: wave timing orients two more
        edges; the refined early-life ordering orients everything."""
        code, out = run_cli(
            "orient", fixture("cohort_cpdag.txt"), "--tiers", fixture(tiers)
        )
        assert code == 0
        assert out == (EXPECTED / expected).read_text()
        if "expert" in tiers:
            assert " -- " not in out


class TestSubcommands:
    def test_validate(self):
        code, out = run_cli("validate", fixture("wave_dag.txt"))
        assert code == 0
        assert out == "ok: 7 nodes, 7 edges (7 directed, 0 undirected)\n"

    def test_validate_json(self):
        code, out = run_cli("validate", fixture("wave_cpdag.txt"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and len(payload["undirected"]) == 5

    def test_dsep(self):
        code, out = run_cli(
            "dsep", fixture("wave_dag.txt"), "--a", "B", "--b", "D", "--c", "C"
        )
        assert (code, out) == (0, "separated\n")
        code, out = run_cli(
            "dsep", fixture("wave_dag.txt"), "--a", "B", "--b", "D", "--c", "C,E"
        )
        assert (code, out) == (0, "connected\n")

    def test_classify_path(self):
        code, out = run_cli(
            "classify-path", fixture("wave_cpdag.txt"), "--path", "A,C,F,G"
        )
        assert code == 0
        assert out == "possibly-causal: yes\nb-possibly-causal: yes\n"

    def test_classify_path_backward(self):
        code, out = run_cli(
            "classify-path", fixture("wave_dag.txt"), "--path", "E,D,C"
        )
        assert code == 0
        assert out == "possibly-causal: no\nb-possibly-causal: no\n"

    def test_ida_local(self):
        code, out = run_cli(
            "ida",
            str(EXPECTED / "wave_mpdag.txt"),
            "--x",
            "B",
        )
        assert code == 0
        assert out == "{} x1\n{A} x1\n"

    def test_ida_joint(self):
        code, out = run_cli(
            "ida", str(EXPECTED / "wave_mpdag.txt"), "--joint", "A,B"
        )
        assert code == 0
        assert out == "({}, {A}) x1\n({B}, {}) x1\n"

    def test_ida_joint_on_band_of_17_edges(self, tmp_path):
        graph = undirected_graph_file(tmp_path / "band.txt", 10, 2)
        code, out = run_cli("ida", graph, "--joint", "V4", "--json")
        assert code == 0
        rows = json.loads(out)["joint_parent_sets"]
        assert sum(row["multiplicity"] for row in rows) == 34  # one per class member

    def test_orient_trace(self, capsys):
        code, out = run_cli(
            "orient",
            fixture("wave_cpdag.txt"),
            "--tiers",
            fixture("wave_tiers3.txt"),
            "--trace",
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "rule1: C->D" in err and "rule1: F->G" in err

    def test_orient_rules_all_matches_rule_1(self):
        _, via_one = run_cli(
            "orient", fixture("wave_cpdag.txt"), "--tiers", fixture("wave_tiers3.txt")
        )
        _, via_all = run_cli(
            "orient",
            fixture("wave_cpdag.txt"),
            "--tiers",
            fixture("wave_tiers3.txt"),
            "--rules",
            "all",
        )
        assert via_one == via_all

    def test_orient_out_file(self, tmp_path):
        target = tmp_path / "result.txt"
        code, out = run_cli(
            "orient",
            fixture("wave_cpdag.txt"),
            "--tiers",
            fixture("wave_tiers3.txt"),
            "--out",
            str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text() == (EXPECTED / "wave_mpdag.txt").read_text()

    def test_orient_json(self):
        code, out = run_cli(
            "orient",
            fixture("wave_cpdag.txt"),
            "--tiers",
            fixture("wave_tiers3.txt"),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert ["A", "C"] in payload["graph"]["directed"]
        assert payload["trace"]

    def test_compare_tiers_json(self):
        code, out = run_cli(
            "compare-tiers",
            fixture("wave_cpdag.txt"),
            fixture("wave_tiers_fine_late.txt"),
            fixture("wave_tiers_coarse_late.txt"),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is False
        assert payload["witness"] == ["A", "C"]
        assert payload["informativeness"] == "first-more-informative"

    def test_simulate(self, tmp_path):
        out_csv = tmp_path / "r.csv"
        code, out = run_cli(
            "simulate",
            "--nodes", "8",
            "--density", "sparse",
            "--generator", "er",
            "--reps", "5",
            "--seed", "7",
            "--out", str(out_csv),
        )
        assert code == 0
        assert out.startswith("scheme count min q1 median q3 max\n")
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "nodes,density,generator,scheme,rep,n_edges,n_dir_cpdag,n_dir_mpdag,gain_frac"
        assert len(lines) == 1 + 5 * 5


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run_cli("validate", "no/such/file.txt")
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self, capsys):
        code, _ = run_cli("validate", fixture("wave_dag.txt"), "--frobnicate")
        assert code == 2

    def test_simulate_zero_reps_is_usage_error(self, capsys, tmp_path):
        code, _ = run_cli(
            "simulate",
            "--nodes", "8",
            "--density", "sparse",
            "--generator", "er",
            "--reps", "0",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2

    @pytest.mark.skipif(not __debug__, reason="the invariant checks run in debug mode only")
    def test_invariant_failure_is_domain_error(self, capsys, monkeypatch, tmp_path):
        # a rule-1 closure that orients nothing leaves rule-1 edges undirected
        monkeypatch.setattr(orientation, "meek_closure", lambda g, rules: g)
        code, _ = run_cli(
            "simulate",
            "--nodes", "25",
            "--density", "dense",
            "--generator", "er",
            "--reps", "2",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rule-1 sufficiency: rule 1 orients ")
        assert err.count("\n") == 1

    def test_inconsistent_tiers_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad_tiers.txt"
        bad.write_text("tier 1: E\ntier 2: A B C D F G\n")
        code, _ = run_cli(
            "orient", fixture("wave_cpdag.txt"), "--tiers", str(bad)
        )
        assert code == 1
        assert "contradicts" in capsys.readouterr().err

    def test_inconsistent_tiers_message_is_shared(self, capsys, tmp_path):
        bad = tmp_path / "bad_tiers.txt"
        bad.write_text("tier 1: E\ntier 2: A B C D F G\n")
        graph = fixture("wave_cpdag.txt")
        with pytest.raises(InconsistentKnowledgeError) as info:
            tiered_mpdag(load_graph(graph), load_tiers(bad))
        expected = f"error: {info.value}\n"
        assert expected == "error: ordering contradicts directed edges: B->E, D->E\n"
        for argv in (["orient", graph, "--tiers", str(bad)],
                     ["compare-tiers", graph, str(bad), str(bad)]):
            code, out = run_cli(*argv)
            assert (code, out) == (1, "")
            assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("command", ["orient", "compare-tiers"])
    def test_tier_node_missing_from_graph_is_domain_error(self, command, capsys, tmp_path):
        extra = tmp_path / "extra_tiers.txt"
        extra.write_text((FIXTURES / "wave_tiers3.txt").read_text() + "tier 4: ZZZ\n")
        tiers = ["--tiers", str(extra)] if command == "orient" else [str(extra)] * 2
        code, out = run_cli(command, fixture("wave_cpdag.txt"), *tiers)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: ordering names nodes not in the graph: ['ZZZ']\n"
        )

    @pytest.mark.parametrize("command", ["orient", "compare-tiers"])
    @pytest.mark.parametrize("optimized", [False, True], ids=["default", "-O"])
    def test_ordering_forcing_a_new_v_structure(self, command, optimized, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(
            "nodes: V0 V1 V2 V3 V4 V5\n"
            "V0 -- V1\nV0 -- V2\nV2 -- V3\nV3 -- V4\nV3 -- V5\n"
        )
        bad = tmp_path / "bad.txt"
        bad.write_text("tier 1: V0\ntier 2: V1 V3 V4\ntier 3: V2 V5\n")
        coarse = tmp_path / "coarse.txt"
        coarse.write_text("tier 1: V0\ntier 2: V1 V2 V3 V4 V5\n")
        tiers_args = ["--tiers", str(bad)] if command == "orient" else [str(bad), str(coarse)]
        argv = [command, str(graph), *tiers_args]
        if optimized:
            code, out, err = run_cli_optimized(*argv)
        else:
            code, out = run_cli(*argv)
            err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err == (
            "error: ordering creates the v-structure V0 -> V2 <- V3, "
            "which no DAG of the class has\n"
        )

    @pytest.mark.parametrize("optimized", [False, True], ids=["default", "-O"])
    def test_broken_criterion_is_domain_error(self, optimized, capsys, monkeypatch):
        argv = [
            "compare-tiers",
            fixture("wave_cpdag.txt"),
            fixture("wave_tiers_fine_late.txt"),
            fixture("wave_tiers_coarse_late.txt"),
        ]
        blind = "tiers.first_cross_tier_edges = lambda path, ordering: frozenset()"
        if optimized:
            code, out, err = run_cli_optimized(*argv, setup=blind)
        else:
            monkeypatch.setattr(tiers, "first_cross_tier_edges", lambda *args: frozenset())
            code, out = run_cli(*argv)
            err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err == (
            "error: equivalence criterion: the orderings are equivalent but their "
            "tiered MPDAGs are different, witness A -> C\n"
        )

    @pytest.mark.parametrize("command", ["validate", "orient", "compare-tiers"])
    def test_non_utf8_file_is_domain_error(self, command, capsys, tmp_path):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfet\x00i\x00e\x00r\x00")
        argv = {
            "validate": [str(bad)],
            "orient": [fixture("wave_cpdag.txt"), "--tiers", str(bad)],
            "compare-tiers": [fixture("wave_cpdag.txt"), fixture("wave_tiers3.txt"), str(bad)],
        }[command]
        code, out = run_cli(command, *argv)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"

    def test_simulate_negative_seed_is_usage_error(self, capsys, tmp_path):
        code, out = run_cli(
            "simulate",
            "--nodes", "8",
            "--density", "sparse",
            "--generator", "er",
            "--reps", "1",
            "--seed", "-1",
            "--out", str(tmp_path / "r.csv"),
        )
        assert (code, out) == (2, "")
        assert "argument --seed: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_out_directory_is_usage_error(self, capsys, tmp_path):
        code, out = run_cli(
            "orient",
            fixture("wave_cpdag.txt"),
            "--tiers",
            fixture("wave_tiers3.txt"),
            "--out",
            str(tmp_path),
        )
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_unparsable_graph_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nodes: A B\nA => B\n")
        code, _ = run_cli("validate", str(bad))
        assert code == 1

    def test_ida_joint_over_member_guard(self, capsys, tmp_path):
        graph = undirected_graph_file(tmp_path / "k8.txt", 8, 7)  # 8! = 40320 members
        code, out = run_cli("ida", graph, "--joint", "V0")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: class has over 10000 members, the enumeration limit\n"
        )

    def test_ida_requires_target(self, capsys):
        code, _ = run_cli("ida", fixture("wave_cpdag.txt"))
        assert code == 2
