import contextlib
import errno
import gc
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltiers import (PDAG, GraphError, InconsistentKnowledgeError, cli, orientation,
                         tiered_mpdag, tiers)
from causaltiers.cli import main
from causaltiers.formats import load_graph, load_tiers

from conftest import FIXTURES, no_op_close

EXPECTED = FIXTURES / "expected"


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def fixture(name):
    return str(FIXTURES / name)


@st.composite
def mutated(draw, *names):
    """One of the fixture files ``names`` as bytes after one to four edits:
    a line deleted, repeated or moved, or a byte replaced, inserted or deleted."""
    lines = (FIXTURES / draw(st.sampled_from(names))).read_bytes().splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["delete", "repeat", "move", "byte"]))
        if edit == "byte" or not lines:
            data = b"".join(lines)
            at = draw(st.integers(0, len(data)))
            byte = bytes([draw(st.integers(0, 255))])
            data = draw(st.sampled_from([data[:at] + byte + data[at + 1:],
                                         data[:at] + byte + data[at:], data[:at] + data[at + 1:]]))
            lines = data.splitlines(keepends=True)
        elif k < len(lines):
            line = lines.pop(k) if edit != "repeat" else lines[k]
            if edit != "delete":
                lines.insert(draw(st.integers(0, len(lines))), line)
    return b"".join(lines)


def run_optimized(script):
    """Run ``script`` in a ``python -O`` subprocess; returns the exit code,
    stdout and stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def run_cli_optimized(*argv, setup=""):
    """Run the CLI in a ``python -O`` subprocess after ``setup``;
    returns the exit code, stdout and stderr."""
    lines = ["import sys", "from causaltiers import cli, tiers", setup]
    return run_optimized("\n".join([*lines, f"sys.exit(cli.main({argv!r}))"]))


def run_cli_in(env, *argv):
    """Run the CLI in a subprocess whose environment is updated by ``env``;
    returns the exit code and the raw stdout and stderr."""
    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    done = subprocess.run(
        [sys.executable, "-m", "causaltiers.cli", *map(str, argv)],
        env={**base, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), **env},
        capture_output=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
ASCII_STDOUT = {"PYTHONIOENCODING": "ascii"}
#: ``no_op_close`` as ``orientation._close``, for a subprocess's setup
NO_OP_CLOSE = f"{inspect.getsource(no_op_close)}orientation._close = no_op_close"


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
            (
                "compare_wave_tiers.json",
                [
                    "compare-tiers",
                    "wave_cpdag.txt",
                    "wave_tiers3.txt",
                    "wave_tiers2.txt",
                    "--json",
                ],
            ),
            (
                "compare_fine_vs_coarse_late.json",
                [
                    "compare-tiers",
                    "wave_cpdag.txt",
                    "wave_tiers_fine_late.txt",
                    "wave_tiers_coarse_late.txt",
                    "--json",
                ],
            ),
            (
                "compare_triangle.json",
                [
                    "compare-tiers",
                    "triangle_cpdag.txt",
                    "triangle_tiers_a_first.txt",
                    "triangle_tiers_c_last.txt",
                    "--json",
                ],
            ),
            ("validate_wave_dag.txt", ["validate", "wave_dag.txt"]),
            ("validate_wave_dag.json", ["validate", "wave_dag.txt", "--json"]),
            ("dsep_wave_dag.txt", ["dsep", "wave_dag.txt", "--a", "A", "--b", "G", "--c", "C"]),
            ("classify_path_wave.txt", ["classify-path", "wave_cpdag.txt", "--path", "A,C,F,G"]),
            ("ida_x_wave.txt", ["ida", "wave_cpdag.txt", "--x", "C"]),
            ("ida_x_wave.json", ["ida", "wave_cpdag.txt", "--x", "C", "--json"]),
            ("ida_joint_wave.txt", ["ida", "wave_cpdag.txt", "--joint", "A,C,F"]),
            ("ida_joint_wave.json", ["ida", "wave_cpdag.txt", "--joint", "A,C,F", "--json"]),
            ("wave_mpdag.json", ["orient", "wave_cpdag.txt", "--tiers", "wave_tiers3.txt", "--json"]),
            (
                "wave_mpdag_all_trace.txt",
                ["orient", "wave_cpdag.txt", "--tiers", "wave_tiers2.txt", "--rules", "all", "--trace"],
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

    def test_trace_goes_to_stderr(self, capsys):
        code = main(
            ["orient", fixture("wave_cpdag.txt"), "--tiers", fixture("wave_tiers2.txt"),
             "--rules", "all", "--trace"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == (EXPECTED / "wave_mpdag_all_trace.txt").read_text()
        assert captured.err == (EXPECTED / "wave_mpdag_all_trace.stderr.txt").read_text()

    def test_simulate_files(self, tmp_path):
        """The seed-7 cell: stdout in text and ``--json``, the CSV and the
        boxplot JSON."""
        argv = ["simulate", "--nodes", "25", "--density", "sparse", "--generator", "power",
                "--reps", "40", "--seed", "7"]
        for flags, expected in [([], "simulate_seed7.txt"), (["--json"], "simulate_seed7.json")]:
            csv_path, boxplot = tmp_path / f"{expected}.csv", tmp_path / f"{expected}.box.json"
            code, out = run_cli(*argv, "--out", str(csv_path), "--boxplot", str(boxplot), *flags)
            assert code == 0
            assert out == (EXPECTED / expected).read_text()
            assert csv_path.read_bytes() == (EXPECTED / "simulate_seed7.csv").read_bytes()
            assert boxplot.read_bytes() == (EXPECTED / "simulate_seed7_boxplot.json").read_bytes()

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

    def test_dsep_json(self):
        code, out = run_cli(
            "dsep", fixture("wave_dag.txt"), "--a", "B", "--b", "D", "--c", "C", "--json"
        )
        assert (code, out) == (0, '{"separated": true}\n')

    def test_parser_built_once_and_shared(self, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            outs = [
                run_cli("dsep", fixture("wave_dag.txt"), "--a", "B", "--b", "D", *extra)
                for extra in ((), ("--c", "C"), ())
            ]
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert outs == [(0, "connected\n"), (0, "separated\n"), (0, "connected\n")]

    def test_classify_path(self):
        code, out = run_cli(
            "classify-path", fixture("wave_cpdag.txt"), "--path", "A,C,F,G"
        )
        assert code == 0
        assert out == "possibly-causal: yes\nb-possibly-causal: yes\n"

    def test_classify_path_json(self):
        code, out = run_cli(
            "classify-path", fixture("wave_dag.txt"), "--path", "E,D,C", "--json"
        )
        assert (code, out) == (0, '{"possibly_causal": false, "b_possibly_causal": false}\n')

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

    def test_ida_on_four_cycle_lists_nothing(self, tmp_path, capsys):
        # the undirected 4-cycle is not chordal, so no CPDAG: refused, stdout empty
        graph = tmp_path / "square.txt"
        graph.write_text("nodes: a b c d\na -- b\nb -- c\nc -- d\nd -- a\n")
        for target in ("--x", "--joint"):
            assert run_cli("ida", str(graph), target, "a") == (1, "")
            assert capsys.readouterr().err == (
                "error: not a CPDAG: the undirected part is not chordal at d\n")

    def test_ida_lists_nothing_when_another_component_is_not_chordal(self, tmp_path, capsys):
        # x - y is chordal, but the square a - b - c - d - a is refused, whatever is queried
        graph = tmp_path / "square_and_edge.txt"
        graph.write_text("nodes: a b c d x y\na -- b\nb -- c\nc -- d\nd -- a\nx -- y\n")
        for target in ("--x", "--joint"):
            assert run_cli("ida", str(graph), target, "x") == (1, "")
            assert capsys.readouterr().err == (
                "error: not a CPDAG: the undirected part is not chordal at d\n")

    @pytest.mark.parametrize("edges, query, edge", [
        ("a -> b\nb -- c\n", "c", "b - c"),
        ("a -> e\na -- b\na -- c\na -- d\nc -- e\n", "a", "e - c"),
        ("a -> b\nb -- c\nc -- a\n", "c", "b - c"),
    ])
    def test_ida_refuses_edges_whose_ends_have_different_parents(
        self, edges, query, edge, tmp_path, capsys
    ):
        graph = tmp_path / "g.txt"
        graph.write_text("nodes: a e b c d\n" + edges)
        for target in ("--x", "--joint"):
            assert run_cli("ida", str(graph), target, query) == (1, "")
            assert capsys.readouterr().err == (
                f"error: not a CPDAG or tiered MPDAG: the ends of {edge} have different parents\n"
            )

    def test_ida_joint_on_band_of_17_edges(self, tmp_path):
        graph = undirected_graph_file(tmp_path / "band.txt", 10, 2)
        code, out = run_cli("ida", graph, "--joint", "V4", "--json")
        assert code == 0
        rows = json.loads(out)["joint_parent_sets"]
        assert sum(row["multiplicity"] for row in rows) == 34  # one per class member

    @pytest.mark.parametrize("n", [30, 60])
    def test_compare_tiers_on_band_over_the_path_guard(self, n, tmp_path, monkeypatch):
        """The verdict lists no path, so a band component of more than 25
        nodes gets one; the comparison reaches neither path-listing call,
        and over the guard the witness is the least differing first edge."""
        graph = undirected_graph_file(tmp_path / "band.txt", n, 3)
        files = []
        for name, cuts in [("a", [n // 3]), ("b", [n // 3, 2 * n // 3]), ("c", [2 * n // 3])]:
            levels = [1 + sum(k >= cut for cut in cuts) for k in range(n)]
            files.append(tmp_path / f"{name}.txt")
            files[-1].write_text("".join(f"tier {t}: V{k}\n" for k, t in enumerate(levels)))
        walks = []
        for owner, name in [(tiers, "cross_tier_report"), (PDAG, "find_unshielded_paths")]:
            listing = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, listing=listing, **kwargs: (
                walks.append(args) or listing(*args, **kwargs)))
        code, out = run_cli("compare-tiers", graph, str(files[0]), str(files[1]))
        assert (code, walks) == (0, [])
        assert out.startswith("equivalence: equivalent\nearliest-path first edges: agree\n")
        code, out = run_cli("compare-tiers", graph, str(files[0]), str(files[2]))
        assert (code, len(walks)) == (0, 0)
        assert out.startswith("equivalence: different\nwitness: V17->V20\n")

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

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_orient_out_file_holds_the_chosen_format(self, tmp_path, json_flag):
        target = tmp_path / "result.out"
        argv = ["orient", fixture("wave_cpdag.txt"), "--tiers", fixture("wave_tiers3.txt")]
        code, out = run_cli(*argv, *json_flag, "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text() == run_cli(*argv, *json_flag)[1]

    def test_orient_json_formats_no_text(self, monkeypatch):
        def no_text(g):
            raise AssertionError("graph text formatted for --json")

        monkeypatch.setattr(cli, "format_graph", no_text)
        code, out = run_cli(
            "orient", fixture("wave_cpdag.txt"), "--tiers", fixture("wave_tiers3.txt"), "--json"
        )
        assert code == 0 and json.loads(out)["trace"]

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

    def test_compare_tiers_answers_incompatible_orderings(self, tmp_path, capsys):
        """Orderings that order a pair oppositely are compared, text and
        JSON alike, and are incomparable by refinement; orderings of
        different node sets are refused with one line."""
        graph, t1, t2, t3 = (tmp_path / f"{name}.txt" for name in ("g", "t1", "t2", "t3"))
        graph.write_text("nodes: a b c\na -- b\nb -- c\n")
        t1.write_text("tier 1: a\ntier 2: b\ntier 3: c\n")
        t2.write_text("tier 1: c\ntier 2: b\ntier 3: a\n")
        t3.write_text("tier 1: a b\n")
        code, out = run_cli("compare-tiers", str(graph), str(t1), str(t2))
        assert code == 0
        assert out == (
            "equivalence: different\n"
            "witness: a->b\n"
            "earliest-path first edges: disagree\n"
            "fully-shielded cross-tier edges: agree\n"
            "informativeness: incomparable\n"
            "refinement: incomparable\n"
        )
        code, out = run_cli("compare-tiers", str(graph), str(t1), str(t2), "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["equivalent"], payload["witness"]) == (False, ["a", "b"])
        assert (payload["informativeness"], payload["refinement"]) == ("incomparable",) * 2
        assert capsys.readouterr().err == ""
        code, out = run_cli("compare-tiers", str(graph), str(t1), str(t3))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: orderings are defined on different node sets\n"

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

    def test_simulate_degree_out_of_range_names_both_values(self, capsys, tmp_path):
        code, _ = run_cli(
            "simulate",
            "--nodes", "5",
            "--density", "dense",
            "--generator", "er",
            "--reps", "1",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: expected neighbour count 5.0 must be in [0, 5)\n"
        )

    def test_invariant_failure_is_domain_error(self, capsys, monkeypatch, tmp_path):
        # a rule-1 closure that orients nothing leaves rule-1 edges undirected
        monkeypatch.setattr(orientation, "_close", no_op_close)
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

    @pytest.mark.parametrize("optimized", [False, True], ids=["default", "-O"])
    def test_faulty_closure_fails_orient(self, optimized, capsys, monkeypatch):
        argv = ["orient", fixture("wave_cpdag.txt"), "--tiers", fixture("wave_tiers3.txt")]
        if optimized:
            setup = f"from causaltiers import orientation\n{NO_OP_CLOSE}"
            code, out, err = run_cli_optimized(*argv, setup=setup)
        else:
            monkeypatch.setattr(orientation, "_close", no_op_close)
            code, out = run_cli(*argv)
            err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err == "error: rule-1 sufficiency: rule 1 orients C -> D\n"

    def test_faulty_closure_fails_tiered_mpdag_under_optimize(self):
        # the checks are plain code, so ``python -O`` keeps them
        graph, tiers_file = fixture("wave_cpdag.txt"), fixture("wave_tiers3.txt")
        code, out, err = run_optimized(
            "\n".join([
                "from causaltiers import load_graph, load_tiers, orientation",
                NO_OP_CLOSE,
                "print(__debug__)",
                "try:",
                f"    orientation.tiered_mpdag(load_graph({graph!r}),",
                f"                             load_tiers({tiers_file!r}))",
                "except orientation.InvariantError as exc:",
                "    print(exc)",
            ])
        )
        assert (code, err) == (0, "")
        assert out == "False\nrule-1 sufficiency: rule 1 orients C -> D\n"

    def test_orient_non_cpdag_fails_like_tiered_mpdag(self, capsys, tmp_path):
        # the undirected square is no CPDAG: its component is not chordal, and
        # the failing pass refuses the input as such, not with an InvariantError
        graph = tmp_path / "square.txt"
        graph.write_text("nodes: A B C D\nA -- B\nB -- C\nC -- D\nD -- A\n")
        one_tier = tmp_path / "one_tier.txt"
        one_tier.write_text("tier 1: A B C D\n")
        with pytest.raises(GraphError) as info:
            tiered_mpdag(load_graph(graph), load_tiers(one_tier))
        assert not isinstance(info.value, orientation.InvariantError)
        expected = f"error: {info.value}\n"
        assert expected == "error: not a CPDAG: the undirected part is not chordal at D\n"
        for rules in ("1", "all"):
            code, out = run_cli("orient", str(graph), "--tiers", str(one_tier), "--rules", rules)
            assert (code, out) == (1, "")
            assert capsys.readouterr().err == expected

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
        blind = "tiers._first_edges = lambda floor, tier: set()"
        if optimized:
            code, out, err = run_cli_optimized(*argv, setup=blind)
        else:
            monkeypatch.setattr(tiers, "_first_edges", lambda *args: set())
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

    @pytest.mark.parametrize("env", [C_LOCALE, ASCII_STDOUT], ids=["C-locale", "ascii-stdout"])
    def test_non_ascii_labels_are_written_as_utf8(self, env, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("nodes: \u00c4 B C\n\u00c4 -- B\nB -- C\n", encoding="utf-8")
        ordering = tmp_path / "t.txt"
        ordering.write_text("tier 1: \u00c4\ntier 2: B C\n", encoding="utf-8")
        result = tmp_path / "out.txt"
        assert run_cli_in(env, "orient", graph, "--tiers", ordering, "--out", result) == (0, b"", b"")
        expected = run_cli("orient", str(graph), "--tiers", str(ordering))
        assert expected == (0, result.read_text(encoding="utf-8"))
        assert run_cli_in(env, "validate", result) == (
            0, b"ok: 3 nodes, 2 edges (2 directed, 0 undirected)\n", b""
        )
        code, out, err = run_cli_in(env, "orient", graph, "--tiers", ordering)
        assert (code, out) == (2, b"")
        assert err.startswith(b"error: stdout's encoding ") and err.count(b"\n") == 1, err

    @pytest.mark.parametrize("env", [C_LOCALE, {"PYTHONUTF8": "1"}], ids=["C-locale", "UTF-8"])
    def test_node_names_on_the_command_line_are_utf8(self, env, tmp_path):
        """Names given to --path, --a/--b/--c, --x and --joint are read as the
        UTF-8 graph file is, whatever the locale's encoding."""
        graph = tmp_path / "g.txt"
        graph.write_text("nodes: Ä B C\nÄ -> B\nB -> C\n", encoding="utf-8")
        calls = [
            (["classify-path", "--path", "Ä,B,C"], b"possibly-causal: yes\nb-possibly-causal: yes\n"),
            (["dsep", "--a", "Ä", "--b", "C", "--c", "B"], b"separated\n"),
            (["dsep", "--a", "C", "--b", "B,Ä"], b"connected\n"),
            (["dsep", "--a", "B", "--b", "C", "--c", "Ä"], b"connected\n"),
            (["ida", "--x", "Ä"], b"{} x1\n"),
            (["ida", "--joint", "Ä,C"], b"({}, {B}) x1\n"),
        ]
        for argv, expected in calls:
            assert run_cli_in(env, argv[0], graph, *argv[1:]) == (0, expected, b""), argv

    def test_node_names_that_are_not_utf8_stay_as_given(self):
        assert cli._node("Ä") == "Ä"
        for raw in (b"\xc4", b"B\xff"):  # not UTF-8: the locale's surrogate escapes stay
            name = os.fsdecode(raw)
            assert cli._node(name) == name
        assert cli._node("\ud800") == "\ud800"  # no bytes at all

    def test_full_stdout_is_one_line(self, capsys):
        """A failed write to a stream has no file name to report."""

        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        code = main(["validate", fixture("wave_dag.txt")], out=Full())
        assert code == 2
        assert capsys.readouterr().err == f"error: {os.strerror(errno.ENOSPC)}\n"

    def test_empty_node_list_is_usage_error(self, capsys):
        code, out = run_cli("dsep", fixture("wave_dag.txt"), "--a", ",", "--b", "D")
        assert (code, out) == (2, "")
        assert "expected a comma-separated node list" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("A -> B\n", "line 1: expected a 'nodes:' header"),
        ("# no graph here\n\n", "missing 'nodes:' header"),
    ])
    def test_graph_without_nodes_header_is_domain_error(self, text, message, tmp_path, capsys):
        graph = tmp_path / "headless.txt"
        graph.write_text(text)
        assert run_cli("validate", str(graph)) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unparsable_graph_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nodes: A B\nA => B\n")
        code, _ = run_cli("validate", str(bad))
        assert code == 1

    def test_ida_joint_k8_without_member_guard(self, capsys, tmp_path):
        graph = undirected_graph_file(tmp_path / "k8.txt", 8, 7)  # 8! = 40320 members
        code, out = run_cli("ida", graph, "--joint", "V0")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 128
        assert sum(int(line.rsplit(" x", 1)[1]) for line in lines) == 40_320

    def test_ida_requires_target(self, capsys):
        code, _ = run_cli("ida", fixture("wave_cpdag.txt"))
        assert code == 2

    def test_ida_takes_one_target(self, capsys):
        code, out = run_cli("ida", fixture("wave_cpdag.txt"), "--x", "A", "--joint", "B")
        assert (code, out) == (2, "")
        assert "not allowed with argument" in capsys.readouterr().err

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(graph=mutated("wave_cpdag.txt", "wave_dag.txt"),
           tiers1=mutated("wave_tiers2.txt", "wave_tiers3.txt"),
           tiers2=mutated("wave_tiers3.txt", "wave_tiers_fine_late.txt"),
           nodes=st.sampled_from(["-1", "0", "4", "x"]))
    def test_every_input_ends_in_an_exit_code_and_one_line(self, graph, tiers1, tiers2, nodes):
        """The CLI's promise on any input: exit 0, 1 or 2 and never a traceback;
        exit 1 with one ``error:`` line, exit 2 with that or argparse's usage
        and error lines.  The fixture graph and tier files, their lines and
        bytes mutated, go through every subcommand in process."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, data in (("g", graph), ("t1", tiers1), ("t2", tiers2)):
                paths[name] = os.path.join(tmp, name)
                with open(paths[name], "wb") as fh:
                    fh.write(data)
            g, t1, t2 = paths["g"], paths["t1"], paths["t2"]
            runs = [
                ["validate", g], ["orient", g, "--tiers", t1],
                ["orient", g, "--tiers", t2, "--rules", "all", "--json"],
                ["compare-tiers", g, t1, t2], ["dsep", g, "--a", "A", "--b", "E", "--c", "C"],
                ["classify-path", g, "--path", "A,C,D"], ["ida", g, "--x", "C"],
                ["ida", g, "--joint", "A,C", "--json"],
                ["simulate", "--nodes", nodes, "--density", "sparse", "--generator", "er",
                 "--reps", "1", "--out", os.path.join(tmp, "sim.csv")],
            ]
            for argv in runs:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv, out=io.StringIO())
                lines = err.getvalue().splitlines()
                assert code in (0, 1, 2), argv
                assert "Traceback" not in err.getvalue(), argv
                if code == 1 or (code == 2 and not lines[0].startswith("usage: ")):
                    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
                elif code == 2:  # argparse: the usage, maybe wrapped, then its error line
                    assert lines[-1].startswith(f"causaltiers {argv[0]}: error: "), (argv, lines)


@contextlib.contextmanager
def collector(enabled: bool):
    """The cyclic collector switched on or off, and back as it was after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


#: per subcommand, a run that answers, one that exits 1 (a graph with a
#: directed cycle, or an unknown node) and one that exits 2 (a missing file);
#: ``@name`` is a fixture, ``{tmp}`` a fresh directory holding ``cyclic.txt``
PAUSED_RUNS = [
    (0, ["validate", "@wave_dag.txt"]),
    (1, ["validate", "{tmp}/cyclic.txt"]),
    (2, ["validate", "{tmp}/missing.txt"]),
    (0, ["orient", "@wave_cpdag.txt", "--tiers", "@wave_tiers2.txt", "--rules", "all", "--trace"]),
    (1, ["orient", "{tmp}/cyclic.txt", "--tiers", "@wave_tiers3.txt"]),
    (2, ["orient", "@wave_cpdag.txt", "--tiers", "{tmp}/missing.txt"]),
    (0, ["compare-tiers", "@wave_cpdag.txt", "@wave_tiers2.txt", "@wave_tiers3.txt"]),
    (1, ["compare-tiers", "{tmp}/cyclic.txt", "@wave_tiers2.txt", "@wave_tiers3.txt"]),
    (2, ["compare-tiers", "@wave_cpdag.txt", "{tmp}/missing.txt", "@wave_tiers3.txt"]),
    (0, ["dsep", "@wave_dag.txt", "--a", "A", "--b", "G", "--c", "C"]),
    (1, ["dsep", "@wave_dag.txt", "--a", "ZZ", "--b", "G"]),
    (2, ["dsep", "{tmp}/missing.txt", "--a", "A", "--b", "G"]),
    (0, ["classify-path", "@wave_cpdag.txt", "--path", "A,C,F,G"]),
    (1, ["classify-path", "@wave_cpdag.txt", "--path", "A,ZZ"]),
    (2, ["classify-path", "{tmp}/missing.txt", "--path", "A,C"]),
    (0, ["ida", "@wave_cpdag.txt", "--joint", "A,C,F", "--json"]),
    (1, ["ida", "@wave_cpdag.txt", "--x", "ZZ"]),
    (2, ["ida", "{tmp}/missing.txt", "--x", "C"]),
    (0, ["simulate", "--nodes", "12", "--density", "sparse", "--generator", "power",
         "--reps", "2", "--out", "{tmp}/r.csv", "--boxplot", "{tmp}/b.json"]),
    (1, ["simulate", "--nodes", "5", "--density", "dense", "--generator", "er",
         "--reps", "1", "--out", "{tmp}/r.csv"]),
    (2, ["simulate", "--nodes", "8", "--density", "sparse", "--generator", "er",
         "--reps", "1", "--out", "{tmp}/missing/r.csv"]),
]


def paused_argv(argv, tmp_path):
    (tmp_path / "cyclic.txt").write_text("nodes: A B C\nA -> B\nB -> C\nC -> A\n")
    return [fixture(a[1:]) if a.startswith("@") else a.format(tmp=tmp_path) for a in argv]


class TestCollectorPause:
    """``main`` runs the command with the cyclic collector paused and puts
    it back as it was; the pause is safe because commands leave no cyclic
    garbage behind."""

    @pytest.mark.parametrize(
        "code, argv", PAUSED_RUNS, ids=[f"{argv[0]}-{code}" for code, argv in PAUSED_RUNS]
    )
    def test_commands_leave_no_cyclic_garbage(self, code, argv, tmp_path, capsys):
        argv = paused_argv(argv, tmp_path)
        with collector(True):
            assert run_cli(*argv)[0] == code  # warm-up: first-use imports and caches
            gc.collect()
            assert run_cli(*argv)[0] == code
            assert gc.collect() == 0

    def test_collector_is_off_while_a_command_runs(self, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "validate", lambda args: seen.append(gc.isenabled()) or "")
        with collector(True):
            assert run_cli("validate", fixture("wave_dag.txt")) == (0, "")
            assert gc.isenabled()
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "code, argv",
        [PAUSED_RUNS[3], PAUSED_RUNS[4], PAUSED_RUNS[5], (2, ["validate", "--frobnicate"])],
        ids=["answer", "domain-error", "missing-file", "bad-flag"],
    )
    def test_previous_state_comes_back(self, enabled, code, argv, tmp_path, capsys):
        argv = paused_argv(argv, tmp_path)
        with collector(enabled):
            assert run_cli(*argv)[0] == code
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_previous_state_comes_back_after_an_unexpected_error(self, enabled, monkeypatch):
        def broken(args):
            raise RuntimeError("broken command")

        monkeypatch.setitem(cli._COMMANDS, "validate", broken)
        with collector(enabled):
            with pytest.raises(RuntimeError, match="^broken command$"):
                run_cli("validate", fixture("wave_dag.txt"))
            assert gc.isenabled() is enabled
