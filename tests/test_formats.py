import pytest

from causaltiers import (
    GraphError,
    PDAG,
    TieredOrdering,
    format_graph,
    format_tiers,
    load_graph,
    parse_graph,
    parse_tiers,
)

from conftest import FIXTURES


class TestGraphFormat:
    def test_parse_wave_dag(self):
        g = load_graph(FIXTURES / "wave_dag.txt")
        assert g.nodes == tuple("ABCDEFG")
        assert len(g.directed_edges) == 7

    def test_round_trip(self, wave_mpdag):
        assert parse_graph(format_graph(wave_mpdag)) == wave_mpdag

    def test_format_is_stable(self):
        g = PDAG("ABC", directed=[("C", "B")], undirected=[("A", "C")])
        assert format_graph(g) == "nodes: A B C\nA -- C\nC -> B\n"

    def test_comments_and_blank_lines(self):
        text = "# header\n\nnodes: A B  # trailing\nA -> B  # edge\n"
        g = parse_graph(text)
        assert g.directed_edges == (("A", "B"),)

    def test_missing_header(self):
        with pytest.raises(GraphError, match="nodes"):
            parse_graph("A -> B\n")

    def test_unknown_node(self):
        with pytest.raises(GraphError, match="unknown node"):
            parse_graph("nodes: A B\nA -> C\n")
        names = [f"V{k}" for k in range(600)]
        lines = ["nodes: " + " ".join(names)]
        lines += [f"V{k} -- V{k + 1}" for k in range(599)]
        lines += ["V599 -> V600", "V0 -- V1"]
        with pytest.raises(GraphError) as info:
            parse_graph("\n".join(lines) + "\n")
        assert str(info.value) == "line 601: unknown node 'V600'"
        lines[-2] = "W -> V0"
        with pytest.raises(GraphError) as info:
            parse_graph("\n".join(lines) + "\n")
        assert str(info.value) == "line 601: unknown node 'W'"

    def test_bad_edge_line(self):
        with pytest.raises(GraphError, match="cannot parse"):
            parse_graph("nodes: A B\nA => B\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            parse_graph("nodes: A B\nA -> B\nA -- B\n")


class TestTiersFormat:
    def test_parse_wave_tiers(self):
        with open(FIXTURES / "wave_tiers3.txt") as fh:
            tau = parse_tiers(fh.read())
        assert tau.tier_groups() == [
            (1, ("A", "B")),
            (2, ("C", "D", "E")),
            (3, ("F", "G")),
        ]

    def test_round_trip(self):
        tau = TieredOrdering({"A": 1, "B": 2, "C": 1})
        assert parse_tiers(format_tiers(tau)) == tau

    def test_duplicate_assignment(self):
        with pytest.raises(GraphError, match="already"):
            parse_tiers("tier 1: A\ntier 2: A\n")

    def test_bad_lines(self):
        with pytest.raises(GraphError):
            parse_tiers("layer 1: A\n")
        with pytest.raises(GraphError):
            parse_tiers("tier x: A\n")
        with pytest.raises(GraphError):
            parse_tiers("# nothing\n")
