import io
from collections import Counter

import numpy as np
import pytest

from causaltiers import (
    GraphError,
    PDAG,
    TieredOrdering,
    format_graph,
    format_tiers,
    load_graph,
    load_tiers,
    parse_graph,
    parse_tiers,
)
from causaltiers.cli import main

from conftest import FIXTURES
from oracles import build_two_pass


def random_edge_lines(rng):
    """Labels, edge lines ``(mark, i, j)`` in file order, and the repeat:
    pairs of distinct nodes, some nodes isolated, directed pairs often
    closing a cycle; sometimes an existing pair again, as either kind,
    either way round, at any place (the repeat is then its first mark, its
    second mark and whether it is reversed, else None), or a self-loop of
    either kind."""
    p = int(rng.integers(1, 10))
    names = [f"N{k}" for k in rng.permutation(p)]
    marks = (" -> ", " -- ")
    pairs = [(i, j) if rng.random() < 0.5 else (j, i) for i in range(p) for j in range(i)]
    take = rng.permutation(len(pairs))[: int(rng.integers(0, 3 * p))]
    edges = [(marks[int(rng.random() < 0.2)], *pairs[k]) for k in take]
    repeat = None
    if edges and rng.random() < 0.3:
        mark, i, j = edges[int(rng.integers(len(edges)))]
        again, swap = marks[int(rng.integers(2))], bool(rng.integers(2))
        edges.insert(int(rng.integers(len(edges) + 1)), (again, *((j, i) if swap else (i, j))))
        repeat = (mark, again, swap)
    elif rng.random() < 0.2:
        k = int(rng.integers(p))
        edges.insert(int(rng.integers(len(edges) + 1)), (marks[int(rng.integers(2))], k, k))
    return names, edges, repeat


def edge_text(names, edges):
    return "nodes: " + " ".join(names) + "\n" + "".join(
        f"{names[i]}{mark}{names[j]}\n" for mark, i, j in edges
    )


def sets_or_error(build):
    """The labels and index sets of what ``build()`` gives, or the type and
    message of the :class:`GraphError` it raises."""
    try:
        g = build()
    except GraphError as exc:
        return type(exc), str(exc)
    return g if isinstance(g, tuple) else (g.nodes, g._pa, g._ch, g._ne)


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nodes: A B\nA -> A\n", "self-loop at node 'A'"),
            ("nodes: A B\nB -- B\n", "self-loop at node 'B'"),
            ("nodes: A B C\nA -> B\nB -> A\n", "more than one edge between 'B' and 'A'"),
            ("nodes: A B C\nC -- B\nB -- C\n", "more than one edge between 'B' and 'C'"),
            ("nodes: A B C\nC -- B\nB -> C\n", "more than one edge between 'C' and 'B'"),
            # directed edges are checked first, whatever the line order
            ("nodes: A B C\nB -- B\nA -> C\nA -> C\n", "more than one edge between 'A' and 'C'"),
            ("nodes: A B C\nC -- A\nA -- C\nB -> B\n", "self-loop at node 'B'"),
            # an unknown node or a bad line anywhere comes before them
            ("nodes: A B\nA -> A\nA -> C\n", "line 3: unknown node 'C'"),
            ("nodes: A B\nA -> A\nA => B\n", "line 3: cannot parse edge 'A => B'"),
            ("# x\nnodes: A B A\nA -> B\n", "line 2: duplicate node label"),
            ("nodes: A B\nA -> B\nB -> A\nnodes: C\n", "line 4: cannot parse edge 'nodes: C'"),
            ("nodes: A B C\nA -> B\nB -> C\nC -> A\n", "directed cycle: A -> B -> C -> A"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(GraphError) as info:
            parse_graph(text)
        assert str(info.value) == message

    def test_structural_errors_match_the_constructor(self):
        rng = np.random.default_rng(61)
        seen = set()
        for _ in range(300):
            names = [f"N{k}" for k in range(int(rng.integers(2, 7)))]
            edges = [
                (" -> " if rng.random() < 0.8 else " -- ", *rng.choice(names, size=2))
                for _ in range(int(rng.integers(1, 6)))
            ]
            text = "nodes: " + " ".join(names) + "\n"
            text += "".join(f"{u}{mark}{v}\n" for mark, u, v in edges)
            with pytest.raises(GraphError) as built:
                PDAG(
                    names,
                    directed=[(u, v) for mark, u, v in edges if mark == " -> "],
                    undirected=[(u, v) for mark, u, v in edges if mark == " -- "],
                )
                raise GraphError("valid")
            with pytest.raises(GraphError) as parsed:
                parse_graph(text)
                raise GraphError("valid")
            assert str(parsed.value) == str(built.value)
            seen.add(str(built.value).split(" ")[0])
        assert seen == {"self-loop", "more", "directed", "valid"}, seen

    def test_build_matches_the_two_pass_oracle(self):
        """The constructor and the parser give the labels and sets, or the
        error, of the former two-pass build on random edge lists with
        isolated nodes, self-loops, repeated pairs and directed cycles."""
        rng = np.random.default_rng(71)
        outcomes, repeats = Counter(), Counter()
        for _ in range(1500):
            names, edges, repeat = random_edge_lines(rng)
            directed = [(i, j) for mark, i, j in edges if mark == " -> "]
            undirected = [(i, j) for mark, i, j in edges if mark == " -- "]
            expected = sets_or_error(lambda: build_two_pass(names, directed, undirected))
            built = sets_or_error(lambda: PDAG(
                names,
                directed=[(names[i], names[j]) for i, j in directed],
                undirected=[(names[i], names[j]) for i, j in undirected],
            ))
            assert built == expected
            assert sets_or_error(lambda: parse_graph(edge_text(names, edges))) == expected
            outcomes["valid" if len(expected) == 4 else expected[1].split(" ")[0]] += 1
            repeats[repeat] += 1
        assert min(outcomes.values()) > 100 and len(outcomes) == 4, outcomes
        assert len(repeats) == 9 and min(repeats.values()) > 10, repeats

    def test_empty_sets_are_one_object(self):
        """After the parser and the constructor, every node with no parent,
        child or neighbour holds the same empty set."""
        rng = np.random.default_rng(73)
        checked = 0
        for _ in range(300):
            names, edges, _ = random_edge_lines(rng)
            try:
                parsed = parse_graph(edge_text(names, edges))
            except GraphError:
                continue
            built = PDAG(names, parsed.directed_edges, parsed.undirected_edges)
            for g in (parsed, built):
                empty = {id(x) for sets in (g._pa, g._ch, g._ne) for x in sets if not x}
                assert len(empty) == 1
            checked += 1
        assert checked > 100, checked

    def test_round_trip_random_graphs(self):
        """Random acyclic mixed graphs with labels in a random order: the
        parsed graph has exactly the written one's nodes and index sets."""
        rng = np.random.default_rng(67)
        for _ in range(200):
            p = int(rng.integers(1, 40))
            names = [f"{'xy'[k % 2]}{k * 7 % 101}" for k in rng.permutation(p)]
            rank = rng.permutation(p)
            directed, undirected = [], []
            for i in range(p):
                for j in range(i + 1, p):
                    r = rng.random()
                    if r < 0.08:
                        a, b = (i, j) if rank[i] < rank[j] else (j, i)
                        directed.append((names[a], names[b]))
                    elif r < 0.16:
                        undirected.append((names[j], names[i]))
            g = PDAG(names, directed=directed, undirected=undirected)
            back = parse_graph(format_graph(g))
            assert (back.nodes, back._pa, back._ch, back._ne) == (g.nodes, g._pa, g._ch, g._ne)
            assert format_graph(back) == format_graph(g)


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

    @pytest.mark.parametrize("head", ["tier 1_0", "tier \u0661", "tier +-1", "tier 1.0", "tier "])
    def test_tier_index_is_ascii_digits(self, head):
        """``int`` alone would read ``1_0`` as 10 and an Arabic-Indic one as 1."""
        with pytest.raises(GraphError) as info:
            parse_tiers(f"tier 0: B\n{head}: A\n")
        assert str(info.value) == f"line 2: bad tier index in {head!r}"

    def test_signed_tier_indices(self):
        tau = parse_tiers("tier -2: A\ntier +3: B\ntier 07: C\n")
        assert tau.assignment == {"A": -2, "B": 3, "C": 7}


class TestLabels:
    """The writers refuse a label that would read back as other nodes."""

    @pytest.mark.parametrize(
        "label", ["x y", "x\ty", " x", "x\n", "x\u2028y", "a#b", "#", ""],
        ids=["space", "tab", "leading", "newline", "line-separator", "hash", "only-hash", "empty"],
    )
    def test_unwritable_label(self, label):
        message = f"label {label!r} is empty or contains whitespace or '#'"
        with pytest.raises(GraphError) as graph:
            format_graph(PDAG(["z", label], undirected=[("z", label)]))
        assert str(graph.value) == message
        with pytest.raises(GraphError) as tiers:
            format_tiers(TieredOrdering({label: 1, "z": 2}))
        assert str(tiers.value) == message

    def test_first_unwritable_label_is_named(self):
        with pytest.raises(GraphError, match="label 'b c'"):
            format_graph(PDAG(["a", "b c", "d#"]))

    @pytest.mark.parametrize("labels", [[1, "1"], ["a", 2.0, "2.0"]], ids=["int-str", "float-str"])
    def test_labels_with_the_same_text(self, labels):
        """Distinct labels that print alike would read back as one node."""
        message = f"two labels read back as {str(labels[-1])!r}"
        with pytest.raises(GraphError) as graph:
            format_graph(PDAG(labels))
        assert str(graph.value) == message
        with pytest.raises(GraphError) as tiers:
            format_tiers(TieredOrdering({v: k for k, v in enumerate(labels)}))
        assert str(tiers.value) == message

    def test_round_trip_random_labels(self):
        """Labels of any non-whitespace characters but ``#``, among them
        the format's own tokens, read back as the same graph and ordering."""
        rng = np.random.default_rng(71)
        alphabet = [c for c in "abcXYZ019-><:.,;'\"{}()[]*αβé→" if c != "#"]
        tokens = ["->", "--", "nodes:", "tier", "1:", ":"]
        for _ in range(200):
            p = int(rng.integers(1, 25))
            labels = set()
            while len(labels) < p:
                if rng.random() < 0.2:
                    labels.add(str(rng.choice(tokens)))
                else:
                    labels.add("".join(rng.choice(alphabet, size=int(rng.integers(1, 5)))))
            names = list(labels)
            edges = [(names[i], names[j]) for i in range(p) for j in range(i + 1, p) if rng.random() < 0.2]
            cut = int(rng.integers(0, len(edges) + 1))
            g = PDAG(names, directed=edges[:cut], undirected=edges[cut:])
            back = parse_graph(format_graph(g))
            assert (back.nodes, back._pa, back._ch, back._ne) == (g.nodes, g._pa, g._ch, g._ne)
            tau = TieredOrdering({v: int(rng.integers(1, 4)) for v in names})
            assert parse_tiers(format_tiers(tau)) == tau


class TestByteOrderMark:
    """Files that start with a UTF-8 byte-order mark, as some Windows
    editors write them, read as the same files without it."""

    def test_marked_files_load_as_plain(self, tmp_path):
        for name, text, load in [
            ("g", "nodes: A B C\nA -> B\nB -- C\n", load_graph),
            ("t", "tier 1: A\ntier 2: B C\n", load_tiers),
        ]:
            plain, marked = tmp_path / f"{name}.txt", tmp_path / f"{name}_bom.txt"
            plain.write_bytes(text.encode())
            marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
            assert load(marked) == load(plain)
            if load is load_graph:
                outputs = []
                for path in (plain, marked):
                    buf = io.StringIO()
                    assert main(["validate", str(path)], out=buf) == 0
                    outputs.append(buf.getvalue())
                assert outputs[0] == outputs[1]

    def test_marked_non_utf8_file_is_refused(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xef\xbb\xbfnodes: A \xff\n")
        for load in (load_graph, load_tiers):
            with pytest.raises(GraphError) as info:
                load(bad)
            assert str(info.value) == f"{bad}: not UTF-8 text"
