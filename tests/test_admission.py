"""One admission per input: the tiered pass takes all of an input's
orderings, runs the shared-parents gate once and, with two or more
orderings, searches the input's undirected part instead of each result;
with one, it searches the result, and the input only if the pass fails.

Checked against ``oracles.orient_tiered_each``, one whole pass per ordering
in turn; by the converse (an input that shares parents but has a non-chordal
undirected part fails every pass, so each refuses it alike); and by counting
the gate and the chordality search per input."""

import io
import itertools as itr
from collections import Counter

import numpy as np
import pytest

from causaltiers import (PDAG, GraphError, SimCell, TieredOrdering, class_size, cli,
                         enumerate_class, joint_ida, local_ida, orientation, simulation,
                         tiered_mpdag, tiers)
from causaltiers.formats import format_graph, format_tiers
from causaltiers.orientation import MEEK_RULES, InvariantError
from causaltiers.simulation import TIER_SCHEMES, run_cell
from causaltiers.tiers import cross_tier_report

from conftest import (
    cycle_close,
    inner_arc_close,
    no_op_close,
    random_chordal,
    random_coarsening,
    random_cpdag_and_tau,
    reordered,
)
from oracles import orient_tiered_each, require_chordal_part


def shared_parents_input(rng, chordal: bool):
    """A PDAG of 4-8 nodes whose undirected edges have the same parents at
    both ends, and whose undirected part is chordal or not as asked: an
    undirected graph on 4 or more of the nodes, redrawn until it is; the
    other nodes in a random order, each pair an arc along it with chance
    1/2, and each a parent of a whole undirected component with chance 1/2.
    Returns the PDAG and its nodes in a topological order."""
    p = int(rng.integers(4, 9))
    names = [f"V{k}" for k in rng.permutation(p)]
    split = int(rng.integers(0, p - 3))
    outer, inner = names[:split], names[split:]
    while True:
        pairs = [e for e in itr.combinations(inner, 2) if rng.random() < 0.5]
        h = PDAG(inner, undirected=pairs)
        if (h._non_simplicial() is None) == chordal:
            break
    arcs = [e for e in itr.combinations(outer, 2) if rng.random() < 0.5]
    for component in h.chain_components():
        arcs += [(o, v) for o in outer if rng.random() < 0.5 for v in component]
    return PDAG(sorted(names, key=lambda v: int(v[1:])), directed=arcs, undirected=pairs), names


def consistent_tiers(rng, c, order):
    """Tiers of 1-4 levels that no arc of ``c`` contradicts: a random level per
    node, raised to its parents' highest, along the topological ``order``."""
    tier = {}
    for v in order:
        tier[v] = max([int(rng.integers(1, 5))] + [tier[u] for u in c.parents_of(v)])
    return TieredOrdering(tier)


def draw_case(rng, trial):
    """An input and five orderings.  The input is a CPDAG, a tiered MPDAG, or
    a PDAG that shares parents but is no CPDAG, its undirected part chordal
    or not; the orderings are cut from a DAG's order, consistent with the
    input's arcs, or drawn at random."""
    kind = trial % 4
    if kind < 2:
        c, _, _ = random_cpdag_and_tau(rng, int(rng.integers(2, 30)), 3.0)
        order = c.nodes  # the DAG's arcs ascend in label order
        if kind == 1:
            c = tiered_mpdag(c, random_coarsening(rng, c.num_nodes))
    else:
        c, order = shared_parents_input(rng, chordal=kind == 2)
    orderings = []
    for _ in range(5):
        draw = rng.random()
        if draw < 0.4 and kind < 2:
            orderings.append(random_coarsening(rng, c.num_nodes))
        elif draw < 0.8:
            orderings.append(consistent_tiers(rng, c, order))
        else:
            orderings.append(TieredOrdering({v: int(rng.integers(-2, 3)) for v in c.nodes}))
    return c, orderings


def outcome(run):
    """Each result's sets and trace, or the exception type and message."""
    try:
        results = run()
    except GraphError as exc:
        return type(exc), str(exc)
    return [(g.nodes, g._pa, g._ch, g._ne, trace) for g, trace in results]


KINDS = ("not a CPDAG:", "not a CPDAG or tiered MPDAG", "chordality", "rule-1 sufficiency",
         "partially directed cycle", "ordering creates", "ordering contradicts", "rules orient")


def kind_of(got) -> str:
    """"answered", or which refusal or failure ``got`` is."""
    if isinstance(got, list):
        return "answered"
    return next((kind for kind in KINDS if got[1].startswith(kind)), got[1])


def both(c, orderings, rules):
    """The pass's outcome, checked against one pass per ordering: the
    oracle's, and the pass's own one-ordering runs in turn."""
    got = outcome(lambda: orientation._orient_tiered(c, orderings, rules))
    assert got == outcome(lambda: orient_tiered_each(c, orderings, rules)), (c, orderings)
    in_turn = lambda: [orientation._orient_tiered(c, (t,), rules)[0] for t in orderings]
    assert got == outcome(in_turn), (c, orderings)
    return got


class TestOnePassPerInput:
    def test_matches_one_pass_per_ordering(self):
        """k = 1, 2 and 5 orderings of CPDAGs, tiered MPDAGs and admitted
        PDAGs, under rule 1 and rules 1-4: the same graphs and traces, or
        the same exception type and message.  No honest pass fails its
        invariant checks: a non-chordal input is refused as such."""
        rng = np.random.default_rng(241)
        seen = Counter()
        for trial in range(800):
            c, orderings = draw_case(rng, trial)
            for k, rules in itr.product((1, 2, 5), ((1,), MEEK_RULES)):
                seen[k > 1, kind_of(both(c, orderings[:k], rules))] += 1
        assert min(seen[several, "answered"] for several in (False, True)) > 600, seen
        assert seen[True, "not a CPDAG:"] > 600 and seen[False, "not a CPDAG:"] > 300, seen
        invariants = ("chordality", "rule-1 sufficiency", "partially directed cycle")
        assert not [kind for _, kind in seen if kind in invariants], seen
        for kind in ("ordering creates", "ordering contradicts", "rules orient"):
            assert min(seen[several, kind] for several in (False, True)) > 20, seen

    @pytest.mark.parametrize("stub", [no_op_close, inner_arc_close], ids=["no-op", "inner-arc"])
    def test_faulty_closure_is_caught_alike(self, monkeypatch, stub):
        """A closure that orients nothing, or one more arc on a triangle of
        a chain component, gives the pass and one pass per ordering the
        same outcome; where the honest pass answers and the faulty result
        differs, that outcome is an InvariantError, also with no result
        searched (k >= 2)."""
        rng = np.random.default_rng(243)
        cases = [draw_case(rng, trial) for trial in range(1500)]
        honest = [outcome(lambda: orientation._orient_tiered(c, orderings[:k], (1,)))
                  for c, orderings in cases for k in (1, 2, 5)]
        monkeypatch.setattr(orientation, "_close", stub)
        caught = Counter()
        faulty = [both(c, orderings[:k], (1,)) for c, orderings in cases for k in (1, 2, 5)]
        for k, before, after in zip(itr.cycle((1, 2, 5)), honest, faulty):
            if isinstance(before, list) and after != before:
                assert after[0] is InvariantError, after
                caught[k] += 1
        assert min(caught.values()) > 20 and len(caught) == 3, caught

    def test_directed_cycle_is_caught_alike(self, monkeypatch):
        """A closure that orients a triangle of one tier into a directed
        cycle, on chordal graphs, under one, two and five orderings: the
        same refusal, always an InvariantError: the rule scan that names a
        witness reports an edge that fires both ways as a witness too, not
        as knowledge that is inconsistent."""
        rng = np.random.default_rng(245)
        monkeypatch.setattr(orientation, "_close", cycle_close)
        seen = Counter()
        while sum(seen.values()) < 180:
            g = random_chordal(rng, int(rng.integers(3, 10)))
            ne = g._ne
            triangle = next(((i, j, k) for i, nb in enumerate(ne) for j in nb for k in ne[i] & ne[j]
                             if i < j < k), None)
            if triangle is None:
                continue
            first = [g.nodes[i] for i in triangle]
            g = reordered(g, first + [v for v in g.nodes if v not in first])
            orderings = [TieredOrdering({v: 0 if v in first else int(rng.integers(-1, 2))
                                         for v in g.nodes}) for _ in range(5)]
            for k in (1, 2, 5):
                got = both(g, orderings[:k], MEEK_RULES)
                assert not isinstance(got, list), got
                seen[got[0].__name__] += 1
        assert seen["InvariantError"] == 180, seen

    def test_non_chordal_inputs_fail_every_pass(self, monkeypatch):
        """The converse (``orientation._require_chordal_part``): inputs that
        share parents and have a non-chordal undirected part, under tiers
        of 1-4 levels their arcs respect, fail every pass, with one ordering
        and with two, under rule 1 and rules 1-4, and each pass refuses them
        as such.  With one, the failure that sends the pass to the input's
        search is the result's search, or a new v-structure, or rule 1
        orienting an edge both ways as it carries a parent along a sink run:
        with the input's search stubbed out, those leave instead."""
        rng = np.random.default_rng(247)
        seen = Counter()
        cases = []
        for _ in range(600):
            c, order = shared_parents_input(rng, chordal=False)
            t1, t2 = consistent_tiers(rng, c, order), consistent_tiers(rng, c, order)
            cases += [(c, orderings, rules) for orderings, rules
                      in itr.product(((t1,), (t2,), (t1, t2)), ((1,), MEEK_RULES))]
        for c, orderings, rules in cases:
            with pytest.raises(GraphError) as info:
                orientation._orient_tiered(c, orderings, rules)
            seen[len(orderings), kind_of((None, str(info.value)))] += 1
        assert seen == {(1, "not a CPDAG:"): 2400, (2, "not a CPDAG:"): 1200}, seen
        monkeypatch.setattr(orientation, "_require_chordal_part", lambda c: None)
        seen.clear()
        for c, orderings, rules in cases:
            if len(orderings) == 1:
                with pytest.raises(GraphError) as info:
                    orientation._orient_tiered(c, orderings, rules)
                seen[kind_of((None, str(info.value)))] += 1
        for kind in ("chordality", "ordering creates", "rules orient"):
            assert seen[kind] > 200, seen


class TestOneDomain:
    def test_every_entry_refuses_a_non_chordal_part_alike(self, tmp_path, capsys):
        """The undirected square and 300 inputs that share parents but have
        a non-chordal undirected part, under random compatible orderings and
        queries: every function and subcommand that takes a CPDAG or tiered MPDAG
        refuses each with the same one line, a plain ``GraphError`` (CLI
        exit 1, nothing on stdout, that line on stderr)."""
        rng = np.random.default_rng(259)
        square = PDAG("abcd", undirected=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        cases = [(square, square.nodes)]
        cases += [shared_parents_input(rng, chordal=False) for _ in range(300)]
        graph, t1_file, t2_file = (tmp_path / name for name in ("g.txt", "t1.txt", "t2.txt"))
        for c, order in cases:
            with pytest.raises(GraphError) as info:
                require_chordal_part(c)
            want = str(info.value)
            assert want.startswith("not a CPDAG: the undirected part is not chordal at "), want
            t1 = consistent_tiers(rng, c, order)
            merged = np.cumsum(rng.integers(0, 2, size=5))  # a coarsening: compatible
            t2 = TieredOrdering({v: int(merged[t]) for v, t in t1.assignment.items()})
            x, y = (c.nodes[i] for i in rng.choice(c.num_nodes, size=2, replace=False))
            calls = [
                lambda: tiered_mpdag(c, t1),
                lambda: tiers.tiers_equivalent(c, t1, t2),
                lambda: tiers.tiers_more_informative(c, t1, t2),
                lambda: cross_tier_report(c, t1),
                lambda: class_size(c),
                lambda: enumerate_class(c),
                lambda: local_ida(c, x),
                lambda: joint_ida(c, [x, y]),
            ]
            for k, call in enumerate(calls):
                with pytest.raises(GraphError) as info:
                    call()
                assert (type(info.value), str(info.value)) == (GraphError, want), (k, c)
            graph.write_text(format_graph(c), encoding="utf-8")
            t1_file.write_text(format_tiers(t1), encoding="utf-8")
            t2_file.write_text(format_tiers(t2), encoding="utf-8")
            for argv in (["orient", graph, "--tiers", t1_file, "--rules", "1"],
                         ["orient", graph, "--tiers", t1_file, "--rules", "all"],
                         ["compare-tiers", graph, t1_file, t2_file],
                         ["ida", graph, "--x", x], ["ida", graph, "--joint", f"{x},{y}"]):
                out = io.StringIO()
                code = cli.main(list(map(str, argv)), out=out)
                got = code, out.getvalue(), capsys.readouterr().err
                assert got == (1, "", f"error: {want}\n"), argv

    @pytest.mark.parametrize("graph, order, want", [
        (PDAG("abcd", undirected=[("a", "b"), ("b", "c")]), "abc",
         "ordering does not cover nodes ['d']"),
        (PDAG("abc", directed=[("a", "b"), ("c", "b")]), "abc",
         "ordering contradicts directed edges: c->b"),
        (PDAG("abcd", undirected=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]), "abcd",
         "not a CPDAG: the undirected part is not chordal at d"),
        (PDAG("abc", directed=[("c", "b")], undirected=[("a", "b"), ("a", "c")]), "abc",
         "not a CPDAG or tiered MPDAG: the ends of a - b have different parents"),
        (PDAG("abc", undirected=[("a", "b"), ("b", "c")]), "abc", None),
    ])
    def test_comparisons_share_one_domain(self, graph, order, want, tmp_path, capsys):
        """Under orderings that order every pair oppositely,
        ``tiers_equivalent``, ``tiers_more_informative`` and ``compare-tiers``
        refuse an input with the same one line when both orderings miss a
        node, one contradicts an arc, the undirected part is not chordal, or
        an undirected edge joins nodes with different parents; on a CPDAG
        all three answer."""
        t1 = TieredOrdering.from_tiers([[v] for v in order])
        t2 = TieredOrdering.from_tiers([[v] for v in reversed(order)])
        for compare in (tiers.tiers_equivalent, tiers.tiers_more_informative):
            try:
                compare(graph, t1, t2)
                got = None
            except GraphError as exc:
                got = str(exc)
            assert got == want, compare
        files = [tmp_path / name for name in ("g.txt", "t1.txt", "t2.txt")]
        for path, text in zip(files, (format_graph(graph), format_tiers(t1), format_tiers(t2))):
            path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        code = cli.main(["compare-tiers", *map(str, files)], out=out)
        err = capsys.readouterr().err
        if want is None:
            assert (code, err) == (0, "") and out.getvalue().startswith("equivalence: different\n")
        else:
            assert (code, out.getvalue(), err) == (1, "", f"error: {want}\n")


def counted(monkeypatch):
    """Lists that grow by the graph each chordality search runs on, and by
    one entry per shared-parents test."""
    searched, tested = [], []
    search, test = PDAG._non_simplicial, orientation._shares_parents
    monkeypatch.setattr(PDAG, "_non_simplicial", lambda g: searched.append(g) or search(g))
    monkeypatch.setattr(orientation, "_shares_parents",
                        lambda pa, ne, u: tested.append(1) or test(pa, ne, u))
    return searched, tested


def listings(monkeypatch):
    """Lists that grow by the input of each tiered pass, and by the graph each
    listing of the nodes with an undirected edge is made for."""
    inputs, listed = [], []
    walk, orient = PDAG._with_neighbours, orientation._orient_tiered
    monkeypatch.setattr(PDAG, "_with_neighbours",
                        lambda g: (g._u is None and listed.append(g)) or walk(g))
    for module in (cli, simulation, tiers):
        monkeypatch.setattr(module, "_orient_tiered",
                            lambda c, *args, **kw: inputs.append(c) or orient(c, *args, **kw))
    return inputs, listed


class TestCallCounts:
    def test_one_listing_per_input(self, monkeypatch, tmp_path):
        """One tiered pass lists its input's nodes with an undirected edge once,
        whatever the number of orderings: CLI ``orient`` (one), ``compare-tiers``
        (two) and the simulation (five per CPDAG); no graph is listed twice."""
        rng = np.random.default_rng(257)
        files = [tmp_path / name for name in ("g.txt", "t1.txt", "t2.txt")]
        for _ in range(20):
            p = int(rng.integers(3, 20))
            c = random_cpdag_and_tau(rng, p, 3.0)[0]
            texts = format_graph(c), *(format_tiers(random_coarsening(rng, p)) for _ in "12")
            for path, text in zip(files, texts):
                path.write_text(text, encoding="utf-8")
            for argv in (["orient", str(files[0]), "--tiers", str(files[1])],
                         ["compare-tiers", *map(str, files)]):
                inputs, listed = listings(monkeypatch)
                assert cli.main(argv, out=io.StringIO()) == 0
                assert len(inputs) == 1 and inputs[0] == c and listed[0] is inputs[0]
                assert len(set(map(id, listed))) == len(listed)
                monkeypatch.undo()
        inputs, listed = listings(monkeypatch)
        assert len(run_cell(SimCell(25, "dense", "er"), list(TIER_SCHEMES), 4, seed=3)) == 20
        assert len(inputs) == 4 and len(set(map(id, listed))) == len(listed)
        assert all(sum(g is c for g in listed) == 1 for c in inputs)

    def test_compare_tiers_searches_the_input_once(self, monkeypatch, tmp_path):
        """Each compare-tiers op, on bands and on random CPDAGs under orderings
        cut from one order: one chordality search, of the input, and three
        shared-parents tests, one on the input and one per result."""
        rng = np.random.default_rng(249)
        files = [tmp_path / name for name in ("g.txt", "t1.txt", "t2.txt")]
        for trial in range(40):
            p = int(rng.integers(4, 16))
            if trial % 2:
                c = random_cpdag_and_tau(rng, p, 3.0)[0]
            else:
                names = [f"V{k}" for k in range(p)]
                width = int(rng.integers(1, 4))
                c = PDAG(names, undirected=[(names[i], names[j]) for i in range(p)
                                            for j in range(i + 1, min(p, i + width + 1))])
            texts = format_graph(c), *(format_tiers(random_coarsening(rng, p)) for _ in "12")
            for path, text in zip(files, texts):
                path.write_text(text, encoding="utf-8")
            searched, tested = counted(monkeypatch)
            assert cli.main(["compare-tiers", *map(str, files)], out=io.StringIO()) == 0
            assert len(searched) == 1 and searched[0] == c and len(tested) == 3
            monkeypatch.undo()

    def test_simulation_searches_each_cpdag_once(self, monkeypatch):
        """Per simulated CPDAG under the five schemes: one search and six
        shared-parents tests; under one scheme, one search, of the result."""
        cell = SimCell(25, "dense", "er")
        searched, tested = counted(monkeypatch)
        records = run_cell(cell, list(TIER_SCHEMES), 4, seed=3)
        assert len(records) == 20 and len(searched) == 4 and len(tested) == 24
        searched.clear()
        tested.clear()
        records = run_cell(cell, "late2", 4, seed=3)
        assert len(searched) == 4 and len(tested) == 8
        assert [sum(map(len, g._pa)) for g in searched] == [r.n_dir_mpdag for r in records]

    def test_one_ordering_searches_the_result(self, monkeypatch, tmp_path):
        """``tiered_mpdag`` and CLI ``orient`` search the result, once."""
        rng = np.random.default_rng(251)
        graph, tiers = tmp_path / "g.txt", tmp_path / "t.txt"
        for _ in range(20):
            c, tau, _ = random_cpdag_and_tau(rng, int(rng.integers(3, 20)), 3.0)
            searched, tested = counted(monkeypatch)
            g = tiered_mpdag(c, tau)
            assert len(searched) == 1 and searched[0] is g and len(tested) == 2
            graph.write_text(format_graph(c), encoding="utf-8")
            tiers.write_text(format_tiers(tau), encoding="utf-8")
            out = io.StringIO()
            assert cli.main(["orient", str(graph), "--tiers", str(tiers)], out=out) == 0
            assert len(searched) == 2 and format_graph(searched[1]) == out.getvalue()
            monkeypatch.undo()

    def test_cross_tier_report_searches_the_result_once(self, monkeypatch):
        """``cross_tier_report`` admits its input once, by its one-ordering
        pass, on bands under three tiers and on random CPDAGs: one chordality
        search, of the result, and two shared-parents tests, the gate and the
        result's certificate."""
        rng = np.random.default_rng(253)
        for trial in range(30):
            if trial % 2:
                c, tau, _ = random_cpdag_and_tau(rng, int(rng.integers(3, 16)), 3.0)
            else:
                names = [f"V{k}" for k in range(8)]
                width = int(rng.integers(1, 4))
                c = PDAG(names, undirected=[(names[i], names[j]) for i in range(8)
                                            for j in range(i + 1, min(8, i + width + 1))])
                tau = TieredOrdering({v: 1 + 3 * k // 8 for k, v in enumerate(names)})
            result = tiered_mpdag(c, tau)
            searched, tested = counted(monkeypatch)
            cross_tier_report(c, tau)
            assert len(searched) == 1 and searched[0] == result and len(tested) == 2
            monkeypatch.undo()

    def test_cross_tier_report_refuses_as_before(self):
        """The report refuses what the domain check and then a whole
        one-ordering pass refuse, with the same type and message, on
        the inputs above and, one in five, with an arc into one end of an
        undirected edge."""
        rng = np.random.default_rng(255)
        seen = Counter()
        for trial in range(600):
            c, orderings = draw_case(rng, trial)
            if c.num_nodes > 16:
                continue
            if trial % 5 == 0 and c._with_neighbours():  # an arc into one end of an edge
                head = c.nodes[c._with_neighbours()[0]]
                c = PDAG([*c.nodes, "Z"], directed=[*c.directed_edges, ("Z", head)],
                         undirected=c.undirected_edges)
                orderings = [TieredOrdering({**tau.assignment, "Z": 0}) for tau in orderings]
            for tau in orderings[:2]:
                want = outcome(lambda: require_chordal_part(c) or orient_tiered_each(c, (tau,), (1,)))
                got = outcome(lambda: [(cross_tier_report(c, tau).graph, [])])
                if isinstance(want, list):
                    assert isinstance(got, list), got
                else:
                    assert got == want
                seen[kind_of(want)] += 1
        assert seen["answered"] > 100 and seen["not a CPDAG:"] > 50, seen
        for kind in ("not a CPDAG or tiered MPDAG", "ordering creates", "ordering contradicts"):
            assert seen[kind] > 5, seen
