"""One-line mutants of ``src/causaltiers`` and the tests that kill each.

Run from anywhere, with no options::

    python tests/mutants.py

Each mutant is a ``(file, old text, new text)`` triple whose old text occurs
exactly once in ``src/causaltiers/<file>`` (``tests/test_mutants.py`` checks
that on every run of the suite).  For the unmutated tree first and then for
each mutant alone, the script copies the repository to a temporary directory,
applies the mutant there, runs ``tests/`` (but ``test_mutants.py``) with ``-p
no:cacheprovider --hypothesis-seed=0``, so that no earlier run and no random
seed changes what fails, and prints the ids of the tests that fail: the
mutant's kill set.  Two
runs go at a time, and one that takes over ``TIMEOUT`` seconds is reported as
a hang, which is not a kill set: such a mutant is replaced by one that ends.

Every mutant of ``MUTANTS`` must be killed; every one of ``EQUIVALENT`` must
survive, as it changes no outcome on the inputs the library admits (each
comes with the reason); ``SURVIVORS`` are printed but not judged.  The exit
status is 1 if a mutant of the first two lists fails that, if a run hangs, or
if the unmutated tree fails a test.  A run of the whole list takes as long
as about 25 runs of the suite, so pytest does not collect this script and CI
does not run it.

The kill sets decide which oracles ``tests/oracles.py`` keeps: a replica (a
former implementation kept to compare against) stays only while some mutant
here is killed by its tests alone; a definition-level oracle always stays.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "causaltiers"
TIMEOUT = 1200  # seconds per run; the suite takes under two minutes
WORKERS = 2

#: mutants that change no outcome on admitted input, each with the reason
EQUIVALENT = [
    (("orientation.py", "return not pa[b] <= adj[c]", "return not pa[b] < adj[c]"),
     "rule 1 with a proper subset: b is in adj[c] but never in pa[b], so pa[b] is a "
     "subset of adj[c] iff it is a proper one"),
    (("orientation.py", "if len(pa[w]) == len(old[w]):", "if len(pa[w]) <= len(old[w]) + 1:"),
     "_require_no_new_v_structures skips a node with exactly one new parent x: x - w "
     "shares w's parents in c, so every old parent of w is a parent of x, adjacent to it"),
    (("orientation.py", "for i in u for j in ne[i])", "for i in u for j in ne[i] if i < j)"),
     "_shares_parents reads each edge from its lower end only: equality is symmetric and "
     "both ends of every undirected edge are in u"),
]

#: mutants that some test must kill
MUTANTS = [
    # orientation: Meek's rules and the closure
    ("orientation.py", "return any(b in pa[x] for x in pa[c])",
     "return any(c in pa[x] for x in pa[c])"),
    ("orientation.py", "return any(len(cand - adj[x]) > 1 for x in cand)",
     "return any(len(cand - adj[x]) > 2 for x in cand)"),
    ("orientation.py", "return any(not (ne[b] & pa[y]) <= adj[c] for y in cand)",
     "return any(not (ne[b] & pa[y]) <= adj[y] for y in cand)"),
    ("orientation.py", "fired.append((i, j) if forward else (j, i))",
     "fired.append((i, j) if backward else (j, i))"),
    ("orientation.py", "    if rule == 4:\n        ends.update(", "    if rule == 5:\n        ends.update("),
    ("orientation.py", "if len(trace) == before:", "if len(trace) >= before:"),
    # orientation: knowledge, consistency and the tiered pass
    ("orientation.py", "elif (v, u) in k.forbidden or (u, v) in k.required:",
     "elif (v, u) in k.forbidden:"),
    ("orientation.py", "for i in pa if tier[i] > tier[j])", "for i in pa if tier[i] >= tier[j])"),
    ("orientation.py", "if len(tiers) > len(names):", "if len(tiers) > len(names) + 1:"),
    ("orientation.py", "for j in ne[i] if tier[i] < tier[j]]", "for j in ne[i] if tier[i] <= tier[j]]"),
    ("orientation.py", "return all(pa[i] == pa[j] for", "return all(len(pa[i]) == len(pa[j]) for"),
    ("orientation.py", 'both = f" and {h} -> {t}" if forward and backward else ""', 'both = ""'),
    ("orientation.py", "        _require_chordal_part(c)\n        raise", "        raise"),
    # orientation: clique picking, the class and its listing
    ("orientation.py", "return sorted(members, key=lambda m: [j in m._pa[i] for i, j in edges])",
     "return sorted(members, key=lambda m: [i in m._pa[j] for i, j in edges])"),
    ("orientation.py", "s = ([set() if v in clique else set(x & clique)",
     "s = ([set() if v in clique else set()"),
    ("orientation.py", "key = frozenset(names[v] for v in comp)", "key = len(comp)"),
    ("orientation.py", "up.append(max((home[y] for y in before), default=None))",
     "up.append(min((home[y] for y in before), default=None))"),
    ("orientation.py", "for r in sorted(fp, key=len) + [clique]:",
     "for r in sorted(fp, key=len, reverse=True) + [clique]:"),
    ("orientation.py", "math.factorial(len(r - q)) * f[q]", "math.factorial(len(q)) * f[q]"),
    ("orientation.py", "for gaps in itr.product(range(len(qs) + 1), repeat=len(others)):",
     "for gaps in itr.product(range(len(qs) or 1), repeat=len(others)):"),
    ("orientation.py", "return Counter({x: m * k for k in b.values() for x, m in a.items()})",
     "return Counter({x: m + k - 1 for k in b.values() for x, m in a.items()})"),
    ("orientation.py", "out = Counter({parents: 1})", "out = Counter({parents: 2})"),
    # tiers
    ("tiers.py", "if ta < self.tier_of(b):", "if ta <= self.tier_of(b):"),
    ("tiers.py", "return [(t, tuple(groups[t])) for t in sorted(groups)]",
     "return [(t, tuple(groups[t])) for t in groups]"),
    ("tiers.py", "return all(map(operator.le, tiers, tiers[1:]))",
     "return all(map(operator.lt, tiers, tiers[1:]))"),
    ("tiers.py", "if i < j and nb - {j} == adj[j] - {i}]", "if i < j and nb == adj[j]]"),
    ("tiers.py", "key=tier.__getitem__):", "key=tier.__getitem__, reverse=True):"),
    ("tiers.py", "for c in ne[b] - ne[a]:", "for c in ne[b]:"),
    ("tiers.py", "f if f <= (g := reach[b][a]) else g", "f if f <= (g := reach[b][a]) else f"),
    ("tiers.py", "if tier[x] == f < tier[y]}", "if tier[x] == f <= tier[y]}"),
    ("tiers.py", "return all(floor[b][x] < floor[a][b] for", "return all(floor[b][x] <= floor[a][b] for"),
    ("tiers.py", "if (tx == m) != (ty == m)", "if tx != ty"),
    ("tiers.py", "elif b > s and got:", "elif got:"),
    ("tiers.py", "key=lambda path: (rank[path[0]], path[0], path[-1])",
     "key=lambda path: (path[0], path[-1])"),
    ("tiers.py", "witness = min(((names[u], names[v]) for u, v in diff if label[u] == k), key=str)",
     "witness = max(((names[u], names[v]) for u, v in diff if label[u] == k), key=str)"),
    ("tiers.py", "else Informativeness.MORE_INFORMATIVE if contained_in(g1, g2)",
     "else Informativeness.MORE_INFORMATIVE if contained_in(g2, g1)"),
    ("tiers.py", "condition_iv=s1.count(None) < s2.count(None)",
     "condition_iv=s1.count(None) <= s2.count(None)"),
    ("tiers.py", "all(map(operator.le, g2._pa, g1._pa))", "all(map(operator.ge, g2._pa, g1._pa))"),
    # graphs
    ("graphs.py", "key = i * n + j if i < j else j * n + i", "key = i * n + j"),
    ("graphs.py", "if len(ne[v]) != len(new_ne[v]):", "if len(ne[v]) < len(new_ne[v]) - 1:"),
    ("graphs.py", "return self._pa == other._pa and self._ne == other._ne",
     "return self._pa == other._pa"),
    ("graphs.py", "cpa[k] += [label[i] for i in self._pa[v]]", "cpa[k] += list(self._pa[v])"),
    ("graphs.py", "u = min(later, key=lambda w: number[w])", "u = max(later, key=lambda w: number[w])"),
    ("graphs.py", "                if j not in adj[i]:", "                if j in adj[i]:"),
    ("graphs.py", "v = min(u for u in pa[v] if u in left)", "v = max(u for u in pa[v] if u in left)"),
    # independence
    ("independence.py", "if compelled[x] <= ps and len(ps - pa[x]) == 1:",
     "if compelled[x] <= ps and len(ps - pa[x]) <= 2:"),
    ("independence.py", "x = max(ps, key=rank.__getitem__)", "x = min(ps, key=rank.__getitem__)"),
    # ida
    ("ida.py", "ParentSetMultiset(frozenset(g._labels(g._pa[i] | c)) for c in cliques)",
     "ParentSetMultiset(frozenset(g._labels(c)) for c in cliques)"),
    ("ida.py", "ne = [nb if label[v] in keep else () for v, nb in enumerate(g._ne)]",
     "ne = list(g._ne)"),
    # paths
    ("paths.py", "if g.has_directed(path[j], path[i]):",
     "if g.has_directed(path[j], path[i]) and j == i + 1:"),
    ("paths.py", "step = [sorted(ch | ne) for", "step = [sorted(ch) for"),
    ("paths.py", "        for v in sorted(heads):", "        for v in sorted(heads, reverse=True):"),
    # formats
    ("formats.py", "if len(index) != len(nodes):", "if len(index) < len(nodes) - 1:"),
    ("formats.py", 'r"[+-]?[0-9]+"', 'r"[+-]?[0-9_]+"'),
    # simulation
    ("simulation.py", "degree / (p - 1), []", "degree / p, []"),
    ("simulation.py", "if tree[j + step] <= rest:", "if tree[j + step] < rest:"),
    ("simulation.py", "if _pair_distance_cdf(mid) < target:", "if _pair_distance_cdf(mid) <= target / 2:"),
    # cli
    ("cli.py", "    if value < 1:", "    if value < 0:"),
    ("cli.py", '        sys.stderr.write(f"error: {exc}\\n")\n        return 1',
     '        sys.stderr.write(f"error: {exc}\\n")\n        return 2'),
    # the package's lazy names
]


#: mutants that no test kills yet and that are not shown equivalent: each is
#: a gap for a new test to close (then it moves to MUTANTS) or an equivalence
#: to prove (then it moves to EQUIVALENT, with the reason)
SURVIVORS = [
    ("orientation.py", "            if unlinked:", "            if len(unlinked) > 1:"),
    ("orientation.py", "and (not search or g._non_simplicial() is None)",
     "and (search or g._non_simplicial() is None)"),
    ("orientation.py", "_require_invariants(g, s, not out, u)", "_require_invariants(g, s, False, u)"),
    ("independence.py", "            if v in anc_c:", "            if v in sc:"),
    ("ida.py", "cliques += [c | {w} for c in cliques if c <= g._ne[w]]",
     "cliques += [c | {w} for c in cliques]"),
    ("__init__.py", "if name not in __all__:", "if name.startswith('_'):"),
]

#: every mutant, the equivalent ones first, and their labels
ALL = [triple for triple, _ in EQUIVALENT] + MUTANTS + SURVIVORS
LABELS = ([f"E{k}" for k in range(1, len(EQUIVALENT) + 1)]
          + [f"M{k}" for k in range(1, len(MUTANTS) + 1)]
          + [f"S{k}" for k in range(1, len(SURVIVORS) + 1)])


def occurrences(triple, src: Path = SRC) -> int:
    """How often the old text of ``triple`` occurs in its module of ``src``."""
    name, old, _ = triple
    return (src / name).read_text(encoding="utf-8").count(old)


def apply(triple, src: Path) -> None:
    """Write the mutant ``triple`` into the tree ``src``, where its old text
    must occur exactly once."""
    name, old, new = triple
    if occurrences(triple, src) != 1:
        raise ValueError(f"{name}: {old!r} occurs {occurrences(triple, src)} times")
    path = src / name
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")


def failing_tests(triple) -> list[str] | None:
    """The ids of the tests that fail with ``triple`` applied to a copy of
    the repository (none applied if ``triple`` is None); None on a hang."""
    skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=skip)
        if triple is not None:
            apply(triple, copy / "src" / "causaltiers")
        command = [sys.executable, "-m", "pytest", "tests", "-q", "-rfE", "--no-header",
                   "-p", "no:cacheprovider", "--hypothesis-seed=0",
                   "--ignore=tests/test_mutants.py"]  # it fails on every mutant by design
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return None
    ids = []
    for line in done.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR"):
            ids.append(rest.split(" - ", 1)[0])
    return sorted(set(ids))


def describe(triple) -> str:
    name, old, new = triple
    return f"{name}: {old!r} -> {new!r}"


def main() -> int:
    stale = [triple for triple in ALL if occurrences(triple) != 1]
    if stale:
        print("old text not found exactly once:" + "".join(f"\n  {describe(t)}" for t in stale))
        return 1
    with ThreadPoolExecutor(WORKERS) as pool:
        baseline, *results = pool.map(failing_tests, [None, *ALL])
    bad = baseline is None or bool(baseline)
    if bad:
        print(f"unmutated tree: {'hang' if baseline is None else ', '.join(baseline)}")
    for label, triple, killed in zip(LABELS, ALL, results):
        equivalent = label.startswith("E")
        print(f"{label} {describe(triple)}")
        if killed is None:
            print("  hang")
            bad = True
            continue
        killed = [t for t in killed if t not in (baseline or ())]
        print(f"  killed by {len(killed)}" + "".join(f"\n    {t}" for t in killed))
        if not label.startswith("S"):
            bad |= bool(killed) == equivalent
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
