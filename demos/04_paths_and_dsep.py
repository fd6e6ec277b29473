"""Walkthrough: separation queries and causal-path reading.

Undirected paths in graphs built from tiered knowledge read exactly
like CPDAG paths: possibly causal unless an edge points backwards.
General background knowledge can break that reading by creating
partially directed cycles; the stricter b-notion then disagrees.
"""

from causaltiers import (
    PDAG,
    check_adjustment_equivalence,
    classify_b_possibly_causal,
    classify_possibly_causal,
    is_d_separated,
)

truth = PDAG(
    "ABCDEFG",
    directed=[
        ("A", "B"),
        ("A", "C"),
        ("B", "E"),
        ("C", "D"),
        ("C", "F"),
        ("D", "E"),
        ("F", "G"),
    ],
)

print("d-separation in the true DAG:")
for a, b, c in [("B", "D", {"C"}), ("B", "D", {"C", "E"}), ("A", "E", set())]:
    sep = is_d_separated(truth, {a}, {b}, c)
    given = ",".join(sorted(c)) or "nothing"
    print(f"  {a} vs {b} given {given}: {'separated' if sep else 'connected'}")
print()

mpdag = PDAG(
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
print("path verdicts in the tiered maximally oriented graph:")
for path in [("A", "C", "F", "G"), ("E", "D"), ("B", "A")]:
    plain = classify_possibly_causal(mpdag, path).value
    strict = classify_b_possibly_causal(mpdag, path).value
    print(f"  {' - '.join(path)}: {plain} / {strict}")
report = check_adjustment_equivalence(mpdag)
assert report.equivalent
print("  verdicts agree on every path (as they must)")
print()

# General knowledge can force an edge into a triangle and leave the rest
# undirected; B - C - A then looks traversable both ways but is not.
cyclic = PDAG("ABC", directed=[("A", "B")], undirected=[("A", "C"), ("C", "B")])
print("a graph with a partially directed cycle (A -> B, A - C - B):")
path = ("B", "C", "A")
print(
    f"  {' - '.join(path)}: "
    f"{classify_possibly_causal(cyclic, path).value} / "
    f"{classify_b_possibly_causal(cyclic, path).value}"
)
report = check_adjustment_equivalence(cyclic)
print(f"  first disagreeing path: {' - '.join(report.counterexample)}")
print("  tiered knowledge can never produce such a graph.")
