"""Walkthrough: candidate parent sets across a restricted class.

For effect estimation one adjustment set per candidate DAG is enough;
the multiset of possible parent sets delivers exactly that.  On graphs
built from tiered knowledge the classic local and joint procedures
apply as-is, because undirected components can be oriented without
looking at the rest of the graph.
"""

from causaltiers import (
    PDAG,
    TieredOrdering,
    class_size,
    cpdag_of,
    enumerate_class,
    joint_ida,
    local_ida,
    tiered_mpdag,
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
g = tiered_mpdag(
    cpdag_of(truth),
    TieredOrdering.from_tiers([["A", "B"], ["C", "D", "E"], ["F", "G"]]),
)

# The restricted class is tiny: only A -- B is still free.  class_size
# counts the members without listing them.
members = enumerate_class(g)
print(f"restricted class has {len(members)} DAGs (class_size: {class_size(g)}):")
for m in members:
    print("  ", "A -> B" if m.has_directed("A", "B") else "B -> A")
print()

# Possible parent sets of B, found locally (no enumeration needed).
print("local candidate parent sets of B:")
for entry, mult in sorted(local_ida(g, "B"), key=str):
    label = "{" + ",".join(sorted(entry)) + "}"
    print(f"  {label} x{mult}")
print()

# Joint parent sets for the pair (A, B): the two class members give the
# two consistent assignments.
print("joint candidate parent sets of (A, B):")
for entry, mult in sorted(joint_ida(g, ["A", "B"]), key=str):
    label = ", ".join("{" + ",".join(sorted(s)) + "}" for s in entry)
    print(f"  ({label}) x{mult}")
