"""Walkthrough: when is one tiered ordering worth more than another?

Orderings can differ yet orient exactly the same edges (one is then
redundant), or one can be strictly more informative.  Equivalence has a
graphical criterion: check the first cross-tier edges on earliest
unshielded paths, and the fully shielded cross-tier edges.
"""

from causaltiers import (
    PDAG,
    TieredOrdering,
    compare_refinement,
    cpdag_of,
    cross_tier_report,
    tiers_equivalent,
    tiers_more_informative,
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
cpdag = cpdag_of(truth)

three_waves = TieredOrdering.from_tiers([["A", "B"], ["C", "D", "E"], ["F", "G"]])
two_waves = TieredOrdering.from_tiers([["A", "B"], ["C", "D", "E", "F", "G"]])

# The three-wave ordering is strictly finer, yet adds nothing: every
# orientation it forces is already implied by the coarser one.
print("three waves vs two waves")
print("  refinement:", compare_refinement(three_waves, two_waves).verdict.value)
print("  equivalent:", tiers_equivalent(cpdag, three_waves, two_waves).equivalent)

report = cross_tier_report(cpdag, three_waves)
print("  earliest unshielded paths and their first cross-tier edges:")
for path, edges in zip(report.earliest_paths, report.first_edges):
    arrows = ", ".join(f"{u}->{v}" for u, v in sorted(edges))
    print(f"    {'-'.join(path)}   first: {arrows}")
print()

# Knowing C is early beats knowing more detail late: the five-tier
# ordering below cannot separate A and B from C, and loses A -> C.
fine_late = TieredOrdering.from_tiers([["A", "B", "C"], ["D", "E"], ["F"], ["G"]])
res = tiers_equivalent(cpdag, three_waves, fine_late)
print("three waves vs a finer-but-late ordering")
print("  equivalent:", res.equivalent)
print("  disagreeing edge:", "->".join(res.witness))
verdict = tiers_more_informative(cpdag, three_waves, fine_late)
print("  informativeness:", verdict.verdict.value)
print()

# In complete graphs nothing propagates: every cross-tier edge is
# bought directly, so no tiered knowledge is redundant there.
triangle = PDAG("ABC", undirected=[("A", "B"), ("B", "C"), ("A", "C")])
a_first = TieredOrdering.from_tiers([["A"], ["B", "C"]])
c_last = TieredOrdering.from_tiers([["A", "B"], ["C"]])
verdict = tiers_more_informative(triangle, a_first, c_last)
print("complete triangle: {A} < {B C}  vs  {A B} < {C}")
print("  informativeness:", verdict.verdict.value)
print("  (each ordering orients two edges, but different ones)")
