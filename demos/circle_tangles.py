"""
Circle separations: a submodular system that is not a universe
==============================================================

Bipartitions of a cyclically ordered set into two intervals are closed
under neither joins nor meets, yet crossing circle separations have all
four corners inside the system, which is enough for a canonical tree set
distinguishing all the circle tangles.
"""

from totkit.pipelines import (
    circle_pipeline,
    complete_cut_order,
    cycle_cut_order,
    efficiently_distinguishes_all,
)
from totkit.treedec import is_tree_set
from totkit.universes import enumerate_circle_separations

points = [1, 2, 3, 4]
universe, circle = enumerate_circle_separations(points)

# {1}|{2,3,4} and {3}|{4,1,2} are circle separations ...
a = universe.find(universe.mask_of([1]), universe.mask_of([2, 3, 4]))
b = universe.find(universe.mask_of([3]), universe.mask_of([4, 1, 2]))
print("members:", universe.uid(a) in circle.members, universe.uid(b) in circle.members)

# ... but their join {1,3}|{2,4} is not: the system is not a sub-universe
j = universe.join(a, b)
print("join:", universe.side_labels(j), "in circle system:", universe.uid(j) in circle.members)

# tangles avoid small subsets whose big sides share too few points;
# the canonical pipeline still produces an efficiently distinguishing tree set
points = [1, 2, 3, 4, 5, 6, 7, 8]
for name, fn in (("cycle cut", cycle_cut_order(points)), ("complete cut", complete_cut_order(points))):
    result = circle_pipeline(points, m=1, n=4, order_fn=fn)
    total = sum(len(lvl) for lvl in result.levels)
    print(f"{name}: {total} tangles, tree set of {len(result.nested)} circle separations")
    assert is_tree_set(result.universe, result.nested)
    assert efficiently_distinguishes_all(result.nested, result.family)
    for uid in sorted(result.nested)[:4]:
        a, b = result.universe.side_labels(uid)
        print(f"   {set(a)} | {set(b)}")
