"""
A tree of tangles for two cliques joined by a bridge
====================================================

Walks the whole pipeline on the smallest interesting graph: two K4's
connected by a single edge.  Each K4 hosts a tangle, the bridge edge hosts
a third (every edge induces an order-2 tangle), and the pipeline produces a
nested set of separations distinguishing all three efficiently, realised as
a tree-decomposition.
"""

from totkit.corpus import two_cliques
from totkit.pipelines import efficiently_distinguishes_all, graph_pipeline
from totkit.treedec import decomposition_to_dot

g = two_cliques(4)
print(f"graph: {g.n} vertices, {g.n_edges} edges")

result = graph_pipeline(g)

# tangles per order slice: one of order 1 (the whole graph), three of order 2
# (each clique and the bridge edge), two of order 3 (the cliques only)
for threshold, level in zip(result.chain.thresholds, result.levels):
    print(f"  tangles orienting all separations of order <= {threshold}: {len(level)}")

print(f"maximal tangles: {len(result.profiles)}")

# the extracted nested set: every element efficiently distinguishes a pair
for uid in sorted(result.nested):
    a, b = result.universe.side_labels(uid)
    print(f"  separation {set(a)} | {set(b)}  (order {result.universe.order(uid)})")

# ... and the tree-decomposition it induces
print("bags:", {x: sorted(result.decomposition.bags[x]) for x in result.decomposition.nodes})
print("displays all maximal tangles:", efficiently_distinguishes_all(result.nested, result.family))

# the same structure as DOT, ready for graphviz
print(decomposition_to_dot(result.decomposition))
