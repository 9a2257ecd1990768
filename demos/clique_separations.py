"""
Clique separations and hole/clique profiles
===========================================

A clique separation has a complete separator.  Profiles of the clique
slices point at holes and cliques; the canonical pipeline returns a nested
set of clique separations distinguishing all of them efficiently, i.e. a
tree-decomposition with clique adhesion sets.
"""

from totkit.corpus import is_chordal
from totkit.pipelines import clique_pipeline, efficiently_distinguishes_all
from totkit.universes import Graph

# two triangles and a square sharing cut vertices: holes and cliques mix
g = Graph(
    range(1, 9),
    [
        (1, 2), (2, 3), (1, 3),          # triangle
        (3, 4),                          # bridge
        (4, 5), (5, 6), (6, 7), (7, 4),  # square = a hole
        (7, 8), (8, 1),
    ],
)
print(f"graph: {g.n} vertices, {g.n_edges} edges, chordal: {is_chordal(g)}")

result = clique_pipeline(g)
print(f"profiles across clique slices: {len(result.profiles)}")
print(f"nested set ({len(result.nested)} clique separations):")
for uid in sorted(result.nested):
    a, b = result.universe.side_labels(uid)
    sep = sorted(set(a) & set(b))
    print(f"  {set(a)} | {set(b)}   adhesion {sep}")

print("bags:", {x: sorted(result.decomposition.bags[x]) for x in result.decomposition.nodes})
print("efficiently distinguishes every pair:", efficiently_distinguishes_all(result.nested, result.family))
