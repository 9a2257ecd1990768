"""
Canonical extraction commutes with graph automorphisms
======================================================

The non-canonical extraction breaks ties by id order, so relabelling the
graph can change which separations it picks.  The canonical extraction
makes no choices at all: mapping the input family through any automorphism
maps the output the same way.  This script demonstrates both facts on a
star of triangles, whose automorphism group swaps the three arms.
"""

from totkit.profiles import build_distinguisher_family, enumerate_chain_profiles, graph_tangle_kind, maximal_profiles
from totkit.splinter import extract_canonical, extract_transversal, map_family
from totkit.universes import Graph, automorphisms, enumerate_graph_separations, lift_permutation, slice_chain

# three triangles glued to a centre vertex 0
arms = [(1, 2), (3, 4), (5, 6)]
edges = [(0, a) for arm in arms for a in arm] + [arm for arm in arms]
g = Graph(range(7), edges)
print(f"graph: {g.n} vertices, {g.n_edges} edges, |Aut| = {len(automorphisms(g))}")

u = enumerate_graph_separations(g)
levels = enumerate_chain_profiles(slice_chain(u), graph_tangle_kind(g))
tangles = maximal_profiles([t for lvl in levels for t in lvl])
print(f"maximal tangles: {len(tangles)} (one per triangle)")

family = build_distinguisher_family(tangles)
base = extract_canonical(family).nested
print("canonical nested set:")
for uid in sorted(base):
    a, b = u.side_labels(uid)
    print(f"  {set(a)} | {set(b)}")

# commutes with every automorphism, exactly
for perm in automorphisms(g):
    mapping = lift_permutation(u, perm)
    image = extract_canonical(map_family(family, mapping)).nested
    assert image == frozenset(u.uid(mapping[x]) for x in base)
print("N(alpha(family)) == alpha(N(family)) for every automorphism: ok")

# the non-canonical transversal also works, but its picks depend on id order
picks = extract_transversal(family).nested
print(f"non-canonical transversal picks {len(picks)} separations (tie-broken by id)")
