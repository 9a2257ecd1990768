"""Concrete universes: graph separations, cliques, circles, chains, automorphisms."""

import dataclasses
import random
import re
from itertools import combinations, permutations, product

import pytest

from totkit import corpus
from totkit.errors import HierarchicalConditionError, SeparationError, SizeBoundError
from totkit.pipelines import circle_pipeline
from totkit.sepsys import Universe
from totkit.universes import (
    Graph,
    SubsystemChain,
    automorphism_generators,
    automorphisms,
    bipartition_universe,
    chain_of,
    check_submodular_order,
    clique_subsystem,
    complete_cut_order,
    cut_order_fn,
    cycle_cut_order,
    enumerate_circle_separations,
    enumerate_clique_separations,
    enumerate_graph_separations,
    is_interval_mask,
    lift_permutation,
    permute_mask,
    slice_chain,
)

from oracles import (
    all_graphs,
    corner_items,
    is_clique_separation,
    is_compatible_sequence,
    is_submodular_order,
    levels_of,
    oid,
    pairwise_distinguishes_all,
    restrict_Sk,
    trees,
)


def brute_force_separations(g):
    """Oracle: filter all 3^|V| side assignments with plain set logic."""
    out = set()
    verts = list(g.vertices)
    for assign in product((0, 1, 2), repeat=len(verts)):
        A = {v for v, a in zip(verts, assign) if a in (0, 2)}
        B = {v for v, a in zip(verts, assign) if a in (1, 2)}
        ok = True
        for u, v in g.edges:
            if (u in A - B and v in B - A) or (v in A - B and u in B - A):
                ok = False
                break
        if ok:
            out.add((frozenset(A), frozenset(B)))
    return out


@pytest.mark.parametrize(
    "g",
    [
        Graph([1, 2]),
        Graph([1, 2], [(1, 2)]),
        corpus.path_graph(4),
        corpus.cycle_graph(5),
        corpus.complete_graph(4),
        corpus.star_graph(4),
        Graph([]),
        Graph([1]),
        Graph([1, 2, 3, 4]),
        Graph([1, 2, 3, 4, 5], [(1, 2), (3, 4)]),
        corpus.complete_graph(5),
        corpus.two_cliques(3),
        Graph([1, 2, 3, 4, 5]),
        "small_corpus",
    ],
)
def test_enumeration_matches_brute_force(request, g):
    """Each separation once, at the oid of its place in the sorted mask pairs."""
    for h in request.getfixturevalue(g) if isinstance(g, str) else [g]:
        u = enumerate_graph_separations(h)
        want = sorted((u.mask_of(a), u.mask_of(b)) for a, b in brute_force_separations(h))
        assert [u.sides(o) for o in u.oriented_ids()] == want


def test_neighbourhood_table_matches_the_definition(small_corpus):
    """``Graph.nbhd[x]`` is the set of vertices adjacent to a vertex of ``x``;
    built once per graph, then read by enumeration and rule (T) alike."""
    for g in small_corpus + [Graph([]), Graph([1, 2, 3])]:
        assert g.nbhd is g.nbhd
        for x in range(1 << g.n):
            inside = [i for i in range(g.n) if x >> i & 1]
            assert g.nbhd[x] == sum(1 << j for j in range(g.n) if any(g.adj[i] >> j & 1 for i in inside))


def test_edgeless_two_vertices_has_nine_oriented_separations():
    u = enumerate_graph_separations(Graph([1, 2]))
    assert u.n_oriented == 9


def test_k2_excludes_the_split_pair():
    u = enumerate_graph_separations(Graph([1, 2], [(1, 2)]))
    assert u.find(u.mask_of([1]), u.mask_of([2])) is None


def test_join_convention_on_graph_separations():
    u = enumerate_graph_separations(Graph([1, 2, 3, 4]))
    a = oid(u, [1, 2], [2, 3, 4])
    b = oid(u, [1, 2, 3], [3, 4])
    assert u.side_labels(u.join(a, b)) == ((1, 2, 3), (3, 4))


def test_size_bound_is_enforced():
    with pytest.raises(SizeBoundError):
        enumerate_graph_separations(corpus.complete_graph(5), max_vertices=4)


def test_separation_order_is_separator_size(p4_universe):
    u = p4_universe
    s = oid(u, ["a", "b"], ["b", "c", "d"])
    assert u.order(s) == 1


# ----------------------------------------------------------------------
# cliques


def test_empty_separator_is_clique(p4, p4_universe):
    s = p4_universe.find(p4_universe.mask_of([]), p4_universe.full_mask)
    assert is_clique_separation(p4, p4_universe, p4_universe.uid(s))


def test_single_vertex_separator_is_clique():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    u = enumerate_graph_separations(g)
    s = u.find(u.mask_of(["a", "b"]), u.mask_of(["b", "c"]))
    assert is_clique_separation(g, u, u.uid(s))


def test_nonadjacent_separator_is_not_clique():
    g = corpus.cycle_graph(4)
    u = enumerate_graph_separations(g)
    s = u.find(u.mask_of([1, 2, 3]), u.mask_of([3, 4, 1]))
    assert s is not None
    assert not is_clique_separation(g, u, u.uid(s))


def test_clique_subsystem_k0_empty(p4, p4_universe):
    assert len(clique_subsystem(p4, p4_universe, 0)) == 0


def test_clique_subsystem_matches_the_predicate():
    """The one-pass table read holds exactly the separations the per-uid
    predicate accepts, under every order bound."""
    graphs = corpus.all_connected_graphs(6)
    graphs += [Graph(range(n), []) for n in range(1, 9)]
    graphs += [corpus.star_graph(leaves) for leaves in range(1, 8)]
    for g in graphs:
        u = enumerate_graph_separations(g)
        cliques = [uid for uid in u.unoriented_ids() if is_clique_separation(g, u, uid)]
        for k in (None, *range(g.n + 2)):
            expect = frozenset(uid for uid in cliques if k is None or u.order(uid) < k)
            assert clique_subsystem(g, u, k).members == expect, (g, k)


# graphs with more than one component, among them one whose clique
# universe misses corners that the splinter precheck meets
DISCONNECTED = [
    Graph(range(1, 7), [(1, 4), (2, 3), (3, 5), (4, 5)]),
    Graph(range(5), [(0, 1), (2, 3)]),
    Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4)]),
    Graph(range(7), [(0, 1), (1, 2), (2, 3), (4, 5)]),
    Graph(range(8), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
]


def test_clique_enumeration_is_the_clique_subsystem_in_order():
    """The clique universe's side pairs, in oid order, are the clique
    members of the full universe, in its oid order, with the same orders."""
    graphs = corpus.all_connected_graphs(6)
    graphs += [Graph(range(n), []) for n in range(1, 9)]
    graphs += [corpus.star_graph(leaves) for leaves in range(1, 8)]
    graphs += DISCONNECTED
    for g in graphs:
        u = enumerate_graph_separations(g)
        c = enumerate_clique_separations(g)
        want = [o for o in u.oriented_ids() if is_clique_separation(g, u, u.uid(o))]
        assert [c.sides(o) for o in c.oriented_ids()] == [u.sides(o) for o in want], g
        assert [c.order(o) for o in c.oriented_ids()] == [u.order(o) for o in want], g


def test_clique_table_is_the_pairwise_adjacency_definition():
    """``Graph.clique``, which ``is_clique_separation``, ``clique_subsystem``
    and the clique enumeration all read, on every vertex mask."""
    graphs = corpus.all_connected_graphs(5) + [Graph(range(6), []), corpus.star_graph(5)] + DISCONNECTED
    for g in graphs:
        for s in range(1 << g.n):
            members = [v for v in range(g.n) if s >> v & 1]
            assert g.clique[s] == all(g.adj[v] >> w & 1 for v, w in combinations(members, 2)), (g, s)


def _treewidth(g):
    """The least width over all elimination orderings, which is the tree-width."""
    best = g.n
    for ordering in permutations(range(g.n)):
        nbrs = {v: {w for w in range(g.n) if g.adj[v] >> w & 1} for v in range(g.n)}
        width = 0
        for v in ordering:
            width = max(width, len(nbrs[v]))
            for w in nbrs[v]:
                nbrs[w] |= nbrs[v] - {w}
                nbrs[w].discard(v)
            del nbrs[v]
        best = min(best, width)
    return best


def test_elimination_width():
    """Edgeless graphs 0, forests with an edge 1, cycles 2, ``K_n`` ``n - 1``;
    never below the tree-width on the graphs with at most 5 vertices."""
    for n in range(1, 11):
        assert Graph(range(n)).elimination_width == 0
        assert corpus.complete_graph(n).elimination_width == n - 1
        assert Graph(range(n), [(0, 1)] if n > 1 else []).elimination_width == min(n - 1, 1)
    for n in range(3, 11):
        assert corpus.cycle_graph(n).elimination_width == 2
        assert corpus.path_graph(n).elimination_width == 1
        assert corpus.star_graph(n).elimination_width == 1
    assert all(t.elimination_width == 1 for t in trees(7))
    assert Graph(range(10), [(i, i + 1) for i in range(0, 10, 2)]).elimination_width == 1
    for g in all_graphs(5):
        assert g.elimination_width >= _treewidth(g), g


def test_clique_enumeration_size_bound_comes_first():
    with pytest.raises(SizeBoundError):
        enumerate_clique_separations(corpus.complete_graph(5), max_vertices=4)
    g = Graph(range(11))
    with pytest.raises(SizeBoundError):
        enumerate_clique_separations(g)
    assert "clique" not in vars(g) and "nbhd" not in vars(g)  # no 2^n table built


def test_k3_all_separations_are_clique_separations():
    g = corpus.complete_graph(3)
    u = enumerate_graph_separations(g)
    sub = clique_subsystem(g, u, None)
    assert sub.members == frozenset(u.unoriented_ids())


def test_two_triangles_share_edge_clique_separation():
    g = Graph([1, 2, 3, 4], [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    u = enumerate_graph_separations(g)
    sub = clique_subsystem(g, u, 3)
    s = u.find(u.mask_of([1, 2, 3]), u.mask_of([2, 3, 4]))
    assert u.uid(s) in sub.members


def test_clique_corner_property():
    """Crossing clique separations admit orientations with three clique
    corners within the order bounds, four in the equality case."""
    for g in [
        corpus.complete_graph(4),
        corpus.two_cliques(3),
        Graph([1, 2, 3, 4], [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
        corpus.star_graph(4),
    ]:
        u = enumerate_graph_separations(g)
        cl = clique_subsystem(g, u, None)
        members = sorted(cl.members)
        for i, r in enumerate(members):
            for s in members[i + 1 :]:
                if u.nested(r, s):
                    continue
                if u.order(r) > u.order(s):
                    r, s = s, r
                found = False
                for ro in u.orientations(r):
                    for so in u.orientations(s):
                        ri, si = u.inv(ro), u.inv(so)
                        c_nn = u.meet(ri, si)
                        c_ns = u.meet(ri, so)
                        c_sn = u.meet(ro, si)
                        if not (
                            is_clique_separation(g, u, u.uid(c_nn))
                            and is_clique_separation(g, u, u.uid(c_ns))
                            and is_clique_separation(g, u, u.uid(c_sn))
                        ):
                            continue
                        if not (
                            u.order(c_nn) <= u.order(r)
                            and u.order(c_ns) <= u.order(r)
                            and u.order(c_sn) <= u.order(s)
                        ):
                            continue
                        if u.order(c_nn) == u.order(r) == u.order(s):
                            c_ss = u.meet(ro, so)
                            if not (
                                is_clique_separation(g, u, u.uid(c_ss))
                                and u.order(c_ss) <= u.order(r)
                            ):
                                continue
                        found = True
                assert found, (g, u.side_labels(r), u.side_labels(s))


# ----------------------------------------------------------------------
# circles


@pytest.mark.parametrize("end", [True, 2.0, 9], ids=["true", "float", "unknown"])
def test_edge_ends_are_labels_of_their_own_type(end):
    """``True`` and ``2.0`` equal the labels 1 and 2 in Python but are none
    of them, as ``Universe.mask_of`` reads them."""
    with pytest.raises(SeparationError, match=re.escape(f"edge ({end!r}, 3) uses unknown vertices")):
        Graph([1, 2, 3], [(end, 3)])
    with pytest.raises(SeparationError, match=re.escape(f"names unknown point {end!r}")):
        cut_order_fn([1, 2, 3], [(end, 3, 1)])


@pytest.mark.parametrize("other", [True, 1.0], ids=["true", "float"])
def test_graph_refuses_equal_vertex_labels_of_different_types(other):
    """``True`` and ``1.0`` equal the label 1 in Python, so one vertex
    lookup cannot keep them apart: the graph refuses them, in either order,
    where it once merged them into one vertex."""
    for first, second in ((1, other), (other, 1)):
        message = f"label {second!r} equals a label of type {type(first).__name__}"
        with pytest.raises(SeparationError, match=re.escape(message)):
            Graph([first, second, 2], [(1, 2)])
    assert Graph([1, 1, 2], [(1, 2)]).vertices == (1, 2)


def test_interval_mask():
    assert is_interval_mask(0b0011, 4)
    assert is_interval_mask(0b1001, 4)  # wraps around
    assert not is_interval_mask(0b0101, 4)
    assert is_interval_mask(0, 4)
    assert is_interval_mask(0b1111, 4)


def test_circle_membership_example():
    u, circle = enumerate_circle_separations([1, 2, 3, 4])
    a = u.find(u.mask_of([1]), u.mask_of([2, 3, 4]))
    assert u.uid(a) in circle.members
    b = u.find(u.mask_of([1, 3]), u.mask_of([2, 4]))
    assert u.uid(b) not in circle.members


def test_circle_join_leaves_subsystem():
    u, circle = enumerate_circle_separations([1, 2, 3, 4])
    a = u.find(u.mask_of([1]), u.mask_of([2, 3, 4]))
    b = u.find(u.mask_of([3]), u.mask_of([4, 1, 2]))
    j = u.join(a, b)
    assert u.side_labels(j) == ((1, 3), (2, 4))
    assert u.uid(j) not in circle.members


def test_circle_rejects_asymmetric_order():
    def bad_order(a, b):
        # 5 on the 1-point side, 0 on the 4-point side of the same separation
        return 5 if a.bit_count() in (1, 3) else 0

    with pytest.raises(SeparationError, match="symmetric"):
        enumerate_circle_separations([1, 2, 3, 4, 5], order_fn=bad_order)


def test_circle_non_submodular_order_is_verified_or_refused():
    """A circle order need not be submodular: what the theorems use is that
    the family splinters hierarchically.  Seeded symmetric, non-submodular
    orders on 4 to 7 points (a random table keyed by ``min(a, b)``) give
    either a nested set that efficiently distinguishes the tangles or a
    ``HierarchicalConditionError``, and both occur."""
    rng = random.Random(24)
    outcomes = []
    while len(outcomes) < 240:
        points = range(rng.randint(4, 7))
        table = [rng.randrange(4) for _ in range(1 << len(points))]
        order = lambda a, b, table=table: table[min(a, b)]
        if check_submodular_order(bipartition_universe(points, order)):
            continue
        for m, n in ((1, 4), (1, 5), (2, 4)):
            try:
                res = circle_pipeline(points, m, n, order)
            except HierarchicalConditionError:
                outcomes.append("refused")
                continue
            u, nested = res.universe, sorted(res.nested)
            assert all(u.nested(a, b) for i, a in enumerate(nested) for b in nested[i + 1 :])
            assert pairwise_distinguishes_all(res.nested, res.profiles)
            outcomes.append("verified")
    assert {"verified", "refused"} <= set(outcomes)


def test_circle_corner_property():
    """All four corners of crossing circle separations are circle separations."""
    for npts in (5, 6):
        u, circle = enumerate_circle_separations(list(range(1, npts + 1)))
        members = sorted(circle.members)
        for i, r in enumerate(members):
            for s in members[i + 1 :]:
                if u.nested(r, s):
                    continue
                for c in u.corner_uids(r, s):
                    assert c in circle.members


# ----------------------------------------------------------------------
# order functions and slices


def test_graph_order_is_submodular(small_corpus):
    """Exhaustive pairwise check on all graphs up to 5 vertices plus two
    named 6-vertex graphs; larger graphs are covered by slice compatibility."""
    for g in small_corpus:
        assert is_submodular_order(enumerate_graph_separations(g))
    for g in (corpus.cycle_graph(6), corpus.complete_bipartite(3, 3)):
        assert is_submodular_order(enumerate_graph_separations(g))


def _moved_pair_order(order_fn, full, mask, delta):
    """``order_fn`` with the value of ``mask`` and its complement moved by ``delta``."""

    def order(a, b):
        value = order_fn(a, b)
        return value + delta if a in (mask, full & ~mask) else value

    return order


def test_local_submodularity_check_matches_the_definition():
    rng = random.Random(8)
    verdicts = []
    for _ in range(40):
        pts = list(range(1, rng.randint(1, 5) + 1))
        full = (1 << len(pts)) - 1
        edges = [(p, q, rng.randint(0, 3)) for i, p in enumerate(pts) for q in pts[i + 1 :]]
        cut = cut_order_fn(pts, edges)
        mask = rng.randint(0, full)
        delta = 1 if cut(mask, full & ~mask) == 0 else rng.choice((-1, 1))
        for order_fn in (cut, _moved_pair_order(cut, full, mask, delta)):
            u = bipartition_universe(pts, order_fn)
            verdicts.append(check_submodular_order(u))
            assert verdicts[-1] == is_submodular_order(u)
    assert True in verdicts and False in verdicts
    for n in (5, 6, 7):
        pts = list(range(n))
        for order_fn in (cycle_cut_order(pts), complete_cut_order(pts)):
            u = bipartition_universe(pts, order_fn)
            assert check_submodular_order(u) and is_submodular_order(u)


@pytest.mark.parametrize(
    "g", [Graph([1]), Graph([1, 2, 3]), corpus.path_graph(3), corpus.complete_graph(3)]
)
def test_submodularity_check_refuses_graph_universes(g):
    with pytest.raises(SeparationError):
        check_submodular_order(enumerate_graph_separations(g))


def test_submodularity_check_refuses_universes_missing_a_bipartition():
    # 2^2 oriented separations, but ({1}, {2}) and ({2}, {1}) are absent.
    u = Universe((1, 2), [(0, 3), (3, 0), (1, 3), (3, 1)], order_fn=lambda a, b: 0)
    with pytest.raises(SeparationError):
        check_submodular_order(u)


def test_cut_order_is_submodular():
    pts = [1, 2, 3, 4, 5]
    u = bipartition_universe(pts, cut_order_fn(pts, [(1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 3), (5, 1, 1), (1, 3, 2)]))
    assert check_submodular_order(u)


def test_adversarial_order_is_caught():
    pts = [1, 2, 3, 4]
    crossing = {(frozenset({1, 2}), frozenset({3, 4})), (frozenset({2, 3}), frozenset({1, 4}))}

    def adversarial(a, b):
        key = (frozenset(i + 1 for i in range(4) if a >> i & 1),
               frozenset(i + 1 for i in range(4) if b >> i & 1))
        if key in crossing or (key[1], key[0]) in crossing:
            return 0
        return 5

    u = bipartition_universe(pts, adversarial)
    assert not check_submodular_order(u)


def test_restrict_Sk_bounds(p4_universe):
    assert len(restrict_Sk(p4_universe, 0)) == 0
    assert restrict_Sk(p4_universe, float("inf")).members == frozenset(
        p4_universe.unoriented_ids()
    )
    s1 = restrict_Sk(p4_universe, 1)
    assert all(p4_universe.order(m) == 0 for m in s1.members)
    assert len(s1) == 1  # P4 is connected: only the trivial split


def test_slice_chain_levels_are_the_order_slices(small_corpus):
    """Level ``i`` of ``slice_chain(u, within)`` is ``restrict_Sk`` below the
    next distinct order, cut to ``within``, and the thresholds are the
    distinct orders of its members: on the full universes and the clique
    subsystems of the corpus, and on circles under both orders."""
    cases = []
    for g in small_corpus:
        u = enumerate_graph_separations(g)
        cases += [(u, None), (u, clique_subsystem(g, u, None))]
    for n in (3, 4, 5, 6):
        points = list(range(n))
        for order_fn in (cycle_cut_order(points), complete_cut_order(points)):
            cases.append(enumerate_circle_separations(points, order_fn))
    for u, within in cases:
        members = u.unoriented_ids() if within is None else within.members
        orders = sorted({u.order(m) for m in members})
        chain = slice_chain(u, within)
        assert chain.thresholds == tuple(orders)
        assert [s.members for s in levels_of(chain)] == [
            restrict_Sk(u, t + 1).members & frozenset(members) for t in orders
        ]


def test_chain_requires_containment(p4_universe):
    """``chain_of`` builds a chain from ascending levels, which ``level``
    gives back, and refuses others; the chain's fields are keyword-only, so
    levels given to ``SubsystemChain`` itself are refused."""
    s1 = restrict_Sk(p4_universe, 1)
    s2 = restrict_Sk(p4_universe, 2)
    chain = chain_of(p4_universe, (s1, s2))
    assert [f.name for f in dataclasses.fields(chain)] == ["universe", "members", "ends", "thresholds"]
    assert chain.ends == (len(s1), len(s2)) and set(chain.members) == s2.members
    assert (chain.level(0), chain.level(1)) == (s1, s2)
    with pytest.raises(SeparationError):
        chain_of(p4_universe, (s2, s1))
    with pytest.raises(TypeError):
        SubsystemChain(p4_universe, (s1, s2))


def test_prefix_is_the_chain_of_its_first_levels(small_corpus):
    """``prefix`` cuts the members, ends and thresholds of a slice chain
    as ``chain_of`` ranks its first levels; ``chain_of`` still checks the
    levels it is given, as ``slice_chain`` and ``prefix`` skip that check."""
    for g in small_corpus:
        chain = slice_chain(enumerate_graph_separations(g))
        for count in range(len(chain) + 2):
            cut = chain.prefix(count)
            fresh = chain_of(chain.universe, levels_of(chain)[:count], chain.thresholds[:count])
            assert cut == fresh
            assert levels_of(cut) == levels_of(fresh)
    other = slice_chain(enumerate_graph_separations(g))
    with pytest.raises(SeparationError, match="different universes"):
        chain_of(chain.universe, levels_of(chain)[:1] + levels_of(other)[1:2])


def literal_compatible(chain):
    """Oracle: the definition verbatim, counting tagged corners; a corner
    outside the universe counts in no level."""
    u = chain.universe
    levels = levels_of(chain)
    n = len(levels)
    for i in range(n):
        for j in range(i, n):
            for si in sorted(levels[i].members):
                for sj in sorted(levels[j].members):
                    cs = [c for _, c in corner_items(u, si, sj)]
                    in_i = sum(1 for c in cs if c in levels[i].members)
                    in_j = sum(1 for c in cs if c in levels[j].members)
                    if in_i < 2 and in_j < 3:
                        return False
    return True


def test_compatible_sequence_matches_literal_definition(small_corpus):
    for g in small_corpus:
        if g.n > 4:
            continue
        u = enumerate_graph_separations(g)
        chain = slice_chain(u)
        assert is_compatible_sequence(chain) == literal_compatible(chain)


def test_single_system_chain_compatibility(p4_universe):
    chain = chain_of(p4_universe, (restrict_Sk(p4_universe, 2),))
    assert is_compatible_sequence(chain) == literal_compatible(chain)


def test_order_slices_form_compatible_sequence(small_corpus):
    for g in small_corpus:
        u = enumerate_graph_separations(g)
        assert is_compatible_sequence(slice_chain(u))


# ----------------------------------------------------------------------
# automorphisms


def brute_force_automorphisms(g):
    out = []
    n = g.n
    for perm in permutations(range(n)):
        if all(
            (g.adj[i] >> j & 1) == (g.adj[perm[i]] >> perm[j] & 1)
            for i in range(n)
            for j in range(n)
        ):
            out.append(perm)
    return sorted(out)


@pytest.mark.parametrize(
    "g,count",
    [
        (corpus.complete_graph(3), 6),
        (corpus.path_graph(3), 2),
        (corpus.cycle_graph(5), 10),
        (corpus.complete_bipartite(2, 3), 12),
    ],
)
def test_automorphism_counts(g, count):
    auts = automorphisms(g)
    assert len(auts) == count
    assert auts == brute_force_automorphisms(g)


def test_automorphisms_come_in_lexicographic_order(small_corpus):
    """The backtracking assigns images in ascending order, so its output is
    already sorted, the identity first (the oracle ``first_moving_automorphism``
    relies on this)."""
    for g in small_corpus + [corpus.star_graph(6)]:
        auts = automorphisms(g)
        assert auts == sorted(auts)
        assert auts[0] == tuple(range(g.n))


def _closure(gens):
    """The permutation group the index tuples ``gens`` generate, sorted."""
    gens = list(gens)
    group = {gens[0]}
    frontier = [gens[0]]
    while frontier:
        p = frontier.pop()
        for q in gens:
            pq = tuple(q[i] for i in p)
            if pq not in group:
                group.add(pq)
                frontier.append(pq)
    return sorted(group)


def test_automorphism_generators_generate_the_group(small_corpus):
    """The identity first, at most ``n(n-1)/2 + 1`` permutations, each an
    automorphism, and their closure under composition is the whole group."""
    for g in small_corpus + [corpus.star_graph(6), Graph(range(7))]:
        gens = list(automorphism_generators(g))
        assert gens[0] == tuple(range(g.n))
        assert len(gens) <= g.n * (g.n - 1) // 2 + 1
        auts = automorphisms(g)
        assert set(gens) <= set(auts)
        assert _closure(gens) == auts, g


def test_only_the_whole_automorphism_group_is_bounded():
    """Listing the whole group is factorial in the worst case, so bounded;
    a generating set has at most ``n(n-1)/2 + 1`` members, so it is not."""
    g = corpus.path_graph(11)
    with pytest.raises(SizeBoundError):
        automorphisms(g)
    assert list(automorphism_generators(g)) == [tuple(range(11)), tuple(range(10, -1, -1))]


def test_lifted_automorphism_preserves_structure():
    g = corpus.cycle_graph(5)
    u = enumerate_graph_separations(g)
    for perm in automorphisms(g)[:4]:
        mapping = lift_permutation(u, perm)
        ids = list(u.oriented_ids())
        assert sorted(mapping.values()) == ids
        for i in ids[::7]:
            assert mapping[u.inv(i)] == u.inv(mapping[i])
            assert u.order(mapping[i]) == u.order(i)
            for j in ids[::11]:
                assert u.leq(i, j) == u.leq(mapping[i], mapping[j])
                assert mapping[u.join(i, j)] == u.join(mapping[i], mapping[j])
                assert mapping[u.meet(i, j)] == u.meet(mapping[i], mapping[j])


def test_lift_permutation_on_given_ids_is_a_restriction():
    g = corpus.cycle_graph(5)
    u = enumerate_graph_separations(g)
    some = list(u.oriented_ids())[::3]
    for perm in automorphisms(g)[:4]:
        full = lift_permutation(u, perm)
        assert lift_permutation(u, perm, some) == {o: full[o] for o in some}


def test_permute_mask():
    # bit 0 maps to position 1, bit 2 to position 0
    assert permute_mask(0b101, (1, 2, 0)) == 0b011
