"""Concrete universes: graph separations, cliques, circles, chains, automorphisms."""

import random
from itertools import permutations, product

import pytest

from totkit import corpus
from totkit.errors import SeparationError, SizeBoundError
from totkit.sepsys import Universe
from totkit.universes import (
    Graph,
    SubsystemChain,
    automorphisms,
    bipartition_universe,
    check_submodular_order,
    clique_subsystem,
    complete_cut_order,
    cut_order_fn,
    cycle_cut_order,
    enumerate_circle_separations,
    enumerate_graph_separations,
    is_clique_separation,
    is_compatible_sequence,
    is_interval_mask,
    lift_permutation,
    permute_mask,
    restrict_Sk,
    slice_chain,
)

from oracles import corner_items, is_submodular_order, oid


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
        "small_corpus",
    ],
)
def test_enumeration_matches_brute_force(request, g):
    for h in request.getfixturevalue(g) if isinstance(g, str) else [g]:
        u = enumerate_graph_separations(h)
        got = {
            (frozenset(u.side_labels(i)[0]), frozenset(u.side_labels(i)[1]))
            for i in u.oriented_ids()
        }
        assert got == brute_force_separations(h)


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


def test_circle_rejects_non_submodular_order():
    def bad_order(a, b):
        # symmetric but wildly non-submodular
        return 5 if a.bit_count() in (1, 3) else 0

    with pytest.raises(SeparationError):
        enumerate_circle_separations([1, 2, 3, 4, 5], order_fn=bad_order)


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


def test_chain_requires_containment(p4_universe):
    s1 = restrict_Sk(p4_universe, 1)
    s2 = restrict_Sk(p4_universe, 2)
    SubsystemChain(p4_universe, (s1, s2))
    with pytest.raises(SeparationError):
        SubsystemChain(p4_universe, (s2, s1))


def literal_compatible(chain):
    """Oracle: the definition verbatim, counting tagged corners."""
    u = chain.universe
    n = len(chain.systems)
    for i in range(n):
        for j in range(i, n):
            for si in sorted(chain.systems[i].members):
                for sj in sorted(chain.systems[j].members):
                    cs = [c for _, c in corner_items(u, si, sj)]
                    in_i = sum(1 for c in cs if c in chain.systems[i].members)
                    in_j = sum(1 for c in cs if c in chain.systems[j].members)
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
    chain = SubsystemChain(p4_universe, (restrict_Sk(p4_universe, 2),))
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
