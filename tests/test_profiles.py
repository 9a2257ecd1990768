"""Orientations, profiles, tangles, distinguishers, robustness."""

import random
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totkit import corpus, pipelines, profiles
from totkit.errors import SeparationError
from totkit.pipelines import (
    circle_pipeline,
    clique_pipeline,
    cycle_cut_order,
    efficiently_distinguishes_all,
    graph_pipeline,
    graph_tangles,
)
from totkit.profiles import (
    PROFILE,
    Orientation,
    build_distinguisher_family,
    circle_tangle_kind,
    enumerate_chain_profiles,
    enumerate_profiles,
    graph_tangle_kind,
    maximal_profiles,
    orientation_to_json,
)
from totkit.sepsys import SubSystem, Universe, bits
from totkit.treedec import decomposition_to_json
from totkit.universes import (
    Graph,
    SubsystemChain,
    _separation_walk,
    _separator_size,
    bipartition_universe,
    chain_of,
    clique_subsystem,
    complete_cut_order,
    enumerate_circle_separations,
    enumerate_graph_separations,
    slice_chain,
)

from oracles import (
    all_graphs,
    distinguishers,
    distinguishes,
    efficient_distinguishers,
    efficiently_distinguishes,
    has_profile_property,
    has_tangle_property,
    is_circle_tangle,
    is_consistent,
    is_robust_set,
    levels_of,
    orientation_from_json,
    pairwise_distinguishes_all,
    pairwise_family,
    restrict_Sk,
    trees,
)


def orient_towards(universe, system, vertex):
    """Pick for each member the orientation whose big side holds ``vertex``,
    preferring the big side when the vertex sits in the separator."""
    chosen = []
    bit = 1 << universe.labels.index(vertex)
    for uid in sorted(system.members):
        picks = []
        for oid in universe.orientations(uid):
            a, b = universe.sides(oid)
            if b & bit:
                picks.append((0 if not (a & bit) else 1, (b.bit_count()), oid))
        picks.sort(key=lambda t: (t[0], -t[1]))
        chosen.append(picks[0][2])
    return Orientation(system, frozenset(chosen))


# ----------------------------------------------------------------------
# consistency


def test_empty_orientation_is_consistent(p4_universe):
    o = Orientation(SubSystem(p4_universe, frozenset()), frozenset())
    assert is_consistent(o)


def test_inconsistent_witness(bip4):
    r = bip4.find(bip4.mask_of([3, 4]), bip4.mask_of([1, 2]))
    s = bip4.find(bip4.mask_of([1, 2, 3]), bip4.mask_of([4]))
    # (r reversed) = {1,2}|{3,4} < {1,2,3}|{4} = s, so {r->, s->} is inconsistent
    system = SubSystem(bip4, frozenset({bip4.uid(r), bip4.uid(s)}))
    o = Orientation(system, frozenset({r, s}))
    assert not is_consistent(o)


def test_orienting_p4_towards_endpoint_is_consistent(p4, p4_universe):
    s2 = restrict_Sk(p4_universe, 2)
    o = orient_towards(p4_universe, s2, "d")
    assert is_consistent(o)


# ----------------------------------------------------------------------
# profile property


def test_singleton_base_profile_property(bip4):
    r = bip4.find(bip4.mask_of([1]), bip4.mask_of([2, 3, 4]))
    system = SubSystem(bip4, frozenset({bip4.uid(r)}))
    assert has_profile_property(Orientation(system, frozenset({r})))


def test_profile_property_violation(bip4):
    r = bip4.find(bip4.mask_of([1, 2]), bip4.mask_of([3, 4]))
    s = bip4.find(bip4.mask_of([2, 3]), bip4.mask_of([4, 1]))
    corner = bip4.meet(bip4.inv(r), bip4.inv(s))
    system = SubSystem(
        bip4, frozenset({bip4.uid(r), bip4.uid(s), bip4.uid(corner)})
    )
    o = Orientation(system, frozenset({r, s, corner}))
    assert not has_profile_property(o)


def test_graph_tangles_satisfy_profile_property(small_corpus):
    for g in small_corpus:
        u = enumerate_graph_separations(g)
        chain = slice_chain(u)
        for level in enumerate_chain_profiles(chain, graph_tangle_kind(g)):
            for t in level:
                assert is_consistent(t)
                assert has_profile_property(t)


# ----------------------------------------------------------------------
# tangle property


def test_k4_tangle_towards_clique():
    g = corpus.complete_graph(4)
    u = enumerate_graph_separations(g)
    s2 = restrict_Sk(u, 2)
    tangles = enumerate_profiles(s2, graph_tangle_kind(g))
    assert len(tangles) == 1
    assert has_tangle_property(tangles[0], g)


def test_tangles_at_the_size_bound_satisfy_the_definitions():
    """Every tangle of K8 and K4,4, at every level, against the oracles."""
    for g in (corpus.complete_graph(8), corpus.complete_bipartite(4, 4)):
        chain = slice_chain(enumerate_graph_separations(g))
        for level in enumerate_chain_profiles(chain, graph_tangle_kind(g)):
            for t in level:
                assert is_consistent(t), g
                assert has_tangle_property(t, g), g


def test_tangle_counts_at_the_size_bound():
    """Tangles per chain level of 8- to 10-vertex graphs.  The values were
    counted by earlier forms of rule (T), so they do not come from the form
    under test: the dense graphs by the pair-residual form, the sparse
    10-vertex graphs (edgeless, perfect matching, ``star_graph(9)``,
    2 K1,4), where most chosen small sides lie inside others, by the form
    that walked every chosen side."""
    v = range(10)
    cases = [
        (corpus.complete_graph(8), [1, 1, 1, 1, 1, 1, 0, 0, 0]),
        (corpus.complete_bipartite(4, 4), [1, 1, 1, 1, 0, 0, 0, 0, 0]),
        (corpus.complete_graph(10), [1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0]),
        (corpus.complete_bipartite(5, 5), [1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]),
        (corpus.petersen_graph(), [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]),
        (Graph(v), [10] + [0] * 10),
        (Graph(v, [(i, i + 1) for i in range(0, 10, 2)]), [5, 5] + [0] * 9),
        (corpus.star_graph(9), [1, 9] + [0] * 9),
        (Graph(v, [(0, i) for i in range(1, 5)] + [(5, i) for i in range(6, 10)]), [2, 8] + [0] * 9),
    ]
    for g, counts in cases:
        assert [len(level) for level in graph_tangles(g).levels] == counts, g


def test_tangle_rule_past_the_size_bound():
    """Rule (T) on a random tree with 14 vertices, past the size bound, on
    its separations of order at most 1, built by hand from the separation
    walk: the one tangle of order 1 and the ``n - 1`` of order 2, one per
    edge, are found and pass the oracle.  Building the rule allocates no
    table over the ``2^n`` vertex masks; ``Graph.nbhd``, the graph's own,
    is built beforehand."""
    n = 14
    rng = random.Random(14)
    g = Graph(range(n), [(rng.randrange(i), i) for i in range(1, n)])
    full = (1 << n) - 1
    pairs = []
    for a, forced, free in _separation_walk(g, n):
        # x = free leaves the separator forced; x = free less v leaves forced | v
        if forced.bit_count() <= 1:
            pairs.append((a, full ^ free))
        if not forced:
            pairs += [(a, full ^ free ^ (1 << v)) for v in bits(free)]
    u = Universe(g.vertices, pairs, order_fn=_separator_size, kind="graph")
    chain = slice_chain(u)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(g))
    assert list(map(len, levels)) == [1, n - 1]
    for level in levels:
        for t in level:
            assert has_tangle_property(t, g)
    g.nbhd  # built once per graph, before the rule is traced
    tracemalloc.start()
    try:
        profiles._tangle_rule(g, u, chain.members, chain.ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


def test_p4_has_one_order2_tangle_per_edge(p4, p4_universe):
    """Under the literal tangle property every edge induces an order-2 tangle."""
    s2 = restrict_Sk(p4_universe, 2)
    tangles = enumerate_profiles(s2, graph_tangle_kind(p4))
    assert len(tangles) == 3


def test_empty_subsystem_tangle_is_vacuous(p4, p4_universe):
    s0 = restrict_Sk(p4_universe, 0)
    o = Orientation(SubSystem(p4_universe, frozenset()), frozenset())
    assert has_tangle_property(o, p4)
    assert enumerate_profiles(s0, graph_tangle_kind(p4)) == [
        Orientation(s0, frozenset())
    ]


def test_orientation_with_full_side_violates_tangle_property(p4, p4_universe):
    top = p4_universe.find(p4_universe.full_mask, p4_universe.mask_of(["a"]))
    system = SubSystem(p4_universe, frozenset({p4_universe.uid(top)}))
    o = Orientation(system, frozenset({top}))
    assert not has_tangle_property(o, p4)


# ----------------------------------------------------------------------
# circle tangles


def test_empty_circle_orientation():
    u, circle = enumerate_circle_separations([1, 2, 3, 4, 5])
    o = Orientation(SubSystem(u, frozenset()), frozenset())
    assert is_circle_tangle(o, 1, 4)


def test_single_small_big_side_violates():
    u, circle = enumerate_circle_separations([1, 2, 3, 4, 5])
    oid = u.find(u.mask_of([2, 3, 4, 5]), u.mask_of([1]))
    system = SubSystem(u, frozenset({u.uid(oid)}))
    o = Orientation(system, frozenset({oid}))
    assert not is_circle_tangle(o, 2, 4)  # big side has 1 < 2 points


def test_circle_tangle_brute_subset_scan():
    pts = list(range(1, 9))
    u, circle = enumerate_circle_separations(pts)
    sk = SubSystem(u, frozenset(m for m in circle.members if u.order(m) <= 2))
    o = orient_towards(u, sk, 5)
    m, n = 1, 4
    expected = is_consistent(o)
    if expected:
        bsides = [u.sides(oid)[1] for oid in sorted(o.chosen)]
        for size in range(1, n):
            for combo in combinations(bsides, size):
                inter = u.full_mask
                for x in combo:
                    inter &= x
                if inter.bit_count() < m:
                    expected = False
    assert is_circle_tangle(o, m, n) == expected


# ----------------------------------------------------------------------
# enumeration vs unpruned oracle (pruning soundness)


# each kind with the oracle of its property
PROFILE_CASE = (PROFILE, has_profile_property)


def tangle_case(g):
    return graph_tangle_kind(g), lambda o: has_tangle_property(o, g)


def circle_case(m, n):
    return circle_tangle_kind(m, n), lambda o: is_circle_tangle(o, m, n)


def satisfies(o, oracle):
    """Whether ``o`` is consistent and has the property ``oracle`` checks."""
    return is_consistent(o) and oracle(o)


def naive_enumerate(system, oracle):
    u = system.universe
    members = sorted(system.members)
    out = []
    for choice in product(*[u.orientations(m) for m in members]):
        o = Orientation(system, frozenset(choice))
        if satisfies(o, oracle):
            out.append(o.chosen)
    return sorted(out, key=sorted)


def ranked_members(chain):
    """The members of ``chain`` by level, then (order, id), or by id in a
    universe without an order, and the member count up to each level."""
    u = chain.universe
    order = u.order if u.has_order else lambda m: 0
    members, ends = [], []
    for system in levels_of(chain):
        new = system.members.difference(members)
        members += sorted(new, key=lambda m: (order(m), m))
        ends.append(len(members))
    return tuple(members), tuple(ends)


def backtrack_chain(chain, oracle):
    """The chain profiles of every level, by a backtracking that checks the
    definitional predicates on each partial orientation, in the order of
    ``enumerate_chain_profiles``: the :func:`ranked_members`, each with its
    canonical orientation tried before its inverse."""
    u = chain.universe
    members, ends = ranked_members(chain)
    levels = [[] for _ in range(len(chain))]

    def grow(chosen):
        pos = len(chosen)
        for level, end in zip(levels, ends):
            if end == pos:
                level.append(frozenset(chosen))
        if pos == len(members):
            return
        decided = SubSystem(u, frozenset(members[: pos + 1]))
        for x in dict.fromkeys(u.orientations(members[pos])):
            if satisfies(Orientation(decided, frozenset(chosen + [x])), oracle):
                grow(chosen + [x])

    grow([])
    return levels


@pytest.mark.parametrize("gname,k", [("P3", 2), ("K3", 2), ("K3", 3), ("paw", 2)])
def test_tangle_enumeration_matches_naive(gname, k):
    graphs = {
        "P3": corpus.path_graph(3),
        "K3": corpus.complete_graph(3),
        "paw": Graph([1, 2, 3, 4], [(1, 2), (1, 3), (2, 3), (3, 4)]),
    }
    g = graphs[gname]
    u = enumerate_graph_separations(g)
    sk = restrict_Sk(u, k)
    if len(sk) > 13:
        pytest.skip("oracle too large")
    kind, oracle = tangle_case(g)
    got = sorted((o.chosen for o in enumerate_profiles(sk, kind)), key=sorted)
    assert got == naive_enumerate(sk, oracle)


def test_profile_enumeration_matches_naive():
    g = corpus.complete_graph(3)
    u = enumerate_graph_separations(g)
    sk = restrict_Sk(u, 2)
    got = sorted((o.chosen for o in enumerate_profiles(sk, PROFILE)), key=sorted)
    assert got == naive_enumerate(sk, has_profile_property)
    g2 = corpus.path_graph(4)
    u2 = enumerate_graph_separations(g2)
    sk2 = restrict_Sk(u2, 2)
    got2 = sorted((o.chosen for o in enumerate_profiles(sk2, PROFILE)), key=sorted)
    assert got2 == naive_enumerate(sk2, has_profile_property)


def test_circle_enumeration_matches_naive():
    pts = [1, 2, 3, 4, 5]
    u, circle = enumerate_circle_separations(pts)
    sk = SubSystem(u, frozenset(m for m in circle.members if u.order(m) <= 2))
    kind, oracle = circle_case(1, 4)
    got = sorted((o.chosen for o in enumerate_profiles(sk, kind)), key=sorted)
    assert got == naive_enumerate(sk, oracle)


def test_circle_tangle_search_refuses_members_whose_sides_meet(p4_universe):
    """Rule (F) implies consistency only on bipartitions, so a circle-tangle
    search refuses a member whose sides share a vertex."""
    with pytest.raises(SeparationError):
        enumerate_profiles(restrict_Sk(p4_universe, 2), circle_tangle_kind(1, 4))


def test_tangle_search_needs_the_graph_of_its_universe(p4, p4_universe):
    sk = restrict_Sk(p4_universe, 2)
    with pytest.raises(SeparationError):
        enumerate_profiles(sk, graph_tangle_kind(corpus.path_graph(4)))
    assert enumerate_profiles(sk, graph_tangle_kind(p4))


def test_chain_search_matches_definitional_backtracking(small_corpus):
    """Same orientations in the same order as checking the definitions on
    every partial orientation, over whole chains (and over chains that repeat
    their first level, whose profiles are recorded twice).  The circle chains
    have 4 to 7 points under both unit cut orders, each with every ``(m, n)``
    in ``{1, 2, 3} x {4, 5, 6}``, so rule (F) keeps states of up to
    ``n - 2 = 4`` members; on 7 points ``n = 6`` is left out, as its oracle
    alone takes about 0.4 s.

    The search takes the members in the order of the chain's ``members``,
    which ``chain_of`` ranks from the levels it is given, so chains built
    from levels are here too: ``restrict_Sk`` levels with an order skipped
    (a level gaining members of two orders), the chain that
    ``graph_tangles`` cuts below ``max_order``, and the slices' members in a
    universe without an order, ranked by id alone.  Every chain's members
    and ends are the oracle's ranking, a slice chain rebuilt from its
    levels by ``chain_of`` equals it, and one built from fewer levels
    ranks its members anew."""
    cases = []
    for g in small_corpus:
        chain = slice_chain(enumerate_graph_separations(g))
        u = chain.universe
        levels = levels_of(chain)
        assert chain_of(u, levels, chain.thresholds) == chain
        shorter = chain_of(u, levels[:1])
        assert (shorter.members, shorter.ends) == ranked_members(shorter)
        assert (shorter.members, shorter.ends) != (chain.members, chain.ends) or len(chain) == 1
        stutter = chain_of(u, levels[:1] + levels)
        cases += [(chain, *tangle_case(g)), (chain, *PROFILE_CASE)]
        cases.append((stutter, *tangle_case(g)))
        skipped = chain_of(u, (restrict_Sk(u, 1), restrict_Sk(u, 3)))
        cut = graph_tangles(g, max_order=2).chain
        assert len(cut) < len(chain) or max(chain.thresholds) < 2
        bare = Universe(u.labels, map(u.sides, u.oriented_ids()))
        unordered = chain_of(bare, tuple(SubSystem(bare, s.members) for s in levels))
        assert not bare.has_order and unordered.ends == chain.ends
        cases += [(skipped, *case) for case in (tangle_case(g), PROFILE_CASE)]
        cases += [(cut, *tangle_case(g)), (unordered, *PROFILE_CASE), (unordered, *tangle_case(g))]
    for npts in (4, 5, 6, 7):
        pts = list(range(npts))
        for order_fn in (None, complete_cut_order(pts)):
            u, circle = enumerate_circle_separations(pts, order_fn)
            chain = slice_chain(u, within=circle)
            for m, n in product((1, 2, 3), (4, 5, 6)):
                if npts < 7 or n < 6:
                    cases.append((chain, *circle_case(m, n)))
    assert len(cases) == 8 * 31 + 66
    for chain, kind, oracle in cases:
        assert (chain.members, chain.ends) == ranked_members(chain), kind
        got = [[o.chosen for o in level] for level in enumerate_chain_profiles(chain, kind)]
        assert got == backtrack_chain(chain, oracle), kind


# the circle shapes (points, order, m, n) of the benchmark's clique-circle workload
CIRCLE_SHAPES = [(5, "cycle", 1, 4), (5, "complete", 1, 4), (6, "cycle", 1, 4), (6, "complete", 1, 4),
                 (6, "complete", 1, 5), (7, "cycle", 1, 4), (7, "cycle", 1, 5), (8, "cycle", 2, 4)]


def test_every_rule_refuses_every_co_small_orientation_at_the_empty_state():
    """The search never tries a co-small orientation ``(a, b)``, ``b <= a``,
    because of this fact: rule (P) on the graph and clique chains, rule (T)
    on the graph chains and rule (F) on the circle shapes refuse each one,
    ``(V, V)`` included, before anything is chosen.  The graphs are the
    connected ones on up to 6 vertices and the clique workload's."""
    cases = []
    extra = [corpus.star_graph(5), corpus.star_graph(6), corpus.path_graph(7), corpus.path_graph(8),
             corpus.two_cliques(4), corpus.cycle_graph(6), corpus.cycle_graph(8)]
    for g in corpus.all_connected_graphs(6) + extra:
        chain = graph_tangles(g).chain
        cases += [(chain, PROFILE), (chain, graph_tangle_kind(g))]
        cases.append((pipelines.clique_profiles(g).chain, PROFILE))
    for npts, order, m, n in CIRCLE_SHAPES:
        pts = list(range(1, npts + 1))
        order_fn = complete_cut_order(pts) if order == "complete" else None
        cases.append((pipelines.circle_tangles(pts, m, n, order_fn).chain, circle_tangle_kind(m, n)))
    tried = 0
    for chain, kind in cases:
        u = chain.universe
        members = chain.members
        try_add, _ = kind(u, members, chain.ends)
        for x in (x for uid in members for x in u.orientations(uid)):
            a, b = u.sides(x)
            if not b & ~a:
                tried += 1
                assert try_add(x) is None, (kind, u.side_labels(x))
    assert tried > len(cases)


def test_clique_chain_search_matches_definitional_backtracking(small_corpus):
    """Same orientations in the same order as the definitional backtracking
    on clique chains, whose levels can die early: on star and sparse graphs
    a pending member of the top level loses both orientations long before
    the level ends, and on K4 the top level holds ``(V, V)``, refused in
    both orientations from the start.  The connected graphs have levels
    that die on some search paths only."""
    dying = [corpus.star_graph(leaves) for leaves in range(2, 6)]
    dying += [Graph(range(n), []) for n in range(3, 7)]
    dying += [Graph(range(5), [(0, 1)]), corpus.complete_graph(4)]
    for g in dying + small_corpus:
        u = enumerate_graph_separations(g)
        chain = slice_chain(u, within=clique_subsystem(g, u, None))
        got = [[o.chosen for o in level] for level in enumerate_chain_profiles(chain, PROFILE)]
        assert got == backtrack_chain(chain, has_profile_property), g
        assert got[0] and (g not in dying or not got[-1]), g


def _clique_outcome(res):
    """What a clique pipeline run shows, by side labels, not ids: thresholds,
    chain levels, profiles per level, the nested set and the decomposition."""
    u = res.universe

    def labelled(oids):
        return frozenset(map(u.side_labels, oids))

    return (
        res.chain.thresholds,
        [labelled(s.members) for s in levels_of(res.chain)],
        [[labelled(p.chosen) for p in level] for level in res.levels],
        labelled(res.nested),
        decomposition_to_json(res.decomposition),
        efficiently_distinguishes_all(res.nested, res.family),
    )


def _definitional_clique_pipeline(g):
    """The clique pipeline by definition: the order slices of the clique
    subsystem of the universe of all separations."""
    u = enumerate_graph_separations(g)
    chain = slice_chain(u, within=clique_subsystem(g, u, None))
    levels = enumerate_chain_profiles(chain, PROFILE)
    base = pipelines._profiles_and_family(chain, levels, g)
    return pipelines._extract_and_check(base, True)


def test_clique_pipeline_matches_the_definitional_route():
    """The pipeline over the clique separations alone agrees with the full
    universe cut down to its clique subsystem, on the corpus and on
    disconnected graphs, one of which makes the precheck meet corners the
    clique universe lacks."""
    from test_universes import DISCONNECTED

    for g in corpus.all_connected_graphs(6) + DISCONNECTED:
        assert _clique_outcome(clique_pipeline(g)) == _clique_outcome(_definitional_clique_pipeline(g)), g


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 7), edges=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=9))
def test_clique_pipeline_matches_the_definitional_route_on_random_graphs(n, edges):
    g = Graph(range(n), [(a, b) for a, b in edges if a < b < n])
    assert _clique_outcome(clique_pipeline(g)) == _clique_outcome(_definitional_clique_pipeline(g))


def test_empty_first_level_holds_the_empty_orientation_exactly_when_the_oracle_accepts_it(p4):
    """Each kind on a slice chain with an empty level prepended; on 5 points
    a circle with ``m`` above the point count has no circle tangle on any
    level, the empty one included."""
    slices = slice_chain(enumerate_graph_separations(p4))
    cases = [(slices, *PROFILE_CASE), (slices, *tangle_case(p4))]
    u, circle = enumerate_circle_separations([1, 2, 3, 4, 5])
    cases += [(slice_chain(u, within=circle), *circle_case(m, n)) for m, n in ((1, 4), (5, 4), (6, 4))]
    counts = []
    for chain, kind, oracle in cases:
        empty = SubSystem(chain.universe, frozenset())
        padded = chain_of(chain.universe, (empty,) + levels_of(chain))
        levels = enumerate_chain_profiles(padded, kind)
        nothing = Orientation(empty, frozenset())
        assert levels[0] == ([nothing] if satisfies(nothing, oracle) else []), kind
        assert levels[1:] == enumerate_chain_profiles(chain, kind), kind
        counts.append([len(level) for level in levels])
    *_, five, six = counts  # m = 5 and m = 6 on the 5 points
    assert five[0] == 1
    assert len(six) > 1 and not any(six)


def test_search_matches_naive_on_arbitrary_subsystems(p4):
    """Subsystems that are not order slices miss the corners that make some
    pruning tests redundant on slices, so each test has to hold on its own."""
    rng = random.Random(7)
    paw = Graph([1, 2, 3, 4], [(1, 2), (1, 3), (2, 3), (3, 4)])
    for g in (p4, paw):
        u = enumerate_graph_separations(g)
        uids = u.unoriented_ids()
        subsets = [set(c) for size in (1, 2) for c in combinations(uids, size)]
        subsets += [rng.sample(uids, rng.randint(3, 7)) for _ in range(60)]
        for members in subsets:
            system = SubSystem(u, frozenset(members))
            for kind, oracle in (PROFILE_CASE, tangle_case(g)):
                got = sorted((o.chosen for o in enumerate_profiles(system, kind)), key=sorted)
                assert got == naive_enumerate(system, oracle), (g, kind, sorted(members))


def test_tangle_search_matches_oracles_off_the_connected_corpus():
    """Disconnected graphs, isolated vertices and edgeless graphs have small
    sides other than the empty set and ``V`` with an empty rim, and pairs of
    sides that leave vertices but no edges uncovered, which no connected
    graph on two or more vertices has; the search must still equal both
    oracles on them."""
    rng = random.Random(5)

    def connected(g):
        seen, todo = 1, 1
        while todo:
            low = todo & -todo
            todo ^= low
            new = g.adj[low.bit_length() - 1] & ~seen
            seen |= new
            todo |= new
        return seen == (1 << g.n) - 1

    graphs = [Graph(range(n), []) for n in (4, 5)]
    graphs.append(Graph(range(6), [(0, 1), (1, 2), (0, 2), (2, 3)]))
    while len(graphs) < 12:
        n = rng.randint(4, 6)
        g = Graph(range(n), [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        if not connected(g):
            graphs.append(g)
    for g in graphs:
        kind, oracle = tangle_case(g)
        chain = slice_chain(enumerate_graph_separations(g))
        got = [[o.chosen for o in level] for level in enumerate_chain_profiles(chain, kind)]
        assert got == backtrack_chain(chain, oracle), g
        uids = chain.universe.unoriented_ids()
        for _ in range(8):
            system = SubSystem(chain.universe, frozenset(rng.sample(uids, min(len(uids), 6))))
            got = sorted((o.chosen for o in enumerate_profiles(system, kind)), key=sorted)
            assert got == naive_enumerate(system, oracle), (g, sorted(system.members))


# ----------------------------------------------------------------------
# the search stops at the elimination width


@pytest.fixture(scope="module")
def width_cases(small_corpus):
    """``(graph, slice chain, uncapped levels)``: every graph on at most 5
    vertices (the connected corpus, edgeless graphs, stars and matchings
    among them), the 11 trees on 7 vertices, and two sparse 10-vertex
    graphs, edgeless and ``K2 + 8 K1``, whose tangles of order 1 exceed the
    branch-width.  The levels come from the uncapped search of the whole
    slice chain, which rule (T) oracles check above."""
    graphs = all_graphs(5)
    assert len(graphs) == 52 and set(small_corpus) <= set(graphs)
    graphs += trees(7) + [Graph(range(10)), Graph(range(10), [(0, 1)])]
    cases = []
    for g in graphs:
        chain = slice_chain(enumerate_graph_separations(g))
        levels = enumerate_chain_profiles(chain, graph_tangle_kind(g))
        cases.append((g, chain, [[o.chosen for o in level] for level in levels]))
    return cases


def _chosen(res):
    return [[o.chosen for o in level] for level in res.levels]


def test_graph_tangles_equal_the_uncapped_search(width_cases):
    """No level above the elimination width holds a tangle, so searching
    only up to it loses none, and the reported chain is the whole slice
    chain.  The cut is tight (a tangle at the width itself) on 35 of the 65
    graphs, the trees and the 10-vertex graphs among them."""
    tight = []
    for g, chain, want in width_cases:
        res = graph_tangles(g)
        assert _chosen(res) == want, g
        assert res.chain.thresholds == chain.thresholds == tuple(range(g.n + 1)), g
        assert [s.members for s in levels_of(res.chain)] == [s.members for s in levels_of(chain)], g
        assert (res.chain.members, res.chain.ends) == (chain.members, chain.ends), g
        assert not any(want[g.elimination_width + 1 :]), g
        if want[g.elimination_width]:
            tight.append(g)
    assert len(tight) == 35 and tight[-13:] == [g for g, _, _ in width_cases[-13:]]


def test_graph_tangles_below_max_order_equal_the_uncapped_search(width_cases):
    """``max_order`` cuts the chain at its thresholds below it, with the
    ranking of the whole chain cut at the same level."""
    for g, chain, want in width_cases:
        if g.n > 7:
            continue
        for k in (1, 2, 3):
            res = graph_tangles(g, max_order=k)
            count = min(k, len(chain))
            assert res.chain.thresholds == chain.thresholds[:count], (g, k)
            assert (res.chain.members, res.chain.ends) == ranked_members(res.chain), (g, k)
            assert _chosen(res) == want[:count], (g, k)


def test_a_cap_one_below_the_width_loses_tangles(width_cases, monkeypatch):
    """The width cap is exact where it is tight: capping one level lower
    drops tangles."""
    width = Graph.elimination_width.func
    monkeypatch.setattr(Graph, "elimination_width", property(lambda g: width(g) - 1))
    assert any(_chosen(graph_tangles(g)) != want for g, _, want in width_cases)


def test_graph_tangles_never_try_a_member_above_the_width(monkeypatch):
    """A count of rule (T) work, not a timing: on the trees with 7
    vertices, of width 1, the search tries only orientations of members of
    order at most 1, and the uncapped search tries members of order 2."""
    tried = []
    rule = profiles._tangle_rule

    def counting_rule(graph, u, members, ends):
        try_add, undo = rule(graph, u, members, ends)

        def counted(x):
            tried.append(u.order(x))
            return try_add(x)

        return counted, undo

    monkeypatch.setattr(profiles, "_tangle_rule", counting_rule)
    for g in trees(7):
        assert g.elimination_width == 1
        tried.clear()
        graph_tangles(g)
        assert tried and max(tried) == 1, g
        tried.clear()
        enumerate_chain_profiles(slice_chain(enumerate_graph_separations(g)), graph_tangle_kind(g))
        assert max(tried) == 2, g


def test_graph_pipeline_builds_only_the_levels_that_hold_a_tangle(monkeypatch):
    """A count of level builds, not a timing: ``graph_pipeline`` builds
    the subsystem of each level holding a tangle once, and of no other.  On
    the edgeless graph with 10 vertices, of width 0, that is no level above
    the width, though the chain reports all 11; on the triangle, of width 2,
    it skips the searched level 2, which holds no tangle."""
    built = []
    level = SubsystemChain.level

    def counted(chain, i):
        built.append(i)
        return level(chain, i)

    monkeypatch.setattr(SubsystemChain, "level", counted)
    for g, width, holding in ((Graph(range(10)), 0, [0]), (corpus.complete_graph(3), 2, [0, 1])):
        built.clear()
        res = graph_pipeline(g)
        assert g.elimination_width == width and len(res.chain) == g.n + 1, g
        assert [i for i, found in enumerate(res.levels) if found] == holding, g
        assert built == holding, g


def test_orientation_validation_names_the_fault(p4_universe):
    """A valid orientation is accepted at once; an invalid one is refused
    with the fault named, also when it has one oid per member or one uid
    per member."""
    u = p4_universe
    members = sorted(u.unoriented_ids())[:3]
    system = SubSystem(u, frozenset(members))
    assert len(Orientation(system, frozenset(members))) == 3
    assert len(Orientation(system, frozenset(map(u.inv, members)))) == 3
    outside = sorted(u.unoriented_ids())[3]
    cases = [
        (members + [outside], f"orientation chooses non-member separation {outside}"),
        (members[:2], "orientation must orient every member exactly once"),
        ([members[0], u.inv(members[0]), members[1]], f"both orientations of {members[0]} chosen"),
        (members + [u.inv(members[0])], f"both orientations of {members[0]} chosen"),
    ]
    for chosen, message in cases:
        with pytest.raises(SeparationError, match=f"^{message}$"):
            Orientation(system, frozenset(chosen))


def test_chain_profiles_restrict_downwards(two_k4, two_k4_universe):
    chain = slice_chain(two_k4_universe)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(two_k4))
    for system, low, high in zip(levels_of(chain), levels, levels[1:]):
        low_sets = {o.chosen for o in low}
        for t in high:
            restricted = frozenset(
                oid
                for oid in t.chosen
                if two_k4_universe.uid(oid) in system.members
            )
            assert restricted in low_sets


# ----------------------------------------------------------------------
# maximal profiles


def test_maximal_single_and_chain(p4_universe):
    s1 = restrict_Sk(p4_universe, 1)
    o1 = enumerate_profiles(s1, PROFILE)[0]
    assert maximal_profiles([o1]) == [o1]


def test_maximal_matches_pairwise_subset_oracle(two_k4, two_k4_universe):
    chain = slice_chain(two_k4_universe)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(two_k4))
    allp = [p for lvl in levels for p in lvl]
    got = {p.chosen for p in maximal_profiles(allp)}
    oracle = {
        p.chosen
        for p in allp
        if not any(q.chosen > p.chosen for q in allp)
    }
    assert got == oracle
    assert len(got) == 3  # two clique tangles plus the bridge-edge tangle


# ----------------------------------------------------------------------
# distinguishers


def test_identical_profiles_distinguish_nothing(p4_universe):
    s2 = restrict_Sk(p4_universe, 2)
    o = orient_towards(p4_universe, s2, "d")
    for uid in sorted(s2.members):
        assert not distinguishes(p4_universe, uid, o, o)


def test_distinguish_error_when_not_in_both_bases(p4_universe):
    s1 = restrict_Sk(p4_universe, 1)
    s2 = restrict_Sk(p4_universe, 2)
    o1 = orient_towards(p4_universe, s1, "d")
    o2 = orient_towards(p4_universe, s2, "d")
    outside = sorted(s2.members - s1.members)[0]
    with pytest.raises(SeparationError):
        distinguishes(p4_universe, outside, o1, o2)


def test_bridge_separation_distinguishes_the_two_clique_tangles(two_k4, two_k4_universe):
    u = two_k4_universe
    # the two clique tangles are the maximal tangles orienting the most separations
    top = sorted(graph_pipeline_result(two_k4, u), key=len)[-2:]
    assert len(top) == 2
    b = bridge_uid(u)
    assert distinguishes(u, b, top[0], top[1])
    assert efficiently_distinguishes(u, b, top[0], top[1])


def bridge_uid(u):
    return u.uid(u.find(u.mask_of([1, 2, 3, 4]), u.mask_of([4, 5, 6, 7, 8])))


def graph_pipeline_result(g, u):
    chain = slice_chain(u)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(g))
    return maximal_profiles([p for l in levels for p in l])


def test_higher_order_distinguisher_is_not_efficient(two_k4, two_k4_universe):
    u = two_k4_universe
    top = [p for p in graph_pipeline_result(two_k4, u) if len(p) > 40]
    p, q = top
    ds = distinguishers(p, q)
    best = min(u.order(d) for d in ds)
    worse = [d for d in ds if u.order(d) > best]
    assert worse, "expected some non-minimal distinguisher"
    assert not efficiently_distinguishes(u, worse[0], p, q)
    for d in efficient_distinguishers(p, q):
        assert u.order(d) == best


def test_unique_distinguisher_is_efficient(bip4):
    r = bip4.find(bip4.mask_of([1, 2]), bip4.mask_of([3, 4]))
    system = SubSystem(bip4, frozenset({bip4.uid(r)}))
    p = Orientation(system, frozenset({r}))
    q = Orientation(system, frozenset({bip4.inv(r)}))
    assert efficiently_distinguishes(bip4, bip4.uid(r), p, q)


def test_sequence_context_singleton_every_distinguisher_efficient(p4_universe):
    s2 = restrict_Sk(p4_universe, 2)
    chain = chain_of(p4_universe, (s2,))
    tangles = enumerate_profiles(s2, graph_tangle_kind(Graph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
    )))
    p, q = tangles[0], tangles[1]
    for d in distinguishers(p, q):
        assert efficiently_distinguishes(p4_universe, d, p, q, context=chain)


# ----------------------------------------------------------------------
# families


def test_family_single_pair_single_distinguisher(bip4):
    r = bip4.find(bip4.mask_of([1, 2]), bip4.mask_of([3, 4]))
    system = SubSystem(bip4, frozenset({bip4.uid(r)}))
    p = Orientation(system, frozenset({r}))
    q = Orientation(system, frozenset({bip4.inv(r)}))
    fam = build_distinguisher_family([p, q])
    assert fam.keys == ((0, 1),)
    assert fam.sets[(0, 1)] == frozenset({bip4.uid(r)})


def test_family_efficient_sets_share_one_order(two_k4, two_k4_universe):
    top = graph_pipeline_result(two_k4, two_k4_universe)
    fam = build_distinguisher_family(top)
    for key in fam.keys:
        orders = {two_k4_universe.order(d) for d in fam.sets[key]}
        assert len(orders) == 1
        assert orders.pop() == fam.levels[key]


def test_family_auto_excludes_indistinguishable(p4_universe):
    s1 = restrict_Sk(p4_universe, 1)
    o = enumerate_profiles(s1, PROFILE)[0]
    s2 = restrict_Sk(p4_universe, 2)
    bigger = [p for p in enumerate_profiles(s2, PROFILE) if o.chosen <= p.chosen][0]
    assert not distinguishers(o, bigger)
    for fam in (build_distinguisher_family([o, bigger]), pairwise_family([o, bigger], mode="all")):
        assert len(fam.keys) == 0


def _oracle_inputs():
    """Pipeline results over the 143 connected graphs on at most 6 vertices
    (tangles by both extractions, and clique profiles), Petersen,
    ``two_cliques(5)``, and circles of 5 to 8 points under both unit cut
    orders at (m, n) = (1, 4) and (2, 5)."""
    graphs = corpus.all_connected_graphs(6) + [corpus.petersen_graph(), corpus.two_cliques(5)]
    for g in graphs:
        yield graph_pipeline(g)
        yield graph_pipeline(g, canonical=True)
        yield clique_pipeline(g)
    for npts in (5, 6, 7, 8):
        pts = list(range(1, npts + 1))
        for order in (cycle_cut_order, complete_cut_order):
            for m, n in ((1, 4), (2, 5)):
                yield circle_pipeline(pts, m, n, order(pts))


def test_family_and_verdict_match_the_pairwise_oracles():
    """The one-pass family equals the family built pair by pair from
    ``efficient_distinguishers``, skipping exactly the indistinguishable
    pairs; its verdict equals the pairwise one on the extracted set and on
    every subset one element smaller."""
    families = verdicts = 0
    for result in _oracle_inputs():
        profiles, fam, nested = result.profiles, result.family, result.nested
        if fam is not None:
            oracle = pairwise_family(profiles)
            assert fam.keys == oracle.keys
            assert fam.sets == oracle.sets and fam.levels == oracle.levels
            skipped = set(combinations(range(len(profiles)), 2)) - set(fam.keys)
            assert all(not distinguishers(profiles[i], profiles[j]) for i, j in skipped)
            families += 1
        for sub in [nested] + [nested - {x} for x in nested]:
            got = efficiently_distinguishes_all(sub, fam)
            assert got == pairwise_distinguishes_all(sub, profiles)
            verdicts += not got
    assert families >= 300 and verdicts >= 400, (families, verdicts)


# ----------------------------------------------------------------------
# robustness


def test_single_profile_is_robust(p4_universe):
    chain = slice_chain(p4_universe)
    s1 = levels_of(chain)[0]
    o = enumerate_profiles(s1, PROFILE)[0]
    assert is_robust_set([o], chain)


def test_corpus_tangle_sets_are_robust(small_corpus):
    for g in small_corpus:
        u = enumerate_graph_separations(g)
        chain = slice_chain(u)
        levels = enumerate_chain_profiles(chain, graph_tangle_kind(g))
        tangles = maximal_profiles([p for l in levels for p in l])
        assert is_robust_set(tangles, chain), g


def test_synthetic_robustness_violation():
    u = bipartition_universe([1, 2, 3, 4])
    r = u.find(u.mask_of([1, 2]), u.mask_of([3, 4]))
    s = u.find(u.mask_of([1, 4]), u.mask_of([2, 3]))
    ru, su = u.uid(r), u.uid(s)
    s1 = SubSystem(u, frozenset({ru}))
    s2 = SubSystem(u, frozenset({ru, su}))
    chain = chain_of(u, (s1, s2))
    Q = Orientation(s2, frozenset({r, s}))
    Q2 = Orientation(s2, frozenset({r, u.inv(s)}))
    P = Orientation(s1, frozenset({u.inv(r)}))
    witness = []
    assert not is_robust_set([P, Q, Q2], chain, witness=witness)
    assert witness


def test_profiles_of_a_universe_not_closed_under_meets():
    """A corner outside the universe forbids nothing: {1}|{2,3} and
    {2}|{1,3} without their corners have three consistent orientations,
    all of them profiles."""
    pairs = [(0b001, 0b110), (0b110, 0b001), (0b010, 0b101), (0b101, 0b010)]
    u = Universe([1, 2, 3], pairs)
    system = SubSystem(u, frozenset(u.unoriented_ids()))
    got = sorted((o.chosen for o in enumerate_profiles(system, PROFILE)), key=sorted)
    assert len(got) == 3
    assert got == naive_enumerate(system, has_profile_property)


def test_circle_tangles_empirically_satisfy_profile_property():
    """Observed, not enforced: the F-family definition does not require (P),
    but at desk scale every circle tangle found happens to satisfy it."""
    from totkit.pipelines import circle_pipeline, cycle_cut_order

    for npts in (5, 6):
        pts = list(range(1, npts + 1))
        r = circle_pipeline(pts, m=1, n=4, order_fn=cycle_cut_order(pts))
        for lvl in r.levels:
            for t in lvl:
                assert has_profile_property(t)


# ----------------------------------------------------------------------
# JSON round trip


def test_orientation_json_round_trip(two_k4, two_k4_universe):
    top = graph_pipeline_result(two_k4, two_k4_universe)
    for p in top:
        doc = orientation_to_json(p)
        back = orientation_from_json(two_k4_universe, doc)
        assert back == p
