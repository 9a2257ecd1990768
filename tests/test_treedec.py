"""Tree-decomposition construction, round trips, display checks."""

import pytest

from totkit import corpus
from totkit.errors import NotNestedError
from totkit.pipelines import efficiently_distinguishes_all, graph_pipeline
from totkit.profiles import (
    build_distinguisher_family,
    enumerate_chain_profiles,
    graph_tangle_kind,
    maximal_profiles,
)
from totkit.treedec import (
    TreeDecomposition,
    _edge_sides,
    build_tree_decomposition,
    decomposition_to_dot,
    decomposition_to_json,
    displays,
    induced_uids,
    is_tree_set,
    is_valid_tree_decomposition,
)
from totkit.universes import Graph, enumerate_graph_separations, slice_chain


def test_empty_set_gives_single_full_bag(p4, p4_universe):
    td = build_tree_decomposition(p4, p4_universe, [])
    assert td.nodes == [0]
    assert td.bags[0] == frozenset(p4.vertices)
    assert induced_uids(td, p4_universe) == frozenset()


def test_single_separation_two_bags(p4, p4_universe):
    s = p4_universe.uid(
        p4_universe.find(p4_universe.mask_of(["a", "b"]), p4_universe.mask_of(["b", "c", "d"]))
    )
    td = build_tree_decomposition(p4, p4_universe, [s])
    assert sorted(map(sorted, td.bags.values())) == [["a", "b"], ["b", "c", "d"]]
    assert induced_uids(td, p4_universe) == frozenset({s})


def test_two_k4_decomposition_separates_cliques(two_k4, two_k4_universe):
    result = graph_pipeline(two_k4)
    td = result.decomposition
    bags = [set(b) for b in td.bags.values()]
    assert {1, 2, 3, 4} in bags and {5, 6, 7, 8} in bags
    assert induced_uids(td, two_k4_universe) == result.nested


def test_crossing_input_rejected():
    g = corpus.cycle_graph(4)
    u = enumerate_graph_separations(g)
    a = u.uid(u.find(u.mask_of([1, 2, 3]), u.mask_of([3, 4, 1])))
    b = u.uid(u.find(u.mask_of([2, 3, 4]), u.mask_of([4, 1, 2])))
    assert not u.nested(a, b)
    with pytest.raises(NotNestedError):
        build_tree_decomposition(g, u, [a, b])


def test_round_trip_on_pipeline_outputs(small_corpus):
    for g in small_corpus:
        result = graph_pipeline(g)
        td = result.decomposition
        ok, reason = is_valid_tree_decomposition(td)
        assert ok, (g, reason)
        assert induced_uids(td, result.universe) == result.nested


def test_small_and_trivial_members_tolerated(p4, p4_universe):
    u = p4_universe
    bottom = u.uid(u.find(0, u.full_mask))
    chain = [
        u.uid(u.find(u.mask_of(["a", "b"]), u.mask_of(["b", "c", "d"]))),
        bottom,
    ]
    td = build_tree_decomposition(p4, u, chain)
    assert induced_uids(td, u) == frozenset(chain)


def test_is_tree_set_examples(p4_universe):
    u = p4_universe
    assert is_tree_set(u, [])
    s = u.uid(u.find(u.mask_of(["a", "b"]), u.mask_of(["b", "c", "d"])))
    assert is_tree_set(u, [s])
    bottom = u.uid(u.find(0, u.full_mask))
    assert not is_tree_set(u, [s, bottom])


def test_pipeline_outputs_are_regular_tree_sets(small_corpus):
    """Distinguishing separations are never small, so outputs are regular tree sets."""
    from oracles import is_regular

    for g in small_corpus:
        result = graph_pipeline(g)
        u = result.universe
        assert is_tree_set(u, result.nested)
        assert is_regular(u, result.nested)


def test_displays_single_tangle_vacuous(p4, p4_universe):
    td = build_tree_decomposition(p4, p4_universe, [])
    chain = slice_chain(p4_universe)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(p4))
    one = maximal_profiles([p for l in levels for p in l])[:1]
    assert displays(td, build_distinguisher_family(one), p4_universe)


def test_displays_detects_missing_bridge(two_k4, two_k4_universe):
    result = graph_pipeline(two_k4)
    assert efficiently_distinguishes_all(result.nested, result.family)
    # rebuild the decomposition without any order-1 separation
    u = result.universe
    reduced = [x for x in result.nested if u.order(x) > 1]
    td = build_tree_decomposition(two_k4, u, reduced)
    assert not displays(td, result.family, u)



def test_displays_reads_the_current_tree(two_k4):
    result = graph_pipeline(two_k4)
    td, u = result.decomposition, result.universe
    assert displays(td, result.family, u)
    # collapsing the built tree to one bag leaves no separation to distinguish by
    td.bags = {0: frozenset(two_k4.vertices)}
    td.edges = []
    assert not displays(td, result.family, u)


def test_json_and_dot_exports(two_k4):
    result = graph_pipeline(two_k4)
    doc = decomposition_to_json(result.decomposition)
    assert {n["id"] for n in doc["nodes"]} == set(result.decomposition.nodes)
    dot = decomposition_to_dot(result.decomposition)
    assert dot.startswith("graph treedec {")
    assert dot.count(" -- ") == len(doc["edges"])


def test_wheel_graph_pipeline_round_trip():
    g = Graph(
        [1, 2, 3, 4, 5, 6],
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (6, 1), (6, 2), (6, 3), (6, 4), (6, 5)],
    )
    result = graph_pipeline(g)
    assert efficiently_distinguishes_all(result.nested, result.family)
    assert induced_uids(result.decomposition, result.universe) == result.nested


# ----------------------------------------------------------------------
# the one-walk edge split against the per-edge walk


def _edge_split(td, a, b):
    """Nodes on the two sides of tree edge (a, b), by a walk of its own; the oracle."""
    adj = {x: set() for x in td.bags}
    for x, y in td.edges:
        adj[x].add(y)
        adj[y].add(x)
    side = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in side and not (x == a and y == b):
                side.add(y)
                stack.append(y)
    return side, set(td.bags) - side


def _oracle_sides(td):
    out = []
    for a, b in td.edges:
        left, right = _edge_split(td, a, b)
        out.append(
            (frozenset().union(*(td.bags[x] for x in left)), frozenset().union(*(td.bags[x] for x in right)))
        )
    return out


def _oracle_induced_uids(td, u):
    return frozenset(u.uid(u.find(u.mask_of(ua), u.mask_of(ub))) for ua, ub in _oracle_sides(td))


def test_one_walk_matches_per_edge_walk_on_corpus():
    checked = 0
    for g in corpus.all_connected_graphs(6):
        for result in (graph_pipeline(g), graph_pipeline(g, canonical=True)):
            td = result.decomposition
            assert _edge_sides(td) == _oracle_sides(td), g
            assert induced_uids(td, result.universe) == _oracle_induced_uids(td, result.universe)
            checked += len(td.edges)
    assert checked > 200


def test_one_walk_matches_per_edge_walk_on_random_trees():
    import random

    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 12)
        labels = list(range(n))
        rng.shuffle(labels)  # node ids need not follow the tree's shape
        edges = []
        for i in range(1, n):
            a, b = labels[i], labels[rng.randrange(i)]
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
        rng.shuffle(edges)
        bags = {x: frozenset(rng.sample("abcdefgh", rng.randint(1, 3))) for x in labels}
        td = TreeDecomposition(graph=None, bags=bags, edges=edges)
        assert _edge_sides(td) == _oracle_sides(td)


def _is_valid_by_search(td):
    """Validity with its own search per vertex, as before the shared tree walk; the oracle."""
    nodes = set(td.bags)
    if not nodes:
        return False, "no nodes"
    if len(td.edges) != len(nodes) - 1:
        return False, "edge count is not nodes - 1"
    adj = {x: set() for x in nodes}
    for x, y in td.edges:
        if x not in nodes or y not in nodes:
            return False, "edge endpoint is not a node"
        adj[x].add(y)
        adj[y].add(x)

    def component(start, allowed):
        seen, stack = set(), [start]
        while stack:
            x = stack.pop()
            if x not in seen and x in allowed:
                seen.add(x)
                stack.extend(adj[x])
        return seen

    if component(next(iter(nodes)), nodes) != nodes:
        return False, "tree is not connected"
    if set().union(*td.bags.values()) != set(td.graph.vertices):
        return False, "bags do not cover all vertices"
    for u, v in td.graph.edges:
        if not any(u in bag and v in bag for bag in td.bags.values()):
            return False, f"edge ({u!r}, {v!r}) is in no bag"
    for v in td.graph.vertices:
        holding = {x for x, bag in td.bags.items() if v in bag}
        if component(next(iter(holding)), holding) != holding:
            return False, f"bags holding {v!r} are not connected"
    return True, "ok"


def test_validity_matches_search_oracle_on_random_decompositions():
    import random

    rng = random.Random(5)
    g = Graph([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    reasons = set()
    for _ in range(1500):
        n = rng.randint(1, 6)
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        if rng.random() < 0.3 and n > 2:  # a cycle, a missing edge, or a stray endpoint
            edges[rng.randrange(len(edges))] = rng.choice([(0, n - 1), (1, 1), (0, n)])
        bags = {x: frozenset(rng.sample(g.vertices, rng.randint(1, 4))) for x in range(n)}
        td = TreeDecomposition(graph=g, bags=bags, edges=edges)
        got = is_valid_tree_decomposition(td)
        assert got == _is_valid_by_search(td), (bags, edges)
        reasons.add(" ".join(w for w in got[1].split() if w.isalpha()))
    assert reasons == {
        "ok",
        "edge endpoint is not a node",
        "tree is not connected",
        "bags do not cover all vertices",
        "edge is in no bag",
        "bags holding are not connected",
    }
