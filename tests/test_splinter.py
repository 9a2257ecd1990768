"""Splinter predicates, transversal extraction, canonical extraction."""

from itertools import product

import pytest

from totkit import corpus
from totkit.errors import (
    HierarchicalConditionError,
    SeparationError,
    SplinterConditionError,
)
from totkit.pipelines import graph_pipeline
from totkit.profiles import (
    build_distinguisher_family,
    enumerate_chain_profiles,
    graph_tangle_kind,
    maximal_profiles,
)
from totkit.splinter import (
    IndexedFamily,
    extract_canonical,
    extract_transversal,
    extremal_elements,
    map_family,
    splinters,
    splinters_hierarchically,
)
from totkit.universes import (
    automorphisms,
    bipartition_universe,
    enumerate_graph_separations,
    lift_permutation,
    slice_chain,
)


def uid_of(u, a, b):
    return u.uid(u.find(u.mask_of(a), u.mask_of(b)))


@pytest.fixture()
def crossing_pair(bip4):
    return uid_of(bip4, [1, 2], [3, 4]), uid_of(bip4, [2, 3], [4, 1])


# ----------------------------------------------------------------------
# splinters


def test_nested_singletons_splinter(bip4):
    a = uid_of(bip4, [1], [2, 3, 4])
    b = uid_of(bip4, [1, 2], [3, 4])
    ok, w = splinters(IndexedFamily(bip4, [{a}, {b}]))
    assert ok and w is None


def test_single_crossing_set_splinters(bip4, crossing_pair):
    s, t = crossing_pair
    ok, _ = splinters(IndexedFamily(bip4, [{s, t}]))
    assert ok


def test_two_crossing_singletons_fail(bip4, crossing_pair):
    s, t = crossing_pair
    ok, witness = splinters(IndexedFamily(bip4, [{s}, {t}]))
    assert not ok
    assert witness == (0, 1, min(s, t), max(s, t)) or witness == (0, 1, s, t)


def test_empty_set_rejected(bip4):
    with pytest.raises(SeparationError):
        IndexedFamily(bip4, [set()])


# ----------------------------------------------------------------------
# extract_transversal


def test_single_set_picks_first_canonical(bip4, crossing_pair):
    s, t = crossing_pair
    res = extract_transversal(IndexedFamily(bip4, [{s, t}]))
    assert res.picks == {0: min(s, t)}


def test_nested_singletons_are_their_own_transversal(bip4):
    a = uid_of(bip4, [1], [2, 3, 4])
    b = uid_of(bip4, [1, 2], [3, 4])
    res = extract_transversal(IndexedFamily(bip4, [{a}, {b}]))
    assert res.picks == {0: a, 1: b}


def test_transversal_precondition_failure(bip4, crossing_pair):
    s, t = crossing_pair
    with pytest.raises(SplinterConditionError):
        extract_transversal(IndexedFamily(bip4, [{s}, {t}]))


def brute_force_nested_transversal(u, sets):
    for picks in product(*[sorted(s) for s in sets]):
        vals = sorted(set(picks))
        if all(
            u.nested(a, b) for i, a in enumerate(vals) for b in vals[i + 1 :]
        ):
            return picks
    return None


def counter_families(u, count, max_sets=4, max_size=3):
    """Deterministic stream of small families over a universe."""
    from totkit.corpus import splitmix64

    uids = list(u.unoriented_ids())
    found = 0
    counter = 0
    while found < count:
        counter += 1
        h = splitmix64(counter)
        nsets = 1 + h % max_sets
        sets = []
        for i in range(nsets):
            size = 1 + splitmix64(h + i) % max_size
            members = {
                uids[splitmix64(h + 31 * i + 7 * j) % len(uids)]
                for j in range(size)
            }
            sets.append(members)
        yield counter, sets
        found += 1


def test_transversal_agrees_with_exhaustive_search(bip4):
    checked = 0
    for counter, sets in counter_families(bip4, 120):
        fam = IndexedFamily(bip4, sets)
        ok, _ = splinters(fam)
        if not ok:
            continue
        res = extract_transversal(fam, debug=True)
        assert brute_force_nested_transversal(bip4, sets) is not None
        for k, s in zip(fam.keys, sets):
            assert res.picks[k] in s
        checked += 1
    assert checked >= 30


def test_transversal_on_tangle_families(two_k4, two_k4_universe):
    chain = slice_chain(two_k4_universe)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=two_k4)
    top = maximal_profiles([p for l in levels for p in l])
    fam = build_distinguisher_family(top, mode="efficient", order_mode="by-order")
    res = extract_transversal(fam, debug=True)
    sets = [fam.sets[k] for k in fam.keys]
    assert brute_force_nested_transversal(two_k4_universe, sets) is not None
    vals = sorted(res.nested_set())
    for i, a in enumerate(vals):
        for b in vals[i + 1 :]:
            assert two_k4_universe.nested(a, b)


def test_trace_is_jsonl(bip4):
    a = uid_of(bip4, [1], [2, 3, 4])
    b = uid_of(bip4, [1, 2], [3, 4])
    res = extract_transversal(IndexedFamily(bip4, [{a}, {b}]))
    import json

    lines = res.trace_jsonl().splitlines()
    assert lines
    for line in lines:
        assert "depth" in json.loads(line)


def test_transversal_scales_to_45_keys():
    """Every 1- and 2-element subset of a 9-element chain: the old recurse-twice
    induction needed 2**45 steps here."""
    import time

    u = bipartition_universe(range(1, 11))
    chain = [uid_of(u, range(1, i + 1), range(i + 1, 11)) for i in range(1, 10)]
    sets = [{c} for c in chain] + [
        {a, b} for i, a in enumerate(chain) for b in chain[i + 1 :]
    ]
    assert len(sets) == 45
    start = time.perf_counter()
    res = extract_transversal(IndexedFamily(u, sets), debug=True)
    assert time.perf_counter() - start < 2.0
    assert len(res.trace) <= len(sets)
    for k, s in enumerate(sets):
        assert res.picks[k] in s


def test_duplicate_sets_share_one_pick(bip4, crossing_pair):
    s, _ = crossing_pair
    a = uid_of(bip4, [1], [2, 3, 4])
    sets = {"x": {s, a}, "y": {a}, "z": {s, a}, "w": {a}, "v": {s, a}}
    res = extract_transversal(IndexedFamily(bip4, sets), debug=True)
    assert res.picks["x"] == res.picks["z"] == res.picks["v"]
    assert res.picks["y"] == res.picks["w"] == a
    assert len(res.trace) <= 2


def test_transversal_trace_is_linear_on_path7():
    res = graph_pipeline(corpus.path_graph(7), canonical=False)
    assert len(res.extraction.trace) <= len(res.family.keys)


# ----------------------------------------------------------------------
# extremal elements


def test_extremal_singleton(bip4):
    s = uid_of(bip4, [1, 2], [3, 4])
    assert extremal_elements(bip4, {s}) == frozenset({s})


def test_extremal_chain_contains_both_ends(bip4):
    r = uid_of(bip4, [1], [2, 3, 4])
    s = uid_of(bip4, [1, 2], [3, 4])
    assert extremal_elements(bip4, {r, s}) == frozenset({r, s})


def test_extremal_matches_brute_scan():
    g = corpus.star_graph(4)
    u = enumerate_graph_separations(g)
    A = [m for m in u.unoriented_ids() if u.order(m) < 1]
    got = extremal_elements(u, A)
    oriented = {o for uid in A for o in u.orientations(uid)}
    expect = set()
    for uid in A:
        for o in u.orientations(uid):
            if not any(u.lt(o, y) for y in oriented):
                expect.add(uid)
                break
    assert got == frozenset(expect)


# ----------------------------------------------------------------------
# splinters_hierarchically


def test_single_crossing_set_fails_hierarchical(bip4, crossing_pair):
    s, t = crossing_pair
    ok, witness = splinters_hierarchically(IndexedFamily(bip4, [{s, t}]))
    assert not ok
    assert witness is not None


def test_nested_sets_pass_with_empty_order(bip4):
    a = uid_of(bip4, [1], [2, 3, 4])
    b = uid_of(bip4, [1, 2], [3, 4])
    c = uid_of(bip4, [1, 2, 3], [4])
    ok, _ = splinters_hierarchically(IndexedFamily(bip4, [{a, b}, {b, c}]))
    assert ok


def test_corpus_efficient_families_splinter_hierarchically(small_corpus):
    for g in small_corpus:
        u = enumerate_graph_separations(g)
        chain = slice_chain(u)
        levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=g)
        top = maximal_profiles([p for l in levels for p in l])
        if len(top) < 2:
            continue
        fam = build_distinguisher_family(top, mode="efficient", order_mode="by-order")
        ok, w = splinters_hierarchically(fam)
        assert ok, (g, w)


def test_invalid_index_order_rejected(bip4):
    a = uid_of(bip4, [1], [2, 3, 4])
    with pytest.raises(SeparationError):
        IndexedFamily(bip4, {0: {a}, 1: {a}}, prec=[(0, 1), (1, 0)])


# ----------------------------------------------------------------------
# extract_canonical


def test_canonical_nested_singletons(bip4):
    a = uid_of(bip4, [1], [2, 3, 4])
    b = uid_of(bip4, [1, 2], [3, 4])
    res = extract_canonical(IndexedFamily(bip4, [{a}, {b}]))
    assert res.nested == frozenset({a, b})


def test_canonical_single_set_is_extremal_elements(bip4):
    a = uid_of(bip4, [1], [2, 3, 4])
    b = uid_of(bip4, [1, 2], [3, 4])
    res = extract_canonical(IndexedFamily(bip4, [{a, b}]))
    assert res.nested == extremal_elements(bip4, {a, b})


def test_canonical_refuses_non_hierarchical(bip4, crossing_pair):
    s, t = crossing_pair
    with pytest.raises(HierarchicalConditionError):
        extract_canonical(IndexedFamily(bip4, [{s, t}]))


def test_canonical_meets_every_set_and_is_nested(small_corpus):
    for g in small_corpus:
        u = enumerate_graph_separations(g)
        chain = slice_chain(u)
        levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=g)
        top = maximal_profiles([p for l in levels for p in l])
        if len(top) < 2:
            continue
        fam = build_distinguisher_family(top, mode="efficient", order_mode="by-order")
        res = extract_canonical(fam)
        for k in fam.keys:
            assert fam.sets[k] & res.nested
        vals = sorted(res.nested)
        for i, a in enumerate(vals):
            for b in vals[i + 1 :]:
                assert u.nested(a, b)


def test_canonical_equivariance_on_two_cliques(two_k4, two_k4_universe):
    u = two_k4_universe
    chain = slice_chain(u)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=two_k4)
    top = maximal_profiles([p for l in levels for p in l])
    fam = build_distinguisher_family(top, mode="efficient", order_mode="by-order")
    base = extract_canonical(fam).nested
    for perm in automorphisms(two_k4):
        mapping = lift_permutation(u, perm)
        mapped = map_family(fam, mapping)
        image = extract_canonical(mapped).nested
        assert image == frozenset(u.uid(mapping[x]) for x in base)


def test_canonical_output_is_order_independent(two_k4, two_k4_universe):
    u = two_k4_universe
    chain = slice_chain(u)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=two_k4)
    top = maximal_profiles([p for l in levels for p in l])
    fam = build_distinguisher_family(top, mode="efficient", order_mode="by-order")
    ref = extract_canonical(fam).nested
    rev = IndexedFamily(
        u,
        {k: fam.sets[k] for k in reversed(fam.keys)},
        levels=fam.levels,
    )
    assert extract_canonical(rev).nested == ref


def test_canonical_output_stays_within_family_support(small_corpus):
    """Every element of the canonical set lies in some family set, so each one
    efficiently distinguishes a pair of tangles."""
    for g in small_corpus:
        u = enumerate_graph_separations(g)
        chain = slice_chain(u)
        levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=g)
        top = maximal_profiles([p for l in levels for p in l])
        if len(top) < 2:
            continue
        fam = build_distinguisher_family(top, mode="efficient", order_mode="by-order")
        res = extract_canonical(fam)
        assert res.nested <= fam.union_support()


def test_canonical_trace_is_jsonl(two_k4, two_k4_universe):
    import json

    u = two_k4_universe
    chain = slice_chain(u)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=two_k4)
    top = maximal_profiles([p for l in levels for p in l])
    fam = build_distinguisher_family(top, mode="efficient", order_mode="by-order")
    res = extract_canonical(fam)
    lines = res.trace_jsonl().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert entry["event"] == "extremal"


def test_prune_redundant_is_noop_here(two_k4, two_k4_universe):
    u = two_k4_universe
    chain = slice_chain(u)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=two_k4)
    top = maximal_profiles([p for l in levels for p in l])
    fam = build_distinguisher_family(top, mode="efficient", order_mode="by-order")
    assert extract_canonical(fam, prune_redundant=True).nested == extract_canonical(fam).nested


# ----------------------------------------------------------------------
# map_family validation


def test_map_family_identity(bip4):
    a = uid_of(bip4, [1], [2, 3, 4])
    b = uid_of(bip4, [1, 2], [3, 4])
    fam = IndexedFamily(bip4, [{a}, {b}])
    ident = {o: o for o in bip4.oriented_ids()}
    mapped = map_family(fam, ident)
    assert mapped.sets == fam.sets


def test_map_family_rejects_non_order_preserving(bip4):
    a = uid_of(bip4, [1], [2, 3, 4])
    b = uid_of(bip4, [1, 2], [3, 4])
    fam = IndexedFamily(bip4, [{a}, {b}])
    bad = {o: o for o in bip4.oriented_ids()}
    # swap one comparable pair's images to break monotonicity
    a0 = bip4.orientations(a)[0]
    b0 = bip4.orientations(b)[0]
    if not bip4.leq(a0, b0):
        a0, b0 = bip4.inv(a0), bip4.inv(b0)
    bad[a0], bad[b0] = bad[b0], bad[a0]
    bad[bip4.inv(a0)], bad[bip4.inv(b0)] = bad[bip4.inv(b0)], bad[bip4.inv(a0)]
    with pytest.raises(SeparationError):
        map_family(fam, bad)


def test_map_family_requires_coverage(bip4):
    a = uid_of(bip4, [1], [2, 3, 4])
    fam = IndexedFamily(bip4, [{a}])
    with pytest.raises(SeparationError):
        map_family(fam, {})
