"""Splinter predicates, transversal extraction, canonical extraction."""

from itertools import product

import pytest

from totkit import corpus
from totkit.errors import (
    HierarchicalConditionError,
    SeparationError,
    SplinterConditionError,
)
from totkit.pipelines import complete_cut_order, cycle_cut_order, graph_pipeline, graph_tangles
from totkit.profiles import (
    PROFILE,
    build_distinguisher_family,
    circle_tangle_kind,
    enumerate_chain_profiles,
    graph_tangle_kind,
    maximal_profiles,
)
from totkit.sepsys import Universe
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
    clique_subsystem,
    enumerate_circle_separations,
    enumerate_graph_separations,
    lift_permutation,
    slice_chain,
)

from oracles import corner_items, pairwise_family, prec, reference_splinters, restricted_families_splinter


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


def random_corner_sets(u, uids, h):
    """2-5 sets, each an element, some of its corners with another element
    and maybe that element, or a repeat of an earlier set."""
    sets = []
    for i in range(2 + h % 4):
        r = corpus.splitmix64(h + 101 * i)
        if i and r % 3 == 0:
            sets.append(sets[(r >> 4) % i])
            continue
        x, y = uids[(r >> 8) % len(uids)], uids[(r >> 24) % len(uids)]
        picked = {c for bit, c in enumerate(u.corners(x, y)) if r >> (40 + bit) & 1}
        sets.append({x} | picked | ({y} if r >> 50 & 1 else set()))
    return sets


@pytest.mark.parametrize("npoints", [4, 5, 6])
def test_splinters_matches_reference_on_random_families(npoints):
    """100 families per universe, each also checked in shuffled key order,
    with one set repeated under a new key, and with random levels, which
    the predicate ignores."""
    import random

    points = range(1, npoints + 1)
    u = bipartition_universe(points, complete_cut_order(points))
    uids = list(u.unoriented_ids())
    verdicts = set()
    for counter in range(1, 101):
        h = corpus.splitmix64(1000 * npoints + counter)
        sets = random_corner_sets(u, uids, h)
        nsets = len(sets)
        order = list(range(nsets))
        random.Random(counter).shuffle(order)
        levels = {k: corpus.splitmix64(h + 17 * k) % 3 for k in range(nsets)}
        variants = [
            IndexedFamily(u, sets),
            IndexedFamily(u, {k: sets[k] for k in order}),
            IndexedFamily(u, sets + [sets[(h >> 32) % nsets]]),
            IndexedFamily(u, sets, levels=levels),
        ]
        for fam in variants:
            got = splinters(fam)
            assert got == reference_splinters(fam), (npoints, counter, fam.sets, fam.levels)
            verdicts.add(got[0])
    assert verdicts == {True, False}


def test_splinters_matches_reference_on_corpus_families(small_corpus):
    """The tangle families of the corpus graphs, and the ``mode="all"``
    families of every profile of their slice chains."""
    checked = 0
    for g in small_corpus:
        u = enumerate_graph_separations(g)
        chain = slice_chain(u)
        tangles = [p for l in enumerate_chain_profiles(chain, graph_tangle_kind(), graph=g) for p in l]
        top = maximal_profiles(tangles)
        profiles = [p for l in enumerate_chain_profiles(chain, PROFILE) for p in l]
        families = [pairwise_family(profiles, mode="all")]
        if len(top) >= 2:
            families += [build_distinguisher_family(top), pairwise_family(top, mode="all")]
        for fam in families:
            if not len(fam):
                continue
            got = splinters(fam)
            assert got == reference_splinters(fam), g
            checked += 1
    assert checked >= 50, checked


def test_transversal_witness_is_the_reference_witness_on_repeated_sets():
    """``extract_transversal`` prechecks the family itself, repeated sets
    included, and names the oracle's witness on the full family."""
    points = range(1, 6)
    u = bipartition_universe(points, complete_cut_order(points))
    uids = list(u.unoriented_ids())
    refused = 0
    for counter in range(1, 201):
        h = corpus.splitmix64(counter)
        sets = random_corner_sets(u, uids, h)
        sets = sets + [sets[(h >> 32) % len(sets)], sets[0]]
        fam = IndexedFamily(u, sets)
        ok, witness = reference_splinters(fam)
        if ok:
            assert extract_transversal(fam).picks.keys() == set(fam.keys)
            continue
        with pytest.raises(SplinterConditionError) as exc:
            extract_transversal(fam)
        assert exc.value.witness == witness, (counter, sets)
        refused += 1
    assert refused >= 20, refused


def test_precheck_makes_one_corner_lookup_per_crossing_support_pair(monkeypatch):
    """Both predicates look up the corners of each crossing pair of support
    elements at most once (the key-pair scan of ``reference_splinters`` makes
    278,208 lookups on this family)."""
    fam = graph_tangles(corpus.star_graph(8)).family
    u = fam.universe
    support = sorted(fam.union_support())
    crossing = sum(not u.nested(x, y) for i, x in enumerate(support) for y in support[i + 1 :])
    assert crossing == 5103
    corners = u.corners
    calls = []
    monkeypatch.setattr(u, "corners", lambda a, b: calls.append(1) or corners(a, b))
    for predicate in (splinters, splinters_hierarchically):
        calls.clear()
        assert predicate(fam) == (True, None)
        assert 0 < len(calls) <= crossing, (predicate.__name__, len(calls))


def test_universe_is_unchanged_by_a_pipeline_run_and_both_predicates(monkeypatch):
    """A universe is fixed at construction: a canonical run and both
    predicates on its family leave every attribute as it was made."""
    from copy import deepcopy

    from totkit import pipelines

    made = []

    def enumerate_and_copy(g, *args):
        u = enumerate_graph_separations(g, *args)
        made.append((u, deepcopy(vars(u))))
        return u

    monkeypatch.setattr(pipelines, "enumerate_graph_separations", enumerate_and_copy)
    res = graph_pipeline(corpus.star_graph(6), canonical=True)
    assert splinters(res.family) == splinters_hierarchically(res.family) == (True, None)
    [(u, before)] = made
    assert u is res.universe and vars(u) == before


def _first_crossing_key_pair(fam):
    """The hierarchical verdict where no corner of a crossing pair is in the
    universe: both of its rules need a corner in some set, so the first key
    pair ``i <= j``, then element pair, that crosses is the witness."""
    u = fam.universe
    for ii, ki in enumerate(fam.keys):
        for kj in fam.keys[ii:]:
            for a in sorted(fam.sets[ki]):
                for b in sorted(fam.sets[kj]):
                    if not u.nested(a, b):
                        return False, (ki, kj, a, b)
    return True, None


def test_predicates_read_a_missing_corner_as_held_by_no_set():
    """Over two crossing bipartitions without their corners (the universe of
    ``test_missing_corner_is_an_error``) neither predicate raises:
    ``splinters`` gives the reference verdict and witness, and
    ``splinters_hierarchically`` fails at the first crossing pair."""
    full = 0b1111
    u = Universe(range(4), [(m, full ^ m) for m in (0b0011, 0b1100, 0b0110, 0b1001)])
    r, s = sorted(u.unoriented_ids())
    choices = [{r}, {s}, {r, s}]
    seen = set()
    for n_sets in (1, 2, 3):
        for sets in product(choices, repeat=n_sets):
            for levels in product(range(2), repeat=n_sets):
                fam = IndexedFamily(u, list(sets), levels=dict(enumerate(levels)))
                got = splinters(fam)
                assert got == reference_splinters(fam), (sets, levels)
                hier = splinters_hierarchically(fam)
                assert hier == _first_crossing_key_pair(fam), (sets, levels)
                seen.add((got[0], hier[0]))
    assert seen == {(True, True), (True, False), (False, False)}


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
        res = extract_transversal(fam)
        assert restricted_families_splinter(fam, res)
        assert brute_force_nested_transversal(bip4, sets) is not None
        for k, s in zip(fam.keys, sets):
            assert res.picks[k] in s
        checked += 1
    assert checked >= 30


def test_transversal_on_tangle_families(two_k4, two_k4_universe):
    chain = slice_chain(two_k4_universe)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=two_k4)
    top = maximal_profiles([p for l in levels for p in l])
    fam = build_distinguisher_family(top)
    res = extract_transversal(fam)
    assert restricted_families_splinter(fam, res)
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
    fam = IndexedFamily(u, sets)
    start = time.perf_counter()
    res = extract_transversal(fam)
    assert time.perf_counter() - start < 2.0
    assert restricted_families_splinter(fam, res)
    assert len(res.trace) <= len(sets)
    for k, s in enumerate(sets):
        assert res.picks[k] in s


def test_duplicate_sets_share_one_pick(bip4, crossing_pair):
    s, _ = crossing_pair
    a = uid_of(bip4, [1], [2, 3, 4])
    sets = {"x": {s, a}, "y": {a}, "z": {s, a}, "w": {a}, "v": {s, a}}
    fam = IndexedFamily(bip4, sets)
    res = extract_transversal(fam)
    assert restricted_families_splinter(fam, res)
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


def order_table_cases(small_corpus, bip4):
    """``(universe, uids)``: the supports of the corpus tangle and clique
    families, and seeded random id sets of ``bip4`` and of the universe of
    all separations of P4, which hold small separations and the degenerate
    ``(V, V)``."""
    cases = []
    for g in small_corpus:
        for fam in (graph_tangles(g).family, clique_family(g)):
            if fam is not None and len(fam):
                cases.append((fam.universe, fam.union_support()))
    p4 = enumerate_graph_separations(corpus.path_graph(4))
    assert p4.find(p4.full_mask, p4.full_mask) is not None
    for u in (bip4, p4):
        uids = u.unoriented_ids()
        cases.append((u, uids))
        for counter in range(1, 31):
            h = corpus.splitmix64(counter)
            cases.append((u, [x for i, x in enumerate(uids) if h >> i % 64 & 1] or uids[:1]))
    return cases


def test_order_table_matches_leq_and_nested(small_corpus, bip4):
    """Every ``up`` bit is the strict order between orientations, and every
    ``nest`` bit the nested relation."""
    checked = 0
    for u, uids in order_table_cases(small_corpus, bip4):
        table = IndexedFamily(u, [uids]).order_table
        support = table.support
        assert support == sorted(uids) and table.pos == {x: i for i, x in enumerate(support)}
        for i, x in enumerate(support):
            for e, o in enumerate(u.orientations(x)):
                above = [any(u.lt(o, w) for w in u.orientations(y)) for y in support]
                assert table.up[2 * i + e] == sum(1 << j for j, b in enumerate(above) if b), (u, x, e)
            nested = [u.nested(x, y) for y in support]
            assert table.nest[i] == sum(1 << j for j, b in enumerate(nested) if b), (u, x)
            checked += 1
    assert checked >= 500, checked


def test_extremal_matches_brute_scan(small_corpus, bip4):
    """On a level of ``star_graph(4)`` and on every id set of
    :func:`order_table_cases`."""
    u = enumerate_graph_separations(corpus.star_graph(4))
    cases = [(u, [m for m in u.unoriented_ids() if u.order(m) < 1])]
    for u, A in cases + order_table_cases(small_corpus, bip4):
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
        fam = build_distinguisher_family(top)
        ok, w = splinters_hierarchically(fam)
        assert ok, (g, w)


def reference_rule_passes(u, rel, a, b, A, B):
    """Whether element pair ``(a, b)`` of key pair ``(A, B)`` passes rule
    ``rel`` ("ij": the key of ``A`` precedes that of ``B``; "ji": the reverse;
    "inc": incomparable), each corner's side read off the meets of the
    anchor's orientations."""

    def different_sides(r, s, c1, c2):
        side0, side1 = (
            {u.uid(u.meet(rho, sig)) for sig in u.orientations(s)} for rho in u.orientations(r)
        )
        return (c1 in side0 and c2 in side1) or (c1 in side1 and c2 in side0)

    def comparable(ai, aj, Ai, Aj):
        cs = {c for _, c in corner_items(u, ai, aj)}
        return bool(cs & Aj) or any(
            different_sides(ai, aj, c1, c2) for c1 in cs & Ai for c2 in cs & Ai
        )

    def incomparable(a, b, A, B):
        cs = {c for _, c in corner_items(u, a, b)}
        return any(
            different_sides(r, s, c1, c2)
            for r, s, R in ((a, b, A), (b, a, B))
            for c1 in cs & R
            for c2 in cs & (A | B)
        )

    if rel == "ij":
        return comparable(a, b, A, B)
    if rel == "ji":
        return comparable(b, a, B, A)
    return incomparable(a, b, A, B)


def reference_splinters_hierarchically(fam):
    """The definitional predicate: every key pair and element pair in turn."""
    order = prec(fam)
    for ii, ki in enumerate(fam.keys):
        for kj in fam.keys[ii:]:
            A, B = fam.sets[ki], fam.sets[kj]
            rel = "ij" if (ki, kj) in order else "ji" if (kj, ki) in order else "inc"
            for a in sorted(A):
                for b in sorted(B):
                    if not reference_rule_passes(fam.universe, rel, a, b, A, B):
                        return False, (ki, kj, a, b)
    return True, None


def clique_family(g):
    """The family ``clique_pipeline`` builds, before any precheck."""
    u = enumerate_graph_separations(g)
    chain = slice_chain(u, within=clique_subsystem(g, u, None))
    profiles = [p for lvl in enumerate_chain_profiles(chain, PROFILE) for p in lvl]
    return build_distinguisher_family(profiles)


def circle_family(npoints, order, m, n):
    """The family ``circle_pipeline`` builds, before any precheck."""
    points = list(range(1, npoints + 1))
    order_fn = {"cycle": cycle_cut_order, "complete": complete_cut_order}[order](points)
    u, circle = enumerate_circle_separations(points, order_fn)
    chain = slice_chain(u, within=circle)
    tangles = [p for lvl in enumerate_chain_profiles(chain, circle_tangle_kind(m, n)) for p in lvl]
    return build_distinguisher_family(tangles)


def test_hierarchical_matches_reference_on_corpus(small_corpus):
    checked = 0
    for g in small_corpus:
        u = enumerate_graph_separations(g)
        chain = slice_chain(u)
        levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=g)
        top = maximal_profiles([p for l in levels for p in l])
        if len(top) < 2:
            continue
        for fam in (build_distinguisher_family(top), pairwise_family(top, mode="all")):
            assert splinters_hierarchically(fam) == reference_splinters_hierarchically(fam), g
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize(
    "make, arg",
    [
        (clique_family, corpus.star_graph(5)),
        (clique_family, corpus.path_graph(7)),
        (clique_family, corpus.two_cliques(4)),
        (clique_family, corpus.cycle_graph(6)),
        (circle_family, (5, "cycle", 1, 4)),
        (circle_family, (5, "complete", 1, 4)),
        (circle_family, (6, "cycle", 1, 4)),
        (circle_family, (6, "complete", 1, 5)),
    ],
    ids=["star5", "path7", "two_k4", "cycle6", "circle5-cycle", "circle5-complete",
         "circle6-cycle", "circle6-complete-5"],
)
def test_hierarchical_matches_reference_on_clique_and_circle_families(make, arg):
    fam = make(*arg) if isinstance(arg, tuple) else make(arg)
    assert splinters_hierarchically(fam) == reference_splinters_hierarchically(fam)


def test_hierarchical_matches_reference_on_random_orders():
    """Families of an element, some of its corners with another element and
    maybe that element, under random levels (so ``i < j``, ``j < i`` and
    incomparable pairs all occur in key order), with repeated sets; they
    fail at every kind of key pair.  Each family is also checked in shuffled
    key order, with one set repeated at another level, and without levels."""
    import random

    from totkit.corpus import splitmix64

    u = bipartition_universe(range(1, 6), complete_cut_order(range(1, 6)))
    uids = list(u.unoriented_ids())
    failed_at = {"ij": 0, "ji": 0, "inc": 0}
    variant_verdicts = set()
    for counter in range(1, 301):
        h = splitmix64(counter)
        nsets = 2 + h % 4
        sets = []
        for i in range(nsets):
            r = splitmix64(h + 101 * i)
            if i and r % 3 == 0:
                sets.append(sets[(r >> 4) % i])
                continue
            x, y = uids[(r >> 8) % len(uids)], uids[(r >> 24) % len(uids)]
            picked = {c for bit, c in enumerate(u.corners(x, y)) if r >> (40 + bit) & 1}
            sets.append({x} | picked | ({y} if r >> 50 & 1 else set()))
        levels = {k: splitmix64(h + 17 * k) % 3 for k in range(nsets)}
        fam = IndexedFamily(u, sets, levels=levels)
        got = splinters_hierarchically(fam)
        assert got == reference_splinters_hierarchically(fam), (counter, sets, levels)
        if not got[0]:
            ki, kj = got[1][:2]
            order = prec(fam)
            rel = "ij" if (ki, kj) in order else "ji" if (kj, ki) in order else "inc"
            failed_at[rel] += 1
        # the same sets in shuffled key order, with one set repeated at
        # another level, and without levels
        order = list(range(nsets))
        random.Random(counter).shuffle(order)
        r = h >> 32
        again = {**levels, nsets: (levels[r % nsets] + 1 + (r >> 8) % 2) % 3}
        variants = [
            IndexedFamily(u, {k: sets[k] for k in order}, levels=levels),
            IndexedFamily(u, sets + [sets[r % nsets]], levels=again),
            IndexedFamily(u, sets),
        ]
        for variant in variants:
            got = splinters_hierarchically(variant)
            assert got == reference_splinters_hierarchically(variant), (counter, sets, variant.levels)
            variant_verdicts.add(got[0])
    assert min(failed_at.values()) >= 20 and sum(failed_at.values()) <= 250
    assert variant_verdicts == {True, False}


def test_nested_pairs_fill_a_corner_diagonal_and_pass_every_rule(small_corpus):
    """The lemma behind the precheck's skip of nested pairs: ``a`` and ``b``
    fill a diagonal of their corner table, so rules "ij", "ji" and "inc" all
    pass with ``A_i = {a}`` and ``A_j = {b}``.  Every nested pair (``a == b``
    included) of the corpus universes and of the 5- and 6-point circles under
    the cycle and the complete order, in both argument orders."""
    universes = [enumerate_graph_separations(g) for g in small_corpus]
    for n in (5, 6):
        points = list(range(1, n + 1))
        for order in (cycle_cut_order, complete_cut_order):
            universes.append(enumerate_circle_separations(points, order(points))[0])
    checked = 0
    for u in universes:
        ids = u.unoriented_ids()
        for i, a in enumerate(ids):
            for b in ids[i:]:
                if not u.nested(a, b):
                    continue
                for x, y in ((a, b), (b, a)):
                    c00, c01, c10, c11 = u.corners(x, y)
                    assert {c00, c11} == {x, y} or {c01, c10} == {x, y}, (u, x, y)
                    for rel in ("ij", "ji", "inc"):
                        assert reference_rule_passes(u, rel, x, y, {x}, {y}), (u, rel, x, y)
                checked += 1
    assert checked > 15000


def test_hierarchical_scales_to_512_keys():
    """The circle family on 8 points (complete order, m=1, n=4): 512 keys but
    only 36 distinct sets."""
    import time

    fam = circle_family(8, "complete", 1, 4)
    assert len(fam.keys) == 512 and len(set(fam.sets.values())) == 36
    start = time.perf_counter()
    ok, _ = splinters_hierarchically(fam)
    assert time.perf_counter() - start < 2.0
    assert ok


def test_invalid_index_order_rejected(bip4):
    """The order comes from levels alone: a key without a level is refused by
    name, and ``prec`` is exactly the pairs of strictly increasing level."""
    a = uid_of(bip4, [1], [2, 3, 4])
    b = uid_of(bip4, [1, 2], [3, 4])
    with pytest.raises(SeparationError, match="key 1 has no level"):
        IndexedFamily(bip4, [[a], [b]], levels={0: 1})
    L = {"p": 2, "q": 1, "r": 2, "s": 0}
    fam = IndexedFamily(bip4, {k: [a] for k in L}, levels=L)
    assert prec(fam) == {(x, y) for x in L for y in L if L[x] < L[y]}
    assert prec(IndexedFamily(bip4, [[a], [b]])) == frozenset()


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


@pytest.mark.parametrize("npoints", [4, 5])
def test_canonical_extraction_is_its_own_precheck_on_random_families(npoints):
    """The extraction runs before the hierarchical precheck: on a family that
    splinters hierarchically it returns a nested set meeting every set; on
    one that does not, it returns such a set or raises
    ``HierarchicalConditionError`` with the precheck's own witness, and
    nothing else.  Levels are random, with repeated sets."""
    points = range(1, npoints + 1)
    u = bipartition_universe(points, complete_cut_order(points))
    uids = list(u.unoriented_ids())
    outcomes = {"holds": 0, "returned": 0, "refused": 0}
    for counter in range(1, 201):
        h = corpus.splitmix64(7000 * npoints + counter)
        sets = random_corner_sets(u, uids, h)
        fam = IndexedFamily(u, sets, levels={k: corpus.splitmix64(h + 17 * k) % 3 for k in range(len(sets))})
        ok, witness = splinters_hierarchically(fam)
        try:
            nested = extract_canonical(fam).nested
        except HierarchicalConditionError as exc:
            assert not ok and exc.witness == witness, (npoints, counter, sets)
            outcomes["refused"] += 1
            continue
        assert u.first_crossing(nested) is None and all(s & nested for s in fam.sets.values())
        outcomes["holds" if ok else "returned"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_canonical_meets_every_set_and_is_nested(small_corpus):
    for g in small_corpus:
        u = enumerate_graph_separations(g)
        chain = slice_chain(u)
        levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=g)
        top = maximal_profiles([p for l in levels for p in l])
        if len(top) < 2:
            continue
        fam = build_distinguisher_family(top)
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
    fam = build_distinguisher_family(top)
    base = extract_canonical(fam).nested
    for perm in automorphisms(two_k4):
        mapping = lift_permutation(u, perm)
        mapped = map_family(fam, mapping)
        image = extract_canonical(mapped).nested
        assert image == frozenset(u.uid(mapping[x]) for x in base)


def test_canonical_output_is_order_independent(two_k4, two_k4_universe, small_corpus):
    """``extract_canonical`` reads a family only through its pairs
    ``(level, set)``: keys in another order, or renamed and shuffled, each
    carrying its level, give the same nested set.  ``verify`` extracts once
    per artifact on the strength of this, as a graph automorphism permutes
    those pairs among the keys."""
    import random

    u = two_k4_universe
    chain = slice_chain(u)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=two_k4)
    top = maximal_profiles([p for l in levels for p in l])
    fam = build_distinguisher_family(top)
    ref = extract_canonical(fam).nested
    rev = IndexedFamily(
        u,
        {k: fam.sets[k] for k in reversed(fam.keys)},
        levels=fam.levels,
    )
    assert extract_canonical(rev).nested == ref
    rng = random.Random(15)
    families = [graph_pipeline(g).family for g in small_corpus] + [clique_family(g) for g in small_corpus]
    families = [f for f in families if f is not None]
    assert len(families) >= 30
    for fam in families:
        ref = extract_canonical(fam).nested
        for _ in range(3):
            keys = list(fam.keys)
            rng.shuffle(keys)
            names = {k: f"key{i}" for i, k in enumerate(rng.sample(keys, len(keys)))}
            renamed = IndexedFamily(
                fam.universe,
                {names[k]: fam.sets[k] for k in keys},
                levels={names[k]: fam.levels[k] for k in keys},
            )
            assert extract_canonical(renamed).nested == ref


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
        fam = build_distinguisher_family(top)
        res = extract_canonical(fam)
        assert res.nested <= fam.union_support()


def test_canonical_trace_is_jsonl(two_k4, two_k4_universe):
    import json

    u = two_k4_universe
    chain = slice_chain(u)
    levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=two_k4)
    top = maximal_profiles([p for l in levels for p in l])
    fam = build_distinguisher_family(top)
    res = extract_canonical(fam)
    lines = res.trace_jsonl().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert entry["event"] == "extremal"


def test_canonical_output_lies_in_the_family_support(small_corpus):
    """Every element ``extract_canonical`` returns is extremal in a union of
    (restricted) family sets, so it lies in one of the family's sets."""
    from totkit.corpus import splitmix64

    families = [graph_pipeline(g).family for g in small_corpus] + [clique_family(g) for g in small_corpus]
    families += [
        circle_family(*args)
        for args in [(5, "cycle", 1, 4), (5, "complete", 1, 4), (6, "cycle", 1, 4), (6, "complete", 1, 4),
                     (6, "complete", 1, 5), (7, "cycle", 1, 4), (7, "cycle", 1, 5), (8, "cycle", 2, 4)]
    ]
    # the random families of test_hierarchical_matches_reference_on_random_orders
    # that splinter hierarchically, the first 40 of them
    u = bipartition_universe(range(1, 6), complete_cut_order(range(1, 6)))
    uids = list(u.unoriented_ids())
    random_families = []
    counter = 0
    while len(random_families) < 40:
        counter += 1
        h = splitmix64(counter)
        nsets = 2 + h % 4
        sets = []
        for i in range(nsets):
            r = splitmix64(h + 101 * i)
            if i and r % 3 == 0:
                sets.append(sets[(r >> 4) % i])
                continue
            x, y = uids[(r >> 8) % len(uids)], uids[(r >> 24) % len(uids)]
            picked = {c for bit, c in enumerate(u.corners(x, y)) if r >> (40 + bit) & 1}
            sets.append({x} | picked | ({y} if r >> 50 & 1 else set()))
        fam = IndexedFamily(u, sets, levels={k: splitmix64(h + 17 * k) % 3 for k in range(nsets)})
        if splinters_hierarchically(fam)[0]:
            random_families.append(fam)
    checked = 0
    for fam in families + random_families:
        if fam is None or not len(fam):
            continue
        assert extract_canonical(fam).nested <= fam.union_support()
        checked += 1
    assert checked >= 80


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


def test_canonical_trace_takes_the_minimal_keys_left_at_each_depth(small_corpus):
    """Each depth's ``minimal_keys`` are exactly the keys still unmet with no
    strict predecessor still unmet; a key is met once its set meets the
    extremal elements taken at some depth."""
    import random

    families = [graph_pipeline(g).family for g in small_corpus] + [clique_family(g) for g in small_corpus]
    families += [circle_family(5, "complete", 1, 4), circle_family(6, "cycle", 1, 4)]
    # sets of pairwise nested bipartitions under random levels, so that keys wait for their predecessors
    u = bipartition_universe(range(1, 7))
    chain = [u.uid(u.find(u.mask_of(range(1, i)), u.mask_of(range(i, 7)))) for i in range(2, 7)]
    rng = random.Random(3)
    for _ in range(40):
        sets = [rng.sample(chain, rng.randint(1, 2)) for _ in range(rng.randint(2, 7))]
        families.append(IndexedFamily(u, sets, levels={k: rng.randrange(3) for k in range(len(sets))}))
    ordered_depths = 0
    for fam in families:
        if fam is None or not len(fam):
            continue
        left = list(fam.keys)
        order = prec(fam)
        for entry in extract_canonical(fam).trace:
            minimal = [k for k in left if not any((k2, k) in order for k2 in left if k2 != k)]
            assert entry["minimal_keys"] == sorted(map(repr, minimal))
            ordered_depths += len(minimal) < len(left)
            left = [k for k in left if not (fam.sets[k] & set(entry["extremal"]))]
            assert entry["remaining"] == len(left)
        assert not left
    assert ordered_depths > 20
