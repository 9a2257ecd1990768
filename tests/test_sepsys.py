"""Core separation-system layer: order structure, corners, smallness."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totkit.errors import SeparationError
from totkit.sepsys import SubSystem, Universe
from totkit.universes import (
    Graph,
    bipartition_universe,
    clique_subsystem,
    enumerate_clique_separations,
    enumerate_graph_separations,
)

from oracles import (
    corner_items,
    from_different_sides,
    is_regular,
    is_small,
    is_structurally_submodular,
    oid,
    restrict_Sk,
)


# ----------------------------------------------------------------------
# involution and order axioms, quantified over whole small universes


def small_universes():
    out = [bipartition_universe([1, 2, 3]), bipartition_universe([1, 2, 3, 4])]
    out.append(enumerate_graph_separations(Graph([1, 2], [(1, 2)])))
    out.append(enumerate_graph_separations(Graph([1, 2, 3], [(1, 2), (2, 3)])))
    return out


@pytest.mark.parametrize("u", small_universes())
def test_involution_is_self_inverse_and_order_reversing(u):
    for i in u.oriented_ids():
        assert u.inv(u.inv(i)) == i
        for j in u.oriented_ids():
            assert u.leq(i, j) == u.leq(u.inv(j), u.inv(i))


@pytest.mark.parametrize("u", small_universes())
def test_demorgan(u):
    for i in u.oriented_ids():
        for j in u.oriented_ids():
            assert u.inv(u.join(i, j)) == u.meet(u.inv(i), u.inv(j))


@pytest.mark.parametrize("u", small_universes())
def test_join_meet_are_least_upper_and_greatest_lower_bounds(u):
    ids = list(u.oriented_ids())
    for i in ids:
        for j in ids:
            jn = u.join(i, j)
            uppers = [k for k in ids if u.leq(i, k) and u.leq(j, k)]
            assert u.leq(i, jn) and u.leq(j, jn)
            assert all(u.leq(jn, k) for k in uppers)
            mt = u.meet(i, j)
            lowers = [k for k in ids if u.leq(k, i) and u.leq(k, j)]
            assert u.leq(mt, i) and u.leq(mt, j)
            assert all(u.leq(k, mt) for k in lowers)


@pytest.mark.parametrize(
    "u",
    [
        bipartition_universe([1, 2, 3]),
        bipartition_universe([1, 2, 3, 4]),
        enumerate_graph_separations(Graph([1, 2], [(1, 2)])),
        enumerate_graph_separations(Graph([1, 2, 3], [(1, 2), (2, 3)])),
    ],
)
def test_fish_lemma_on_small_universes(u):
    """A separation nested with two crossing ones is nested with their corners."""
    uids = u.unoriented_ids()
    if len(uids) > 12:
        pytest.skip("bounded check")
    for r in uids:
        for s in uids:
            if u.nested(r, s):
                continue
            cs = u.corner_uids(r, s)
            for t in uids:
                if u.nested(t, r) and u.nested(t, s):
                    assert all(u.nested(t, c) for c in cs)


def test_corner_table_transposes_and_matches_corner_items(bip4):
    u = bip4
    ids = list(u.oriented_ids())
    for x in ids:
        for y in ids:
            t = u.corners(x, y)
            assert t == tuple(c for _, c in corner_items(u, x, y))
            assert u.corners(y, x) == (t[0], t[2], t[1], t[3])
            assert u.corner_uids(x, y) == frozenset(t)
            # the sides of each argument are fixed pairs of table slots
            r, s = u.uid(x), u.uid(y)
            for anchor, other, sides in ((r, s, {t[0:2], t[2:4]}), (s, r, {t[0::2], t[1::2]})):
                meet_sides = {
                    frozenset(u.uid(u.meet(rho, sig)) for sig in u.orientations(other))
                    for rho in u.orientations(anchor)
                }
                assert meet_sides == {frozenset(side) for side in sides}


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
@settings(max_examples=200, deadline=None)
def test_bipartition_leq_matches_mask_inclusion(a, b):
    u = bipartition_universe(list(range(8)))
    full = u.full_mask
    i = u.find(a, full & ~a)
    j = u.find(b, full & ~b)
    assert u.leq(i, j) == (a & ~b == 0)


# ----------------------------------------------------------------------
# nested


def test_is_nested_reflexive(bip4):
    s = oid(bip4, [1], [2, 3, 4])
    assert bip4.nested(s, s)


def test_is_nested_chain(bip4):
    assert bip4.nested(oid(bip4, [1], [2, 3, 4]), oid(bip4, [1, 2], [3, 4]))


def test_is_nested_crossing_pair(bip4):
    r = oid(bip4, [1, 2], [3, 4])
    s = oid(bip4, [2, 3], [4, 1])
    # oracle: all four orientation pairs by set inclusion
    def inc(x, y):
        return set(x[0]) <= set(y[0]) and set(x[1]) >= set(y[1])

    rp = ([1, 2], [3, 4])
    sp = ([2, 3], [4, 1])
    rn = (rp[1], rp[0])
    sn = (sp[1], sp[0])
    assert not any(inc(x, y) for x in (rp, rn) for y in (sp, sn))
    assert not bip4.nested(r, s)


def test_subsystem_rejects_non_canonical_ids(p4_universe):
    u = p4_universe
    uid = next(m for m in u.unoriented_ids() if u.inv(m) != m)
    assert SubSystem(u, frozenset(u.unoriented_ids())).members == frozenset(u.unoriented_ids())
    for bad in (u.inv(uid), u.n_oriented, -1):
        with pytest.raises(SeparationError, match=f"^{bad} is not a canonical separation id"):
            SubSystem(u, frozenset({uid, bad}))


# ----------------------------------------------------------------------
# corners


def test_corners_of_nested_pair_contain_both(bip4):
    r = bip4.uid(oid(bip4, [1], [2, 3, 4]))
    s = bip4.uid(oid(bip4, [1, 2], [3, 4]))
    got = set(bip4.corners(r, s))
    assert r in got and s in got


def test_corners_of_equal_pair_all_underlie_it(bip4):
    r = bip4.uid(oid(bip4, [1, 2], [3, 4]))
    tagged = bip4.corners(r, r)  # (c00, c01, c10, c11)
    assert len(tagged) == 4
    assert {tagged[0], tagged[3]} == {r}


def test_corner_join_convention(bip4):
    r = oid(bip4, [1, 2], [3, 4])
    s = oid(bip4, [2, 3], [4, 1])
    assert bip4.side_labels(bip4.join(r, s)) == ((1, 2, 3), (4,))


def test_corners_tagged_duplicates_preserved(bip4):
    r = bip4.uid(oid(bip4, [1, 2], [3, 4]))
    assert len(bip4.corners(r, r)) == 4


def test_corners_outside_the_universe_are_none():
    """Two crossing bipartitions without their corners (the universe of
    ``test_missing_corner_is_an_error``): every corner slot is None, and a
    separation with itself keeps itself as its diagonal corners while
    ``(V, {})`` is missing too."""
    full = 0b1111
    u = Universe(range(4), [(m, full ^ m) for m in (0b0011, 0b1100, 0b0110, 0b1001)])
    r, s = sorted(u.unoriented_ids())
    assert not u.nested(r, s)
    assert u.corners(r, s) == u.corners(s, r) == (None, None, None, None)
    assert u.corner_uids(r, s) == frozenset({None})
    assert u.corners(r, r) == (r, None, None, r)


def test_clique_universe_corners_are_the_full_ones_or_none():
    """On a graph whose clique universe misses corners, each slot of
    ``corners`` is the full universe's corner when that is a clique
    separation, and None otherwise."""
    g = Graph(range(1, 7), [(1, 4), (2, 3), (3, 5), (4, 5)])
    c = enumerate_clique_separations(g)
    u = enumerate_graph_separations(g)
    cliques = clique_subsystem(g, u, None).members
    to_u = {x: u.uid(u.find(*c.sides(x))) for x in c.unoriented_ids()}
    missing = 0
    for x in c.unoriented_ids():
        for y in c.unoriented_ids():
            got = c.corners(x, y)
            want = [k if k in cliques else None for k in u.corners(to_u[x], to_u[y])]
            assert [None if k is None else to_u[k] for k in got] == want, (x, y)
            missing += None in got
    assert missing


# ----------------------------------------------------------------------
# from_different_sides


def test_different_sides_edge_case_all_equal(bip4):
    r = bip4.uid(oid(bip4, [1, 2], [3, 4]))
    assert from_different_sides(bip4, r, r, r, r)


def test_different_sides_examples(bip4):
    r = bip4.uid(oid(bip4, [1, 2], [3, 4]))
    s = bip4.uid(oid(bip4, [2, 3], [4, 1]))
    c_rs = bip4.uid(oid(bip4, [2], [1, 3, 4]))  # r> ^ s>
    c_rs2 = bip4.uid(oid(bip4, [1], [2, 3, 4]))  # r> ^ s<
    c_nn = bip4.uid(oid(bip4, [4], [1, 2, 3]))  # r< ^ s<
    assert not from_different_sides(bip4, r, s, c_rs, c_rs2)
    assert from_different_sides(bip4, r, s, c_rs, c_nn)


def test_different_sides_rejects_non_corner(bip4):
    r = bip4.uid(oid(bip4, [1, 2], [3, 4]))
    s = bip4.uid(oid(bip4, [2, 3], [4, 1]))
    outsider = bip4.uid(oid(bip4, [1, 2, 3], [4]))
    # {1,2,3}|{4} is a corner of (r, s); {1,3}|{2,4} is not
    bad = bip4.uid(oid(bip4, [1, 3], [2, 4]))
    with pytest.raises(SeparationError):
        from_different_sides(bip4, r, s, bad, outsider)


# ----------------------------------------------------------------------
# small / trivial / regular


def test_empty_side_is_small(bip4):
    assert is_small(bip4, oid(bip4, [], [1, 2, 3, 4]))
    assert not is_small(bip4, oid(bip4, [1, 2, 3, 4], []))


def test_proper_bipartition_not_small(bip4):
    assert not is_small(bip4, oid(bip4, [1, 2], [3, 4]))


def test_small_but_not_trivial():
    """A single small separation is small but not trivial in {s}."""
    u = bipartition_universe([1, 2])
    s = oid(u, [], [1, 2])
    assert is_small(u, s)
    assert not u.is_trivial(s, [u.uid(s)])


def test_bottom_is_trivial_in_full_universe():
    u = bipartition_universe([1, 2])
    s = oid(u, [], [1, 2])
    assert u.is_trivial(s, u.unoriented_ids())


def test_maximal_orientation_never_trivial(bip4):
    top = oid(bip4, [1, 2, 3, 4], [])
    assert not bip4.is_trivial(top, bip4.unoriented_ids())


def test_is_regular():
    u = bipartition_universe([1, 2, 3, 4])
    assert is_regular(u, [])
    assert not is_regular(u, [u.uid(oid(u, [], [1, 2, 3, 4]))])
    assert is_regular(u, [u.uid(oid(u, [1, 2], [3, 4]))])


# ----------------------------------------------------------------------
# structural submodularity


def test_whole_universe_is_structurally_submodular(bip4):
    assert is_structurally_submodular(SubSystem(bip4, frozenset(bip4.unoriented_ids())))


def test_order_slice_is_structurally_submodular(p4_universe):
    for k in (1, 2, 3):
        assert is_structurally_submodular(restrict_Sk(p4_universe, k))


def test_two_crossing_bipartitions_not_structurally_submodular(bip4):
    r = bip4.uid(oid(bip4, [1, 2], [3, 4]))
    s = bip4.uid(oid(bip4, [2, 3], [4, 1]))
    assert not is_structurally_submodular(SubSystem(bip4, frozenset({r, s})))


def test_join_outside_element_set_raises():
    from totkit.errors import UniverseClosureError
    from totkit.universes import Universe

    # inversion-closed but not lattice-closed: {1}|{2,3}, {2}|{1,3} without their join
    pairs = [(0b001, 0b110), (0b110, 0b001), (0b010, 0b101), (0b101, 0b010)]
    u = Universe([1, 2, 3], pairs)
    a = u.find(0b001, 0b110)
    b = u.find(0b010, 0b101)
    with pytest.raises(UniverseClosureError):
        u.join(a, b)


# ----------------------------------------------------------------------
# construction: what Universe checks, and which fault it reports first

# the four bipartitions of {1, 2}, in oid order
_BIP2 = [(0b00, 0b11), (0b01, 0b10), (0b10, 0b01), (0b11, 0b00)]


def _order_on(values):
    """An order function reading ``values[(a, b)]``, 0 elsewhere."""
    return lambda a, b: values.get((a, b), 0)


@pytest.mark.parametrize(
    "labels, pairs, order_fn, message",
    [
        ([1, 2], [(0b01, 0b01)], None, "sides 1,1 do not cover the ground set"),
        ([1, 2], [(0b01, 0b11)], None, "element set is not closed under inversion"),
        ([1, 2], _BIP2, _order_on({(0b01, 0b10): -1, (0b10, 0b01): -1}), "order values must be non-negative"),
        ([1, 2], _BIP2, lambda a, b: a, "order function must be symmetric under inversion"),
        ([1, 1], [], None, "duplicate ground-set labels"),
    ],
    ids=["uncovered", "not-inversion-closed", "negative-order", "asymmetric-order", "duplicate-labels"],
)
def test_universe_refuses_malformed_input(labels, pairs, order_fn, message):
    with pytest.raises(SeparationError) as exc:
        Universe(labels, pairs, order_fn)
    assert exc.type is SeparationError and str(exc.value) == message


@pytest.mark.parametrize(
    "labels, pairs, order_fn, message",
    [
        # labels before pairs, covering before inversion, pairs before orders
        ([1, 1], [(0b01, 0b01)], None, "duplicate ground-set labels"),
        ([1, 2], [(0b01, 0b01), (0b01, 0b11)], None, "sides 1,1 do not cover the ground set"),
        ([1, 2], [(0b01, 0b11)], lambda a, b: -1, "element set is not closed under inversion"),
        # among order faults the first oid decides, and negativity comes first at one oid
        ([1, 2], _BIP2, _order_on({(0b00, 0b11): -1}), "order values must be non-negative"),
        ([1, 2], _BIP2, _order_on({(0b11, 0b00): -1}), "order function must be symmetric under inversion"),
        ([1, 2], _BIP2, _order_on({(0b00, 0b11): 1, (0b01, 0b10): -1, (0b10, 0b01): -1}),
         "order function must be symmetric under inversion"),
        # a NaN is unequal to itself, one object or two, after a non-negative first value
        ([1, 2], _BIP2, lambda a, b: math.nan if a == 0b01 or b == 0b01 else 0,
         "order function must be symmetric under inversion"),
        ([1, 2], _BIP2, lambda a, b: float("nan") if a == 0b01 or b == 0b01 else 0,
         "order function must be symmetric under inversion"),
        ([1, 2], [(0b11, 0b11)], lambda a, b: math.nan, "order function must be symmetric under inversion"),
    ],
)
def test_universe_reports_the_first_fault(labels, pairs, order_fn, message):
    with pytest.raises(SeparationError, match=f"^{message}$"):
        Universe(labels, pairs, order_fn)


def test_lookups_raise_as_the_tables_do():
    """``sides``, ``inv`` and ``order`` are the tables' own item getters."""
    u = Universe([1, 2], _BIP2, lambda a, b: (a & b).bit_count())
    n = u.n_oriented
    assert [u.sides(o) for o in range(-n, 0)] == [u.sides(o) for o in range(n)]
    for lookup in (u.sides, u.inv, u.order):
        with pytest.raises(IndexError):
            lookup(n)
    bare = Universe([1, 2], _BIP2)
    assert not bare.has_order and bare.inv(0) == n - 1
    with pytest.raises(SeparationError, match="^universe has no order function$"):
        bare.order(0)


def test_uids_is_the_set_itself_when_it_holds_only_uids(bip4):
    """``uids`` maps a set with an inverse in it one oid at a time, and
    returns a set of uids as it is."""
    uids = frozenset(bip4.unoriented_ids()[:3])
    assert bip4.uids(uids) is uids
    mixed = [bip4.inv(x) for x in uids] + [next(iter(uids))]
    assert bip4.uids(mixed) == uids == frozenset(map(bip4.uid, mixed))
    with pytest.raises(IndexError):
        bip4.uids([bip4.n_oriented])


@pytest.mark.parametrize(
    "labels, message",
    [
        ([True], "label True is of another type than ground-set label 1"),
        ([2, 1.0], "label 1.0 is of another type than ground-set label 1"),
        ([1.5], "unknown ground-set label 1.5"),
        ([[1]], r"unknown ground-set label \[1\]"),
    ],
    ids=["true", "float", "unknown", "unhashable"],
)
def test_mask_of_refuses_a_label_no_ground_label_is(labels, message):
    """``True`` and ``1.0`` equal ``1`` in Python but are no label ``1``."""
    u = Universe([1, 2, "1"], [(0b111, 0b011), (0b011, 0b111)])
    assert u.mask_of([1, 2, "1"]) == 0b111 and u.mask_of(["1"]) == 0b100
    with pytest.raises(SeparationError, match=f"^{message}$"):
        u.mask_of(labels)


def test_shuffled_and_repeated_pairs_give_the_universe_of_the_sorted_distinct_list():
    import random

    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3)])
    base = enumerate_graph_separations(g)
    order_fn = lambda a, b: 2 * (a & b).bit_count() + (a ^ b).bit_count() % 3  # noqa: E731
    want = Universe(g.vertices, [base.sides(o) for o in base.oriented_ids()], order_fn)
    rng = random.Random(3)
    for _ in range(20):
        pairs = [want.sides(o) for o in want.oriented_ids()]
        pairs += rng.choices(pairs, k=rng.randint(1, 20))
        rng.shuffle(pairs)
        u = Universe(g.vertices, iter(pairs), order_fn)
        assert [u.sides(o) for o in u.oriented_ids()] == [want.sides(o) for o in want.oriented_ids()]
        assert [(u.inv(o), u.order(o)) for o in u.oriented_ids()] == [
            (want.inv(o), want.order(o)) for o in want.oriented_ids()
        ]
        assert u.unoriented_ids() == want.unoriented_ids()


# ----------------------------------------------------------------------
# the one pairwise-nested check


def _first_crossing_loop(u, ids):
    """The pairwise loop that ``Universe.first_crossing`` replaced, kept as its oracle."""
    vals = sorted(set(ids))
    for i, a in enumerate(vals):
        for b in vals[i + 1 :]:
            if not u.nested(a, b):
                return a, b
    return None


@pytest.mark.parametrize("u", small_universes())
def test_first_crossing_matches_pairwise_loop(u):
    import random

    rng = random.Random(7)
    uids = list(u.unoriented_ids())
    crossing_seen = nested_seen = 0
    for _ in range(300):
        ids = rng.sample(uids, rng.randint(0, min(6, len(uids))))
        ids += ids[: rng.randint(0, len(ids))]  # repeated ids count once
        got = u.first_crossing(ids)
        assert got == _first_crossing_loop(u, ids), ids
        crossing_seen += got is not None
        nested_seen += got is None
    assert nested_seen
    assert crossing_seen or _first_crossing_loop(u, uids) is None
