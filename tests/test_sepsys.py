"""Core separation-system layer: order structure, corners, smallness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totkit.errors import SeparationError
from totkit.sepsys import SubSystem
from totkit.universes import Graph, bipartition_universe, enumerate_graph_separations

from oracles import corner_items, from_different_sides, is_regular, is_structurally_submodular, oid


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
            t = u.corner_table(x, y)
            assert t == tuple(c for _, c in corner_items(u, x, y))
            assert u.corner_table(y, x) == (t[0], t[2], t[1], t[3])
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
    assert bip4.is_small(oid(bip4, [], [1, 2, 3, 4]))
    assert not bip4.is_small(oid(bip4, [1, 2, 3, 4], []))


def test_proper_bipartition_not_small(bip4):
    assert not bip4.is_small(oid(bip4, [1, 2], [3, 4]))


def test_small_but_not_trivial():
    """A single small separation is small but not trivial in {s}."""
    u = bipartition_universe([1, 2])
    s = oid(u, [], [1, 2])
    assert u.is_small(s)
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
    from totkit.universes import restrict_Sk

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
