"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The corpus is every connected graph on at most 6 vertices up to isomorphism
(143 graphs), a deterministic sample of 50 pairwise non-isomorphic connected
7-vertex graphs, and the named high-symmetry graphs.  All checks are exact
combinatorial assertions.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

from contextlib import contextmanager

import pytest

from totkit import corpus
from totkit.errors import HierarchicalConditionError
from totkit.pipelines import (
    circle_pipeline,
    clique_pipeline,
    complete_cut_order,
    cycle_cut_order,
    graph_pipeline,
)
from totkit.profiles import (
    PROFILE,
    build_distinguisher_family,
    enumerate_chain_profiles,
    graph_tangle_kind,
    maximal_profiles,
)
from totkit.splinter import (
    IndexedFamily,
    extract_canonical,
    extract_transversal,
    map_family,
    splinters,
    splinters_hierarchically,
)
from totkit.treedec import induced_uids, is_tree_set, is_valid_tree_decomposition
from totkit.universes import (
    automorphisms,
    bipartition_universe,
    clique_subsystem,
    enumerate_graph_separations,
    is_clique_separation,
    is_compatible_sequence,
    lift_permutation,
    slice_chain,
)

from oracles import is_robust_set, pairwise_distinguishes_all, pairwise_family, sequence_family


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


# ----------------------------------------------------------------------
# shared corpus


@pytest.fixture(scope="module")
def corpus6():
    return corpus.all_connected_graphs(6)


@pytest.fixture(scope="module")
def sample7():
    return [g for _, g in corpus.seven_vertex_sample(50)]


@pytest.fixture(scope="module")
def named_graphs():
    return {
        "C5": corpus.cycle_graph(5),
        "C6": corpus.cycle_graph(6),
        "K4": corpus.complete_graph(4),
        "K33": corpus.complete_bipartite(3, 3),
        "petersen_minus_vertex": corpus.petersen_minus_vertex(),
        "two_K4": corpus.two_cliques(4),
    }


@pytest.fixture(scope="module")
def all_graphs(corpus6, sample7, named_graphs):
    return corpus6 + sample7 + list(named_graphs.values())


@pytest.fixture(scope="module")
def tangle_bundles(all_graphs):
    """Per graph: universe, slice chain, tangle levels, maximal tangles."""
    out = []
    for g in all_graphs:
        u = enumerate_graph_separations(g)
        chain = slice_chain(u)
        levels = enumerate_chain_profiles(chain, graph_tangle_kind(), graph=g)
        top = maximal_profiles([p for lvl in levels for p in lvl])
        out.append((g, u, chain, levels, top))
    return out


def tangle_family(top):
    if len(top) < 2:
        return None
    return build_distinguisher_family(top)


# ----------------------------------------------------------------------
# criterion 1: the splinter predicate theorems


def test_criterion_1_splinter_predicates(tangle_bundles):
    """Efficient tangle families splinter (and hierarchically); full profile
    sets of every order slice give splintering all-distinguisher families;
    robust maximal-profile families splinter hierarchically; clique and
    circle variants likewise."""
    with criterion(1, "splinter predicate theorems"):
        checked = {"tangle": 0, "slice": 0, "profile": 0, "clique": 0, "circle": 0}
        for g, u, chain, levels, top in tangle_bundles:
            fam = tangle_family(top)
            if fam is not None:
                ok, w = splinters(fam)
                assert ok, (g, w)
                ok, w = splinters_hierarchically(fam)
                assert ok, (g, w)
                checked["tangle"] += 1

            profile_levels = enumerate_chain_profiles(chain, PROFILE)
            for lvl in profile_levels:
                if len(lvl) > 1:
                    slice_fam = pairwise_family(lvl, mode="all")
                    ok, w = splinters(slice_fam)
                    assert ok, (g, w)
                    checked["slice"] += 1

            prof = maximal_profiles([p for lvl in profile_levels for p in lvl])
            assert is_robust_set(prof, chain), g
            if len(prof) > 1:
                pfam = build_distinguisher_family(prof)
                ok, w = splinters(pfam)
                assert ok, (g, w)
                ok, w = splinters_hierarchically(pfam)
                assert ok, (g, w)
                checked["profile"] += 1

            cliques = clique_subsystem(g, u, None)
            cchain = slice_chain(u, within=cliques)
            clevels = enumerate_chain_profiles(cchain, PROFILE)
            cprof = [p for lvl in clevels for p in lvl]
            if len(cprof) > 1:
                cfam = build_distinguisher_family(cprof)
                if len(cfam):
                    ok, w = splinters(cfam)
                    assert ok, (g, w)
                    ok, w = splinters_hierarchically(cfam)
                    assert ok, (g, w)
                    checked["clique"] += 1

        for npts in (5, 6, 7):
            pts = list(range(1, npts + 1))
            result = circle_pipeline(pts, m=1, n=4, order_fn=cycle_cut_order(pts))
            if result.family is not None and len(result.family):
                ok, w = splinters(result.family)
                assert ok, (npts, w)
                ok, w = splinters_hierarchically(result.family)
                assert ok, (npts, w)
                checked["circle"] += 1

        assert checked["tangle"] >= 80
        assert checked["slice"] >= 100
        assert checked["profile"] >= 80
        assert checked["clique"] >= 40
        assert checked["circle"] == 3


# ----------------------------------------------------------------------
# criterion 2: the classical tree-of-tangles theorem at desk scale


def test_criterion_2_tot_pipeline(tangle_bundles):
    with criterion(2, "tree-decomposition displays maximal tangles"):
        for g, u, chain, levels, top in tangle_bundles:
            result = graph_pipeline(g)
            vals = sorted(result.nested)
            for i, a in enumerate(vals):
                for b in vals[i + 1 :]:
                    assert u.nested(a, b), g
            if result.family is not None:
                for k in result.family.keys:
                    assert result.family.sets[k] & result.nested, (g, k)
            td = result.decomposition
            ok, reason = is_valid_tree_decomposition(td)
            assert ok, (g, reason)
            assert induced_uids(td, result.universe) == result.nested, g
            assert result.displays_ok, g


# ----------------------------------------------------------------------
# criterion 3: canonicity under graph automorphisms


def test_criterion_3_canonicity(tangle_bundles, named_graphs):
    with criterion(3, "canonical extraction commutes with automorphisms"):
        high_symmetry = 0
        nontrivial = 0
        for g, u, chain, levels, top in tangle_bundles:
            auts = automorphisms(g)
            if len(auts) >= 4:
                high_symmetry += 1
            fam = tangle_family(top)
            if fam is None:
                continue
            base = extract_canonical(fam).nested
            nontrivial += 1
            for perm in auts:
                mapping = lift_permutation(u, perm)
                mapped = map_family(fam, mapping)
                image = extract_canonical(mapped).nested
                assert image == frozenset(u.uid(mapping[x]) for x in base), (g, perm)
        assert high_symmetry >= 5
        assert nontrivial >= 30
        for name in ("C5", "C6", "K4", "K33", "petersen_minus_vertex"):
            assert len(automorphisms(named_graphs[name])) >= 4


# ----------------------------------------------------------------------
# criterion 4: oracle equivalence for the transversal extraction


def exhaustive_nested_transversal(u, sets):
    """Oracle: depth-first search over all transversals, pruning on nestedness."""
    sets = [sorted(s) for s in sets]

    def rec(idx, chosen):
        if idx == len(sets):
            return chosen
        for x in sets[idx]:
            if all(u.nested(x, y) for y in chosen):
                got = rec(idx + 1, chosen + [x])
                if got is not None:
                    return got
        return None

    return rec(0, [])


def test_criterion_4_oracle_equivalence():
    with criterion(4, "transversal extraction agrees with exhaustive search"):
        universes = [
            bipartition_universe([1, 2, 3, 4]),
            bipartition_universe([1, 2, 3, 4, 5]),
        ]
        passed = 0
        counter = 0
        while passed < 200:
            counter += 1
            h = corpus.splitmix64(counter)
            u = universes[h % 2]
            uids = u.unoriented_ids()
            nsets = 1 + (h >> 8) % 5
            sets = []
            for i in range(nsets):
                size = 1 + corpus.splitmix64(h + i) % 4
                sets.append(
                    {
                        uids[corpus.splitmix64(h + 101 * i + 13 * j) % len(uids)]
                        for j in range(size)
                    }
                )
            product_size = 1
            for s in sets:
                product_size *= len(s)
            assert product_size <= 10**6
            fam = IndexedFamily(u, sets)
            ok, _ = splinters(fam)
            if not ok:
                continue
            oracle = exhaustive_nested_transversal(u, sets)
            assert oracle is not None, (counter, sets)
            res = extract_transversal(fam)
            for k, s in zip(fam.keys, sets):
                assert res.picks[k] in s
            passed += 1
        assert passed == 200


# ----------------------------------------------------------------------
# criterion 5: clique separation theorems


def test_criterion_5_clique_theorems(tangle_bundles):
    with criterion(5, "clique pipeline: nested, efficient, equivariant, corner bounds"):
        chordal_seen = nonchordal_seen = 0
        for g, u, chain, levels, top in tangle_bundles:
            if corpus.is_chordal(g):
                chordal_seen += 1
            else:
                nonchordal_seen += 1

            cliques = clique_subsystem(g, u, None)
            members = sorted(cliques.members)
            for i, r in enumerate(members):
                for s in members[i + 1 :]:
                    if u.nested(r, s):
                        continue
                    lo, hi = (r, s) if u.order(r) <= u.order(s) else (s, r)
                    assert _clique_corner_bounds(g, u, lo, hi), (g, lo, hi)

            result = clique_pipeline(g)
            # the pipeline's universe holds the clique separations alone, so
            # its nested set is mapped into u by sides
            ru = result.universe
            nested = frozenset(u.uid(u.find(*ru.sides(x))) for x in result.nested)
            vals = sorted(nested)
            for i, a in enumerate(vals):
                for b in vals[i + 1 :]:
                    assert u.nested(a, b), g
            for x in nested:
                assert x in cliques.members, g
            assert result.displays_ok, g
            if result.family is not None and len(result.family):
                base = result.nested
                for perm in automorphisms(g):
                    mapping = lift_permutation(ru, perm)
                    mapped = map_family(result.family, mapping)
                    image = extract_canonical(mapped).nested
                    assert image == frozenset(ru.uid(mapping[x]) for x in base), (g, perm)
        assert chordal_seen >= 20 and nonchordal_seen >= 20


def _clique_corner_bounds(g, u, r, s):
    """The corner-order inequalities for a crossing clique pair with |r| <= |s|."""
    for ro in u.orientations(r):
        for so in u.orientations(s):
            ri, si = u.inv(ro), u.inv(so)
            c_nn, c_ns, c_sn = u.meet(ri, si), u.meet(ri, so), u.meet(ro, si)
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
            return True
    return False


# ----------------------------------------------------------------------
# criterion 6: circle separation theorem


def _dihedral_perms(n):
    perms = []
    for shift in range(n):
        perms.append(tuple((i + shift) % n for i in range(n)))
        perms.append(tuple((shift - i) % n for i in range(n)))
    return sorted(set(perms))


def test_criterion_6_circle_theorem():
    with criterion(6, "canonical circle tree sets, two order functions"):
        for npts in (5, 6, 7, 8):
            pts = list(range(1, npts + 1))
            for m in (1, 2):
                for n in (4, 5):
                    for order_fn in (cycle_cut_order(pts), complete_cut_order(pts)):
                        result = circle_pipeline(pts, m=m, n=n, order_fn=order_fn)
                        u = result.universe
                        circle = result.meta["circle"]
                        assert is_tree_set(u, result.nested), (npts, m, n)
                        for x in result.nested:
                            assert x in circle.members
                        assert pairwise_distinguishes_all(
                            result.nested, result.profiles
                        ), (npts, m, n)
                        if result.family is None or not len(result.family):
                            continue
                        base = result.nested
                        for perm in _dihedral_perms(npts):
                            mapping = lift_permutation(u, perm)
                            mapped = map_family(result.family, mapping)
                            image = extract_canonical(mapped).nested
                            assert image == frozenset(
                                u.uid(mapping[x]) for x in base
                            ), (npts, m, n, perm)


# ----------------------------------------------------------------------
# criterion 7: the negative control from the canonical section


def test_criterion_7_negative_control():
    with criterion(7, "two crossing separations: splinters but not hierarchically"):
        u = bipartition_universe([1, 2, 3, 4])
        s = u.uid(u.find(u.mask_of([1, 2]), u.mask_of([3, 4])))
        t = u.uid(u.find(u.mask_of([2, 3]), u.mask_of([4, 1])))
        assert not u.nested(s, t)
        fam = IndexedFamily(u, [{s, t}])
        ok, _ = splinters(fam)
        assert ok
        ok, witness = splinters_hierarchically(fam)
        assert not ok and witness is not None
        with pytest.raises(HierarchicalConditionError):
            extract_canonical(fam)


# ----------------------------------------------------------------------
# criterion 8: compatible sequences and sequence-level efficiency


def test_criterion_8_compatible_sequences(tangle_bundles):
    with criterion(8, "order slices are compatible; sequence semantics match"):
        for g, u, chain, levels, top in tangle_bundles:
            assert is_compatible_sequence(chain), g
            if len(top) < 2:
                continue
            base, seq_fam = sequence_family(g)
            ord_fam = base.family
            assert seq_fam.keys == ord_fam.keys, g
            for k in ord_fam.keys:
                assert seq_fam.sets[k] == ord_fam.sets[k], (g, k)
            res = extract_transversal(seq_fam)
            nested = res.nested_set()
            assert pairwise_distinguishes_all(nested, top, chain=base.chain), g
            assert pairwise_distinguishes_all(nested, top), g
