"""Compatible sequences and chain-level efficiency semantics."""

import pytest

from totkit import corpus
from totkit.corpus import splitmix64
from totkit.errors import SeparationError
from totkit.pipelines import graph_pipeline
from totkit.sepsys import SubSystem, Universe
from totkit.splinter import extract_transversal, splinters
from totkit.universes import (
    Graph,
    bipartition_universe,
    chain_of,
    check_submodular_order,
    clique_subsystem,
    cut_order_fn,
    enumerate_clique_separations,
    enumerate_graph_separations,
    slice_chain,
)

from oracles import efficient_distinguishers, is_compatible_sequence, restrict_Sk, sequence_family
from test_universes import literal_compatible


def test_compatible_matches_literal_on_adhoc_chains(bip4):
    """Hand-built non-slice chains agree with the literal definition."""
    uids = sorted(bip4.unoriented_ids())
    cases = [
        [uids[:1], uids[:3]],
        [uids[:2], uids[:2]],
        [[uids[0]], [uids[0], uids[3]], uids[:5]],
    ]
    for systems in cases:
        chain = chain_of(
            bip4, tuple(SubSystem(bip4, frozenset(s)) for s in systems)
        )
        assert is_compatible_sequence(chain) == literal_compatible(chain)


def test_incompatible_chain_detected(bip4):
    r = bip4.uid(bip4.find(bip4.mask_of([1, 2]), bip4.mask_of([3, 4])))
    s = bip4.uid(bip4.find(bip4.mask_of([2, 3]), bip4.mask_of([4, 1])))
    chain = chain_of(
        bip4,
        (SubSystem(bip4, frozenset({r})), SubSystem(bip4, frozenset({r, s}))),
    )
    assert is_compatible_sequence(chain) == literal_compatible(chain) == False


def test_compatible_matches_literal_on_random_chains():
    """Seeded ascending chains of three systems over a 4-point bipartition
    universe: each unordered pair is checked once for both orders."""
    u = bipartition_universe(range(1, 5))
    uids = sorted(u.unoriented_ids())
    verdicts = []
    for counter in range(1, 201):
        h = splitmix64(counter)
        members, systems = set(), []
        for level in range(3):
            size = 1 + (h >> 8 * level) % 3
            members |= {uids[splitmix64(h + 13 * level + j) % len(uids)] for j in range(size)}
            systems.append(SubSystem(u, frozenset(members)))
        chain = chain_of(u, tuple(systems))
        verdicts.append(literal_compatible(chain))
        assert is_compatible_sequence(chain) == verdicts[-1], counter
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_slice_chains_of_submodular_orders_are_compatible():
    """For ``r`` in ``S_i`` and ``s`` in ``S_j``, ``i <= j``, opposite corners
    ``x, y`` have ``|x| + |y| <= |r| + |s|`` under a submodular order, so
    each opposite pair has a corner in ``S_i`` or both in ``S_j``: the slice
    chain is compatible.  Seeded random cut orders of weighted graphs on 4
    to 6 points, zero weights included."""
    for counter in range(1, 19):
        h = splitmix64(counter)
        points = range(1, 5 + counter % 3)
        edges = [
            (p, q, splitmix64(h + 11 * p + q) % 4)
            for p in points
            for q in points
            if p < q
        ]
        u = bipartition_universe(points, cut_order_fn(points, edges))
        assert check_submodular_order(u), counter
        chain = slice_chain(u)
        assert is_compatible_sequence(chain) and literal_compatible(chain), counter


def test_missing_corner_is_in_no_level():
    """Two crossing bipartitions without their corners are incompatible; two
    nested ones are compatible by their own two corners, though the other
    two, ``(V, 0)`` and ``(0, V)``, are missing too."""
    full = 0b1111
    for masks, verdict in (((0b0011, 0b0110), False), ((0b0011, 0b0001), True)):
        u = Universe(range(4), [(m, full ^ m) for m in masks + tuple(full ^ m for m in masks)])
        chain = chain_of(u, (SubSystem(u, frozenset(u.unoriented_ids())),))
        assert is_compatible_sequence(chain) == literal_compatible(chain) == verdict


def test_clique_universe_chain_matches_full_universe_slices():
    """The clique universe lacks corners that the full one holds, as on
    ``path_graph(5)`` and the graph below, yet its slice chain reads as the
    same slices cut from the full universe."""
    extra = Graph(range(1, 7), [(1, 4), (2, 3), (3, 5), (4, 5)])
    for g in corpus.all_connected_graphs(6) + [corpus.path_graph(5), extra]:
        full = enumerate_graph_separations(g)
        expect = is_compatible_sequence(slice_chain(full, within=clique_subsystem(g, full)))
        assert is_compatible_sequence(slice_chain(enumerate_clique_separations(g))) == expect, g


def test_containment_violation_is_an_error(p4_universe):
    s1 = restrict_Sk(p4_universe, 1)
    s2 = restrict_Sk(p4_universe, 2)
    with pytest.raises(SeparationError):
        chain_of(p4_universe, (s2, s1))


def test_sequence_efficiency_equals_order_efficiency(small_corpus):
    """Order slices: minimal chain level picks exactly the minimal-order sets."""
    for g in small_corpus:
        result = graph_pipeline(g)
        if len(result.profiles) < 2:
            continue
        chain = result.chain
        for i, p in enumerate(result.profiles):
            for q in result.profiles[i + 1 :]:
                assert sorted(efficient_distinguishers(p, q, chain)) == sorted(
                    efficient_distinguishers(p, q)
                )


def test_sequence_family_matches_order_family(two_k4):
    base, seq_fam = sequence_family(two_k4)
    ord_fam = base.family
    assert seq_fam.keys == ord_fam.keys
    for k in ord_fam.keys:
        assert seq_fam.sets[k] == ord_fam.sets[k]


def test_sequence_family_extraction_covers_all_pairs(two_k4):
    base, seq_fam = sequence_family(two_k4)
    ok, _ = splinters(seq_fam)
    assert ok
    res = extract_transversal(seq_fam)
    for k in seq_fam.keys:
        assert res.picks[k] in seq_fam.sets[k]
