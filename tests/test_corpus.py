"""The corpus generators against the definitional orbit of an edge mask
under every vertex permutation, and the bytes of the acceptance corpus."""

import hashlib
import random
from itertools import combinations

from oracles import edge_mask_orbit

from totkit import corpus
from totkit.cli import main


def _mask(n, edges):
    """The edge mask of ``edges`` on vertices ``0 .. n-1``, bit by bit as the generators read it."""
    index = {p: b for b, p in enumerate(combinations(range(n), 2))}
    return sum(1 << index[min(e), max(e)] for e in edges)


def _connected(n, mask):
    pos = list(combinations(range(n), 2))
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for b, (i, j) in enumerate(pos):
            if mask >> b & 1 and v in (i, j) and (w := i + j - v) not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_connected_graphs_are_the_connected_orbit_minima_in_mask_order():
    """For n <= 5, the masks scanned in increasing order whose orbit under all
    n! permutations holds no smaller mask, kept when connected."""
    expected = []
    for n in range(1, 6):
        seen = set()
        for mask in range(1 << n * (n - 1) // 2):
            if mask not in seen:
                seen |= edge_mask_orbit(n, mask)
                if _connected(n, mask):
                    expected.append((n, mask))
    graphs = corpus.all_connected_graphs(5)
    assert [(g.n, _mask(g.n, g.edge_indices)) for g in graphs] == expected
    assert [g.vertices for g in graphs] == [tuple(range(1, n + 1)) for n, _ in expected]


def test_canonical_mask_is_the_least_mask_of_its_orbit():
    """Seeded 7-vertex masks, and K7, a star, K_{3,4} and a triangle joined
    to four independent vertices, where most vertices have twins."""
    n = 7
    rng = random.Random(7)
    masks = [rng.getrandbits(21) for _ in range(8)]
    masks += [
        _mask(n, combinations(range(n), 2)),
        _mask(n, [(3, v) for v in range(n) if v != 3]),
        _mask(n, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5, 6)]),
        _mask(n, [(0, 1), (0, 2), (1, 2)] + [(u, v) for u in (0, 1, 2) for v in range(3, n)]),
    ]
    for mask in masks:
        assert corpus._canonical_mask(n, mask) == min(edge_mask_orbit(n, mask)), mask


def test_the_acceptance_corpus_keeps_its_bytes(capsys):
    """sha256 of ``totkit corpus --max-vertices 6 --sample-seven 50``, taken
    while the generators still scanned every vertex permutation."""
    assert main(["corpus", "--max-vertices", "6", "--sample-seven", "50"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "41fedaafe794f5bc26724c392ddad9fc1f434914ea66defe897e9d4a50a61d26"
