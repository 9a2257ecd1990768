"""Deterministic graph corpora: exhaustive small graphs and named families.

Nothing here uses randomness.  The stress sample on seven vertices is drawn
from a counter-based splitmix64 hash so that every run of every process
produces the same graphs; the counter of each accepted graph is recorded.
"""

from __future__ import annotations

from itertools import combinations

from .errors import SizeBoundError
from .sepsys import bits
from .universes import Graph

__all__ = [
    "CONNECTED_ON_SEVEN",
    "splitmix64",
    "all_connected_graphs",
    "seven_vertex_sample",
    "is_chordal",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "complete_bipartite",
    "two_cliques",
    "petersen_graph",
    "petersen_minus_vertex",
]

# connected graphs on 7 vertices up to isomorphism (OEIS A001349)
CONNECTED_ON_SEVEN = 853


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; a pure function of the counter."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _graph_from_mask(n: int, mask: int) -> Graph:
    edges = [(i + 1, j + 1) for b, (i, j) in enumerate(combinations(range(n), 2)) if mask >> b & 1]
    return Graph(range(1, n + 1), edges)


def _adjacency(n: int, mask: int) -> list[int]:
    adj = [0] * n
    for b, (i, j) in enumerate(combinations(range(n), 2)):
        if mask >> b & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _connected_mask(n: int, mask: int) -> bool:
    adj = _adjacency(n, mask)
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _transposition_tables(n: int) -> list[tuple[list[int], ...]]:
    """For each adjacent transposition ``(i, i + 1)`` of the vertices, three
    256-entry tables that map byte ``k`` of an edge mask (n <= 7 gives at most
    21 bits) to the image of its edges, so a mask maps with three lookups."""
    pos = list(combinations(range(n), 2))
    pos_index = {p: b for b, p in enumerate(pos)}
    out = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        image = [1 << pos_index[tuple(sorted((swap.get(a, a), swap.get(b, b))))] for a, b in pos]
        image += [0] * (24 - len(image))
        tables = []
        for k in range(3):
            table = [0] * 256
            for v in range(1, 256):
                low = (v & -v).bit_length() - 1
                table[v] = table[v & (v - 1)] | image[8 * k + low]
            tables.append(table)
        out.append(tuple(tables))
    return out


def all_connected_graphs(max_n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on <= max_n vertices.

    Masks are scanned in increasing order; the first mask of each orbit under
    the symmetric group is kept, so representatives are canonical minima.
    Each kept mask's orbit is closed under the adjacent transpositions, which
    generate the symmetric group, and marked seen.
    """
    if max_n > 7:
        raise SizeBoundError("exhaustive enumeration is limited to 7 vertices")
    out = []
    for n in range(1, max_n + 1):
        tables = _transposition_tables(n)
        seen = bytearray(1 << n * (n - 1) // 2)
        mask = 0
        while mask >= 0:
            seen[mask] = 1
            stack = [mask]
            while stack:
                m = stack.pop()
                for t0, t1, t2 in tables:
                    image = t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16]
                    if not seen[image]:
                        seen[image] = 1
                        stack.append(image)
            if _connected_mask(n, mask):
                out.append(_graph_from_mask(n, mask))
            mask = seen.find(0, mask + 1)
    return out


def _canonical_mask(n: int, mask: int) -> int:
    """The least edge mask over all relabellings of the graph with edge mask ``mask``.

    Bit significance falls with the edge ``(i, j)`` in descending
    lexicographic order, so the bits ``(i, j)``, ``j > i``, of label ``i``
    outrank those of every lower label.  Labels ``n - 1, n - 2, ...`` are
    therefore placed in turn, each on a vertex whose edges to the vertices
    already placed give the least such block; ties branch, and a branch whose
    block is not the least of all branches at that label is dropped.  Of two
    tied twins (equal neighbourhoods apart from each other) one branch is
    enough, as swapping them is an automorphism fixing the placed vertices.
    """
    adj = _adjacency(n, mask)
    twin = [min(w for w in range(n) if adj[v] & ~(1 << w) == adj[w] & ~(1 << v)) for v in range(n)]
    offset = [i * (2 * n - i - 1) // 2 for i in range(n)]  # bit of edge (i, i + 1)
    # a branch: the unplaced vertices and, per vertex, the labels of its placed neighbours
    branches = [((1 << n) - 1, (0,) * n)]
    out = 0
    for label in range(n - 1, -1, -1):
        best = None
        kept = []
        for rest, codes in branches:
            low = min(codes[v] for v in range(n) if rest >> v & 1)
            if best is None or low < best:
                best, kept = low, []
            elif low > best:
                continue
            classes = set()
            for v in range(n):
                if rest >> v & 1 and codes[v] == low and twin[v] not in classes:
                    classes.add(twin[v])
                    after = list(codes)
                    for w in bits(adj[v]):
                        after[w] |= 1 << label
                    kept.append((rest & ~(1 << v), after))
        out |= best >> label + 1 << offset[label]
        branches = kept
    return out


def seven_vertex_sample(count: int = 50) -> list[tuple[int, Graph]]:
    """Deterministic connected 7-vertex graphs, pairwise non-isomorphic.

    Returns ``(counter, graph)`` pairs; the counter that produced each graph
    is part of the corpus identity.  A ``count`` above the
    ``CONNECTED_ON_SEVEN`` classes raises ``SizeBoundError`` before drawing.
    """
    if count > CONNECTED_ON_SEVEN:
        raise SizeBoundError(f"there are only {CONNECTED_ON_SEVEN} connected graphs on 7 vertices, not {count}")
    n = 7
    nbits = n * (n - 1) // 2
    reps = set()
    out = []
    counter = 0
    while len(out) < count:
        counter += 1
        mask = splitmix64(counter) & ((1 << nbits) - 1)
        if not _connected_mask(n, mask):
            continue
        canon = _canonical_mask(n, mask)
        if canon in reps:
            continue
        reps.add(canon)
        out.append((counter, _graph_from_mask(n, canon)))
    return out


# ----------------------------------------------------------------------
# named graphs


def complete_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), combinations(range(1, n + 1), 2))


def cycle_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def path_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(range(1, leaves + 2), [(1, i) for i in range(2, leaves + 2)])


def complete_bipartite(a: int, b: int) -> Graph:
    left = range(1, a + 1)
    right = range(a + 1, a + b + 1)
    return Graph(range(1, a + b + 1), [(u, v) for u in left for v in right])


def two_cliques(k: int = 4) -> Graph:
    """Two K_k's joined by a single bridge edge."""
    left = list(range(1, k + 1))
    right = list(range(k + 1, 2 * k + 1))
    edges = list(combinations(left, 2)) + list(combinations(right, 2)) + [(k, k + 1)]
    return Graph(range(1, 2 * k + 1), edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    edges = [(u + 1, v + 1) for u, v in outer + inner + spokes]
    return Graph(range(1, 11), edges)


def petersen_minus_vertex() -> Graph:
    g = petersen_graph()
    keep = [v for v in g.vertices if v != 1]
    edges = [(u, v) for u, v in g.edges if u != 1 and v != 1]
    return Graph(keep, edges)


# ----------------------------------------------------------------------
# simple structure predicates


def is_chordal(g: Graph) -> bool:
    """Chordality via repeated deletion of simplicial vertices, those whose
    remaining neighbours form a clique."""
    alive = (1 << g.n) - 1
    while alive:
        v = next((v for v in bits(alive) if g.clique[g.adj[v] & alive]), None)
        if v is None:
            return False
        alive &= ~(1 << v)
    return True
