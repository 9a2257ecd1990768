"""Deterministic graph corpora: exhaustive small graphs and named families.

Nothing here uses randomness.  The stress sample on seven vertices is drawn
from a counter-based splitmix64 hash so that every run of every process
produces the same graphs; the counter of each accepted graph is recorded.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .errors import SizeBoundError
from .universes import Graph

__all__ = [
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


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; a pure function of the counter."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _edge_positions(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _graph_from_mask(n: int, mask: int) -> Graph:
    pos = _edge_positions(n)
    edges = [(i + 1, j + 1) for b, (i, j) in enumerate(pos) if mask >> b & 1]
    return Graph(range(1, n + 1), edges)


def _connected_mask(n: int, mask: int) -> bool:
    adj = [0] * n
    pos = _edge_positions(n)
    for b, (i, j) in enumerate(pos):
        if mask >> b & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            nxt |= adj[v]
            m &= m - 1
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _perm_edge_tables(n: int) -> list[tuple[int, ...]]:
    pos = _edge_positions(n)
    pos_index = {p: i for i, p in enumerate(pos)}
    tables = []
    for perm in permutations(range(n)):
        table = []
        for i, j in pos:
            a, b = perm[i], perm[j]
            table.append(1 << pos_index[(min(a, b), max(a, b))])
        tables.append(tuple(table))
    return tables


def _apply_edge_perm(mask: int, table: tuple[int, ...]) -> int:
    out = 0
    m = mask
    while m:
        b = (m & -m).bit_length() - 1
        out |= table[b]
        m &= m - 1
    return out


def all_connected_graphs(max_n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on <= max_n vertices.

    Masks are scanned in increasing order; the first mask of each orbit under
    the symmetric group is kept, so representatives are canonical minima.
    """
    if max_n > 7:
        raise SizeBoundError("exhaustive enumeration is limited to 7 vertices")
    out = []
    for n in range(1, max_n + 1):
        tables = _perm_edge_tables(n)
        nbits = n * (n - 1) // 2
        seen = set()
        for mask in range(1 << nbits):
            if mask in seen:
                continue
            orbit = {_apply_edge_perm(mask, t) for t in tables}
            seen.update(orbit)
            if _connected_mask(n, mask):
                out.append(_graph_from_mask(n, mask))
    return out


def seven_vertex_sample(count: int = 50) -> list[tuple[int, Graph]]:
    """Deterministic connected 7-vertex graphs, pairwise non-isomorphic.

    Returns ``(counter, graph)`` pairs; the counter that produced each graph
    is part of the corpus identity.
    """
    n = 7
    nbits = n * (n - 1) // 2
    tables = _perm_edge_tables(n)
    reps = set()
    out = []
    counter = 0
    while len(out) < count:
        counter += 1
        mask = splitmix64(counter) & ((1 << nbits) - 1)
        if not _connected_mask(n, mask):
            continue
        canon = min(_apply_edge_perm(mask, t) for t in tables)
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
    """Chordality via repeated deletion of simplicial vertices."""
    adj = list(g.adj)
    alive = (1 << g.n) - 1
    for _ in range(g.n):
        found = False
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nb = adj[v] & alive
            simplicial = True
            nn = nb
            while nn:
                w = (nn & -nn).bit_length() - 1
                nn &= nn - 1
                if nb & ~(adj[w] | (1 << w)):
                    simplicial = False
                    break
            if simplicial:
                alive &= ~(1 << v)
                found = True
                break
        if not found:
            return False
    return True
