"""Concrete separation universes: graphs, bipartitions, circles, cliques.

Graph separations follow the usual convention: a separation of ``G`` is a
pair ``(A, B)`` of vertex sets with ``A u B = V`` and no edge between
``A - B`` and ``B - A``; its order is ``|A n B|``.  Bipartition universes
hold all two-sided partitions of a ground set and take their order from the
cut function of a weighted graph supplied by the caller.  Circle separations
are the bipartitions of a cyclically ordered ground set into two intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import SeparationError, SizeBoundError
from .sepsys import SubSystem, Universe, bits

__all__ = [
    "Graph",
    "SubsystemChain",
    "enumerate_graph_separations",
    "bipartition_universe",
    "cut_order_fn",
    "cycle_cut_order",
    "complete_cut_order",
    "enumerate_circle_separations",
    "is_interval_mask",
    "is_clique_separation",
    "clique_subsystem",
    "restrict_Sk",
    "check_submodular_order",
    "slice_chain",
    "is_compatible_sequence",
    "automorphisms",
    "lift_permutation",
    "permute_mask",
]

DEFAULT_MAX_VERTICES = 10


def label_key(v):
    return (v.__class__.__name__, v)


class Graph:
    """Finite simple graph with hashable, sortable vertex labels."""

    def __init__(self, vertices: Iterable, edges: Iterable = ()):
        self.vertices = tuple(sorted(set(vertices), key=label_key))
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        es = set()
        for u, v in edges:
            if u == v:
                raise SeparationError(f"loop at vertex {u!r}")
            if u not in self._vindex or v not in self._vindex:
                raise SeparationError(f"edge ({u!r}, {v!r}) uses unknown vertices")
            iu, iv = self._vindex[u], self._vindex[v]
            es.add((min(iu, iv), max(iu, iv)))
        self.edge_indices = tuple(sorted(es))
        adj = [0] * len(self.vertices)
        for i, j in self.edge_indices:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.adj = tuple(adj)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_indices)

    @property
    def edges(self) -> list[tuple]:
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edge_indices]

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edge_indices == other.edge_indices
        )

    def __hash__(self):
        return hash((self.vertices, self.edge_indices))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.n_edges})"


# ----------------------------------------------------------------------
# graph separations


def enumerate_graph_separations(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> Universe:
    """The universe of all separations of ``g``, ordered by separator size."""
    if g.n > max_vertices:
        raise SizeBoundError(f"graph has {g.n} vertices, bound is {max_vertices}")
    full = (1 << g.n) - 1
    adj = g.adj
    # nbhd[x]: the vertices adjacent to some vertex of x, by the lowest bit of x.
    nbhd = [0] * (full + 1)
    for x in range(1, full + 1):
        low = x & -x
        nbhd[x] = nbhd[x ^ low] | adj[low.bit_length() - 1]
    # x = A - B and y = B - A are disjoint with no edge between them, so y
    # ranges over the subsets of the vertices neither in x nor next to it.
    pairs = []
    for x in range(full + 1):
        b = full & ~x
        free = b & ~nbhd[x]
        y = free
        while True:
            pairs.append((full & ~y, b))
            if y == 0:
                break
            y = (y - 1) & free
    return Universe(g.vertices, pairs, order_fn=lambda a, b: (a & b).bit_count(), kind="graph")


# ----------------------------------------------------------------------
# bipartitions and circles


def cut_order_fn(labels, weighted_edges) -> Callable[[int, int], int]:
    """Order function counting the weight of edges between ``A - B`` and ``B - A``.

    ``weighted_edges`` is an iterable of ``(u, v, w)`` with non-negative ``w``.
    """
    idx = {v: i for i, v in enumerate(labels)}
    items = []
    for u, v, w in weighted_edges:
        if w < 0:
            raise SeparationError("cut weights must be non-negative")
        for end in (u, v):
            if end not in idx:
                raise SeparationError(f"cut edge ({u!r}, {v!r}) names unknown point {end!r}")
        items.append((1 << idx[u], 1 << idx[v], w))

    def order(a: int, b: int):
        aonly = a & ~b
        bonly = b & ~a
        total = 0
        for mu, mv, w in items:
            if (mu & aonly and mv & bonly) or (mu & bonly and mv & aonly):
                total += w
        return total

    return order


def complete_cut_order(points) -> Callable[[int, int], int]:
    points = tuple(points)
    edges = [
        (points[i], points[j], 1)
        for i in range(len(points))
        for j in range(i + 1, len(points))
    ]
    return cut_order_fn(points, edges)


def cycle_cut_order(points) -> Callable[[int, int], int]:
    points = tuple(points)
    n = len(points)
    return cut_order_fn(points, [(points[i], points[(i + 1) % n], 1) for i in range(n)])


def bipartition_universe(
    labels,
    order_fn: Callable[[int, int], int] | None = None,
    max_points: int = DEFAULT_MAX_VERTICES,
    kind: str = "bipartition",
) -> Universe:
    """The universe of all bipartitions ``(A, V - A)`` of a ground set."""
    labels = tuple(labels)
    if len(labels) > max_points:
        raise SizeBoundError(f"ground set has {len(labels)} points, bound is {max_points}")
    full = (1 << len(labels)) - 1
    pairs = [(m, full & ~m) for m in range(full + 1)]
    return Universe(labels, pairs, order_fn=order_fn, kind=kind)


def is_interval_mask(mask: int, n: int) -> bool:
    """Whether ``mask`` is a (possibly empty or full) cyclic interval of ``n`` positions."""
    full = (1 << n) - 1
    rotated = ((mask << 1) | (mask >> (n - 1))) & full
    return (mask ^ rotated).bit_count() <= 2


def enumerate_circle_separations(
    points,
    order_fn: Callable[[int, int], int] | None = None,
    max_points: int = DEFAULT_MAX_VERTICES,
) -> tuple[Universe, SubSystem]:
    """Bipartition universe over cyclically ordered ``points`` plus its interval subsystem.

    The default order function is the cut function of the unit-weight cycle
    on the points.  The supplied order function is checked for submodularity.
    """
    points = tuple(points)
    n = len(points)
    if n < 3:
        raise SeparationError("a circle ground set needs at least 3 points")
    if order_fn is None:
        order_fn = cycle_cut_order(points)
    universe = bipartition_universe(points, order_fn, max_points=max_points, kind="circle")
    if not check_submodular_order(universe):
        raise SeparationError("supplied order function is not submodular")
    members = frozenset(
        u for u in universe.unoriented_ids() if is_interval_mask(universe.sides(u)[0], n)
    )
    return universe, SubSystem(universe, members)


# ----------------------------------------------------------------------
# cliques


def is_clique_separation(g: Graph, universe: Universe, uid: int) -> bool:
    """Whether the separator ``A n B`` induces a complete subgraph of ``g``."""
    a, b = universe.sides(uid)
    sep = a & b
    for v in bits(sep):
        if g.adj[v] & sep != sep & ~(1 << v):
            return False
    return True


def clique_subsystem(g: Graph, universe: Universe, k=None) -> SubSystem:
    """Clique separations of ``g`` of order below ``k`` (``None`` means no bound)."""
    members = set()
    for u in universe.unoriented_ids():
        if k is not None and not universe.order(u) < k:
            continue
        if is_clique_separation(g, universe, u):
            members.add(u)
    return SubSystem(universe, frozenset(members))


# ----------------------------------------------------------------------
# slices, chains, compatibility


def restrict_Sk(universe: Universe, k) -> SubSystem:
    """Members of the universe with order strictly below ``k``."""
    return SubSystem(
        universe, frozenset(u for u in universe.unoriented_ids() if universe.order(u) < k)
    )


def check_submodular_order(universe: Universe) -> bool:
    """Whether the order of a bipartition universe is submodular.

    Reading ``f(S)`` as the order of ``(S, V - S)``, submodularity on the
    Boolean lattice is equivalent to ``f(S+i) + f(S+j) >= f(S+i+j) + f(S)``
    for every ``S`` and distinct ``i, j`` outside it (Schrijver,
    *Combinatorial Optimization*, Thm 44.1), which is what is tested.
    Raises ``SeparationError`` unless the universe holds exactly the
    bipartitions of its ground set.
    """
    full = universe.full_mask
    oids = [universe.find(m, full & ~m) for m in range(full + 1)]
    if universe.n_oriented != full + 1 or None in oids:
        raise SeparationError("submodularity is checked on bipartition universes only")
    f = [universe.order(oid) for oid in oids]
    for s in range(full + 1):
        fs = f[s]
        outside = [1 << i for i in bits(full & ~s)]
        for x, bi in enumerate(outside):
            si = s | bi
            fi = f[si]
            for bj in outside[x + 1 :]:
                # The additive form is the float expression of the pair
                # definition, ``f(r) + f(s) < f(r v s) + f(r ^ s)``.
                if fi + f[s | bj] < f[si | bj] + fs:
                    return False
    return True


@dataclass(frozen=True)
class SubsystemChain:
    """An ascending sequence of subsystems of one universe.

    ``thresholds`` is presentation metadata (for order-sliced chains, the
    largest order present in each level).
    """

    universe: Universe
    systems: tuple[SubSystem, ...]
    thresholds: tuple = ()

    def __post_init__(self):
        prev = None
        for s in self.systems:
            if s.universe is not self.universe:
                raise SeparationError("chain members belong to different universes")
            if prev is not None and not prev.members <= s.members:
                raise SeparationError("chain is not ascending under inclusion")
            prev = s

    def __len__(self):
        return len(self.systems)

    def level_of(self, uid: int):
        """Smallest level index whose system contains ``uid``, or None."""
        for i, s in enumerate(self.systems):
            if uid in s.members:
                return i
        return None

    def top(self) -> SubSystem:
        return self.systems[-1]


def slice_chain(universe: Universe, within: SubSystem | None = None) -> SubsystemChain:
    """Chain of order slices at every distinct order value of the members."""
    members = within.members if within is not None else universe.unoriented_ids()
    order = universe.order
    ranked = sorted((order(u), u) for u in members)
    values = []
    systems = []
    prefix = []
    for i, (v, u) in enumerate(ranked):
        prefix.append(u)
        if i + 1 == len(ranked) or ranked[i + 1][0] != v:
            values.append(v)
            systems.append(SubSystem(universe, frozenset(prefix)))
    return SubsystemChain(universe, tuple(systems), thresholds=tuple(values))


def is_compatible_sequence(chain: SubsystemChain) -> bool:
    """Whether every element pair satisfies the two-or-three corner condition.

    For all ``i <= j`` and ``s_i`` in level ``i``, ``s_j`` in level ``j``,
    level ``i`` must contain at least two of the four tagged corners of the
    pair, or level ``j`` at least three.  Because the chain ascends, corner
    counts are monotone in the level index, so each element pair only needs
    checking at its smallest admissible level pair.
    """
    corners = chain.universe.corners
    top = sorted(chain.top().members)
    level = {uid: chain.level_of(uid) for uid in top}
    missing = len(chain.systems)
    # One (uncached) corner computation per unordered pair serves both ordered
    # pairs: the corner multiset is symmetric, j0 is shared, and the smaller i0
    # binds.  With sorted corner levels, lv[1] <= i0 means two corners in i0.
    for x, r in enumerate(top):
        for s in top[x:]:
            lv = sorted([level.get(c, missing) for c in corners(r, s)])
            i0, j0 = sorted((level[r], level[s]))
            if lv[1] > i0 and lv[2] > j0:
                return False
    return True


# ----------------------------------------------------------------------
# automorphisms


def automorphisms(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, as index tuples.

    Found by pruned backtracking: vertices are assigned images one at a time
    and a partial map is abandoned as soon as it disagrees with adjacency on
    the assigned set.
    """
    if g.n > max_vertices:
        raise SizeBoundError(f"graph has {g.n} vertices, bound is {max_vertices}")
    n = g.n
    adj = g.adj
    degs = [m.bit_count() for m in adj]
    out = []
    perm = [-1] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            out.append(tuple(perm))
            return
        for img in range(n):
            if used[img] or degs[img] != degs[i]:
                continue
            ok = True
            for j in range(i):
                if (adj[i] >> j & 1) != (adj[img] >> perm[j] & 1):
                    ok = False
                    break
            if ok:
                perm[i] = img
                used[img] = True
                backtrack(i + 1)
                used[img] = False
                perm[i] = -1

    backtrack(0)
    return sorted(out)


def permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i in bits(mask):
        out |= 1 << perm[i]
    return out


def lift_permutation(universe: Universe, perm: tuple[int, ...], oids=None) -> dict[int, int]:
    """Lift a ground-set permutation to a map of oriented separation ids.

    ``oids`` limits the map to those oriented ids (default: all of them).
    """
    mapping = {}
    for oid in universe.oriented_ids() if oids is None else oids:
        a, b = universe.sides(oid)
        img = universe.find(permute_mask(a, perm), permute_mask(b, perm))
        if img is None:
            raise SeparationError("permutation does not preserve the universe")
        mapping[oid] = img
    return mapping
