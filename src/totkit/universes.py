"""Concrete separation universes: graphs, bipartitions, circles, cliques.

Graph separations follow the usual convention: a separation of ``G`` is a
pair ``(A, B)`` of vertex sets with ``A u B = V`` and no edge between
``A - B`` and ``B - A``; its order is ``|A n B|``.  One walk lists them
all; :func:`enumerate_clique_separations` shares it to build the clique
separations alone, a universe not closed under corners.  Bipartition
universes hold all two-sided partitions of a ground set and take their
order from the cut function of a weighted graph supplied by the caller.  Circle separations
are the bipartitions of a cyclically ordered ground set into two intervals.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice, starmap
from operator import and_
from typing import Callable, Iterable, Iterator

from .errors import SeparationError, SizeBoundError
from .sepsys import GroundSet, SubSystem, Universe, bits, check_label_type

__all__ = [
    "Graph",
    "SubsystemChain",
    "chain_of",
    "enumerate_graph_separations",
    "enumerate_clique_separations",
    "bipartition_universe",
    "cut_order_fn",
    "cycle_cut_order",
    "complete_cut_order",
    "enumerate_circle_separations",
    "is_interval_mask",
    "clique_subsystem",
    "check_submodular_order",
    "slice_chain",
    "automorphisms",
    "automorphism_generators",
    "lift_permutation",
    "permute_mask",
]

DEFAULT_MAX_VERTICES = 10


def label_key(v):
    return (v.__class__.__name__, v)


class Graph:
    """Finite simple graph with hashable, sortable vertex labels, no two of
    them equal but of different types; an edge end names a vertex of its type."""

    def __init__(self, vertices: Iterable, edges: Iterable = ()):
        kinds: dict = {}
        for v in vertices:
            check_label_type(kinds, v)
        self.vertices = tuple(sorted(kinds, key=label_key))
        ground = GroundSet(self.vertices)
        es = set()
        for u, v in edges:
            if u == v:
                raise SeparationError(f"loop at vertex {u!r}")
            try:
                m = ground.mask_of((u, v))
            except SeparationError as exc:
                raise SeparationError(f"edge ({u!r}, {v!r}) uses unknown vertices") from exc
            es.add(((m & -m).bit_length() - 1, m.bit_length() - 1))
        self.edge_indices = tuple(sorted(es))
        adj = [0] * len(self.vertices)
        for i, j in self.edge_indices:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.adj = tuple(adj)

    @cached_property
    def nbhd(self) -> list[int]:
        """``nbhd[x]``: the vertices adjacent to some vertex of the vertex mask ``x``.

        ``x`` with its highest vertex ``v`` added gains ``v``'s neighbours,
        so the table doubles once per vertex, like :attr:`clique`.
        """
        nbhd = [0]
        for nb in self.adj:
            nbhd += [s | nb for s in nbhd]
        return nbhd

    @cached_property
    def clique(self) -> list[bool]:
        """``clique[s]``: whether the vertex mask ``s`` induces a complete subgraph.

        Exactly when ``s`` less its highest vertex ``v`` does and ``v`` is
        adjacent to all of it, so the table doubles once per vertex.
        """
        clique = [True]
        for nb in self.adj:
            clique += [c and not s & ~nb for s, c in enumerate(clique)]
        return clique

    @cached_property
    def elimination_width(self) -> int:
        """The width of a min-degree elimination ordering, an upper bound on
        the tree-width.

        Each step removes a vertex of least degree in the graph left (the
        lowest such index) and makes its neighbours a clique; the width is
        the largest degree a vertex has when it is removed.  The bags of
        each vertex with its neighbours then form a tree-decomposition of
        that width.  Once at most ``width + 1`` vertices are left, none can
        have a larger degree, so the pass stops there.  0 for an edgeless
        graph, 1 for a forest with an edge, 2 for a cycle, ``n - 1`` for
        ``K_n``.
        """
        adj = list(self.adj)
        deg = [a.bit_count() for a in adj]
        left = list(range(self.n))
        width = 0
        while len(left) > width + 1:
            v = min(left, key=deg.__getitem__)
            left.remove(v)
            nb = rest = adj[v]
            if deg[v] > width:
                width = deg[v]
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                adj[w] = a = (adj[w] | nb) & ~(low | 1 << v)
                deg[w] = a.bit_count()
        return width

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


def _separation_walk(g: Graph, max_vertices: int) -> list[tuple[int, int, int]]:
    """One ``(a, forced, free)`` per ``y = B - A``, ``y`` descending.

    ``y = B - A`` and ``x = A - B`` are disjoint with no edge between them,
    so with ``a = A = V - y`` the separator ``A n B = a ^ x`` holds
    ``forced = a & nbhd[y]`` and ``x`` ranges over the submasks of
    ``free = a ^ forced``.  As ``B = V - x``, taking ``y`` descending and
    then ``x`` descending (the submask walk's own order) makes ``(A, B)``
    ascend: the pairs come in oid order, each once, and ``Universe`` sorts
    them in one linear pass.
    """
    if g.n > max_vertices:
        raise SizeBoundError(f"graph has {g.n} vertices, bound is {max_vertices}")
    full = (1 << g.n) - 1
    # nbhd[y] for y = V - a, so reversed
    return [(a, a & n, a & ~n) for a, n in zip(range(full + 1), reversed(g.nbhd))]


def _separator_size(a: int, b: int) -> int:
    return (a & b).bit_count()


def enumerate_graph_separations(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> Universe:
    """The universe of all separations of ``g``, from
    :func:`_separation_walk` with every submask ``x`` of ``free``.  Its
    order function is the separator size; its ids follow the sorted
    side-mask pairs, not the order."""
    walk = _separation_walk(g, max_vertices)
    full = (1 << g.n) - 1
    pairs = []
    for a, _, free in walk:
        x = free
        while True:
            pairs.append((a, full ^ x))
            if x == 0:
                break
            x = (x - 1) & free
    return Universe(g.vertices, pairs, order_fn=_separator_size, kind="graph")


# ----------------------------------------------------------------------
# bipartitions and circles


def cut_order_fn(labels, weighted_edges) -> Callable[[int, int], int]:
    """Order function counting the weight of edges between ``A - B`` and ``B - A``.

    ``weighted_edges`` is an iterable of ``(u, v, w)`` with non-negative ``w``.
    """
    ground = GroundSet(labels)
    items = []
    for u, v, w in weighted_edges:
        if w < 0:
            raise SeparationError("cut weights must be non-negative")
        ends = []
        for end in (u, v):
            try:
                ends.append(ground.mask_of((end,)))
            except SeparationError as exc:
                raise SeparationError(f"cut edge ({u!r}, {v!r}) names unknown point {end!r}") from exc
        items.append((*ends, w))

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
    on the points.  A supplied one must be non-negative and symmetric, but
    need not be submodular: what the theorems use is that the family
    splinters hierarchically, and the canonical extraction verifies its
    output and, when it fails, checks that condition on the family itself
    to name the witness.
    """
    points = tuple(points)
    n = len(points)
    if n < 3:
        raise SeparationError("a circle ground set needs at least 3 points")
    if order_fn is None:
        order_fn = cycle_cut_order(points)
    universe = bipartition_universe(points, order_fn, max_points=max_points, kind="circle")
    members = frozenset(
        u for u in universe.unoriented_ids() if is_interval_mask(universe.sides(u)[0], n)
    )
    return universe, SubSystem(universe, members)


# ----------------------------------------------------------------------
# cliques


def clique_subsystem(g: Graph, universe: Universe, k=None) -> SubSystem:
    """Clique separations of ``g`` of order below ``k`` (``None`` means no bound).

    Reads :attr:`Graph.clique` at each separator ``A n B`` in one pass.
    """
    uids = universe.unoriented_ids()
    members = compress(uids, map(g.clique.__getitem__, starmap(and_, map(universe.sides, uids))))
    if k is not None:
        members = [uid for uid in members if universe.order(uid) < k]
    return SubSystem(universe, frozenset(members))


def enumerate_clique_separations(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> Universe:
    """The universe of the clique separations of ``g``.  Its order function
    is the separator size; its ids follow the sorted side-mask pairs.

    The pairs of :func:`enumerate_graph_separations` whose separator
    ``a ^ x`` is a clique (:attr:`Graph.clique`), in the same oid order.
    Every separator of a ``y`` holds its ``forced`` part, so a ``y`` whose
    ``forced`` part is no clique is skipped whole.  The members are those of
    :func:`clique_subsystem` on the full universe, renumbered in the same
    order.  The universe is not closed under corners:
    :meth:`Universe.corners` gives None for a corner that is no clique
    separation.
    """
    walk = _separation_walk(g, max_vertices)
    full = (1 << g.n) - 1
    clique = g.clique
    pairs = []
    for a, forced, free in walk:
        if not clique[forced]:
            continue
        x = free
        while True:
            if clique[a ^ x]:
                pairs.append((a, full ^ x))
            if x == 0:
                break
            x = (x - 1) & free
    return Universe(g.vertices, pairs, order_fn=_separator_size, kind="clique")


# ----------------------------------------------------------------------
# slices and chains


def check_submodular_order(universe: Universe) -> bool:
    """Whether the order of a bipartition universe is submodular.

    Reading ``f(S)`` as the order of ``(S, V - S)``, submodularity on the
    Boolean lattice is equivalent to ``f(S+i) + f(S+j) >= f(S+i+j) + f(S)``
    for every ``S`` and distinct ``i, j`` outside it (Schrijver,
    *Combinatorial Optimization*, Thm 44.1), which is what is tested.
    Raises ``SeparationError`` unless the universe holds exactly the
    bipartitions of its ground set.  No construction calls it.
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


@dataclass(frozen=True, kw_only=True)
class SubsystemChain:
    """An ascending sequence of subsystems of one universe, stored as its
    ranking: ``members`` lists the top level's members by level, then by
    order (when the universe has one), then by id, the order in which the
    profile search takes them, and level ``i`` is the first ``ends[i]`` of
    them, built by :meth:`level` on demand.  ``thresholds`` is presentation
    metadata (for order-sliced chains, the largest order present in each
    level).  :func:`chain_of` builds a chain from given levels and checks
    them; :func:`slice_chain` and :meth:`prefix` build theirs ascending in
    one universe by construction.
    """

    universe: Universe
    members: tuple[int, ...]
    ends: tuple[int, ...]
    thresholds: tuple = ()

    def __len__(self):
        return len(self.ends)

    def level(self, i: int) -> SubSystem:
        """Level ``i``: the subsystem of the first ``ends[i]`` members."""
        return SubSystem(self.universe, frozenset(self.members[: self.ends[i]]))

    def prefix(self, count: int) -> SubsystemChain:
        """The chain of the first ``count`` levels.  Each level's ranking
        depends on it and the levels below only, so the prefix's members are
        this chain's, cut at the end of its last level."""
        ends = self.ends[:count]
        cut = self.members[: ends[-1] if ends else 0]
        return SubsystemChain(universe=self.universe, members=cut, ends=ends, thresholds=self.thresholds[:count])


def chain_of(universe: Universe, systems: Iterable[SubSystem], thresholds: tuple = ()) -> SubsystemChain:
    """The chain of the levels ``systems``, each ranked after the levels
    below as :class:`SubsystemChain` describes.

    Raises ``SeparationError`` when a level belongs to another universe or
    misses a member of the level before it.
    """
    key = universe.order if universe.has_order else None
    ranked: list[int] = []
    ends = []
    prev: frozenset = frozenset()
    for s in systems:
        if s.universe is not universe:
            raise SeparationError("chain members belong to different universes")
        if not prev <= s.members:
            raise SeparationError("chain is not ascending under inclusion")
        ranked += sorted(sorted(s.members - prev), key=key)
        ends.append(len(ranked))
        prev = s.members
    return SubsystemChain(universe=universe, members=tuple(ranked), ends=tuple(ends), thresholds=thresholds)


def slice_chain(universe: Universe, within: SubSystem | None = None) -> SubsystemChain:
    """Chain of order slices at every distinct order value of the members.

    One stable sort by order of the id-sorted members ranks them by order,
    then id; each distinct order is a threshold, and its level ends at the
    last member of that order.
    """
    members = sorted(within.members) if within is not None else universe.unoriented_ids()
    ranked = tuple(sorted(members, key=universe.order))
    orders = list(map(universe.order, ranked))
    thresholds = tuple(dict.fromkeys(orders))
    ends = tuple(bisect_right(orders, t) for t in thresholds)
    return SubsystemChain(universe=universe, members=ranked, ends=ends, thresholds=thresholds)


# ----------------------------------------------------------------------
# automorphisms


def automorphisms(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, up to ``n!`` of them, so
    bounded by ``max_vertices``, as index tuples in lexicographic order (the identity first)."""
    if g.n > max_vertices:
        raise SizeBoundError(f"graph has {g.n} vertices, bound is {max_vertices}")
    return list(_automorphisms(g, ()))


def automorphism_generators(g: Graph) -> Iterator[tuple[int, ...]]:
    """A generating set of the automorphism group, the identity first.

    For each vertex pair ``i < j`` of equal degree, the first automorphism
    that fixes ``0 .. i-1`` and sends ``i`` to ``j``, if there is one: a
    transversal of each stabiliser in the chain fixing ``0, 1, ...`` in
    turn, so at most ``n(n-1)/2 + 1`` permutations (Sims 1970; Seress,
    *Permutation Group Algorithms*, 2003, ch. 4).  Each comes from one
    pruned search, stopped at its first leaf.
    """
    yield tuple(range(g.n))
    degs = [m.bit_count() for m in g.adj]
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if degs[j] == degs[i]:
                yield from islice(_automorphisms(g, tuple(range(i)) + (j,)), 1)


def _automorphisms(g: Graph, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The automorphisms sending vertex ``i`` to ``prefix[i]`` for each ``i``
    the prefix covers, lazily and in lexicographic order.

    Found by pruned backtracking: vertices get images one at a time,
    ascending, and a partial map is abandoned as soon as it disagrees with
    adjacency on the assigned set.
    """
    n, adj = g.n, g.adj
    degs = [m.bit_count() for m in adj]
    perm, used = [-1] * n, [False] * n

    def backtrack(i):
        if i == n:
            yield tuple(perm)
            return
        for img in (prefix[i],) if i < len(prefix) else range(n):
            if used[img] or degs[img] != degs[i]:
                continue
            for j in range(i):
                if (adj[i] >> j & 1) != (adj[img] >> perm[j] & 1):
                    break
            else:
                perm[i] = img
                used[img] = True
                yield from backtrack(i + 1)
                used[img] = False
                perm[i] = -1

    return backtrack(0)


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
