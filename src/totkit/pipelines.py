"""End-to-end pipelines: tangles to nested sets to tree-decompositions.

The graph, clique and circle pipelines share one core of two steps: the
profiles of a subsystem chain and the efficient-distinguisher family over
them, then a nested set extracted (canonically or not), which the
extraction checks to distinguish the profiles efficiently, and, for graph
separations, turned into a tree-decomposition.  They differ only in the
universe, the chain, the profile kind and whether only the maximal profiles
are kept; the clique pipeline's universe holds the clique separations only,
as its profiles, family and nested set use no other separation.  Callers
needing only the profiles and the family stop after the first step, which
``graph_tangles``, ``clique_profiles`` and ``circle_tangles`` run alone.

This module owns that core and knows no command: ``graphio.run_command``
maps a command and its params to one of these calls.  The check that a
nested set meets every family set, ``efficiently_distinguishes_all``, lives
in ``splinter`` and is re-exported here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Callable

from .profiles import (
    PROFILE,
    build_distinguisher_family,
    circle_tangle_kind,
    enumerate_chain_profiles,
    graph_tangle_kind,
    maximal_profiles,
)
from .sepsys import SubSystem, Universe
from .splinter import (
    IndexedFamily,
    efficiently_distinguishes_all,
    extract_canonical,
    extract_transversal,
)
from .treedec import TreeDecomposition, build_tree_decomposition
from .universes import (
    DEFAULT_MAX_VERTICES,
    Graph,
    SubsystemChain,
    complete_cut_order,
    cycle_cut_order,
    enumerate_circle_separations,
    enumerate_clique_separations,
    enumerate_graph_separations,
    slice_chain,
)

__all__ = [
    "PipelineResult",
    "graph_pipeline",
    "clique_pipeline",
    "circle_pipeline",
    "graph_tangles",
    "clique_profiles",
    "circle_tangles",
    "efficiently_distinguishes_all",
    "complete_cut_order",
    "cycle_cut_order",
]


@dataclass
class PipelineResult:
    """Step one's profiles and family, and step two's nested set; ``circle``
    is the circle subsystem of a circle pipeline."""

    graph: Graph | None
    universe: Universe
    chain: SubsystemChain
    levels: list
    profiles: list
    family: IndexedFamily | None
    nested: frozenset = frozenset()
    decomposition: TreeDecomposition | None = None
    extraction: object = None
    circle: SubSystem | None = None


def _profiles_and_family(
    chain: SubsystemChain, levels: list, graph: Graph | None = None,
    maximal_only: bool = False, circle: SubSystem | None = None,
) -> PipelineResult:
    """Step one: the profiles of ``chain``, one list per level in ``levels``
    (only the maximal ones if asked), and the efficient-distinguisher family
    over them (None for fewer than two profiles).  The result has no nested
    set yet."""
    profiles = [p for lvl in levels for p in lvl]
    if maximal_only:
        profiles = maximal_profiles(profiles)
    family = build_distinguisher_family(profiles) if len(profiles) > 1 else None
    return PipelineResult(graph, chain.universe, chain, levels, profiles, family, circle=circle)


def _extract_and_check(base: PipelineResult, canonical: bool) -> PipelineResult:
    """Step two: the nested set, which either extraction checks to be nested
    and to meet every family set, and the tree-decomposition for graphs."""
    extract = extract_canonical if canonical else extract_transversal
    extraction = extract(base.family) if base.family else None  # None without a family set
    nested = extraction.nested if extraction else frozenset()
    td = None if base.graph is None else build_tree_decomposition(base.graph, base.universe, nested)
    return replace(base, nested=nested, decomposition=td, extraction=extraction)


def graph_tangles(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES, max_order: int | None = None
) -> PipelineResult:
    """The tangles of a graph, below ``max_order`` if given, and the family
    over the maximal ones.

    No graph has a tangle of order above its tree-width plus one: tangle
    order <= branch-width <= tree-width + 1 (Robertson and Seymour, *Graph
    Minors X. Obstructions to tree-decomposition*, 1991).  Under the cover
    of vertices and edges used here the first bound does not hold for
    edgeless graphs, stars and matchings, whose tangles of order 1 or 2
    exceed the branch-width, but this direct argument holds for every graph.
    Take a tree-decomposition of width ``w`` and a tangle of order above
    ``w + 1``.  It orients the separation of each tree edge, so some bag
    ``V_t`` has every branch at ``t`` on a small side.  The join ``(A | C, B & D)`` of two small sides ``A``, ``C`` is
    small when its order is below the tangle's, as otherwise ``B & D``, its
    inverse's small side, and ``A`` and ``C`` would cover ``g``.  The
    branches at ``t`` meet the rest only in ``V_t``, so they join into one
    small side ``A``, and ``(V_t, V)`` is small too, since ``V`` covers
    ``g``.  But ``G[A]`` and ``G[V_t]`` cover ``g``.

    The level of threshold ``t`` holds the tangles of order ``t + 1``, so
    every level whose threshold exceeds ``Graph.elimination_width``, the
    width of a tree-decomposition, is empty; only the levels up to it are
    searched, and the others are reported empty.
    """
    universe = enumerate_graph_separations(g, max_vertices)
    chain = slice_chain(universe)
    if max_order is not None:
        chain = chain.prefix(bisect_left(chain.thresholds, max_order))
    searched = chain.prefix(bisect_right(chain.thresholds, g.elimination_width))
    levels = enumerate_chain_profiles(searched, graph_tangle_kind(g))
    levels += [[] for _ in range(len(chain) - len(searched))]
    return _profiles_and_family(chain, levels, g, maximal_only=True)


def clique_profiles(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> PipelineResult:
    """The profiles of the clique-separation slices of a graph and their
    family, over the universe of the clique separations alone."""
    chain = slice_chain(enumerate_clique_separations(g, max_vertices))
    return _profiles_and_family(chain, enumerate_chain_profiles(chain, PROFILE), g)


def circle_tangles(
    points,
    m: int,
    n: int,
    order_fn: Callable[[int, int], int] | None = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> PipelineResult:
    """The circle tangles of a cyclically ordered set of at most
    ``max_vertices`` points and their family."""
    kind = circle_tangle_kind(m, n)
    universe, circle = enumerate_circle_separations(points, order_fn, max_vertices)
    chain = slice_chain(universe, within=circle)
    return _profiles_and_family(chain, enumerate_chain_profiles(chain, kind), circle=circle)


def graph_pipeline(
    g: Graph,
    canonical: bool = False,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_order: int | None = None,
) -> PipelineResult:
    """Tangles of a graph, the efficient families over its maximal tangles,
    a nested distinguishing set, and the displaying tree-decomposition."""
    return _extract_and_check(graph_tangles(g, max_vertices, max_order), canonical)


def clique_pipeline(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> PipelineResult:
    """Profiles of the clique-separation slices of a graph and a canonical
    nested set of clique separations distinguishing them efficiently."""
    return _extract_and_check(clique_profiles(g, max_vertices), True)


def circle_pipeline(
    points,
    m: int,
    n: int,
    order_fn: Callable[[int, int], int] | None = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> PipelineResult:
    """Circle tangles of a cyclically ordered set and a canonical tree set of
    circle separations distinguishing all distinguishable tangles."""
    return _extract_and_check(circle_tangles(points, m, n, order_fn, max_vertices), True)
