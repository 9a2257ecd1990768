"""End-to-end pipelines: tangles to nested sets to tree-decompositions.

The graph, clique and circle pipelines share one core of two steps: the
profiles of a subsystem chain and the efficient-distinguisher family over
them, then a nested set extracted (canonically or not), checked to
distinguish the profiles efficiently and, for graph separations, turned
into a tree-decomposition.  They differ only in the universe, the chain,
the profile kind and whether only the maximal profiles are kept; the
clique pipeline's universe holds the clique separations only, as its
profiles, family and nested set use no other separation.  Callers
needing only the profiles and the family stop after the first step, which
``graph_tangles``, ``clique_profiles`` and ``circle_tangles`` run alone.

This module owns that core and knows no command: ``graphio.run_command``
maps a command and its params to one of these calls.  The check that a
nested set meets every family set, ``efficiently_distinguishes_all``, lives
in ``splinter`` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .profiles import (
    PROFILE,
    ProfileKind,
    build_distinguisher_family,
    circle_tangle_kind,
    enumerate_chain_profiles,
    graph_tangle_kind,
    maximal_profiles,
)
from .sepsys import Universe
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
    graph: Graph | None
    universe: Universe
    chain: SubsystemChain
    levels: list
    profiles: list
    family: IndexedFamily | None
    nested: frozenset
    decomposition: TreeDecomposition | None = None
    extraction: object = None
    displays_ok: bool | None = None
    meta: dict = field(default_factory=dict)

    def tangle_counts(self) -> list[int]:
        return [len(l) for l in self.levels]


def _extract(family: IndexedFamily | None, canonical: bool):
    if family is None or not len(family):
        return None, frozenset()
    if canonical:
        res = extract_canonical(family)
        return res, res.nested
    res = extract_transversal(family)
    return res, res.nested_set()


def _profiles_and_family(
    chain: SubsystemChain,
    kind: ProfileKind,
    meta: dict,
    graph: Graph | None = None,
    maximal_only: bool = False,
) -> PipelineResult:
    """Step one: the profiles of ``chain`` (only the maximal ones if asked)
    and the efficient-distinguisher family over them (None for fewer than
    two profiles).  The result has no nested set yet; ``meta`` names its kind."""
    levels = enumerate_chain_profiles(chain, kind, graph=graph)
    profiles = [p for lvl in levels for p in lvl]
    if maximal_only:
        profiles = maximal_profiles(profiles)
    family = build_distinguisher_family(profiles) if len(profiles) > 1 else None
    return PipelineResult(
        graph=graph,
        universe=chain.universe,
        chain=chain,
        levels=levels,
        profiles=profiles,
        family=family,
        nested=frozenset(),
        meta=meta,
    )


def _extract_and_check(base: PipelineResult, canonical: bool) -> PipelineResult:
    """Step two: the nested set, the tree-decomposition for graph universes,
    and whether the set efficiently distinguishes the profiles."""
    extraction, nested = _extract(base.family, canonical)
    td = None if base.graph is None else build_tree_decomposition(base.graph, base.universe, nested)
    ok = efficiently_distinguishes_all(nested, base.family)
    meta = {**base.meta, "canonical": canonical}
    return replace(
        base, nested=nested, decomposition=td, extraction=extraction, displays_ok=ok, meta=meta
    )


def graph_tangles(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES, max_order: int | None = None
) -> PipelineResult:
    """The tangles of a graph, below ``max_order`` if given, and the family
    over the maximal ones."""
    universe = enumerate_graph_separations(g, max_vertices)
    chain = slice_chain(universe)
    if max_order is not None:
        keep = [i for i, t in enumerate(chain.thresholds) if t < max_order]
        chain = SubsystemChain(
            universe,
            tuple(chain.systems[i] for i in keep),
            thresholds=tuple(chain.thresholds[i] for i in keep),
        )
    meta = {"kind": "graph-tangle"}
    return _profiles_and_family(chain, graph_tangle_kind(), meta, g, maximal_only=True)


def clique_profiles(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> PipelineResult:
    """The profiles of the clique-separation slices of a graph and their
    family, over the universe of the clique separations alone."""
    chain = slice_chain(enumerate_clique_separations(g, max_vertices))
    return _profiles_and_family(chain, PROFILE, {"kind": "clique-profile"}, g)


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
    meta = {"kind": "circle-tangle", "m": m, "n": n, "circle": circle}
    return _profiles_and_family(chain, kind, meta)


def graph_pipeline(
    g: Graph,
    canonical: bool = False,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_order: int | None = None,
) -> PipelineResult:
    """Tangles of a graph, the efficient families over its maximal tangles,
    a nested distinguishing set, and the displaying tree-decomposition."""
    return _extract_and_check(graph_tangles(g, max_vertices, max_order), canonical)


def clique_pipeline(
    g: Graph,
    canonical: bool = True,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> PipelineResult:
    """Profiles of the clique-separation slices of a graph and a (canonical)
    nested set of clique separations distinguishing them efficiently."""
    return _extract_and_check(clique_profiles(g, max_vertices), canonical)


def circle_pipeline(
    points,
    m: int,
    n: int,
    order_fn: Callable[[int, int], int] | None = None,
    canonical: bool = True,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> PipelineResult:
    """Circle tangles of a cyclically ordered set and a (canonical) tree set
    of circle separations distinguishing all distinguishable tangles."""
    return _extract_and_check(circle_tangles(points, m, n, order_fn, max_vertices), canonical)
