"""totkit: trees of tangles for finite separation systems.

A library for abstract separation systems and the constructive extraction
of (canonical) nested separation sets that efficiently distinguish the
tangles and profiles of small graphs, clique-separation systems, and
circle-separation systems, together with the corresponding
tree-decompositions.
"""

from .errors import (
    HierarchicalConditionError,
    InputError,
    InternalContradictionError,
    NotNestedError,
    SeparationError,
    SizeBoundError,
    SplinterConditionError,
    UniverseClosureError,
    VerificationError,
)
from .sepsys import SubSystem, Universe
from .universes import (
    Graph,
    SubsystemChain,
    automorphisms,
    bipartition_universe,
    check_submodular_order,
    clique_subsystem,
    cut_order_fn,
    enumerate_circle_separations,
    enumerate_clique_separations,
    enumerate_graph_separations,
    is_clique_separation,
    is_compatible_sequence,
    restrict_Sk,
    slice_chain,
)

__version__ = "0.1.0"
