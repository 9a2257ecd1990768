"""Tree-decompositions from nested sets of graph separations.

The builder inserts the separations of a nested set one at a time, in
canonical order, each splitting the unique tree node whose region contains
it; bags are the intersections of the big sides pointing at a node.  Every
build is validated (decomposition validity plus an exact round trip of the
induced separations) before it is returned.  The induced separations come
from one walk of the tree that yields both sides of every edge.

Small or trivial members are tolerated: they produce leaf-ish bags, and
ambiguous attachments are resolved towards the canonical orientation.
``is_tree_set`` is the strict check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalContradictionError, NotNestedError, SeparationError
from .sepsys import Universe
from .splinter import efficiently_distinguishes_all
from .universes import Graph, label_key

__all__ = [
    "TreeDecomposition",
    "is_tree_set",
    "build_tree_decomposition",
    "induced_uids",
    "is_valid_tree_decomposition",
    "displays",
    "decomposition_to_json",
    "decomposition_to_dot",
]


@dataclass
class TreeDecomposition:
    """A tree plus bags."""

    graph: Graph
    bags: dict
    edges: list

    @property
    def nodes(self) -> list[int]:
        return sorted(self.bags)


def _trivial_members(universe: Universe, uids: list) -> list:
    """The members of ``uids`` that are trivial relative to ``uids``."""
    return [a for a in uids if any(universe.is_trivial(o, uids) for o in universe.orientations(a))]


def is_tree_set(universe: Universe, seps) -> bool:
    """Pairwise nested with no member trivial relative to the set."""
    uids = sorted({universe.uid(s) for s in seps})
    return universe.first_crossing(uids) is None and not _trivial_members(universe, uids)


def build_tree_decomposition(g: Graph, universe: Universe, seps) -> TreeDecomposition:
    """Tree-decomposition of ``g`` whose induced separations are exactly ``seps``."""
    if tuple(g.vertices) != tuple(universe.labels):
        raise SeparationError("universe was not built from this graph")
    uids = sorted({universe.uid(s) for s in seps})
    crossing = universe.first_crossing(uids)
    if crossing is not None:
        raise NotNestedError("separations {} and {} cross".format(*crossing))

    # incident[x] holds the oriented ids pointing at node x
    incident: list[list[int]] = [[]]
    for uid in uids:
        bwd = universe.inv(uid)
        host = None
        for x in range(len(incident)):
            if all(universe.leq(t, uid) or universe.leq(t, bwd) for t in incident[x]):
                host = x
                break
        if host is None:
            raise InternalContradictionError(f"no node can host separation {uid}")
        stay = [t for t in incident[host] if universe.leq(t, uid)]
        move = [t for t in incident[host] if not universe.leq(t, uid)]
        # host becomes the A-side node, the new node the B-side one
        incident[host] = stay + [bwd]
        incident.append(move + [uid])
    # each oriented id points at one node, and the edge of uid joins the
    # node its inverse points at to the node it points at
    head = {t: x for x, ts in enumerate(incident) for t in ts}
    edges = [(head[universe.inv(uid)], head[uid]) for uid in uids]

    full = universe.full_mask
    bags = {}
    for x, ts in enumerate(incident):
        m = full
        for t in ts:
            m &= universe.sides(t)[1]
        bags[x] = frozenset(universe.labels_of(m))

    td = TreeDecomposition(graph=g, bags=bags, edges=edges)
    ok, reason = is_valid_tree_decomposition(td)
    if not ok:
        raise InternalContradictionError(f"built decomposition is invalid: {reason}")
    got = induced_uids(td, universe)
    if got != frozenset(uids):
        raise InternalContradictionError(
            f"induced separations {sorted(got)} differ from input {uids}"
        )
    return td


def _walk(td: TreeDecomposition) -> tuple[dict, list]:
    """Parent of each node reached from the first node (the first node's is
    None), and the nodes in the order reached."""
    adj: dict[int, list] = {x: [] for x in td.bags}
    for x, y in td.edges:
        adj[x].append(y)
        adj[y].append(x)
    root = next(iter(td.bags))
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    return parent, order


def _edge_sides(td: TreeDecomposition) -> list[tuple[frozenset, frozenset]]:
    """For each tree edge ``(a, b)``, the vertices in the bags on ``a``'s side
    and on ``b``'s side, from one walk of the tree."""
    if not td.edges:
        return []
    parent, order = _walk(td)
    below = {x: {x} for x in td.bags}  # the nodes of the subtree rooted at x
    for x in reversed(order):
        if parent[x] is not None:
            below[parent[x]] |= below[x]
    nodes = set(td.bags)
    out = []
    for a, b in td.edges:
        left = nodes - below[b] if parent.get(b) == a else below[a]
        out.append(tuple(frozenset().union(*(td.bags[x] for x in side)) for side in (left, nodes - left)))
    return out


def induced_uids(td: TreeDecomposition, universe: Universe) -> frozenset:
    out = set()
    for ua, ub in _edge_sides(td):
        oid = universe.find(universe.mask_of(ua), universe.mask_of(ub))
        if oid is None:
            raise SeparationError(
                f"induced pair ({sorted(ua)}, {sorted(ub)}) is not a separation of the universe"
            )
        out.add(universe.uid(oid))
    return frozenset(out)


def is_valid_tree_decomposition(td: TreeDecomposition) -> tuple[bool, str]:
    """Standard validity: tree shape, coverage, and connected vertex subtrees."""
    g = td.graph
    nodes = set(td.bags)
    if not nodes:
        return False, "no nodes"
    if len(td.edges) != len(nodes) - 1:
        return False, "edge count is not nodes - 1"
    if any(x not in nodes or y not in nodes for x, y in td.edges):
        return False, "edge endpoint is not a node"
    parent, order = _walk(td)
    if len(order) != len(nodes):
        return False, "tree is not connected"
    covered = set().union(*td.bags.values()) if td.bags else set()
    if covered != set(g.vertices):
        return False, "bags do not cover all vertices"
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.bags.values()):
            return False, f"edge ({u!r}, {v!r}) is in no bag"
    for v in g.vertices:
        holding = {x for x, bag in td.bags.items() if v in bag}
        # a node set of a tree is connected iff it spans one edge fewer than it has nodes
        if sum(parent[x] in holding for x in holding) != len(holding) - 1:
            return False, f"bags holding {v!r} are not connected"
    return True, "ok"


def displays(td: TreeDecomposition, family, universe: Universe) -> bool:
    """Whether the induced separations meet every set of the tangles'
    efficient-distinguisher ``family`` (None for fewer than two tangles)."""
    return efficiently_distinguishes_all(induced_uids(td, universe), family)


# ----------------------------------------------------------------------
# exports


def decomposition_to_json(td: TreeDecomposition) -> dict:
    return {
        "nodes": [
            {"id": x, "bag": sorted(td.bags[x], key=label_key)}
            for x in td.nodes
        ],
        "edges": sorted([min(a, b), max(a, b)] for a, b in td.edges),
    }


def decomposition_to_dot(td: TreeDecomposition) -> str:
    lines = ["graph treedec {", "  node [shape=box];"]
    for x in td.nodes:
        label = ",".join(str(v) for v in sorted(td.bags[x], key=label_key))
        lines.append(f'  n{x} [label="{{{label}}}"];')
    for a, b in sorted((min(a, b), max(a, b)) for a, b in td.edges):
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
